"""Bernoulli compression of quantized measurements and rate accounting.

A random sign matrix B maps the length-m shaped vector D^{-r} q down to
L_enc numbers.  Transmitting those at the precision the decoder needs
costs about L_enc * r * log2(alpha * m) bits, a huge saving over the
raw m quantized values; the decoder then works with the sketched ball
constraint ||B D^{-r}(M(Z) + nu - q)|| <= 3 m gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sdlowrank import noise_shaping

__all__ = [
    "EncoderMatrix",
    "EncodedMeasurements",
    "draw_encoder",
    "encode",
    "rate_bits_nominal",
    "rate_bits_plotted",
]


@dataclass(frozen=True)
class EncoderMatrix:
    """Reproducible L_enc x m random sign matrix with a norm certificate.

    norm_estimate is the exact spectral norm; norm_ok records whether it
    stays within the high-probability bound sqrt(L_enc) + 2 sqrt(m).
    """

    out_dim: int
    in_dim: int
    seed: int
    data: np.ndarray = field(repr=False)
    norm_estimate: float = 0.0
    norm_ok: bool = True


@dataclass(frozen=True)
class EncodedMeasurements:
    """Sketched payload B D^{-r} q with its bit-rate accounting.

    rate_bits follows the nominal formula ceil(L_enc * r * log2(alpha m));
    the payload itself stays in floating point, the rate is bookkeeping.
    """

    payload: np.ndarray = field(repr=False)
    rate_bits: int = 0
    alphabet_max: float = 0.0
    order: int = 1


def draw_encoder(L_enc, m, seed=0):
    """Draw a reproducible ±1 encoder and check its operator norm."""
    if not (1 <= L_enc <= m):
        raise ValueError("need 1 <= L_enc <= m")
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, size=(L_enc, m)).astype(float) * 2.0 - 1.0
    # exact spectral norm: the top eigenvalue of the L_enc x L_enc Gram matrix
    est = float(np.sqrt(np.linalg.eigvalsh(data @ data.T)[-1]))
    bound = np.sqrt(L_enc) + 2.0 * np.sqrt(m)
    return EncoderMatrix(
        out_dim=int(L_enc),
        in_dim=int(m),
        seed=int(seed),
        data=data,
        norm_estimate=est,
        norm_ok=bool(est <= bound),
    )


def rate_bits_nominal(L_enc, r, alphabet_max, m):
    """ceil(L_enc * r * log2(alpha * m)), the nominal bit cost."""
    return math.ceil(L_enc * r * math.log2(alphabet_max * m))


def rate_bits_plotted(L_enc, r, m):
    """ceil(L_enc * r * log m) with natural log, the variant the
    rate-distortion figures are conventionally plotted against."""
    return math.ceil(L_enc * r * math.log(m))


def encode(q, r, encoder, alphabet_max):
    """Sketch the shaped quantized vector and account its rate."""
    q = np.asarray(q, dtype=float)
    if q.shape != (encoder.in_dim,):
        raise ValueError(f"expected length {encoder.in_dim}, got {q.shape}")
    payload = encoder.data @ noise_shaping.apply_inverse_power(q, r)
    return EncodedMeasurements(
        payload=payload,
        rate_bits=rate_bits_nominal(encoder.out_dim, r, alphabet_max, encoder.in_dim),
        alphabet_max=float(alphabet_max),
        order=int(r),
    )
