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
from sdlowrank import sensing

__all__ = [
    "EncodedMeasurements",
    "draw_encoder",
    "encode",
    "rate_bits_nominal",
    "rate_bits_plotted",
]


@dataclass(frozen=True)
class EncodedMeasurements:
    """Sketched payload B D^{-r} q with its bit-rate accounting.

    rate_bits follows the nominal formula ceil(L_enc * r * log2(alpha m));
    the payload itself stays in floating point, the rate is bookkeeping.
    """

    payload: np.ndarray = field(repr=False)
    rate_bits: int


def draw_encoder(L_enc, m, seed=0):
    """The L_enc x m ±1 encoder B; the seed reproduces it."""
    if not (1 <= L_enc <= m):
        raise ValueError("need 1 <= L_enc <= m")
    return sensing.random_signs(np.random.default_rng(seed), L_enc, m)


def rate_bits_nominal(L_enc, r, alphabet_max, m):
    """ceil(L_enc * r * log2(alpha * m)), the nominal bit cost."""
    return math.ceil(L_enc * r * math.log2(alphabet_max * m))


def rate_bits_plotted(L_enc, r, m):
    """ceil(L_enc * r * log m) with natural log, the variant the
    rate-distortion figures are conventionally plotted against."""
    return math.ceil(L_enc * r * math.log(m))


def encode(q, r, encoder, alphabet_max):
    """Sketch the shaped quantized vector and account its rate.  No sweep
    calls it; bench/tracing.py keeps it until its tracer is retired."""
    q = np.asarray(q, dtype=float)
    L_enc, m = encoder.shape
    if q.shape != (m,):
        raise ValueError(f"expected length {m}, got {q.shape}")
    return EncodedMeasurements(
        payload=encoder @ noise_shaping.apply_inverse_power(q, r),
        rate_bits=rate_bits_nominal(L_enc, r, alphabet_max, m),
    )
