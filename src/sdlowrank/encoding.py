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
    "EncoderMatrix",
    "EncodedMeasurements",
    "draw_encoder",
    "encode",
    "rate_bits_nominal",
    "rate_bits_plotted",
]


@dataclass(frozen=True)
class EncoderMatrix:
    """L_enc x m random sign matrix; draw_encoder's seed reproduces it."""

    data: np.ndarray = field(repr=False)

    @property
    def out_dim(self):
        """L_enc, the sketch length."""
        return self.data.shape[0]

    @property
    def in_dim(self):
        """m, the length of the vector it sketches."""
        return self.data.shape[1]


@dataclass(frozen=True)
class EncodedMeasurements:
    """Sketched payload B D^{-r} q with its bit-rate accounting.

    rate_bits follows the nominal formula ceil(L_enc * r * log2(alpha m));
    the payload itself stays in floating point, the rate is bookkeeping.
    """

    payload: np.ndarray = field(repr=False)
    rate_bits: int


def draw_encoder(L_enc, m, seed=0):
    """Draw a reproducible ±1 encoder."""
    if not (1 <= L_enc <= m):
        raise ValueError("need 1 <= L_enc <= m")
    rng = np.random.default_rng(seed)
    data = sensing.random_signs(rng, L_enc, m)
    return EncoderMatrix(data=data)


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
    if q.shape != (encoder.in_dim,):
        raise ValueError(f"expected length {encoder.in_dim}, got {q.shape}")
    payload = encoder.data @ noise_shaping.apply_inverse_power(q, r)
    return EncodedMeasurements(
        payload=payload,
        rate_bits=rate_bits_nominal(encoder.out_dim, r, alphabet_max, encoder.in_dim),
    )
