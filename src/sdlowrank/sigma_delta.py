"""Greedy Sigma-Delta quantization against a symmetric midrise alphabet.

A quantization scheme of order r replaces each measurement y_i by the
nearest alphabet level q_i of a feedback-corrected value v_i, and keeps
the running error in a state sequence u.  The defining identity is

    y - q = (backward difference)^r applied to u,

with u_i = 0 for i <= 0.  As long as the alphabet has enough levels the
state stays uniformly bounded by half the step size, which is what the
downstream decoder relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sdlowrank import noise_shaping

__all__ = [
    "Alphabet",
    "SigmaDeltaScheme",
    "QuantizationRun",
    "build_alphabet",
    "default_scheme",
    "required_levels",
    "quantize",
    "state_residual",
]


@dataclass(frozen=True)
class Alphabet:
    """Symmetric 2L-level midrise alphabet with uniform step.

    Attributes
    ----------
    num_levels_half : int
        L, half the number of levels.
    step : float
        The gap beta between consecutive levels.
    """

    num_levels_half: int
    step: float

    @property
    def max_level(self):
        """Largest representable magnitude, (L - 1/2) * beta."""
        return (self.num_levels_half - 0.5) * self.step


@dataclass(frozen=True)
class SigmaDeltaScheme:
    """Order, alphabet and state bound gamma of a greedy quantizer.

    stability_constant is gamma, the bound on |u| that the decoder's
    constraint radius is built from; quantize flags a run whose state
    exceeds it.
    """

    order: int
    alphabet: Alphabet
    stability_constant: float

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.stability_constant <= 0:
            raise ValueError("stability_constant must be positive")


@dataclass(frozen=True)
class QuantizationRun:
    """Input y, quantized output q, state sequence u, and overflow flag."""

    input: np.ndarray
    output: np.ndarray
    state: np.ndarray
    overflow: bool


def build_alphabet(num_levels_half, step):
    """Construct the 2L-level alphabet with L = num_levels_half and gap step."""
    if num_levels_half < 1:
        raise ValueError("num_levels_half must be >= 1")
    if not (step > 0):
        raise ValueError("step must be positive")
    return Alphabet(num_levels_half=int(num_levels_half), step=float(step))


def default_scheme(order, alphabet):
    """Scheme with the half-step stability bound gamma = beta / 2.

    beta / 2 holds for inputs inside the alphabet's range when the
    alphabet is large enough (see required_levels); any other positive
    gamma is a bound the caller certifies and passes to SigmaDeltaScheme.
    """
    return SigmaDeltaScheme(order, alphabet, alphabet.step / 2)


def required_levels(input_bound, step, order):
    """Alphabet half-size sufficient for the half-step state bound.

    Returns L = 2 * ceil(mu / beta) + 2^order + 1 for inputs bounded by mu.
    """
    if input_bound < 0:
        raise ValueError("input_bound must be nonnegative")
    if not (step > 0):
        raise ValueError("step must be positive")
    if order < 1:
        raise ValueError("order must be >= 1")
    return 2 * math.ceil(input_bound / step) + 2 ** order + 1


def quantize(y, scheme):
    """Run the order-r greedy recursion over y and return the full run.

    For each i, the feedback value is
        v_i = y_i + sum_{j=1}^{min(r, i-1)} (-1)^(j+1) C(r, j) u_{i-j}
    with q_i the nearest alphabet level and u_i = v_i - q_i.  The overflow
    flag records whether any |u_i| exceeded the scheme's stability bound
    by more than rounding: the levels (j + 1/2) beta carry up to
    half an ulp of the largest level, so a state on the bound can read an
    ulp above it when beta is not dyadic.  Quantization always runs to
    completion, saturating at the extreme levels when the input leaves
    the certified range; a feedback value that leaves the floating-point
    range raises ValueError.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("quantize expects a nonempty 1-d vector")
    if not np.all(np.isfinite(y)):
        raise ValueError("quantize requires finite inputs")
    r = scheme.order
    alphabet = scheme.alphabet
    # nearest level on Python floats: a floor candidate, then its
    # neighbours, with exact ties going to the larger level.  Level j is
    # ((j - L) + 1/2) * beta, the product the alphabet's values form, and
    # (j - L) + 1/2 +- 1 is exact, so each level keeps those bits
    half = alphabet.num_levels_half
    top = 2 * half - 1
    step = alphabet.step
    # alternating binomial weights on the last r states, exact in floats;
    # states[j] is u_{i-1-j}.  The zero states before the start add exact
    # zeros to the feedback, which can flip only the sign of a zero v, and
    # neither its level nor its state depends on that sign
    coeffs = [float((-1) ** (j + 1) * math.comb(r, j)) for j in range(1, r + 1)]
    states = [0.0] * r
    m = y.size
    q = np.empty(m)
    u = np.empty(m)
    for i in range(m):
        v = y.item(i)
        for c, prev in zip(coeffs, states):
            v += c * prev
        try:
            j = math.floor(v / step) + half
        except (OverflowError, ValueError):
            raise ValueError(
                f"quantize: feedback value {v} at sample {i} is out of range"
            ) from None
        j = min(max(j, 0), top)
        k = (j - half) + 0.5
        qi = k * step
        # the levels increase with k, so only the neighbour on v's side
        # of qi can be nearer
        if v < qi:
            if j > 0:
                below = (k - 1.0) * step
                if abs(below - v) < qi - v:
                    qi = below
        elif j < top:
            above = (k + 1.0) * step
            if abs(above - v) <= v - qi:
                qi = above
        q[i] = qi
        u[i] = ui = v - qi
        states.pop()
        states.insert(0, ui)
    rounding = 4 * np.finfo(float).eps * (alphabet.max_level + alphabet.step)
    overflow = bool(np.max(np.abs(u)) > scheme.stability_constant + rounding)
    return QuantizationRun(input=y, output=q, state=u, overflow=overflow)


def state_residual(run, order):
    """Max-norm defect of y - q = (backward difference)^order u.

    Computed by explicit r-fold differencing of the recorded state, so it
    checks the recursion output rather than re-deriving it.  Contract: at
    most 1e-9 * max(1, ||y||_inf) for every run produced by quantize.
    """
    y, q, u = run.input, run.output, run.state
    if not (y.shape == q.shape == u.shape):
        raise ValueError("run fields have inconsistent shapes")
    return float(np.max(np.abs(y - q - noise_shaping.apply_difference(u, order))))
