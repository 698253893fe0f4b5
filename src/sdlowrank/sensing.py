"""Seeded sub-Gaussian measurement operators on matrices.

An operator is m matrices A_i collected as the rows of a dense
m x (n1 n2) array, acting by y_i = <X, A_i>.  Columns of X are stacked
in Fortran order throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MeasurementOperator",
    "RipEstimate",
    "draw_operator",
    "apply",
    "empirical_rip",
    "gaussian_rank_k",
    "random_signs",
]

DISTRIBUTIONS = ("gaussian", "rademacher")

# refuse operators whose dense storage would dwarf desk memory
MAX_OPERATOR_ENTRIES = 200_000_000

# rows of int64 draws random_signs holds at once
_SIGN_ROWS = 16


@dataclass(frozen=True)
class MeasurementOperator:
    """Dense representation of M; draw_operator's seed reproduces it.

    data[i] is vec(A_i) in column-stacked order, so apply is a single
    matrix-vector product.
    """

    shape: tuple
    data: np.ndarray = field(repr=False)

    @property
    def rows(self):
        """m, the number of measurements."""
        return self.data.shape[0]


@dataclass(frozen=True)
class RipEstimate:
    """Sampled restricted-isometry statistics on unit rank-k matrices.

    delta_hat is a lower bound for the true constant: sampling can only
    under-estimate the extremes.
    """

    delta_hat: float
    extremes: tuple


def draw_operator(m, n1, n2, distribution="gaussian", seed=0):
    """Draw a reproducible m x (n1 n2) operator with i.i.d. entries."""
    if m < 1 or n1 < 1 or n2 < 1:
        raise ValueError("dimensions must be positive")
    if m * n1 * n2 > MAX_OPERATOR_ENTRIES:
        raise ValueError(
            f"operator would hold {m * n1 * n2} entries, "
            f"beyond the budget {MAX_OPERATOR_ENTRIES}"
        )
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}")
    rng = np.random.default_rng(seed)
    if distribution == "gaussian":
        data = rng.standard_normal((m, n1 * n2))
    else:
        data = random_signs(rng, m, n1 * n2)
    return MeasurementOperator(shape=(n1, n2), data=data)


def random_signs(rng, rows, cols):
    """A rows x cols float array of i.i.d. +-1 from rng.

    The entries are rng.integers(0, 2, size=(rows, cols)) mapped to
    2 b - 1, drawn _SIGN_ROWS rows at a time into the float array, so no
    int64 copy of the whole matrix is made.  The generator consumes the
    same stream either way, so the array equals the one-draw expression.
    """
    data = np.empty((rows, cols))
    for start in range(0, rows, _SIGN_ROWS):
        data[start:start + _SIGN_ROWS] = rng.integers(
            0, 2, size=(min(_SIGN_ROWS, rows - start), cols))
    data *= 2.0
    data -= 1.0
    return data


def apply(op, X):
    """y_i = <X, A_i> for every row; accepts any operator-like with data."""
    X = np.asarray(X, dtype=float)
    if X.shape != tuple(op.shape):
        raise ValueError(f"expected shape {tuple(op.shape)}, got {X.shape}")
    return op.data @ X.reshape(-1, order="F")


def gaussian_rank_k(rng, n1, n2, k):
    """Sum of k Gaussian outer products alpha_i u_i v_i^T."""
    alpha = rng.standard_normal(k)
    U = rng.standard_normal((n1, k))
    V = rng.standard_normal((n2, k))
    return (U * alpha) @ V.T


def empirical_rip(op, k, trials, seed=0):
    """Sample the isometry ratio on random unit-Frobenius rank-k matrices.

    Ratios are ||op(X)||^2 / ||X||_F^2; the estimate reports the worst
    deviations from 1 on either side.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n1, n2 = op.shape
    if not (1 <= k <= min(n1, n2)):
        raise ValueError(f"k must lie in [1, {min(n1, n2)}]")
    rng = np.random.default_rng(seed)
    lo, hi = np.inf, -np.inf
    for _ in range(trials):
        X = gaussian_rank_k(rng, n1, n2, k)
        X = X / np.linalg.norm(X)
        ratio = float(np.sum(apply(op, X) ** 2))
        lo = min(lo, ratio)
        hi = max(hi, ratio)
    delta_hat = max(1.0 - lo, hi - 1.0, 0.0)
    return RipEstimate(delta_hat=delta_hat, extremes=(lo, hi))
