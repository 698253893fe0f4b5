"""Dense reference forms of D^{-r} and its singular basis, for tests only.

The package never forms the m x m matrix D^{-r}; these oracles do, so
tests can pin the cumulative-sum primitive and the leading singular pairs
that noise_shaping.compute_basis computes against an independent route.
"""

import math

import numpy as np

_ENTRY_GUARD_M = 512
_ENTRY_GUARD_R = 4


def inverse_power_entries(m, r):
    """Exact integer matrix of D^{-r}: entry (i, j) = C(i - j + r - 1, r - 1).

    Guarded to m <= 512 and r <= 4 so every entry fits comfortably in
    int64.  Multiplying by the explicit D^r matrix gives the identity
    exactly in integer arithmetic.
    """
    if not (1 <= m <= _ENTRY_GUARD_M):
        raise ValueError(f"m must lie in [1, {_ENTRY_GUARD_M}]")
    if not (1 <= r <= _ENTRY_GUARD_R):
        raise ValueError(f"r must lie in [1, {_ENTRY_GUARD_R}]")
    out = np.zeros((m, m), dtype=np.int64)
    # first column is C(i + r - 1, r - 1); every other column is a shift
    col = np.array([math.comb(i + r - 1, r - 1) for i in range(m)], dtype=np.int64)
    for j in range(m):
        out[j:, j] = col[: m - j]
    return out


def dense_inverse_power(m, r):
    """D^{-r} as a dense float matrix, from r cumulative sums of the identity."""
    out = np.eye(m)
    for _ in range(r):
        np.cumsum(out, axis=0, out=out)
    return out


def dense_basis(m, r):
    """Full SVD of the dense D^{-r}: (U, s, V) with U and V by columns."""
    U, s, Vh = np.linalg.svd(dense_inverse_power(m, r))
    return U, s, Vh.T


def difference_power(m, r):
    """Dense integer D^r with entries (-1)^(i-j) C(r, i-j)."""
    out = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(max(0, i - r), i + 1):
            out[i, j] = (-1) ** (i - j) * math.comb(r, i - j)
    return out
