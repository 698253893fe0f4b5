"""The difference operator D, its inverse powers, and their singular basis.

D is the m x m lower bidiagonal matrix with ones on the diagonal and
minus ones below it.  Applying D^r is r backward-difference passes;
applying D^{-r} is r cumulative-sum passes.  apply_difference and
apply_inverse_power are the package's only implementations of the two;
every other module calls them.  The stabilized decoder constraint needs
the singular value decomposition D^{-r} = U S V^T, which is expensive at
large m, so computed bases are cached on disk.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NoiseShapingBasis",
    "apply_difference",
    "apply_inverse_power",
    "inverse_power_entries",
    "compute_basis",
    "project_shaped",
    "DEFAULT_SVD_SIZE_BUDGET",
]

# Dense SVD work grows cubically; beyond this size a desk machine stalls.
DEFAULT_SVD_SIZE_BUDGET = 4096

_CACHE_FORMAT_VERSION = 1

_ENTRY_GUARD_M = 512
_ENTRY_GUARD_R = 4


@dataclass(frozen=True)
class NoiseShapingBasis:
    """SVD of D^{-r} together with a truncation index.

    left_vectors and right_vectors hold U and V by columns;
    singular_values is nonincreasing.  truncation is the number of
    leading right-singular directions the stabilized constraint keeps.
    """

    size: int
    order: int
    left_vectors: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)
    right_vectors: np.ndarray = field(repr=False)
    truncation: int

    @property
    def sigma_truncation(self):
        """The singular value at the truncation index."""
        return float(self.singular_values[self.truncation - 1])


def _check_order(r):
    if r < 1:
        raise ValueError("order r must be >= 1")


def apply_difference(a, r):
    """Apply D^r along axis 0 of a vector or matrix: r backward-difference
    passes, O(r m) per column."""
    _check_order(r)
    out = np.asarray(a, dtype=float)
    for _ in range(r):
        out = np.diff(out, prepend=0.0, axis=0)
    return out


def apply_inverse_power(a, r):
    """Apply D^{-r} along axis 0 of a vector or matrix: one copy, then r
    in-place cumulative-sum passes.

    Exact inverse of apply_difference up to floating-point roundoff; on
    dyadic-rational inputs of moderate size the round trip is exact.
    D^{-r,T} is this map on reversed rows: D^{-r,T} x = rev(D^{-r} rev x).
    """
    _check_order(r)
    out = np.array(a, dtype=float)
    for _ in range(r):
        np.cumsum(out, axis=0, out=out)
    return out


def inverse_power_entries(m, r):
    """Exact integer matrix of D^{-r}: entry (i, j) = C(i - j + r - 1, r - 1).

    Guarded to m <= 512 and r <= 4 so every entry fits comfortably in
    int64.  Multiplying by the explicit D^r matrix gives the identity
    exactly in integer arithmetic, which makes this the test oracle for
    the cumulative-sum implementation.
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


def _cache_path(cache_dir, m, r):
    return os.path.join(cache_dir, f"noise_shaping_basis_m{m}_r{r}.npz")


def _write_cache(path, m, r, U, s, V):
    """Atomic write: serialize to a sibling temp file, then rename over."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".npz.tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh,
                format_version=np.array([_CACHE_FORMAT_VERSION]),
                size=np.array([m]),
                order=np.array([r]),
                left_vectors=U,
                singular_values=s,
                right_vectors=V,
            )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _read_cache(path, m, r):
    try:
        with np.load(path) as data:
            if int(data["format_version"][0]) != _CACHE_FORMAT_VERSION:
                return None
            if int(data["size"][0]) != m or int(data["order"][0]) != r:
                return None
            return (
                np.array(data["left_vectors"]),
                np.array(data["singular_values"]),
                np.array(data["right_vectors"]),
            )
    except (OSError, KeyError, ValueError):
        return None


def compute_basis(m, r, truncation, cache_dir=None, size_budget=DEFAULT_SVD_SIZE_BUDGET):
    """SVD of D^{-r} at size m, optionally cached on disk.

    Parameters
    ----------
    m, r : int
        Size and order.  m beyond size_budget is rejected; lower the
        oversampling range or raise the budget explicitly.
    truncation : int
        Number of leading right-singular directions kept by
        project_shaped.
    cache_dir : str or None
        When given, results are read from / written to
        ``noise_shaping_basis_m{m}_r{r}.npz`` in this directory.  Writes
        are atomic so concurrent trials never observe partial files.
    """
    if not (1 <= truncation <= m):
        raise ValueError("truncation must lie in [1, m]")
    if m > size_budget:
        raise ValueError(
            f"m = {m} exceeds the SVD size budget {size_budget}; "
            "reduce the oversampling grid or pass a larger size_budget"
        )
    cached = None
    path = None
    if cache_dir is not None:
        path = _cache_path(cache_dir, m, r)
        cached = _read_cache(path, m, r)
    if cached is not None:
        U, s, V = cached
    else:
        dense = apply_inverse_power(np.eye(m), r)
        try:
            U, s, Vh = np.linalg.svd(dense, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"SVD of D^-{r} at m={m} did not converge: {exc}") from exc
        V = Vh.T
        if path is not None:
            _write_cache(path, m, r, U, s, V)
    basis = NoiseShapingBasis(
        size=m,
        order=r,
        left_vectors=U,
        singular_values=s,
        right_vectors=V,
        truncation=int(truncation),
    )
    _check_basis(basis)
    return basis


def _check_basis(basis):
    s = basis.singular_values
    if np.any(s <= 0):
        raise RuntimeError("singular values of D^{-r} must be strictly positive")
    if np.any(np.diff(s) > 0):
        raise RuntimeError("singular values must be nonincreasing")


def project_shaped(v, basis):
    """The stabilized constraint map: sigma_ell * (V^T v restricted to the
    first ell coordinates), returned as a vector of length ell."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != basis.size:
        raise ValueError(f"expected length {basis.size}, got {v.shape[0]}")
    ell = basis.truncation
    head = basis.right_vectors[:, :ell].T @ v
    return basis.sigma_truncation * head
