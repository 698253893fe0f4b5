"""The difference operator D, its inverse powers, and their leading singular pairs.

D is the m x m lower bidiagonal matrix with ones on the diagonal and
minus ones below it.  Applying D^r is r backward-difference passes;
applying D^{-r} is r cumulative-sum passes.  apply_difference and
apply_inverse_power are the package's only implementations of the two;
every other module calls them.  The stabilized decoder constraint reads
only the leading ell singular values sigma_1..sigma_ell of D^{-r} and
its leading right singular vectors V_ell.  compute_basis finds them in
O(m ell) memory, never forming the m x m matrix: in closed form at
r = 1, by block subspace iteration with Rayleigh-Ritz for r >= 2.  The
iteration factors its tall m x 2 ell blocks by Cholesky QR twice
(CholeskyQR2; Fukaya, Nakatsukasa, Yanagisawa and Yamamoto, ScalA 2014):
a small Gram matrix, its Cholesky factor and one matrix product, in
place of LAPACK's Householder QR and thin SVD.  Only the first
Rayleigh-Ritz step keeps a thin SVD, because its block is too
ill-conditioned for Cholesky QR (see _subspace_iteration).  The pair can
be cached on disk, keyed by (m, r, ell).
"""

from __future__ import annotations

import math
import os
import tempfile
import zipfile
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NoiseShapingBasis",
    "BasisNotCertified",
    "apply_difference",
    "apply_inverse_power",
    "compute_basis",
    "project_shaped",
]

# 3: bases built with Cholesky QR; their last digits differ from version 2's
_CACHE_FORMAT_VERSION = 3

# subspace iteration stops once sigma_ell ||D^{r,T} V_ell||_2 is within
# this of 1, and gives up after _MAX_STEPS power steps
_CERTIFICATE_SLACK = 1e-9
_MAX_STEPS = 30

# rows per block of apply_inverse_power on a matrix: 256 rows of 400
# float64 columns are 800 KB
_BLOCK_ROWS = 256


class BasisNotCertified(RuntimeError):
    """Subspace iteration ended without certifying its singular pairs."""


@dataclass(frozen=True)
class NoiseShapingBasis:
    """The leading ell singular values and right singular vectors of D^{-r}.

    singular_values holds sigma_1 >= ... >= sigma_ell and right_vectors
    the matching columns of V, an m x ell array; ell is the number of
    directions the stabilized constraint keeps.
    """

    order: int
    singular_values: np.ndarray = field(repr=False)
    right_vectors: np.ndarray = field(repr=False)

    @property
    def size(self):
        return self.right_vectors.shape[0]

    @property
    def sigma_truncation(self):
        """The singular value at the truncation index."""
        return float(self.singular_values[-1])

    @property
    def left_vectors(self):
        """U_ell = D^{-r} V_ell / sigma, formed on every access and never stored."""
        return apply_inverse_power(self.right_vectors, self.order) / self.singular_values


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
    """Apply D^{-r} along axis 0 of a vector or matrix: r cumulative-sum
    passes on a copy of a.

    A matrix is swept in blocks of _BLOCK_ROWS rows: each block is copied
    into the output and then takes all r passes while it is in cache,
    each pass starting from the last row it left in the previous block,
    so a row-major array goes through memory once instead of r + 1 times.
    Every entry is the same left-to-right running sum as in r whole-array
    passes, so the result is bit-identical to theirs.  A vector is copied
    whole and takes the r whole-array passes.

    Exact inverse of apply_difference up to floating-point roundoff; on
    dyadic-rational inputs of moderate size the round trip is exact.
    D^{-r,T} is this map on reversed rows: D^{-r,T} x = rev(D^{-r} rev x).
    """
    _check_order(r)
    a = np.asarray(a)
    if a.ndim < 2:
        out = np.array(a, dtype=float)
        for _ in range(r):
            np.cumsum(out, axis=0, out=out)
        return out
    out = np.empty_like(a, dtype=float)
    carry = np.empty((r,) + out.shape[1:])
    for start in range(0, out.shape[0], _BLOCK_ROWS):
        block = out[start:start + _BLOCK_ROWS]
        block[...] = a[start:start + _BLOCK_ROWS]
        for k in range(r):
            if start:
                block[0] += carry[k]
            np.cumsum(block, axis=0, out=block)
            carry[k] = block[-1]
    return out


def _first_order_pair(m, ell):
    """Closed form at r = 1: V_ell and sigma_ell from the eigenvectors of
    D D^T, the tridiagonal matrix with diagonal (1, 2, ..., 2)."""
    theta = (2 * np.arange(1, ell + 1) - 1) * np.pi / (2 * m + 1)
    s = 1.0 / (2.0 * np.sin(theta / 2))
    V = np.outer(np.arange(m) + 0.5, theta)
    np.cos(V, out=V)
    V *= math.sqrt(4.0 / (2 * m + 1))
    return s, V


def _certificate(s, V, r):
    """sigma_ell ||D^{r,T} V_ell||_2.

    At most 1 exactly when ||sigma_ell V_ell^T D^r u|| <= ||u|| for every
    u, which keeps the true matrix inside the projected ball.  D^{r,T} is
    D^r on reversed rows; the norm comes from the ell x ell Gram matrix.
    """
    X = apply_difference(V[::-1], r)
    return float(s[-1]) * math.sqrt(np.linalg.eigvalsh(X.T @ X)[-1])


def _cholesky_qr(Y):
    """Y = Q R with orthonormal Q and upper-triangular R, by Cholesky QR
    twice on Y with its columns scaled to unit norm.

    One pass takes the Cholesky factor C of the Gram matrix Q^T Q and sets
    Q = Q C^{-1}; it loses orthogonality like cond^2 eps, where cond is
    the scaled block's condition number, and the second pass restores it
    to eps while cond stays well below 1e8.  The unit columns keep the
    Gram matrix from overflowing whatever Y's column norms.  Raises
    LinAlgError when the Gram matrix is not numerically positive definite.
    """
    d = np.linalg.norm(Y, axis=0)
    Q, R = Y / d, np.diag(d)
    for _ in range(2):
        C = np.linalg.cholesky(Q.T @ Q).T
        Q = Q @ np.linalg.inv(C)
        R = C @ R
    return Q, R


def _subspace_iteration(m, r, ell):
    """Block subspace iteration on D^{-r,T} D^{-r} with Rayleigh-Ritz.

    The block has p = min(2 ell, m) columns.  It starts from the
    first-order basis V_p of D^{-1}, an orthonormal function of (m, p)
    alone, so the result is deterministic; that start lies close to the
    wanted subspace and saves power steps over a random one.  When p = m
    the block spans R^m and the first Ritz step is exact.

    Each Rayleigh-Ritz step takes the SVD U S W^T of D^{-r} Q; each power
    step orthonormalizes D^{-r,T} U.  Step 0 takes a thin LAPACK SVD of
    D^{-r} Q, because on the r = 1 start that block is ill-conditioned
    even with its columns scaled to unit norm: condition number 2.5e2 at
    r = 2, 8.9e4 at r = 3, 2.3e7 at r = 4 and 4.5e9 at r = 5 (m = 1280,
    ell = 80), where Cholesky QR, which needs it well below 1e8, breaks
    down.  Every later block, power step or Rayleigh-Ritz, measured below
    3 for r <= 6 (m = 1280, ell = 80) and is factored
    by _cholesky_qr: the power step's block directly, and the
    Rayleigh-Ritz block as D^{-r} Q = Q_s R, whose p x p SVD
    R = U_R S W^T gives U = Q_s U_R.  A Cholesky breakdown raises
    BasisNotCertified.
    """
    Q = _first_order_pair(m, min(2 * ell, m))[1]
    for step in range(_MAX_STEPS + 1):
        try:
            Y = apply_inverse_power(Q, r)
            if step == 0:
                U, s, Wh = np.linalg.svd(Y, full_matrices=False)
            else:
                Q_s, R = _cholesky_qr(Y)
                U, s, Wh = np.linalg.svd(R)
                U = Q_s @ U
            s, V = s[:ell], Q @ Wh[:ell].T
            certificate = _certificate(s, V, r)
            if certificate <= 1.0 + _CERTIFICATE_SLACK:
                return s, V
            # D^{-r,T} U: D^{-r} on reversed rows
            Q = _cholesky_qr(apply_inverse_power(U[::-1], r)[::-1])[0]
        except np.linalg.LinAlgError as exc:
            raise BasisNotCertified(f"m={m} r={r} ell={ell}: step {step}: {exc}") from exc
    raise BasisNotCertified(
        f"m={m} r={r} ell={ell}: sigma_ell ||D^(r,T) V_ell|| = {certificate!r} "
        f"after {_MAX_STEPS} steps"
    )


def _cache_path(cache_dir, m, r, ell):
    return os.path.join(cache_dir, f"noise_shaping_basis_m{m}_r{r}_l{ell}.npz")


def _write_cache(path, m, r, s, V):
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
                singular_values=s,
                right_vectors=V,
            )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _read_cache(path, m, r, ell):
    """(s, V) from a cache file, or None if it is missing, stale or malformed."""
    try:
        # np.load(path) leaves its own handle open when the zip read raises
        with open(path, "rb") as f, np.load(f) as data:
            if int(data["format_version"][0]) != _CACHE_FORMAT_VERSION:
                return None
            if int(data["size"][0]) != m or int(data["order"][0]) != r:
                return None
            # each read makes a new array, so no copy is needed
            s = np.asarray(data["singular_values"], dtype=float)
            V = np.asarray(data["right_vectors"], dtype=float)
    except (OSError, KeyError, IndexError, ValueError, EOFError, zipfile.BadZipFile):
        return None
    if s.shape != (ell,) or V.shape != (m, ell):
        return None
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(V))):
        return None
    if np.any(s <= 0) or np.any(np.diff(s) > 0):
        return None
    return s, V


def compute_basis(m, r, truncation, cache_dir=None):
    """The leading singular pairs of D^{-r} at size m, optionally cached.

    Parameters
    ----------
    m, r : int
        Size and order.
    truncation : int
        ell, the number of leading singular pairs computed and kept.
    cache_dir : str or None
        When given, (sigma_ell, V_ell) are read from / written to
        ``noise_shaping_basis_m{m}_r{r}_l{ell}.npz`` in this directory.
        A file that is stale, malformed or truncated is recomputed and
        overwritten.  Writes are atomic, so concurrent readers never
        observe partial files.

    Raises BasisNotCertified if subspace iteration (r >= 2) cannot
    certify its result within its step budget.
    """
    if not (1 <= truncation <= m):
        raise ValueError("truncation must lie in [1, m]")
    _check_order(r)
    ell = int(truncation)
    path = None if cache_dir is None else _cache_path(cache_dir, m, r, ell)
    cached = None if path is None else _read_cache(path, m, r, ell)
    if cached is not None:
        s, V = cached
    else:
        s, V = _first_order_pair(m, ell) if r == 1 else _subspace_iteration(m, r, ell)
        if path is not None:
            _write_cache(path, m, r, s, V)
    return NoiseShapingBasis(order=r, singular_values=s, right_vectors=V)


def project_shaped(v, basis):
    """The stabilized constraint map sigma_ell V_ell^T v: a vector of
    length ell for a vector v, an ell x n array for an m x n array."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != basis.size:
        raise ValueError(f"expected length {basis.size}, got {v.shape[0]}")
    return basis.sigma_truncation * (basis.right_vectors.T @ v)
