"""The difference operator D, its inverse powers, and their leading singular pairs.

D is the m x m lower bidiagonal matrix with ones on the diagonal and
minus ones below it.  Applying D^r is r backward-difference passes;
applying D^{-r} is r cumulative-sum passes.  apply_difference and
apply_inverse_power are the package's only implementations of the two;
every other module calls them.  The stabilized decoder constraint reads
only the leading ell singular values sigma_1..sigma_ell of D^{-r} and
its leading right singular vectors V_ell.  compute_basis finds them in
O(m ell) memory, never forming the m x m matrix, and each input takes
exactly one of three routes.  At r = 1 they are closed form: the cosines
V1 that diagonalize D D^T.  At r = 2 and 3 with m > 2 ell they come from
the structure of D^r: K = D^r D^{r,T} equals (D D^T)^r, diagonal in V1,
plus an integer boundary term of rank k = 2 and 3, so the ell smallest
eigenpairs of K (the pairs sigma^{-2}, v) solve a k x k secular equation
(Golub, SIAM Review 1973; Gu and Eisenstat, SIAM J. Matrix Anal. Appl.
1994).  Its roots are bracketed by inertia counts and polished by Newton
steps, the vectors are mapped by V1 as a DCT-VIII through numpy.fft, and
one Rayleigh-Ritz step with D^{-r} follows.  Every other input (r >= 4,
and m <= 2 ell, where the first step is exact) takes block subspace
iteration with Rayleigh-Ritz.  Every pair returned for r >= 2 has passed
the certificate sigma_ell ||D^{r,T} V_ell||_2 <= 1 + 1e-9; a route whose
pair fails it, or whose Cholesky factor breaks down, raises
BasisNotCertified.  The build runs with numpy's OpenBLAS pinned to one
thread, so its bits do not follow the caller's thread count.  The pair
can be cached on disk, keyed by (m, r, ell).
"""

from __future__ import annotations

import math
import os
import tempfile
import zipfile
from dataclasses import dataclass, field

import numpy as np

from sdlowrank import _blas

__all__ = [
    "NoiseShapingBasis",
    "BasisNotCertified",
    "apply_difference",
    "apply_inverse_power",
    "compute_basis",
    "project_shaped",
]

# 6: bases of order 4 and above with m > 2 ell built by the uniform
# subspace iteration; their last digits differ from version 5's
_CACHE_FORMAT_VERSION = 6

# a pair is certified once sigma_ell ||D^{r,T} V_ell||_2 is within this
# of 1; subspace iteration gives up after _MAX_STEPS power steps
_CERTIFICATE_SLACK = 1e-9
_MAX_STEPS = 30

# rows per block of apply_inverse_power and apply_difference on a matrix:
# 256 rows of 400 float64 columns are 800 KB
_BLOCK_ROWS = 256

# _cholesky_qr takes one pass when the Frobenius distance of the first
# Gram matrix from the identity is at most this, which bounds its
# condition number by 3
_ONE_PASS_GRAM_DEVIATION = 0.5

# the structured route serves orders up to this one; at r = 4 its span is
# already 1.9e-5 from the dense SVD's at m = 1280, ell = 80, so higher
# orders take subspace iteration
_STRUCTURED_MAX_ORDER = 3

# _secular_roots brackets each root by this many bisection steps on its
# inertia count, then takes this many Newton steps
_BISECTION_STEPS = 24
_NEWTON_STEPS = 3

# the structured route solves its roots in this many chunks, so a chunk's
# length-(2m + 1) complex FFT rows take about as much memory as the m x ell
# block they fill, and less than the Rayleigh-Ritz step after them
_CHUNKS = 4


class BasisNotCertified(RuntimeError):
    """The input's route did not certify its singular pairs: the structured
    pair failed its certificate, subspace iteration ran out of steps, or a
    factorization broke down."""


@dataclass(frozen=True)
class NoiseShapingBasis:
    """The leading ell singular values and right singular vectors of D^{-r}.

    singular_values holds sigma_1 >= ... >= sigma_ell and right_vectors
    the matching columns of V, an m x ell array; ell is the number of
    directions the stabilized constraint keeps.  source says where the
    pair came from: "cache", "closed form" (r = 1), "structured" (r = 2
    and 3 at m > 2 ell), or "subspace iteration after k power steps"
    (every other input).
    """

    order: int
    singular_values: np.ndarray = field(repr=False)
    right_vectors: np.ndarray = field(repr=False)
    source: str

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


def _integer(name, value):
    """value as an int: a Python or numpy integer, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_order(r):
    if r < 1:
        raise ValueError("order r must be >= 1")


def apply_difference(a, r):
    """Apply D^r along axis 0 of a vector or matrix: r backward-difference
    passes on a copy of a, O(r m) per column.

    Each pass runs in place, a block of _BLOCK_ROWS rows at a time from
    the last rows up, so it needs a block-sized temporary rather than a
    copy of the array; every entry is the same difference of two entries
    as in a whole-array pass.
    """
    _check_order(r)
    out = np.array(a, dtype=float)
    for _ in range(r):
        for stop in range(out.shape[0], 1, -_BLOCK_ROWS):
            start = max(stop - _BLOCK_ROWS, 1)
            out[start:stop] -= out[start - 1:stop - 1]
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


def _angles(m, count):
    """theta_n = (2n + 1) pi / (2m + 1) for n < count: the r = 1 basis's
    columns are cos((i + 1/2) theta_n), with eigenvalue (2 sin(theta_n / 2))^2
    of D D^T."""
    return (2 * np.arange(count) + 1) * np.pi / (2 * m + 1)


def _first_order_pair(m, ell):
    """Closed form at r = 1: V_ell and sigma_ell from the eigenvectors of
    D D^T, the tridiagonal matrix with diagonal (1, 2, ..., 2)."""
    theta = _angles(m, ell)
    s = 1.0 / (2.0 * np.sin(theta / 2))
    V = np.outer(np.arange(m) + 0.5, theta)
    np.cos(V, out=V)
    V *= math.sqrt(4.0 / (2 * m + 1))
    return s, V


def _boundary_term(m, r):
    """E = D^r D^{r,T} - (D D^T)^r as (S, e, W), with E = P_S W diag(e) W^T P_S^T.

    E is an integer matrix on the first r and the last r - 1 indices, and
    its entries there do not depend on m once m >= 4r; so it is formed
    exactly, in float64 integers, at size n = min(m, 4r), and its support
    indices past n / 2 are moved to the end of R^m.  e holds the nonzero
    eigenvalues of the support block, k = 2 and 3 of them at r = 2 and 3,
    and the columns of W their eigenvectors.
    """
    n = min(m, 4 * r)
    D, Dr = (apply_difference(np.eye(n), order) for order in (1, r))
    E = Dr @ Dr.T - np.linalg.matrix_power(D @ D.T, r)
    S = np.flatnonzero(np.any(E != 0, axis=0))
    e, W = np.linalg.eigh(E[np.ix_(S, S)])
    keep = np.abs(e) > 1e-9 * np.max(np.abs(e))
    return np.where(S < n // 2, S, S + (m - n)), e[keep], W[:, keep]


def _cosine_rows(theta, rows):
    """The given rows of the full r = 1 basis V1, the m x m orthogonal
    matrix c cos((i + 1/2) theta_n) with theta = _angles(m, m) and
    c = sqrt(4 / (2m + 1)).

    A row i past m / 2 is taken in its sine form,
    V1[i, n] = c (-1)^n sin((m - i) theta_n), so its small entries near
    n = 0 keep their relative accuracy.
    """
    m = len(theta)
    c = math.sqrt(4.0 / (2 * m + 1))
    alternating = c * (1 - 2 * (np.arange(m) % 2))
    return np.array([c * np.cos((i + 0.5) * theta) if i < m // 2
                     else alternating * np.sin((m - i) * theta) for i in rows])


def _apply_cosines(X, out):
    """out = (V1 X^T)^T for the rows of X, never forming V1.

    V1[i, n] = c cos(pi (2i + 1)(2n + 1) / (2N)) with N = 2m + 1 and
    c = sqrt(4 / N) is a DCT-VIII, so
    (V1 x)_i = c Re(e^{-i pi (2i + 1) / (2N)} F_i), where F is the length-N
    DFT of x_n e^{-i pi n / N}, zero-padded past n = m - 1: one numpy.fft
    call for all the rows, in place in one complex array.
    """
    m = X.shape[1]
    N = 2 * m + 1
    n = np.arange(m)
    F = np.zeros((len(X), N), dtype=complex)
    np.multiply(X, np.exp(-1j * np.pi * n / N), out=F[:, :m])
    np.fft.fft(F, axis=1, out=F)
    F = F[:, :m]
    F *= math.sqrt(4.0 / N) * np.exp(-1j * np.pi * (2 * n + 1) / (2 * N))
    out[...] = F.real


def _secular_roots(j, d, bound, Z, e):
    """Rows (diag(d) - lambda_j)^{-1} Z w_j of unit norm for the eigenvalues
    lambda_j of K = diag(d) + Z diag(e) Z^T (0-based indices j, ascending),
    with d ascending: in the basis V1 they are K's eigenvectors.

    lambda_j is a root of the k x k secular matrix
    M(lambda) = -diag(1/e) - Z^T (diag(d) - lambda)^{-1} Z, and w_j the null
    vector of M(lambda_j) (Golub, SIAM Review 1973).  By Sylvester's law of
    inertia K has #{d < lambda} + #neg M(lambda) - #{e > 0} eigenvalues
    below lambda, which brackets each root alone: the bracket starts at
    [d_{j - #{e < 0}}, d_{j + #{e > 0}}] by interlacing, takes
    _BISECTION_STEPS geometric bisection steps, and then _NEWTON_STEPS
    Newton steps on the eigenvalue eta of M nearest zero, whose derivative
    is -||(diag(d) - lambda)^{-1} Z w||^2; a step that leaves the bracket
    is replaced by its midpoint.  bound is d with an upper bound of K's
    spectrum appended.  The roots are solved together, one (len(j), m)
    array per temporary.
    """
    k = len(e)
    ZZ = (Z[:, :, None] * Z[:, None, :]).reshape(len(d), k * k)
    minus_inverse_e = -np.diag(1.0 / e)
    positive = int(np.sum(e > 0))
    lo = d[np.maximum(j - (k - positive), 0)]
    hi = bound[np.minimum(j + positive, len(bound) - 1)]
    lam = np.sqrt(lo * hi)
    roots = np.arange(len(j))
    steps = _BISECTION_STEPS + _NEWTON_STEPS
    for step in range(steps + 1):
        g = 1.0 / (d - lam[:, None])
        eta, U = np.linalg.eigh(minus_inverse_e - (g @ ZZ).reshape(-1, k, k))
        if step < _BISECTION_STEPS:
            # fewer than j + 1 eigenvalues of K below lam: lam <= lambda_j
            below = np.searchsorted(d, lam) + np.sum(eta < 0, axis=1) - positive
            lo, hi = np.where(below <= j, lam, lo), np.where(below <= j, hi, lam)
            lam = np.sqrt(lo * hi)
            continue
        nearest = np.argmin(np.abs(eta), axis=1)
        w = U[roots, :, nearest]
        if step < steps:
            slope = np.sum(np.square(g * (w @ Z.T)), axis=1)
            newton = lam + eta[roots, nearest] / slope
            lam = np.where((lo < newton) & (newton < hi), newton, np.sqrt(lo * hi))
    X = g * (w @ Z.T)
    X /= np.linalg.norm(X, axis=1)[:, None]
    return X


def _structured_block(m, r, ell):
    """An ell x m array whose rows are the eigenvectors of K = D^r D^{r,T}
    for its ell smallest eigenvalues sigma_1^{-2} <= ... <= sigma_ell^{-2}.

    In the r = 1 basis V1, K = V1 (diag(d) + Z diag(e) Z^T) V1^T with
    d = (2 sin(theta / 2))^{2r}, the eigenvalues of (D D^T)^r, and
    Z = V1[S, :]^T W from the boundary term (S, e, W) of _boundary_term.
    The roots are solved (_secular_roots) and their vectors mapped by V1
    (_apply_cosines) in _CHUNKS chunks of roots.
    """
    S, e, W = _boundary_term(m, r)
    theta = _angles(m, m)
    d = (2.0 * np.sin(theta / 2)) ** (2 * r)
    # ||K|| = ||D^r||^2 < 4^r closes the brackets past the end of d
    bound = np.append(d, 4.0 ** r)
    Z = _cosine_rows(theta, S).T @ W
    block = np.empty((ell, m))
    rows = -(-ell // _CHUNKS)
    for start in range(0, ell, rows):
        j = np.arange(start, min(start + rows, ell))
        _apply_cosines(_secular_roots(j, d, bound, Z, e), block[start:start + rows])
    return block


def _structured_pair(m, r, ell):
    """Certified sigma_ell and V_ell of D^{-r} by one Rayleigh-Ritz step
    with D^{-r} on _structured_block: Q from _cholesky_qr of the block,
    D^{-r} Q = Q_s R by _cholesky_qr, and the ell x ell SVD R = U_R S W^T
    give sigma = S and V = Q W.

    The block is a temporary, so _cholesky_qr frees it once its scaled
    copy exists, and Q is released before the certificate is formed.
    Raises BasisNotCertified when a factorization breaks down or the pair
    fails its certificate.
    """
    try:
        Q = _cholesky_qr(_structured_block(m, r, ell).T)[0]
        R = _cholesky_qr(apply_inverse_power(Q, r))[1]
        s, Wh = np.linalg.svd(R)[1:]
    except np.linalg.LinAlgError as exc:
        raise BasisNotCertified(f"m={m} r={r} ell={ell}: step 0: {exc}") from exc
    V = Q @ Wh.T
    del Q
    certificate = _certificate(s, V, r)
    if certificate > 1.0 + _CERTIFICATE_SLACK:
        raise BasisNotCertified(
            f"m={m} r={r} ell={ell}: step 0: sigma_ell ||D^(r,T) V_ell|| = {certificate!r}")
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
    on Y with its columns scaled to unit norm.

    One pass takes the Cholesky factor C of the Gram matrix G = Q^T Q and
    sets Q = Q C^{-1}; it loses orthogonality like cond^2 eps, where cond
    is the scaled block's condition number (Yamamoto, Nakatsukasa,
    Yanagisawa and Fukaya, ETNA 2015).  A second pass restores it to eps
    while cond stays well below 1e8; it runs only when ||G - I||_F
    exceeds _ONE_PASS_GRAM_DEVIATION, since at or below it
    cond^2 = cond(G) is at most 3 and one pass already leaves
    orthogonality near eps.  The unit columns keep the Gram matrix from
    overflowing whatever Y's column norms.  Y is not modified; the
    function drops its reference to Y once the scaled copy exists, so a
    temporary passed in is freed there.  Raises LinAlgError when the Gram
    matrix is not numerically positive definite.
    """
    d = np.linalg.norm(Y, axis=0)
    Q = Y / d
    del Y
    G = Q.T @ Q
    C = np.linalg.cholesky(G).T
    Q = Q @ np.linalg.inv(C)
    R = C * d
    if np.linalg.norm(G - np.eye(len(G))) > _ONE_PASS_GRAM_DEVIATION:
        C = np.linalg.cholesky(Q.T @ Q).T
        Q = Q @ np.linalg.inv(C)
        R = C @ R
    return Q, R


def _subspace_iteration(m, r, ell):
    """Block subspace iteration on D^{-r,T} D^{-r} with Rayleigh-Ritz:
    (sigma_ell, V_ell, k), certified after k power steps.

    The block has p = min(2 ell, m) columns.  It starts from the
    first-order basis V_p of D^{-1}, an orthonormal function of (m, p)
    alone, so the result is deterministic; that start lies close to the
    wanted subspace and saves power steps over a random one.  When p = m
    the block spans R^m and the first Ritz step is exact.

    Every step is the same: the Rayleigh-Ritz step takes a thin SVD
    U S W^T of D^{-r} Q and V = Q W, and the power step orthonormalizes
    D^{-r,T} U by _cholesky_qr.  A breakdown raises BasisNotCertified.
    """
    p = min(2 * ell, m)
    Q = _first_order_pair(m, p)[1]
    for step in range(_MAX_STEPS + 1):
        try:
            U, s, Wh = np.linalg.svd(apply_inverse_power(Q, r), full_matrices=False)
            s, V = s[:ell], Q @ Wh[:ell].T
            certificate = _certificate(s, V, r)
            if certificate <= 1.0 + _CERTIFICATE_SLACK:
                return s, V, step
            del Q, V
            # D^{-r,T} U: D^{-r} on reversed rows
            Q = _cholesky_qr(apply_inverse_power(U[::-1], r)[::-1])[0]
            del U
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


def _build(m, r, ell):
    """(sigma_ell, V_ell, source) of D^{-r}, certified, by the input's one route.

    r = 1 is closed form; r <= _STRUCTURED_MAX_ORDER with m > 2 ell takes
    _structured_pair; every other input takes _subspace_iteration, whose
    block spans R^m at m <= 2 ell, so its first Rayleigh-Ritz step is exact.
    """
    if r == 1:
        return *_first_order_pair(m, ell), "closed form"
    if r <= _STRUCTURED_MAX_ORDER and m > 2 * ell:
        return *_structured_pair(m, r, ell), "structured"
    s, V, steps = _subspace_iteration(m, r, ell)
    return s, V, f"subspace iteration after {steps} power steps"


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

    A cold build takes one route, chosen by (m, r, ell) alone: closed form
    at r = 1; at r = 2 and 3 with m > 2 ell the structured route, a k x k
    secular solve on the r = 1 cosines and one Rayleigh-Ritz step
    (_structured_pair); otherwise block subspace iteration
    (_subspace_iteration).  Every pair returned for r >= 2 satisfies
    sigma_ell ||D^{r,T} V_ell||_2 <= 1 + 1e-9, and the basis's source
    names the route that gave it.

    A build runs with numpy's OpenBLAS pinned to one thread, so a basis
    has the same bits whatever the caller's thread count; the count is
    set only when it differs, and restored afterwards.

    Raises ValueError if m, r or truncation is a bool or not an integer
    (Python or numpy), or out of range.  Raises BasisNotCertified if the
    structured pair fails its certificate, subspace iteration cannot
    certify its result within its step budget, or a factorization breaks
    down.
    """
    m, r, ell = (_integer(name, value)
                 for name, value in (("m", m), ("r", r), ("truncation", truncation)))
    if not (1 <= ell <= m):
        raise ValueError("truncation must lie in [1, m]")
    _check_order(r)
    path = None if cache_dir is None else _cache_path(cache_dir, m, r, ell)
    cached = None if path is None else _read_cache(path, m, r, ell)
    if cached is not None:
        s, V = cached
        source = "cache"
    else:
        with _blas._blas_pinned():
            s, V, source = _build(m, r, ell)
        if path is not None:
            _write_cache(path, m, r, s, V)
    return NoiseShapingBasis(order=r, singular_values=s, right_vectors=V, source=source)


def project_shaped(v, basis):
    """The stabilized constraint map sigma_ell V_ell^T v: a vector of
    length ell for a vector v, an ell x n array for an m x n array."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != basis.size:
        raise ValueError(f"expected length {basis.size}, got {v.shape[0]}")
    return basis.sigma_truncation * (basis.right_vectors.T @ v)
