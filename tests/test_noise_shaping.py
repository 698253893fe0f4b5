"""Difference-operator, inverse-power, and basis tests.

Dense forms of D^{-r} and its full SVD live in tests/dense_oracle.py;
the package computes only the leading ell singular pairs.

The roundtrip corner tests use dyadic-grid probes: with entries on a
2^-9 grid and |v| <= 1, every partial sum in the r-fold cumulative sums
is an exact integer multiple of 2^-9 (worst-case magnitude stays below
2^53), so diff^r(cumsum^r(v)) = v exactly in float64.  Continuous
probes meet the 1e-10 bound only while m^(r-1/2) * eps allows it.
"""

import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sdlowrank import _blas, harness
from sdlowrank import noise_shaping as ns

from dense_oracle import dense_basis, difference_power, inverse_power_entries

# fixed examples, so the suite stays deterministic from run to run
PROPERTY = settings(derandomize=True, database=None, deadline=None)
ORDERS = st.integers(1, 4)


def test_apply_difference_first_order():
    assert np.array_equal(ns.apply_difference(np.array([1.0, 2.0, 4.0]), 1), [1, 1, 2])


def test_apply_difference_second_order():
    assert np.array_equal(ns.apply_difference(np.array([1.0, 2.0, 4.0]), 2), [1, 0, 1])


def test_inverse_power_first_columns():
    assert np.array_equal(inverse_power_entries(4, 1)[:, 0], [1, 1, 1, 1])
    assert np.array_equal(inverse_power_entries(4, 2)[:, 0], [1, 2, 3, 4])
    assert np.array_equal(inverse_power_entries(4, 3)[:, 0], [1, 3, 6, 10])


def test_inverse_power_entry_formula():
    mat = inverse_power_entries(12, 3)
    for i in range(12):
        for j in range(12):
            want = math.comb(i - j + 2, 2) if i >= j else 0
            assert mat[i, j] == want


def test_inverse_power_times_difference_is_identity():
    for r in (1, 2, 3):
        for m in (1, 2, 5, 17, 50, 100):
            prod = inverse_power_entries(m, r) @ difference_power(m, r)
            assert np.array_equal(prod, np.eye(m, dtype=np.int64))


def test_apply_inverse_power_matches_integer_oracle():
    m = 100
    for r in (1, 2, 3):
        oracle = inverse_power_entries(m, r).astype(float)
        for j in (0, 1, 37, 99):
            e = np.zeros(m)
            e[j] = 1.0
            got = ns.apply_inverse_power(e, r)
            assert np.max(np.abs(got - oracle[:, j])) <= 1e-10


def test_roundtrip_exact_on_dyadic_grid(rng):
    for r in (1, 2, 3, 4):
        for m in (64, 512, 4096):
            v = np.round(rng.uniform(-1, 1, m) * 512) / 512
            back = ns.apply_difference(ns.apply_inverse_power(v, r), r)
            assert np.array_equal(back, v)


def test_roundtrip_continuous_small_sizes(rng):
    for r in (1, 2):
        for m in (16, 64, 256):
            v = rng.uniform(-1, 1, m)
            back = ns.apply_difference(ns.apply_inverse_power(v, r), r)
            assert np.max(np.abs(back - v)) <= 1e-10


def test_roundtrip_error_envelope_large(rng):
    # float64 rounding grows like m^(r - 1/2) * eps; check it stays there
    v = rng.uniform(-1, 1, 4096)
    back = ns.apply_difference(ns.apply_inverse_power(v, 4), 4)
    err = np.max(np.abs(back - v))
    assert err <= 4096 ** 3.5 * np.finfo(float).eps * 10


def test_inverse_power_shifted_columns():
    mat = inverse_power_entries(6, 2)
    # column j is column 0 shifted down by j
    for j in range(1, 6):
        assert np.array_equal(mat[j:, j], mat[: 6 - j, 0])
        assert np.all(mat[:j, j] == 0)


def test_basis_reconstructs_inverse_power(cache_dir):
    # U_ell S_ell V_ell^T is the oracle's rank-ell truncation; at ell = m it is D^{-r}
    m, r = 40, 2
    U, s, V = dense_basis(m, r)
    dense = inverse_power_entries(m, r).astype(float)
    for ell in (20, m):
        basis = ns.compute_basis(m, r, truncation=ell, cache_dir=cache_dir)
        rebuilt = basis.left_vectors @ np.diag(basis.singular_values) @ basis.right_vectors.T
        want = U[:, :ell] @ np.diag(s[:ell]) @ V[:, :ell].T
        assert np.max(np.abs(rebuilt - want)) <= 1e-8 * np.max(dense)
    assert np.max(np.abs(rebuilt - dense)) <= 1e-8 * np.max(dense)


def test_basis_singular_values_analytic_first_order():
    """sigma_j(D^{-1}) = 1 / (2 sin((2j-1) pi / (2(2m+1)))) for the leading ell."""
    m, ell = 160, 80
    basis = ns.compute_basis(m, 1, truncation=ell)
    j = np.arange(1, ell + 1)
    pred = 1.0 / (2.0 * np.sin((2 * j - 1) * np.pi / (2 * (2 * m + 1))))
    assert basis.singular_values.shape == (ell,)
    assert np.max(np.abs(basis.singular_values - pred) / pred) <= 1e-10
    _, s, _ = dense_basis(m, 1)
    assert np.max(np.abs(s[:ell] - pred) / pred) <= 1e-10


def test_basis_invariants(cache_dir):
    m, ell = 50, 25
    basis = ns.compute_basis(m, 3, truncation=ell, cache_dir=cache_dir)
    s = basis.singular_values
    assert (basis.size, basis.order, len(basis.singular_values)) == (m, 3, ell)
    assert basis.right_vectors.shape == basis.left_vectors.shape == (m, ell)
    assert np.all(s > 0)
    assert np.all(np.diff(s) <= 0)
    assert np.allclose(basis.left_vectors.T @ basis.left_vectors, np.eye(ell), atol=1e-10)
    assert np.allclose(basis.right_vectors.T @ basis.right_vectors, np.eye(ell), atol=1e-10)
    assert basis.sigma_truncation == s[ell - 1]


@pytest.mark.parametrize("r, m", [(r, m) for r in (1, 2, 3) for m in (160, 320, 640, 1280)]
                         + [(4, m) for m in (160, 320, 640)])
def test_basis_matches_dense_oracle(r, m):
    """sigma_1..sigma_ell and the span of V_ell against the dense SVD, and
    the decoder's certificate sigma_ell ||D^{r,T} V_ell||_2 <= 1 + 1e-9,
    computed with dense D^r.  The structured route (r = 2, 3 at m > 2 ell)
    holds sigma to 1e-11 relative and the span to a largest principal-angle
    sine of 1e-8; every other build to 1e-8 and 1e-4.  At (320, 4) the
    iteration takes power steps, so they stay exercised here."""
    ell = 80
    basis = ns.compute_basis(m, r, truncation=ell)
    structured = r in (2, 3) and m > 2 * ell
    assert (basis.source == "structured") == structured
    if (m, r) == (320, 4):
        assert basis.source.startswith("subspace iteration after ")
        assert int(basis.source.split()[3]) >= 1
    sigma_bound, sine_bound = (1e-11, 1e-8) if structured else (1e-8, 1e-4)
    _, s, V = dense_basis(m, r)
    s, V = s[:ell], V[:, :ell]
    assert np.max(np.abs(basis.singular_values - s) / s) <= sigma_bound
    W = basis.right_vectors
    assert np.linalg.norm(W - V @ (V.T @ W), 2) <= sine_bound
    certificate = basis.sigma_truncation * np.linalg.norm(difference_power(m, r).T @ W, 2)
    assert certificate <= 1 + 1e-9


@settings(PROPERTY, max_examples=30)
@given(m_ell=st.integers(1, 160).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))),
       r=ORDERS)
def test_basis_certified_at_any_size(m_ell, r):
    # block sizes on both sides of p = m, down to m = 1 and ell = 1
    m, ell = m_ell
    basis = ns.compute_basis(m, r, truncation=ell)
    # each input takes its one route, and the structured one certifies
    assert (basis.source == "structured") == (r in (2, 3) and m > 2 * ell)
    _, s, _ = dense_basis(m, r)
    assert np.max(np.abs(basis.singular_values - s[:ell]) / s[:ell]) <= 1e-8
    W = basis.right_vectors
    assert np.allclose(W.T @ W, np.eye(ell), atol=1e-10)
    certificate = basis.sigma_truncation * np.linalg.norm(difference_power(m, r).T @ W, 2)
    assert certificate <= 1 + 1e-9


@pytest.mark.parametrize("m", [2560, 5120])
@pytest.mark.parametrize("r", [2, 3])
def test_structured_pair_matches_the_iteration_beyond_the_dense_oracle(m, r):
    # past the sizes a dense SVD checks, the structured pair agrees with
    # the iteration's to the iteration's own error: sigma within 1e-10
    # relative, the spans within a principal-angle sine of 1e-4
    ell = 80
    s, V = ns._structured_pair(m, r, ell)
    s_iteration, V_iteration, _ = ns._subspace_iteration(m, r, ell)
    assert np.max(np.abs(s - s_iteration) / s_iteration) <= 1e-10
    assert np.linalg.norm(V_iteration - V @ (V.T @ V_iteration), 2) <= 1e-4


REPO = Path(__file__).resolve().parent.parent
PROJECTED_ELLS = {
    path: config.ell
    for path in sorted(REPO.glob("configs/*.cfg")) + sorted(REPO.glob("bench/configs/*.cfg"))
    if (config := harness.load_config(path)).constraint_form == "projected"}
DESK_CONFIGS = [path for path, ell in PROJECTED_ELLS.items() if ell <= 80]
PAPER_CONFIGS = [path for path, ell in PROJECTED_ELLS.items() if ell > 80]


def _swept_bases(path):
    """(m, r, ell) of every basis the config's oversampling and noise sweeps build."""
    config = harness.load_config(path)
    return sorted({(task.m, task.r, min(config.ell, task.m))
                   for spec in (harness._oversampling_spec(config), harness._noise_spec(config))
                   for task in harness._sweep_tasks(config, spec)})


@pytest.mark.parametrize("path", DESK_CONFIGS, ids=[str(p.relative_to(REPO)) for p in DESK_CONFIGS])
def test_desk_config_bases_take_no_power_step(path):
    # every basis a desk sweep builds is closed form, structured, or exact
    # at the iteration's step 0
    for m, r, ell in _swept_bases(path):
        source = ns.compute_basis(m, r, truncation=ell).source
        assert source in ("closed form", "structured",
                          "subspace iteration after 0 power steps"), (m, r, ell, source)


@pytest.mark.parametrize("path", PAPER_CONFIGS, ids=[str(p.relative_to(REPO)) for p in PAPER_CONFIGS])
def test_paper_config_bases_never_take_the_iteration(path, monkeypatch):
    # m up to 24000 at ell = 400 is too large to build in a unit test, so
    # the routes are recorded, not run; r = 1 is closed form and reaches
    # neither
    routes = []
    monkeypatch.setattr(ns, "_structured_pair",
                        lambda *args: routes.append(("structured", args)) or (None, None))
    monkeypatch.setattr(ns, "_subspace_iteration",
                        lambda *args: routes.append(("iteration", args)) or (None, None, 0))
    bases = [(m, r, ell) for m, r, ell in _swept_bases(path) if r > 1]
    for m, r, ell in bases:
        ns._build(m, r, ell)
    assert routes == [("structured", basis) for basis in bases]


@pytest.mark.parametrize("m, r, truncation", [
    (160, 2, 80.5), (160, 2, True), (160, 2.0, 80), (160.0, 2, 80), (True, 1, 1),
    (160, True, 80), (160, 2, np.float64(80)),
])
def test_basis_rejects_non_integer_arguments(m, r, truncation):
    with pytest.raises(ValueError, match="must be an integer"):
        ns.compute_basis(m, r, truncation=truncation)


def test_basis_accepts_numpy_integers():
    basis = ns.compute_basis(np.int64(160), np.int32(2), truncation=np.uint16(80))
    want = ns.compute_basis(160, 2, truncation=80)
    assert (basis.size, basis.order) == (160, 2)
    assert np.array_equal(basis.singular_values, want.singular_values)
    assert np.array_equal(basis.right_vectors, want.right_vectors)


def _first_order_block(m, r, ell):
    """A structured block that fails the certificate at m = 320, r = 2:
    the r = 1 basis, which one Rayleigh-Ritz step does not make certify."""
    return ns._first_order_pair(m, ell)[1].T


def _never(*args):
    raise AssertionError(f"a second route ran: {args}")


def test_uncertified_structured_pair_raises_typed_error(monkeypatch):
    # the failed certificate is the typed error; no other route runs
    monkeypatch.setattr(ns, "_structured_block", _first_order_block)
    monkeypatch.setattr(ns, "_subspace_iteration", _never)
    with pytest.raises(ns.BasisNotCertified,
                       match=r"^m=320 r=2 ell=80: step 0: sigma_ell \|\|D\^\(r,T\) V_ell\|\| = 1\."):
        ns.compute_basis(320, 2, truncation=80)


def test_basis_uncertified_raises_typed_error(monkeypatch):
    # at r = 4 and m = 320 > 2 ell the iteration needs power steps, and
    # with none allowed it fails
    monkeypatch.setattr(ns, "_MAX_STEPS", 0)
    with pytest.raises(ns.BasisNotCertified, match=r"^m=320 r=4 ell=80: .* after 0 steps$"):
        ns.compute_basis(320, 4, truncation=80)
    ns.compute_basis(160, 4, truncation=80)  # p = m: exact at step 0


def _breakdown(a):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def test_cholesky_breakdown_raises_typed_error(monkeypatch):
    # p = 160 < m: the iteration's first power step needs a Cholesky factor
    monkeypatch.setattr(ns.np.linalg, "cholesky", _breakdown)
    with pytest.raises(ns.BasisNotCertified, match=r"^m=320 r=4 ell=80: step 0: Matrix is not"):
        ns.compute_basis(320, 4, truncation=80)


def test_structured_cholesky_breakdown_raises_typed_error(monkeypatch):
    # the structured route's first factor breaks down, and no other route runs
    calls = []

    def breakdown(a):
        calls.append(a.shape)
        _breakdown(a)

    monkeypatch.setattr(ns.np.linalg, "cholesky", breakdown)
    monkeypatch.setattr(ns, "_subspace_iteration", _never)
    with pytest.raises(ns.BasisNotCertified, match=r"^m=320 r=2 ell=80: step 0: Matrix is not"):
        ns.compute_basis(320, 2, truncation=80)
    assert calls == [(80, 80)]


@pytest.mark.parametrize("r", [2, 3])
def test_structured_build_holds_at_most_two_blocks(r):
    # the structured route at m = 1280 frees each m x ell block once the
    # next exists, and forms the certificate after Q is gone: its traced
    # numpy peak is 1.68 (r = 2) and 1.60 (r = 3) m x 2 ell blocks
    m, ell = 1280, 80
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        basis = ns.compute_basis(m, r, truncation=ell)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert basis.source == "structured"
    assert peak <= 2 * m * 2 * ell * 8


def test_basis_build_factors_each_block_once(monkeypatch):
    # each power step's block is near orthogonal once its columns are
    # scaled, so Cholesky QR takes one pass: three power steps at
    # m = 1280, r = 3.  The structured route factors its two m x ell
    # blocks once each
    factored = []
    cholesky = np.linalg.cholesky

    def counted(a):
        factored.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(ns.np.linalg, "cholesky", counted)
    assert ns._subspace_iteration(1280, 3, 80)[2] == 3
    assert factored == [(160, 160)] * 3
    factored.clear()
    ns.compute_basis(1280, 3, truncation=80)
    assert factored == [(80, 80)] * 2


@pytest.mark.skipif(_blas._openblas() is None, reason="numpy carries no OpenBLAS")
@pytest.mark.parametrize("m, r", [(320, 2), (320, 3), (1280, 2), (1280, 3)])
def test_basis_bits_do_not_follow_the_blas_thread_count(m, r):
    # a cold build pins OpenBLAS to one thread, so a basis cached by a
    # caller on two threads is the one a pinned sweep builds
    previous = _blas._set_blas_threads(2)
    try:
        two = ns.compute_basis(m, r, truncation=80)
        _blas._set_blas_threads(1)
        one = ns.compute_basis(m, r, truncation=80)
    finally:
        _blas._set_blas_threads(previous)
    assert np.array_equal(two.singular_values, one.singular_values)
    assert np.array_equal(two.right_vectors, one.right_vectors)


@st.composite
def _tall_blocks(draw):
    """An m x p block Q0 T diag(d): orthonormal Q0, a p x p factor T with
    condition number up to 1e4 (one Cholesky QR pass alone leaves QᵀQ
    off by up to 1e-8 there), and column scales d spread across
    1e-8..1e8."""
    m = draw(st.integers(1, 300))
    p = draw(st.integers(1, min(m, 40)))
    kappa = 10.0 ** draw(st.floats(0.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q0, W1, W2 = (np.linalg.qr(rng.standard_normal(shape))[0]
                  for shape in ((m, p), (p, p), (p, p)))
    T = W1 * np.geomspace(1.0, 1.0 / kappa, p) @ W2.T
    return Q0 @ T * 10.0 ** rng.uniform(-8, 8, p)


@PROPERTY
@given(Y=_tall_blocks())
def test_cholesky_qr_factors_tall_blocks(Y):
    Q, R = ns._cholesky_qr(Y)
    p = Y.shape[1]
    assert Q.shape == Y.shape and R.shape == (p, p)
    assert np.max(np.abs(Q.T @ Q - np.eye(p))) <= 1e-12
    assert np.linalg.norm(Q @ R - Y) <= 1e-12 * np.linalg.norm(Y)
    assert np.array_equal(R, np.triu(R))


def test_basis_truncation_change():
    basis = ns.compute_basis(30, 1, truncation=10)
    other = ns.compute_basis(30, 1, truncation=5)
    assert len(other.singular_values) == 5
    assert other.sigma_truncation == basis.singular_values[4]
    for bad in (0, 31):
        with pytest.raises(ValueError):
            ns.compute_basis(30, 1, truncation=bad)


def test_basis_cache_roundtrip(cache_dir):
    a = ns.compute_basis(32, 2, truncation=16, cache_dir=cache_dir)
    files = os.listdir(cache_dir)
    assert files == ["noise_shaping_basis_m32_r2_l16.npz"]
    with np.load(os.path.join(cache_dir, files[0])) as data:
        assert data["singular_values"].shape == (16,)
        assert data["right_vectors"].shape == (32, 16)
        assert "left_vectors" not in data
    b = ns.compute_basis(32, 2, truncation=16, cache_dir=cache_dir)
    assert np.array_equal(a.left_vectors, b.left_vectors)
    assert np.array_equal(a.singular_values, b.singular_values)
    assert np.array_equal(a.right_vectors, b.right_vectors)


@pytest.mark.parametrize("m, r", [(32, 1), (40, 2), (200, 3)])
def test_basis_cached_read_equals_fresh_build(cache_dir, m, r):
    fresh = ns.compute_basis(m, r, truncation=16)
    ns.compute_basis(m, r, truncation=16, cache_dir=cache_dir)
    cached = ns.compute_basis(m, r, truncation=16, cache_dir=cache_dir)
    assert np.array_equal(cached.singular_values, fresh.singular_values)
    assert np.array_equal(cached.right_vectors, fresh.right_vectors)


def test_basis_cache_keyed_by_truncation(cache_dir):
    ns.compute_basis(40, 2, truncation=10, cache_dir=cache_dir)
    basis = ns.compute_basis(40, 2, truncation=12, cache_dir=cache_dir)
    assert len(basis.singular_values) == 12
    assert sorted(os.listdir(cache_dir)) == [
        "noise_shaping_basis_m40_r2_l10.npz", "noise_shaping_basis_m40_r2_l12.npz",
    ]


def test_basis_cache_corrupt_file_recomputed(cache_dir):
    path = os.path.join(cache_dir, "noise_shaping_basis_m20_r1_l10.npz")
    with open(path, "wb") as fh:
        fh.write(b"not an npz")
    basis = ns.compute_basis(20, 1, truncation=10, cache_dir=cache_dir)
    assert basis.size == 20  # fell back to recomputation
    with np.load(path) as data:  # and overwrote the file
        assert np.array_equal(data["right_vectors"], basis.right_vectors)


def _good_cache_arrays(m, r, ell):
    basis = ns.compute_basis(m, r, truncation=ell)
    return dict(format_version=np.array([ns._CACHE_FORMAT_VERSION]), size=np.array([m]),
                order=np.array([r]), singular_values=basis.singular_values,
                right_vectors=basis.right_vectors)


def _write_wrong_version(path, arrays):
    np.savez(path, **{**arrays, "format_version": np.array([1])})


def _write_wrong_shape(path, arrays):
    np.savez(path, **{**arrays, "right_vectors": arrays["right_vectors"][:, :-1]})


def _write_non_finite(path, arrays):
    V = arrays["right_vectors"].copy()
    V[3, 2] = np.nan
    np.savez(path, **{**arrays, "right_vectors": V})


def _write_truncated(path, arrays):
    np.savez(path, **arrays)
    with open(path, "rb") as fh:
        head = fh.read()
    with open(path, "wb") as fh:
        fh.write(head[: len(head) // 2])


def test_basis_cache_older_format_recomputed_and_overwritten(cache_dir, monkeypatch):
    # a file with a fresh build's arrays but the previous format's stamp,
    # which marks an older algorithm's last digits, is rebuilt, not read
    m, r, ell = 320, 2, 40
    arrays = _good_cache_arrays(m, r, ell)
    assert ns._CACHE_FORMAT_VERSION == 6
    path = os.path.join(cache_dir, f"noise_shaping_basis_m{m}_r{r}_l{ell}.npz")
    np.savez(path, **{**arrays, "format_version": np.array([5])})
    built = []
    build = ns._build

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(ns, "_build", counted)
    basis = ns.compute_basis(m, r, truncation=ell, cache_dir=cache_dir)
    assert built == [(m, r, ell)]
    assert basis.source == "structured"
    assert np.array_equal(basis.right_vectors, arrays["right_vectors"])
    assert ns.compute_basis(m, r, truncation=ell, cache_dir=cache_dir).source == "cache"
    assert built == [(m, r, ell)]
    with np.load(path) as data:
        assert int(data["format_version"][0]) == 6
        for key, want in arrays.items():
            assert np.array_equal(data[key], want)


@pytest.mark.parametrize("write_bad", [
    _write_wrong_version, _write_wrong_shape, _write_non_finite, _write_truncated,
])
def test_basis_cache_bad_file_recomputed_and_overwritten(cache_dir, write_bad):
    m, r, ell = 48, 2, 12
    arrays = _good_cache_arrays(m, r, ell)
    path = os.path.join(cache_dir, f"noise_shaping_basis_m{m}_r{r}_l{ell}.npz")
    write_bad(path, arrays)
    basis = ns.compute_basis(m, r, truncation=ell, cache_dir=cache_dir)
    assert np.array_equal(basis.singular_values, arrays["singular_values"])
    assert np.array_equal(basis.right_vectors, arrays["right_vectors"])
    with np.load(path) as data:
        for key, want in arrays.items():
            assert np.array_equal(data[key], want)


def test_project_shaped_dominated_by_full_norm(rng):
    m, r, ell = 64, 2, 24
    basis = ns.compute_basis(m, r, truncation=ell)
    for _ in range(20):
        w = rng.standard_normal(m)
        proj = ns.project_shaped(w, basis)
        assert proj.shape == (ell,)
        assert np.linalg.norm(proj) <= np.linalg.norm(ns.apply_inverse_power(w, r)) + 1e-9


def test_apply_inverse_power_matrix_input(rng):
    # columns processed independently
    W = rng.standard_normal((10, 3))
    full = ns.apply_inverse_power(W, 2)
    for c in range(3):
        assert np.allclose(full[:, c], ns.apply_inverse_power(W[:, c], 2), atol=1e-12)


# -- properties over generated inputs ---------------------------------------

@PROPERTY
@given(ticks=hnp.arrays(np.int64, st.integers(1, 512), elements=st.integers(-512, 512)),
       r=ORDERS)
def test_roundtrip_exact_on_dyadic_grid_property(ticks, r):
    v = ticks / 512.0
    assert np.array_equal(ns.apply_difference(ns.apply_inverse_power(v, r), r), v)


@PROPERTY
@given(a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
                    elements=st.floats(-1e3, 1e3)),
       r=ORDERS, fortran=st.booleans())
def test_matrix_columns_match_vector_calls(a, r, fortran):
    if fortran:
        a = np.asfortranarray(a)
    for primitive in (ns.apply_difference, ns.apply_inverse_power):
        out = primitive(a, r)
        for j in range(a.shape[1]):
            assert np.array_equal(out[:, j], primitive(a[:, j], r))


def _whole_array_passes(a, r):
    """D^{-r} as r cumulative sums over the whole array, without blocking."""
    out = np.array(a, dtype=float)
    for _ in range(r):
        out = np.cumsum(out, axis=0)
    return out


@PROPERTY
@given(m=st.sampled_from([1, 255, 256, 257, 775]), n=st.integers(0, 5), r=ORDERS,
       fortran=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_blocked_inverse_power_is_bit_equal_to_whole_array_passes(m, n, r, fortran, seed):
    # n = 0 is a vector; the rest are matrices, blocked by rows in either
    # memory order.  Signed zeros are kept: the first block adds no carry
    rng = np.random.default_rng(seed)
    shape = (m,) if n == 0 else (m, n)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    a[rng.random(shape) < 0.1] = -0.0
    if fortran:
        a = np.asfortranarray(a)
    out = ns.apply_inverse_power(a, r)
    want = _whole_array_passes(a, r)
    assert np.array_equal(out, want)
    assert np.array_equal(np.signbit(out), np.signbit(want))
    # the round trip is exact on the dyadic grid of the module docstring
    v = np.round(rng.uniform(-1, 1, shape) * 512) / 512
    assert np.array_equal(ns.apply_difference(ns.apply_inverse_power(v, r), r), v)


@pytest.mark.parametrize("view", ["reversed_transpose", "reversed_rows", "int"])
@pytest.mark.parametrize("m", [1, 300, 775])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_blocked_copy_reads_any_view_of_its_input(view, m, r):
    # the matrix path copies each block as it sweeps it; the input may be
    # a non-contiguous view, like the reversed transposed encoder the
    # encoded noise block passes, or not float, and it is left unchanged
    rng = np.random.default_rng(m + r)
    a = {"reversed_transpose": lambda: rng.standard_normal((7, m))[:, ::-1].T,
         "reversed_rows": lambda: rng.standard_normal((m, 5))[::-1],
         "int": lambda: rng.integers(-9, 10, (m, 4))}[view]()
    before = a.copy()
    assert np.array_equal(ns.apply_inverse_power(a, r), _whole_array_passes(a, r))
    assert np.array_equal(a, before)


@PROPERTY
@given(xy=st.integers(1, 128).flatmap(
           lambda m: st.tuples(*[hnp.arrays(np.int64, m, elements=st.integers(-8, 8))] * 2)),
       r=ORDERS)
def test_transpose_is_inverse_power_on_reversed_rows(xy, r):
    # <D^{-r} x, y> = <x, rev(D^{-r} rev y)>: the encoded noise block's identity
    x, y = (v.astype(float) for v in xy)
    lhs = ns.apply_inverse_power(x, r) @ y
    assert lhs == x @ ns.apply_inverse_power(y[::-1], r)[::-1]


def test_primitives_reject_order_below_one():
    for primitive in (ns.apply_difference, ns.apply_inverse_power):
        for r in (0, -1):
            with pytest.raises(ValueError):
                primitive(np.ones(4), r)
