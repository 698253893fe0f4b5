"""Measurement-operator tests: determinism, composition, RIP."""

import numpy as np
import pytest

from sdlowrank import noise_shaping
from sdlowrank import sensing

from oracles import composed_operator


def test_draw_operator_deterministic():
    a = sensing.draw_operator(6, 3, 4, "gaussian", seed=11)
    b = sensing.draw_operator(6, 3, 4, "gaussian", seed=11)
    c = sensing.draw_operator(6, 3, 4, "gaussian", seed=12)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_rademacher_support():
    op = sensing.draw_operator(50, 4, 4, "rademacher", seed=0)
    assert set(np.unique(op.data)) == {-1.0, 1.0}


@pytest.mark.parametrize("rows, cols", [(1, 1), (7, 9), (16, 3), (33, 17), (400, 1201)])
def test_random_signs_equal_one_int_draw(rows, cols):
    # drawn 16 rows at a time, the signs are the one-draw expression's, so
    # an operator or encoder is the same matrix for the same seed
    want = np.random.default_rng(9).integers(0, 2, size=(rows, cols)).astype(float) * 2.0 - 1.0
    got = sensing.random_signs(np.random.default_rng(9), rows, cols)
    assert got.dtype == np.float64 and np.array_equal(got, want)
    op = sensing.draw_operator(rows, 1, cols, "rademacher", seed=9)
    assert np.array_equal(op.data, want)


def test_gaussian_moments():
    op = sensing.draw_operator(200, 5, 4, "gaussian", seed=5)
    flat = op.data.ravel()  # 4000 samples
    assert abs(flat.mean()) < 0.1
    assert abs(flat.var() - 1.0) < 0.1


def test_unknown_distribution_rejected():
    with pytest.raises(ValueError):
        sensing.draw_operator(4, 2, 2, "cauchy", seed=0)


def test_apply_linear(rng):
    op = sensing.draw_operator(12, 4, 5, seed=3)
    X, Y = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
    lhs = sensing.apply(op, 2.0 * X - 3.0 * Y)
    rhs = 2.0 * sensing.apply(op, X) - 3.0 * sensing.apply(op, Y)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))
    assert np.array_equal(sensing.apply(op, np.zeros((4, 5))), np.zeros(12))


def test_apply_scalar_case():
    op = sensing.draw_operator(1, 1, 1, seed=9)
    c = op.data[0, 0]
    assert sensing.apply(op, np.array([[2.0]]))[0] == pytest.approx(2.0 * c)


def test_composed_contraction(rng):
    m, ell = 48, 16
    op = sensing.draw_operator(m, 5, 5, seed=13)
    basis = noise_shaping.compute_basis(m, 2, truncation=ell)
    comp = composed_operator(op, basis, ell)
    for _ in range(10):
        X = rng.standard_normal((5, 5))
        lhs = np.linalg.norm(sensing.apply(comp, X))
        rhs = np.linalg.norm(sensing.apply(op, X)) / np.sqrt(ell)
        assert lhs <= rhs + 1e-12


def test_composed_isotropy_over_draws():
    """E ||(1/sqrt(ell)) P_ell V^T M(X)||^2 = ||X||_F^2 over operator draws."""
    m, ell = 32, 16
    rng = np.random.default_rng(99)
    X = sensing.gaussian_rank_k(rng, 6, 6, 2)
    X /= np.linalg.norm(X)
    basis = noise_shaping.compute_basis(m, 1, truncation=ell)
    vals = []
    for seed in range(500):
        op = sensing.draw_operator(m, 6, 6, seed=seed)
        comp = composed_operator(op, basis, ell)
        vals.append(float(np.sum(sensing.apply(comp, X) ** 2)))
    assert abs(np.mean(vals) - 1.0) <= 0.1


def test_gaussian_rank_k_rank_bound(rng):
    for k in (1, 2, 3):
        X = sensing.gaussian_rank_k(rng, 8, 7, k)
        s = np.linalg.svd(X, compute_uv=False)
        assert s[k:].max(initial=0.0) <= 1e-10 * s[0]


def test_empirical_rip_isometry_case(rng):
    # orthonormal rows: ||op(X)|| = ||X||_F exactly, delta ~ 0
    q, _ = np.linalg.qr(rng.standard_normal((25, 25)))
    op = sensing.MeasurementOperator(shape=(5, 5), data=q)
    est = sensing.empirical_rip(op, 2, 100, seed=1)
    assert est.delta_hat <= 0.05


def test_empirical_rip_monotone_in_trials():
    op = sensing.draw_operator(60, 5, 5, seed=21)
    scaled = sensing.MeasurementOperator(shape=(5, 5), data=op.data / np.sqrt(60))
    d_small = sensing.empirical_rip(scaled, 2, 50, seed=3).delta_hat
    d_large = sensing.empirical_rip(scaled, 2, 200, seed=3).delta_hat
    assert d_large >= d_small


def test_apply_rejects_a_matrix_of_another_shape():
    op = sensing.draw_operator(12, 3, 4, seed=0)
    with pytest.raises(ValueError, match=r"expected shape \(3, 4\), got \(4, 3\)"):
        sensing.apply(op, np.zeros((4, 3)))


def test_empirical_rip_rejects_no_trials_and_ranks_out_of_range():
    op = sensing.draw_operator(12, 3, 4, seed=0)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        sensing.empirical_rip(op, 1, 0)
    for k in (0, 4):
        with pytest.raises(ValueError, match=r"k must lie in \[1, 3\]"):
            sensing.empirical_rip(op, k, 5)


def test_operator_entry_budget():
    with pytest.raises(ValueError):
        sensing.draw_operator(10**6, 500, 500, seed=0)
