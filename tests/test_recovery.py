"""Solver contract tests: feasibility, optimality, oracle agreement."""

import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sdlowrank import encoding
from sdlowrank import harness
from sdlowrank import noise_shaping
from sdlowrank import recovery
from sdlowrank import sensing
from sdlowrank import sigma_delta

from dense_oracle import inverse_power_entries
from oracles import FACTOR_CASES, FACTOR_IDS, reference_solve

# fixed examples, so the suite stays deterministic from run to run
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def pipeline_problem(n, m, r, k=1, form="full_inverse_power", seed=0, eps=0.0,
                     ell=None, beta=0.5):
    """Quantized instance plus its ground truth and noise vector."""
    op = sensing.draw_operator(m, n, n, "gaussian", seed=seed)
    X = sensing.gaussian_rank_k(np.random.default_rng(seed + 1000), n, n, k)
    y = sensing.apply(op, X)
    noise = np.zeros(m)
    if eps > 0:
        noise = np.random.default_rng(seed + 2000).uniform(0.0, 1.0, m)
        noise *= eps / noise.max()
    y_in = y + noise
    L = sigma_delta.required_levels(float(np.max(np.abs(y_in))), beta, r)
    scheme = sigma_delta.default_scheme(r, sigma_delta.build_alphabet(L, beta))
    run = sigma_delta.quantize(y_in, scheme)
    basis = encoder = None
    if form == "projected":
        basis = noise_shaping.compute_basis(m, r, truncation=ell or max(m // 4, 1))
    if form == "encoded":
        encoder = encoding.draw_encoder(max(m // 4, 1), m, seed=seed + 3000)
    problem = recovery.RecoveryProblem(
        operator=op, quantized=run.output, order=r, gamma=beta / 2,
        noise_bound=eps, basis=basis, encoder=encoder,
    )
    return problem, X, noise


def test_zero_problem_returns_zero():
    op = sensing.draw_operator(20, 4, 4, seed=1)
    problem = recovery.RecoveryProblem(
        operator=op, quantized=np.zeros(20), order=1, gamma=0.25,
    )
    sol = recovery.recover(problem)
    assert sol.converged
    assert sol.objective == 0.0
    assert np.array_equal(sol.estimate, np.zeros((4, 4)))
    assert np.array_equal(sol.noise_estimate, np.zeros(20))


def test_unquantized_rank_one_exact_recovery():
    """Shrunken radius with exact measurements pins down the truth."""
    n, m = 6, 48
    op = sensing.draw_operator(m, n, n, seed=5)
    X = sensing.gaussian_rank_k(np.random.default_rng(6), n, n, 1)
    q = sensing.apply(op, X)
    problem = recovery.RecoveryProblem(
        operator=op, quantized=q, order=1, gamma=1e-6 / np.sqrt(m),
    )
    sol = recovery.recover(problem)
    assert sol.converged
    assert np.linalg.norm(sol.estimate - X) <= 1e-3 * np.linalg.norm(X)


@settings(PROPERTY, max_examples=100)
@given(
    form=st.sampled_from(harness.CONSTRAINT_FORMS),
    r=st.integers(1, 3),
    ell=st.sampled_from([20, 40, 80]),
    lam=st.integers(1, 4),
    eps=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    distribution=st.sampled_from(sensing.DISTRIBUTIONS),
    seed=st.integers(0, 2**32 - 1),
)
def test_truth_is_feasible_for_all_forms(tmp_path_factory, form, r, ell, lam, eps,
                                        distribution, seed):
    # the sweep's own instance, drawn through the config (so its
    # distribution), with the task's bounded noise when eps > 0; the bases
    # are cached outside the checkout
    config = harness.ExperimentConfig(
        n1=4, n2=4, rank=1, ell=ell, oversampling_grid=(float(lam),), orders=(r,),
        master_seed=seed, constraint_form=form, encoder_dim=20, distribution=distribution,
        output_path=str(tmp_path_factory.getbasetemp() / "feasible"),
    )
    task = dataclasses.replace(harness.first_trial(config), eps=eps, noise_seed=seed)
    op, basis, encoder = harness.grid_point(task)
    X, _, y, noise = harness.trial_instance(task, op)
    scheme, run = harness.trial_quantize(task, y)
    assert not run.overflow
    problem = recovery.RecoveryProblem(
        operator=op, quantized=run.output, order=r, gamma=scheme.stability_constant,
        noise_bound=eps, basis=basis, encoder=encoder,
    )
    shaped = recovery.shaped_residual_vector(problem, X, noise)
    assert np.linalg.norm(shaped) <= problem.radius * (1 + 1e-9)
    assert np.linalg.norm(noise) <= problem.noise_radius * (1 + 1e-9)


def test_constraint_is_the_dense_shaping_matrix_for_all_forms():
    # J = [S A, S], c = S q and R the shaped ball's radius, with the
    # form's map S written out densely; the projected form folds the noise
    # ball into R instead, so its J is S A alone and R grows by
    # sigma_ell eps sqrt(m)
    m, r = 40, 3
    inverse_power = inverse_power_entries(m, r).astype(float)
    for form in harness.CONSTRAINT_FORMS:
        problem, _, _ = pipeline_problem(4, m, r, form=form, seed=8, eps=0.5, ell=10)
        S, fold = inverse_power, 0.0
        if form == "projected":
            basis = problem.basis
            S = basis.sigma_truncation * basis.right_vectors[:, :len(basis.singular_values)].T
            fold = basis.sigma_truncation * 0.5 * math.sqrt(m)
        if form == "encoded":
            S = problem.encoder.data @ inverse_power
        J, c, R = recovery.build_constraint(problem)
        want = S @ problem.operator.data
        if form != "projected":
            want = np.concatenate([want, S], axis=1)
        assert R == problem.radius + fold
        assert J.shape == want.shape
        assert np.max(np.abs(J - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(c - S @ problem.quantized)) <= 1e-12 * np.max(np.abs(c))
    # beyond DENSE_FULL_FORM_LIMIT the full form's S is not written out:
    # building J raises, and recover raises it
    dense, _, _ = pipeline_problem(4, recovery.DENSE_FULL_FORM_LIMIT + 8, 1, seed=7, eps=0.5)
    with pytest.raises(ValueError, match="materializes"):
        recovery.recover(dense)


def test_objective_not_above_truth():
    problem, X, _ = pipeline_problem(3, 48, 1, seed=11)
    sol = recovery.recover(problem)
    assert sol.converged
    assert sol.objective <= np.linalg.norm(X, "nuc") + 1e-4


def test_converged_solutions_pass_feasibility():
    for form, r in (("full_inverse_power", 1), ("projected", 2)):
        problem, _, _ = pipeline_problem(6, 120, r, form=form, seed=7, ell=30)
        sol = recovery.recover(problem)
        assert sol.converged
        report = recovery.check_feasibility(problem, sol.estimate, sol.noise_estimate)
        assert report == sol.feasibility
        assert report.ok
        assert report.shaped_slack >= -1e-6 * max(1.0, problem.radius)


def test_check_feasibility_flags_violation():
    op = sensing.draw_operator(10, 3, 3, seed=2)
    problem = recovery.RecoveryProblem(
        operator=op, quantized=np.ones(10), order=1, gamma=1e-12,
    )
    report = recovery.check_feasibility(problem, np.zeros((3, 3)), np.zeros(10))
    assert not report.ok
    assert report.messages


def test_check_feasibility_rejects_a_nu_of_another_shape():
    # a length-1 or an m x m nu would broadcast against the length-m
    # residual and report the norm of something else
    op = sensing.draw_operator(20, 3, 3, seed=2)
    problem = recovery.RecoveryProblem(
        operator=op, quantized=np.zeros(20), order=1, gamma=0.25, noise_bound=0.1,
    )
    for nu in (np.array([0.3]), np.zeros((20, 20))):
        with pytest.raises(ValueError, match="nu"):
            recovery.check_feasibility(problem, np.zeros((3, 3)), nu)


def test_check_feasibility_flags_a_nan_point():
    # nan > bound is False, so a nan norm would read as within its radius
    problem, X, noise = pipeline_problem(4, 64, 1, form="projected", seed=5, eps=0.5, ell=16)
    assert recovery.check_feasibility(problem, X, noise).ok
    for Z, nu, constraint in ((np.full_like(X, np.nan), noise, "shaped residual nan"),
                              (X, np.full_like(noise, np.nan), "noise norm nan")):
        report = recovery.check_feasibility(problem, Z, nu)
        assert not report.ok
        assert any(msg.startswith(constraint) for msg in report.messages)


def test_nonconvergence_reported_honestly():
    problem, _, _ = pipeline_problem(6, 96, 2, seed=9)
    sol = recovery.recover(problem, recovery.SolverParams(max_iterations=3))
    assert not sol.converged
    assert sol.iterations == 3
    assert np.isfinite(sol.primal_residual)
    assert np.isfinite(sol.dual_residual)


def test_solution_carries_its_feasibility_report(monkeypatch):
    problem, _, _ = pipeline_problem(6, 96, 2, seed=9)
    for params in (recovery.SolverParams(max_iterations=3), recovery.SolverParams()):
        sol = recovery.recover(problem, params)
        assert sol.feasibility == recovery.check_feasibility(
            problem, sol.estimate, sol.noise_estimate)
        if sol.iterations < params.max_iterations:  # the solve stopped
            assert sol.feasibility.ok == sol.converged
    assert sol.converged
    # a solve that stops at an infeasible point is not converged
    infeasible = dataclasses.replace(sol.feasibility, ok=False, messages=("forced",))
    monkeypatch.setattr(recovery, "check_feasibility", lambda *args: infeasible)
    sol = recovery.recover(problem)
    assert sol.iterations < recovery.SolverParams().max_iterations
    assert not sol.converged
    assert sol.feasibility is infeasible


def test_scale_equivariance():
    problem, _, _ = pipeline_problem(4, 64, 1, seed=13)
    base = recovery.recover(problem)
    c = 37.5
    scaled_problem = dataclasses.replace(
        problem, quantized=c * problem.quantized, gamma=c * problem.gamma
    )
    scaled = recovery.recover(scaled_problem)
    denom = c * max(np.linalg.norm(base.estimate), 1e-12)
    assert np.linalg.norm(scaled.estimate - c * base.estimate) / denom <= 1e-3


def test_invalid_problems_rejected():
    op = sensing.draw_operator(10, 3, 3, seed=2)
    with pytest.raises(ValueError):
        recovery.RecoveryProblem(operator=op, quantized=np.zeros(10), order=1,
                                 gamma=-1.0)
    with pytest.raises(ValueError):
        recovery.RecoveryProblem(operator=op, quantized=np.zeros(9), order=1,
                                 gamma=0.25)
    # an infinite radius returns zero as converged, and a nan noise_bound
    # would read as no noise
    for name, value in (("gamma", math.inf), ("gamma", math.nan), ("noise_bound", math.inf),
                        ("noise_bound", math.nan), ("noise_bound", -0.5)):
        with pytest.raises(ValueError, match=f"{name} must be .*, got {value}"):
            recovery.RecoveryProblem(operator=op, quantized=np.zeros(10), order=1,
                                     **{"gamma": 0.25, name: value})
    # recover would fail in the SVD with a message that names no input
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="quantized must be finite"):
            recovery.RecoveryProblem(operator=op, quantized=np.r_[np.zeros(9), value], order=1,
                                     gamma=0.25)
    # a basis or an encoder built for another grid point
    for basis in (noise_shaping.compute_basis(12, 1, truncation=5),
                  noise_shaping.compute_basis(10, 2, truncation=5)):
        with pytest.raises(ValueError, match="basis size/order do not match"):
            recovery.RecoveryProblem(operator=op, quantized=np.zeros(10), order=1,
                                     gamma=0.25, basis=basis)
    with pytest.raises(ValueError, match="encoder input dimension does not match"):
        recovery.RecoveryProblem(operator=op, quantized=np.zeros(10), order=1, gamma=0.25,
                                 encoder=encoding.draw_encoder(5, 12, seed=0))


def test_problem_with_basis_and_encoder_rejected():
    # each input picks a form, so both together name two decoders
    op = sensing.draw_operator(10, 3, 3, seed=2)
    with pytest.raises(ValueError, match="not both"):
        recovery.RecoveryProblem(
            operator=op, quantized=np.zeros(10), order=1, gamma=0.25,
            basis=noise_shaping.compute_basis(10, 1, truncation=5),
            encoder=encoding.draw_encoder(5, 10, seed=0),
        )


def test_best_rank_k_error_oracle():
    X = np.diag([3.0, 2.0, 1.0])
    assert recovery.best_rank_k_error(X, 2) == pytest.approx(1.0)
    assert recovery.best_rank_k_error(X, 0) == pytest.approx(6.0)
    assert recovery.best_rank_k_error(X, 3) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        recovery.best_rank_k_error(X, 4)


def test_reference_solve_agrees_and_is_idempotent():
    problem, _, _ = pipeline_problem(5, 100, 2, seed=17)
    fast = recovery.recover(problem)
    ref = reference_solve(problem)
    assert abs(fast.objective - ref.objective) <= 1e-3 * max(1.0, ref.objective)
    again = reference_solve(problem)
    assert abs(again.objective - ref.objective) <= 1e-6 * max(1.0, ref.objective)


def test_reference_solve_raises_when_its_solves_disagree(monkeypatch):
    # the doubled problem's objective, raised by a relative 1e-5, fails
    # the oracle's 1e-6 agreement check
    problem, _, _ = pipeline_problem(4, 40, 1, seed=17)
    recover = recovery.recover

    def nudged(p, params=None):
        solution = recover(p, params)
        if p is not problem:
            solution.objective *= 1.0 + 1e-5
        return solution

    monkeypatch.setattr(recovery, "recover", nudged)
    with pytest.raises(RuntimeError, match="disagree"):
        reference_solve(problem)


def test_reference_solve_zero_problem():
    op = sensing.draw_operator(12, 3, 3, seed=4)
    problem = recovery.RecoveryProblem(
        operator=op, quantized=np.zeros(12), order=1, gamma=0.25,
    )
    ref = reference_solve(problem)
    assert ref.objective == 0.0


def test_reference_solve_guards_size():
    problem, _, _ = pipeline_problem(11, 100, 1, seed=19)
    with pytest.raises(ValueError):
        reference_solve(problem)


def test_noise_ball_active_case():
    problem, X, noise = pipeline_problem(5, 80, 1, seed=23, eps=1.0)
    sol = recovery.recover(problem)
    assert sol.converged
    assert sol.feasibility.noise_lhs <= problem.noise_radius * (1 + 1e-6) + 1e-6
    assert sol.feasibility.ok


class _projector:
    """The tube projector of ||J x - c|| <= R, from the thin SVD of J.

    A recovery._Tube called on one row that takes and returns one
    vector; a point the tube passes through unchanged comes back as the
    same object.
    """

    def __init__(self, J, c, R):
        U, s, Vh = np.linalg.svd(J, full_matrices=False)
        self.tube = recovery._Tube(s, Vh)
        cbar, c_perp2 = recovery._coordinates(U, c)
        self.cbar = cbar[None, :]
        R = float(R)
        self.row = recovery._Row(0, None, c_perp2, R, R ** 2, 0.0)

    def __call__(self, p):
        P = p[None, :]
        X = self.tube(P, self.cbar, [self.row])
        return p if X is P else X[0]

    @property
    def theta(self):
        return self.row.theta


# The projector reads the part of c outside the range of J as
# c.c - cbar.cbar; once ||c|| >> R the rounding of that difference exceeds
# R^2 and the projection lands on the wrong shell.  Strict, so the marker
# fails as soon as the arithmetic is made stable.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="c_perp2 cancels when ||c|| >> R")
@pytest.mark.parametrize("scale", [1e6, 1e9])
def test_tube_projection_lands_on_the_shell_when_c_is_large(scale):
    rng = np.random.default_rng(0)
    J = rng.standard_normal((60, 30))
    x0 = scale * rng.standard_normal(30)
    U, s, Vh = np.linalg.svd(J)
    # residual 0.95 u_1 - 0.5 u_60 at p: norm 1.07, and 0.5 of it is
    # outside the range of J, so the projection's residual has norm 1
    c = J @ x0 + 0.5 * U[:, -1]
    e1 = np.zeros(30)
    e1[0] = 0.95
    p = x0 + Vh.T @ (e1 / s)
    x = _projector(J, c, 1.0)(p)
    assert abs(np.linalg.norm(J @ x - c) - 1.0) <= 1e-3


def _tube(rows, cols, log_cond, rho, radius_rel, seed):
    """A tube {x : ||J x - c|| <= R} around a known interior point x0.

    J has columns scaled over log_cond decades; c = J x0 + e with
    ||e|| = rho R, part of it outside the range of J when rows > cols.
    R is radius_rel ||J|| ||x0||, so rounding in J x - c stays far below
    1e-12 R for points of size ||x0||.
    """
    rng = np.random.default_rng(seed)
    J = rng.standard_normal((rows, cols)) * np.logspace(0, -log_cond, cols)
    x0 = rng.standard_normal(cols)
    R = radius_rel * np.linalg.norm(J, 2) * np.linalg.norm(x0)
    e = rng.standard_normal(rows)
    c = J @ x0 + e * (rho * R / np.linalg.norm(e))
    return rng, J, c, R, x0


# every form at every order but the full form at r = 3: there ||c|| reaches
# 1e5 R, c_perp2 cancels (the strict xfail above), and the plain solve
# already fails its own recheck
_FORMS_AND_ORDERS = [(form, r) for form in ("projected", "encoded", "full_inverse_power")
                     for r in (1, 2, 3) if (form, r) != ("full_inverse_power", 3)]


@settings(PROPERTY, max_examples=60)
@given(
    form_and_order=st.sampled_from(_FORMS_AND_ORDERS),
    eps=st.sampled_from([0.0, 0.5]),
    n=st.integers(3, 5),
    lam=st.sampled_from([2, 4]),
    k=st.integers(1, 2),
    seed=st.integers(0, 2**16),
)
def test_accelerated_solve_agrees_with_the_plain_splitting(form_and_order, eps, n, lam, k,
                                                           seed):
    # Anderson acceleration changes the path, not the program: with and
    # without it the solve converges to a feasible point, and the two
    # estimates agree to 1e-4 of the plain one's norm (or of 1, when the
    # noise ball lets the estimate shrink to zero)
    form, r = form_and_order
    problem, _, _ = pipeline_problem(n, lam * n * n, r, k=k, form=form, seed=seed, eps=eps)
    accelerated = recovery.recover(problem)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recovery, "_ANDERSON_MEMORY", 0)
        plain = recovery.recover(problem)
    for solution in (accelerated, plain):
        assert solution.converged
        assert recovery.check_feasibility(
            problem, solution.estimate, solution.noise_estimate).ok
    gap = np.linalg.norm(accelerated.estimate - plain.estimate)
    assert gap <= 1e-4 * max(np.linalg.norm(plain.estimate), 1.0)


def _tiny_config(path, **overrides):
    """A 5 x 5 rank-1 sweep config at m = 32 with two trials per point."""
    base = dict(n1=5, n2=5, rank=1, ell=16, oversampling_grid=(2.0,), orders=(1, 2),
                trials=2, master_seed=77, encoder_dim=16, output_path=str(path))
    base.update(overrides)
    return harness.ExperimentConfig(**base)


# three tiny sweeps, r = 1 and 2 in each, and with and without noise in
# the noise sweep, and the sha256 of the CSV each writes without
# acceleration and with the solver's own _ANDERSON_MEMORY, both with J's
# nu block unscaled (kappa = 1); the projected noise sweep's eps > 0 rows
# are those of its folded radius, which has no nu block to scale
_TINY_SWEEPS = [
    (harness.run_noise_sweep, dict(epsilon_grid=(0.0, 0.5)),
     "bfba2fe5f086320f2f6ee4c6bed9cc6813b02ca0a36427400d2ccec9da56e64c",
     "4c37fa4923fd1e7fdf61ccc6db35243baa3d93c3b8edbd95f5cb8a783138fd0c"),
    (harness.run_oversampling_sweep, dict(constraint_form="full_inverse_power"),
     "76a75d19e5fc5774a8060d1b3985be943c09ddd703bcbc348554a6528a54411a",
     "fdfe7d012eb937f8965ae0d43b271160fc69369a5e589fc8919a6986490de527"),
    (harness.run_rate_distortion, dict(),
     "7215e2f964aa44dc2291b5645769f601f1eada140bfc5b19ad3a42bf8491cd85",
     "30286dd6b1849cb5a606405c96bcaac23838297bede68f698c1ca1270f79fd6d"),
]
_TINY_IDS = ["projected", "full", "encoded"]


@pytest.mark.parametrize("run, overrides, digest", [sweep[:3] for sweep in _TINY_SWEEPS],
                         ids=_TINY_IDS)
def test_memory_zero_is_the_plain_splitting_bit_for_bit(tmp_path, monkeypatch, run, overrides,
                                                        digest):
    # at memory 0 and kappa = 1 the loop is the unaccelerated splitting:
    # each tiny sweep writes the bytes recorded for that splitting
    monkeypatch.setattr(recovery, "_ANDERSON_MEMORY", 0)
    monkeypatch.setattr(recovery, "_noise_scale", lambda G, T: 1.0)
    path = run(_tiny_config(tmp_path, **overrides)).csv_path
    assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("run, overrides, digest",
                         [sweep[:2] + sweep[3:] for sweep in _TINY_SWEEPS], ids=_TINY_IDS)
def test_accelerated_solver_keeps_its_bytes(tmp_path, monkeypatch, run, overrides, digest):
    # the same sweeps at _ANDERSON_MEMORY = 5 and kappa = 1 write the bytes
    # recorded for them, so a change that moves any byte the sweeps write
    # fails here as well as in the desk-config hashes
    assert recovery._ANDERSON_MEMORY == 5
    monkeypatch.setattr(recovery, "_noise_scale", lambda G, T: 1.0)
    path = run(_tiny_config(tmp_path, **overrides)).csv_path
    assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest


def test_scaled_noise_block_keeps_its_bytes(tmp_path):
    # the tiny noise sweeps with the solver's own kappa write the bytes
    # recorded for them: the projected one those of the kappa = 1 pin, as
    # its J has no nu block, and the encoded one, whose J has, its own
    run, overrides = _TINY_SWEEPS[0][:2]
    for form, digest in (
            ("projected", _TINY_SWEEPS[0][3]),
            ("encoded", "27608743bc8cdba354a87cc398020edd6bfa7408d1ff9c4ba1ecd6a88f85d49d")):
        config = _tiny_config(tmp_path / form, constraint_form=form, **overrides)
        path = run(config).csv_path
        assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest


def test_scaled_noise_block_halves_the_noise_iterations(tmp_path, monkeypatch):
    # at the desk config's size (N = 100, m = 160), in the full form, whose
    # J keeps its nu block, the eps > 0 rows of a noise sweep take at most
    # half the iterations they take with that block unscaled (about a
    # fifth: 140 against 716)
    totals = []
    for name in ("scaled", "unscaled"):
        if name == "unscaled":
            monkeypatch.setattr(recovery, "_noise_scale", lambda G, T: 1.0)
        config = _tiny_config(tmp_path / name, n1=10, n2=10, rank=2, ell=80,
                              epsilon_grid=(0.0, 0.5), constraint_form="full_inverse_power")
        records = harness.read_records_csv(harness.run_noise_sweep(config).csv_path)
        assert all(record.converged for record in records)
        totals.append(sum(record.iterations for record in records if record.eps > 0))
    scaled, unscaled = totals
    assert 2 * scaled <= unscaled


@settings(PROPERTY, max_examples=30)
@given(
    form_and_order=st.sampled_from([case for case in _FORMS_AND_ORDERS
                                    if case[0] != "projected"]),
    eps=st.sampled_from([0.25, 2.0]),
    k=st.integers(1, 2),
    seed=st.integers(0, 2**16),
)
def test_scaled_noise_block_solves_the_same_program(form_and_order, eps, k, seed):
    # scaling J's nu block by kappa is a change of variables, not of the
    # program, in the forms whose J has one (the projected form folds the
    # noise ball into its radius): at the desk config's size (n = 10,
    # m = 160, ell = 80) the scaled and the kappa = 1 solves both
    # converge, their estimates agree to 1e-4 of the unscaled one's norm
    # (or of 1), and the returned nu, in the problem's units, lies in the
    # noise ball
    form, r = form_and_order
    problem, _, _ = pipeline_problem(10, 160, r, k=k, form=form, seed=seed, eps=eps, ell=80)
    scaled = recovery.recover(problem)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recovery, "_noise_scale", lambda G, T: 1.0)
        unscaled = recovery.recover(problem)
    for solution in (scaled, unscaled):
        assert solution.converged
        assert np.linalg.norm(solution.noise_estimate) <= problem.noise_radius * (1 + 1e-6)
    gap = np.linalg.norm(scaled.estimate - unscaled.estimate)
    assert gap <= 1e-4 * max(np.linalg.norm(unscaled.estimate), 1.0)


@settings(PROPERTY, max_examples=40)
@given(
    r=st.integers(1, 3),
    eps=st.floats(0.05, 2.0),
    n=st.integers(3, 5),
    lam=st.sampled_from([2, 4]),
    k=st.integers(1, 2),
    seed=st.integers(0, 2**16),
)
def test_projected_noise_fold_certifies_its_estimate(r, eps, n, lam, k, seed):
    # the projected form solves with the noise ball folded into its radius
    # and no nu: the solve converges, its returned nu lies in the noise
    # ball and passes check_feasibility with the estimate against both
    # constraints, and since the truth is feasible the objective is at
    # most ||X||_* plus the solver's tolerance
    problem, X, _ = pipeline_problem(n, lam * n * n, r, k=k, form="projected", seed=seed,
                                     eps=eps)
    solution = recovery.recover(problem)
    assert solution.converged
    assert recovery.check_feasibility(problem, solution.estimate, solution.noise_estimate).ok
    assert np.linalg.norm(solution.noise_estimate) <= problem.noise_radius * (1 + 1e-12)
    truth = np.linalg.norm(X, "nuc")
    assert solution.objective <= truth + recovery.SolverParams().tolerance * max(1.0, truth)


def _explicit_noise_problem(problem):
    """The projected problem's program with its nu explicit: an encoded
    problem whose encoder sigma_ell V_ell^T D^r makes B D^{-r} the
    projected map sigma_ell V_ell^T, with gamma rescaled so its radius
    3 m gamma is the projected gamma sqrt(m)."""
    basis, r, m = problem.basis, problem.order, problem.operator.rows
    # V_ell^T D^r = (D^{r,T} V_ell)^T, and D^{r,T} is D^r on reversed rows
    B = noise_shaping.apply_difference(basis.right_vectors[::-1], r)[::-1].T
    return recovery.RecoveryProblem(
        operator=problem.operator, quantized=problem.quantized, order=r,
        gamma=problem.radius / (3.0 * m), noise_bound=problem.noise_bound,
        encoder=encoding.EncoderMatrix(data=basis.sigma_truncation * B))


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("eps", [0.05, 0.25])
def test_projected_noise_fold_matches_the_explicit_nu_solve(r, eps):
    # folding the noise ball into the radius changes the variables, not
    # the program: at tolerance 1e-10 the folded solve and the solve with
    # nu in J (the same program posed as an encoded one) reach objectives
    # that agree to 1e-8; at these eps the ball excludes Z = 0, so the
    # objectives are not both zero
    problem, _, _ = pipeline_problem(4, 48, r, form="projected", seed=r, eps=eps, ell=12)
    explicit = _explicit_noise_problem(problem)
    assert math.isclose(explicit.radius, problem.radius, rel_tol=1e-15)
    params = recovery.SolverParams(max_iterations=50000, tolerance=1e-10)
    folded, unfolded = recovery.recover(problem, params), recovery.recover(explicit, params)
    assert folded.converged and unfolded.converged
    assert unfolded.objective > 0.0
    assert abs(folded.objective - unfolded.objective) <= 1e-8 * max(1.0, unfolded.objective)


def test_certifying_noise_leaves_the_least_shaped_residual():
    # with a = sigma_ell V_ell^T (M(Z) - q) and reach = sigma_ell eps sqrt(m)
    # the returned nu leaves a shaped residual of norm
    # max(||a|| - reach, 0), the least any nu of the noise ball leaves,
    # at the least norm that does, min(||a||, reach) / sigma_ell; Z = 0,
    # X and 2 X at two eps take both branches of the min
    branches = set()
    for eps in (0.05, 50.0):
        problem, X, _ = pipeline_problem(4, 48, 2, form="projected", seed=3, eps=eps, ell=12)
        basis = problem.basis
        reach = basis.sigma_truncation * problem.noise_radius
        for Z in (np.zeros_like(X), X, 2.0 * X):
            a = noise_shaping.project_shaped(
                sensing.apply(problem.operator, Z) - problem.quantized, basis)
            nu = recovery._certifying_noise(problem, Z)
            left = np.linalg.norm(recovery.shaped_residual_vector(problem, Z, nu))
            norm = np.linalg.norm(a)
            assert abs(left - max(norm - reach, 0.0)) <= 1e-12 * norm
            assert math.isclose(np.linalg.norm(nu), min(norm, reach) / basis.sigma_truncation,
                                rel_tol=1e-12)
            branches.add(bool(norm <= reach))
    assert branches == {True, False}


def test_accelerated_prox_inputs_stay_as_bounded_as_the_plain_ones(tmp_path, monkeypatch):
    # the largest |entry| the stacked nuclear prox is handed over the tiny
    # sweep of test_harness::test_a_trial_whose_solve_fails_fails_alone,
    # with acceleration on and at memory 0, is within 10x either way; a
    # correction of any length took it from 1.7 to 2.9e14
    svd, largest = np.linalg.svd, {}

    def recording_svd(a, *args, **kwargs):
        if np.ndim(a) == 3:
            largest[memory] = max(largest.get(memory, 0.0), float(np.abs(a).max()))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    on = recovery._ANDERSON_MEMORY
    for memory in (on, 0):
        monkeypatch.setattr(recovery, "_ANDERSON_MEMORY", memory)
        config = _tiny_config(tmp_path / str(memory), orders=(1,), trials=5)
        assert not harness.run_oversampling_sweep(config).failures
    accelerated, plain = largest[on], largest[0]
    assert accelerated <= 10.0 * plain and plain <= 10.0 * accelerated


@PROPERTY
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    log_cond=st.floats(0.0, 4.0),
    rho=st.floats(0.0, 0.99),
    radius_rel=st.floats(0.1, 10.0),
    reach=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
# cond(J) = 697: near the shell the point moves about cond(J) times as
# far as phi, so a solve that stops on its phi rule alone fails here
@example(rows=11, cols=4, log_cond=2.875, rho=0.984375, radius_rel=3.0, reach=1.5, seed=37)
def test_tube_projection_properties(rows, cols, log_cond, rho, radius_rel, reach, seed):
    rng, J, c, R, x0 = _tube(rows, cols, log_cond, rho, radius_rel, seed)
    # a walk of inputs: small moves (the warm start's case), jumps, and
    # an interior point
    step = reach * np.linalg.norm(x0) / np.sqrt(cols)
    p = x0 + step * rng.standard_normal(cols)
    inputs = []
    for _ in range(6):
        inputs += [p, p + 1e-6 * step * rng.standard_normal(cols), x0]
        p = p + step * rng.standard_normal(cols) / 4
    warm = _projector(J, c, R)
    inside = x0
    for p in inputs:
        x = warm(p)
        fresh = _projector(J, c, R)(p)
        # the warm state changes no point beyond the stopping rule
        assert np.linalg.norm(x - fresh) <= 1e-12 * max(1.0, np.linalg.norm(fresh))
        assert np.linalg.norm(J @ x - c) <= R * (1 + 1e-12)
        mid = 0.5 * (x0 + x)
        assert _projector(J, c, R)(mid) is mid
        # variational inequality of the projection onto a convex set, at
        # strictly feasible points
        for z in (x0, mid, inside):
            gap = np.dot(p - x, z - x)
            assert gap <= 1e-9 * np.linalg.norm(p - x) * np.linalg.norm(z - x)
        inside = x0 + 0.9 * (x - x0)
    assert warm(x0) is x0


def test_tube_projection_lands_at_the_cap_when_the_tube_is_empty():
    # c has a part of norm 2 R outside the range of J: no x reaches the
    # tube, and the projection lands on the closest reachable shell
    rng = np.random.default_rng(3)
    J = rng.standard_normal((12, 5))
    U, _, _ = np.linalg.svd(J)
    R = 0.5
    c = J @ rng.standard_normal(5) + 2 * R * U[:, -1]
    proj = _projector(J, c, R)
    for _ in range(2):
        x = proj(rng.standard_normal(5))
        assert proj.theta == 1e40
        assert abs(np.linalg.norm(J @ x - c) - 2 * R) <= 1e-9 * R


@PROPERTY
@given(
    n1=st.integers(1, 8),
    n2=st.integers(1, 8),
    rank=st.integers(0, 8),
    log_scale=st.floats(-2.0, 2.0),
    tau_rel=st.floats(0.0, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_nuclear_prox_is_the_proximal_point(n1, n2, rank, log_scale, tau_rel, seed):
    # f(X) = tau ||X||_* + ||X - Z||_F^2 / 2 is 1-strongly convex, so P is
    # its minimizer exactly when f(X) >= f(P) + ||X - P||_F^2 / 2 for all X
    rng = np.random.default_rng(seed)
    k = min(rank, n1, n2)  # below min(n1, n2): a rank-deficient Z
    scale = 10.0 ** log_scale
    Z = scale * rng.standard_normal((n1, k)) @ rng.standard_normal((k, n2))
    tau = tau_rel * max(np.linalg.norm(Z, 2), scale)
    stack, errors = recovery._nuclear_prox(Z[None], np.array([tau]))
    assert not errors
    P = stack[0]

    def f(X):
        return tau * np.linalg.norm(X, "nuc") + 0.5 * np.sum((X - Z) ** 2)

    fP = f(P)
    candidates = [np.zeros_like(Z), Z]
    for step in (1e-6, 1e-3, 1e-1, 1.0):
        candidates += [P + step * scale * rng.standard_normal(Z.shape) for _ in range(5)]
    for X in candidates:
        # rounding in f grows with the larger of the two values compared
        fX = f(X)
        assert fX >= fP + 0.5 * np.sum((X - P) ** 2) - 1e-12 * max(1.0, abs(fP), fX)


def test_warm_started_secular_solve_stays_cheap(tmp_path):
    # a clock-free guard on the projection's cost: the warm start needs
    # about 3 Newton evaluations per ADMM iteration, a cold bracket about 8
    config = harness.ExperimentConfig(output_path=str(tmp_path))
    task = harness.first_trial(config)
    _, solution = harness.trial_solve(task)
    assert solution.converged
    assert solution.secular_steps <= 4 * solution.iterations


def test_against_convex_programming_oracle():
    cp = pytest.importorskip("cvxpy")
    for form, r, n, m, seed in (
        ("full_inverse_power", 1, 4, 48, 29),
        ("full_inverse_power", 2, 5, 80, 31),
        ("projected", 2, 5, 80, 37),
    ):
        problem, _, _ = pipeline_problem(n, m, r, form=form, seed=seed, ell=20)
        J, c, radius = recovery.build_constraint(problem)
        Z = cp.Variable((n, n))
        expr = J @ cp.vec(Z, order="F") - c
        prog = cp.Problem(cp.Minimize(cp.normNuc(Z)),
                          [cp.norm(expr, 2) <= radius])
        prog.solve(solver=cp.CLARABEL)
        assert prog.status == "optimal"
        sol = recovery.recover(problem)
        assert sol.converged
        assert abs(sol.objective - prog.value) <= 1e-3 * max(1.0, prog.value)


# -- lockstep solves --------------------------------------------------------

_POINTS = {}


def _point_trials(base, case):
    """The prepared trials of one grid point of case = (form, eps).

    The point is (r, m) = (2, 32) with 4 trials, built once per case and
    shared by every test that reads it.
    """
    if case not in _POINTS:
        form, eps = case
        config = harness.ExperimentConfig(
            n1=4, n2=4, rank=1, ell=16, oversampling_grid=(2.0,), orders=(2,),
            epsilon_grid=(eps,), trials=4, master_seed=11, constraint_form=form,
            encoder_dim=16, output_path=str(base / "lockstep"),
        )
        [tasks] = harness._sweep_units(config, harness._noise_spec(config))
        point = harness.grid_point(tasks[0])
        _POINTS[case] = [harness._prepare_trial(task, point) for task in tasks]
    return _POINTS[case]


def _same_solution(got, want):
    assert got.estimate.tobytes() == want.estimate.tobytes()
    assert got.noise_estimate.tobytes() == want.noise_estimate.tobytes()
    assert (got.iterations, got.secular_steps, got.penalty_changes, got.converged) == (
        want.iterations, want.secular_steps, want.penalty_changes, want.converged)


@settings(PROPERTY, max_examples=24)
@given(
    case=st.sampled_from(FACTOR_CASES),
    order=st.permutations(range(4)),
    size=st.integers(1, 4),
    max_iterations=st.sampled_from([4, 60, 5000]),
)
def test_lockstep_solve_matches_each_problem_alone(tmp_path_factory, case, order, size,
                                                    max_iterations):
    # any subset of a point's problems, in any order, solved together:
    # each gets the bits it gets alone, and so do its counts
    trials = _point_trials(tmp_path_factory.getbasetemp(), case)
    problems = [trials[i].problem for i in order[:size]]
    params = recovery.SolverParams(max_iterations=max_iterations)
    together = recovery.recover_batch(problems, params)
    for problem, solution in zip(problems, together):
        _same_solution(solution, recovery.recover(problem, params))


@PROPERTY
@given(
    rows=st.integers(1, 12),
    n=st.integers(1, 300),
    offset=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_sums_of_squares_are_the_one_row_products(rows, n, offset, seed):
    # the solver's per-row norms are each row's own dot product, the
    # product a one-vector solve takes, for slices of wider rows too
    A = np.random.default_rng(seed).standard_normal((rows, n + 2 * offset))[:, offset:offset + n]
    assert recovery._sumsq(A) == [float(a @ a) for a in A]


def test_a_failing_svd_fails_its_problem_alone(tmp_path, monkeypatch):
    # the third problem scaled by 1e6 is the same program 1e6 times as
    # large; an SVD that refuses matrices that large fails it, in the
    # stacked call and alone, with the same error, and the other three
    # keep the bits they get alone
    trials = _point_trials(tmp_path, ("projected", 0.5))
    problems = [trial.problem for trial in trials]
    big = problems[2]
    problems[2] = dataclasses.replace(big, quantized=1e6 * big.quantized, gamma=1e6 * big.gamma)
    alone = [recovery.recover(p) for p in problems[:2] + problems[3:]]
    limit = 1e3 * max(np.abs(s.estimate).max() for s in alone)
    svd = np.linalg.svd

    def failing_svd(a, *args, **kwargs):
        if np.abs(a).max() > limit:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    together = recovery.recover_batch(problems)
    with pytest.raises(np.linalg.LinAlgError) as failed:
        recovery.recover(problems[2])
    assert isinstance(together[2], np.linalg.LinAlgError)
    assert str(together[2]) == str(failed.value) == "SVD did not converge"
    for got, want in zip(together[:2] + together[3:], alone):
        _same_solution(got, want)
        assert got.objective == want.objective and got.feasibility == want.feasibility


def _one_fails_alone(tmp_path, monkeypatch, name, fails):
    """Solve a point's problems together with recovery.<name> patched to
    raise where fails(problem, *args) holds for the second problem: it
    alone comes back as the error, and the others keep their bits."""
    problems = [trial.problem for trial in _point_trials(tmp_path, ("projected", 0.5))]
    alone = [recovery.recover(p) for p in problems]
    original = getattr(recovery, name)

    def failing(problem, *args):
        if problem is problems[1] and fails(problem, *args):
            raise ValueError(f"no {name}")
        return original(problem, *args)

    monkeypatch.setattr(recovery, name, failing)
    together = recovery.recover_batch(problems)
    assert isinstance(together[1], ValueError) and str(together[1]) == f"no {name}"
    for got, want in zip(together[:1] + together[2:], alone[:1] + alone[2:]):
        _same_solution(got, want)


def test_a_problem_whose_shaped_vector_fails_fails_alone(tmp_path, monkeypatch):
    # the shaped vector c of the second problem raises before the solve
    _one_fails_alone(tmp_path, monkeypatch, "_shape",
                     lambda problem, M: M is problem.quantized)


def test_a_problem_whose_final_check_fails_fails_alone(tmp_path, monkeypatch):
    # the second problem is solved, and the check of its returned point raises
    _one_fails_alone(tmp_path, monkeypatch, "check_feasibility", lambda problem, Z, nu: True)


def test_a_row_at_the_penalty_cap_keeps_its_penalty(monkeypatch):
    # scaled by 1e-4, this problem changes its penalty 11 times; with the
    # cap at 5 it changes it 5 times and ends the solve on the fifth value
    problem, _, _ = pipeline_problem(4, 40, 1, seed=5, ell=10)
    problem = dataclasses.replace(problem, quantized=1e-4 * problem.quantized,
                                  gamma=1e-4 * problem.gamma)
    assert recovery.recover(problem).penalty_changes == 11
    changed, finished = [], []
    clear, finish = recovery._Anderson.clear, recovery._finish

    def recorded_clear(self, b, row):
        changed.append(row.rho)
        return clear(self, b, row)

    def recorded_finish(row, *args):
        finished.append(row.rho)
        return finish(row, *args)

    monkeypatch.setattr(recovery, "_ADAPT_CAP", 5)
    monkeypatch.setattr(recovery._Anderson, "clear", recorded_clear)
    monkeypatch.setattr(recovery, "_finish", recorded_finish)
    solution = recovery.recover(problem)
    assert solution.penalty_changes == len(changed) == 5
    assert finished == changed[-1:]
    assert solution.converged


@pytest.mark.parametrize("form, change", [
    ("projected", lambda problem: dict(operator=dataclasses.replace(problem.operator))),
    ("projected", lambda problem: dict(basis=noise_shaping.compute_basis(40, 2, truncation=10))),
    ("encoded", lambda problem: dict(encoder=dataclasses.replace(problem.encoder))),
    ("full_inverse_power", lambda problem: dict(order=1)),
    ("encoded", lambda problem: dict(noise_bound=0.5)),
], ids=["operator", "basis", "encoder", "order", "noise"])
def test_a_batch_of_two_constraints_is_refused(form, change):
    # a batch is the problems of one J: one that differs in any input of
    # J, by another object of equal values too, is refused, and a batch
    # of none returns no outcomes
    problem, _, _ = pipeline_problem(4, 40, 2, form=form, seed=5, ell=10)
    other = dataclasses.replace(problem, **change(problem))
    with pytest.raises(ValueError, match="one constraint matrix"):
        recovery.recover_batch([problem, other])
    assert recovery.recover_batch([]) == []


def test_projected_problems_with_and_without_noise_share_a_batch():
    # the projected form folds the noise ball into its radius, so its
    # eps = 0 and eps > 0 problems have one J: a batch takes both, and
    # each gets the bits it gets alone
    noisy, _, _ = pipeline_problem(4, 40, 2, form="projected", seed=5, eps=0.5, ell=10)
    quiet = dataclasses.replace(noisy, noise_bound=0.0)
    together = recovery.recover_batch([noisy, quiet])
    for got, problem in zip(together, (noisy, quiet)):
        _same_solution(got, recovery.recover(problem))
