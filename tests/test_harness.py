"""Experiment configs, seeds, slope fits, CSV round trips, tiny sweeps."""

import dataclasses
import hashlib
import inspect
import io
import math
import multiprocessing.connection
import os
import pickle
import signal
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdlowrank import _blas
from sdlowrank import encoding
from sdlowrank import harness
from sdlowrank import noise_shaping
from sdlowrank import recovery
from sdlowrank import sensing

from oracles import save_config

REPO = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = sorted(REPO.glob("configs/*.cfg")) + sorted(REPO.glob("bench/configs/*.cfg"))

# fixed examples, so the suite stays deterministic from run to run
PROPERTY = settings(derandomize=True, database=None, deadline=None)


def tiny_config(tmp_path, **overrides):
    base = dict(
        n1=5, n2=5, rank=1, ell=16, oversampling_grid=(2.0, 4.0),
        orders=(1,), trials=2, master_seed=77,
        output_path=str(tmp_path / "out"),
    )
    base.update(overrides)
    return harness.ExperimentConfig(**base)


# -- config files -----------------------------------------------------------

def test_config_round_trip(tmp_path):
    cfg = harness.ExperimentConfig(
        orders=(1, 3), epsilon_grid=(0.0, 0.25), levels=9,
        trials=7, mu=0.9, constraint_form="full_inverse_power",
    )
    path = tmp_path / "t.cfg"
    save_config(cfg, path)
    back = harness.load_config(path)
    assert back == cfg


def test_config_defaults_round_trip(tmp_path):
    cfg = harness.ExperimentConfig()
    save_config(cfg, tmp_path / "d.cfg")
    assert harness.load_config(tmp_path / "d.cfg") == cfg


def test_load_config_overrides_win(tmp_path):
    save_config(harness.ExperimentConfig(trials=3), tmp_path / "o.cfg")
    cfg = harness.load_config(tmp_path / "o.cfg", trials=9, master_seed=5)
    assert cfg.trials == 9 and cfg.master_seed == 5


def test_unknown_config_key_rejected(tmp_path):
    (tmp_path / "bad.cfg").write_text("n1 = 10\nturbo = yes\n")
    with pytest.raises(ValueError, match="bad.cfg:2: .*turbo"):
        harness.load_config(tmp_path / "bad.cfg")


def test_duplicate_config_key_rejected(tmp_path):
    (tmp_path / "dup.cfg").write_text("trials = 3\nn1 = 10\ntrials = 4\n")
    with pytest.raises(ValueError, match="dup.cfg:3: .*trials"):
        harness.load_config(tmp_path / "dup.cfg")


def test_malformed_config_line_rejected(tmp_path):
    (tmp_path / "bad.cfg").write_text("just words\n")
    with pytest.raises(ValueError):
        harness.load_config(tmp_path / "bad.cfg")


def test_config_errors_name_the_file(tmp_path):
    (tmp_path / "bad.cfg").write_text("n1 = 10\ntrials = x\n")
    with pytest.raises(ValueError, match=r"bad.cfg:2: trials: invalid literal for int\(\)"):
        harness.load_config(tmp_path / "bad.cfg")
    # a value that parses but ExperimentConfig rejects names the file only
    (tmp_path / "bad.cfg").write_text("n1 = 10\ntrials = 0\n")
    with pytest.raises(ValueError, match="bad.cfg: trials must be >= 1"):
        harness.load_config(tmp_path / "bad.cfg")


def test_levels_field_parse_forms(tmp_path):
    for text, expected in (("auto", "auto"), ("9", 9)):
        (tmp_path / "l.cfg").write_text(f"levels = {text}\n")
        assert harness.load_config(tmp_path / "l.cfg").levels == expected
    # one integer serves every order; a per-order map does not parse
    (tmp_path / "l.cfg").write_text("levels = 1:3,2:9\n")
    with pytest.raises(ValueError, match="l.cfg:1: levels: "):
        harness.load_config(tmp_path / "l.cfg")


@pytest.mark.parametrize("path", SHIPPED_CONFIGS,
                         ids=[str(p.relative_to(REPO)) for p in SHIPPED_CONFIGS])
def test_shipped_configs_load(path):
    # load_config rejects unknown keys, so a dropped field must leave every file
    assert isinstance(harness.load_config(path), harness.ExperimentConfig)


def test_config_validation(tmp_path):
    # m = 2.3 * 16 is refused by every sweep that reads the grid against ell
    cfg = tiny_config(tmp_path, oversampling_grid=(2.3,))
    for run in (harness.run_oversampling_sweep, harness.run_noise_sweep, harness.first_trial):
        with pytest.raises(ValueError, match=r"m = 2.3 \* 16 is not integral"):
            run(cfg)
    assert not os.path.exists(cfg.output_path)
    with pytest.raises(ValueError):
        harness.ExperimentConfig(epsilon_grid=(-0.5,))
    with pytest.raises(ValueError):
        harness.ExperimentConfig(constraint_form="banana")


def test_levels_missing_an_order_rejected():
    # levels is "auto" or one integer for every order; a map is not accepted
    for levels in ({1: 5}, {1: 5, 2: 9}):
        with pytest.raises(ValueError, match="levels must be 'auto' or an integer >= 1"):
            harness.ExperimentConfig(levels=levels, orders=(1, 2))


def test_rank_above_matrix_size_rejected():
    # make_low_rank would raise in every trial
    with pytest.raises(ValueError, match=r"rank must lie in \[1, 4\]"):
        harness.ExperimentConfig(n1=4, n2=4, rank=5)


@pytest.mark.parametrize("overrides, message", [
    # a repeated value writes every row of its grid point twice, from two operators
    (dict(oversampling_grid=(2.0, 2.0)), "oversampling_grid lists 2.0 more than once"),
    (dict(epsilon_grid=(0.5, 0.5)), "epsilon_grid lists 0.5 more than once"),
    (dict(orders=(1, 1)), "orders lists 1 more than once"),
    # each of these raises ValueError in every trial
    (dict(beta=0.0), "beta must be positive, got 0.0"),
    (dict(oversampling_grid=(0.0, 2.0)), "oversampling_grid entries must be positive, got 0.0"),
    (dict(orders=(0, 1)), r"orders must be >= 1, got \(0, 1\)"),
    (dict(levels=0), "levels must be 'auto' or an integer >= 1, got 0"),
    (dict(distribution="foo"), "unknown distribution 'foo'"),
    # draw_encoder needs 1 <= encoder_dim <= m rows
    (dict(encoder_dim=0), "encoder_dim must be >= 1, got 0"),
    (dict(oversampling_grid=(2.0,), constraint_form="encoded", encoder_dim=20),
     r"oversampling_grid entry 2.0 gives m = 2.0 \* 8 below encoder_dim 20"),
    # a noise sweep of no points writes an empty CSV
    (dict(epsilon_grid=()), "epsilon_grid must not be empty"),
    # every solve stops at once, or runs to the cap, and is recorded as not converged
    (dict(solver_max_iterations=0), "solver_max_iterations must be >= 1, got 0"),
    (dict(solver_tolerance=0.0), "solver_tolerance must be positive, got 0.0"),
    (dict(solver_tolerance=-1e-6), "solver_tolerance must be positive, got -1e-06"),
    # mu <= 0 leaves the natural scale, so a negative mu would be ignored
    (dict(mu=-1.0), "mu must be nonnegative, got -1.0"),
    # a sweep would run serially as if workers were 1 (0 means one per core)
    (dict(workers=-3), "workers must be >= 0, got -3"),
    # numpy's seed sequence refuses it with a message that names no key
    (dict(master_seed=-1), "master_seed must be >= 0, got -1"),
    # a nan eps writes rows with the noise-free error; every solve stops
    # after one iteration at an infinite tolerance; a bool is an int, and
    # True would run with L = 1
    (dict(epsilon_grid=(0.0, math.nan)), r"epsilon_grid must be finite, got \(0.0, nan\)"),
    (dict(solver_tolerance=math.inf), "solver_tolerance must be finite, got inf"),
    (dict(levels=True), "levels must be 'auto' or an integer >= 1, got True"),
    # each of these fails every trial once the sweep has started
    (dict(mu=math.inf), "mu must be finite, got inf"),
    (dict(beta=math.inf), "beta must be finite, got inf"),
    (dict(epsilon_grid=(0.0, math.inf)), r"epsilon_grid must be finite, got \(0.0, inf\)"),
    # a numeric field takes its default's type, as load_config parses it:
    # True would run one trial and write trials=True into the summary, a
    # float trials dies in range(), and a float order fails every trial
    (dict(trials=True), "trials takes int values, got True"),
    (dict(trials=2.0), "trials takes int values, got 2.0"),
    (dict(orders=(1.0,)), r"orders takes int values, got \(1.0,\)"),
    (dict(n1=4.0), "n1 takes int values, got 4.0"),
    (dict(n2=True), "n2 takes int values, got True"),
    (dict(rank=1.0), "rank takes int values, got 1.0"),
    (dict(ell=8.0), "ell takes int values, got 8.0"),
    (dict(encoder_dim=16.0), "encoder_dim takes int values, got 16.0"),
    (dict(solver_max_iterations=True), "solver_max_iterations takes int values, got True"),
    (dict(workers=2.0), "workers takes int values, got 2.0"),
    (dict(master_seed=False), "master_seed takes int values, got False"),
    (dict(beta=True), "beta takes float values, got True"),
    (dict(oversampling_grid=(2.0, True)),
     r"oversampling_grid takes float values, got \(2.0, True\)"),
    (dict(mu=False), "mu takes float values, got False"),
], ids=["repeated-lambda", "repeated-eps", "repeated-order", "zero-beta",
        "zero-lambda", "zero-order", "zero-levels", "unknown-distribution",
        "zero-encoder-dim", "encoded-m-below-encoder-dim", "empty-eps",
        "zero-max-iterations", "zero-tolerance", "negative-tolerance", "negative-mu",
        "negative-workers", "negative-seed", "nan-eps", "infinite-tolerance",
        "bool-levels", "infinite-mu", "infinite-beta", "infinite-eps",
        "bool-trials", "float-trials", "float-order", "float-n1", "bool-n2", "float-rank",
        "float-ell", "float-encoder-dim", "bool-max-iterations", "float-workers",
        "bool-seed", "bool-beta", "bool-lambda", "bool-mu"])
def test_config_rejects_values_no_sweep_can_run(tmp_path, overrides, message):
    # rejected before any trial runs, so no output is written
    out = tmp_path / "out"
    kwargs = dict(n1=4, n2=4, rank=1, ell=8, output_path=str(out))
    kwargs.update(overrides)
    for run in (harness.run_oversampling_sweep, harness.run_noise_sweep):
        with pytest.raises(ValueError, match=message):
            run(harness.ExperimentConfig(**kwargs))
    assert not out.exists()


def test_rate_sweep_rejects_m_below_encoder_dim(tmp_path):
    # m = 0.5 * 16 = 8 < 16 rows: draw_encoder would fail every trial at that point
    cfg = tiny_config(tmp_path, oversampling_grid=(0.5, 2.0), encoder_dim=16)
    with pytest.raises(ValueError, match=r"oversampling_grid entry 0.5 gives m = 0.5 \* 16"):
        harness.run_rate_distortion(cfg)
    assert not os.path.exists(cfg.output_path)


def test_rate_sweep_reads_the_grid_against_encoder_dim(tmp_path):
    # m = 2 * 40 = 80 here, where the encoded oversampling sweep's m = 2 * 16 is too few
    cfg = tiny_config(tmp_path, oversampling_grid=(2.0,), encoder_dim=40,
                      constraint_form="encoded")
    with pytest.raises(ValueError, match="below encoder_dim 40"):
        harness.run_oversampling_sweep(cfg)
    res = harness.run_rate_distortion(cfg)
    assert [rec.m for rec in res.records] == [80, 80]


def test_rate_sweep_runs_a_grid_integral_only_against_encoder_dim(tmp_path):
    # m = 2.5 * 3 is not integral, but the rate sweep runs m = 2.5 * 40 and 5 * 40
    cfg = harness.ExperimentConfig(n1=4, n2=4, rank=1, ell=3, encoder_dim=40,
                                   oversampling_grid=(2.5, 5.0), orders=(1,), trials=1,
                                   output_path=str(tmp_path / "out"))
    res = harness.run_rate_distortion(cfg)
    assert [rec.m for rec in res.records] == [100, 200]


def test_rate_sweep_rejects_non_integral_m(tmp_path):
    # 2.5 * 7 = 17.5 would run at m = 18 and be recorded at lambda = 2.5
    cfg = tiny_config(tmp_path, oversampling_grid=(2.5,), encoder_dim=7)
    with pytest.raises(ValueError, match=r"m = 2.5 \* 7 is not integral"):
        harness.run_rate_distortion(cfg)


# -- building blocks --------------------------------------------------------

def test_make_low_rank_rank_and_energy():
    X = harness.make_low_rank(6, 4, 1, 0)
    s = np.linalg.svd(X, compute_uv=False)
    assert s[1] <= 1e-10 * s[0]
    # E ||X||_F^2 = k n1 n2; at 200 seeds the sample mean measured 4.5% off
    vals = [np.sum(harness.make_low_rank(20, 20, 5, seed) ** 2) for seed in range(200)]
    assert abs(np.mean(vals) - 2000.0) <= 0.15 * 2000.0


def test_make_low_rank_rejects_bad_rank():
    with pytest.raises(ValueError):
        harness.make_low_rank(4, 4, 0, 0)
    with pytest.raises(ValueError):
        harness.make_low_rank(4, 4, 5, 0)


def test_measurement_scaling_hits_target():
    rng = np.random.default_rng(2)
    op = sensing.draw_operator(24, 4, 4, seed=13)
    X = rng.standard_normal((4, 4))
    ymax = float(np.max(np.abs(sensing.apply(op, X))))
    # rescale the operator so the raw measurement peak is exactly 2
    op2 = dataclasses.replace(op, data=op.data * (2.0 / ymax))
    Xs, scale = harness.measurement_scaling(X, op2, mu=0.9)
    assert scale == pytest.approx(0.45, rel=1e-12)
    assert np.max(np.abs(sensing.apply(op2, Xs))) <= 0.9 * (1 + 1e-9)


def test_measurement_scaling_zero_input():
    op = sensing.draw_operator(8, 3, 3, seed=1)
    Xs, scale = harness.measurement_scaling(np.zeros((3, 3)), op)
    assert scale == 1.0
    assert np.array_equal(Xs, np.zeros((3, 3)))


def test_measurement_scaling_bounds_many_cases():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        op = sensing.draw_operator(16, 3, 3, seed=seed)
        X = rng.standard_normal((3, 3))
        Xs, _ = harness.measurement_scaling(X, op, mu=0.9)
        assert np.max(np.abs(sensing.apply(op, Xs))) <= 0.9 * (1 + 1e-9)


@settings(PROPERTY, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), eps=st.sampled_from([0.0, 0.25, 2.0]),
       mu=st.sampled_from([0.0, 0.9]))
def test_trial_instance_carries_its_true_noise(seed, eps, mu):
    # the instance's noise is its measurements less M(truth), bit for bit,
    # as the truth check reads it, and exactly zero without noise
    config = harness.ExperimentConfig(n1=4, n2=4, rank=1, ell=8, master_seed=seed, mu=mu)
    task = dataclasses.replace(harness.first_trial(config), eps=eps,
                               noise_seed=seed if eps > 0 else None)
    op = harness.trial_operator(task)
    X, _, y, noise = harness.trial_instance(task, op)
    assert np.array_equal(noise, y - sensing.apply(op, X))
    assert noise.any() == (eps > 0)


def test_fit_slope_examples():
    slope, intercept, r2 = harness.fit_slope([(1, 1), (10, 0.1)], "loglog")
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert r2 == 1.0
    slope, _, _ = harness.fit_slope([(0, 1), (10, np.exp(-10))], "semilog")
    assert slope == pytest.approx(-1.0, abs=1e-12)
    # constant data: zero slope by convention, r2 pinned to 1
    slope, intercept, r2 = harness.fit_slope([(1, 2), (2, 2), (3, 2)], "semilog")
    assert abs(slope) < 1e-12 and r2 == 1.0
    assert intercept == pytest.approx(np.log(2))


def test_fit_slope_rejects_degenerate_input():
    with pytest.raises(ValueError):
        harness.fit_slope([(1, 1), (1, 2)], "loglog")  # one abscissa
    with pytest.raises(ValueError):
        harness.fit_slope([(1, 1), (2, -1)], "loglog")  # nonpositive y
    with pytest.raises(ValueError):
        harness.fit_slope([(0, 1), (2, 1)], "loglog")  # x = 0 in loglog
    with pytest.raises(ValueError):
        harness.fit_slope([(1, 1), (2, 2)], "bogus")


def test_derived_seeds_stable_and_distinct():
    a = harness._derive_seed(1, 2, 3)
    assert a == harness._derive_seed(1, 2, 3)
    assert a != harness._derive_seed(1, 2, 4)
    assert a != harness._derive_seed(3, 2, 1)


# -- CSV round trip ---------------------------------------------------------

def test_records_csv_round_trip(tmp_path):
    records = [
        harness.TrialRecord(
            r=2, m=32, ell=16, lam=2.0, trial_index=0, seed=123,
            err_frobenius=0.5, err_relative=0.1, objective=4.25,
            sigma_k_tail=0.0, eps=0.25, rate_bits=90, rate_bits_fig=45,
            overflow=True, iterations=17, converged=True, scale=0.45,
            encoder_dim=16, encoder_seed=99,
        ),
        harness.TrialRecord(
            r=1, m=32, ell=16, lam=2.0, trial_index=1, seed=124,
            err_frobenius=1e-12, err_relative=2e-13, objective=0.0,
            sigma_k_tail=0.0, eps=0.0,
        ),
    ]
    path = tmp_path / "r.csv"
    harness.write_records_csv(records, path)
    text = path.read_text()
    assert text.startswith(harness.CSV_FORMAT_LINE + "\n")
    assert "lambda" in text.splitlines()[1]
    back = harness.read_records_csv(path)
    # writer sorts by (r, m, eps, trial_index)
    assert back == sorted(records, key=lambda t: (t.r, t.m, t.eps, t.trial_index))


def test_records_csv_none_fields_round_trip(tmp_path):
    rec = harness.TrialRecord(
        r=1, m=16, ell=16, lam=1.0, trial_index=0, seed=1,
        err_frobenius=0.1, err_relative=0.2, objective=0.3, sigma_k_tail=0.4,
        eps=0.0,
    )
    harness.write_records_csv([rec], tmp_path / "n.csv")
    back = harness.read_records_csv(tmp_path / "n.csv")[0]
    assert back.rate_bits is None and back.encoder_seed is None
    assert back == rec


def test_records_csv_float_precision(tmp_path):
    val = 0.1 + 0.2  # repr survives the trip bit for bit
    rec = harness.TrialRecord(
        r=1, m=16, ell=16, lam=1.0, trial_index=0, seed=1,
        err_frobenius=val, err_relative=val, objective=val, sigma_k_tail=val,
        eps=0.0,
    )
    harness.write_records_csv([rec], tmp_path / "p.csv")
    assert harness.read_records_csv(tmp_path / "p.csv")[0].err_frobenius == val


def test_read_records_rejects_wrong_format(tmp_path):
    (tmp_path / "bad.csv").write_text("r,m\n1,2\n")
    with pytest.raises(ValueError):
        harness.read_records_csv(tmp_path / "bad.csv")


def _drop_cells(row, n):
    return ",".join(row.split(",")[:-n])


def _set_cell(row, index, text):
    cells = row.split(",")
    cells[index] = text
    return ",".join(cells)


@pytest.mark.parametrize("mutate, lineno", [
    (lambda lines: lines[:1], 2),
    (lambda lines: lines[:2] + [_drop_cells(lines[2], 14)], 3),
    (lambda lines: [lines[0], lines[1] + ",turbo", lines[2] + ",1"], 2),
    (lambda lines: lines[:2] + [lines[2] + ",7"], 3),
    (lambda lines: lines[:2] + [_drop_cells(lines[2], 1)], 3),
    (lambda lines: lines[:2] + [_set_cell(lines[2], 6, "")], 3),
    (lambda lines: lines[:2] + [_set_cell(lines[2], 13, "true")], 3),
], ids=["format-line-only", "short-row", "unknown-column", "extra-cell", "last-cell-missing",
        "empty-required-cell", "flag-not-0-or-1"])
def test_read_records_rejects_malformed_files(tmp_path, mutate, lineno):
    rec = harness.TrialRecord(
        r=2, m=32, ell=16, lam=2.0, trial_index=0, seed=123,
        err_frobenius=0.5, err_relative=0.1, objective=4.25, sigma_k_tail=0.0,
        eps=0.0, rate_bits=90, rate_bits_fig=45, encoder_dim=16, encoder_seed=99,
    )
    harness.write_records_csv([rec], tmp_path / "ok.csv")
    lines = mutate((tmp_path / "ok.csv").read_text().splitlines())
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"bad.csv:{lineno}: "):
        harness.read_records_csv(tmp_path / "bad.csv")


# -- sweeps at toy size -----------------------------------------------------

def test_oversampling_sweep_row_count_and_outputs(tmp_path):
    cfg = tiny_config(tmp_path)
    res = harness.run_oversampling_sweep(cfg)
    assert len(res.records) == len(cfg.orders) * len(cfg.oversampling_grid) * cfg.trials
    for path in (res.csv_path, res.summary_path):
        assert os.path.exists(path)
    assert sorted(os.listdir(cfg.output_path)) == [
        "basis_cache", "oversampling.csv", "oversampling_summary.txt"]
    assert 1 in res.slopes
    assert not res.failures
    for rec in res.records:
        assert rec.m == int(rec.lam * cfg.ell)
        assert rec.converged
        assert rec.err_relative > 0


def test_oversampling_sweep_deterministic_bytes(tmp_path):
    h = []
    for sub, workers in (("a", 1), ("b", 2), ("c", 1)):
        cfg = tiny_config(tmp_path / sub, workers=workers)
        res = harness.run_oversampling_sweep(cfg)
        h.append(hashlib.sha256(Path(res.csv_path).read_bytes()).hexdigest())
    assert h[0] == h[1] == h[2]


def test_sweep_builds_each_basis_once(tmp_path, monkeypatch):
    # the workers build the bases, so every process appends its calls to a
    # file; forked workers inherit the counting wrapper
    build = noise_shaping.compute_basis

    def counted(m, r, truncation, cache_dir=None):
        with open(tmp_path / "calls.txt", "a", encoding="utf-8") as fh:
            fh.write(f"{m} {r}\n")
        return build(m, r, truncation, cache_dir=cache_dir)

    monkeypatch.setattr(noise_shaping, "compute_basis", counted)
    digests = []
    for workers in (1, 2):
        (tmp_path / "calls.txt").write_text("")
        cfg = tiny_config(tmp_path / str(workers), orders=(1, 2), trials=3, workers=workers)
        res = harness.run_oversampling_sweep(cfg)
        calls = [tuple(map(int, line.split()))
                 for line in (tmp_path / "calls.txt").read_text().splitlines()]
        assert sorted(calls) == sorted({(rec.m, rec.r) for rec in res.records})
        digests.append(hashlib.sha256(Path(res.csv_path).read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def _count_calls(monkeypatch, module, name, calls, fail_at_m=None):
    """Wrap module.name so it appends its m to calls (and raises at fail_at_m)."""
    original = getattr(module, name)
    signature = inspect.signature(original)

    def counted(*args, **kwargs):
        m = signature.bind(*args, **kwargs).arguments["m"]
        calls.append(m)
        if m == fail_at_m:
            raise ValueError(f"no {name} at m = {m}")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_sweeps_build_each_grid_point_once(tmp_path, monkeypatch):
    # a unit is the trials that share one J, those of one (m, r) with
    # eps = 0 or with eps > 0; it draws one operator and builds one basis
    # (projected form) or draws one encoder (rate sweep), so the noise
    # sweep's eps > 0 points build theirs once for all of them; the calls
    # are counted in this process, so the units run in it
    calls = {name: [] for name in ("draw_operator", "compute_basis", "draw_encoder")}
    _count_calls(monkeypatch, sensing, "draw_operator", calls["draw_operator"])
    _count_calls(monkeypatch, noise_shaping, "compute_basis", calls["compute_basis"])
    _count_calls(monkeypatch, encoding, "draw_encoder", calls["draw_encoder"])
    cfg = tiny_config(tmp_path, orders=(1, 2), trials=3, epsilon_grid=(0.0, 0.5, 1.0),
                      encoder_dim=16, workers=1)
    for run, built in ((harness.run_oversampling_sweep, "compute_basis"),
                       (harness.run_noise_sweep, "compute_basis"),
                       (harness.run_rate_distortion, "draw_encoder")):
        for made in calls.values():
            made.clear()
        res = run(cfg)
        points = {(rec.r, rec.m, rec.eps) for rec in res.records}
        assert len(res.records) == len(points) * cfg.trials
        # two lambdas x two orders, or the noise sweep's one lambda x two
        # orders x (eps = 0, eps > 0)
        units = sorted({(m, r, eps > 0) for r, m, eps in points})
        assert len(units) == 4
        assert sorted(calls["draw_operator"]) == sorted(calls[built]) == [m for m, _, _ in units]
        unused = {"compute_basis": "draw_encoder", "draw_encoder": "compute_basis"}[built]
        assert calls[unused] == []


@pytest.mark.parametrize("form, epsilon_grid, constraints", [
    ("projected", (0.0, 0.5, 1.0), 2), ("projected", (0.5, 1.0, 2.0), 1),
    ("encoded", (0.0, 0.5, 1.0), 2), ("full_inverse_power", (0.0, 0.5, 1.0), 2),
], ids=["projected", "projected-noise", "encoded", "full"])
def test_grid_point_factors_its_constraint_once(tmp_path, monkeypatch, form, epsilon_grid,
                                                constraints):
    # a noise sweep of one order over three eps: the eps > 0 points share
    # J in every form, since they share one operator and one basis or
    # encoder; each unit's recover_batch call shapes the operator and
    # takes the SVD once for its J: one with the noise block, and one
    # without it when eps = 0 is on the grid (counted in this process)
    shaped, factored, built = [], [], []
    shape, svd, constraint = recovery._shape, np.linalg.svd, recovery._constraint_matrix

    def counted_shape(problem, M):
        if M is problem.operator.data:
            shaped.append(M)
        return shape(problem, M)

    def counted_svd(a, *args, **kwargs):
        factored.append(a)
        return svd(a, *args, **kwargs)

    def counted_constraint(problem):
        built.append(constraint(problem))
        return built[-1]

    monkeypatch.setattr(recovery, "_shape", counted_shape)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(recovery, "_constraint_matrix", counted_constraint)
    cfg = tiny_config(tmp_path, oversampling_grid=(2.0,), epsilon_grid=epsilon_grid,
                      trials=3, constraint_form=form, encoder_dim=16, workers=1)
    res = harness.run_noise_sweep(cfg)
    assert len(res.records) == 9 and not res.failures
    assert len(built) == len(shaped) == constraints
    assert all(sum(a is J for a in factored) == 1 for J in built)


_SPECS = {"oversampling": harness._oversampling_spec, "noise": harness._noise_spec,
          "rate_distortion": harness._rate_spec}


def _point_by_point_seeds(config, name):
    """Each task's (r, m, lambda, eps, trial) and seeds, derived point by point.

    Written out apart from _sweep_tasks: a sweep lists its (lambda, m, eps)
    points; the noise sweep's points share operator seed 0, a paired
    truth follows the trial alone, and every other seed follows the
    point's index.  The benchmark's reference means were recorded at
    these seeds.
    """
    experiment = {"oversampling": 1, "noise": 2, "rate_distortion": 3}[name]
    base = config.encoder_dim if name == "rate_distortion" else config.ell
    lambdas = config.oversampling_grid[:1] if name == "noise" else config.oversampling_grid
    epsilons = config.epsilon_grid if name == "noise" else (0.0,)
    points = [(lam, int(lam * base), eps) for lam in lambdas for eps in epsilons]
    encoded = name == "rate_distortion" or config.constraint_form == "encoded"

    def seed(*key):
        return harness._derive_seed(config.master_seed, experiment, *key)

    return [(r, m, lam, eps, trial,
             seed(101, 0 if name == "noise" else i),
             seed(102, i, trial) if name == "rate_distortion" else seed(102, trial),
             seed(103, i, trial) if eps > 0 else None,
             seed(104, i) if encoded else None)
            for r in config.orders for i, (lam, m, eps) in enumerate(points)
            for trial in range(config.trials)]


@pytest.mark.parametrize("form", harness.CONSTRAINT_FORMS)
def test_sweep_seeds_follow_lambda_and_eps(tmp_path, form):
    # every task of an m shares one operator seed and one encoder seed;
    # each task's seeds are the point-by-point derivation's, but for the
    # encoded noise sweep's encoder, now the one of its lambda at every eps
    cfg = tiny_config(tmp_path, orders=(1, 2), epsilon_grid=(0.0, 0.5, 1.0),
                      encoder_dim=16, constraint_form=form)
    for name, make_spec in _SPECS.items():
        config = (dataclasses.replace(cfg, constraint_form="encoded")
                  if name == "rate_distortion" else cfg)
        tasks = list(harness._sweep_tasks(config, make_spec(config)))
        shared = {}
        for task in tasks:
            shared.setdefault(task.m, set()).add((task.operator_seed, task.encoder_seed))
        assert [len(seeds) for seeds in shared.values()] == [1] * len(shared)
        expected = _point_by_point_seeds(config, name)
        if name == "noise" and form == "encoded":
            expected = [row[:-1] + (expected[0][-1],) for row in expected]
        assert [(t.r, t.m, t.lam, t.eps, t.trial_index, t.operator_seed, t.matrix_seed,
                 t.noise_seed, t.encoder_seed) for t in tasks] == expected


def test_encoded_noise_sweep_draws_one_encoder_per_lambda(tmp_path, monkeypatch):
    # the eps points share the lambda's encoder as they share its
    # operator: each of the sweep's four units, one order with eps = 0 or
    # with eps > 0, draws it from the lambda's one seed (counted in this
    # process)
    seeds = []
    draw = encoding.draw_encoder

    def counted(L_enc, m, seed=0):
        seeds.append(seed)
        return draw(L_enc, m, seed)

    monkeypatch.setattr(encoding, "draw_encoder", counted)
    cfg = tiny_config(tmp_path, orders=(1, 2), epsilon_grid=(0.0, 0.5, 1.0),
                      constraint_form="encoded", encoder_dim=16, workers=1)
    res = harness.run_noise_sweep(cfg)
    assert len(res.records) == 2 * 3 * cfg.trials and not res.failures
    assert len(seeds) == 4
    assert len(set(seeds)) == 1
    assert set(seeds) == {rec.encoder_seed for rec in res.records}


def test_trials_run_in_csv_row_order_for_an_unsorted_grid(tmp_path, monkeypatch):
    # the benchmark's trace joins one _run_trial call per CSV row, in row
    # order, although the grid is listed out of order; a unit is one
    # order at one m with eps = 0 or with eps > 0, and in this process
    # the units run in CSV row order
    keys, groups = [], []
    run_trial, run_group = harness._run_trial, harness._run_group

    def recorded_trial(task, row):
        keys.append(harness._trial_key(task))
        return run_trial(task, row)

    def recorded_group(group):
        groups.append(tuple(sorted({getattr(task, name) for task in group})
                            for name in ("m", "eps", "r")))
        return run_group(group)

    monkeypatch.setattr(harness, "_run_trial", recorded_trial)
    monkeypatch.setattr(harness, "_run_group", recorded_group)
    cfg = tiny_config(tmp_path, orders=(2, 1), oversampling_grid=(4.0, 2.0),
                      epsilon_grid=(1.0, 0.0, 0.5), workers=1)
    for run, units in ((harness.run_noise_sweep,
                        [([64], [0.0], [1]), ([64], [0.5, 1.0], [1]),
                         ([64], [0.0], [2]), ([64], [0.5, 1.0], [2])]),
                       (harness.run_oversampling_sweep,
                        [([32], [0.0], [1]), ([64], [0.0], [1]),
                         ([32], [0.0], [2]), ([64], [0.0], [2])])):
        keys.clear()
        groups.clear()
        res = run(cfg)
        assert keys == [harness._trial_key(rec) for rec in res.records] == sorted(keys)
        assert groups == units


class ArrayFinder(pickle.Pickler):
    """Counts the arrays a pickle of an object would hold."""

    def __init__(self):
        super().__init__(io.BytesIO())
        self.arrays = 0

    def persistent_id(self, obj):
        self.arrays += isinstance(obj, np.ndarray)
        return None


def _in_row_order(outcomes):
    return sorted(outcomes, key=lambda outcome: harness._trial_key(outcome[0]))


class RecordingPipe:
    """This process's end of a worker's pipe, keeping what crosses it."""

    def __init__(self, conn, sent, returned):
        self.conn, self.sent, self.returned = conn, sent, returned

    def send(self, obj):
        self.sent.append(obj)
        self.conn.send(obj)

    def recv(self):
        self.returned.append(self.conn.recv())
        return self.returned[-1]

    def fileno(self):
        return self.conn.fileno()

    def close(self):
        self.conn.close()


def test_worker_pool_gets_whole_grid_points(tmp_path, monkeypatch):
    # only task lists go to a worker, one unit (one J) each and the
    # largest first, and only each row's numbers or failure message come
    # back: the operator and the basis are built in the worker, never
    # pickled
    sent, returned, start = [], [], harness._start_worker

    def recording_start():
        conn, process = start()
        return RecordingPipe(conn, sent, returned), process

    monkeypatch.setattr(harness, "_start_worker", recording_start)
    cfg = tiny_config(tmp_path, orders=(1, 2), trials=3, workers=2)
    res = harness.run_oversampling_sweep(cfg)
    assert len(res.records) == 12 and not res.failures
    groups = [obj for obj in sent if obj is not None]
    assert len(sent) == len(groups) + 2  # and a stop to each worker
    assert [{(task.m, task.r) for task in group} for group in groups] == [
        {(64, 1)}, {(64, 2)}, {(32, 1)}, {(32, 2)}]
    assert [len(group) for group in groups] == [cfg.trials] * 4
    assert all(isinstance(task, harness._TrialTask) for group in groups for task in group)
    rows = _in_row_order(outcome for outcomes in returned for outcome in outcomes)
    with _blas._blas_pinned():
        assert rows == _in_row_order(
            outcome for group in groups for outcome in harness._run_group(group))
    assert [harness._run_trial(task, row) for task, row in rows] == res.records
    finder = ArrayFinder()
    finder.dump((groups, returned))
    assert finder.arrays == 0


def _four_units(tmp_path):
    """The four units of a tiny oversampling sweep, with 3 trials each."""
    cfg = tiny_config(tmp_path, orders=(1, 2), trials=3)
    return harness._sweep_units(cfg, harness._oversampling_spec(cfg))


def test_a_worker_that_dies_fails_only_the_unit_it_held(tmp_path, monkeypatch):
    # the unit (m = 64, r = 2), one of six, kills the worker that runs it;
    # forked workers inherit the patched _run_group.  Its trials fail with
    # how the worker died, and every other row is the in-process sweep's
    cfg = tiny_config(tmp_path, orders=(1, 2, 3), trials=3, workers=1)
    serial = harness.run_oversampling_sweep(cfg)
    run_group, parent = harness._run_group, os.getpid()

    def fatal(unit):
        if os.getpid() != parent and (unit[0].m, unit[0].r) == (64, 2):
            os.kill(os.getpid(), signal.SIGKILL)
        return run_group(unit)

    monkeypatch.setattr(harness, "_run_group", fatal)
    pooled = harness.run_oversampling_sweep(dataclasses.replace(
        cfg, workers=2, output_path=str(tmp_path / "pooled")))
    assert [(t.m, t.r, t.trial_index, msg) for t, msg in pooled.failures] == [
        (64, 2, i, "ChildProcessError: worker exited with signal 9") for i in range(3)]
    kept = [line for line in Path(serial.csv_path).read_text().splitlines()
            if not line.startswith("2,64,")]
    assert Path(pooled.csv_path).read_text().splitlines() == kept
    assert len(kept) == len(pooled.records) + 2  # the format line and the header
    assert not multiprocessing.active_children()


def test_a_worker_that_dies_idle_costs_no_trial(tmp_path, monkeypatch):
    # the first worker to return a unit is killed once its outcomes are
    # sent and before it is sent another; the unit it would have run goes
    # to a fresh worker, and nothing fails
    units = _four_units(tmp_path)
    started, start, wait = {}, harness._start_worker, multiprocessing.connection.wait

    def recording_start():
        conn, process = start()
        started[conn] = process
        return conn, process

    def wait_then_kill(conns, timeout=None):
        ready = wait(conns, timeout)
        if len(started) == 2:
            # joined, so its end of the pipe is closed before the next
            # send (a join with a timeout would call this wait again)
            victim = started[ready[0]]
            victim.kill()
            victim.join()
        return ready

    monkeypatch.setattr(harness, "_start_worker", recording_start)
    monkeypatch.setattr(multiprocessing.connection, "wait", wait_then_kill)
    with _blas._blas_pinned():
        outcomes = harness._run_pooled(units, 2)
        assert _in_row_order(outcomes) == _in_row_order(
            outcome for unit in units for outcome in harness._run_group(unit))
    assert len(started) == 3
    assert [process.exitcode for process in started.values()].count(-signal.SIGKILL) == 1
    assert not multiprocessing.active_children()


def test_no_worker_outlives_a_raising_pool(tmp_path, monkeypatch):
    # waiting fails once both workers hold a unit: both are stopped and
    # joined before the error leaves _run_pooled
    started, start = [], harness._start_worker

    def recording_start():
        conn, process = start()
        started.append(process)
        return conn, process

    def broken_wait(conns, timeout=None):
        raise RuntimeError("wait failed")

    monkeypatch.setattr(harness, "_start_worker", recording_start)
    monkeypatch.setattr(multiprocessing.connection, "wait", broken_wait)
    with pytest.raises(RuntimeError, match="wait failed"):
        harness._run_pooled(_four_units(tmp_path), 2)
    assert len(started) == 2
    assert all(process.exitcode is not None for process in started)
    assert not multiprocessing.active_children()


def test_each_instance_is_built_once_for_every_order(tmp_path, monkeypatch):
    # a unit is one order, so each order's unit builds its trials'
    # truth, scale and noisy measurements itself: once per (order, trial,
    # eps), counted in this process
    built = []
    instance = harness.trial_instance

    def counted(task, op):
        built.append((task.r, task.trial_index, task.eps))
        return instance(task, op)

    monkeypatch.setattr(harness, "trial_instance", counted)
    cfg = tiny_config(tmp_path, orders=(1, 2, 3), trials=3, epsilon_grid=(0.0, 0.5, 1.0),
                      workers=1)
    res = harness.run_noise_sweep(cfg)
    assert len(res.records) == 3 * 3 * cfg.trials and not res.failures
    assert sorted(built) == sorted((rec.r, rec.trial_index, rec.eps) for rec in res.records)


@pytest.mark.parametrize("form", ["projected", "encoded"])
def test_nothing_outlives_its_unit(tmp_path, monkeypatch, form):
    # a unit's outcomes hold no array and keep none of its operator,
    # encoder or basis alive, so units that run one after another never
    # hold two operators at once
    alive = []
    for module, name in ((sensing, "draw_operator"), (encoding, "draw_encoder"),
                         (noise_shaping, "compute_basis")):
        def tracked(*args, _original=getattr(module, name), **kwargs):
            built = _original(*args, **kwargs)
            alive.append(weakref.ref(built.data if hasattr(built, "data")
                                     else built.right_vectors))
            return built

        monkeypatch.setattr(module, name, tracked)
    cfg = tiny_config(tmp_path, orders=(1, 2), trials=3, constraint_form=form,
                      encoder_dim=16)
    units = harness._sweep_units(cfg, harness._oversampling_spec(cfg))
    assert [(unit[0].m, unit[0].r, len(unit)) for unit in units] == [
        (32, 1, 3), (64, 1, 3), (32, 2, 3), (64, 2, 3)]
    outcomes = harness._run_group(units[0])
    assert len(outcomes) == 3 and not any(isinstance(row, str) for _, row in outcomes)
    # one operator, and one basis or one encoder, for all its trials
    assert len(alive) == 2
    assert all(ref() is None for ref in alive)
    finder = ArrayFinder()
    finder.dump(outcomes)
    assert finder.arrays == 0


@pytest.mark.parametrize("module, name, form", [
    (sensing, "draw_operator", "projected"),
    (noise_shaping, "compute_basis", "projected"),
    (encoding, "draw_encoder", "encoded"),
], ids=["operator", "basis", "encoder"])
def test_failed_grid_point_fails_all_its_trials(tmp_path, monkeypatch, module, name, form):
    # one of five points cannot be built: its two trials are failures with
    # the build's message, the build is not retried per trial, and the
    # other points still run (2 of 10 failures stays under the abort line)
    calls = []
    _count_calls(monkeypatch, module, name, calls, fail_at_m=64)
    cfg = tiny_config(tmp_path, oversampling_grid=(2.0, 3.0, 4.0, 5.0, 6.0),
                      constraint_form=form, encoder_dim=16, workers=1)
    res = harness.run_oversampling_sweep(cfg)
    assert calls.count(64) == 1
    assert [(t.m, t.trial_index, msg) for t, msg in res.failures] == [
        (64, 0, f"ValueError: no {name} at m = 64"),
        (64, 1, f"ValueError: no {name} at m = 64")]
    assert sorted({rec.m for rec in res.records}) == [32, 48, 80, 96]
    assert len(res.records) == 8


def test_a_failed_constraint_fails_its_units_trials(tmp_path, monkeypatch):
    # a unit's J is built once, for all its trials; an SVD that refuses it
    # fails each of them with its message, and J is not built again
    built, constraint, svd = [], recovery._constraint_matrix, np.linalg.svd

    def counted_constraint(problem):
        built.append(constraint(problem))
        return built[-1]

    def failing_svd(a, *args, **kwargs):
        if any(a is J for J in built):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(recovery, "_constraint_matrix", counted_constraint)
    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    cfg = tiny_config(tmp_path, oversampling_grid=(2.0,), epsilon_grid=(0.5,), trials=3)
    [unit] = harness._sweep_units(cfg, harness._noise_spec(cfg))
    outcomes = harness._run_group(unit)
    assert len(built) == 1
    assert [msg for _, msg in outcomes] == ["LinAlgError: SVD did not converge"] * 3


def test_a_trial_whose_solve_fails_fails_alone(tmp_path, monkeypatch):
    # trial 1's instance scaled by 1e6 (the same program, 1e6 times as
    # large) meets an SVD that refuses matrices that large: it fails with
    # the solver's message, and its four neighbours, solved in the same
    # batch, write the rows they write without it (1 of 5 failures stays
    # under the abort line)
    cfg = tiny_config(tmp_path, oversampling_grid=(2.0,), trials=5)
    clean = harness.run_oversampling_sweep(cfg).records
    instance, svd = harness.trial_instance, np.linalg.svd

    def scaled_instance(task, op):
        X, scale, y, noise = instance(task, op)
        if task.trial_index == 1:
            return 1e6 * X, scale, 1e6 * y, 1e6 * noise
        return X, scale, y, noise

    def failing_svd(a, *args, **kwargs):
        if np.abs(a).max() > 1e4:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(harness, "trial_instance", scaled_instance)
    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    res = harness.run_oversampling_sweep(cfg)
    assert [(t.trial_index, msg) for t, msg in res.failures] == [
        (1, "LinAlgError: SVD did not converge")]
    assert res.records == [rec for rec in clean if rec.trial_index != 1]


def test_cholesky_breakdown_fails_its_grid_points_trials(tmp_path, monkeypatch):
    # r = 1 and the r = 2 points with m <= 2 ell need no Cholesky factor;
    # at m = 64 > 2 ell the structured route's first factor breaks down,
    # and both of its trials carry the typed message (2 of 12 failures
    # stays under the abort line)
    def breakdown(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(noise_shaping.np.linalg, "cholesky", breakdown)
    cfg = tiny_config(tmp_path, orders=(1, 2), oversampling_grid=(1.0, 2.0, 4.0))
    res = harness.run_oversampling_sweep(cfg)
    message = ("BasisNotCertified: m=64 r=2 ell=16: step 0: "
               "Matrix is not positive definite")
    assert [(t.r, t.m, t.trial_index, msg) for t, msg in res.failures] == [
        (2, 64, 0, message), (2, 64, 1, message)]
    assert [(rec.r, rec.m) for rec in res.records] == [
        (1, 16), (1, 16), (1, 32), (1, 32), (1, 64), (1, 64), (2, 16), (2, 16), (2, 32), (2, 32)]


@pytest.mark.skipif(_blas._openblas() is None, reason="numpy carries no OpenBLAS")
def test_rows_are_computed_on_one_blas_thread_and_the_count_restored(tmp_path, monkeypatch):
    # a serial sweep and a single-instance solve pin OpenBLAS to one
    # thread while they build their bases and solve, and give back the
    # count they found; the summary records the pinned count
    threads = _blas._openblas().scipy_openblas_get_num_threads64_
    seen = {}

    def counted(original, calls):
        def call(*args, **kwargs):
            calls.append(threads())
            return original(*args, **kwargs)
        return call

    for module, name in ((noise_shaping, "compute_basis"), (recovery, "recover_batch")):
        seen[name] = []
        monkeypatch.setattr(module, name, counted(getattr(module, name), seen[name]))
    cfg = tiny_config(tmp_path, workers=1)
    previous = _blas._set_blas_threads(2)
    try:
        res = harness.run_oversampling_sweep(cfg)
        assert threads() == 2
        task = harness.first_trial(cfg)
        harness.trial_solve(task)
        assert threads() == 2
    finally:
        _blas._set_blas_threads(previous)
    calls = [1] * (len(cfg.oversampling_grid) + 1)
    assert seen == {"compute_basis": calls, "recover_batch": calls}
    assert Path(res.summary_path).read_text().splitlines()[0].endswith(
        f"trials={cfg.trials} blas_threads=1")


def test_noise_sweep_rows_and_monotone_grid(tmp_path):
    cfg = tiny_config(tmp_path, epsilon_grid=(0.0, 0.5, 1.0))
    res = harness.run_noise_sweep(cfg)
    assert len(res.records) == 3 * cfg.trials
    # all rows share the smallest-oversampling m
    assert {rec.m for rec in res.records} == {int(cfg.oversampling_grid[0] * cfg.ell)}
    assert 1 in res.slopes
    # matrices are paired across the eps grid within a trial
    by_trial = {}
    for rec in res.records:
        by_trial.setdefault(rec.trial_index, set()).add(rec.seed)
    for seeds in by_trial.values():
        assert len(seeds) == 1


def test_rate_sweep_rows_and_rate_fields(tmp_path):
    cfg = tiny_config(tmp_path, orders=(2,), encoder_dim=16)
    res = harness.run_rate_distortion(cfg)
    assert len(res.records) == len(cfg.oversampling_grid) * cfg.trials
    for rec in res.records:
        assert rec.m == int(rec.lam * cfg.encoder_dim)
        assert rec.rate_bits >= 1
        assert rec.rate_bits_fig == math.ceil(cfg.encoder_dim * rec.r * math.log(rec.m))
        assert rec.encoder_dim == cfg.encoder_dim
        assert rec.encoder_seed is not None
    assert 2 in res.slopes


def test_rate_summary_groups_by_grid_point(tmp_path):
    # one mean per (r, m): the plotted rate, not the alphabet-dependent one
    cfg = tiny_config(tmp_path, orders=(1, 2), trials=3, encoder_dim=16)
    res = harness.run_rate_distortion(cfg)
    text = Path(res.summary_path).read_text()
    groups = [line for line in text.splitlines() if "mean relative error" in line]
    assert len(groups) == len(cfg.orders) * len(cfg.oversampling_grid)
    assert all(line.startswith("  rate_bits_fig=") for line in groups)
    assert text.count("over 2 points") == len(cfg.orders)


def test_sweep_summary_mentions_slopes(tmp_path):
    cfg = tiny_config(tmp_path)
    res = harness.run_oversampling_sweep(cfg)
    text = Path(res.summary_path).read_text()
    assert "slope" in text.lower()
    assert f"master_seed={cfg.master_seed}" in text
    assert "0 failures, 0 not converged, 0 overflowed" in text
    assert "not converged)" not in text


def test_summary_counts_nonconverged_and_overflowed_trials(tmp_path):
    # three iterations stop every solve short; two levels a side are far
    # too few for these measurements, so every state leaves beta / 2
    cfg = tiny_config(tmp_path, solver_max_iterations=3, levels=2)
    res = harness.run_oversampling_sweep(cfg)

    def counts(records):
        return sum(not t.converged for t in records), sum(t.overflow for t in records)

    not_converged, overflowed = counts(res.records)
    assert not_converged == overflowed == len(res.records) == 4
    lines = Path(res.summary_path).read_text().splitlines()
    assert lines[1] == (f"oversampling sweep: {len(res.records)} trials, 0 failures, "
                        f"{not_converged} not converged, {overflowed} overflowed")
    for lam in cfg.oversampling_grid:
        group = counts([t for t in res.records if t.lam == lam])
        [line] = [ln for ln in lines if ln.startswith(f"  lambda={lam:g}: ")]
        if any(group):
            assert line.endswith(" (%d not converged, %d overflowed)" % group)
        else:
            assert "not converged" not in line


@pytest.mark.parametrize("form", harness.CONSTRAINT_FORMS)
def test_truth_check_fires_for_every_form(tmp_path, monkeypatch, form):
    # a tenth of the radius puts the true pair outside the ball (it sits
    # at 0.13-0.65 of it here), so every trial fails before it is solved
    radius = recovery.RecoveryProblem.radius
    monkeypatch.setattr(recovery.RecoveryProblem, "radius",
                        property(lambda problem: radius.fget(problem) / 10))
    cfg = tiny_config(tmp_path, constraint_form=form, encoder_dim=32)
    with pytest.raises(RuntimeError, match="4 of 4 trials failed") as exc:
        harness.run_oversampling_sweep(cfg)
    assert str(exc.value).count("RuntimeError: truth is infeasible: shaped residual") == 4


def test_failures_come_back_in_csv_order(tmp_path):
    cfg = tiny_config(tmp_path, trials=10)
    first = harness.first_trial(cfg)
    # two grid points, each listed in descending trial order; m = 0 makes
    # the second point's operator draw raise
    broken = [dataclasses.replace(first, trial_index=i, m=0) for i in (7, 2)]
    working = [dataclasses.replace(first, trial_index=i)
               for i in reversed(range(10)) if i not in (2, 7)]
    for workers in (1, 2):
        results, failures = harness._execute([working, broken], workers)
        assert [t.trial_index for t, _ in failures] == [2, 7]
        assert all(msg.startswith("ValueError: ") for _, msg in failures)
        assert [rec.trial_index for rec in results] == [0, 1, 3, 4, 5, 6, 8, 9]
