"""Experiment configs, seeds, slope fits, CSV round trips, tiny sweeps."""

import dataclasses
import hashlib
import math
import os
from pathlib import Path

import numpy as np
import pytest

from sdlowrank import harness
from sdlowrank import noise_shaping
from sdlowrank import sensing

REPO = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = sorted(REPO.glob("configs/*.cfg")) + sorted(REPO.glob("bench/configs/*.cfg"))


def tiny_config(tmp_path, **overrides):
    base = dict(
        n1=5, n2=5, rank=1, ell=16, oversampling_grid=(2.0, 4.0),
        orders=(1,), trials=2, master_seed=77,
        output_path=str(tmp_path / "out"),
    )
    base.update(overrides)
    return harness.desk_config(**base)


# -- config files -----------------------------------------------------------

def test_config_round_trip(tmp_path):
    cfg = harness.desk_config(
        orders=(1, 3), epsilon_grid=(0.0, 0.25), levels={1: 3, 2: 9},
        gamma=0.3, trials=7, mu=0.9, constraint_form="full_inverse_power",
    )
    path = tmp_path / "t.cfg"
    harness.save_config(cfg, path)
    back = harness.load_config(path)
    assert back == cfg


def test_config_defaults_round_trip(tmp_path):
    cfg = harness.desk_config()
    harness.save_config(cfg, tmp_path / "d.cfg")
    assert harness.load_config(tmp_path / "d.cfg") == cfg


def test_load_config_overrides_win(tmp_path):
    harness.save_config(harness.desk_config(trials=3), tmp_path / "o.cfg")
    cfg = harness.load_config(tmp_path / "o.cfg", trials=9, master_seed=5)
    assert cfg.trials == 9 and cfg.master_seed == 5


def test_unknown_config_key_rejected(tmp_path):
    (tmp_path / "bad.cfg").write_text("n1 = 10\nturbo = yes\n")
    with pytest.raises(ValueError, match="turbo"):
        harness.load_config(tmp_path / "bad.cfg")


def test_malformed_config_line_rejected(tmp_path):
    (tmp_path / "bad.cfg").write_text("just words\n")
    with pytest.raises(ValueError):
        harness.load_config(tmp_path / "bad.cfg")


def test_levels_field_parse_forms(tmp_path):
    for text, expected in (("auto", "auto"), ("9", 9), ("1:3,2:9", {1: 3, 2: 9})):
        (tmp_path / "l.cfg").write_text(f"levels = {text}\n")
        assert harness.load_config(tmp_path / "l.cfg").levels == expected


@pytest.mark.parametrize("path", SHIPPED_CONFIGS,
                         ids=[str(p.relative_to(REPO)) for p in SHIPPED_CONFIGS])
def test_shipped_configs_load(path):
    # load_config rejects unknown keys, so a dropped field must leave every file
    assert isinstance(harness.load_config(path), harness.ExperimentConfig)


def test_config_validation():
    with pytest.raises(ValueError):
        harness.desk_config(oversampling_grid=(2.3,), ell=16)  # m not integral
    with pytest.raises(ValueError):
        harness.desk_config(epsilon_grid=(-0.5,))
    with pytest.raises(ValueError):
        harness.desk_config(constraint_form="banana")


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
    Xs, note = harness.measurement_scaling(X, op2, mu=0.9)
    assert note.scale == pytest.approx(0.45, rel=1e-12)
    assert note.measured_max == pytest.approx(2.0, rel=1e-12)
    assert np.max(np.abs(sensing.apply(op2, Xs))) <= 0.9 * (1 + 1e-9)


def test_measurement_scaling_zero_input():
    op = sensing.draw_operator(8, 3, 3, seed=1)
    Xs, note = harness.measurement_scaling(np.zeros((3, 3)), op)
    assert note.scale == 1.0 and "zero" in note.message
    assert np.array_equal(Xs, np.zeros((3, 3)))


def test_measurement_scaling_bounds_many_cases():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        op = sensing.draw_operator(16, 3, 3, seed=seed)
        X = rng.standard_normal((3, 3))
        Xs, _ = harness.measurement_scaling(X, op, mu=0.9)
        assert np.max(np.abs(sensing.apply(op, Xs))) <= 0.9 * (1 + 1e-9)


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


# -- sweeps at toy size -----------------------------------------------------

def test_oversampling_sweep_row_count_and_outputs(tmp_path):
    cfg = tiny_config(tmp_path)
    res = harness.run_oversampling_sweep(cfg)
    assert len(res.records) == len(cfg.orders) * len(cfg.oversampling_grid) * cfg.trials
    for path in (res.csv_path, res.summary_path, res.plot_path):
        assert os.path.exists(path)
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
    calls = []
    build = noise_shaping.compute_basis

    def counted(m, r, truncation, cache_dir=None):
        calls.append((m, r))
        return build(m, r, truncation, cache_dir=cache_dir)

    monkeypatch.setattr(noise_shaping, "compute_basis", counted)
    digests = []
    for workers in (1, 2):
        calls.clear()
        cfg = tiny_config(tmp_path / str(workers), orders=(1, 2), trials=3, workers=workers)
        res = harness.run_oversampling_sweep(cfg)
        assert sorted(calls) == sorted({(rec.m, rec.r) for rec in res.records})
        digests.append(hashlib.sha256(Path(res.csv_path).read_bytes()).hexdigest())
    assert digests[0] == digests[1]


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


def test_failures_come_back_in_csv_order(tmp_path):
    cfg = tiny_config(tmp_path, trials=10)
    first = harness.first_trial(cfg)
    # listed in descending trial order; m = 0 makes the operator draw raise
    tasks = [dataclasses.replace(first, trial_index=i, m=0 if i in (2, 7) else first.m)
             for i in reversed(range(10))]
    for workers in (1, 2):
        results, failures = harness._execute(tasks, workers)
        assert [t.trial_index for t, _ in failures] == [2, 7]
        assert all(msg.startswith("ValueError: ") for _, msg in failures)
        assert [rec.trial_index for rec in results] == [0, 1, 3, 4, 5, 6, 8, 9]
