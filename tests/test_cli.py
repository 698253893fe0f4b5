"""Command-line entry points, exercised through main() with tiny configs."""

import os

import numpy as np
import pytest

from sdlowrank import cli
from sdlowrank import harness

from oracles import save_config


def write_tiny_cfg(tmp_path, **overrides):
    base = dict(
        n1=5, n2=5, rank=1, ell=16, oversampling_grid=(2.0, 4.0),
        orders=(1,), trials=2, master_seed=77,
        output_path=str(tmp_path / "out"),
    )
    base.update(overrides)
    path = tmp_path / "tiny.cfg"
    save_config(harness.ExperimentConfig(**base), path)
    return str(path)


@pytest.fixture
def tiny_cfg_file(tmp_path):
    return write_tiny_cfg(tmp_path)


def test_quantize_prints_and_saves(tiny_cfg_file, tmp_path, capsys):
    out_dir = str(tmp_path / "inst")
    code = cli.main(["quantize", "--config", tiny_cfg_file, "--out", out_dir])
    assert code == 0
    out = capsys.readouterr().out
    assert "overflow: False" in out
    assert "alphabet" in out
    saved = np.load(os.path.join(out_dir, "quantize_instance.npz"))
    assert set(saved.files) == {"y", "q", "u", "X"}
    assert saved["y"].shape == saved["q"].shape == saved["u"].shape


def test_quantize_reports_the_sweeps_overflow(tmp_path, capsys):
    # two levels a side cannot hold the state within the scheme's beta / 2,
    # so this instance overflows, as it does in the sweep's trial
    path = write_tiny_cfg(tmp_path, levels=2)
    assert cli.main(["quantize", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "(certified bound 0.25)" in out
    assert "overflow: True" in out
    task = harness.first_trial(harness.load_config(path))
    assert harness._run_trial(task, harness.grid_point(task)).overflow


def test_recover_reports_converged_instance(tiny_cfg_file, capsys):
    assert cli.main(["recover", "--config", tiny_cfg_file]) == 0
    out = capsys.readouterr().out
    assert "relative error" in out
    assert "converged True" in out
    assert "penalty changes" in out and "secular steps" in out


def test_recover_instance_matches_sweep_first_row(tiny_cfg_file, tmp_path):
    cfg = harness.load_config(tiny_cfg_file, output_path=str(tmp_path / "sw"))
    task = harness.first_trial(cfg)
    record = harness._run_trial(task, harness.grid_point(task))
    sweep = harness.run_oversampling_sweep(cfg)
    first = [
        t for t in sweep.records
        if t.r == cfg.orders[0]
        and t.lam == cfg.oversampling_grid[0]
        and t.trial_index == 0
    ]
    assert len(first) == 1
    assert record == first[0]


def test_sweep_oversampling_cli(tiny_cfg_file, tmp_path, capsys):
    out_dir = str(tmp_path / "sweep")
    code = cli.main(["sweep-oversampling", "--config", tiny_cfg_file, "--out", out_dir])
    assert code == 0
    out = capsys.readouterr().out
    assert "fitted slope" in out
    assert os.path.exists(os.path.join(out_dir, "oversampling.csv"))


def test_sweep_noise_cli(tiny_cfg_file, tmp_path, capsys):
    out_dir = str(tmp_path / "noise")
    code = cli.main(["sweep-noise", "--config", tiny_cfg_file, "--out", out_dir])
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "noise.csv"))


def test_rate_distortion_cli(tmp_path, capsys):
    cfg = harness.ExperimentConfig(
        n1=5, n2=5, rank=1, ell=16, oversampling_grid=(2.0, 4.0),
        orders=(2,), trials=2, master_seed=77, encoder_dim=16,
        constraint_form="encoded", output_path=str(tmp_path / "out"),
    )
    path = tmp_path / "rate.cfg"
    save_config(cfg, path)
    code = cli.main(["rate-distortion", "--config", str(path)])
    assert code == 0
    assert os.path.exists(os.path.join(cfg.output_path, "rate_distortion.csv"))


@pytest.mark.parametrize("command, csv_name", [
    ("sweep-oversampling", "oversampling.csv"),
    ("sweep-noise", "noise.csv"),
])
def test_sweeps_run_the_encoded_form(tmp_path, command, csv_name):
    path = write_tiny_cfg(tmp_path, constraint_form="encoded", encoder_dim=16,
                          epsilon_grid=(0.0, 0.5))
    out_dir = tmp_path / "enc"
    assert cli.main([command, "--config", path, "--out", str(out_dir)]) == 0
    records = harness.read_records_csv(out_dir / csv_name)
    assert records and all(rec.encoder_dim == 16 for rec in records)
    assert all(rec.rate_bits >= 1 for rec in records)


def test_recover_runs_the_encoded_form(tmp_path, capsys):
    path = write_tiny_cfg(tmp_path, constraint_form="encoded", encoder_dim=16)
    assert cli.main(["recover", "--config", path]) == 0
    assert "form=encoded" in capsys.readouterr().out


DESK_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "desk.cfg")


@pytest.mark.parametrize("command, runner", [
    ("sweep-oversampling", "run_oversampling_sweep"),
    ("sweep-noise", "run_noise_sweep"),
    ("rate-distortion", "run_rate_distortion"),
])
def test_no_config_is_the_desk_config(monkeypatch, command, runner):
    seen = []

    def capture(config):
        seen.append(config)
        return harness.SweepResult([], "x.csv", "x.txt", {}, [])

    monkeypatch.setattr(harness, runner, capture)
    assert cli.main([command]) == 0
    assert cli.main([command, "--config", DESK_CFG]) == 0
    assert seen[0] == seen[1] == harness.load_config(DESK_CFG) == harness.ExperimentConfig()


def test_rip_check_cli(tiny_cfg_file, capsys):
    assert cli.main(["rip-check", "--config", tiny_cfg_file, "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert "delta_hat" in out


def test_rip_check_probes_the_normalized_operator(tmp_path, capsys):
    # desk defaults; the raw operator gives a constant near m.  The first
    # grid point's basis is cached under --out
    assert cli.main(["rip-check", "--trials", "50", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert float(out.split("delta_hat = ")[1].split()[0]) < 1
    assert "(1/sqrt(m)) M" in out


def test_seed_flag_changes_the_instance(tiny_cfg_file, capsys):
    cli.main(["quantize", "--config", tiny_cfg_file, "--seed", "1"])
    first = capsys.readouterr().out
    cli.main(["quantize", "--config", tiny_cfg_file, "--seed", "2"])
    second = capsys.readouterr().out
    assert first != second


def test_missing_config_file_exits_one(capsys):
    assert cli.main(["recover", "--config", "/nonexistent/x.cfg"]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("constraint_form = banana\n")
    assert cli.main(["sweep-oversampling", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
