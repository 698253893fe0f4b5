"""Command-line entry points, exercised through main() with tiny configs."""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sdlowrank import cli
from sdlowrank import encoding
from sdlowrank import harness
from sdlowrank import noise_shaping

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
    assert harness.trial_solve(task)[0].overflow


def test_recover_reports_converged_instance(tiny_cfg_file, capsys):
    assert cli.main(["recover", "--config", tiny_cfg_file]) == 0
    out = capsys.readouterr().out
    assert "relative error" in out
    assert "converged True" in out
    # the solver counts line carries the solve's own numbers
    task = harness.first_trial(harness.load_config(tiny_cfg_file))
    _, solution = harness.trial_solve(task)
    assert (f"penalty changes {solution.penalty_changes}, "
            f"secular steps {solution.secular_steps}, "
            f"anderson rejections {solution.anderson_rejections}\n") in out


@pytest.mark.parametrize("overrides, blas_threads", [
    ({}, None),
    # a cold r = 2 basis at m = 320 has other bits on two OpenBLAS threads
    pytest.param(dict(ell=80, oversampling_grid=(4.0,), orders=(2,), trials=1), 2,
                 marks=pytest.mark.skipif(harness._openblas() is None,
                                          reason="numpy carries no OpenBLAS")),
], ids=["tiny", "projected-r2-two-threads"])
def test_recover_instance_matches_sweep_first_row(tmp_path, overrides, blas_threads):
    # the single-instance solve and the sweep each build their basis in
    # their own cold cache, the former at the caller's thread count
    cfg = harness.load_config(write_tiny_cfg(tmp_path, **overrides),
                              output_path=str(tmp_path / "single"))
    task = harness.first_trial(cfg)
    previous = harness._set_blas_threads(blas_threads) if blas_threads else None
    try:
        record, _ = harness.trial_solve(task)
    finally:
        if previous is not None:
            harness._set_blas_threads(previous)
    sweep = harness.run_oversampling_sweep(replace(cfg, output_path=str(tmp_path / "sw")))
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


def test_rip_check_probes_the_normalized_operator(capsys):
    # desk defaults; the raw operator gives a constant near m
    assert cli.main(["rip-check", "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("delta_hat = ")[1].split()[0]) < 1
    assert "(1/sqrt(m)) M" in out


@pytest.mark.parametrize("form", ["projected", "encoded"])
@pytest.mark.parametrize("command", ["quantize", "rip-check"])
def test_single_instance_commands_build_only_the_operator(tmp_path, monkeypatch, command,
                                                          form):
    # neither command reads a basis or an encoder, so neither builds one
    built = []
    for module, name in ((noise_shaping, "compute_basis"), (encoding, "draw_encoder")):
        def counted(*args, _build=getattr(module, name), **kwargs):
            built.append(args)
            return _build(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    path = write_tiny_cfg(tmp_path, constraint_form=form, encoder_dim=16)
    out_dir = tmp_path / "inst"
    # rip-check writes nothing, so it takes no --out
    out = ["--out", str(out_dir)] if command == "quantize" else []
    assert cli.main([command, "--config", path, *out]) == 0
    assert built == []
    assert not (out_dir / "basis_cache").exists()
    assert not (tmp_path / "out").exists()


def test_each_subcommand_takes_only_the_flags_it_reads():
    [subcommands] = [action.choices for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    taken = {name: sorted(flag for action in parser._actions for flag in action.option_strings
                          if flag.startswith("--") and flag != "--help")
             for name, parser in subcommands.items()}
    sweep = ["--config", "--out", "--seed", "--workers"]
    assert taken == {
        "quantize": ["--config", "--out", "--seed"],
        "recover": ["--config", "--out", "--seed"],
        "sweep-oversampling": sweep,
        "sweep-noise": sweep,
        "rate-distortion": sweep,
        "rip-check": ["--config", "--seed", "--trials"],
    }


@pytest.mark.parametrize("argv", [["quantize", "--workers", "2"],
                                  ["recover", "--workers", "2"],
                                  ["rip-check", "--out", "x"],
                                  ["rip-check", "--workers", "2"]],
                         ids=lambda argv: argv[0] + argv[1])
def test_a_flag_a_subcommand_ignores_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_seed_flag_changes_the_instance(tiny_cfg_file, capsys):
    cli.main(["quantize", "--config", tiny_cfg_file, "--seed", "1"])
    first = capsys.readouterr().out
    cli.main(["quantize", "--config", tiny_cfg_file, "--seed", "2"])
    second = capsys.readouterr().out
    assert first != second


def test_missing_config_file_exits_one(capsys):
    assert cli.main(["recover", "--config", "/nonexistent/x.cfg"]) == 1
    assert "error:" in capsys.readouterr().err


def test_directory_as_config_exits_one(tmp_path, capsys):
    assert cli.main(["quantize", "--config", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("constraint_form = banana\n")
    assert cli.main(["sweep-oversampling", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_negative_workers_exits_one(tiny_cfg_file, tmp_path, capsys):
    # 0 means one worker per usable core; below that no count is meant
    out_dir = tmp_path / "out"
    code = cli.main(["sweep-oversampling", "--config", tiny_cfg_file,
                     "--workers", "-1", "--out", str(out_dir)])
    assert code == 1
    assert "workers must be >= 0, got -1" in capsys.readouterr().err
    assert not out_dir.exists()


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _start_cli(argv, **env):
    """The command line in a fresh interpreter, with env added to this one's."""
    env = dict(os.environ, PYTHONPATH=SRC, **env)
    return subprocess.Popen([sys.executable, "-m", "sdlowrank.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _children(pid):
    """Pids whose parent is pid, read from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                parent = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if parent == pid:
            found.append(int(entry))
    return found


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="finds the workers through /proc")
def test_a_killed_worker_fails_its_units_and_the_sweep_finishes(tmp_path):
    # twelve units of three trials: SIGKILL the first worker seen.  The
    # trials of the unit it held fail with how it exited (none if it was
    # killed before it was sent one), every other unit runs on the other
    # or a fresh worker, and 3 failed trials of 36 stay under the abort line
    path = write_tiny_cfg(tmp_path, orders=(1, 2, 3), trials=3, workers=2,
                          oversampling_grid=(2.0, 3.0, 4.0, 5.0))
    out_dir = tmp_path / "out"
    proc = _start_cli(["sweep-oversampling", "--config", path])
    workers, killed = set(), None
    deadline = time.monotonic() + 120
    while proc.poll() is None and time.monotonic() < deadline:
        workers.update(_children(proc.pid))
        if killed is None and workers:
            killed = min(workers)
            os.kill(killed, signal.SIGKILL)
        elif killed is not None:
            time.sleep(0.01)
    _, stderr = proc.communicate(timeout=120)
    assert killed is not None
    assert proc.returncode == 0, stderr
    records = harness.read_records_csv(out_dir / "oversampling.csv")
    summary = (out_dir / "oversampling_summary.txt").read_text().splitlines()
    failed = [line for line in summary if line.startswith("FAILED ")]
    assert ("trial failures (see summary)" in stderr) == bool(failed)
    assert all(line.endswith(": ChildProcessError: worker exited with signal 9")
               for line in failed)
    units = {tuple(line.split()[1:3]) for line in failed}
    assert len(failed) == 3 * len(units) and len(units) <= 1
    assert len(records) + len(failed) == 36
    assert summary[1] == (f"oversampling sweep: {len(records)} trials, {len(failed)} failures,"
                          " 0 not converged, 0 overflowed")
    # no worker outlives the sweep
    deadline = time.monotonic() + 5
    while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_alive(pid) for pid in workers)


def _running(pid):
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="finds the workers through /proc")
def test_no_worker_outlives_a_killed_sweep(tmp_path):
    # a worker's pipe reads end of file once the sweep's process is gone,
    # so SIGKILL to the sweep leaves no worker waiting for a unit
    path = write_tiny_cfg(tmp_path, orders=(1, 2, 3), trials=3, workers=2,
                          oversampling_grid=(2.0, 3.0, 4.0, 5.0))
    proc = _start_cli(["sweep-oversampling", "--config", path])
    workers = []
    deadline = time.monotonic() + 120
    while not workers and proc.poll() is None and time.monotonic() < deadline:
        workers = _children(proc.pid)
    proc.kill()
    proc.communicate(timeout=120)
    assert workers
    deadline = time.monotonic() + 30
    while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_running(pid) for pid in workers)


def test_csv_bytes_follow_neither_workers_nor_blas_threads(tmp_path):
    # at m = 160 the last digits of a solve follow the OpenBLAS thread
    # count, so every row is computed with OpenBLAS pinned
    path = write_tiny_cfg(tmp_path, n1=10, n2=10, rank=2, ell=80, oversampling_grid=(2.0,),
                          orders=(1, 2), epsilon_grid=(0.0, 0.5))
    digests = set()
    for threads in ("1", "2"):
        for workers in ("1", "2"):
            out_dir = tmp_path / f"threads{threads}_workers{workers}"
            proc = _start_cli(["sweep-noise", "--config", path, "--workers", workers,
                               "--out", str(out_dir)], OPENBLAS_NUM_THREADS=threads)
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr
            digests.add(hashlib.sha256((out_dir / "noise.csv").read_bytes()).hexdigest())
    assert len(digests) == 1


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
