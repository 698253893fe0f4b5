"""The benchmark's hooks into the package, exercised on tiny sweeps.

bench/tracing.py wraps package functions by module attribute and bounds
each trial by the span of harness._run_trial; bench/checks.py requires
those trial spans to join the CSV rows 1:1 and in order.  These tests run
that tracer around cli.main, so a refactor that breaks the benchmark's
trace fails here too.  Nothing under bench/ is modified.
"""

import importlib.util
from pathlib import Path

import pytest

from sdlowrank import cli, encoding, harness, noise_shaping, recovery, sensing, sigma_delta

from oracles import save_config

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_bench_module("tracing")
checks = _load_bench_module("checks")

MODULES = {
    "cli": cli, "encoding": encoding, "harness": harness, "noise_shaping": noise_shaping,
    "recovery": recovery, "sensing": sensing, "sigma_delta": sigma_delta,
}


@pytest.mark.parametrize("command, csv_name", [
    ("sweep-oversampling", "oversampling.csv"),
    ("sweep-noise", "noise.csv"),
    ("rate-distortion", "rate_distortion.csv"),
])
def test_traced_sweep_joins_its_csv(tmp_path, command, csv_name):
    config = harness.ExperimentConfig(
        n1=5, n2=5, rank=1, ell=16, oversampling_grid=(2.0, 4.0), orders=(1, 2),
        epsilon_grid=(0.0, 0.5, 1.0), trials=2, encoder_dim=16, master_seed=5,
        output_path=str(tmp_path / "out"),
    )
    path = tmp_path / "tiny.cfg"
    save_config(config, path)
    tracer = tracing.Tracer()
    with tracer.installed(MODULES):
        with tracer.span("cli.main") as sweep:
            assert cli.main([command, "--config", str(path)]) == 0
    records = harness.read_records_csv(tmp_path / "out" / csv_name)
    checks.check_complete(command, config, records)
    trial_spans = [s for s in tracer.descendants(sweep)
                   if s["name"] == "harness." + tracing.TRIAL_FUNCTION]
    checks.check_trace_join(records, trial_spans)
    metrics, _ = tracing.layer_breakdown(tracer, sweep)
    assert metrics["harness.trials"] == len(records)
    assert metrics["harness.other_s"] >= 0
