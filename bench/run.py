"""Benchmark of the sdlowrank sweeps, run from the root of a checkout.

    python3 bench/run.py --workload desk_noise --seed 1 --seconds 20 --trace 0

Each workload is one sweep of the command-line program, run in this process
through ``sdlowrank.cli.main`` with a config from ``bench/configs`` and a
master seed.  A run

1. sets up: starts a fresh interpreter that imports the package, then builds
   the noise-shaping bases the sweep reads, cold, into the cache directory
   named in the config (SETUP_REPEATS times; the median is ``setup_s``);
2. sweeps at ``--seed`` and at SWEEP_SEEDS - 1 seeds derived from it,
   cycling through them until ``--seconds`` have passed, and gates every CSV
   it writes for correctness (see checks.py); a failed gate exits non-zero
   without a result;
3. prints a line per metric with its unit, writes the whole result with its
   environment to ``.bench_out/<workload>/BENCH_<workload>.json``, and prints
   as its last line one JSON object: correct, attempted, failed, metrics.

With ``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off.  With ``--trace 1`` untraced and traced sweeps at ``--seed`` alternate;
the metrics are the per-layer breakdown of the traced sweep of median length
(see tracing.py), the tracing overhead, and the speed-up of one sweep with
two worker processes.  The span trace goes to ``<sweep>_trace.jsonl`` beside
the traced CSV.  NOTES.md gives the reasons and the predictions.

BLAS threading is left as the user's environment has it, and recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 3
SWEEP_SEEDS = 3
PARALLEL_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    csv_name: str


WORKLOADS = {
    "desk_oversampling": Workload("sweep-oversampling", "desk_oversampling.cfg", "oversampling.csv"),
    "desk_noise": Workload("sweep-noise", "desk_noise.cfg", "noise.csv"),
    "paper_rate_large_m": Workload("rate-distortion", "paper_rate_large_m.cfg", "rate_distortion.csv"),
}


def import_package():
    """Import sdlowrank from the checkout's src/, or exit 1 if it is not there."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "sdlowrank", "__init__.py")):
        sys.exit(f"error: no sdlowrank package under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    from sdlowrank import cli, encoding, harness, noise_shaping, recovery, sensing, sigma_delta
    return {
        "cli": cli, "encoding": encoding, "harness": harness, "noise_shaping": noise_shaping,
        "recovery": recovery, "sensing": sensing, "sigma_delta": sigma_delta,
    }


# ---------------------------------------------------------------------------
# environment stamp

def _openblas_threads():
    """Thread count of the OpenBLAS numpy loaded, read through ctypes."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            fn = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn()), os.path.basename(path)
    return None, None


def _commit():
    """HEAD of the checkout, read from .git without running git, if there is one."""
    head_path = os.path.join(".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown (checkout is not a git repository)"
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(".git", *ref.split("/"))
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return f"unknown ({ref} not found)"


def environment():
    import numpy

    threads, library = _openblas_threads()
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "openblas_threads": threads,
        "openblas_library": library,
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": _commit(),
    }


# ---------------------------------------------------------------------------
# set-up and sweeps

def basis_pairs(command, config):
    """The (m, r) pairs whose noise-shaping basis the sweep reads."""
    if config.constraint_form != "projected" or command == "rate-distortion":
        return []
    if command == "sweep-noise":
        grid = config.oversampling_grid[:1]
    else:
        grid = config.oversampling_grid
    return sorted({(round(lam * config.ell), r) for r in config.orders for lam in grid})


def set_up(pkg, command, config):
    """Fresh-interpreter import plus a cold basis build; returns wall seconds."""
    if config.cache_dir is not None:
        shutil.rmtree(config.cache_dir, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sdlowrank.cli"], env=env, check=True)
    for m, r in basis_pairs(command, config):
        pkg["noise_shaping"].compute_basis(
            m, r, truncation=min(config.ell, m), cache_dir=config.cache_dir
        )
    return time.perf_counter() - t0


def run_sweep(pkg, workload, seed, out, workers=None):
    """One sweep through the CLI; returns (wall seconds, CSV path)."""
    argv = [workload.command, "--config", os.path.join(BENCH_DIR, "configs", workload.config),
            "--seed", str(seed), "--out", out]
    if workers is not None:
        argv += ["--workers", str(workers)]
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = pkg["cli"].main(argv)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise checks.GateError(
            f"sdlowrank {' '.join(argv)} exited {code}: {stderr.getvalue().strip()}"
        )
    return elapsed, os.path.join(out, workload.csv_name)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sweep_seeds(seed):
    """Master seeds of a run's sweeps: --seed, then seeds derived from it.

    One sweep holds too few distinct problems for its error and its iteration
    count to be steady across seeds, so a run averages SWEEP_SEEDS of them.
    """
    derived = [
        int.from_bytes(hashlib.sha256(f"{seed}/{i}".encode()).digest()[:8], "little") >> 1
        for i in range(1, SWEEP_SEEDS)
    ]
    return [seed] + derived


class SweepChecker:
    """Gates every CSV of a run; sweeps at the same seed must write the same bytes."""

    def __init__(self, pkg, name, workload, config):
        self.pkg, self.name, self.workload, self.config = pkg, name, workload, config
        self.first = {}  # seed -> (sha256, records) of its first sweep
        self.reference_checked = False

    def __call__(self, seed, csv_path):
        digest = sha256(csv_path)
        if seed not in self.first:
            records = self.pkg["harness"].read_records_csv(csv_path)
            checks.check_complete(self.workload.command, self.config, records)
            if checks.check_reference(self.name, seed, self.config, records):
                self.reference_checked = True
            self.first[seed] = (digest, records)
        elif digest != self.first[seed][0]:
            raise checks.GateError(f"{csv_path}: bytes differ from the first sweep at seed {seed}")
        return self.first[seed][1]

    def check_reference_seed(self):
        """Run and gate one sweep at the reference seed, unless one was gated."""
        if not self.reference_checked:
            seed = checks.reference_seed()
            _, csv_path = run_sweep(self.pkg, self.workload, seed,
                                    self.config.output_path + "_reference")
            self(seed, csv_path)

    def outcome(self, seeds):
        """(records, attempted, failed) over the first sweep at each seed.

        Failed trials raised (no row), did not converge, or overflowed.
        """
        expected = len(checks.expected_keys(self.workload.command, self.config))
        records = [rec for seed in seeds for rec in self.first[seed][1]]
        attempted = expected * len(seeds)
        failed = attempted - len(records) + sum((not r.converged) or r.overflow for r in records)
        return records, attempted, failed


# ---------------------------------------------------------------------------
# the two kinds of run

def measure(pkg, name, workload, config, seed, seconds):
    """End-to-end metrics with tracing off."""
    check = SweepChecker(pkg, name, workload, config)
    setups = [set_up(pkg, workload.command, config) for _ in range(SETUP_REPEATS)]
    seeds = sweep_seeds(seed)
    deadline = time.perf_counter() + seconds
    sweeps = []
    while len(sweeps) < len(seeds) or time.perf_counter() < deadline:
        sweep_seed = seeds[len(sweeps) % len(seeds)]
        elapsed, csv_path = run_sweep(pkg, workload, sweep_seed, config.output_path)
        sweeps.append(elapsed)
        check(sweep_seed, csv_path)
    records, attempted, failed = check.outcome(seeds)
    checks.check_shape(workload.command, pkg["harness"], records)
    metrics = {
        "sweep_s": statistics.median(sweeps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_fro_mean": math.fsum(r.err_frobenius for r in records) / len(records),
    }
    detail = {
        "seeds": seeds,
        "sweep_s_samples": sweeps,
        "setup_s_samples": setups,
        "err_rel_mean": math.fsum(r.err_relative for r in records) / len(records),
        "failed_frac": failed / attempted,
        "reference_checked": check.reference_checked,
    }
    return metrics, detail, attempted, failed


def measure_traced(pkg, name, workload, config, seed, seconds):
    """Per-layer metrics of traced sweeps at --seed, with the tracing overhead.

    Untraced and traced sweeps alternate, so each traced sweep has an
    untraced twin for the overhead.  The result's shape is gated on the
    reference seed's sweep, whose slopes are known to hold.
    """
    deadline = time.perf_counter() + seconds
    check = SweepChecker(pkg, name, workload, config)
    tracer = tracing.Tracer()
    traced_out = config.output_path + "_traced"
    with tracer.installed(pkg):
        with tracer.span("bench.setup") as setup_span:
            set_up(pkg, workload.command, config)
    pairs = []  # (untraced seconds, traced sweep span)
    while not pairs or time.perf_counter() < deadline:
        elapsed, csv_path = run_sweep(pkg, workload, seed, config.output_path)
        check(seed, csv_path)
        with tracer.installed(pkg):
            with tracer.span("cli.main", seed=seed) as sweep:
                _, csv_path = run_sweep(pkg, workload, seed, traced_out)
        records = check(seed, csv_path)
        checks.check_trace_join(records, [s for s in tracer.descendants(sweep)
                                          if s["name"] == "harness." + tracing.TRIAL_FUNCTION])
        pairs.append((elapsed, sweep))
    parallel_s, csv_path = run_sweep(pkg, workload, seed, config.output_path + "_parallel",
                                     workers=PARALLEL_WORKERS)
    check(seed, csv_path)
    reference = checks.reference_seed()
    check.check_reference_seed()
    checks.check_shape(workload.command, pkg["harness"], check.first[reference][1])
    _, attempted, failed = check.outcome([seed])

    def duration(span):
        return span["end"] - span["start"]

    pairs.sort(key=lambda p: duration(p[1]))
    metrics, detail = tracing.layer_breakdown(tracer, pairs[len(pairs) // 2][1])
    if metrics["harness.other_s"] < 0:
        raise checks.GateError("layer spans overlap: they add up to more than the sweep")
    untraced = [u for u, _ in pairs]
    metrics["noise_shaping.basis_build_s"] = sum(
        (duration(s) for s in tracer.descendants(setup_span)
         if s["name"] == "noise_shaping.compute_basis"),
        0.0,
    )
    metrics["harness.trace_overhead_s"] = statistics.median(duration(t) - u for u, t in pairs)
    metrics["harness.parallel_speedup"] = statistics.median(untraced) / parallel_s
    trace_path = os.path.join(traced_out, workload.csv_name.replace(".csv", "_trace.jsonl"))
    tracer.write_jsonl(trace_path)
    detail.update({
        "seeds": [seed],
        "traced_sweep_s_samples": [duration(t) for _, t in pairs],
        "untraced_sweep_s_samples": untraced,
        "parallel_sweep_s": parallel_s,
        "parallel_workers": PARALLEL_WORKERS,
        "trace_path": trace_path,
        "csv_sha256": check.first[seed][0],
        "failed_frac": failed / attempted,
    })
    return metrics, detail, attempted, failed


# ---------------------------------------------------------------------------
# reporting

def metric_units(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _timing(samples, what):
    tail = tracing.tail_percentile(len(samples))
    if tail is None:
        return f"median of {len(samples)} {what}; too few for a tail percentile"
    value = tracing.percentile(sorted(samples), tail)
    return f"median of {len(samples)} {what}; p{tail:g} {value:.6g}"


def report(name, trace, metrics, detail, attempted, failed):
    units = metric_units(trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics computed and listed differ: {sorted(set(units) ^ set(metrics))}")
    print(f"workload {name}, seeds {detail['seeds']}")
    print(f"  failed_frac = {detail['failed_frac']:.6g} of trials ({failed} of {attempted} "
          "raised, did not converge, or overflowed)")
    if not trace:
        print(f"  sweep_s = {metrics['sweep_s']:.6g} s ({_timing(detail['sweep_s_samples'], 'sweeps')})")
        print(f"  setup_s = {metrics['setup_s']:.6g} s ({_timing(detail['setup_s_samples'], 'set-ups')})")
        print(f"  peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB (resident peak of this process)")
        print(f"  err_rel_mean = {detail['err_rel_mean']:.6g} relative (mean of |X^ - X|_F / |X|_F)")
        print(f"  err_fro_mean = {metrics['err_fro_mean']:.6g} frobenius (mean of |X^ - X|_F)")
    else:
        notes = tracing.metric_notes(metrics, detail)
        print(f"  traced sweep_s at --seed: {_timing(detail['traced_sweep_s_samples'], 'sweeps')}; "
              f"untraced: {_timing(detail['untraced_sweep_s_samples'], 'sweeps')}")
        for key in sorted(metrics):
            note = f" ({notes[key]})" if key in notes else ""
            print(f"  {key} = {metrics[key]:.6g} {units[key]}{note}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    out_dir = os.path.join(".bench_out", name)
    os.makedirs(out_dir, exist_ok=True)
    stamp = {"workload": name, "trace": trace, "environment": environment(),
             "detail": detail, **result}
    path = os.path.join(out_dir, f"BENCH_{name}{'_trace' if trace else ''}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stamp, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"  environment: {json.dumps(stamp['environment'], sort_keys=True)}")
    print(f"  wrote {path}")
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pkg = import_package()
    workload = WORKLOADS[args.workload]
    config = pkg["harness"].load_config(
        os.path.join(BENCH_DIR, "configs", workload.config), master_seed=args.seed
    )
    run = measure_traced if args.trace else measure
    try:
        metrics, detail, attempted, failed = run(
            pkg, args.workload, workload, config, args.seed, args.seconds
        )
    except checks.GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args.trace, metrics, detail, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
