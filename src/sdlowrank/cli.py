"""Command-line front end.

Single-instance commands (quantize, recover, rip-check) run the harness
stages on trial 0 of the oversampling sweep at the first configured
(r, lambda), so their output can be cross-checked against sweep CSV rows
run with the same seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from sdlowrank import harness
from sdlowrank import sensing
from sdlowrank import sigma_delta

__all__ = ["main", "build_parser"]


def _load_config(args):
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "out", None) is not None:
        overrides["output_path"] = args.out
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    if args.config:
        return harness.load_config(args.config, **overrides)
    return harness.ExperimentConfig(**overrides)


def cmd_quantize(args):
    config = _load_config(args)
    task = harness.first_trial(config)
    X, scale, y, _ = harness.trial_instance(task, harness.trial_operator(task))
    scheme, run = harness.trial_quantize(task, y)
    alphabet = scheme.alphabet
    print(f"order r={task.r} m={task.m} lambda={task.lam:g}")
    print(f"input scale {scale:.6g}, max |y| = {np.max(np.abs(y)):.6g}")
    print(f"alphabet: 2L={2 * alphabet.num_levels_half} levels, "
          f"step beta={config.beta:g}, max level {alphabet.max_level:.6g}")
    print(f"max |u| = {np.max(np.abs(run.state)):.6g} "
          f"(certified bound {scheme.stability_constant:g})")
    print(f"overflow: {run.overflow}")
    print(f"state recursion residual: {sigma_delta.state_residual(run, task.r):.3e}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "quantize_instance.npz")
        np.savez(path, y=y, q=run.output, u=run.state, X=X)
        print(f"wrote {path}")
    return 0


def cmd_recover(args):
    config = _load_config(args)
    task = harness.first_trial(config)
    record, solution = harness.trial_solve(task)
    print(f"order r={record.r} m={record.m} lambda={record.lam:g} "
          f"form={config.constraint_form}")
    print(f"relative error {record.err_relative:.6e} "
          f"(frobenius {record.err_frobenius:.6e})")
    print(f"nuclear norm of estimate {record.objective:.6g}")
    print(f"iterations {record.iterations}, converged {record.converged}, "
          f"overflow {record.overflow}")
    print(f"penalty changes {solution.penalty_changes}, "
          f"secular steps {solution.secular_steps}, "
          f"anderson rejections {solution.anderson_rejections}")
    return 0 if record.converged else 1


def _run_sweep(args, runner):
    config = _load_config(args)
    result = runner(config)
    print(f"wrote {result.csv_path}")
    print(f"wrote {result.summary_path}")
    for r, slope in sorted(result.slopes.items()):
        print(f"r={r}: fitted slope {slope:.4f}")
    if result.failures:
        print(f"{len(result.failures)} trial failures (see summary)", file=sys.stderr)
    return 0


def cmd_rip_check(args):
    config = _load_config(args)
    task = harness.first_trial(config)
    op = harness.trial_operator(task)
    # rows scaled by 1/sqrt(m) give E ||M(X)||^2 = ||X||_F^2, so delta_hat
    # measures the distance from an isometry
    op = replace(op, data=op.data / np.sqrt(task.m))
    est = sensing.empirical_rip(op, config.rank, args.trials, seed=config.master_seed)
    print(f"normalized operator (1/sqrt(m)) M, {task.m} x ({config.n1} x {config.n2}), "
          f"rank {config.rank}, {args.trials} trials")
    print(f"delta_hat = {est.delta_hat:.4f} "
          f"(extremes {est.extremes[0]:.4f}, {est.extremes[1]:.4f})")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sdlowrank",
        description="Sigma-Delta quantization of low-rank matrix measurements "
                    "and nuclear-norm recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # beyond --config and --seed, each command takes only the flags it reads
    flags = {
        "--out": dict(metavar="DIR", help="override output_path"),
        "--workers": dict(type=int, metavar="N",
                          help="worker processes; 0 (the default) means one per usable core"),
        "--trials": dict(type=int, default=200,
                         help="sample matrices for the isometry estimate"),
    }
    sweep = ("--out", "--workers")
    commands = [
        ("quantize", cmd_quantize, "quantize one seeded instance and report state bounds",
         ("--out",)),
        ("recover", cmd_recover, "run the full pipeline on one seeded instance", ("--out",)),
        ("sweep-oversampling", partial(_run_sweep, runner=harness.run_oversampling_sweep),
         "error vs oversampling factor for each order", sweep),
        ("sweep-noise", partial(_run_sweep, runner=harness.run_noise_sweep),
         "error vs measurement noise level", sweep),
        ("rate-distortion", partial(_run_sweep, runner=harness.run_rate_distortion),
         "error vs bit rate via encoding", sweep),
        ("rip-check", cmd_rip_check, "estimate the restricted isometry constant",
         ("--trials",)),
    ]
    for name, fn, help_text, extra in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE", help="flat key=value config file")
        p.add_argument("--seed", type=int, metavar="U64", help="override master_seed")
        for flag in extra:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
