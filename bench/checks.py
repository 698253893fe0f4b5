"""Output-correctness gates for the benchmark's sweeps.

A gate that fails raises GateError, and the benchmark then exits non-zero
without scoring the run.  The gates check each sweep CSV for

* completeness: one row per configured trial, so no trial raised;
* the paper's qualitative result, on the trials of all of a run's seeds
  together: oversampling slopes in the order r3 < r2 < r1 < 0; for rate,
  an error that falls from the smallest to the largest m for each order;
  for noise, an error non-decreasing in eps with at most one inversion of
  under 5%, as acceptance criterion 5 allows;
* at the reference seed, agreement of every (r, m, eps) group's mean error
  with reference.json, recorded from the benchmark's first commit, to a
  relative tolerance of REFERENCE_TOLERANCE_FACTOR times the solver's
  stopping tolerance.  The tolerance and not byte identity, because a
  change of basis algorithm moves the CSV bytes within the solver's
  accuracy without changing the result.
"""

from __future__ import annotations

import json
import math
import os
import statistics

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REFERENCE_TOLERANCE_FACTOR = 1000.0


class GateError(Exception):
    """An output of the program under test is wrong."""


def expected_keys(command, config):
    """The (r, m, eps, trial_index) of every trial the sweep should record."""
    if command == "sweep-oversampling":
        grid = [(round(lam * config.ell), 0.0) for lam in config.oversampling_grid]
    elif command == "sweep-noise":
        m = round(config.oversampling_grid[0] * config.ell)
        grid = [(m, float(eps)) for eps in config.epsilon_grid]
    elif command == "rate-distortion":
        grid = [(round(lam * config.encoder_dim), 0.0) for lam in config.oversampling_grid]
    else:
        raise ValueError(f"no gate for command {command!r}")
    return sorted(
        (r, m, eps, t) for r in config.orders for m, eps in grid for t in range(config.trials)
    )


def record_key(rec):
    return (rec.r, rec.m, rec.eps, rec.trial_index)


def group_means(records, group):
    groups = {}
    for rec in records:
        groups.setdefault(group(rec), []).append(rec.err_relative)
    return {k: math.fsum(v) / len(v) for k, v in sorted(groups.items())}


def reference_groups(records):
    """Mean err_relative per (r, m, eps) group, keyed as in reference.json."""
    means = group_means(records, lambda x: (x.r, x.m, x.eps))
    return {f"{r}/{m}/{eps!r}": v for (r, m, eps), v in means.items()}


def check_complete(command, config, records):
    keys = [record_key(rec) for rec in records]
    expected = expected_keys(command, config)
    if keys != expected:
        missing = sorted(set(expected) - set(keys))
        raise GateError(
            f"{command}: CSV has {len(keys)} rows for {len(expected)} configured trials; "
            f"missing or unexpected (r, m, eps, trial) e.g. {missing[:3]}"
        )


def check_shape(command, harness, records):
    orders = sorted({rec.r for rec in records})
    if command == "sweep-oversampling":
        slopes = {}
        for r in orders:
            means = group_means([x for x in records if x.r == r], lambda x: x.lam)
            slopes[r] = harness.fit_slope(means.items(), "loglog")[0]
        chain = [slopes[r] for r in reversed(orders)] + [0.0]
        if not all(a < b for a, b in zip(chain, chain[1:])):
            raise GateError(f"oversampling slopes out of order (want r3 < r2 < r1 < 0): {slopes}")
    elif command == "rate-distortion":
        # The bit count of a trial depends on its alphabet, so the two rates
        # of this slice overlap in bits and a fit against bits is mostly
        # noise; compare by m instead.  Geometric means of the Frobenius
        # error, because single trials at m = 24000 err ten times their group.
        for r in orders:
            by_m = {}
            for x in records:
                if x.r == r:
                    by_m.setdefault(x.m, []).append(math.log(x.err_frobenius))
            low, high = statistics.fmean(by_m[min(by_m)]), statistics.fmean(by_m[max(by_m)])
            if not high < low:
                raise GateError(
                    f"r={r}: geometric-mean error {math.exp(high):.3e} at m={max(by_m)} is not "
                    f"below {math.exp(low):.3e} at m={min(by_m)}"
                )
    elif command == "sweep-noise":
        for r in orders:
            means = group_means([x for x in records if x.r == r], lambda x: x.eps)
            grid = sorted(means)
            drops = [(a, b) for a, b in zip(grid, grid[1:]) if means[b] < means[a]]
            if len(drops) > 1 or any(means[b] < 0.95 * means[a] for a, b in drops):
                raise GateError(f"noise error for r={r} not non-decreasing in eps: {means}")


def _reference():
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_seed():
    return _reference()["seed"]


def check_reference(workload, seed, config, records):
    """Compare group means with the reference; returns False if no reference applies."""
    reference = _reference()
    if seed != reference["seed"]:
        return False
    expected = reference["group_mean_err_relative"][workload]
    actual = reference_groups(records)
    if sorted(actual) != sorted(expected):
        raise GateError(f"{workload}: groups {sorted(actual)} differ from reference {sorted(expected)}")
    rtol = REFERENCE_TOLERANCE_FACTOR * config.solver_tolerance
    for key, want in expected.items():
        if not math.isclose(actual[key], want, rel_tol=rtol):
            raise GateError(
                f"{workload}: mean err_relative of group {key} is {actual[key]!r}, "
                f"reference {want!r} (rel. tolerance {rtol:g})"
            )
    return True


def check_trace_join(records, trial_spans):
    """Trial spans join 1:1 to CSV rows, in CSV order, with equal iterations."""
    rows = [(record_key(rec), rec.iterations) for rec in records]
    spans = [((s["trial"]["r"], s["trial"]["m"], s["trial"]["eps"], s["trial"]["trial_index"]),
              s["iterations"]) for s in trial_spans]
    if rows != spans:
        diff = next((i for i, (a, b) in enumerate(zip(rows, spans)) if a != b), min(len(rows), len(spans)))
        raise GateError(
            f"trace does not join the CSV: {len(spans)} trial spans for {len(rows)} rows, "
            f"first difference at row {diff}"
        )
