"""Span tracing of the sdlowrank layers, installed from outside the package.

A Tracer replaces public functions of the package modules at module-attribute
level (``recovery.recover`` and so on) with wrappers that record one span per
call, and puts the originals back on uninstall.  Calls that go through a
module global are intercepted too: ``harness`` calls ``recovery.recover``
through the module, and ``recover`` calls ``build_constraint`` and
``check_feasibility`` through its own globals.  Nothing in the package knows
about the tracer, and the wrappers exist only while it is installed.

Spans are kept in memory and written out as JSON lines at the end.  Each span
has a name, start and end (seconds from the tracer's creation), the id of the
span that was open when it started, the trial it belongs to, and a few
counters computed from the call's arguments and result.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time

# The per-trial entry point of the sweep engine.  It is private, but it is the
# only function called exactly once per trial, so it bounds the trial spans.
TRIAL_FUNCTION = "_run_trial"


def _trial_key(task):
    return {"r": task.r, "m": task.m, "eps": task.eps, "trial_index": task.trial_index}


def _hashable(value):
    return value if isinstance(value, (int, float, str, bool, type(None))) else repr(value)


def _call_key(*names):
    """Counter extractor: the named arguments of the call, as a distinct key."""

    def extract(arguments, result):
        return {"key": [_hashable(arguments[n]) for n in names]}

    return extract


def _quantize_counts(arguments, result):
    return {"samples": int(len(result.output)), "overflow": bool(result.overflow)}


def _basis_counts(arguments, result):
    # computed from array sizes, not measured: U and V are m x m float64
    arrays = (result.left_vectors, result.singular_values, result.right_vectors)
    return {
        "key": [int(arguments["m"]), int(arguments["r"])],
        "bytes_computed": int(sum(a.nbytes for a in arrays)),
    }


def _recover_counts(arguments, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _constraint_counts(arguments, result):
    J = result[0]
    return {"J_shape": list(J.shape), "J_bytes_computed": int(J.nbytes)}


def _trial_counts(arguments, result):
    return {"iterations": int(result.iterations)}


def traced_functions(modules):
    """(module, attribute, counter extractor) for every function traced."""
    return [
        (modules["sensing"], "draw_operator",
         _call_key("m", "n1", "n2", "distribution", "seed")),
        (modules["sigma_delta"], "quantize", _quantize_counts),
        (modules["noise_shaping"], "compute_basis", _basis_counts),
        (modules["encoding"], "draw_encoder", _call_key("L_enc", "m", "seed")),
        (modules["encoding"], "encode", None),
        (modules["recovery"], "recover", _recover_counts),
        (modules["recovery"], "build_constraint", _constraint_counts),
        (modules["recovery"], "check_feasibility", None),
        (modules["harness"], TRIAL_FUNCTION, _trial_counts),
    ]


class Tracer:
    """Records spans around the calls it wraps; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._t0 = time.perf_counter()
        self._open = []
        self._trial = None
        self._saved = []

    def _begin(self, name, fields):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "trial": self._trial,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        span.update(fields)
        self.spans.append(span)
        self._open.append(span)
        return span

    def _end(self, span):
        span["end"] = time.perf_counter() - self._t0
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name, **fields):
        """Span around a block of the benchmark's own code (sweep, set-up)."""
        span = self._begin(name, fields)
        try:
            yield span
        finally:
            self._end(span)

    def _wrap(self, module, attr, counts):
        original = getattr(module, attr)
        signature = inspect.signature(original)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        is_trial = attr == TRIAL_FUNCTION

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if is_trial:
                self._trial = _trial_key(args[0] if args else kwargs["task"])
            span = self._begin(name, {})
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(span)
                if is_trial:
                    self._trial = None
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(counts(bound.arguments, result))
            return result

        setattr(module, attr, traced)
        self._saved.append((module, attr, original))

    @contextlib.contextmanager
    def installed(self, modules):
        """Wrap every traced function for the duration of the block."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for module, attr, counts in traced_functions(modules):
                if not callable(getattr(module, attr, None)):
                    raise RuntimeError(f"{module.__name__}.{attr} is not a function")
                self._wrap(module, attr, counts)
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def descendants(self, root):
        """Spans opened inside root, in the order they started."""
        inside = {root["id"]}
        out = []
        for span in self.spans[root["id"] + 1:]:
            if span["parent"] in inside:
                inside.add(span["id"])
                out.append(span)
        return out

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _duration(span):
    return span["end"] - span["start"]


def _total(spans, name):
    return sum((_duration(s) for s in spans if s["name"] == name), 0.0)


def _calls(spans, name):
    return [s for s in spans if s["name"] == name]


def _distinct_frac(calls):
    """Distinct call keys over calls; 0 when the layer was not called."""
    if not calls:
        return 0.0, 0
    distinct = len({tuple(s["key"]) for s in calls})
    return distinct / len(calls), distinct


def layer_breakdown(tracer, sweep):
    """Per-layer metrics of one traced sweep, plus the detail behind ratios.

    Returns (metrics, detail): metrics maps each per-layer metric name to a
    number; detail holds the bases of the ratios and the span sample counts.
    """
    spans = tracer.descendants(sweep)
    by_id = {s["id"]: s for s in spans}
    sweep_s = _duration(sweep)

    def nested_in_layer(span):
        parent = by_id.get(span["parent"])
        while parent is not None:
            if not parent["name"].startswith("harness."):
                return True
            parent = by_id.get(parent["parent"])
        return False

    # layer spans not inside another layer span tile the sweep without overlap
    top = [s for s in spans if not s["name"].startswith("harness.") and not nested_in_layer(s)]
    layer_sum = sum(_duration(s) for s in top)

    basis = _calls(spans, "noise_shaping.compute_basis")
    operators = _calls(spans, "sensing.draw_operator")
    encoders = _calls(spans, "encoding.draw_encoder")
    quantize = _calls(spans, "sigma_delta.quantize")
    recover = _calls(spans, "recovery.recover")
    constraints = _calls(spans, "recovery.build_constraint")
    trials = sorted(_duration(s) for s in _calls(spans, "harness." + TRIAL_FUNCTION))

    recover_s = _total(spans, "recovery.recover")
    build_s = _total(spans, "recovery.build_constraint")
    check_s = _total(spans, "recovery.check_feasibility")
    solve_s = recover_s - build_s - check_s
    iterations = sum(s["iterations"] for s in recover)
    samples = sum(s["samples"] for s in quantize)
    quantize_s = _total(spans, "sigma_delta.quantize")
    # each recover call builds one J; every iteration of its tube projection
    # multiplies by V^T and by V, whose factor is as large as J: 2 * J.nbytes
    tube_bytes = sum(2 * c["J_bytes_computed"] * by_id[c["parent"]]["iterations"]
                     for c in constraints)
    basis_frac, basis_distinct = _distinct_frac(basis)
    op_frac, op_distinct = _distinct_frac(operators)
    enc_frac, enc_distinct = _distinct_frac(encoders)

    metrics = {
        "noise_shaping.basis_s": _total(spans, "noise_shaping.compute_basis"),
        "noise_shaping.basis_calls": len(basis),
        "noise_shaping.distinct_frac": basis_frac,
        "noise_shaping.basis_bytes": max((s["bytes_computed"] for s in basis), default=0),
        "recovery.recover_s": recover_s,
        "recovery.build_constraint_s": build_s,
        "recovery.check_feasibility_s": check_s,
        "recovery.solve_s": solve_s,
        "recovery.iterations": iterations,
        "recovery.us_per_iteration": 1e6 * solve_s / iterations if iterations else 0.0,
        "recovery.nonconverged": sum(not s["converged"] for s in recover),
        "recovery.tube_bytes_per_iter": tube_bytes / iterations if iterations else 0.0,
        "encoding.draw_encoder_s": _total(spans, "encoding.draw_encoder"),
        "encoding.draw_encoder_calls": len(encoders),
        "encoding.distinct_frac": enc_frac,
        "encoding.encode_s": _total(spans, "encoding.encode"),
        "sigma_delta.quantize_s": quantize_s,
        "sigma_delta.samples": samples,
        "sigma_delta.ns_per_sample": 1e9 * quantize_s / samples if samples else 0.0,
        "sigma_delta.overflows": sum(s["overflow"] for s in quantize),
        "sensing.draw_operator_s": _total(spans, "sensing.draw_operator"),
        "sensing.draw_operator_calls": len(operators),
        "sensing.distinct_frac": op_frac,
        "harness.trials": len(trials),
        "harness.trial_s.p50": percentile(trials, 50),
        "harness.trial_s.p90": percentile(trials, 90),
        "harness.sweep_s": sweep_s,
        "harness.other_s": sweep_s - layer_sum,
    }
    detail = {
        "layer_spans_s": layer_sum,
        "noise_shaping.distinct": basis_distinct,
        "sensing.distinct": op_distinct,
        "encoding.distinct": enc_distinct,
        "harness.trial_s.tail": tail_percentile(len(trials)),
    }
    return metrics, detail


def metric_notes(metrics, detail):
    """What each computed counter and ratio is computed from, for the report."""
    m = metrics
    return {
        "noise_shaping.basis_bytes": "computed from array sizes: largest U, s, V returned",
        "recovery.tube_bytes_per_iter": "computed from array sizes: 2 * J.nbytes, "
                                        f"averaged over {m['recovery.iterations']} iterations",
        "noise_shaping.distinct_frac": f"{detail['noise_shaping.distinct']} distinct (m, r) "
                                       f"of {m['noise_shaping.basis_calls']} calls",
        "sensing.distinct_frac": f"{detail['sensing.distinct']} distinct operators "
                                 f"of {m['sensing.draw_operator_calls']} calls",
        "encoding.distinct_frac": f"{detail['encoding.distinct']} distinct encoders "
                                  f"of {m['encoding.draw_encoder_calls']} calls",
        "recovery.us_per_iteration": f"solve_s over {m['recovery.iterations']} iterations",
        "sigma_delta.ns_per_sample": f"quantize_s over {m['sigma_delta.samples']} samples",
        "recovery.solve_s": "recover_s - build_constraint_s - check_feasibility_s",
        "harness.other_s": f"sweep_s - {detail['layer_spans_s']:.6g} s in layer spans",
        "harness.trial_s.p90": f"of {m['harness.trials']} trials"
                               + ("" if detail["harness.trial_s.tail"] else
                                  "; fewer than ten beyond it"),
        "harness.trace_overhead_s": "median over pairs of traced - untraced sweep_s",
        "harness.parallel_speedup": f"median workers=1 sweep_s over one sweep with "
                                    f"{detail['parallel_workers']} workers",
    }


def percentile(sorted_values, q):
    """Linear-interpolated q-th percentile of an ascending list (0 if empty)."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest of p90, p99, p99.9 with at least ten of n samples beyond it."""
    best = None
    for q in (90.0, 99.0, 99.9):
        if n * (100.0 - q) / 100.0 >= 10:
            best = q
    return best
