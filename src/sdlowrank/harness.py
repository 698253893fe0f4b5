"""Seeded experiment sweeps: quantize, recover, record, fit slopes.

One engine runs every sweep from a small per-experiment spec: derive
per-trial seeds from the master seed, run independent trials (optionally
across worker processes), sort the results deterministically, and write
one CSV plus a text summary with fitted slopes.  Reordering or
parallelizing trial execution never changes the output bytes.  Every
sweep runs orders x lambda grid x eps grid at m = lambda * base, with the
operator and encoder drawn per lambda.  Work is done a unit at a time: a
unit is the trials of one (m, r) with eps = 0 or with eps > 0, which
share one constraint matrix J.  In the projected form, which folds the
noise ball into its radius, the two also share J, but they stay two
units, so that a noise sweep's work divides among the workers.  A unit
builds its grid point once, in grid_point (the operator, its basis in
the projected form, its encoder in the encoded form), prepares each
trial in _prepare_trial (trial_instance, trial_quantize, the rate
accounting and the truth check) and hands them all to one
recovery.recover_batch call, which builds J and its SVD once.  A unit
returns, per trial in its order, the numbers of its CSV row or a failure
message, and nothing that holds an array; _execute runs the units on
forked workers, one pipe each, largest first, pairs what each returns
with the unit's tasks, sorts the pairs and makes each row's TrialRecord
by one _run_trial call, in CSV row order.  Every path that computes a
row runs with numpy's OpenBLAS pinned to one thread, since the last
digits of a solve follow the thread count.  The command line reuses the
same stages through trial_operator and trial_solve, which runs
grid_point and _prepare_trial for one trial and solves it as a batch of
one, with OpenBLAS pinned, and so reproduces its sweep row.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import multiprocessing.connection
import numbers
import os
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

from sdlowrank import _blas
from sdlowrank import encoding
from sdlowrank import noise_shaping
from sdlowrank import recovery
from sdlowrank import sensing
from sdlowrank import sigma_delta

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "SweepResult",
    "load_config",
    "make_low_rank",
    "measurement_scaling",
    "run_oversampling_sweep",
    "run_noise_sweep",
    "run_rate_distortion",
    "first_trial",
    "trial_operator",
    "grid_point",
    "trial_instance",
    "trial_quantize",
    "trial_solve",
    "fit_slope",
    "write_records_csv",
    "read_records_csv",
]

CSV_FORMAT_LINE = "# sdlowrank-trials-v1"

# the decoder forms constraint_form names; see recovery.RecoveryProblem
CONSTRAINT_FORMS = ("full_inverse_power", "projected", "encoded")

# experiment identifiers entering seed derivation
_EXP_OVERSAMPLING = 1
_EXP_NOISE = 2
_EXP_RATE = 3
# stream roles
_ROLE_OPERATOR = 101
_ROLE_MATRIX = 102
_ROLE_NOISE = 103
_ROLE_ENCODER = 104

_FAILURE_ABORT_FRACTION = 0.2

# the least value of each integer field of ExperimentConfig that has one
_INTEGER_FLOORS = {"ell": 1, "orders": 1, "trials": 1, "encoder_dim": 1,
                   "solver_max_iterations": 1, "workers": 0, "master_seed": 0}


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep definition; every field has a desk-scale default.

    mu > 0 rescales each truth matrix so the measurements fit inside
    [-mu, mu] before quantization; mu = 0 leaves the natural scale and
    lets the alphabet grow to cover the observed range.  The natural
    scale is the default because the fixed step beta is then small
    relative to the signal, which is the regime the error-decay
    experiments live in.  workers = 0 runs one worker process per usable
    core, and workers = 1 runs every unit in this process.
    """

    n1: int = 10
    n2: int = 10
    rank: int = 2
    ell: int = 80
    oversampling_grid: tuple = (2.0, 4.0, 8.0, 16.0)
    orders: tuple = (1, 2, 3)
    beta: float = 0.5
    levels: object = "auto"  # "auto" or an int
    epsilon_grid: tuple = (0.0, 0.25, 0.5, 1.0, 2.0)
    trials: int = 10
    master_seed: int = 12345
    constraint_form: str = "projected"
    encoder_dim: int = 80
    distribution: str = "gaussian"
    mu: float = 0.0
    solver_max_iterations: int = 5000
    solver_tolerance: float = 1e-6
    workers: int = 0
    output_path: str = "results/desk"
    cache_dir: object = None

    def __post_init__(self):
        for name in ("orders", "oversampling_grid", "epsilon_grid"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must not be empty")
        for f in fields(self):
            # a numeric field takes the type of its default, as load_config
            # parses it; a bool is an int, but no field means one
            value, default = getattr(self, f.name), f.default
            values = value if isinstance(value, tuple) else (value,)
            kind = type(default[0] if isinstance(default, tuple) else default)
            accepted = numbers.Integral if kind is int else numbers.Real
            if kind in (int, float) and any(
                    isinstance(v, bool) or not isinstance(v, accepted) for v in values):
                raise ValueError(f"{f.name} takes {kind.__name__} values, got {value!r}")
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if f.name in _INTEGER_FLOORS and min(values) < _INTEGER_FLOORS[f.name]:
                raise ValueError(f"{f.name} must be >= {_INTEGER_FLOORS[f.name]}, got {value}")
        if not (1 <= self.rank <= min(self.n1, self.n2)):
            raise ValueError(f"rank must lie in [1, {min(self.n1, self.n2)}]")
        # each sweep checks that its m = lambda * base is integral (_check_grid)
        for lam in self.oversampling_grid:
            if not lam > 0:
                raise ValueError(f"oversampling_grid entries must be positive, got {lam}")
        if any(e < 0 for e in self.epsilon_grid):
            raise ValueError("epsilon_grid entries must be nonnegative")
        # each grid point draws one operator: a repeated value would run it twice
        for name in ("orders", "oversampling_grid", "epsilon_grid"):
            values = getattr(self, name)
            for value in values:
                if values.count(value) > 1:
                    raise ValueError(f"{name} lists {value} more than once")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.levels != "auto" and not (isinstance(self.levels, int)
                                          and not isinstance(self.levels, bool)
                                          and self.levels >= 1):
            raise ValueError(f"levels must be 'auto' or an integer >= 1, got {self.levels!r}")
        if not self.mu >= 0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")
        if self.constraint_form not in CONSTRAINT_FORMS:
            raise ValueError(f"unknown constraint_form {self.constraint_form!r}")
        if self.distribution not in sensing.DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if not self.solver_tolerance > 0:
            raise ValueError(f"solver_tolerance must be positive, got {self.solver_tolerance}")

    def levels_for(self, order, observed_max):
        if self.levels == "auto":
            return sigma_delta.required_levels(observed_max, self.beta, order)
        return self.levels

    def solver_params(self):
        return recovery.SolverParams(
            max_iterations=self.solver_max_iterations,
            tolerance=self.solver_tolerance,
        )


@dataclass(frozen=True)
class TrialRecord:
    """One pipeline run, a CSV row: the fields, in order, are its columns and their types."""

    r: int
    m: int
    ell: int
    lam: float
    trial_index: int
    seed: int
    err_frobenius: float
    err_relative: float
    objective: float
    sigma_k_tail: float
    eps: float
    rate_bits: int | None = None
    rate_bits_fig: int | None = None
    overflow: bool = False
    iterations: int = 0
    converged: bool = False
    scale: float = 1.0
    encoder_dim: int | None = None
    encoder_seed: int | None = None


@dataclass
class SweepResult:
    records: list
    csv_path: str
    summary_path: str
    slopes: dict
    failures: list


# ---------------------------------------------------------------------------
# config file round trip (flat key=value text)

def _parse_value(key, text):
    """Parse a config value as the type of the field's default."""
    if key == "levels":
        return "auto" if text == "auto" else int(text)
    if key == "cache_dir":
        return text or None
    default = getattr(ExperimentConfig, key)
    if isinstance(default, tuple):
        return tuple(type(default[0])(x) for x in text.split(",") if x.strip())
    return type(default)(text)


def load_config(path, **overrides):
    """Read a flat key=value config file into an ExperimentConfig.

    A line that is not key=value, an unknown key, a key set twice and a
    value that does not parse raise ValueError naming the file and the
    line; a config ExperimentConfig rejects raises it naming the file.
    """
    known = {f.name for f in fields(ExperimentConfig)}
    parsed = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in parsed:
                raise ValueError(f"{path}:{lineno}: config key {key!r} is set twice")
            try:
                parsed[key] = _parse_value(key, val.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    parsed.update(overrides)
    try:
        return ExperimentConfig(**parsed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# building blocks

def make_low_rank(n1, n2, k, seed):
    """Random rank-k matrix: sum of k Gaussian outer products.

    With this construction E ||X||_F^2 = k * n1 * n2.
    """
    if not (1 <= k <= min(n1, n2)):
        raise ValueError(f"k must lie in [1, {min(n1, n2)}]")
    rng = np.random.default_rng(seed)
    return sensing.gaussian_rank_k(rng, n1, n2, k)


def measurement_scaling(X, op, mu):
    """Rescale X so the measurement vector has max magnitude mu.

    Keeps the quantizer inside its certified input range.  Returns
    (scaled X, scale); zero input is returned unchanged with scale 1.
    """
    y = sensing.apply(op, X)
    ymax = float(np.max(np.abs(y))) if y.size else 0.0
    if ymax == 0.0:
        return X, 1.0
    scale = mu / ymax
    return X * scale, scale


def _derive_seed(*entropy):
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def fit_slope(points, mode):
    """Least-squares line through transformed points.

    mode "loglog" fits ln y against ln x; "semilog" fits ln y against x.
    Natural logarithms throughout.  Returns (slope, intercept, r_squared).
    """
    if mode not in ("loglog", "semilog"):
        raise ValueError("mode must be 'loglog' or 'semilog'")
    pts = [(float(x), float(y)) for x, y in points]
    if len({x for x, _ in pts}) < 2:
        raise ValueError("need at least two distinct abscissae")
    if any(y <= 0 for _, y in pts):
        raise ValueError("log transform requires positive ordinates")
    if mode == "loglog":
        if any(x <= 0 for x, _ in pts):
            raise ValueError("loglog requires positive abscissae")
        xs = np.log([x for x, _ in pts])
    else:
        xs = np.array([x for x, _ in pts])
    ys = np.log([y for _, y in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = slope * xs + intercept
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


# ---------------------------------------------------------------------------
# CSV round trip

def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _column(name):
    """CSV column of a TrialRecord field."""
    return "lambda" if name == "lam" else name


_SCHEMA = typing.get_type_hints(TrialRecord)  # name -> declared type, in CSV column order
_CSV_HEADER = ",".join(_column(name) for name in _SCHEMA)


def write_records_csv(records, path):
    """Write records sorted and formatted deterministically."""
    ordered = sorted(records, key=_trial_key)
    lines = [CSV_FORMAT_LINE, _CSV_HEADER]
    for rec in ordered:
        lines.append(",".join(_format_cell(getattr(rec, n)) for n in _SCHEMA))
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _parse_cell(name, text):
    """A cell as its TrialRecord field's declared type: an int | None field
    is written empty for None, and a bool one as 0 or 1."""
    kind = _SCHEMA[name]
    if kind == int | None:
        return int(text) if text else None
    if not text:
        raise ValueError(f"empty {name}")
    if kind is bool:
        if text not in ("0", "1"):
            raise ValueError(f"{name} must be 0 or 1, got {text!r}")
        return text == "1"
    return kind(text)


def read_records_csv(path):
    """Read the records of a CSV that write_records_csv wrote.

    A missing format line or header, a header other than the TrialRecord
    columns, and a row with the wrong number of cells or a cell that does
    not parse raise ValueError naming the file and the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != CSV_FORMAT_LINE:
        raise ValueError(f"{path}:1: missing format line {CSV_FORMAT_LINE!r}")
    if len(lines) < 2 or lines[1] != _CSV_HEADER:
        raise ValueError(f"{path}:2: expected the header {_CSV_HEADER!r}")
    records = []
    for lineno, row in enumerate(lines[2:], 3):
        cells = row.split(",")
        if len(cells) != len(_SCHEMA):
            raise ValueError(f"{path}:{lineno}: {len(cells)} cells, expected {len(_SCHEMA)}")
        try:
            records.append(TrialRecord(*map(_parse_cell, _SCHEMA, cells)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return records


# ---------------------------------------------------------------------------
# trial execution

@dataclass(frozen=True)
class _TrialTask:
    """Everything one worker needs, scalars only, fully seeded."""

    config: ExperimentConfig
    r: int
    m: int
    lam: float
    trial_index: int
    operator_seed: int
    matrix_seed: int
    eps: float = 0.0
    noise_seed: object = None
    encoder_seed: object = None


def _trial_key(item):
    """Sort key of a task or record; the CSV row order."""
    return (item.r, item.m, item.eps, item.trial_index)


def trial_operator(task):
    """The task's measurement operator, shared by every trial of its unit."""
    config = task.config
    return sensing.draw_operator(
        task.m, config.n1, config.n2, config.distribution, task.operator_seed
    )


def grid_point(task):
    """(operator, basis, encoder) of the task's grid point, built for it alone.

    The projected form builds the noise-shaping basis of the task's
    (m, r), cached in cache_dir (by default output_path/basis_cache), and
    the encoded form draws the encoder; the one the form does not use is
    None.  A sweep's unit and trial_solve build their grid point with this
    call alone.
    """
    config = task.config
    op, basis, encoder = trial_operator(task), None, None
    if config.constraint_form == "projected":
        cache_dir = config.cache_dir
        if cache_dir is None:
            cache_dir = os.path.join(config.output_path, "basis_cache")
        basis = noise_shaping.compute_basis(
            task.m, task.r, truncation=min(config.ell, task.m), cache_dir=cache_dir)
    elif config.constraint_form == "encoded":
        encoder = encoding.draw_encoder(config.encoder_dim, task.m, task.encoder_seed)
    return op, basis, encoder


def trial_instance(task, op):
    """Draw, scale and measure one trial's truth through op, then add its noise.

    Returns (truth, scale, measurements, noise), where noise is the
    measurements less the clean M(truth), the true noise the truth check
    reads; it is zero when eps = 0.  mu > 0 scales the truth so the clean
    measurements peak at mu; eps > 0 adds the task's bounded noise.
    """
    config = task.config
    X = make_low_rank(config.n1, config.n2, config.rank, task.matrix_seed)
    scale = 1.0
    if config.mu > 0:
        X, scale = measurement_scaling(X, op, config.mu)
    y = clean = sensing.apply(op, X)
    if task.eps > 0 and task.noise_seed is not None:
        draw = np.random.default_rng(task.noise_seed).uniform(0.0, 1.0, task.m)
        y = clean + draw * (task.eps / np.max(draw))
    return X, scale, y, y - clean


def trial_quantize(task, y):
    """Quantize y at the task's order with the config's beta and levels.

    Returns (scheme, run); the scheme certifies gamma, the state bound the
    decoder's radius is built from.
    """
    config = task.config
    L = config.levels_for(task.r, float(np.max(np.abs(y))))
    alphabet = sigma_delta.build_alphabet(L, config.beta)
    scheme = sigma_delta.default_scheme(task.r, alphabet)
    return scheme, sigma_delta.quantize(y, scheme)


def _prepare_trial(task, point):
    """Draw and quantize one trial's instance, account its rate, pose its problem.

    point is (operator, basis, encoder) as grid_point(task) returns it;
    the instance is trial_instance(task, operator).  Returns (problem,
    truth, row), where row holds the numbers of the trial's CSV row known
    before its solve, as Python scalars.  Unless the quantizer
    overflowed, a true pair (X, y - M(X)) that fails check_feasibility
    raises RuntimeError naming the violated constraint.
    """
    m, r = task.m, task.r
    op, basis, encoder = point
    X, scale, y, noise = trial_instance(task, op)
    scheme, run = trial_quantize(task, y)
    row = dict(scale=float(scale), overflow=bool(run.overflow),
               sigma_k_tail=recovery.best_rank_k_error(X, task.config.rank),
               rate_bits=None, rate_bits_fig=None)
    if encoder is not None:
        # the nominal rate of encoding.encode's payload, which the decoder
        # forms itself as its c
        L_enc = encoder.shape[0]
        row.update(rate_bits=encoding.rate_bits_nominal(L_enc, r, scheme.alphabet.max_level, m),
                   rate_bits_fig=encoding.rate_bits_plotted(L_enc, r, m))
    problem = recovery.RecoveryProblem(
        operator=op,
        quantized=run.output,
        order=r,
        gamma=scheme.stability_constant,
        noise_bound=task.eps,
        basis=basis,
        encoder=encoder,
    )
    if not run.overflow:
        # by stability the true pair (X, y - M(X)) lies inside the ball
        truth = recovery.check_feasibility(problem, X, noise)
        if not truth.ok:
            raise RuntimeError("truth is infeasible: " + "; ".join(truth.messages))
    return problem, X, row


def _row(truth, row, solution):
    """The numbers of one trial's CSV row, as Python scalars: row, the
    numbers _prepare_trial knew before the solve, and the solve's."""
    err = float(np.linalg.norm(solution.estimate - truth))
    truth_norm = float(np.linalg.norm(truth))
    return dict(
        row, err_frobenius=err, err_relative=err / truth_norm if truth_norm else 0.0,
        objective=float(solution.objective), iterations=int(solution.iterations),
        converged=bool(solution.converged),
    )


def _run_trial(task, row):
    """One sweep trial's TrialRecord, its CSV row, from the numbers _row computed."""
    config = task.config
    return TrialRecord(
        r=task.r, m=task.m, ell=config.ell, lam=task.lam, trial_index=task.trial_index,
        seed=task.matrix_seed, eps=task.eps,
        encoder_dim=config.encoder_dim if config.constraint_form == "encoded" else None,
        encoder_seed=task.encoder_seed, **row,
    )


def trial_solve(task):
    """Run one trial through decoding; return (TrialRecord, RecoverySolution).

    The trial's grid point is built by grid_point and its solve is the
    sweep's on a batch of one, with OpenBLAS pinned as in a sweep (the
    last digits of a solve follow the thread count; a cold basis has the
    same bits at any count, since compute_basis pins its own build), so
    the record equals the task's row of the sweep's CSV.  Unless the
    quantizer overflowed, an infeasible truth raises RuntimeError.
    """
    with _blas._blas_pinned():
        problem, truth, row = _prepare_trial(task, grid_point(task))
        solution = recovery.recover(problem, task.config.solver_params())
        return _run_trial(task, _row(truth, row, solution)), solution


def _failure(exc):
    return f"{type(exc).__name__}: {exc}"


def _run_group(unit):
    """Row numbers or a failure message per trial of one unit, in the unit's order.

    The unit's tasks share one J: one m, one order, and eps = 0 or
    eps > 0 (see _unit_key).  Its grid point is built once; each trial
    draws its own instance at it in _prepare_trial, and all that were
    prepared are solved in one recovery.recover_batch call.  A failed
    build of the grid point or of J fails every trial of the unit; a
    trial that fails at any other stage fails alone.  Failures become
    messages where they are caught, so nothing returned refers to an
    array or keeps one alive.
    """
    trials = {}  # index in unit -> its (problem, truth, row) from _prepare_trial
    outcomes = {}  # index in unit -> its row numbers or failure message
    try:
        point = grid_point(unit[0])
        for i, task in enumerate(unit):
            try:
                trials[i] = _prepare_trial(task, point)
            except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                outcomes[i] = _failure(exc)
        solutions = recovery.recover_batch(
            [problem for problem, _, _ in trials.values()], unit[0].config.solver_params())
    except Exception as exc:  # noqa: BLE001 - recorded per trial, not hidden
        return [outcomes.get(i, _failure(exc)) for i in range(len(unit))]
    for (i, (_, truth, row)), solution in zip(trials.items(), solutions):
        try:
            outcomes[i] = (_failure(solution) if isinstance(solution, Exception)
                           else _row(truth, row, solution))
        except Exception as exc:  # noqa: BLE001 - recorded, not hidden
            outcomes[i] = _failure(exc)
    return [outcomes[i] for i in range(len(unit))]


def _worker(conn, parent_end):
    """Run each unit sent over conn and send back its outcomes, until sent None."""
    parent_end.close()  # the fork's copy: conn reads end of file once the parent is gone
    for unit in iter(conn.recv, None):
        conn.send(_run_group(unit))


def _start_worker():
    """A forked process running _worker, and this process's end of its pipe."""
    conn, child = multiprocessing.Pipe()
    process = multiprocessing.get_context("fork").Process(target=_worker, args=(child, conn))
    process.start()
    child.close()
    return conn, process


def _run_pooled(units, workers):
    """(task, outcome) per trial of the units, run largest first on at most
    workers forked processes.

    Each worker has its own pipe and holds one unit at a time; it sends
    back the unit's outcomes alone, which are paired here with the tasks
    of the unit it held.  One that dies holding a unit fails that unit's
    trials with how it exited, and one that dies idle costs no trial; the
    next unit goes to a fresh worker.  No worker outlives this call,
    whether it returns or raises.
    """
    queue = sorted(units, key=lambda unit: len(unit) * unit[0].m, reverse=True)
    live, held, outcomes = {}, {}, []  # pipe -> worker, pipe -> its unit
    try:
        while queue or held:
            while queue and len(held) < workers:
                conn = next((c for c in live if c not in held), None)
                if conn is None:
                    conn, process = _start_worker()
                    live[conn] = process
                try:
                    conn.send(queue[0])
                except OSError:  # it died while idle; the unit goes to another
                    conn.close()
                    live.pop(conn).join()
                    continue
                held[conn] = queue.pop(0)
            for conn in multiprocessing.connection.wait(held):
                unit = held.pop(conn)
                try:
                    outcomes += zip(unit, conn.recv())
                except (EOFError, OSError):  # it died holding the unit
                    conn.close()
                    process = live.pop(conn)
                    process.join()
                    code = process.exitcode
                    how = f"signal {-code}" if code < 0 else f"code {code}"
                    crash = _failure(ChildProcessError(f"worker exited with {how}"))
                    outcomes += [(task, crash) for task in unit]
    finally:
        for conn, process in live.items():
            if conn in held:  # only when raising, so its unit is not waited for
                process.kill()
            with contextlib.suppress(OSError):
                conn.send(None)
            conn.close()
            process.join()
    return outcomes


def _execute(units, workers):
    """Run each unit; records and failures come back in CSV row order.

    workers = 0 means one per usable core.  With one worker, or one unit,
    the units run in this process; otherwise on forked workers.  Each
    trial's TrialRecord is made by one _run_trial call, in CSV row order,
    from the numbers its unit returned.
    """
    workers = min(workers or len(os.sched_getaffinity(0)), len(units))
    # forked workers inherit the pinned count; setting a count in a forked
    # child would start an OpenBLAS thread there that spins for about 0.1 s
    with _blas._blas_pinned():
        if workers <= 1:
            outcomes = [o for unit in units for o in zip(unit, _run_group(unit))]
        else:
            outcomes = _run_pooled(units, workers)
    outcomes.sort(key=lambda outcome: _trial_key(outcome[0]))
    results = [_run_trial(task, row) for task, row in outcomes if not isinstance(row, str)]
    failures = [(task, msg) for task, msg in outcomes if isinstance(msg, str)]
    if len(failures) > _FAILURE_ABORT_FRACTION * len(outcomes):
        detail = "; ".join(msg for _, msg in failures[:5])
        raise RuntimeError(
            f"{len(failures)} of {len(outcomes)} trials failed, aborting: {detail}"
        )
    return results, failures


# ---------------------------------------------------------------------------
# the sweep engine

@dataclass(frozen=True)
class _SweepSpec:
    """What distinguishes one experiment's sweep from another's.

    The sweep runs orders x lambdas x epsilons at m = lambda * base, and
    every trial of an m shares one operator and one encoder.
    paired_truth reuses each trial's truth matrix at every point.  Means
    of err_relative are grouped by the TrialRecord field group_by and
    fitted over the groups with a positive value.
    """

    experiment: int
    name: str
    base: int
    lambdas: tuple
    epsilons: tuple
    paired_truth: bool
    group_by: str
    fit_mode: str


def _check_grid(config, spec):
    """Return spec; every m must be integral, and in the encoded form >= encoder_dim.

    A fractional m would run at its rounding and be recorded at lambda;
    draw_encoder would fail every trial at a point with fewer rows.
    """
    for lam in spec.lambdas:
        if not float(lam * spec.base).is_integer():
            raise ValueError(f"m = {lam} * {spec.base} is not integral")
        if config.constraint_form == "encoded" and lam * spec.base < config.encoder_dim:
            raise ValueError(f"oversampling_grid entry {lam} gives m = {lam} * "
                             f"{spec.base} below encoder_dim {config.encoder_dim}")
    return spec


def _oversampling_spec(config):
    return _check_grid(config, _SweepSpec(
        _EXP_OVERSAMPLING, "oversampling", config.ell, config.oversampling_grid, (0.0,),
        paired_truth=True, group_by="lam", fit_mode="loglog",
    ))


def _noise_spec(config):
    return _check_grid(config, _SweepSpec(
        _EXP_NOISE, "noise", config.ell, config.oversampling_grid[:1], config.epsilon_grid,
        paired_truth=True, group_by="eps", fit_mode="semilog",
    ))


def _rate_spec(config):
    return _check_grid(config, _SweepSpec(
        _EXP_RATE, "rate_distortion", config.encoder_dim, config.oversampling_grid, (0.0,),
        paired_truth=False,
        # rate_bits follows each trial's alphabet; rate_bits_fig has one value per (r, m)
        group_by="rate_bits_fig", fit_mode="semilog",
    ))


def _sweep_tasks(config, spec):
    """Yield the sweep's tasks by order, lambda, eps and trial.

    Each seed derives from the master seed, the experiment, its role and
    the index it depends on: the lambda's for the operator, the encoder
    and an unpaired truth, and the eps's for the noise.
    """

    def seed(role, *key):
        return _derive_seed(config.master_seed, spec.experiment, role, *key)

    encoded = config.constraint_form == "encoded"
    for r, (i, lam), (j, eps), trial in itertools.product(
            config.orders, enumerate(spec.lambdas), enumerate(spec.epsilons),
            range(config.trials)):
        yield _TrialTask(
            config=config, r=r, m=int(round(lam * spec.base)), lam=lam, trial_index=trial,
            operator_seed=seed(_ROLE_OPERATOR, i),
            matrix_seed=(seed(_ROLE_MATRIX, trial) if spec.paired_truth
                         else seed(_ROLE_MATRIX, i, trial)),
            eps=eps,
            noise_seed=seed(_ROLE_NOISE, j, trial) if eps > 0 else None,
            encoder_seed=seed(_ROLE_ENCODER, i) if encoded else None,
        )


def _unit_key(task):
    """A task's unit, trials that share its J: its m, its order and whether eps > 0.

    The projected form's eps = 0 and eps > 0 trials share one J, since
    the form folds the noise ball into its radius, but they stay split
    by eps > 0 to divide the work: merged, the desk noise sweep would be
    3 units on 2 workers.
    """
    return task.m, task.r, task.eps > 0


def _sweep_units(config, spec):
    """The sweep's tasks grouped by _unit_key, each unit and the units in CSV row order."""
    units = {}
    for task in sorted(_sweep_tasks(config, spec), key=_trial_key):
        units.setdefault(_unit_key(task), []).append(task)
    return list(units.values())


def first_trial(config):
    """The oversampling sweep's first task: first order, first lambda, trial 0.

    Single-instance commands run this task, so their output matches the
    sweep's CSV row for it.
    """
    return next(_sweep_tasks(config, _oversampling_spec(config)))


def _health(records):
    """Counts of records that did not converge and that overflowed."""
    return sum(not t.converged for t in records), sum(t.overflow for t in records)


def _run_sweep(config, spec):
    """Run one experiment's trials and write its CSV and summary."""
    results, failures = _execute(_sweep_units(config, spec), config.workers)

    column = _column(spec.group_by)
    slopes = {}
    not_converged, overflowed = _health(results)
    summary = [
        f"config: master_seed={config.master_seed} form={config.constraint_form}"
        f" n={config.n1}x{config.n2} rank={config.rank} ell={config.ell}"
        f" beta={config.beta:g} mu={config.mu:g} trials={config.trials}"
        f" blas_threads={_blas._BLAS_THREADS if _blas._openblas() else 'unpinned'}",
        f"{spec.name.replace('_', '-')} sweep: {len(results)} trials,"
        f" {len(failures)} failures, {not_converged} not converged, {overflowed} overflowed",
    ]
    groups = {}  # (r, group value) -> its records, in CSV row order
    for rec in results:
        groups.setdefault((rec.r, getattr(rec, spec.group_by)), []).append(rec)
    for r in config.orders:
        means = {x: float(np.mean([t.err_relative for t in group]))
                 for (order, x), group in sorted(groups.items()) if order == r}
        fitted = [(x, err) for x, err in means.items() if x > 0]
        if len(fitted) >= 2:
            slope, intercept, r2 = fit_slope(fitted, spec.fit_mode)
            slopes[r] = slope
            summary.append(
                f"r={r}: {spec.fit_mode} slope vs {column} {slope:.6g}"
                f" intercept {intercept:.6g} R2 {r2:.4f} over {len(fitted)} points"
            )
        for x, err in means.items():
            not_converged, overflowed = _health(groups[r, x])
            flagged = (f" ({not_converged} not converged, {overflowed} overflowed)"
                       if not_converged or overflowed else "")
            summary.append(f"  {column}={x:g}: mean relative error {err:.6e}{flagged}")
    summary += [
        f"FAILED r={t.r} m={t.m} eps={t.eps:g} trial={t.trial_index}: {msg}"
        for t, msg in failures
    ]

    csv_path = write_records_csv(
        results, os.path.join(config.output_path, f"{spec.name}.csv")
    )
    summary_path = os.path.join(config.output_path, f"{spec.name}_summary.txt")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(summary) + "\n")
    return SweepResult(
        records=results,
        csv_path=csv_path,
        summary_path=summary_path,
        slopes=slopes,
        failures=failures,
    )


def run_oversampling_sweep(config):
    """Error versus oversampling factor for each quantizer order."""
    return _run_sweep(config, _oversampling_spec(config))


def run_noise_sweep(config):
    """Error versus the measurement-noise level at the first oversampling factor."""
    return _run_sweep(config, _noise_spec(config))


def run_rate_distortion(config):
    """Error versus bit rate through the Bernoulli-sketched pathway.

    The oversampling grid is read against the encoder dimension here:
    m = lambda * encoder_dim for each grid value.
    """
    config = replace(config, constraint_form="encoded")
    return _run_sweep(config, _rate_spec(config))
