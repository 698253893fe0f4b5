"""Seeded experiment sweeps: quantize, recover, record, fit slopes.

One engine runs every sweep from a small per-experiment spec: derive
per-trial seeds from the master seed, run independent trials (optionally
across worker processes), sort the results deterministically, and write
one CSV plus a text summary with fitted slopes.  Reordering or
parallelizing trial execution never changes the output bytes.  A trial
is a sequence of stages (trial_instance, trial_quantize, then decoding)
that the command line reuses for single instances.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from sdlowrank import encoding
from sdlowrank import noise_shaping
from sdlowrank import recovery
from sdlowrank import sensing
from sdlowrank import sigma_delta

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "SweepResult",
    "ScalingNote",
    "load_config",
    "save_config",
    "desk_config",
    "make_low_rank",
    "measurement_scaling",
    "run_oversampling_sweep",
    "run_noise_sweep",
    "run_rate_distortion",
    "first_trial",
    "trial_instance",
    "trial_quantize",
    "trial_solve",
    "fit_slope",
    "write_records_csv",
    "read_records_csv",
]

CSV_FORMAT_LINE = "# sdlowrank-trials-v1"

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


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep definition; every field has a desk-scale default.

    mu > 0 rescales each truth matrix so the measurements fit inside
    [-mu, mu] before quantization; mu = 0 leaves the natural scale and
    lets the alphabet grow to cover the observed range.  The natural
    scale is the default because the fixed step beta is then small
    relative to the signal, which is the regime the error-decay
    experiments live in.
    """

    n1: int = 10
    n2: int = 10
    rank: int = 2
    ell: int = 80
    oversampling_grid: tuple = (2.0, 4.0, 8.0, 16.0)
    orders: tuple = (1, 2, 3)
    beta: float = 0.5
    levels: object = "auto"  # "auto", an int, or {order: int}
    gamma: object = "auto"  # "auto" means beta / 2
    epsilon_grid: tuple = (0.0, 0.25, 0.5, 1.0, 2.0)
    trials: int = 10
    master_seed: int = 12345
    constraint_form: str = "projected"
    encoder_dim: int = 80
    distribution: str = "gaussian"
    mu: float = 0.0
    operator_mode: str = "fixed"  # fixed per grid point, or fresh per trial
    solver_max_iterations: int = 5000
    solver_tolerance: float = 1e-6
    solver_penalty: float = 1.0
    workers: int = 1
    output_path: str = "results"
    cache_dir: object = None

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if len(self.orders) == 0:
            raise ValueError("orders must not be empty")
        if len(self.oversampling_grid) == 0:
            raise ValueError("oversampling_grid must not be empty")
        for lam in self.oversampling_grid:
            if not float(lam * self.ell).is_integer():
                raise ValueError(f"m = {lam} * {self.ell} is not integral")
        if any(e < 0 for e in self.epsilon_grid):
            raise ValueError("epsilon_grid entries must be nonnegative")
        if self.operator_mode not in ("fixed", "fresh"):
            raise ValueError("operator_mode must be 'fixed' or 'fresh'")
        if self.constraint_form not in recovery.CONSTRAINT_FORMS:
            raise ValueError(f"unknown constraint_form {self.constraint_form!r}")

    def gamma_value(self):
        return self.beta / 2 if self.gamma == "auto" else float(self.gamma)

    def levels_for(self, order, observed_max):
        if self.levels == "auto":
            return sigma_delta.required_levels(observed_max, self.beta, order)
        if isinstance(self.levels, dict):
            return int(self.levels[order])
        return int(self.levels)

    def solver_params(self):
        return recovery.SolverParams(
            max_iterations=self.solver_max_iterations,
            tolerance=self.solver_tolerance,
            penalty=self.solver_penalty,
        )


@dataclass(frozen=True)
class TrialRecord:
    """One pipeline run.  Field order fixes the CSV column order."""

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
    rate_bits: object = None
    rate_bits_fig: object = None
    overflow: bool = False
    iterations: int = 0
    converged: bool = False
    scale: float = 1.0
    encoder_dim: object = None
    encoder_seed: object = None


@dataclass
class SweepResult:
    records: list
    csv_path: str
    summary_path: str
    plot_path: str
    slopes: dict
    failures: list


@dataclass(frozen=True)
class ScalingNote:
    scale: float
    measured_max: float
    message: str = ""


# ---------------------------------------------------------------------------
# config file round trip (flat key=value text)

def _parse_levels(text):
    if text == "auto":
        return "auto"
    if ":" in text:
        out = {}
        for piece in text.split(","):
            key, val = piece.split(":")
            out[int(key)] = int(val)
        return out
    return int(text)


def _parse_value(key, text):
    """Parse a config value as the type of the field's default."""
    if key == "levels":
        return _parse_levels(text)
    if key == "gamma":
        return "auto" if text == "auto" else float(text)
    if key == "cache_dir":
        return text or None
    default = getattr(ExperimentConfig, key)
    if isinstance(default, tuple):
        return tuple(type(default[0])(x) for x in text.split(",") if x.strip())
    return type(default)(text)


def load_config(path, **overrides):
    """Read a flat key=value config file into an ExperimentConfig."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            values[key] = val
    known = {f.name for f in fields(ExperimentConfig)}
    parsed = {}
    for key, val in values.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        parsed[key] = _parse_value(key, val)
    parsed.update(overrides)
    return ExperimentConfig(**parsed)


def save_config(config, path):
    lines = []
    for f in fields(ExperimentConfig):
        val = getattr(config, f.name)
        if val is None:
            continue
        if isinstance(val, tuple):
            text = ",".join(_format_cell(x) for x in val)
        elif f.name == "levels" and isinstance(val, dict):
            text = ",".join(f"{k}:{v}" for k, v in sorted(val.items()))
        else:
            text = str(val)
        lines.append(f"{f.name} = {text}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def desk_config(**overrides):
    return ExperimentConfig(**overrides)


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


def measurement_scaling(X, op, mu=0.9):
    """Rescale X so the measurement vector has max magnitude mu.

    Keeps the quantizer inside its certified input range.  Zero input is
    returned unchanged with an explanatory note.
    """
    y = sensing.apply(op, X)
    ymax = float(np.max(np.abs(y))) if y.size else 0.0
    if ymax == 0.0:
        return X, ScalingNote(scale=1.0, measured_max=0.0, message="zero input unchanged")
    scale = mu / ymax
    return X * scale, ScalingNote(scale=scale, measured_max=ymax)


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


def write_records_csv(records, path):
    """Write records sorted and formatted deterministically."""
    ordered = sorted(records, key=_trial_key)
    names = [f.name for f in fields(TrialRecord)]
    lines = [CSV_FORMAT_LINE, ",".join(_column(n) for n in names)]
    for rec in ordered:
        lines.append(",".join(_format_cell(getattr(rec, n)) for n in names))
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _parse_cell(name, text):
    if text == "":
        return None
    if name in ("r", "m", "ell", "trial_index", "seed", "iterations",
                "rate_bits", "rate_bits_fig", "encoder_dim", "encoder_seed"):
        return int(text)
    if name in ("overflow", "converged"):
        return text == "1"
    return float(text)


def read_records_csv(path):
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != CSV_FORMAT_LINE:
        raise ValueError(f"{path}: missing format line {CSV_FORMAT_LINE!r}")
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    header = body[0].split(",")
    names = [("lam" if h == "lambda" else h) for h in header]
    for row in body[1:]:
        cells = row.split(",")
        kwargs = {n: _parse_cell(n, c) for n, c in zip(names, cells)}
        records.append(TrialRecord(**kwargs))
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
    encoder_dim: object = None


def _trial_key(item):
    """Sort key of a task or record; the CSV row order."""
    return (item.r, item.m, item.eps, item.trial_index)


def _trial_basis(config, m, r):
    cache_dir = config.cache_dir
    if cache_dir is None:
        cache_dir = os.path.join(config.output_path, "basis_cache")
    return noise_shaping.compute_basis(
        m, r, truncation=min(config.ell, m), cache_dir=cache_dir
    )


def trial_instance(task):
    """Draw, scale and measure one trial's truth, then add its noise.

    Returns (operator, truth, scale, measurements).  mu > 0 scales the
    truth so the clean measurements peak at mu; the measurements carry
    the task's bounded noise when eps > 0.
    """
    config = task.config
    op = sensing.draw_operator(
        task.m, config.n1, config.n2, config.distribution, task.operator_seed
    )
    X = make_low_rank(config.n1, config.n2, config.rank, task.matrix_seed)
    scale = 1.0
    if config.mu > 0:
        X, note = measurement_scaling(X, op, config.mu)
        scale = note.scale
    y = sensing.apply(op, X)
    if task.eps > 0 and task.noise_seed is not None:
        noise = np.random.default_rng(task.noise_seed).uniform(0.0, 1.0, task.m)
        y = y + noise * (task.eps / np.max(noise))
    return op, X, scale, y


def trial_quantize(task, y):
    """Quantize y at the task's order with the config's beta, levels and gamma.

    Returns (scheme, run); the scheme carries gamma, the state bound the
    decoder's radius is built from.
    """
    config = task.config
    L = config.levels_for(task.r, float(np.max(np.abs(y))))
    alphabet = sigma_delta.build_alphabet(L, config.beta)
    scheme = sigma_delta.SigmaDeltaScheme(task.r, alphabet, config.gamma_value())
    return scheme, sigma_delta.quantize(y, scheme)


def trial_solve(task, basis=None):
    """Run one trial through decoding; return (TrialRecord, RecoverySolution).

    basis is the projected form's noise-shaping basis at (task.m, task.r);
    a trial run on its own builds it (or reads it from the cache).
    """
    config = task.config
    m, r = task.m, task.r
    op, X, scale, y = trial_instance(task)
    scheme, run = trial_quantize(task, y)

    encoder = None
    rate_bits = rate_bits_fig = None
    if config.constraint_form == "projected" and basis is None:
        basis = _trial_basis(config, m, r)
    if config.constraint_form == "encoded":
        encoder = encoding.draw_encoder(task.encoder_dim, m, task.encoder_seed)
        coded = encoding.encode(run.output, r, encoder, scheme.alphabet.max_level)
        rate_bits = coded.rate_bits
        rate_bits_fig = encoding.rate_bits_plotted(task.encoder_dim, r, m)
    problem = recovery.RecoveryProblem(
        operator=op,
        quantized=run.output,
        order=r,
        gamma=scheme.stability_constant,
        noise_bound=task.eps,
        constraint_form=config.constraint_form,
        basis=basis,
        encoder=encoder,
    )
    if encoder is not None:
        # the true pair must satisfy the sketched constraint; this is a
        # guaranteed consequence of stability and the encoder norm bound
        truth_lhs = np.linalg.norm(encoder.data @ run.state)
        if not run.overflow and encoder.norm_ok and truth_lhs > problem.radius:
            raise RuntimeError(
                f"truth violates the sketched constraint: {truth_lhs:.3e}"
            )
    solution = recovery.recover(problem, config.solver_params())
    err = float(np.linalg.norm(solution.estimate - X))
    truth_norm = float(np.linalg.norm(X))
    record = TrialRecord(
        r=r, m=m, ell=config.ell, lam=task.lam, trial_index=task.trial_index,
        seed=task.matrix_seed, err_frobenius=err,
        err_relative=err / truth_norm if truth_norm else 0.0,
        objective=solution.objective,
        sigma_k_tail=recovery.best_rank_k_error(X, config.rank), eps=task.eps,
        rate_bits=rate_bits, rate_bits_fig=rate_bits_fig, overflow=run.overflow,
        iterations=solution.iterations, converged=solution.converged, scale=scale,
        encoder_dim=task.encoder_dim, encoder_seed=task.encoder_seed,
    )
    return record, solution


def _run_trial(task, basis=None):
    """One sweep trial: trial_solve's TrialRecord, the task's CSV row."""
    return trial_solve(task, basis)[0]


def _failure(exc):
    return f"{type(exc).__name__}: {exc}"


def _attempt(task, basis=None):
    """(record, None) for a trial that ran, (task, message) for one that raised."""
    try:
        return _run_trial(task, basis), None
    except Exception as exc:  # noqa: BLE001 - recorded, not hidden
        return task, _failure(exc)


def _run_group(group, pool):
    """Outcomes of one (r, m) group's trials, which share one basis.

    The basis is built (or read from the cache) once for the group and
    dropped when the group is done, so a process holds at most one.  If
    it cannot be built, every trial of the group fails with that error.
    """
    first = group[0]
    basis = None
    if first.config.constraint_form == "projected":
        try:
            basis = _trial_basis(first.config, first.m, first.r)
        except Exception as exc:  # noqa: BLE001 - recorded per trial, not hidden
            return [(task, _failure(exc)) for task in group]
    bases = itertools.repeat(basis, len(group))
    return list((map if pool is None else pool.map)(_attempt, group, bases))


def _execute(tasks, workers):
    """Run every task; results and failures come back in CSV row order."""
    groups = [list(g) for _, g in itertools.groupby(tasks, key=lambda t: (t.r, t.m))]
    if workers <= 1:
        outcomes = [o for group in groups for o in _run_group(group, None)]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = [o for group in groups for o in _run_group(group, pool)]
    results = sorted((rec for rec, msg in outcomes if msg is None), key=_trial_key)
    failures = sorted(((task, msg) for task, msg in outcomes if msg is not None),
                      key=lambda failure: _trial_key(failure[0]))
    if len(failures) > _FAILURE_ABORT_FRACTION * len(tasks):
        detail = "; ".join(msg for _, msg in failures[:5])
        raise RuntimeError(
            f"{len(failures)} of {len(tasks)} trials failed, aborting: {detail}"
        )
    return results, failures


# ---------------------------------------------------------------------------
# the sweep engine

@dataclass(frozen=True)
class _SweepSpec:
    """What distinguishes one experiment's sweep from another's.

    points are the (lam, m, eps) grid points, swept for every order.
    shared_operator draws one operator for all points (fixed mode) instead
    of one per point; paired_truth reuses each trial's truth matrix at
    every point.  Means of err_relative are grouped by the TrialRecord
    field group_by and fitted over the groups with a positive value.
    """

    experiment: int
    name: str
    points: tuple
    shared_operator: bool
    paired_truth: bool
    group_by: str
    fit_mode: str
    x_label: str


def _oversampling_spec(config):
    return _SweepSpec(
        _EXP_OVERSAMPLING, "oversampling",
        tuple((lam, int(round(lam * config.ell)), 0.0)
              for lam in config.oversampling_grid),
        shared_operator=False, paired_truth=True,
        group_by="lam", fit_mode="loglog", x_label="oversampling factor",
    )


def _noise_spec(config):
    lam = config.oversampling_grid[0]
    m = int(round(lam * config.ell))
    return _SweepSpec(
        _EXP_NOISE, "noise", tuple((lam, m, eps) for eps in config.epsilon_grid),
        shared_operator=True, paired_truth=True,
        group_by="eps", fit_mode="semilog", x_label="noise level",
    )


def _rate_spec(config):
    if config.encoder_dim < 1:
        raise ValueError("encoder_dim must be set for rate-distortion runs")
    return _SweepSpec(
        _EXP_RATE, "rate_distortion",
        tuple((lam, int(round(lam * config.encoder_dim)), 0.0)
              for lam in config.oversampling_grid),
        shared_operator=False, paired_truth=False,
        # rate_bits follows each trial's alphabet; rate_bits_fig has one value per (r, m)
        group_by="rate_bits_fig", fit_mode="semilog", x_label="rate L_enc r ln m (bits)",
    )


def _sweep_tasks(config, spec):
    """Yield the sweep's tasks by order, grid point and trial.

    Each seed derives from the master seed, the experiment, its role and
    the indices it depends on, so no task's seeds depend on the others.
    """

    def seed(role, *key):
        return _derive_seed(config.master_seed, spec.experiment, role, *key)

    fresh = config.operator_mode == "fresh"
    encoded = config.constraint_form == "encoded"
    for r in config.orders:
        for i, (lam, m, eps) in enumerate(spec.points):
            for trial in range(config.trials):
                if spec.shared_operator:
                    op_key = (0, i, trial) if fresh else (0,)
                else:
                    op_key = (i, trial) if fresh else (i,)
                yield _TrialTask(
                    config=config, r=r, m=m, lam=lam, trial_index=trial,
                    operator_seed=seed(_ROLE_OPERATOR, *op_key),
                    matrix_seed=(seed(_ROLE_MATRIX, trial) if spec.paired_truth
                                 else seed(_ROLE_MATRIX, i, trial)),
                    eps=eps,
                    noise_seed=seed(_ROLE_NOISE, i, trial) if eps > 0 else None,
                    encoder_seed=seed(_ROLE_ENCODER, i) if encoded else None,
                    encoder_dim=config.encoder_dim if encoded else None,
                )


def first_trial(config):
    """The oversampling sweep's first task: first order, first lambda, trial 0.

    Single-instance commands run this task, so their output matches the
    sweep's CSV row for it.
    """
    return next(_sweep_tasks(config, _oversampling_spec(config)))


def _mean_errors(records, key):
    """Group err_relative by key(record) and average within groups."""
    groups = {}
    for rec in records:
        groups.setdefault(key(rec), []).append(rec.err_relative)
    return {k: float(np.mean(v)) for k, v in sorted(groups.items())}


def _run_sweep(config, spec):
    """Run one experiment's trials and write its CSV, summary and plot."""
    results, failures = _execute(list(_sweep_tasks(config, spec)), config.workers)

    column = _column(spec.group_by)
    slopes = {}
    summary = [
        f"config: master_seed={config.master_seed} form={config.constraint_form}"
        f" n={config.n1}x{config.n2} rank={config.rank} ell={config.ell}"
        f" beta={config.beta:g} mu={config.mu:g} trials={config.trials}",
        f"{spec.name.replace('_', '-')} sweep: {len(results)} trials,"
        f" {len(failures)} failures",
    ]
    for r in config.orders:
        means = _mean_errors(
            [t for t in results if t.r == r], key=lambda t: getattr(t, spec.group_by)
        )
        fitted = [(x, err) for x, err in means.items() if x > 0]
        if len(fitted) >= 2:
            slope, intercept, r2 = fit_slope(fitted, spec.fit_mode)
            slopes[r] = slope
            summary.append(
                f"r={r}: {spec.fit_mode} slope vs {column} {slope:.6g}"
                f" intercept {intercept:.6g} R2 {r2:.4f} over {len(fitted)} points"
            )
        summary += [f"  {column}={x:g}: mean relative error {err:.6e}"
                    for x, err in means.items()]
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
    plot_path = os.path.join(config.output_path, f"plot_{spec.name}.py")
    with open(plot_path, "w", encoding="utf-8") as fh:
        fh.write(_plot_script(f"{spec.name}.csv", spec.fit_mode, column, spec.x_label))
    return SweepResult(
        records=results,
        csv_path=csv_path,
        summary_path=summary_path,
        plot_path=plot_path,
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
    return _run_sweep(replace(config, constraint_form="encoded"), _rate_spec(config))


def _plot_script(csv_name, kind, x_col, x_label):
    return f'''"""Self-contained plot for {csv_name}; needs only matplotlib."""
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(lambda: defaultdict(list))
with open("{csv_name}", "r", encoding="utf-8") as fh:
    rows = [r for r in fh if r.strip() and not r.startswith("#")]
reader = csv.DictReader(rows)
for row in reader:
    x = float(row["{x_col}"])
    series[int(row["r"])][x].append(float(row["err_relative"]))

fig, ax = plt.subplots()
for r in sorted(series):
    xs = sorted(series[r])
    ys = [sum(series[r][x]) / len(series[r][x]) for x in xs]
    ax.plot(xs, ys, marker="o", label=f"r={{r}}")
kind = "{kind}"
if kind == "loglog":
    ax.set_xscale("log")
    ax.set_yscale("log")
elif kind == "semilog":
    ax.set_yscale("log")
ax.set_xlabel("{x_label}")
ax.set_ylabel("mean relative error")
ax.legend()
ax.grid(True, which="both", alpha=0.3)
fig.savefig("{csv_name}".replace(".csv", ".png"), dpi=150)
print("wrote", "{csv_name}".replace(".csv", ".png"))
'''
