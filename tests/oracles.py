"""Reference implementations that only tests call.

Each is the plain, slow route to something the package computes faster or
composes from its primitives: the quantizer loop built on a per-sample
nearest-level search, a high-accuracy solve with a cold/warm agreement
check, and the measurement operator composed with the scaled singular
projection.  save_config writes the flat key=value format that
harness.load_config reads.  FACTOR_CASES names one grid point of each
decoder form for the tests that compare solves across a point.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from sdlowrank import harness
from sdlowrank import recovery

_REFERENCE_MAX_UNKNOWNS = 100
_REFERENCE_MAX_ROWS = 200

# one grid point of each decoder form: (constraint_form, eps)
FACTOR_CASES = [("projected", 0.0), ("projected", 0.5), ("encoded", 0.0),
                ("full_inverse_power", 0.0)]
FACTOR_IDS = ["projected", "projected-noise", "encoded", "full"]


def scalar_quantize(z, alphabet):
    """Nearest alphabet level to z; exact ties resolve to the larger level.

    The candidate index comes from integer arithmetic on z / step and is
    then refined by comparing against its neighbors, so the argmin and
    tie-break contracts hold even when z / step rounds poorly.
    """
    if not np.isfinite(z):
        raise ValueError("scalar_quantize requires a finite input")
    values = alphabet.values
    top = len(values) - 1
    j = int(np.floor(z / alphabet.step)) + alphabet.num_levels_half
    j = min(max(j, 0), top)
    best = j
    for cand in (j - 1, j + 1):
        if 0 <= cand <= top:
            d_best = abs(values[best] - z)
            d_cand = abs(values[cand] - z)
            if d_cand < d_best or (d_cand == d_best and values[cand] > values[best]):
                best = cand
    return float(values[best])


def reference_quantize(y, scheme):
    """The greedy recursion sample by sample on numpy scalars, one
    scalar_quantize call per sample; returns (q, u, overflow) as quantize
    would."""
    y = np.asarray(y, dtype=float)
    r = scheme.order
    coeffs = [(-1) ** (j + 1) * math.comb(r, j) for j in range(1, r + 1)]
    m = y.size
    q = np.empty(m)
    u = np.empty(m)
    for i in range(m):
        v = y[i]
        for j in range(1, min(r, i) + 1):
            v += coeffs[j - 1] * u[i - j]
        q[i] = scalar_quantize(v, scheme.alphabet)
        u[i] = v - q[i]
    alphabet = scheme.alphabet
    rounding = 4 * np.finfo(float).eps * (alphabet.max_level + alphabet.step)
    overflow = bool(np.max(np.abs(u)) > scheme.stability_constant + rounding)
    return q, u, overflow


def reference_solve(problem):
    """High-accuracy solve for small instances.

    Restricted to n1 * n2 <= 100 and m <= 200.  Solves at tolerance
    1e-8 with a tenfold iteration budget, then re-solves warm from the
    result and insists the objective moves by less than 1e-6.  Raises on
    non-convergence instead of returning a doubtful answer.
    """
    n1, n2 = problem.operator.shape
    if n1 * n2 > _REFERENCE_MAX_UNKNOWNS or problem.operator.rows > _REFERENCE_MAX_ROWS:
        raise ValueError(
            "reference_solve accepts only n1*n2 <= "
            f"{_REFERENCE_MAX_UNKNOWNS} and m <= {_REFERENCE_MAX_ROWS}"
        )
    params = recovery.SolverParams(max_iterations=50000, tolerance=1e-8)
    cold = recovery.recover(problem, params)
    if not cold.converged:
        raise RuntimeError(
            "reference_solve did not converge: "
            f"iterations={cold.iterations}, primal={cold.primal_residual:.3e}, "
            f"dual={cold.dual_residual:.3e}"
        )
    warm = recovery.recover(problem, params, start=(cold.estimate, cold.noise_estimate))
    drift = abs(warm.objective - cold.objective)
    if drift > 1e-6 * max(1.0, abs(cold.objective)):
        raise RuntimeError(
            f"reference_solve cold/warm objectives disagree by {drift:.3e}"
        )
    return cold


@dataclass(frozen=True)
class ComposedOperator:
    """The map X -> (1/sqrt(ell)) P_ell V^T M(X), itself operator-like."""

    rows: int
    shape: tuple
    data: np.ndarray = field(repr=False)


def composed_operator(op, basis, ell):
    """Compose the operator with the scaled singular projection.

    Returns the map X -> (1/sqrt(ell)) P_ell V^T M(X) with a dense
    ell x (n1 n2) representation, so sensing.apply and
    sensing.empirical_rip work on it unchanged.
    """
    if basis.size != op.rows:
        raise ValueError("basis size must equal the operator row count")
    if not (1 <= ell <= op.rows):
        raise ValueError("ell must lie in [1, m]")
    Vt = basis.right_vectors[:, :ell].T
    data = (Vt @ op.data) / np.sqrt(ell)
    return ComposedOperator(rows=ell, shape=tuple(op.shape), data=data)


def save_config(config, path):
    """Write every set field of config as one key = value line."""
    lines = []
    for f in fields(harness.ExperimentConfig):
        val = getattr(config, f.name)
        if val is None:
            continue
        if isinstance(val, tuple):
            text = ",".join(str(x) for x in val)
        else:
            text = str(val)
        lines.append(f"{f.name} = {text}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
