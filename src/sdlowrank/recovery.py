"""Constrained nuclear-norm recovery from quantized measurements.

The program being solved is

    minimize ||Z||_*  subject to  ||shaped(M(Z) + nu - q)||_2 <= radius,
                                  ||nu||_2 <= eps * sqrt(m),

where "shaped" is one of three linear maps: the full inverse power
D^{-r}, its truncated singular projection sigma_ell P_ell V^T, or a
Bernoulli-sketched inverse power B D^{-r}.  All three reduce to a single
Euclidean ball constraint on a stacked variable x = (vec Z, nu):

    S = { x : ||J x - c||_2 <= radius }.

The solver is a two-block consensus splitting.  One block projects onto
S exactly through the SVD of J (a one-dimensional secular equation in
the singular coordinates), the other applies the nuclear-norm prox
(singular value soft-thresholding) and the noise-ball projection.  The
projection view keeps every iterate feasible for S no matter how badly
conditioned D^{-r} is, which is what breaks down for naive first-order
schemes once m and r grow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sdlowrank import noise_shaping
from sdlowrank import sensing

__all__ = [
    "SolverParams",
    "RecoveryProblem",
    "RecoverySolution",
    "FeasibilityReport",
    "recover",
    "check_feasibility",
    "best_rank_k_error",
    "reference_solve",
]

CONSTRAINT_FORMS = ("full_inverse_power", "projected", "encoded")

# materializing D^{-r} (full form with noise) is quadratic in m; refuse
# beyond this and point the caller at the projected form
DENSE_FULL_FORM_LIMIT = 4096

_REFERENCE_MAX_UNKNOWNS = 100
_REFERENCE_MAX_ROWS = 200


# residual balancing of the penalty: every _ADAPT_INTERVAL iterations, at
# most _ADAPT_CAP times, and only during the first _ADAPT_WINDOW fraction
# of the run, so the splitting ends with a fixed penalty, as its
# convergence argument requires
_ADAPT_INTERVAL = 25
_ADAPT_CAP = 40
_ADAPT_WINDOW = 0.8


@dataclass(frozen=True)
class SolverParams:
    """Iteration controls for recover.

    penalty is the consensus coupling weight; it is adapted by residual
    balancing (halved or doubled when one residual exceeds the other
    tenfold) early in the run.
    """

    max_iterations: int = 5000
    tolerance: float = 1e-6
    penalty: float = 1.0


@dataclass
class RecoveryProblem:
    """Data of one recovery instance.

    Attributes
    ----------
    operator : MeasurementOperator
    quantized : ndarray
        The quantized measurement vector q, length operator.rows.
    order : int
        The quantizer order r.
    gamma : float
        The quantizer's stability bound; radius derives from it.
    noise_bound : float
        eps >= 0; the noise ball has radius eps * sqrt(m).  Zero
        eliminates nu from the program entirely.
    constraint_form : str
        One of "full_inverse_power", "projected", "encoded".
    basis : NoiseShapingBasis, required for the projected form.
    encoder : EncoderMatrix, required for the encoded form.
    """

    operator: sensing.MeasurementOperator
    quantized: np.ndarray
    order: int
    gamma: float
    noise_bound: float = 0.0
    constraint_form: str = "projected"
    basis: object = None
    encoder: object = None

    def __post_init__(self):
        self.quantized = np.asarray(self.quantized, dtype=float)
        m = self.operator.rows
        if self.quantized.shape != (m,):
            raise ValueError(
                f"quantized must have shape ({m},), got {self.quantized.shape}"
            )
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not (self.gamma > 0):
            raise ValueError("gamma must be positive")
        if self.noise_bound < 0:
            raise ValueError("noise_bound must be nonnegative")
        if self.constraint_form not in CONSTRAINT_FORMS:
            raise ValueError(f"unknown constraint_form {self.constraint_form!r}")
        if self.constraint_form == "projected":
            if self.basis is None:
                raise ValueError("projected form requires a basis")
            if self.basis.size != m or self.basis.order != self.order:
                raise ValueError("basis size/order do not match the problem")
        if self.constraint_form == "encoded":
            if self.encoder is None:
                raise ValueError("encoded form requires an encoder")
            if self.encoder.in_dim != m:
                raise ValueError("encoder input dimension does not match m")

    @property
    def radius(self):
        """Radius of the shaped-residual ball: 3 m gamma for the encoded
        form, gamma sqrt(m) otherwise."""
        m = self.operator.rows
        if self.constraint_form == "encoded":
            return 3.0 * m * self.gamma
        return self.gamma * np.sqrt(m)

    @property
    def noise_radius(self):
        return self.noise_bound * np.sqrt(self.operator.rows)


@dataclass
class RecoverySolution:
    estimate: np.ndarray
    noise_estimate: np.ndarray
    objective: float
    residual_shaped: float
    residual_noise: float
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float


@dataclass(frozen=True)
class FeasibilityReport:
    shaped_lhs: float
    shaped_radius: float
    shaped_slack: float
    noise_lhs: float
    noise_radius: float
    noise_slack: float
    ok: bool
    messages: tuple = ()


class _TubeProjector:
    """Exact Euclidean projection onto {x : ||J x - c|| <= R}.

    Uses the economy SVD of J.  With p in singular coordinates the
    projection solves a scalar secular equation for the multiplier
    theta; components outside the row space of J pass through unchanged.
    """

    def __init__(self, J, c, R):
        if R < 0:
            raise ValueError("constraint radius must be nonnegative")
        self.R = float(R)
        U, s, Vh = np.linalg.svd(J, full_matrices=False)
        self.s = s
        self.s2 = s * s
        self.Vh = Vh
        self.cbar = U.T @ c
        self.c_perp2 = max(float(c @ c - self.cbar @ self.cbar), 0.0)

    def _phi2(self, d, theta):
        w = d / (1.0 + theta * self.s2)
        return float(w @ w) + self.c_perp2

    def __call__(self, p):
        pbar = self.Vh @ p
        d = self.s * pbar - self.cbar
        R2 = self.R ** 2
        if self._phi2(d, 0.0) <= R2:
            return p
        # bracket the multiplier, then Newton on 1/phi with bisection guard
        lo, hi = 0.0, 1.0
        while self._phi2(d, hi) > R2 and hi < 1e40:
            lo = hi
            hi *= 16.0
        if self._phi2(d, hi) > R2:
            theta = hi  # empty set; land on the closest reachable shell
        else:
            theta = np.sqrt(lo * hi) if lo > 0 else hi / 2
            R_target = self.R
            for _ in range(80):
                w = d / (1.0 + theta * self.s2)
                phi2 = float(w @ w) + self.c_perp2
                phi = np.sqrt(phi2)
                if phi > R_target:
                    lo = theta
                else:
                    hi = theta
                if abs(phi - R_target) <= 1e-13 * R_target:
                    break
                dphi2 = -2.0 * float((w * w / (1.0 + theta * self.s2)) @ self.s2)
                g = 1.0 / phi - 1.0 / R_target
                gprime = -dphi2 / (2.0 * phi * phi2)
                step = theta - g / gprime if gprime != 0 else np.inf
                if not np.isfinite(step) or not (lo < step < hi):
                    step = np.sqrt(lo * hi) if lo > 0 else 0.5 * (lo + hi)
                theta = step
        alpha = (pbar + theta * self.s * self.cbar) / (1.0 + theta * self.s2)
        return p + self.Vh.T @ (alpha - pbar)


def _shape(problem, M):
    """The form's shaping map applied to the columns (or the vector) M:
    D^{-r} M, sigma_ell V_ell^T M, or B D^{-r} M."""
    form = problem.constraint_form
    if form == "projected":
        return noise_shaping.project_shaped(M, problem.basis)
    shaped = noise_shaping.apply_inverse_power(M, problem.order)
    if form == "encoded":
        return problem.encoder.data @ shaped
    return shaped


def _noise_block(problem):
    """The shaping map as a matrix T, the constraint's block acting on nu."""
    form = problem.constraint_form
    r = problem.order
    if form == "projected":
        basis = problem.basis
        return basis.sigma_truncation * basis.right_vectors[:, :basis.truncation].T
    if form == "encoded":
        # B D^{-r} = (D^{-r,T} B^T)^T, and D^{-r,T} is D^{-r} on reversed rows
        B = problem.encoder.data
        return noise_shaping.apply_inverse_power(B[:, ::-1].T, r)[::-1].T
    m = problem.operator.rows
    if m > DENSE_FULL_FORM_LIMIT:
        raise ValueError(
            f"full_inverse_power with noise materializes an {m} x {m} "
            f"block; beyond {DENSE_FULL_FORM_LIMIT} use the projected form"
        )
    return noise_shaping.apply_inverse_power(np.eye(m), r)


def build_constraint(problem):
    """Materialize (J, c, radius) for the stacked ball constraint.

    J = [G T] acts on (vec Z, nu) with G the shaped operator and c the
    shaped quantized vector; the nu block T is omitted when noise_bound is
    zero.  The full inverse power form with noise requires a dense m x m
    block and is refused beyond DENSE_FULL_FORM_LIMIT.
    """
    J = _shape(problem, problem.operator.data)
    c = _shape(problem, problem.quantized)
    if problem.noise_bound > 0:
        J = np.concatenate([J, _noise_block(problem)], axis=1)
    return J, c, problem.radius


def _nuclear_prox(Z, tau):
    U, s, Vh = np.linalg.svd(Z, full_matrices=False)
    return (U * np.maximum(s - tau, 0.0)) @ Vh


def _ball_project(v, R):
    nv = np.linalg.norm(v)
    if nv <= R:
        return v
    if R == 0.0:
        return np.zeros_like(v)
    return v * (R / nv)


def nuclear_norm(Z):
    return float(np.linalg.svd(Z, compute_uv=False).sum())


def recover(problem, params=None, start=None):
    """Solve the recovery program and return a RecoverySolution.

    Parameters
    ----------
    problem : RecoveryProblem
    params : SolverParams, optional
    start : (Z0, nu0) pair, optional
        Warm-start point; nu0 may be None.

    The returned converged flag requires both residual criteria and an
    independent feasibility check to pass; non-convergence within
    max_iterations returns the best iterate with converged False.
    """
    if params is None:
        params = SolverParams()
    n1, n2 = problem.operator.shape
    N = n1 * n2
    m = problem.operator.rows
    with_nu = problem.noise_bound > 0
    m_nu = m if with_nu else 0
    J, c, R1 = build_constraint(problem)
    R2 = problem.noise_radius
    proj_S = _TubeProjector(J, c, R1)

    xp = np.zeros(N + m_nu)
    if start is not None:
        Z0, nu0 = start
        xp[:N] = np.asarray(Z0, dtype=float).reshape(-1, order="F")
        if with_nu and nu0 is not None:
            xp[N:] = np.asarray(nu0, dtype=float)
    u = np.zeros(N + m_nu)
    rho = params.penalty
    tol = params.tolerance
    n_adapt = 0
    stopped = False
    it = 0
    pri = dual = np.inf
    x = xp
    for it in range(1, params.max_iterations + 1):
        x = proj_S(xp - u)
        xp_old = xp
        t = x + u
        Zp = _nuclear_prox(t[:N].reshape((n1, n2), order="F"), 1.0 / rho)
        if with_nu:
            xp = np.concatenate(
                [Zp.reshape(-1, order="F"), _ball_project(t[N:], R2)]
            )
        else:
            xp = Zp.reshape(-1, order="F")
        resid = x - xp
        u = u + resid
        rz = float(np.linalg.norm(resid[:N]))
        rn = float(np.linalg.norm(resid[N:])) if with_nu else 0.0
        dual = rho * float(np.linalg.norm(xp - xp_old))
        pri = max(rz, rn)
        ok_z = rz <= tol * max(1.0, float(np.linalg.norm(x[:N])))
        ok_n = (not with_nu) or rn <= tol * max(1.0, float(np.linalg.norm(x[N:])))
        ok_d = dual <= tol * max(1.0, rho * float(np.linalg.norm(u)))
        if ok_z and ok_n and ok_d:
            stopped = True
            break
        if (
            it % _ADAPT_INTERVAL == 0
            and n_adapt < _ADAPT_CAP
            and it < _ADAPT_WINDOW * params.max_iterations
        ):
            if pri > 10.0 * dual:
                rho *= 2.0
                u /= 2.0
                n_adapt += 1
            elif dual > 10.0 * pri:
                rho /= 2.0
                u *= 2.0
                n_adapt += 1

    Z = x[:N].reshape((n1, n2), order="F")
    nu = x[N:].copy() if with_nu else np.zeros(m)
    solution = RecoverySolution(
        estimate=Z,
        noise_estimate=nu,
        objective=nuclear_norm(Z),
        residual_shaped=float(np.linalg.norm(J @ x - c)),
        residual_noise=float(np.linalg.norm(nu)),
        iterations=it,
        converged=False,
        primal_residual=pri,
        dual_residual=dual,
    )
    if stopped:
        solution.converged = check_feasibility(solution, problem).ok
    return solution


def shaped_residual_vector(problem, Z, nu=None):
    """Constraint left-hand side rebuilt from the primitive operations.

    This is the independent evaluation path used by check_feasibility:
    it applies the operator to Z and shapes the residual vector, rather
    than multiplying by the solver's materialized J.
    """
    res = sensing.apply(problem.operator, Z) - problem.quantized
    if nu is not None and nu.size:
        res = res + nu
    return _shape(problem, res)


def check_feasibility(solution, problem):
    """Recompute both constraint norms from scratch and report slack.

    Violations beyond 1e-6 relative (plus a 1e-6 absolute floor) are
    flagged; ok is True when neither constraint is flagged.
    """
    shaped = shaped_residual_vector(problem, solution.estimate, solution.noise_estimate)
    shaped_lhs = float(np.linalg.norm(shaped))
    radius = problem.radius
    noise_lhs = float(np.linalg.norm(solution.noise_estimate))
    noise_radius = problem.noise_radius
    messages = []
    if shaped_lhs > radius * (1 + 1e-6) + 1e-6:
        messages.append(
            f"shaped residual {shaped_lhs:.6e} exceeds radius {radius:.6e}"
        )
    if noise_lhs > noise_radius * (1 + 1e-6) + 1e-6:
        messages.append(
            f"noise norm {noise_lhs:.6e} exceeds radius {noise_radius:.6e}"
        )
    return FeasibilityReport(
        shaped_lhs=shaped_lhs,
        shaped_radius=float(radius),
        shaped_slack=float(radius - shaped_lhs),
        noise_lhs=noise_lhs,
        noise_radius=float(noise_radius),
        noise_slack=float(noise_radius - noise_lhs),
        ok=not messages,
        messages=tuple(messages),
    )


def best_rank_k_error(X, k):
    """Nuclear-norm tail after the best rank-k approximation."""
    X = np.asarray(X, dtype=float)
    if not (0 <= k <= min(X.shape)):
        raise ValueError(f"k must lie in [0, {min(X.shape)}]")
    s = np.linalg.svd(X, compute_uv=False)
    return float(s[k:].sum())


def reference_solve(problem):
    """High-accuracy solve for small instances, used as a test oracle.

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
    params = SolverParams(max_iterations=50000, tolerance=1e-8)
    cold = recover(problem, params)
    if not cold.converged:
        raise RuntimeError(
            "reference_solve did not converge: "
            f"iterations={cold.iterations}, primal={cold.primal_residual:.3e}, "
            f"dual={cold.dual_residual:.3e}"
        )
    warm = recover(problem, params, start=(cold.estimate, cold.noise_estimate))
    drift = abs(warm.objective - cold.objective)
    if drift > 1e-6 * max(1.0, abs(cold.objective)):
        raise RuntimeError(
            f"reference_solve cold/warm objectives disagree by {drift:.3e}"
        )
    return cold
