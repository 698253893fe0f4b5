"""Constrained nuclear-norm recovery from quantized measurements.

The program being solved is

    minimize ||Z||_*  subject to  ||shaped(M(Z) + nu - q)||_2 <= radius,
                                  ||nu||_2 <= eps * sqrt(m),

where "shaped" is one of three linear maps, picked by the problem's
inputs: the full inverse power D^{-r} (neither), its truncated singular
projection sigma_ell P_ell V^T (a basis), or a Bernoulli-sketched B D^{-r}
(an encoder).  All three reduce to a single Euclidean ball constraint on
a stacked variable x = (vec Z, nu):

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

import math
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
]

# materializing D^{-r} (full form with noise) is quadratic in m; refuse
# beyond this and point the caller at the projected form
DENSE_FULL_FORM_LIMIT = 4096

# the tube projection's largest multiplier; at it the projection lands on
# the closest reachable shell when the tube is empty
_THETA_CAP = 1e40


# residual balancing of the penalty, which starts at 1.0: every
# _ADAPT_INTERVAL iterations, at most _ADAPT_CAP times, and only during
# the first _ADAPT_WINDOW fraction of the run, so the splitting ends with
# a fixed penalty, as its convergence argument requires
_ADAPT_INTERVAL = 25
_ADAPT_CAP = 40
_ADAPT_WINDOW = 0.8


@dataclass(frozen=True)
class SolverParams:
    """Iteration controls for recover."""

    max_iterations: int = 5000
    tolerance: float = 1e-6


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
    basis : NoiseShapingBasis, optional; selects the projected form.
    encoder : EncoderMatrix, optional; selects the encoded form.  With
        neither, the constraint is the full inverse power D^{-r}.
    """

    operator: sensing.MeasurementOperator
    quantized: np.ndarray
    order: int
    gamma: float
    noise_bound: float = 0.0
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
        if self.basis is not None and self.encoder is not None:
            raise ValueError("pass a basis or an encoder, not both")
        if self.basis is not None:
            if self.basis.size != m or self.basis.order != self.order:
                raise ValueError("basis size/order do not match the problem")
        if self.encoder is not None:
            if self.encoder.in_dim != m:
                raise ValueError("encoder input dimension does not match m")

    @property
    def radius(self):
        """Radius of the shaped-residual ball: 3 m gamma for the encoded
        form, gamma sqrt(m) otherwise."""
        m = self.operator.rows
        if self.encoder is not None:
            return 3.0 * m * self.gamma
        return self.gamma * np.sqrt(m)

    @property
    def noise_radius(self):
        return self.noise_bound * np.sqrt(self.operator.rows)


@dataclass
class RecoverySolution:
    """Result of recover.

    feasibility is check_feasibility's report on the returned point;
    penalty_changes counts the residual-balancing updates of the penalty;
    secular_steps counts the tube projection's Newton evaluations of its
    secular function, summed over the solve.
    """

    estimate: np.ndarray
    noise_estimate: np.ndarray
    objective: float
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float
    feasibility: FeasibilityReport
    penalty_changes: int = 0
    secular_steps: int = 0


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

    The solve is safeguarded Newton on 1/phi(theta) - 1/R, as for the
    trust-region step of More and Sorensen (SIAM J. Sci. Stat. Comput.
    1983), started from the theta of this projector's previous active
    projection: consecutive ADMM inputs are close, so theta moves little
    and two or three evaluations usually meet the 1e-13 R stopping rule.
    theta is that warm start; steps counts the evaluations of phi in the
    Newton loop, not the feasibility test at theta = 0.
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
        self.theta = 1.0
        self.steps = 0

    def __call__(self, p):
        pbar = self.Vh @ p
        d = self.s * pbar - self.cbar
        R = self.R
        if float(d @ d) + self.c_perp2 <= R ** 2:
            return p
        # phi decreases in theta; [lo, hi] brackets the root and tightens
        # with each evaluation, and hi stays unbounded until phi <= R
        theta, lo, hi = self.theta, 0.0, math.inf
        for _ in range(80):
            den = 1.0 + theta * self.s2
            w = d / den
            phi2 = float(w @ w) + self.c_perp2
            phi = math.sqrt(phi2)
            self.steps += 1
            if phi > R:
                lo = theta
                if theta >= _THETA_CAP:
                    break  # empty set; land on the closest reachable shell
            else:
                hi = theta
            if abs(phi - R) <= 1e-13 * R:
                break
            # Newton on g = 1/phi - 1/R, with g' = -phi'/phi^2
            gprime = float((w * w / den) @ self.s2) / (phi * phi2)
            step = theta - (1.0 / phi - 1.0 / R) / gprime if gprime > 0 else math.inf
            if not (lo < step < hi):
                if hi == math.inf:
                    step = 16.0 * lo
                else:
                    step = math.sqrt(lo * hi) if lo > 0 else 0.5 * hi
            theta = min(step, _THETA_CAP)
        self.theta = theta
        alpha = (pbar + theta * self.s * self.cbar) / (1.0 + theta * self.s2)
        return p + self.Vh.T @ (alpha - pbar)


def _shape(problem, M):
    """The form's shaping map applied to the columns (or the vector) M:
    D^{-r} M, sigma_ell V_ell^T M, or B D^{-r} M."""
    if problem.basis is not None:
        return noise_shaping.project_shaped(M, problem.basis)
    shaped = noise_shaping.apply_inverse_power(M, problem.order)
    if problem.encoder is not None:
        return problem.encoder.data @ shaped
    return shaped


def _noise_block(problem):
    """The shaping map as a matrix T, the constraint's block acting on nu."""
    r = problem.order
    if problem.basis is not None:
        return problem.basis.sigma_truncation * problem.basis.right_vectors.T
    if problem.encoder is not None:
        # B D^{-r} = (D^{-r,T} B^T)^T, and D^{-r,T} is D^{-r} on reversed rows
        B = problem.encoder.data
        return noise_shaping.apply_inverse_power(B[:, ::-1].T, r)[::-1].T
    m = problem.operator.rows
    if m > DENSE_FULL_FORM_LIMIT:
        raise ValueError(
            f"the full form with noise materializes an {m} x {m} block; "
            f"beyond {DENSE_FULL_FORM_LIMIT} pass a basis (the projected form)"
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


def _norm(v):
    # what np.linalg.norm computes for a 1-d float vector, without its overhead
    return math.sqrt(v @ v)


def _ball_project(v, R):
    nv = _norm(v)
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

    The returned converged flag requires both residual criteria and the
    feasibility check of the returned point to pass; non-convergence
    within max_iterations returns the last iterate with converged False.
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
    rho = 1.0
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
        rz = _norm(resid[:N])
        rn = _norm(resid[N:]) if with_nu else 0.0
        dual = rho * _norm(xp - xp_old)
        pri = max(rz, rn)
        ok_z = rz <= tol * max(1.0, _norm(x[:N]))
        ok_n = (not with_nu) or rn <= tol * max(1.0, _norm(x[N:]))
        ok_d = dual <= tol * max(1.0, rho * _norm(u))
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
    report = check_feasibility(problem, Z, nu)
    return RecoverySolution(
        estimate=Z,
        noise_estimate=nu,
        objective=nuclear_norm(Z),
        iterations=it,
        converged=stopped and report.ok,
        primal_residual=pri,
        dual_residual=dual,
        feasibility=report,
        penalty_changes=n_adapt,
        secular_steps=proj_S.steps,
    )


def shaped_residual_vector(problem, Z, nu):
    """Constraint left-hand side rebuilt from the primitive operations.

    This is the independent evaluation path used by check_feasibility:
    it applies the operator to Z and shapes the residual vector, rather
    than multiplying by the solver's materialized J.
    """
    res = sensing.apply(problem.operator, Z) - problem.quantized + nu
    return _shape(problem, res)


def check_feasibility(problem, Z, nu):
    """Evaluate both constraints at the point (Z, nu) and report slack.

    recover runs it on the point it returns, trial_solve on the truth.
    Violations beyond 1e-6 relative (plus a 1e-6 absolute floor) are
    flagged; ok is True when neither constraint is flagged.
    """
    shaped = shaped_residual_vector(problem, Z, nu)
    shaped_lhs = float(np.linalg.norm(shaped))
    radius = problem.radius
    noise_lhs = float(np.linalg.norm(nu))
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

