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

J and its SVD depend on the operator, the basis or encoder, the order
and whether nu is present, but not on q.  recover_batch takes problems
that share these, so one J, builds J and its SVD once and forms only
each problem's own c.  It solves its problems together: each iteration
steps every problem still running as one row of (B, n) arrays, with one
stacked SVD for all the nuclear prox steps, and a problem leaves the
batch when it stops.  A row's scalars live in its _Row record, and one
statement of _admm drops finished rows from the records and every array
together: new per-row state is a _Row field, or one more entry in that
statement if it is an array.  Each row's products are taken by kernels
that compute a row alone (np.matvec, np.vecdot and the stacked SVD run
one BLAS or LAPACK call per row), and its scalar tests are Python float
arithmetic, so every problem gets the bits it gets on its own; a 2-d
gemm over the batch would round differently as the batch changed.
recover is recover_batch on a batch of one.

In J = [G T] the nu block T is far smaller than G (about sqrt(N) times in
Frobenius norm at desk size), and a single-penalty splitting crawls in
such a metric.  So with nu present recover_batch scales T by
kappa = ||G||_F / ||T||_F before its SVD and solves for nu' = nu / kappa,
the noise ball's radius divided by kappa: an exact change of variables
(Giselsson and Boyd, IEEE TAC 2017), so the program and its minimizer are
those of the unscaled J and only the metric ADMM works in changes.  The
stopping test reads nu's residual and norm times kappa, in the problem's
own units, and the returned noise estimate is kappa nu'.

The splitting is Douglas-Rachford on the variable t = x + u, and each
row's t is Anderson-accelerated (type II, after Fu, Zhang and Boyd, SIAM
J. Sci. Comput. 2020): from the row's last _ANDERSON_MEMORY steps the
solver fits the fixed-point residual by least squares and moves the prox
input by the correction it implies.  A row forgets that history when its
penalty changes, undoes a corrected step after which its residual grew,
and skips a correction far longer than the residual.  The memory is a
module constant, not a SolverParams field: no sweep varies it, and the
tests that pin the plain splitting set it to 0, at which the loop is the
plain one bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sdlowrank import noise_shaping
from sdlowrank import sensing

__all__ = [
    "SolverParams",
    "RecoveryProblem",
    "RecoverySolution",
    "FeasibilityReport",
    "recover",
    "recover_batch",
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

# Anderson acceleration of each row's Douglas-Rachford variable over its
# last _ANDERSON_MEMORY steps (see _Anderson); a constant, not a
# SolverParams field, because only the tests that pin the plain splitting
# set it (to 0).  The least-squares fit carries a Tikhonov term of
# _ANDERSON_RIDGE times the trace of its Gram matrix, and a correction
# longer than _ANDERSON_CAP times the fixed-point residual is not taken.
_ANDERSON_MEMORY = 5
_ANDERSON_RIDGE = 1e-10
_ANDERSON_CAP = 1e3


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
        if not np.all(np.isfinite(self.quantized)):
            raise ValueError("quantized must be finite")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        # nan fails both tests: a nan noise_bound would read as no noise
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0 <= self.noise_bound < math.inf:
            raise ValueError(
                f"noise_bound must be nonnegative and finite, got {self.noise_bound}")
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
    secular function, summed over the solve; anderson_rejections counts
    the accelerated steps the solver undid, because the fixed-point
    residual grew, or did not take, because the correction was too long.
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
    anderson_rejections: int = 0


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


def _constraint_matrix(problem):
    """The constraint matrix J = [G T]: the shaped operator G, and the nu
    block T when noise_bound is positive."""
    J = _shape(problem, problem.operator.data)
    if problem.noise_bound > 0:
        J = np.concatenate([J, _noise_block(problem)], axis=1)
    return J


def build_constraint(problem):
    """(J, c, radius) for the stacked ball constraint.

    J = [G T] acts on (vec Z, nu) with G the shaped operator; the nu block
    T is omitted when noise_bound is zero.  c is the shaped quantized
    vector.  The full inverse power form with noise requires a dense
    m x m block and is refused beyond DENSE_FULL_FORM_LIMIT.
    """
    return _constraint_matrix(problem), _shape(problem, problem.quantized), problem.radius


def _sumsq(A):
    """[A[b] @ A[b] for each row b], as Python floats.

    np.vecdot takes one BLAS dot product per row, so each value has the
    bits of that row's product alone, at any batch size; a 2-d gemm or
    (A * A).sum(1) would not.
    """
    return np.vecdot(A, A).tolist()


def _stacked_svd(Z):
    """The thin SVD of each matrix of the stack Z, and {index: LinAlgError}.

    A matrix whose SVD fails gets zero factors and its own error, and the
    others keep the bits of the stacked call.
    """
    try:
        return np.linalg.svd(Z, full_matrices=False), {}
    except np.linalg.LinAlgError:
        pass
    k = min(Z.shape[1:])
    factors, errors = [], {}
    for b, matrix in enumerate(Z):
        try:
            factors.append(np.linalg.svd(matrix, full_matrices=False))
        except np.linalg.LinAlgError as exc:
            errors[b] = exc
            factors.append((np.zeros((Z.shape[1], k)), np.zeros(k), np.zeros((k, Z.shape[2]))))
    return tuple(np.stack(f) for f in zip(*factors)), errors


def _nuclear_prox(Z, tau):
    """Singular value soft-thresholding of each matrix Z[b] at tau[b].

    Returns the stack of proximal points and _stacked_svd's errors.
    """
    (U, s, Vh), errors = _stacked_svd(Z)
    return np.matmul(U * np.maximum(s - tau[:, None], 0.0)[:, None, :], Vh), errors


@dataclass(eq=False)
class _Row:
    """One problem's scalars in a lockstep solve, as Python numbers.

    index is its place in recover_batch's list.  c_perp2, R and R2 = R**2
    fix its tube, noise_radius is the radius of its noise ball in
    nu' = nu / kappa (see _noise_scale), theta and steps are the tube projection's warm
    multiplier and count of secular evaluations, pairs, g_norm,
    extrapolated and rejections are its Anderson state (see _Anderson),
    and the rest are the ADMM loop's.  A new per-problem scalar is a new
    field here.
    """

    index: int
    problem: object
    c_perp2: float
    R: float
    R2: float
    noise_radius: float
    kappa: float = 1.0
    theta: float = 1.0
    steps: int = 0
    rho: float = 1.0
    n_adapt: int = 0
    pri: float = math.inf
    dual: float = math.inf
    pairs: int = -1
    g_norm: float = math.inf
    extrapolated: bool = False
    rejections: int = 0


class _Anderson:
    """Type-II Anderson acceleration of each row's Douglas-Rachford variable.

    A row's ADMM state (xp, u) is (prox(t), t - prox(t)) for the
    t = x + u of its last iteration, and an iteration maps t to
    F(t) = t + g(t), where the fixed-point residual g(t) = x - xp is the
    tube point less the prox point (Walker and Ni, SIAM J. Numer. Anal.
    2011; Fu, Zhang and Boyd, SIAM J. Sci. Comput. 2020).  Each row keeps
    g and F(t) at its last step, in g and f, and a ring of its last mem
    secant pairs: differences of g in dG, those of F(t) = t + g in dF, and
    the Gram matrix dG dG^T in gram, which takes one new row and column a
    step.  The row's correction to its next t, F(t), is -dF^T gamma, for
    the gamma that fits g by dG^T gamma in least squares with a Tikhonov
    term of _ANDERSON_RIDGE times the Gram's trace.

    Safeguards, per row.  _admm clears the history when the row's penalty
    changes, since that changes F.  A corrected step after which the
    residual grew is undone: the row goes back to the plain point F(t) of
    the step before and starts a new history there.  A correction longer
    than _ANDERSON_CAP times the residual is not taken, so the prox never
    sees a blown-up input.  rejections counts both.  Every product is a
    per-row kernel (np.vecdot, np.vecmat and a stacked np.linalg.solve),
    so a row's bits do not depend on the batch.
    """

    def __init__(self, B, n):
        mem = _ANDERSON_MEMORY
        self.dG, self.dF = np.zeros((B, mem, n)), np.zeros((B, mem, n))
        self.gram = np.zeros((B, mem, mem))
        self.g, self.f = np.zeros((B, n)), np.zeros((B, n))

    def take(self, keep):
        """Keep the rows keep, an ascending list, moving them up in place
        (a copy would hold a second history at the batch's largest), and
        return self."""
        for name in ("dG", "dF", "gram", "g", "f"):
            a = getattr(self, name)
            for i, b in enumerate(keep):
                a[i] = a[b]
            setattr(self, name, a[:len(keep)])
        return self

    def clear(self, b, row):
        """Forget row b's secant pairs and its last step."""
        row.pairs, row.extrapolated = -1, False
        self._forget(b)

    def _forget(self, b):
        self.dG[b] = self.dF[b] = self.gram[b] = 0.0

    def __call__(self, rows, f, x, xp):
        """The correction to each row's next t, f = F(t), or None.

        x - xp is each row's residual g(t).  A row with no correction gets
        a zero row, which leaves its t and u as the plain step has them.
        """
        mem = self.dG.shape[1]
        if not mem:
            return None
        B = len(rows)
        g = x - xp
        norms = list(map(math.sqrt, _sumsq(g)))
        back, fresh, slots = [], [], []
        for b, row in enumerate(rows):
            if row.extrapolated and not norms[b] <= row.g_norm:
                back.append(b)
                row.rejections += 1
                row.pairs = 0
            else:
                if row.pairs < 0:
                    fresh.append(b)
                row.pairs += 1
                row.g_norm = norms[b]
            row.extrapolated = False
            slots.append((row.pairs - 1) % mem)
        # every row writes its new pair; a row with no last step, or one
        # going back, then forgets what it wrote
        dg, every = g - self.g, np.arange(B)
        self.dG[every, slots] = dg
        self.dF[every, slots] = f - self.f
        col = np.vecdot(self.dG, dg[:, None, :])
        self.gram[every, slots] = col
        self.gram[every, :, slots] = col
        for b in back + fresh:
            self._forget(b)
        if back:
            ref = [b for b in range(B) if b not in back]
            self.g[ref], self.f[ref] = g[ref], f[ref]
        else:
            self.g, self.f = g, f
        traces = [sum(d) for d in np.diagonal(self.gram, axis1=1, axis2=2).tolist()]
        fit = [b for b, row in enumerate(rows) if row.pairs > 0 and 0.0 < traces[b] < math.inf]
        if not (fit or back):
            return None
        ridge = np.array([_ANDERSON_RIDGE * tr for tr in traces])
        A = self.gram + ridge[:, None, None] * np.eye(mem)
        rhs = np.vecdot(self.dG, g[:, None, :])
        fitted = set(fit)
        plain = [b for b in range(B) if b not in fitted]
        if plain:
            # the identity and a zero right-hand side give these rows gamma = 0
            A[plain], rhs[plain] = np.eye(mem), 0.0
        delta = -np.vecmat(np.linalg.solve(A, rhs[:, :, None])[:, :, 0], self.dF)
        lengths = list(map(math.sqrt, _sumsq(delta)))
        for b in fit:
            if lengths[b] <= _ANDERSON_CAP * norms[b]:
                rows[b].extrapolated = True
            else:
                rows[b].rejections += 1
                plain.append(b)
        if plain:
            delta[plain] = 0.0
        if back:
            delta[back] = self.f[back] - f[back]
        return delta


def _noise_scale(G, T):
    """kappa = ||G||_F / ||T||_F, by which recover_batch scales J's nu
    block T to the size of G (1 when G is zero)."""
    g = math.sqrt(sum(_sumsq(G)))
    return g / math.sqrt(sum(_sumsq(T))) if g > 0 else 1.0


def _coordinates(U, c):
    """(U^T c, c_perp2): c in the singular coordinates of J = U diag(s) Vh,
    and the squared norm of the part of c outside the range of J."""
    cbar = U.T @ c
    return cbar, max(float(c @ c - cbar @ cbar), 0.0)


class _Tube:
    """Exact Euclidean projection onto {x : ||J x - c_b|| <= R_b}, row by row.

    Holds only s and Vh of the economy SVD of J, which recover_batch
    computes once; each call takes the rows' cbar = U^T c and
    their _Row records.  With p in singular coordinates the projection solves a
    scalar secular equation for the multiplier theta; components outside
    the row space of J pass through unchanged.

    The solve is safeguarded Newton on 1/phi(theta) - 1/R, as for the
    trust-region step of More and Sorensen (SIAM J. Sci. Stat. Comput.
    1983), started from the theta of the row's previous active
    projection: consecutive ADMM inputs are close, so theta moves little
    and two or three evaluations usually meet the 1e-13 R stopping rule.
    A row's steps counts its evaluations of phi in the Newton loop, not
    the feasibility test at theta = 0.  The per-row scalars are Python
    floats, as cheap for one row as for many.
    """

    def __init__(self, s, Vh):
        self.s, self.Vh = s, Vh
        self.s2 = s * s

    def __call__(self, P, cbar, rows):
        """Project each row of P onto its own tube, that of the same row of
        cbar and of rows."""
        Pbar = np.matvec(self.Vh, P)
        D = self.s * Pbar - cbar
        dd = _sumsq(D)
        out = [b for b, row in enumerate(rows) if not dd[b] + row.c_perp2 <= row.R2]
        if not out:
            return P
        if len(out) < len(P):
            Pbar, D, cbar = Pbar[out], D[out], cbar[out]
        theta = np.array(self._secular(D, [rows[b] for b in out]))[:, None]
        alpha = (Pbar + theta * self.s * cbar) / (1.0 + theta * self.s2)
        step = np.matvec(self.Vh.T, alpha - Pbar)
        if len(out) == len(P):
            return P + step
        X = P.copy()
        X[out] = P[out] + step
        return X

    def _secular(self, D, rows):
        """Newton on the secular equation of D's rows; their new theta."""
        thetas = [row.theta for row in rows]
        lo, hi = [0.0] * len(rows), [math.inf] * len(rows)
        running = range(len(rows))
        # phi decreases in theta; [lo, hi] brackets the root and tightens
        # with each evaluation, and hi stays unbounded until phi <= R
        for _ in range(80):
            den = 1.0 + np.array(thetas)[:, None] * self.s2
            W = D / den
            phi2s = _sumsq(W)
            slopes = np.vecdot(W * W / den, self.s2).tolist()
            unfinished = []
            for j in running:
                row = rows[j]
                theta, R = thetas[j], row.R
                phi2 = phi2s[j] + row.c_perp2
                phi = math.sqrt(phi2)
                row.steps += 1
                if phi > R:
                    lo[j] = theta
                    if theta >= _THETA_CAP:
                        continue  # empty set; land on the closest reachable shell
                else:
                    hi[j] = theta
                if abs(phi - R) <= 1e-13 * R:
                    continue
                # Newton on g = 1/phi - 1/R, with g' = -phi'/phi^2
                gprime = slopes[j] / (phi * phi2)
                step = theta - (1.0 / phi - 1.0 / R) / gprime if gprime > 0 else math.inf
                if not (lo[j] < step < hi[j]):
                    if hi[j] == math.inf:
                        step = 16.0 * lo[j]
                    else:
                        step = math.sqrt(lo[j] * hi[j]) if lo[j] > 0 else 0.5 * hi[j]
                thetas[j] = row.theta = min(step, _THETA_CAP)
                unfinished.append(j)
            running = unfinished
            if not running:
                break
        return thetas


def nuclear_norm(Z):
    return float(np.linalg.svd(Z, compute_uv=False).sum())


def recover(problem, params=None):
    """Solve the recovery program from zero and return a RecoverySolution.

    This is recover_batch on a batch of one, and raises what the solve
    raised.  The returned converged flag requires both residual criteria
    and the feasibility check of the returned point to pass;
    non-convergence within max_iterations returns the last iterate with
    converged False.
    """
    [outcome] = recover_batch([problem], params)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def recover_batch(problems, params=None):
    """Solve problems of one constraint matrix J in lockstep.

    J is built from a problem's operator, basis and encoder (by
    identity), its order and whether nu is present; a batch whose problems
    differ in any of these raises ValueError, and an empty one returns [].
    J and its SVD are built once, with J's nu block scaled by
    _noise_scale, and what that build raises propagates.  Every problem
    starts from zero.  Returns one entry per problem, in order: its
    RecoverySolution, or the exception its shaped vector c, its solve or
    its final check raised.  A problem that fails leaves the others as
    they are.

    The problems advance one ADMM iteration at a time, as rows of (B, n)
    arrays, each with its own penalty, penalty schedule, warm theta and
    counts in its _Row; a row leaves the batch when it stops.  Every
    per-row product is a stacked kernel that computes each row alone (a
    matrix-vector product, a dot product or an SVD per row), so a problem
    gets the same bits in any batch as on its own.
    """
    if not problems:
        return []
    if len({(id(p.operator), id(p.basis), id(p.encoder), p.order, p.noise_bound > 0)
            for p in problems}) > 1:
        raise ValueError("recover_batch takes problems of one constraint matrix: one "
                         "operator, basis and encoder, one order, and nu in all or none")
    if params is None:
        params = SolverParams()
    first = problems[0]
    J, kappa = _constraint_matrix(first), 1.0
    if first.noise_bound > 0:
        N = first.operator.data.shape[1]
        kappa = _noise_scale(J[:, :N], J[:, N:])
        J[:, N:] *= kappa
    U, s, Vh = np.linalg.svd(J, full_matrices=False)
    del J
    outcomes = [None] * len(problems)
    rows, cbars = [], []
    for i, problem in enumerate(problems):
        try:
            c = _shape(problem, problem.quantized)
        except Exception as exc:  # noqa: BLE001 - this problem fails alone
            outcomes[i] = exc
            continue
        cbar, c_perp2 = _coordinates(U, c)
        R = float(problem.radius)
        rows.append(_Row(i, problem, c_perp2, R, R ** 2, problem.noise_radius / kappa, kappa))
        cbars.append(cbar)
    if rows:
        _admm(rows, np.array(cbars).reshape(len(rows), -1), _Tube(s, Vh), params, outcomes)
    return outcomes


def _admm(rows, cbar, tube, params, outcomes):
    """Two-block consensus ADMM from zero; fills outcomes[row.index].

    Row b of the (B, n) arrays xp, u, x and cbar is the problem of
    rows[b], whose scalars are Python numbers in that _Row; each row's
    tests are the same float expressions whatever the batch.  One
    statement drops the rows that stopped or failed from the list and
    every array together, the Anderson history included; a new per-row
    array is one more entry in it.

    Each iteration forms t = x + u, the Douglas-Rachford variable whose
    prox gives the next (xp, u), and the rows' Anderson history (see
    _Anderson) may add a correction delta to it; delta enters u as
    u + resid + delta, so a row without one, and every row at
    _ANDERSON_MEMORY = 0, takes the plain step.  A penalty change clears
    the row's history, since it changes the map being accelerated.  The
    nu columns hold nu' = nu / row.kappa; the stopping test reads their
    residual and norm times kappa.
    """
    first = rows[0].problem
    n1, n2 = first.operator.shape
    N = n1 * n2
    with_nu = first.noise_bound > 0
    xp = np.zeros((len(rows), tube.Vh.shape[1]))
    u = np.zeros_like(xp)
    anderson = _Anderson(*xp.shape)
    tol = params.tolerance
    x = xp
    it = 0
    for it in range(1, params.max_iterations + 1):
        x = tube(xp - u, cbar, rows)
        t = x + u
        delta = anderson(rows, t, x, xp)
        if delta is not None:
            t = t + delta
        B = len(t)
        tau = 1.0 / np.array([row.rho for row in rows])
        Zp, errors = _nuclear_prox(t[:, :N].reshape(B, n2, n1).transpose(0, 2, 1), tau)
        zp = Zp.transpose(0, 2, 1).reshape(B, N)
        if with_nu:
            # the noise ball's projection
            v = t[:, N:]
            norms = map(math.sqrt, _sumsq(v))
            shrink = [row.noise_radius / nv if nv > row.noise_radius else 1.0
                      for row, nv in zip(rows, norms)]
            xp_new = np.concatenate([zp, v * np.array(shrink)[:, None]], axis=1)
        else:
            xp_new = zp
        resid = x - xp_new
        u = u + resid if delta is None else u + resid + delta
        rz = map(math.sqrt, _sumsq(resid[:, :N]))
        xz = map(math.sqrt, _sumsq(x[:, :N]))
        moved = map(math.sqrt, _sumsq(xp_new - xp))
        un = map(math.sqrt, _sumsq(u))
        if with_nu:
            rn = [row.kappa * math.sqrt(v) for row, v in zip(rows, _sumsq(resid[:, N:]))]
            xn = [row.kappa * math.sqrt(v) for row, v in zip(rows, _sumsq(x[:, N:]))]
        else:
            rn = xn = [0.0] * B
        xp = xp_new
        stopped = []
        for b, (row, rz_b, rn_b, xz_b, xn_b, moved_b, un_b) in enumerate(
                zip(rows, rz, rn, xz, xn, moved, un)):
            row.dual = row.rho * moved_b
            row.pri = max(rz_b, rn_b)
            if (rz_b <= tol * max(1.0, xz_b)
                    and ((not with_nu) or rn_b <= tol * max(1.0, xn_b))
                    and row.dual <= tol * max(1.0, row.rho * un_b)):
                stopped.append(b)
        if stopped or errors:
            for b in stopped:
                if b not in errors:
                    _finish(rows[b], x[b], it, True, outcomes)
            for b, exc in errors.items():
                outcomes[rows[b].index] = exc
            keep = [b for b in range(B) if b not in errors and b not in stopped]
            if not keep:
                return
            rows, xp, u, x, cbar, anderson = ([rows[b] for b in keep], xp[keep], u[keep],
                                               x[keep], cbar[keep], anderson.take(keep))
        if it % _ADAPT_INTERVAL == 0 and it < _ADAPT_WINDOW * params.max_iterations:
            # residual balancing, row by row, at most _ADAPT_CAP times each
            for b, row in enumerate(rows):
                if row.n_adapt >= _ADAPT_CAP:
                    continue
                if row.pri > 10.0 * row.dual:
                    row.rho *= 2.0
                    u[b] /= 2.0
                elif row.dual > 10.0 * row.pri:
                    row.rho /= 2.0
                    u[b] *= 2.0
                else:
                    continue
                row.n_adapt += 1
                anderson.clear(b, row)
    for b, row in enumerate(rows):
        _finish(row, x[b], it, False, outcomes)


def _finish(row, x, iterations, stopped, outcomes):
    """Check row's returned point and store its RecoverySolution."""
    try:
        problem = row.problem
        n1, n2 = problem.operator.shape
        N = n1 * n2
        x = x.copy()
        Z = x[:N].reshape((n1, n2), order="F")
        nu = row.kappa * x[N:] if problem.noise_bound > 0 else np.zeros(problem.operator.rows)
        report = check_feasibility(problem, Z, nu)
        outcomes[row.index] = RecoverySolution(
            estimate=Z,
            noise_estimate=nu,
            objective=nuclear_norm(Z),
            iterations=iterations,
            converged=stopped and report.ok,
            primal_residual=row.pri,
            dual_residual=row.dual,
            feasibility=report,
            penalty_changes=row.n_adapt,
            secular_steps=row.steps,
            anderson_rejections=row.rejections,
        )
    except Exception as exc:  # noqa: BLE001 - this problem fails alone
        outcomes[row.index] = exc


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

    recover runs it on the point it returns, and harness, as it prepares a
    trial, on the true pair (X, y - M(X)).  Violations beyond 1e-6
    relative (plus a 1e-6 absolute floor) are flagged, and so is a nan
    norm; ok is True when neither constraint is flagged.  nu must have
    shape (m,).
    """
    m = problem.operator.rows
    if np.shape(nu) != (m,):
        raise ValueError(f"nu must have shape ({m},), got {np.shape(nu)}")
    shaped = shaped_residual_vector(problem, Z, nu)
    shaped_lhs = float(np.linalg.norm(shaped))
    radius = problem.radius
    noise_lhs = float(np.linalg.norm(nu))
    noise_radius = problem.noise_radius
    messages = []
    if not shaped_lhs <= radius * (1 + 1e-6) + 1e-6:
        messages.append(
            f"shaped residual {shaped_lhs:.6e} exceeds radius {radius:.6e}"
        )
    if not noise_lhs <= noise_radius * (1 + 1e-6) + 1e-6:
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

