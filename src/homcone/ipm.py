"""Primal-dual path-following solver for linear conic programs over the
sparse PSD cone (primal side) and its completable dual.

    minimize <c, x>               maximize  b^T y
    s.t.     <A_i, x> = b_i       s.t.      sum_i y_i A_i + s = c
             x in K                         s in K*

Each iteration rebuilds the primal-dual scaling (scaling point, triangular
factor, rank-one correction), eliminates the v-space equation through an
m-by-m normal system, and takes a fraction of the largest cone-feasible
step, found from eigenvalues.  The point taken is certified in both cones
by factorization success; an iterate is never accepted on failure.  Starts
at x = s = I (interior to both cones), y = 0, with residual right-hand
sides, so feasibility is not required up front.
"""

from __future__ import annotations

import enum
import logging
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NotCompletable, NotPositiveDefinite, SingularNormalMatrix
from .factor import cholesky, forward_map, inverse_forward_map, maxdet_factor
from .matrix import (
    LowerSparse,
    Structure,
    SymSparse,
    identity,
    inner,
    norm,
    to_dense,
    to_triplets,
)
from .scaling import (
    ScalingOperator,
    apply_scaling,
    bfgs_update,
    pd_factor,
    scaling_point,
    shadow_state,
)

__all__ = [
    "ConicProblem",
    "random_problem",
    "Iterate",
    "SolverOptions",
    "SolveStatus",
    "SolveReport",
    "Residuals",
    "residuals",
    "normal_matrix",
    "search_direction",
    "max_step",
    "solve",
]

log = logging.getLogger(__name__)

#: target residual of the scaling point at each iteration
SCALING_TOL = 1e-11
#: fraction of the largest cone-feasible step that is taken
STEP_FRACTION = 0.99


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    MAX_ITER = "MaxIter"
    STALLED = "Stalled"


@dataclass(frozen=True, eq=False)
class ConicProblem:
    """Problem data on one structure: constraint matrices as the rows of
    one read-only (m, dim) array A of slot values, right-hand side b, cost
    c.  ``A_weighted`` is A times the structure's trace weights, made once
    and read-only: <A_i, X> is its row i dotted with X's values.  Warns if
    the constraints look linearly dependent.  Problems compare and hash by
    identity, as arrays give no truth value."""

    struct: Structure
    A: np.ndarray
    b: np.ndarray
    c: SymSparse
    A_weighted: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64)
        a = np.array(self.A, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] != self.struct.dim:
            raise ValueError(f"A has shape {a.shape}, rows must have the "
                             f"structure's dim {self.struct.dim}")
        if a.shape[0] != b.shape[0]:
            raise ValueError(f"A has {a.shape[0]} rows but b has {b.shape[0]} entries")
        if self.c.struct != self.struct:
            raise ValueError("cost matrix on a different structure")
        aw = a * self.struct.weights
        a.flags.writeable = aw.flags.writeable = False
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "A_weighted", aw)
        object.__setattr__(self, "b", b)
        if self.constraints_dependent():
            warnings.warn("constraint matrices look linearly dependent; "
                          "the normal system may be singular", stacklevel=2)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def constraints_dependent(self) -> bool:
        """Whether the Gram matrix <A_i, A_j> is numerically singular."""
        if not self.m:
            return False
        eig = np.linalg.eigvalsh(self.A_weighted @ self.A.T)
        return bool(eig[0] <= 1e-12 * max(1.0, eig[-1]))

    def apply_a(self, x: SymSparse) -> np.ndarray:
        return np.vecdot(self.A_weighted, x.vals)

    def apply_at(self, y: np.ndarray) -> SymSparse:
        # rows added in order onto +0.0, as a loop of axpys would
        return SymSparse(self.struct, (y[:, None] * self.A).sum(axis=0, initial=0.0))


def random_problem(struct: Structure, m: int, rng) -> ConicProblem:
    """Instance with a known interior primal-dual pair (so it is solvable
    and its optimum is bracketed by the certified objectives)."""
    def spd():
        v = 0.3 * rng.standard_normal(struct.dim)
        v[struct.bar_ptr[:-1]] = rng.uniform(0.8, 1.6, struct.n)
        # with zero fill, L L^T lies on the pattern
        return forward_map(LowerSparse(struct, v), identity(struct))

    x_feas = spd()
    s_feas = spd()  # interior of K, hence of its superset dual cone
    y_feas = rng.standard_normal(m)
    a = rng.standard_normal((m, struct.dim))
    b = np.vecdot(a * struct.weights, x_feas.vals)
    c = SymSparse(struct, s_feas.vals + (y_feas[:, None] * a).sum(axis=0))
    return ConicProblem(struct, a, b, c)


@dataclass(frozen=True)
class Iterate:
    x: SymSparse
    y: np.ndarray
    s: SymSparse
    mu: float


@dataclass(frozen=True)
class Residuals:
    r_p: np.ndarray      # A(x) - b
    r_d: SymSparse       # A*(y) + s - c
    gap: float           # <s, x>

    def p_norm(self) -> float:
        return float(np.linalg.norm(self.r_p))

    def d_norm(self) -> float:
        return norm(self.r_d)


@dataclass
class SolverOptions:
    """Stopping rules for :func:`solve`."""

    tol_gap: float = 1e-8
    tol_feas: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        if not (self.tol_gap > 0.0 and self.tol_feas > 0.0):
            raise ValueError("tol_gap and tol_feas must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def residuals(problem: ConicProblem, it: Iterate) -> Residuals:
    return Residuals(
        r_p=problem.apply_a(it.x) - problem.b,
        r_d=problem.apply_at(it.y) + it.s - problem.c,
        gap=inner(it.s, it.x),
    )


def normal_matrix(problem: ConicProblem, op: ScalingOperator) -> np.ndarray:
    """M_ij = <A_i, fwd(adj(A_j))>, symmetrized; symmetric positive
    definite for independent constraints.  The m images fwd(adj(A_j)) come
    from one stacked adjoint and one stacked forward sweep over the rows
    of A, bitwise what one sweep per row gives; :func:`search_direction`
    runs the same two sweeps with one more member each."""
    rows = SymSparse(problem.struct, problem.A)
    return _normal(problem, apply_scaling(op, "forward", apply_scaling(op, "adjoint", rows)).vals)


def _normal(problem: ConicProblem, images: np.ndarray) -> np.ndarray:
    """The normal matrix from the images fwd(adj(A_j)), the rows of ``images``."""
    nm = np.vecdot(problem.A_weighted[:, None, :], images[None, :, :])
    return 0.5 * (nm + nm.T)


def search_direction(problem: ConicProblem, it: Iterate, res: Residuals,
                     op: ScalingOperator, gamma: float):
    """Solve the scaled Newton system

        A(d_x) = -r_p
        A*(d_y) + d_s = -r_d
        inv(d_x) + adj(d_s) = -v + gamma mu vtilde

    by eliminating through the normal matrix, ``res`` being the residuals
    of ``it``.  r_d joins the stacked adjoint sweep over A's rows, and
    carry = rv + adj(r_d) the forward sweep over their images, each
    member bitwise its own sweep.  If the normal matrix is not
    numerically positive definite, SingularNormalMatrix says whether the
    constraints are dependent or the iterates degenerated."""
    st = problem.struct
    v = op.v
    vtilde = (1.0 / it.mu) * (v - op.v_hat_or_zero())
    rv = -1.0 * v + (gamma * it.mu) * vtilde
    adj = apply_scaling(op, "adjoint", SymSparse(st, np.vstack([problem.A, res.r_d.vals]))).vals
    adj[-1] = rv.vals + adj[-1]  # carry
    images = apply_scaling(op, "forward", SymSparse(st, adj)).vals
    nm = _normal(problem, images[:-1])
    rhs = -res.r_p - problem.apply_a(SymSparse(st, images[-1]))
    try:
        low = np.linalg.cholesky(nm)
    except np.linalg.LinAlgError:
        low = None
    if low is None or np.any(np.diag(low) <= 1e-7 * np.sqrt(np.diag(nm))):
        if problem.constraints_dependent():
            raise SingularNormalMatrix(
                "normal matrix is not positive definite; constraints are rank deficient")
        raise SingularNormalMatrix(
            f"normal matrix lost positive definiteness (mu = {it.mu:.3e}) although "
            "the constraints are independent; the problem may be infeasible")
    d_y = np.linalg.solve(low.T, np.linalg.solve(low, rhs))
    d_s = -1.0 * res.r_d - problem.apply_at(d_y)
    d_x = apply_scaling(op, "forward", rv - apply_scaling(op, "adjoint", d_s))
    return d_x, d_y, d_s


def max_step(it: Iterate, d_x: SymSparse, d_s: SymSparse, eta: float) -> float:
    """Fraction eta of the largest step a in [0, 1] keeping both iterates
    strictly inside their cones, certified.  x + a d_x = L (I + a M) L^T
    with x = L L^T and M = L^-1 d_x L^-T on the pattern, so the primal
    bound is -1/lambda_min(M), M's n x n block.  s + a d_s is completable
    while every maximal clique's block is positive definite (Grone,
    Johnson, Sá & Wolkowicz 1984), so the dual bound is the least
    -1/lambda_min(R^-1 D R^-T) over them, S = R R^T, stacked by block size
    (``Structure.cliques``).  The step is certified by the cholesky and
    maxdet_factor of the points :func:`solve` takes; where the pivot floors
    fail it, it shrinks by eta, eta^2, eta^4, ...  Below 1e-10 it is 0."""
    reach = [1.0, -np.linalg.eigvalsh(to_dense(inverse_forward_map(cholesky(it.x).L, d_x)))[0]]
    for t in it.s.struct.cliques:
        r = np.linalg.inv(np.linalg.cholesky(it.s.vals[t]))
        reach.append(-np.linalg.eigvalsh(r @ (d_s.vals[t] @ np.swapaxes(r, 1, 2)))[:, 0].min())
    step, shrink = eta * (1.0 / max(reach)), eta
    while step >= 1e-10:
        try:
            cholesky(it.x + step * d_x)
            maxdet_factor(it.s + step * d_s)
            return step
        except (NotPositiveDefinite, NotCompletable):
            step, shrink = shrink * step, shrink * shrink
    return 0.0


@dataclass
class SolveReport:
    status: SolveStatus
    iterations: int
    primal_objective: float
    dual_objective: float
    gap: float
    primal_residual: float
    dual_residual: float
    x: SymSparse
    y: np.ndarray
    s: SymSparse
    stop_reason: str
    trace: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "stop_reason": self.stop_reason,
            "iterations": self.iterations,
            "primal_objective": self.primal_objective,
            "dual_objective": self.dual_objective,
            "gap": self.gap,
            "primal_residual": self.primal_residual,
            "dual_residual": self.dual_residual,
            "x": to_triplets(self.x),
            "s": to_triplets(self.s),
            "y": [float(t) for t in self.y],
            "trace": self.trace,
        }


def solve(problem: ConicProblem, options: Optional[SolverOptions] = None) -> SolveReport:
    """Run the path-following iteration from x = s = I, y = 0.

    Stops at Optimal when gap/N <= tol_gap and both residual norms fall
    under tol_feas * (1 + |b| + |c|); at Stalled after two consecutive
    steps below 1e-10; at MaxIter otherwise.  ``stop_reason`` says which
    in one sentence.  The trace records mu, residual norms, step length,
    centering weight, the scaling residual, why the scaling-point search
    gave up (``scaling_stop``, null when it met its target; the search's
    best iterate is then used), and the proximity |v - mu vtilde| / mu
    per iteration.
    """
    opt = options or SolverOptions()
    st = problem.struct
    n = st.n
    x = identity(st)
    s = identity(st)
    y = np.zeros(problem.m)
    feas_scale = 1.0 + float(np.linalg.norm(problem.b)) + norm(problem.c)
    last_alpha = 0.0
    stalls = 0
    trace: list = []
    status = SolveStatus.MAX_ITER
    reason = f"the iteration limit of {opt.max_iter} was reached"
    iterations = 0
    for k in range(opt.max_iter):
        it = Iterate(x=x, y=y, s=s, mu=inner(s, x) / n)
        res = residuals(problem, it)
        if (res.gap / n <= opt.tol_gap
                and res.p_norm() <= opt.tol_feas * feas_scale
                and res.d_norm() <= opt.tol_feas * feas_scale):
            status = SolveStatus.OPTIMAL
            reason = (f"gap/N {res.gap / n:.3e} <= {opt.tol_gap:g} and residual norms "
                      f"{res.p_norm():.3e}, {res.d_norm():.3e} <= "
                      f"{opt.tol_feas * feas_scale:.3e} at iteration {k}")
            break
        iterations = k + 1
        state = shadow_state(x, s)
        point = scaling_point(x, s, tol=SCALING_TOL)
        if point.stop is not None:
            log.info("it %3d  scaling point stopped at residual %.3e (target %g) after %d "
                     "Newton steps: %s; going on with its best iterate",
                     k, point.residual, SCALING_TOL, point.steps, point.stop)
        base_op = pd_factor(point.w, x, s)
        op = bfgs_update(base_op, state)
        gamma = 0.1 if last_alpha >= 0.8 else 0.8
        try:
            d_x, d_y, d_s = search_direction(problem, it, res, op, gamma)
        except SingularNormalMatrix as e:
            raise SingularNormalMatrix(f"at iteration {k}: {e}") from None
        alpha = max_step(it, d_x, d_s, STEP_FRACTION)
        # |v - mu*vtilde|/mu collapses to |v_hat|/mu; informational only
        prox = norm(op.v_hat_or_zero())
        row = {
            "iter": k,
            "mu": it.mu,
            "gap": res.gap,
            "primal_residual": res.p_norm(),
            "dual_residual": res.d_norm(),
            "alpha": alpha,
            "gamma": gamma,
            "scaling_residual": base_op.residual,
            "scaling_stop": point.stop,
            "proximity": prox / it.mu,
        }
        trace.append(row)
        log.debug("it %3d  mu %9.3e  rp %9.3e  rd %9.3e  alpha %6.4f  gamma %.2f",
                  k, it.mu, row["primal_residual"], row["dual_residual"], alpha, gamma)
        if alpha < 1e-10:
            stalls += 1
            if stalls >= 2:
                status = SolveStatus.STALLED
                reason = f"steps {trace[-2]['alpha']:.1e} and {alpha:.1e} in a row were below 1e-10"
                break
            last_alpha = 0.0
            continue
        stalls = 0
        x = x + alpha * d_x
        y = y + alpha * d_y
        s = s + alpha * d_s
        last_alpha = alpha
    it = Iterate(x=x, y=y, s=s, mu=inner(s, x) / n)
    res = residuals(problem, it)
    return SolveReport(
        status=status,
        iterations=iterations,
        primal_objective=inner(problem.c, x),
        dual_objective=float(np.dot(problem.b, y)),
        gap=res.gap,
        primal_residual=res.p_norm(),
        dual_residual=res.d_norm(),
        x=x, y=y, s=s, stop_reason=reason, trace=trace,
    )
