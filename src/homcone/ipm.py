"""Primal-dual path-following solver for linear conic programs over the
sparse PSD cone (primal side) and its completable dual.

    minimize <c, x>               maximize  b^T y
    s.t.     <A_i, x> = b_i       s.t.      sum_i y_i A_i + s = c
             x in K                         s in K*

Each iteration rebuilds the primal-dual scaling (scaling point, triangular
factor, rank-one correction), eliminates the v-space equation through an
m-by-m normal system, and takes a fraction of the largest cone-feasible
step found by bisection.  Cone membership is certified every iteration by
factorization success; an iterate is never accepted on failure.  Starts at
x = s = I (interior to both cones), y = 0, with residual right-hand sides,
so feasibility is not required up front.
"""

from __future__ import annotations

import enum
import logging
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NotCompletable, NotPositiveDefinite, SingularNormalMatrix
from .factor import cholesky, maxdet_factor
from .matrix import (
    LowerSparse,
    Structure,
    SymSparse,
    identity,
    inner,
    norm,
    project,
    to_dense,
    to_triplets,
    zeros,
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
    "search_direction",
    "max_step",
    "solve",
]

log = logging.getLogger(__name__)

#: target residual of the scaling point at each iteration
SCALING_TOL = 1e-11
#: bisection steps of the step search
BISECT_DEPTH = 40


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    MAX_ITER = "MaxIter"
    STALLED = "Stalled"


@dataclass(frozen=True)
class ConicProblem:
    """Problem data: m constraint matrices, right-hand side b, cost c,
    all on one structure.  Warns (once) on linearly dependent constraints;
    the normal matrix later fails hard if they are exactly dependent."""

    struct: Structure
    a_mats: tuple
    b: np.ndarray
    c: SymSparse

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        if len(self.a_mats) != self.b.shape[0]:
            raise ValueError(
                f"{len(self.a_mats)} constraint matrices but b has {self.b.shape[0]} entries")
        for a in self.a_mats:
            if a.struct != self.struct:
                raise ValueError("constraint matrix on a different structure")
        if self.c.struct != self.struct:
            raise ValueError("cost matrix on a different structure")
        m = len(self.a_mats)
        if m:
            gram = np.array([[inner(ai, aj) for aj in self.a_mats]
                             for ai in self.a_mats])
            eig = np.linalg.eigvalsh(gram)
            if eig[0] <= 1e-12 * max(1.0, eig[-1]):
                warnings.warn("constraint matrices look linearly dependent; "
                              "the normal system may be singular", stacklevel=2)

    @property
    def m(self) -> int:
        return len(self.a_mats)

    def apply_a(self, x: SymSparse) -> np.ndarray:
        return np.array([inner(a, x) for a in self.a_mats])

    def apply_at(self, y: np.ndarray) -> SymSparse:
        out = zeros(self.struct)
        for yi, a in zip(y, self.a_mats):
            if yi != 0.0:
                out = out + float(yi) * a
        return out


def random_problem(struct: Structure, m: int, rng) -> ConicProblem:
    """Instance with a known interior primal-dual pair (so it is solvable
    and its optimum is bracketed by the certified objectives)."""
    def spd():
        v = 0.3 * rng.standard_normal(struct.dim)
        v[struct.bar_ptr[:-1]] = rng.uniform(0.8, 1.6, struct.n)
        ld = to_dense(LowerSparse(struct, v))
        return project(ld @ ld.T, struct)

    x_feas = spd()
    s_feas = spd()  # interior of K, hence of its superset dual cone
    y_feas = rng.standard_normal(m)
    a_mats = tuple(SymSparse(struct, rng.standard_normal(struct.dim))
                   for _ in range(m))
    b = np.array([inner(a, x_feas) for a in a_mats])
    c = s_feas
    for yi, a in zip(y_feas, a_mats):
        c = c + float(yi) * a
    return ConicProblem(struct, a_mats, b, c)


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
    """Knobs for :func:`solve`.  gamma=None picks the centering parameter
    adaptively: 0.1 after a step of at least 0.8, else 0.8."""

    gamma: Optional[float] = None
    tol_gap: float = 1e-8
    tol_feas: float = 1e-8
    max_iter: int = 100
    step_fraction: float = 0.99

    def __post_init__(self):
        if self.gamma is not None and not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if not 0.0 < self.step_fraction < 1.0:
            raise ValueError("step_fraction must be in (0, 1)")
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


def search_direction(problem: ConicProblem, it: Iterate, op: ScalingOperator,
                     gamma: float):
    """Solve the scaled Newton system

        A(d_x) = -r_p
        A*(d_y) + d_s = -r_d
        inv(d_x) + adj(d_s) = -v + gamma mu vtilde

    by eliminating through the normal matrix M_ij = <A_i, fwd(adj(A_j))>,
    which is symmetric positive definite for independent constraints."""
    res = residuals(problem, it)
    v = op.v
    vtilde = (1.0 / it.mu) * (v - op.v_hat_or_zero())
    rv = -1.0 * v + (gamma * it.mu) * vtilde
    m = problem.m
    images = [apply_scaling(op, "forward", apply_scaling(op, "adjoint", a))
              for a in problem.a_mats]
    nm = np.array([[inner(ai, img) for img in images] for ai in problem.a_mats])
    nm = 0.5 * (nm + nm.T)
    carry = rv + apply_scaling(op, "adjoint", res.r_d)
    rhs = -res.r_p - problem.apply_a(apply_scaling(op, "forward", carry))
    try:
        low = np.linalg.cholesky(nm)
    except np.linalg.LinAlgError as e:
        raise SingularNormalMatrix(
            "normal matrix is not positive definite; constraints are "
            "rank deficient") from e
    if m and np.any(np.diag(low) <= 1e-7 * np.sqrt(np.diag(nm))):
        raise SingularNormalMatrix(
            "normal matrix is numerically singular; constraints are "
            "rank deficient")
    d_y = _chol_solve(low, rhs) if m else np.zeros(0)
    d_s = -1.0 * res.r_d - problem.apply_at(d_y)
    d_x = apply_scaling(op, "forward", rv - apply_scaling(op, "adjoint", d_s))
    return d_x, d_y, d_s


def _chol_solve(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    z = np.linalg.solve(low, rhs)
    return np.linalg.solve(low.T, z)


def _interior(x: SymSparse, s: SymSparse) -> bool:
    try:
        cholesky(x)
        maxdet_factor(s)
        return True
    except (NotPositiveDefinite, NotCompletable):
        return False


def max_step(it: Iterate, d_x: SymSparse, d_s: SymSparse, eta: float) -> float:
    """Fraction eta of the largest step in [0, 1] keeping both iterates
    strictly inside their cones, located by bisection with factorization
    feasibility tests."""
    if _interior(it.x + d_x, it.s + d_s):
        return eta
    lo, hi = 0.0, 1.0
    for _ in range(BISECT_DEPTH):
        mid = 0.5 * (lo + hi)
        if _interior(it.x + mid * d_x, it.s + mid * d_s):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return eta * lo


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
    trace: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
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
    vanishing steps; at MaxIter otherwise.  The trace records mu, residual
    norms, step length, centering weight, the scaling residual, and the
    proximity |v - mu vtilde| / mu per iteration.
    """
    opt = options or SolverOptions()
    st = problem.struct
    n = st.n
    x = identity(st)
    s = identity(st)
    y = np.zeros(problem.m)
    feas_scale = 1.0 + float(np.linalg.norm(problem.b)) + norm(problem.c)
    w_prev = None
    last_alpha = 0.0
    stalls = 0
    trace: list = []
    status = SolveStatus.MAX_ITER
    iterations = 0
    for k in range(opt.max_iter):
        it = Iterate(x=x, y=y, s=s, mu=inner(s, x) / n)
        res = residuals(problem, it)
        if (res.gap / n <= opt.tol_gap
                and res.p_norm() <= opt.tol_feas * feas_scale
                and res.d_norm() <= opt.tol_feas * feas_scale):
            status = SolveStatus.OPTIMAL
            break
        iterations = k + 1
        state = shadow_state(x, s)
        w = scaling_point(x, s, tol=SCALING_TOL, warm=w_prev, strict=False)
        w_prev = w
        base_op = pd_factor(w, x, s)
        op = bfgs_update(base_op, state)
        gamma = opt.gamma if opt.gamma is not None else \
            (0.1 if last_alpha >= 0.8 else 0.8)
        d_x, d_y, d_s = search_direction(problem, it, op, gamma)
        alpha = max_step(it, d_x, d_s, opt.step_fraction)
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
            "proximity": prox / it.mu,
        }
        trace.append(row)
        log.debug("it %3d  mu %9.3e  rp %9.3e  rd %9.3e  alpha %6.4f  gamma %.2f",
                  k, it.mu, row["primal_residual"], row["dual_residual"], alpha, gamma)
        if alpha < 1e-10:
            stalls += 1
            if stalls >= 2:
                status = SolveStatus.STALLED
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
        x=x, y=y, s=s, trace=trace,
    )
