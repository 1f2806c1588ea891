"""Primal-dual scalings.

Given interior points x (sparse PSD cone) and s (completable cone), there
is a unique triangular congruence whose inverse maps x to the same v-space
point that its adjoint maps s to.  It is obtained from the Cholesky factor
of the scaling point w, the interior point at which the barrier Hessian
sends x to s.  A rank-one correction in the style of a BFGS update then
also aligns the shadow iterates (the images of the two barrier gradients),
which is what the interior-point search direction consumes.

The corrected operator is not self-adjoint and is not claimed to be a cone
automorphism; only the alignment equations and the adjoint contract are
guaranteed (and tested).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import NonpositiveCurvature, NotPositiveDefinite
from .factor import (
    CholFactor,
    adjoint_map,
    cholesky,
    dual_gradient,
    forward_map,
    hess_apply,
    inverse_adjoint_map,
    inverse_forward_map,
    maxdet_factor,
    projected_inverse,
)
from .matrix import (
    LowerSparse,
    Structure,
    SymSparse,
    inner,
    norm,
    to_dense,
    zeros,
)

__all__ = [
    "ScalingState",
    "ScalingOperator",
    "ScalingPoint",
    "shadow_state",
    "scaling_point",
    "pd_factor",
    "bfgs_update",
    "apply_scaling",
]


#: Newton steps the scaling-point search may take
NEWTON_STEPS = 100
#: relative size below which bfgs_update takes both displacements as zero
ZERO_TOL = 1e-12


@dataclass(frozen=True)
class ScalingState:
    """Iterate pair with shadow points and displacement directions.

    x_shadow is the point whose projected inverse is s (negated dual
    gradient); s_shadow is the projected inverse of x (negated primal
    gradient).  mu is the normalized duality gap <s,x>/N.  delta_p and
    delta_d vanish exactly on the central path and satisfy
    <s, delta_p> = <delta_d, x> = 0 and <delta_d, delta_p> >= 0.
    """

    x: SymSparse
    s: SymSparse
    x_shadow: SymSparse
    s_shadow: SymSparse
    mu: float
    delta_p: SymSparse
    delta_d: SymSparse


def shadow_state(x: SymSparse, s: SymSparse) -> ScalingState:
    """Build the scaling state, certifying interior membership on the way
    (NotPositiveDefinite names the primal cone, NotCompletable the dual)."""
    x_factor = cholesky(x)
    s_factor = maxdet_factor(s)
    x_shadow = dual_gradient(s_factor)
    s_shadow = projected_inverse(x_factor)
    mu = inner(s, x) / x.struct.n
    return ScalingState(
        x=x, s=s, x_shadow=x_shadow, s_shadow=s_shadow, mu=mu,
        delta_p=x - mu * x_shadow, delta_d=s - mu * s_shadow)


class ScalingPoint(NamedTuple):
    """What :func:`scaling_point` found: ``w`` on the caller's scale (the
    best iterate when the search stopped short), its gradient norm
    ``residual`` on the unit-norm scale the target is set on, the Newton
    ``steps`` taken, and ``stop``, why the search stopped above its
    target, or None when it met it."""

    w: SymSparse
    residual: float
    steps: int
    stop: Optional[str]


def _newton_system(struct: Structure, w_dense, x_dense):
    """Coefficient matrix of the scaling-point Newton step on the entry
    coordinates of the pattern: the linearization of the map
    W -> projection of W^{-1} x W^{-1}, written with the weighted trace
    inner product so the system is symmetric.  Of its four terms, the
    fourth is the transpose of the second, product for product.  The
    first three are products of contiguous gathers, the second factors
    gathered from P^T and Q^T (not strided views) into one reused
    buffer, summed in place into the first, ((t1 + t2) + t3) + t2^T.
    The result is made last, by a fresh product: made in place, it
    raised a solve-mixed pass's time here from 175 to 328 ms, by the
    allocation order inside the solves."""
    p = np.linalg.inv(w_dense)
    q = p @ x_dense @ p
    r = struct._row_vertex
    c = struct._col_vertex
    pr, qr, pc = p.take(r, 0), q.take(r, 0), p.T.take(c, 0)
    m = qr.take(r, 1)
    u = pc.take(c, 1)
    m *= u
    t2 = qr.take(c, 1)
    t2 *= pc.take(r, 1, out=u, mode="clip")
    m += t2
    t3 = q.T.take(c, 0).take(c, 1)
    t3 *= pr.take(r, 1, out=u, mode="clip")
    m += t3
    m += t2.T
    m *= struct.weights[:, None]
    return m * np.where(r == c, 0.5, 1.0)


def _line_points(w: SymSparse, dw: SymSparse):
    """(t, w + t dw, its factor) for each t = 1, 1/2, 1/4, ... above 1e-12
    at which w + t dw factors, in that order, one cholesky per t."""
    t = 1.0
    while t > 1e-12:
        cand = w + t * dw
        try:
            fc = cholesky(cand)
        except NotPositiveDefinite:
            pass
        else:
            yield t, cand, fc
        t *= 0.5


def scaling_point(x: SymSparse, s: SymSparse, tol: float = 1e-9) -> ScalingPoint:
    """Interior point w at which the barrier Hessian maps x to s, in a
    :class:`ScalingPoint` record.

    Damped Newton on the convex objective
    phi(W) = <proj(W^{-1}), x> + <s, W>, whose gradient is
    s - hess(W)[x]; steps are backtracked to keep W factorizable.  Inputs
    are rescaled to unit norm internally (an exact change of variables) and
    the search starts at x/sqrt(mu), which is exact on the central path.

    The backtracking tests the full step, then t = 1/2, 1/4, ... one at
    a time: one cholesky of w + t dw, and at a point that factors, one
    projected_inverse for its objective.  A point that does not factor
    only raises: the search never reads where it failed, so on a dense
    block that costs one dense step, not a sweep.

    The search stops short of ``tol`` when the NEWTON_STEPS budget runs
    out, 8 steps in a row make no progress, the line search reaches its
    floor t <= 1e-12 or the Newton system is singular.  It then returns
    its best iterate with ``stop`` naming the reason: deep inside a
    path-following run, where the floor rises as the iterates approach
    the boundary, the caller may go on with that iterate.
    """
    st = x.struct
    nx, ns = norm(x), norm(s)
    xb = x / nx
    sb = s / ns
    back = float(np.sqrt(nx / ns))
    w = xb / float(np.sqrt(inner(sb, xb) / st.n))
    xd = to_dense(xb)

    def objective(fc: CholFactor, point: SymSparse) -> float:
        """phi at ``point`` from its factor ``fc``."""
        return inner(projected_inverse(fc), xb) + inner(sb, point)

    best_w, best_g = w, np.inf
    no_progress = 0
    f = phi0 = None  # the accepted line-search point's factor and objective
    for steps in range(NEWTON_STEPS):
        if f is None:
            f = cholesky(w)
        g = sb - hess_apply(f, xb)
        gn = norm(g)
        if gn <= tol:
            return ScalingPoint(back * w, gn, steps, None)
        if gn < 0.99 * best_g:
            no_progress = 0
        else:
            no_progress += 1
        if gn < best_g:
            best_w, best_g = w, gn
        if no_progress >= 8:
            why = "8 steps in a row made no progress"
            break
        m = _newton_system(st, to_dense(w), xd)
        rhs = -st.weights * g.vals
        try:
            dw = SymSparse(st, np.linalg.solve(m, rhs))
        except np.linalg.LinAlgError:
            why = "the Newton system is singular"
            break
        # In the quadratic basin the objective decrease is ~|g|^2, beneath
        # evaluation noise, so there accept any feasible full step instead
        # of asking a sufficient-decrease test to certify it.
        basin = gn <= 1e-6
        if not basin:
            if phi0 is None:
                phi0 = objective(f, w)
            slope = inner(g, dw)
        for t, cand, fc in _line_points(w, dw):
            phi = None if basin else objective(fc, cand)
            if basin or phi <= phi0 + 1e-4 * t * slope:
                break
        else:
            why = "the line search reached its numerical floor t <= 1e-12"
            break
        # the next iterate is this candidate, bit for bit: keep its factor
        # and objective instead of computing them again
        w, f, phi0 = cand, fc, phi
    else:
        steps, why = NEWTON_STEPS, "the step budget ran out"
    return ScalingPoint(back * best_w, best_g, steps, why)


@dataclass(frozen=True)
class ScalingOperator:
    """Triangular congruence with an optional rank-one correction.

    Without the correction the four apply modes delegate to the factor
    kernels for the base factor L.  With it, forward adds
    (<v_hat, .>/|v_hat|^2) u with u = delta_p - L(v_hat), and the other
    modes apply the matching algebraic transposes/inverses.
    """

    base: LowerSparse
    v: Optional[SymSparse] = None        # common v-space image of (x, s)
    residual: float = 0.0                # |L^{-1}(x) - L*(s)|
    v_hat: Optional[SymSparse] = None
    u_corr: Optional[SymSparse] = None   # delta_p - L(v_hat)
    alpha: float = 1.0
    vhat_norm2: float = 0.0              # <delta_p, delta_d>

    @property
    def corrected(self) -> bool:
        return self.v_hat is not None

    def v_hat_or_zero(self) -> SymSparse:
        return self.v_hat if self.corrected else zeros(self.base.struct)


def pd_factor(w: SymSparse, x: SymSparse, s: SymSparse) -> ScalingOperator:
    """Factor the scaling point of the pair (x, s) into the congruence
    operator (no rank-one correction).  The common v-space image
    L^{-1}(x) is stored on the operator along with the achieved residual
    |L^{-1}(x) - L*(s)|."""
    ell = cholesky(w).L
    v = inverse_forward_map(ell, x)
    res = norm(v - adjoint_map(ell, s))
    return ScalingOperator(base=ell, v=v, residual=res)


def _rank_one(a: SymSparse, z: SymSparse, scale: float, u: SymSparse) -> SymSparse:
    """(<a, z> / scale) u for z and for each member of a stack z, the inner
    products taken by one np.vecdot."""
    coef = np.vecdot(a.struct.weights * a.vals, z.vals) / scale
    return SymSparse(u.struct, coef[..., None] * u.vals)


def apply_scaling(op: ScalingOperator, mode: str, z: SymSparse) -> SymSparse:
    """Apply one of the four modes of the (possibly corrected) operator:
    forward, adjoint, inverse, or inverse_adjoint.  The forward and
    adjoint modes also take a stack z and apply to each member."""
    ell = op.base
    if mode == "forward":
        out = forward_map(ell, z)
        if op.corrected:
            out = out + _rank_one(op.v_hat, z, op.vhat_norm2, op.u_corr)
        return out
    if mode == "adjoint":
        out = adjoint_map(ell, z)
        if op.corrected:
            out = out + _rank_one(op.u_corr, z, op.vhat_norm2, op.v_hat)
        return out
    # the inverse modes use L^{-*}(v_hat) and v_hat - L^{-1}(delta_p),
    # which is -L^{-1}(u_corr)
    if mode == "inverse":
        out = inverse_forward_map(ell, z)
        if op.corrected:
            coef = op.alpha * inner(inverse_adjoint_map(ell, op.v_hat), z) / op.vhat_norm2
            out = out - coef * inverse_forward_map(ell, op.u_corr)
        return out
    if mode == "inverse_adjoint":
        out = inverse_adjoint_map(ell, z)
        if op.corrected:
            coef = op.alpha * inner(inverse_forward_map(ell, op.u_corr), z) / op.vhat_norm2
            out = out - coef * inverse_adjoint_map(ell, op.v_hat)
        return out
    raise ValueError(f"unknown mode {mode!r}")


def bfgs_update(op: ScalingOperator, state: ScalingState) -> ScalingOperator:
    """Rank-one update aligning the shadow iterates.

    On a central pair (both displacements vanish) the operator is returned
    unchanged.  Otherwise the correction direction is the adjoint image of
    delta_d, normalized so its norm squared equals <delta_p, delta_d>, and
    the updated operator satisfies all four equations: inverse(x) =
    adjoint(s) = v and inverse(delta_p) = adjoint(delta_d) = v_hat.
    Nonpositive curvature <delta_d, delta_p> means the inputs are not a
    genuine interior pair.
    """
    dp, dd = state.delta_p, state.delta_d
    mu = state.mu
    # Displacements scale with the iterates, so the vanishing test must
    # too, or roundoff-sized deltas near convergence masquerade as data.
    p_scale = max(mu, norm(state.x))
    d_scale = max(mu, norm(state.s))
    if norm(dp) <= ZERO_TOL * p_scale and norm(dd) <= ZERO_TOL * d_scale:
        return op
    curv = inner(dd, dp)
    if curv <= 0.0:
        raise NonpositiveCurvature(
            f"<delta_d, delta_p> = {curv:.3e} <= 0; iterate pair is corrupted")
    ell = op.base
    ls_dd = adjoint_map(ell, dd)
    alpha = norm(ls_dd) / float(np.sqrt(curv))
    v_hat = ls_dd / alpha
    return replace(
        op,
        v_hat=v_hat,
        u_corr=dp - forward_map(ell, v_hat),
        alpha=alpha,
        vhat_norm2=curv,
    )
