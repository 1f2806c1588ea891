"""Primal-dual scalings.

Given interior points x (sparse PSD cone) and s (completable cone), there
is a unique triangular congruence whose inverse maps x to the same v-space
point that its adjoint maps s to.  It is obtained from the Cholesky factor
L of the scaling point w, the interior point at which the barrier Hessian
sends x to s.  The operator built here needs w only near that point: a
first rank-one term, in the style of a BFGS update (Tuncel, FoCM 2001),
makes it map v = beta L*(s) to x while its adjoint maps s to v, exactly,
from any interior w.  A second term of the same kind then also aligns the
shadow iterates (the images of the two barrier gradients), which is what
the interior-point search direction consumes.

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
    """Iterate pair with x's factor, shadow points and displacements.

    x_factor is x's cholesky, with the L^-1 panels projected_inverse cached
    on it.  x_shadow is the point whose projected inverse is s (negated
    dual gradient); s_shadow is the projected inverse of x (negated primal
    gradient).  mu is the normalized duality gap <s,x>/N.  delta_p and
    delta_d vanish exactly on the central path; <s, delta_p> = <delta_d, x> = 0
    and <delta_d, delta_p> >= 0.
    """

    x: SymSparse
    s: SymSparse
    x_factor: CholFactor
    x_shadow: SymSparse
    s_shadow: SymSparse
    mu: float
    delta_p: SymSparse
    delta_d: SymSparse


def shadow_state(x: SymSparse, s: SymSparse) -> ScalingState:
    """Build the scaling state, certifying x by one cholesky and then s by
    one maxdet_factor (NotPositiveDefinite or NotCompletable says which)."""
    x_factor = cholesky(x)
    s_factor = maxdet_factor(s)
    x_shadow = dual_gradient(s_factor)
    s_shadow = projected_inverse(x_factor)
    mu = inner(s, x) / x.struct.n
    return ScalingState(
        x=x, s=s, x_factor=x_factor, x_shadow=x_shadow, s_shadow=s_shadow, mu=mu,
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
    """Triangular congruence L(.)L^T plus rank-one terms.

    Each term (v_k, u_k, |v_k|^2) adds (<v_k, .>/|v_k|^2) u_k to the
    forward mode and (<u_k, .>/|v_k|^2) v_k to the adjoint; the inverse
    modes undo the terms by Sherman-Morrison.  :func:`pd_factor` adds the
    first term, mapping v = v_1 to x (``residual`` is its size
    |u_1| = |x - L(v)|), and :func:`bfgs_update` the second, mapping v_hat
    to delta_p.
    """

    base: LowerSparse
    terms: tuple = ()                    # (v_k, u_k, |v_k|^2) in the order added

    v = property(lambda self: self.terms[0][0])
    residual = property(lambda self: norm(self.terms[0][1]))

    @property
    def corrected(self) -> bool:
        return len(self.terms) > 1

    @property
    def v_hat(self) -> Optional[SymSparse]:
        return self.terms[1][0] if self.corrected else None

    def v_hat_or_zero(self) -> SymSparse:
        return self.v_hat if self.corrected else zeros(self.base.struct)


def _with_pair(op: ScalingOperator, p: SymSparse, d: SymSparse, curv: float) -> ScalingOperator:
    """op plus one rank-one term after which it maps v to p and its adjoint
    maps d to v, where v = beta op*(d) with |v|^2 = curv = <p, d> > 0.
    The earlier terms' equations still hold when <d, p_k> = <p, d_k> = 0."""
    a = apply_scaling(op, "adjoint", d)
    v = a / (norm(a) / float(np.sqrt(curv)))
    u = p - apply_scaling(op, "forward", v)
    return replace(op, terms=op.terms + ((v, u, curv),))


def pd_factor(w: SymSparse, x: SymSparse, s: SymSparse) -> ScalingOperator:
    """Factor w into L and add the rank-one term that makes the operator
    exact on the pair (x, s) from any interior w: with v = beta L*(s) and
    |v|^2 = <x, s>, the operator maps v to x and its adjoint maps s to v.
    At the scaling point of the pair, beta = 1 and the term vanishes;
    ``residual`` is its size |x - L(v)|."""
    return _with_pair(ScalingOperator(base=cholesky(w).L), x, s, inner(x, s))


def _rank_one(a: SymSparse, z: SymSparse, scale: float, u: SymSparse) -> SymSparse:
    """(<a, z> / scale) u for z and for each member of a stack z, the inner
    products taken by one np.vecdot."""
    coef = np.vecdot(a.struct.weights * a.vals, z.vals) / scale
    return SymSparse(u.struct, coef[..., None] * u.vals)


def _sherman_morrison(base_inverse, ell: LowerSparse, terms, z: SymSparse) -> SymSparse:
    """Inverse of base + sum_k (<a_k, .>/n_k) b_k at z, for terms
    (a_k, b_k, n_k): the base inverse of every b_k and of z, then each
    term undone in the order added, on z and on the later terms' b."""
    ys = [base_inverse(ell, b) for _, b, _ in terms] + [base_inverse(ell, z)]
    for k, (a, _, n) in enumerate(terms):
        c = n + inner(a, ys[k])
        ys[k + 1:] = [y - (inner(a, y) / c) * ys[k] for y in ys[k + 1:]]
    return ys[-1]


def apply_scaling(op: ScalingOperator, mode: str, z: SymSparse) -> SymSparse:
    """Apply one of the four modes of the operator: forward, adjoint,
    inverse, or inverse_adjoint.  The forward and adjoint modes also take
    a stack z and apply to each member."""
    ell = op.base
    if mode == "forward":
        out = forward_map(ell, z)
        for v, u, n in op.terms:
            out = out + _rank_one(v, z, n, u)
        return out
    if mode == "adjoint":
        out = adjoint_map(ell, z)
        for v, u, n in op.terms:
            out = out + _rank_one(u, z, n, v)
        return out
    if mode == "inverse":
        return _sherman_morrison(inverse_forward_map, ell, op.terms, z)
    if mode == "inverse_adjoint":
        return _sherman_morrison(inverse_adjoint_map, ell,
                                 [(u, v, n) for v, u, n in op.terms], z)
    raise ValueError(f"unknown mode {mode!r}")


def bfgs_update(op: ScalingOperator, state: ScalingState) -> ScalingOperator:
    """Rank-one update aligning the shadow iterates.

    On a central pair (both displacements vanish) the operator is returned
    unchanged.  Otherwise the pair (delta_p, delta_d) gets the term
    :func:`pd_factor` gives (x, s), added on top of it, and the updated
    operator satisfies all four equations: inverse(x) = adjoint(s) = v
    and inverse(delta_p) = adjoint(delta_d) = v_hat, with
    |v_hat|^2 = <delta_p, delta_d>.  The first pair's equations survive
    because <delta_d, x> = <s, delta_p> = 0.  Nonpositive curvature
    <delta_d, delta_p> means the inputs are not a genuine interior pair.
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
    return _with_pair(op, dp, dd, curv)
