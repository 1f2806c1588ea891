"""Multifrontal kernels on homogeneous chordal structures.

Every operation here is a single sweep over the elimination tree with small
dense frontal blocks (on a small tree, one step on one dense block):
Cholesky factorization, the four triangular-congruence applications
(forward, adjoint, and their inverses), the projected inverse, the
maximum-determinant completion factor, and the log-det barrier values,
gradients, and Hessian applications built from them.

Zero fill is structural: results live on the same column layout as the
inputs, which is what trivially perfect orderings buy.  Factorization
success doubles as the interior membership test for the sparse PSD cone
(`cholesky`) and for the completable cone (`maxdet_factor`).

Each sweep runs the schedule of its :class:`~homcone.matrix.Structure`
(Liu's multifrontal method): every batch is a stack of b same-shape
supernodes of k columns under d ancestors, with (b, k+d, k+d) frontal
blocks, swept in one step of one kind.  A level batch is b one-column
supernodes (k = 1) of one depth; a chain block is one supernode (b = 1)
of a fundamental chain of k >= 2 columns.  A step is stacked ``matmul``
calls on the supernodes' (b, k+d, k) trapezoids T
(:func:`~homcone.matrix._gather`, one take of the slot table at k = 1)
and on the inverses of their triangles.  A triangle is factored
(:func:`_factor`) and inverted (:func:`~homcone.matrix._inv`) by
``np.sqrt`` and a reciprocal at k = 1, each member's pivot checked
against its floor, and by ``np.linalg.cholesky`` and ``np.linalg.inv``
(numpy has no triangular solve) at k >= 2.  T and its triangles'
inverses are made once per factor (:func:`~homcone.matrix._panel`):
``cholesky`` leaves its own in the factor it returns.  ``forward_map``
is U L^T + L U^T with U = L X_h, X_h X's lower triangle with its diagonal
halved; that product (:func:`~homcone.matrix._chain_sweep`, also
``tri_mul``'s) is one more top-down sweep of the same batches, against
L's frontal blocks built from those panels, and ``adjoint_map`` is one
top-down sweep that hands L's frontal blocks down beside S's.  L^-1 has
no fill either, so the two inverse maps are these two maps with L^-1
(:func:`~homcone.matrix.tri_inverse`: one top-down sweep, made once per
factor and kept on it with its panels).
Batches are swept in the order they were compiled, every batch after its
parent's, top-down (:func:`~homcone.matrix._down`) and in reverse
bottom-up, holding only the blocks of batches whose consumer is pending.
A child's update block has its parent's frontal shape, so the extend-add
needs no index map inside a block: it adds one child batch's update
blocks at a time, one sibling rank at a time, into a slice of the
parents' frontal blocks (a level batch lists its supernodes by descending
number of children, so the parents with a rank-r child in a child batch
are consecutive), each parent taking its children in the same order
however its level is cut into batches.

Bits: a step sums as its ``matmul`` calls do, so results agree with a
node-by-node sweep to about 1e-12 relative on well-conditioned inputs,
not bitwise.  ``forward_map`` sums an update element as u_i l_j + l_i
u_j, in one ``matmul`` of inner dimension 2k, and at k = 1 ``cholesky``
and ``tri_inverse`` multiply by the reciprocal of a pivot where a
node-by-node sweep divides by it.
``maxdet_factor`` at k = 1 keeps that sweep's order of operations, u =
V^T s, r = s_ii - u^T u, L_ii = 1/sqrt(r) and L_sub = -(V u) L_ii, in
``matmul`` calls that on numpy 2.4 give the bits of its ``vecmat``,
``vecdot`` and ``matvec`` reductions.  A failing pivot is reported at the
node where a node-by-node sweep in position order stops, the lowest
(bottom-up) or highest (top-down) failing position: a supernode of k >= 2
whose triangle LAPACK refuses, or one of whose pivots does not clear the
floor, is redone column by column by the same step at k = 1.

A small tree is one dense supernode instead
(:attr:`~homcone.matrix.Structure.dense`, at most
:data:`~homcone.matrix.DENSE_NODES` nodes): every kernel but
``maxdet_factor`` scatters its values into the n x n block in position
order, makes one ``np.linalg.cholesky`` or two ``matmul`` calls on it
(against the factor's block, or its inverse by ``np.linalg.inv``, both
made once per factor as its panel), and gathers the pattern's slots
back, within roundoff of the sweep at one step's Python overhead.
``maxdet_factor`` sweeps there too: the completion is no dense function
of the block with its zeros.  A dense ``cholesky`` fails where LAPACK
refuses the block or a pivot L_ii^2 does not clear the floor; it raises
at once, and the error redoes the sweep to find its node and pivot only
when they are read.

``forward_map`` and ``adjoint_map`` also take a stack of the matrices they
map: values of shape (m, dim), under one factor L, a leading axis on every
frontal block (L's blocks are broadcast over it: the chain sweep's, and
the adjoint's one more member beside the stack's), so one sweep does all m
members with the same numpy calls as one matrix and each member's result
is bitwise that of its own call.
Every other kernel raises StructuralError on a stack.  A stack is swept
:attr:`~homcone.matrix.Structure.stack_rows` members at a time, so a
stacked step holds no more of the stack's blocks than the largest
one-matrix step or :data:`~homcone.matrix.BATCH_FLOATS` floats
(``adjoint_map`` holds L's block beside them).  Contiguity rule: a numpy
reduction such as ``vecdot`` repeats the one-matrix bits only if its
operands are laid out as in the one-matrix call, with the reduced axis
contiguous.  So values are stored C-contiguous and a stack is gathered
by ``np.take`` (``x[:, idx]`` would put the stack axis innermost);
stacked ``matmul`` calls run each member's matrices as the one-matrix
call does.

Kernels never modify their inputs' values and keep all sweep state in
locals but for what a factor caches, which any call makes with the same
bits and none writes once made, so concurrent calls on shared inputs are
safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NotCompletable, NotPositiveDefinite
from .matrix import (LowerSparse, Structure, SymSparse, _chain_sweep, _check_same, _down,
                     _gather, _inv, _lower, _lower_block, _nonsingular, _one, _panel, _store,
                     _tri, tri_inverse)

__all__ = [
    "CholFactor",
    "cholesky",
    "forward_map",
    "adjoint_map",
    "inverse_forward_map",
    "inverse_adjoint_map",
    "projected_inverse",
    "maxdet_factor",
    "dual_gradient",
    "barrier",
    "dual_barrier",
    "hess_apply",
    "inv_hess_apply",
]

#: Pivot threshold separating a boundary matrix from roundoff noise.
PIVOT_EPS = 1e-13


@dataclass(frozen=True)
class CholFactor:
    """Triangular factor X = L L^T with positive diagonal."""

    L: LowerSparse

    @property
    def struct(self) -> Structure:
        return self.L.struct

    def logdet(self) -> float:
        """log det X = 2 sum(log L_ii), for one matrix."""
        _one(self.L)
        return 2.0 * float(np.sum(np.log(self.L.diag)))


def _stacked(kernel):
    """Run the decorated map on a stack, its second argument, in chunks of
    ``Structure.stack_rows`` members, joining the results, so a stacked
    sweep holds no more frontal block at a time than ``stack_rows``
    allows."""
    @functools.wraps(kernel)
    def run(L, X):
        if X.vals.ndim == 1:
            return kernel(L, X)
        rows = X.struct.stack_rows
        parts = [kernel(L, SymSparse(X.struct, X.vals[i:i + rows])).vals
                 for i in range(0, max(len(X.vals), 1), rows)]
        return SymSparse(X.struct, parts[0] if len(parts) == 1 else np.concatenate(parts))
    return run


def _failures(seen, failed, nodes, lowest: bool):
    """Fold a batch's pivots and which failed (``failed``: two arrays in
    ``nodes`` order, or None) into ``seen``, the (position, value) of the failure where a
    one-node-at-a-time sweep stops, or None: the lowest failing position
    bottom-up (``lowest``), the highest top-down."""
    if failed is None or not np.count_nonzero(failed[1]):
        return seen
    hit = np.flatnonzero(failed[1])
    i = hit[(np.argmin if lowest else np.argmax)(nodes[hit])]
    if seen is None or (nodes[i] < seen[0] if lowest else nodes[i] > seen[0]):
        return nodes[i], failed[0][i]
    return seen


def _failed_at(st: Structure, seen) -> tuple:
    """The ``node`` and ``value`` of a sweep's failure ``seen``."""
    return st.ordering.sigma[int(seen[0])], float(seen[1])


def _up(s: Structure):
    """Bottom-up sweep, children's batches first.  Yields each batch with
    the store the kernel leaves its frontal blocks in, by batch id; from
    row and column 1 on they hold the updates for the parents (see
    ``Batch.kids``)."""
    done = {}
    for b in reversed(s.batches):
        yield b, done
        for c in b.children:
            del done[c]


def _add_kids(f, b, done):
    """Add the children's update blocks to the frontal blocks ``f``, child
    batch by child batch and one sibling rank at a time (``Batch.kids``):
    each into a slice of ``f``, the children gathered by index where they
    are not consecutive.  Each parent takes its children in the order
    ``Batch.kids`` fixes, so its sum has the same bits however its level
    is cut into batches."""
    for c, pl, ci in b.kids:
        f[..., pl, :, :] += done[c][..., ci, 1:, 1:]


def _front(xv, b, done):
    """The frontal blocks of a bottom-up batch: its columns of ``xv`` in
    the first k columns of zero blocks, plus the children's updates."""
    f = np.zeros(b.shape)
    f[..., :b.k] = _gather(xv, b)
    _add_kids(f, b, done)
    return f


def _sym(a):
    """The symmetric matrices with the lower triangles of ``a`` (a 1 x 1
    block is its own)."""
    return a if a.shape[-1] == 1 else np.where(_tri(a.shape[-1]), a, a.mT)


def _full(v, st):
    """The symmetric n x n blocks of ``v`` (one value array or a stack) in
    position order, each value at its slot's place in ``st.dense`` and at
    its mirror."""
    lower, mirror = st.dense.chain
    t = np.zeros(v.shape[:-1] + (st.n * st.n,))
    t[..., mirror] = v
    t[..., lower] = v
    return t.reshape(v.shape[:-1] + (st.n, st.n))


def _block(t, v, out):
    """Fill ``out`` with the symmetric (..., k+d, k+d) blocks whose first k
    columns hold the lower trapezoid of ``t``, shape (..., k+d, k), and
    whose trailing d x d blocks are ``v``."""
    k = t.shape[-1]
    out[..., k:, :k] = t[..., k:, :]
    out[..., :k, :k] = _sym(t[..., :k, :])
    out[..., :k, k:] = t[..., k:, :].mT
    out[..., k:, k:] = v


def _abt(a, b):
    """``a @ b^T`` over the last two axes, by a general product even when
    ``b`` is ``a`` (numpy's symmetric rank-k path is slower on these thin
    blocks)."""
    return a @ np.ascontiguousarray(b.mT)


def _potrf(a, floor):
    """``np.linalg.cholesky`` of the (..., k, k) blocks ``a`` and which
    failed, shape ``a.shape[:-2]``: all of them where LAPACK refuses one
    (the factor is then None), or one whose pivot L_ii^2 does not clear
    ``floor[..., i]``."""
    try:
        c = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None, np.ones(a.shape[:-2], dtype=bool)
    return c, ~(np.diagonal(c, axis1=-2, axis2=-1) ** 2 > floor).all(-1)


def _factor(a, floor):
    """The Cholesky factors of the (b, k, k) triangles ``a``, their
    inverses, and which of the b failed against ``floor`` (b, k), or None
    if none did.  At k = 1, ``np.sqrt`` and a reciprocal: a pivot at or
    below its floor fails and takes the factor inf and the inverse 0, so
    the sweep goes on past it.  At k >= 2, :func:`_potrf` and
    :func:`_inv`; the inverse is None if any failed."""
    if a.shape[-1] == 1:
        bad = (a[..., 0] <= floor)[..., 0]
        ok = not np.count_nonzero(bad)
        c = np.sqrt(a if ok else np.where(bad[..., None, None], np.inf, a))
        return c, 1.0 / c, None if ok else bad
    c, bad = _potrf(a, floor)
    ok = not bad.any()
    return c, _inv(c) if ok else None, None if ok else bad


def cholesky(X: SymSparse) -> CholFactor:
    """Zero-fill Cholesky factorization X = L L^T by a bottom-up sweep.

    At each supernode the frontal block is its columns bordered by the
    children's update blocks; a pivot at or below ``PIVOT_EPS * (1 +
    |X_ii|)`` raises :class:`NotPositiveDefinite`, which is exactly the
    test for X lying in the interior of the sparse PSD cone.  The node
    reported is the lowest failing position: every node below it
    succeeded, so it is where a sweep in ascending position order stops.

    On a dense block, X fails where LAPACK refuses it or a pivot L_ii^2
    is at or below that floor.  The error is raised at once and sweeps X
    for its node only when that is read (:func:`_dense_failure`).
    """
    _one(X)
    s = X.struct
    xv = X.vals
    floor = PIVOT_EPS * (1.0 + np.abs(xv[s.bar_ptr[:-1]]))
    if s.dense is not None:
        c, bad = _potrf(_full(xv, s), floor)
        if bad:
            xv = xv.copy()  # the values as they were, should X change
            raise NotPositiveDefinite(locate=lambda: _dense_failure(s, xv, floor))
        return CholFactor(LowerSparse(s, _lower(s.dense, c)))
    out, seen, panels = _cholesky_sweep(s, xv, floor)
    if seen is not None:
        raise NotPositiveDefinite(*_failed_at(s, seen))
    L = LowerSparse(s, out)
    L._panels.update(panels)
    return CholFactor(L)


def _cholesky_sweep(s: Structure, xv, floor):
    """The sweep of :func:`cholesky`: L's values, its batches' panels (see
    :func:`_eliminate`), and the failure where a one-node-at-a-time sweep
    stops, or None."""
    out = np.zeros(s.dim)
    seen = None
    panels = {}
    for b, done in _up(s):
        k = b.k
        f = _front(xv, b, done)
        panel, failed = _eliminate(f, k, floor[b.nodes].reshape(-1, k))
        seen = _failures(seen, failed, b.nodes, True)
        if panel is not None:
            panels[b] = panel
        _store(out, b, f[..., :k])
        done[b.id] = f[..., k - 1:, k - 1:]
    return out, seen, panels


def _dense_failure(s: Structure, xv, floor) -> tuple:
    """The node and pivot of a :func:`cholesky` whose dense step failed:
    where the sweep stops, or, where roundoff lifts every sweep pivot over
    its floor, the node whose pivot is nearest to it."""
    out, seen, _ = _cholesky_sweep(s, xv, floor)
    if seen is not None:
        return _failed_at(s, seen)
    p = out[s.bar_ptr[:-1]] ** 2
    i = int(np.argmin(p / floor))
    return s.ordering.sigma[i], float(p[i])


def _eliminate(f, k, floor):
    """Eliminate the first k columns of the frontal blocks ``f`` (b, k+d,
    k+d) in place: L11 = chol(F11), L21 = F21 L11^-T, and the update F22 -
    L21 L21^T.  Returns the panel [[L11; L21], L11^-1] for
    :func:`~homcone.matrix._panel`, and the failure: the raw pivots and
    which failed, in ``Batch.nodes`` order, or None.  A triangle of k >= 2
    that :func:`_factor` fails is redone column by column, by this step at
    k = 1 on its trailing blocks, to find the failing nodes and pivots; it
    leaves no panel."""
    c, ci, bad = _factor(f[..., :k, :k], floor)
    if bad is not None and k > 1:
        pivot, fail = np.zeros(k), np.zeros(k, dtype=bool)
        for i in range(k):
            _, failed = _eliminate(f[..., i:, i:], 1, floor[..., i:i + 1])
            if failed:
                pivot[i:i + 1], fail[i:i + 1] = failed
        return None, (pivot, fail)
    failed = None if bad is None else (f[..., 0, 0].copy(), bad)
    l21 = _abt(f[..., k:, :k], ci)
    f[..., :k, :k] = c
    f[..., k:, :k] = l21
    f[..., k:, k:] -= _abt(l21, l21)
    return [f[..., :k].copy(), ci], failed


@_stacked
def forward_map(L: LowerSparse, X: SymSparse) -> SymSparse:
    """Y = L X L^T, exactly, staying on the pattern; for each member of a
    stack X."""
    _check_same(L, X)
    _one(L)
    s = L.struct
    xv = X.vals
    if s.dense is not None:
        t = _panel(L, s.dense)[0]
        return SymSparse(s, _lower(s.dense, t @ _full(xv, s) @ t.T))
    out = np.zeros(xv.shape)
    # L X L^T = U L^T + L U^T, U = L X_h with X_h X's lower triangle, its
    # diagonal halved (0.5 * weights is exactly 0.5 there and 1 elsewhere)
    lx = _chain_sweep(s, L, 0.5 * s.weights * xv)
    for b, done in _up(s):
        k = b.k
        t = _panel(L, b)[0]
        u = _gather(lx, b)
        tu = np.broadcast_to(t, u.shape)
        f = _abt(np.concatenate([u, tu], -1), np.concatenate([tu, u], -1))
        _add_kids(f, b, done)
        _store(out, b, f[..., :k])
        done[b.id] = f[..., k - 1:, k - 1:]
    return SymSparse(s, out)


@_stacked
def adjoint_map(L: LowerSparse, S: SymSparse) -> SymSparse:
    """Y = projection of L^T S L onto the pattern (the adjoint of
    forward_map under the trace inner product); for each member of a
    stack S.

    One top-down sweep: a supernode's rows P are closed upward, so its
    columns are Y[P, C] = Λ^T S[P, P] Λ[P, C] with Λ = L[P, P] = [[T_CC,
    0], [T_AC, V]].  Its m + 1 handed-down blocks are S's, members [:m],
    and Λ, member m."""
    _check_same(L, S)
    _one(L)
    st, sv = L.struct, S.vals
    if st.dense is not None:
        t = _panel(L, st.dense)[0]
        return SymSparse(st, _lower(st.dense, t.T @ _full(sv, st) @ t))
    out = np.empty(sv.shape)
    for b, v, pack in _down(st, ((len(sv) if sv.ndim > 1 else 1) + 1,)):
        _lower_block(_panel(L, b)[0], v[-1], pack[-1])
        _block(_gather(sv, b), v[:-1], pack[:-1])
        y = pack[-1].mT @ (pack[:-1] @ pack[-1][..., :b.k])
        _store(out, b, y if sv.ndim > 1 else y[0])
    return SymSparse(st, out)


def inverse_forward_map(L: LowerSparse, X: SymSparse) -> SymSparse:
    """Y = L^{-1} X L^{-T}: ``forward_map`` with L^-1
    (:func:`~homcone.matrix.tri_inverse`, made once per factor); on
    ``Structure.dense``, with the inverse of L's block."""
    _one(L, X)
    _check_same(L, X)
    s = L.struct
    if s.dense is None:
        return forward_map(tri_inverse(L), X)
    _nonsingular(L)
    li = _panel(L, s.dense, True)[1]
    return SymSparse(s, _lower(s.dense, li @ _full(X.vals, s) @ li.T))


def inverse_adjoint_map(L: LowerSparse, S: SymSparse) -> SymSparse:
    """Y = projection of L^{-T} S L^{-1} onto the pattern: ``adjoint_map``
    with L^-1, as :func:`inverse_forward_map`."""
    _one(L, S)
    _check_same(L, S)
    s = L.struct
    if s.dense is None:
        return adjoint_map(tri_inverse(L), S)
    _nonsingular(L)
    li = _panel(L, s.dense, True)[1]
    return SymSparse(s, _lower(s.dense, li.T @ _full(S.vals, s) @ li))


def projected_inverse(F: CholFactor) -> SymSparse:
    """Y = projection of X^{-1} onto the pattern, from the factor of X.
    This is the negated barrier gradient."""
    L = F.L
    _one(L)
    st = L.struct
    if st.dense is not None:
        li = _panel(L, st.dense, True)[1]
        return SymSparse(st, _lower(st.dense, li.T @ li))
    out = np.zeros(st.dim)
    for b, v, pack in _down(st):
        # Y21 = -V P and Y11 = L11^-T L11^-1 - P^T Y21, P = L21 L11^-1
        k = b.k
        t, li = _panel(L, b, True)
        p = t[..., k:, :] @ li
        y21 = -(v @ p)
        y = np.concatenate([li.mT @ li - p.mT @ y21, y21], -2)
        _store(out, b, y)
        if b.children:
            _block(y, v, pack)
    return SymSparse(st, out)


def maxdet_factor(S: SymSparse) -> CholFactor:
    """Factor L of the inverse of the maximum-determinant positive definite
    completion of S: the projection of (L L^T)^{-1} onto the pattern
    reproduces S.

    Runs top-down, passing the already-computed ancestor block of L to each
    child.  A nonpositive Schur complement raises :class:`NotCompletable`,
    which is exactly the test for S lying in the interior of the
    completable cone.  The node reported is the highest failing position:
    every node above it succeeded, so it is where a sweep in descending
    position order stops.
    """
    _one(S)
    st = S.struct
    sv = S.vals
    floor = PIVOT_EPS * (1.0 + np.abs(sv[st.bar_ptr[:-1]]))
    out = np.zeros(st.dim)
    seen = None
    for b, v, pack in _down(st):
        k = b.k
        y, failed = _complete(_gather(sv, b), v, floor[b.nodes].reshape(-1, k))
        seen = _failures(seen, failed, b.nodes, False)
        _store(out, b, y)
        if b.children:
            _lower_block(y, v, pack)
    if seen is not None:
        raise NotCompletable(*_failed_at(st, seen))
    return CholFactor(LowerSparse(st, out))


def _complete(t, v, floor):
    """The completion factor's columns [L11; L21] of supernodes whose
    columns of S are the trapezoids ``t`` (b, k+d, k), under the factor's
    parent blocks ``v`` (b, d, d): with U = V^T S21 and R = S11 - U^T U,
    L11 L11^T = R^-1 by the Cholesky factor K of R with rows and columns
    reversed, L11 = rev(K^-T), and L21 = -(V U) L11.  At k = 1 this is
    u = V^T s, r = s_ii - u^T u, L_ii = 1/sqrt(r) and L_sub = -(V u) L_ii.
    Returns them and the failure, the Schur complements and which failed
    (K_ii^2 is node k-1-i's), or None.  A triangle of k >= 2 that
    :func:`_factor` fails is redone column by column top down, by this
    step at k = 1, to find the failing nodes and Schur complements."""
    k = t.shape[-1]
    u = v.mT @ t[..., k:, :]
    r = _sym(t[..., :k, :]) - u.mT @ u
    _, ki, bad = _factor(r[..., ::-1, ::-1], floor[..., ::-1])
    if bad is not None and k > 1:
        y = np.zeros(t.shape[:-1] + t.shape[-2:-1])
        y[..., k:, k:] = v
        value, fail = np.zeros(k), np.zeros(k, dtype=bool)
        for i in range(k - 1, -1, -1):
            y[..., i:, i:i + 1], failed = _complete(t[..., i:, i:i + 1], y[..., i + 1:, i + 1:],
                                                    floor[..., i:i + 1])
            if failed:
                value[i:i + 1], fail[i:i + 1] = failed
        return y[..., :k], (value, fail)
    l11 = ki.mT[..., ::-1, ::-1]
    if k > 1:  # np.linalg.inv leaves roundoff above the diagonal
        l11 = np.where(_tri(k), l11, 0.0)
    y = np.concatenate([l11, -((v @ u) @ l11)], -2)
    return y, None if bad is None else (r[..., 0, 0], bad)


def dual_gradient(Lhat: CholFactor) -> SymSparse:
    """Y = L L^T from a completion factor: the inverse of the
    maximum-determinant completion, i.e. the negated dual-barrier
    gradient."""
    _one(Lhat.L)
    st = Lhat.struct
    if st.dense is not None:
        t = _panel(Lhat.L, st.dense)[0]
        return SymSparse(st, _lower(st.dense, t @ t.T))
    out = np.zeros(st.dim)
    for b, done in _up(st):
        k = b.k
        t = _panel(Lhat.L, b)[0]
        f = _abt(t, t)
        _add_kids(f, b, done)
        _store(out, b, f[..., :k])
        done[b.id] = f[..., k - 1:, k - 1:]
    return SymSparse(st, out)


def barrier(F: CholFactor) -> float:
    """Log-det barrier value -ln det X from the factor of X."""
    return -F.logdet()


def dual_barrier(S: SymSparse) -> float:
    """Conjugate barrier value at S: with L the completion factor of S,
    the value is 2 sum(ln L_ii) - N."""
    f = maxdet_factor(S)
    return f.logdet() - S.struct.n


def hess_apply(F: CholFactor, Y: SymSparse) -> SymSparse:
    """Barrier Hessian at X applied to Y: projection of X^{-1} Y X^{-1},
    evaluated through the factored form."""
    return inverse_adjoint_map(F.L, inverse_forward_map(F.L, Y))


def inv_hess_apply(F: CholFactor, Y: SymSparse) -> SymSparse:
    """Inverse barrier Hessian at X applied to Y."""
    return forward_map(F.L, adjoint_map(F.L, Y))
