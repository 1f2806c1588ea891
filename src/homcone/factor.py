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

Each sweep runs the schedule of its :class:`~homcone.matrix.Structure`.
A level batch of same-depth nodes is one batched numpy step on stacked
``(k, d+1, d+1)`` frontal blocks of at most
:data:`~homcone.matrix.BATCH_FLOATS` floats.  A chain block, a fundamental
chain of k columns under d ancestors whose node-by-node frontal blocks
reach BATCH_FLOATS floats, is one dense step on its ``(k+d, k+d)`` block
and the ``(k+d, k)`` trapezoid of its columns: ``matmul``,
``np.linalg.cholesky`` and ``np.linalg.inv`` (numpy has no triangular
solve) in place of k per-depth steps.  What a chain block derives from
a factor L alone, its trapezoid and the inverse of its triangle, is made
once per factor (:func:`~homcone.matrix._panel`): ``cholesky`` leaves
its own in the factor it returns, and every kernel and chain product on
that factor reads them.  So are the columns of L
that the ancestor-chain products step against at each depth
(:func:`~homcone.matrix._chain_columns`), gathered by the first chain
product on a factor.  The batches form a tree (a
batch's parents sit in one batch), swept in the order they were compiled,
every batch after its parent's, top-down and in reverse bottom-up; only
the blocks of batches whose consumer is still pending are held.
Children's update blocks reach their parent by a scatter in ascending
sibling order, and every batched product in a level batch reproduces the
per-node BLAS call; the forward maps form a level batch's rank-2 update
in contiguous buffers and write the strided block of its frontal blocks
once.  The ancestor-chain products and substitutions
(:func:`~homcone.matrix._chain`) run for all columns at once: a member
in a level batch in one step per depth that moves each column's chain
and L's column as whole contiguous runs through strided window views, a
chain block's members in one ``matmul`` step against its trapezoid (and
``np.linalg.inv`` of its triangle for the substitutions), for its own
columns and every column below it.  So on a structure without chain
blocks (every structure whose fundamental chains are short or shallow)
results are bitwise those of visiting the nodes one at a time; a chain
block sums in another order and agrees with that to about 1e-12
relative on well-conditioned inputs.  A failing pivot is reported
at the node where the one-at-a-time sweep in position order stops, the
lowest (bottom-up) or highest (top-down) failing position over the whole
sweep: a chain block whose factor LAPACK refuses, or one of whose pivots
does not clear the floor, is redone by the level step to find it.

A small tree is one dense supernode instead
(:attr:`~homcone.matrix.Structure.dense`, at most
:data:`~homcone.matrix.DENSE_NODES` nodes): every kernel but
``maxdet_factor`` scatters its values into the n x n block in position
order, makes one ``np.linalg.cholesky`` or two ``matmul`` calls on it
(against the factor's block, or its inverse by ``np.linalg.inv``, both
made once per factor as its panel), and gathers the pattern's slots
back.  The block's zeros at incomparable pairs stay exact, so these
kernels agree with the sweep to roundoff (not bitwise), at one step's
Python overhead instead of one per batch.  ``maxdet_factor`` sweeps
there too: the completion is no dense function of the block with its
zeros.  A dense ``cholesky`` fails where LAPACK refuses the block or a
pivot L_ii^2 does not clear the floor.  It raises at once, and the error
redoes the sweep to find its node and pivot only when they are read, so a
caller that only tests membership pays for one dense step.

``forward_map`` and ``adjoint_map`` also take a stack of the matrices they
map: a SymSparse whose values have shape (m, dim), under one factor L.  The
stack is a leading axis on every frontal block, so one sweep does all m
members with the same numpy calls as one matrix, and each member's result
is bitwise that of its own call.  The single-matrix call is the same code
without the axis.  Every other kernel takes one matrix and raises
StructuralError on a stack.  A stack is swept
:attr:`~homcone.matrix.Structure.stack_rows` members at a time, so a
stacked step holds no more than the largest one-matrix step or
:data:`~homcone.matrix.BATCH_FLOATS` floats.  Contiguity rule: a numpy
reduction (``vecdot``, ``matvec``, ``vecmat``) repeats the one-matrix
bits only if its operands are laid out as in the one-matrix call, with
the reduced axis contiguous.  So values are stored C-contiguous, and a
stack is gathered by ``np.take`` (``x[:, idx]`` would put the stack axis
innermost) or, for one-node batches, by slice views.  Stacked ``matmul``
calls run each member's matrices as the one-matrix call does.

Kernels never modify their inputs' values and keep all sweep state in
locals but for what a factor caches, its chain blocks' panels and its
chain columns, which any call makes with the same bits and none writes
once made, so concurrent calls on shared inputs are safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NotCompletable, NotPositiveDefinite
from .matrix import (LowerSparse, Structure, SymSparse, _chain, _check_same, _gather, _lower,
                     _nonsingular, _one, _panel, _put, _store, _take, _tri)

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
    """Fold a batch's pivots and which failed (``failed``: two (k,) arrays,
    or None) into ``seen``, the (position, value) of the failure where a
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


def _down(s: Structure, stack: tuple = ()):
    """Top-down sweep, parents' batches first.  Yields each batch with its
    nodes' parent blocks, shape (*stack, k, d, d), and a (*stack, k, d+1,
    d+1) block the kernel fills (see :func:`_finish`)."""
    done = {}
    for b in s.batches:
        if b.parent < 0:
            v = np.zeros(stack + (b.shape[0], 0, 0))
        else:
            p = done[b.parent]
            if type(b.up) is slice:
                v = p[..., b.up, :, :]
            else:
                v = np.take(p, b.up, axis=-3)
            if b.last:
                del done[b.parent]
        pack = np.empty(stack + b.shape)
        yield b, v, pack
        if b.children:
            done[b.id] = pack


def _add_kids(f, b, done):
    """Add the children's update blocks to the frontal blocks ``f``, child
    batch by child batch and one sibling rank at a time, so each parent
    takes its children in ascending position order."""
    for c, pl, ci in b.kids:
        f[..., pl, :, :] += done[c][..., ci, 1:, 1:]


def _finish(out, b, pack, a00, a10, a01, v):
    """Store a top-down batch's result column [a00; a10] and, when the
    batch has children, border their block: [[a00, a01^T], [a10, v]]."""
    pack[..., 0, 0] = a00
    pack[..., 1:, 0] = a10
    _put(out, b.cols, pack[..., 0])
    if b.children:
        pack[..., 0, 1:] = a01
        pack[..., 1:, 1:] = v


def _sym(a):
    """The symmetric matrices with the lower triangles of ``a``."""
    return np.where(_tri(a.shape[-1]), a, np.swapaxes(a, -1, -2))


def _full(v, st):
    """The symmetric n x n blocks of ``v`` (one value array or a stack) in
    position order, each value at its slot's place in ``st.dense`` and at
    its mirror."""
    _, lower, _, mirror = st.dense.chain
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
    out[..., :k, k:] = np.swapaxes(t[..., k:, :], -1, -2)
    out[..., k:, k:] = v


def _abt(a, b):
    """``a @ b^T`` over the last two axes, by a general product even when
    ``b`` is ``a`` (numpy's symmetric rank-k path is slower on these thin
    blocks)."""
    return a @ np.ascontiguousarray(np.swapaxes(b, -1, -2))


def _potrf(a, floor):
    """``np.linalg.cholesky`` of ``a`` and whether it failed, LAPACK
    refusing it or a pivot L_ii^2 not clearing ``floor[i]``; a failed
    factor is the identity, so later products and inverses stay finite."""
    try:
        c = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return np.eye(len(a)), True
    if (np.diagonal(c) ** 2 > floor).all():
        return c, False
    return np.eye(len(a)), True


def _cholesky_step(f, floor):
    """Eliminate the first node of the frontal blocks ``f`` (..., w, w) in
    place: L_ii = sqrt(f00), the column below divided by it, and the Schur
    update.  A pivot at or below ``floor`` fails and takes L_ii = inf, so
    the sweep goes on (to lower failures).  Returns the raw pivots and
    which failed, or None when none did."""
    pivot = f[..., 0, 0]
    fail = pivot <= floor
    failed = (pivot.copy(), fail) if np.count_nonzero(fail) else None
    lii = np.sqrt(np.where(fail, np.inf, pivot) if failed else pivot)
    f[..., 1:, 0] /= lii[..., None]
    f[..., 0, 0] = lii
    f[..., 1:, 1:] -= f[..., 1:, :1] * f[..., None, 1:, 0]
    return failed


def cholesky(X: SymSparse) -> CholFactor:
    """Zero-fill Cholesky factorization X = L L^T by a bottom-up sweep.

    At each node the frontal block is the node's column bordered by the
    children's update blocks; a pivot at or below ``PIVOT_EPS * (1 + |X_ii|)``
    raises :class:`NotPositiveDefinite`, which is exactly the test for X
    lying in the interior of the sparse PSD cone.  The node reported is
    the lowest failing position: every node below it succeeded, so it is
    where a sweep in ascending position order stops.

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
    """The sweep of :func:`cholesky`: L's values, its chain blocks' panels
    (see :func:`_cholesky_chain`), and the failure where a
    one-node-at-a-time sweep stops, or None."""
    out = np.zeros(s.dim)
    seen = None
    panels = {}
    for b, done in _up(s):
        if b.chain:
            seen = _cholesky_chain(xv, floor, out, b, done, seen, panels)
            continue
        f = np.zeros(b.shape)
        f[..., 0] = xv[b.cols]
        _add_kids(f, b, done)
        seen = _failures(seen, _cholesky_step(f, floor[b.at]), b.nodes, True)
        out[b.cols] = f[..., 0]
        done[b.id] = f
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


def _cholesky_chain(xv, floor, out, b, done, seen, panels):
    """A chain block of :func:`cholesky`: L11 = chol(F11), L21 = F21
    L11^-T, and the update F22 - L21 L21^T, leaving the panel
    [[L11; L21], L11^-1] in ``panels`` for :func:`~homcone.matrix._panel`.
    If :func:`_potrf` fails, the level step redoes the block to find the
    failing node and pivot; returns ``seen`` with them."""
    k = len(b.nodes)
    f = _gather(xv, b, square=True)
    _add_kids(f[None], b, done)
    floor = floor[b.at]
    l11, bad = _potrf(f[:k, :k], floor)
    if bad:
        pivot, fail = np.zeros(k), np.zeros(k, dtype=bool)
        for i in range(k):
            if failed := _cholesky_step(f[i:, i:], floor[i]):
                pivot[i], fail[i] = failed
        seen = _failures(seen, (pivot, fail), b.nodes, True)
    else:
        li = np.linalg.inv(l11)
        l21 = _abt(f[k:, :k], li)
        f[:k, :k] = l11
        f[k:, :k] = l21
        panels[b] = [f[:, :k].copy(), li]
        f[k:, k:] -= _abt(l21, l21)
    _store(out, b, f)
    done[b.id] = f[None, k - 1:, k - 1:]
    return seen


@_stacked
def forward_map(L: LowerSparse, X: SymSparse) -> SymSparse:
    """Y = L X L^T, exactly, staying on the pattern; for each member of a
    stack X."""
    _check_same(L, X)
    _one(L)
    s = L.struct
    lv, xv = L.vals, X.vals
    if s.dense is not None:
        t = _panel(L, s.dense)[0]
        return SymSparse(s, _lower(s.dense, t @ _full(xv, s) @ t.T))
    out = np.zeros(xv.shape)
    chain_x = _chain(s, L, xv, "mul")
    for b, done in _up(s):
        if b.chain:
            # F = (T X_diag + U) T^T + T U^T, U the chain products below
            # the diagonal of their columns
            t = _panel(L, b)[0]
            u = _gather(chain_x, b)
            f = _abt(np.concatenate([t * _take(xv, b.diag)[..., None, :] + u,
                                     np.broadcast_to(t, u.shape)], -1),
                     np.concatenate([np.broadcast_to(t, u.shape), u], -1))
            _add_kids(f[..., None, :, :], b, done)
            _store(out, b, f)
            done[b.id] = f[..., None, len(b.nodes) - 1:, len(b.nodes) - 1:]
            continue
        lc = lv[b.cols]
        lii, lsub = lc[:, 0], lc[:, 1:]
        xii = _take(xv, b.diag)
        w = _take(chain_x, b.sub)
        f = np.empty(xv.shape[:-1] + lc.shape + lc.shape[1:])
        f[..., 0, 0] = lii * lii * xii
        f[..., 1:, 0] = lii[:, None] * (xii[..., None] * lsub + w)
        f[..., 0, 1:] = f[..., 1:, 0]
        # the rank-2 update (xii l_i l_j + w_i l_j) + l_i w_j, formed in
        # contiguous buffers and written into the strided block once
        g = xii[..., None, None] * (lsub[:, :, None] * lsub[:, None, :])
        t = w[..., None] * lsub[:, None, :]
        g += t
        g += np.multiply(lsub[:, :, None], w[..., None, :], out=t)
        f[..., 1:, 1:] = g
        _add_kids(f, b, done)
        _put(out, b.cols, f[..., 0])
        done[b.id] = f
    return SymSparse(s, out)


@_stacked
def adjoint_map(L: LowerSparse, S: SymSparse) -> SymSparse:
    """Y = projection of L^T S L onto the pattern (the adjoint of
    forward_map under the trace inner product); for each member of a
    stack S."""
    _check_same(L, S)
    _one(L)
    st = L.struct
    lv, sv = L.vals, S.vals
    if st.dense is not None:
        t = _panel(L, st.dense)[0]
        return SymSparse(st, _lower(st.dense, t.T @ _full(sv, st) @ t))
    wv = np.empty(sv.shape)
    for b, v, pack in _down(st, sv.shape[:-1]):
        if b.chain:
            # W = S T, with (T^T S T)_ii on the diagonal
            t = _panel(L, b)[0]
            sb = pack[..., 0, :, :]
            _block(_gather(sv, b), v[..., 0, :, :], sb)
            g = sb @ t
            _store(wv, b, g)
            _put(wv, b.diag, np.vecdot(t, g, axis=-2))
            continue
        lc = lv[b.cols]
        lii, lsub = lc[:, 0], lc[:, 1:]
        sc = _take(sv, b.cols)
        sii, ssub = sc[..., 0], sc[..., 1:]
        vl = np.matvec(v, lsub)
        _put(wv, b.diag, lii * lii * sii + 2.0 * lii * np.vecdot(lsub, ssub)
             + np.vecdot(lsub, vl))
        _put(wv, b.sub, lii[:, None] * ssub + vl)
        if b.children:
            pack[..., 0] = sc
            pack[..., 0, 1:] = ssub
            pack[..., 1:, 1:] = v
    return SymSparse(st, _chain(st, L, wv, "mul_t"))


def inverse_forward_map(L: LowerSparse, X: SymSparse) -> SymSparse:
    """Y = L^{-1} X L^{-T} without forming the inverse explicitly: the
    update blocks are rescaled so each node only divides by its own pivot
    and solves one chain system."""
    _one(L, X)
    _check_same(L, X)
    _nonsingular(L)
    s = L.struct
    lv, xv = L.vals, X.vals
    if s.dense is not None:
        li = _panel(L, s.dense, True)[1]
        return SymSparse(s, _lower(s.dense, li @ _full(xv, s) @ li.T))
    wv = np.empty(s.dim)
    for b, done in _up(s):
        if b.chain:
            # C = E^-1 F E^-T with E = [[L11, 0], [L21, I]]: C22 is the
            # update, and the chain's columns get what the node-by-node
            # sweep leaves for the chain solve, diag(C11) and below it
            # T tril(C11, -1) + [0; C21]
            k = len(b.nodes)
            t, li = _panel(L, b, True)
            f = _gather(xv, b, square=True)
            _add_kids(f[None], b, done)
            q = f[k:, :k] @ li.T
            c11 = li @ _sym(f[:k, :k]) @ li.T
            c21 = q - t[k:] @ c11
            f[k:, k:] -= _abt(np.hstack([c21, t[k:]]), np.hstack([t[k:], q]))
            w = t @ np.where(_tri(k, False), c11, 0.0)
            w[k:] += c21
            _store(wv, b, w)
            wv[b.diag] = np.diagonal(c11)
            done[b.id] = f[None, k - 1:, k - 1:]
            continue
        lc = lv[b.cols]
        lii, lsub = lc[:, 0], lc[:, 1:]
        f = np.zeros(lc.shape + lc.shape[1:])
        f[:, :, 0] = xv[b.cols]
        _add_kids(f, b, done)
        b00, b01, b22 = f[:, 0, 0], f[:, 1:, 0], f[:, 1:, 1:]
        g10 = (b01 - (b00 / lii)[:, None] * lsub) / lii[:, None]
        wv[b.diag] = b00 / (lii * lii)
        wv[b.sub] = g10
        # the d x d update consumed whole by the parent's frontal block,
        # stored negated: b22 - (G + B) is exactly -((G + B) - b22); G + B
        # is summed in place in contiguous buffers
        u = g10[:, :, None] * lsub[:, None, :]
        t = lsub[:, :, None] * b01[:, None, :]
        t /= lii[:, None, None]
        u += t
        b22 -= u
        done[b.id] = f
    return SymSparse(s, _chain(s, L, wv, "solve"))


def inverse_adjoint_map(L: LowerSparse, S: SymSparse) -> SymSparse:
    """Y = projection of L^{-T} S L^{-1} onto the pattern."""
    _one(L, S)
    _check_same(L, S)
    _nonsingular(L)
    st = L.struct
    lv, sv = L.vals, S.vals
    if st.dense is not None:
        li = _panel(L, st.dense, True)[1]
        return SymSparse(st, _lower(st.dense, li.T @ _full(sv, st) @ li))
    wv = _chain(st, L, sv, "solve_t")
    out = np.zeros(st.dim)
    for b, v, pack in _down(st):
        if b.chain:
            # Y21 = (W2 - V L21) L11^-1, W2 the chain-solved S21, and
            # Y11 = L11^-T (S11 - L21^T W2 - R^T L21) L11^-1, R = W2 - V L21
            k = len(b.nodes)
            t, li = _panel(L, b, True)
            w2 = _gather(wv, b)[k:]
            r = w2 - v[0] @ t[k:]
            y = np.vstack([li.T @ (_sym(_gather(sv, b)[:k]) - t[k:].T @ w2 - r.T @ t[k:]) @ li,
                           r @ li])
            _store(out, b, y)
            if b.children:
                _block(y, v[0], pack[0])
            continue
        lc = lv[b.cols]
        lii, lsub = lc[:, 0], lc[:, 1:]
        wc = wv[b.cols]
        w = wc[:, 1:]
        vl = np.matvec(v, lsub)
        yii = (wc[:, 0] - 2.0 * np.vecdot(lsub, w) + np.vecdot(lsub, vl)) / (lii * lii)
        ysub = (w - vl) / lii[:, None]
        _finish(out, b, pack, yii, ysub, ysub, v)
    return SymSparse(st, out)


def projected_inverse(F: CholFactor) -> SymSparse:
    """Y = projection of X^{-1} onto the pattern, from the factor of X.
    This is the negated barrier gradient."""
    L = F.L
    _one(L)
    st = L.struct
    lv = L.vals
    if st.dense is not None:
        li = _panel(L, st.dense, True)[1]
        return SymSparse(st, _lower(st.dense, li.T @ li))
    out = np.zeros(st.dim)
    for b, v, pack in _down(st):
        if b.chain:
            # Y21 = -V P and Y11 = L11^-T L11^-1 - P^T Y21, P = L21 L11^-1
            k = len(b.nodes)
            t, li = _panel(L, b, True)
            p = t[k:] @ li
            y21 = -v[0] @ p
            y = np.vstack([li.T @ li - p.T @ y21, y21])
            _store(out, b, y)
            if b.children:
                _block(y, v[0], pack[0])
            continue
        lc = lv[b.cols]
        lii, lsub = lc[..., 0], lc[..., 1:]
        ysub = -np.matvec(v, lsub) / lii[..., None]
        yii = (1.0 / lii - np.vecdot(lsub, ysub)) / lii
        _finish(out, b, pack, yii, ysub, ysub, v)
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
        if b.chain:
            seen = _maxdet_chain(sv, floor, out, b, v[0], pack[0], seen)
            continue
        sc = sv[b.cols]
        lii, lsub, failed = _maxdet_step(sc[..., 0], sc[..., 1:], v, floor[b.at])
        seen = _failures(seen, failed, b.nodes, False)
        _finish(out, b, pack, lii, lsub, 0.0, v)
    if seen is not None:
        raise NotCompletable(*_failed_at(st, seen))
    return CholFactor(LowerSparse(st, out))


def _maxdet_step(sii, ssub, v, floor):
    """One node of the completion factor from its column [sii; ssub] and
    parent block V: u = V^T ssub, r = sii - u^T u, L_ii = 1/sqrt(r) and
    L_sub = -L_ii V u.  An r at or below ``floor`` fails and takes L_ii =
    0, so the sweep goes on (to higher failures).  Returns L_ii, L_sub,
    and the raw r and which failed or None."""
    u = np.vecmat(ssub, v)
    r = sii - np.vecdot(u, u)
    fail = r <= floor
    failed = (r, fail) if np.count_nonzero(fail) else None
    lii = 1.0 / np.sqrt(np.where(fail, np.inf, r) if failed else r)
    return lii, -lii[..., None] * np.matvec(v, u), failed


def _maxdet_chain(sv, floor, out, b, v, pack, seen):
    """A chain block of :func:`maxdet_factor`: with U = V^T S21 and R =
    S11 - U^T U, L11 L11^T = R^-1 by the Cholesky factor K of R with rows
    and columns reversed, L11 = rev(K^-T), and L21 = -V U L11; ``pack``
    gets [[L11, 0], [L21, V]].  If :func:`_potrf` fails (K_ii^2 is node
    k-1-i's pivot), the level step redoes the block top down to find the
    failing node and Schur complement; returns ``seen`` with them."""
    k = len(b.nodes)
    t = _gather(sv, b)
    u = v.T @ t[k:]
    r = _sym(t[:k]) - u.T @ u
    floor = floor[b.at]
    kc, bad = _potrf(r[::-1, ::-1], floor[::-1])
    pack[...] = 0.0
    pack[k:, k:] = v
    if bad:
        value, fail = np.zeros(k), np.zeros(k, dtype=bool)
        for i in range(k - 1, -1, -1):
            pack[i, i], pack[i + 1:, i], failed = _maxdet_step(
                t[i, i], t[i + 1:, i], pack[i + 1:, i + 1:], floor[i])
            if failed:
                value[i], fail[i] = failed
        seen = _failures(seen, (value, fail), b.nodes, False)
    else:
        l11 = np.where(_tri(k), np.linalg.inv(kc).T[::-1, ::-1], 0.0)
        pack[:k, :k] = l11
        pack[k:, :k] = -(v @ (u @ l11))
    _store(out, b, pack)
    return seen


def dual_gradient(Lhat: CholFactor) -> SymSparse:
    """Y = L L^T from a completion factor: the inverse of the
    maximum-determinant completion, i.e. the negated dual-barrier
    gradient."""
    _one(Lhat.L)
    st = Lhat.struct
    lv = Lhat.L.vals
    if st.dense is not None:
        t = _panel(Lhat.L, st.dense)[0]
        return SymSparse(st, _lower(st.dense, t @ t.T))
    out = np.zeros(st.dim)
    for b, done in _up(st):
        if b.chain:
            t = _panel(Lhat.L, b)[0]
            f = _abt(t, t)
            _add_kids(f[None], b, done)
            _store(out, b, f)
            done[b.id] = f[None, len(b.nodes) - 1:, len(b.nodes) - 1:]
            continue
        ell = lv[b.cols]
        f = ell[:, :, None] * ell[:, None, :]
        _add_kids(f, b, done)
        out[b.cols] = f[:, :, 0]
        done[b.id] = f
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
