"""Multifrontal kernels on homogeneous chordal structures.

Every operation here is a single sweep over the elimination tree with small
dense frontal blocks: Cholesky factorization, the four triangular-congruence
applications (forward, adjoint, and their inverses), the projected inverse,
the maximum-determinant completion factor, and the log-det barrier values,
gradients, and Hessian applications built from them.

Zero fill is structural: results live on the same column layout as the
inputs, which is what trivially perfect orderings buy.  Factorization
success doubles as the interior membership test for the sparse PSD cone
(`cholesky`) and for the completable cone (`maxdet_factor`).

Each sweep runs the level schedule of its :class:`~homcone.matrix.Structure`:
one batched numpy step per batch of same-depth nodes, on stacked
``(k, d+1, d+1)`` frontal blocks of at most
:data:`~homcone.matrix.BATCH_FLOATS` floats.  The batches form a tree (a
batch's parents sit in one batch), swept children's batches before their
parents' bottom-up and parents' before children's top-down, otherwise in
the order of node positions; only the blocks of batches whose consumer is
still pending are held.
Children's update blocks reach their parent by a scatter in ascending
sibling order; the ancestor-chain products and substitutions run for all
columns at once in one loop over depths (:func:`~homcone.matrix._chain`);
and every batched product reproduces the per-node BLAS call.  Results are
therefore bitwise those of visiting the nodes one at a time, and a failing
pivot is reported at the node where that one-at-a-time sweep stops.

Kernels never modify their inputs and keep all sweep state in locals, so
concurrent calls on shared inputs are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotCompletable, NotPositiveDefinite, SingularFactor
from .matrix import LowerSparse, Structure, SymSparse, _chain, _check_same

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
        """log det X = 2 sum(log L_ii)."""
        return 2.0 * float(np.sum(np.log(self.L.diag)))


def _up(s: Structure):
    """Bottom-up sweep, children's batches first.  Yields each batch with
    the store the kernel leaves its frontal blocks in, by batch id; from
    row and column 1 on they hold the updates for the parents (see
    ``Batch.kids``)."""
    done = {}
    for b in s.up_order:
        yield b, done
        for c in b.children:
            del done[c]


def _down(s: Structure):
    """Top-down sweep, parents' batches first.  Yields each batch with its
    nodes' parent blocks, shape (k, d, d), and a (k, d+1, d+1) block the
    kernel fills (see :func:`_finish`)."""
    done = {}
    for b in s.down_order:
        k, d1 = b.slots.shape
        if b.parent < 0:
            v = np.zeros((k, 0, 0))
        else:
            v = done[b.parent][b.up]
            if b.last:
                del done[b.parent]
        pack = np.empty((k, d1, d1))
        yield b, v, pack
        if b.children:
            done[b.id] = pack


def _add_kids(f, b, done):
    """Add the children's update blocks to the frontal blocks ``f``, child
    batch by child batch and one sibling rank at a time, so each parent
    takes its children in ascending position order."""
    for c, pl, ci in b.kids:
        f[pl] += done[c][ci, 1:, 1:]


def _finish(out, b, pack, a00, a10, a01, v):
    """Store a top-down batch's result column [a00; a10] and, when the
    batch has children, border their block: [[a00, a01^T], [a10, v]]."""
    pack[:, 0, 0] = a00
    pack[:, 1:, 0] = a10
    out[b.cols] = pack[:, :, 0]
    if b.children:
        pack[:, 0, 1:] = a01
        pack[:, 1:, 1:] = v


def cholesky(X: SymSparse, eps: float = PIVOT_EPS) -> CholFactor:
    """Zero-fill Cholesky factorization X = L L^T by a bottom-up sweep.

    At each node the frontal block is the node's column bordered by the
    children's update blocks; a pivot at or below ``eps * (1 + |X_ii|)``
    raises :class:`NotPositiveDefinite`, which is exactly the test for X
    lying in the interior of the sparse PSD cone.  The node reported is
    the lowest failing position: every node below it succeeded, so it is
    where a sweep in ascending position order stops.
    """
    s = X.struct
    xv = X.vals
    floor = eps * (1.0 + np.abs(xv[s.bar_ptr[:-1]]))
    out = np.zeros(s.dim)
    failed = None
    for b, done in _up(s):
        if failed is not None and failed[0] < b.lowest:
            break
        f = np.zeros(b.slots.shape + b.slots.shape[1:])
        f[:, :, 0] = xv[b.cols]
        _add_kids(f, b, done)
        pivot = f[:, 0, 0]
        fail = pivot <= floor[b.at]
        if np.count_nonzero(fail):
            # batches are grouped by parent, not sorted by position
            i = np.flatnonzero(fail)
            i = i[np.argmin(b.nodes[i])]
            if failed is None or b.nodes[i] < failed[0]:
                failed = (b.nodes[i], pivot[i])
            # the sweep goes on only to find lower failures
            pivot = np.where(fail, np.inf, pivot)
        lii = np.sqrt(pivot)
        f[:, 1:, 0] /= lii[:, None]
        f[:, 0, 0] = lii
        out[b.cols] = f[:, :, 0]
        f[:, 1:, 1:] -= f[:, 1:, :1] * f[:, None, 1:, 0]
        done[b.id] = f
    if failed is not None:
        raise NotPositiveDefinite(node=s.ordering.sigma[failed[0]], value=failed[1])
    return CholFactor(LowerSparse(s, out))


def forward_map(L: LowerSparse, X: SymSparse) -> SymSparse:
    """Y = L X L^T, exactly, staying on the pattern."""
    _check_same(L, X)
    s = L.struct
    lv, xv = L.vals, X.vals
    out = np.zeros(s.dim)
    chain_x = _chain(s, lv, xv, "mul")
    for b, done in _up(s):
        lc = lv[b.cols]
        lii, lsub = lc[:, 0], lc[:, 1:]
        xii = xv[b.diag]
        w = chain_x[b.sub]
        f = np.empty(lc.shape + lc.shape[1:])
        f[:, 0, 0] = lii * lii * xii
        f[:, 1:, 0] = lii[:, None] * (xii[:, None] * lsub + w)
        f[:, 0, 1:] = f[:, 1:, 0]
        f[:, 1:, 1:] = xii[:, None, None] * (lsub[:, :, None] * lsub[:, None, :])
        f[:, 1:, 1:] += w[:, :, None] * lsub[:, None, :]
        f[:, 1:, 1:] += lsub[:, :, None] * w[:, None, :]
        _add_kids(f, b, done)
        out[b.cols] = f[:, :, 0]
        done[b.id] = f
    return SymSparse(s, out)


def adjoint_map(L: LowerSparse, S: SymSparse) -> SymSparse:
    """Y = projection of L^T S L onto the pattern (the adjoint of
    forward_map under the trace inner product)."""
    _check_same(L, S)
    st = L.struct
    lv, sv = L.vals, S.vals
    wv = np.empty(st.dim)
    for b, v, pack in _down(st):
        lc = lv[b.cols]
        lii, lsub = lc[:, 0], lc[:, 1:]
        sc = sv[b.cols]
        sii, ssub = sc[:, 0], sc[:, 1:]
        vl = np.matvec(v, lsub)
        wv[b.diag] = (lii * lii * sii + 2.0 * lii * np.vecdot(lsub, ssub)
                      + np.vecdot(lsub, vl))
        wv[b.sub] = lii[:, None] * ssub + vl
        if b.children:
            pack[:, :, 0] = sc
            pack[:, 0, 1:] = ssub
            pack[:, 1:, 1:] = v
    return SymSparse(st, _chain(st, lv, wv, "mul_t"))


def inverse_forward_map(L: LowerSparse, X: SymSparse) -> SymSparse:
    """Y = L^{-1} X L^{-T} without forming the inverse explicitly: the
    update blocks are rescaled so each node only divides by its own pivot
    and solves one chain system."""
    _check_same(L, X)
    s = L.struct
    lv, xv = L.vals, X.vals
    zero = lv[s.bar_ptr[:-1]] == 0.0
    if zero.any():
        raise SingularFactor(column=s.ordering.sigma[np.argmax(zero)])
    wv = np.empty(s.dim)
    for b, done in _up(s):
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
        # stored negated: b22 - (G + B) is exactly -((G + B) - b22)
        np.subtract(b22, g10[:, :, None] * lsub[:, None, :]
                    + lsub[:, :, None] * b01[:, None, :] / lii[:, None, None],
                    out=b22)
        done[b.id] = f
    return SymSparse(s, _chain(s, lv, wv, "solve"))


def inverse_adjoint_map(L: LowerSparse, S: SymSparse) -> SymSparse:
    """Y = projection of L^{-T} S L^{-1} onto the pattern."""
    _check_same(L, S)
    st = L.struct
    lv, sv = L.vals, S.vals
    zero = lv[st.bar_ptr[:-1]] == 0.0
    if zero.any():
        # the scalar sweep first solves every chain, columns ascending and
        # each chain from the top, then divides by pivots descending
        ptr, rows = st.bar_ptr, st.bar_rows
        hit = zero[rows]
        hit[ptr[:-1]] = False
        if hit.any():
            k = np.searchsorted(ptr, np.argmax(hit), side="right") - 1
            chain = rows[ptr[k] + 1:ptr[k + 1]]
            j = chain[zero[chain]][-1]
        else:
            j = np.flatnonzero(zero)[-1]
        raise SingularFactor(column=st.ordering.sigma[j])
    wv = _chain(st, lv, sv, "solve_t")
    out = np.zeros(st.dim)
    for b, v, pack in _down(st):
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
    st = F.struct
    lv = F.L.vals
    out = np.zeros(st.dim)
    for b, v, pack in _down(st):
        lc = lv[b.cols]
        lii, lsub = lc[:, 0], lc[:, 1:]
        ysub = -np.matvec(v, lsub) / lii[:, None]
        yii = (1.0 / lii - np.vecdot(lsub, ysub)) / lii
        _finish(out, b, pack, yii, ysub, ysub, v)
    return SymSparse(st, out)


def maxdet_factor(S: SymSparse, eps: float = PIVOT_EPS) -> CholFactor:
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
    st = S.struct
    sv = S.vals
    floor = eps * (1.0 + np.abs(sv[st.bar_ptr[:-1]]))
    out = np.zeros(st.dim)
    failed = None
    for b, v, pack in _down(st):
        if failed is not None and failed[0] > b.highest:
            break
        sc = sv[b.cols]
        sii, ssub = sc[:, 0], sc[:, 1:]
        u = np.vecmat(ssub, v)
        r = sii - np.vecdot(u, u)
        fail = r <= floor[b.at]
        if np.count_nonzero(fail):
            i = np.flatnonzero(fail)
            i = i[np.argmax(b.nodes[i])]
            if failed is None or b.nodes[i] > failed[0]:
                failed = (b.nodes[i], r[i])
            # the sweep goes on only to find higher failures
            r = np.where(fail, np.inf, r)
        lii = 1.0 / np.sqrt(r)
        lsub = -lii[:, None] * np.matvec(v, u)
        _finish(out, b, pack, lii, lsub, 0.0, v)
    if failed is not None:
        raise NotCompletable(node=st.ordering.sigma[failed[0]], value=failed[1])
    return CholFactor(LowerSparse(st, out))


def dual_gradient(Lhat: CholFactor) -> SymSparse:
    """Y = L L^T from a completion factor: the inverse of the
    maximum-determinant completion, i.e. the negated dual-barrier
    gradient."""
    st = Lhat.struct
    lv = Lhat.L.vals
    out = np.zeros(st.dim)
    for b, done in _up(st):
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
