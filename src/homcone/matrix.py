"""Numeric storage and elementary algebra on homogeneous chordal patterns.

Matrices are stored column-compressed: column j holds the diagonal entry
followed by the entries on the ancestor chain of j, so every kernel reads
exactly the (j, ancestors-of-j) slices it recurses over.  A ``Structure``
compiles a pattern plus a trivially perfect elimination ordering into those
slice tables, and into the schedule of batches of supernodes the kernels
sweep, once; a small tree also into one dense block that the
kernels take in one step instead (``Structure.dense``);
symmetric (:class:`SymSparse`) and lower-triangular (:class:`LowerSparse`)
values share it.

General chordal orderings are rejected at construction: the closure
properties used by every operation here (triangular products and inverses
staying inside the pattern) fail for them.

Values are 64-bit floats.  No operation writes to its inputs, so
concurrent use is safe; a :class:`LowerSparse` holds its values read-only,
as it caches what its batches derive from them (:func:`_panel`) and its
inverse (:func:`tri_inverse`).  That inverse and L T for a lower
triangle T (:func:`_chain_sweep`: ``tri_mul``, and ``forward_map``'s
first step) are each one top-down sweep of the batches: a column and its
ancestors are closed upward, so L on them is a trailing block of a
frontal block L[P, P], and L^-1 on them one of L[P, P]^-1.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from .errors import OrderingError, SingularFactor, StructuralError
from .pattern import (EliminationTree, Ordering, SparsityPattern, _chain_runs, _columns, _higher,
                      _positions, lbfs_order)

__all__ = [
    "Structure",
    "SymSparse",
    "LowerSparse",
    "project",
    "inner",
    "norm",
    "tri_mul",
    "tri_inverse",
    "to_dense",
    "from_triplets",
    "to_triplets",
    "identity",
    "zeros",
]


#: Floats of stacked frontal block one kernel step may hold: a level batch
#: of one-column supernodes at depth d has at most ``max(1, BATCH_FLOATS
#: // (d+1)^2)`` of them, so a step's blocks stay in cache on deep trees,
#: and a stacked sweep takes ``Structure.stack_rows`` matrices at a time
#: (``adjoint_map``'s step holds one block more, L's, beside theirs).
#: A fundamental chain of two or more columns whose node-by-node frontal
#: blocks make at least this many floats is one supernode of its k
#: columns instead, a chain block, whose one block may hold more.
BATCH_FLOATS = 1 << 15

#: A structure of at most this many nodes is one dense supernode: every
#: kernel but ``maxdet_factor`` runs on its whole n x n block in position
#: order (``Structure.dense``) in one ``np.linalg`` / ``matmul`` step
#: instead of a sweep of its batches.  Read at compile time.  From the
#: crossover table of BENCH_dense_small_trees.json (one cholesky plus
#: hess_apply, one BLAS thread): on bushy trees (branching 3) the dense
#: step took 0.45-0.77 of the sweep's time at n = 96, broke even at 112
#: and lost from 128; on deep ones (branching 1.05) it still won at 256.
DENSE_NODES = 96

_NOT_TRIVIALLY_PERFECT = ("structure requires a trivially perfect elimination ordering; "
                          "run lbfs_order or homogeneous_extension first")


def _bounds(x: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of ``x`` starts, then ``len(x)``."""
    fresh = np.ones(len(x) + 1, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=fresh[1:-1])
    return fresh.nonzero()[0]


class Batch:
    """One kernel step: a stack of same-shape supernodes.

    A supernode is k columns c_0, ..., c_{k-1} under d ancestors, each
    c_i the only child of c_{i+1}, swept as one (k+d) x (k+d) frontal
    block on rows [c_0, ..., c_{k-1}, ancestors]: towards its children it
    acts as the node c_0, towards its parent as c_{k-1}.  A level batch
    is b one-column supernodes (k = 1) of one depth d, each with its
    parent in the same batch one level up, sorted by descending number of
    children in level batches; a chain block is one supernode (b = 1) of
    a fundamental chain of k >= 2 columns, c_0 a leaf or a branch
    point.  Batches form a tree whose ids put every batch after its
    parent's: levels by increasing depth, each chain block at the level of
    its top.  Kernels sweep ``Structure.batches`` in that order top-down
    and reversed bottom-up, and hold only the blocks of batches whose
    consumer is pending.  ``Structure.dense`` is a supernode too, outside
    the schedule: the whole tree, its block's zeros at incomparable pairs
    included, with only ``id`` (-1), ``nodes``, ``shape``, ``k``, ``cols``
    and ``chain``.

    Attributes
    ----------
    id : index in ``Structure.batches``.
    nodes : positions of the batch's columns, supernode by supernode, each
        bottom up: shape (b * k,).  A level batch's come by descending
        number of children in level batches, ties in level order (see
        :meth:`Structure._compile`).
    shape : shape of the batch's stacked frontal blocks, (b, k+d, k+d);
        ``Structure.dense`` has (n, n), one block without a stack axis.
    k : columns per supernode, 1 in a level batch (n for
        ``Structure.dense``).
    cols : value slots of the batch's columns, which :func:`_gather` reads
        and :func:`_store` writes.  At k = 1 a (b, d+1) table, diagonal
        first, whose gather is the b trapezoids.  For k >= 2, the slots
        of the columns flattened (a view-making ``(..., slice)`` when they
        are consecutive, as they are in a postorder; see :func:`_gather`).
    chain : None at k = 1; for k >= 2, where each of ``cols``' slots lies
        in the lower trapezoid of a flattened (k+d, k) array.
        ``Structure.dense`` adds where each slot's mirror lies in the
        upper triangle.
    parent : id of the batch holding the parents (-1 for roots).
    up : index (or slice) of each supernode's parent within that batch.
    children : ids of the batches holding the children.
    kids : ``(child batch, parents, children)`` per child batch and
        sibling rank within it, in the order their updates are added
        (child batches by id, siblings in a batch by ascending position):
        the slice of this batch's supernodes with such a child, which are
        consecutive, and those children's indices in the child batch, an
        index array or a slice where they are consecutive.
    last : whether this is its parent's highest-id child batch, the last
        of them a top-down sweep visits.
    """

    __slots__ = ("id", "nodes", "shape", "k", "cols", "chain", "parent", "up",
                 "children", "kids", "last")


class Structure:
    """Pattern + ordering + elimination tree compiled to column tables.

    Internally everything runs in position space (ordering applied), where
    ancestors of a column sit at strictly larger positions, so ascending
    position order is a topological order of the tree.

    Attributes
    ----------
    bar_ptr, bar_rows : column j occupies ``bar_rows[bar_ptr[j]:bar_ptr[j+1]]``,
        which is ``[j, parent(j), parent^2(j), ...]`` in position space.
    depth : number of ancestors per position (= subdiagonal count).
    height : number of tree levels, one more than the largest depth.
    weights : 1.0 on diagonal slots, 2.0 on subdiagonal slots; makes the
        trace inner product a plain weighted dot.
    batches : the schedule the kernels sweep (with ``dense``, only
        ``maxdet_factor``, and a failing ``cholesky`` redone): the
        :class:`Batch` es of supernodes, parents' before their children's,
        swept in this order top-down and reversed bottom-up, each in one
        step of the same kind.  A fundamental chain of two or more columns
        whose node-by-node frontal blocks make at least BATCH_FLOATS
        floats is one supernode, a chain block; every other node is a
        one-column supernode in a level batch.  Nodes of one depth have
        same-shape frontal blocks and are independent, and a child's
        update block has its parent's frontal shape, because anc(c) = {p}
        + anc(p).
    dense : None, or on a structure of at most DENSE_NODES nodes the
        whole tree as one dense supernode: a :class:`Batch` whose n x n
        block holds each value at (row, column) of its slot in position
        order, n^2 floats.  Every kernel but ``maxdet_factor`` runs one
        dense step on it in place of the schedule (see
        :mod:`homcone.factor`).
    stack_rows : how many matrices of a stack one sweep takes at a time,
        ``max(1, BATCH_FLOATS // f)`` with f the floats of the largest
        step's frontal blocks (the dense block's n^2, if admitted), so a
        stacked step holds no more of the stack's blocks than the largest
        one-matrix step or BATCH_FLOATS, whichever is more.  A stacked
        ``adjoint_map`` step holds stack_rows + 1 blocks: its factor's
        rides beside them.
    """

    __slots__ = (
        "pattern", "ordering", "n", "nnz",
        "pos_parent", "depth", "height", "batches", "dense",
        "stack_rows",
        "bar_ptr", "bar_rows", "weights",
        "_row_vertex", "_col_vertex", "_position", "_depth", "_cliques",
    )

    def __init__(self, pattern: SparsityPattern, ordering: Ordering,
                 etree: Optional[EliminationTree] = None):
        """The ordering is trivially perfect iff the pattern is the
        comparability graph of the forest in which each vertex's parent is
        its lowest-position higher neighbour; ``etree``, if given, must be
        that forest.  Anything else raises OrderingError."""
        n = pattern.n
        pos = _positions(pattern, ordering)
        sig = np.asarray(ordering.sigma, dtype=np.int64)
        # trivially perfect iff every position's higher neighbours are its
        # parent's plus the parent: its ancestors, its column's rows
        hi, depth, par, bad = _higher(pattern, pos)
        if bad.any() or (
                etree is not None and tuple(etree.parent) != tuple(sig[par[pos]].tolist())):
            raise OrderingError(_NOT_TRIVIALLY_PERFECT)
        self.bar_ptr, self.bar_rows = _columns(hi, depth)
        del hi
        self.pattern = pattern
        self.ordering = ordering
        self.n = n
        self.nnz = int(self.bar_ptr[n]) - n
        self.pos_parent = tuple(par.tolist())
        self.depth = tuple(depth.tolist())
        self._position = pos
        self._depth = depth
        self._compile(par)
        self.weights = np.full(self.dim, 2.0)
        self.weights[self.bar_ptr[:-1]] = 1.0
        self._row_vertex = sig[self.bar_rows]
        self._col_vertex = sig[np.arange(n).repeat(depth + 1)]
        self._cliques = None

    def _compile(self, par: np.ndarray) -> None:
        """Compile the schedule from the array of parent positions.

        Array passes over all nodes make the chain runs, each node's index
        in its batch and sibling rank, and which index lists are slices.  A
        Python loop over tree levels splits each level into batches, which
        needs its parents' batches and their order: the level is taken in
        its level order, children grouped by parent in their parents' order
        and siblings by ascending position, cut into runs under one parent
        batch capped in size, and each run sorted by descending number of
        level-batched children, ties in level order.  The nodes of a run
        that have more than r children in a child batch are then
        consecutive, so every extend-add (``Batch.kids``) adds into a slice
        of the parents' frontal blocks.  A loop over the batches then makes
        them.  Every index table is O(dim)."""
        n, ptr, depth = self.n, self.bar_ptr, self._depth
        height = int(depth.max()) + 1
        # nodes by depth, each level by ascending position
        order = depth.argsort(kind="stable")
        # chain blocks, by the position of their top; no run can reach
        # BATCH_FLOATS when the whole tree does not
        chains = {}
        inside, top = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        if int(((depth + 1) ** 2).sum()) >= BATCH_FLOATS:
            members, bounds = _chain_runs(par)
            floats = np.add.reduceat(((depth + 1) ** 2)[members], bounds[:-1])
            for i in np.flatnonzero((np.diff(bounds) > 1) & (floats >= BATCH_FLOATS)).tolist():
                run = members[bounds[i]:bounds[i + 1]]
                chains[int(run[-1])] = run
                inside[run] = top[run[-1]] = True
        tops = [[] for _ in range(height)]
        for q in order[top[order]].tolist():
            tops[depth[q]].append(q)
        # the level-batched nodes, each level a range of them, and how many
        # level-batched children each node has
        rest = order[~inside[order]] if chains else order
        cut = np.zeros(height + 1, dtype=np.int64)
        np.bincount(depth[rest], minlength=height).cumsum(out=cut[1:])
        cut = cut.tolist()
        fan = np.bincount(par[rest[cut[1]:]], minlength=n)
        # batch ids in order: per level its chain blocks, then its level
        # batches, each level cut in its level order (kept in ``grouped``)
        # and its runs sorted by descending fan into ``rest``
        batch_of, index_in = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        at = np.zeros(n, dtype=np.int64)  # index in ``rest``
        grouped = rest.copy()
        new = np.zeros(len(rest) + 1, dtype=bool)  # a level batch starts here
        new[-1] = True
        count = 0
        for d in range(height):
            for q in tops[d]:
                run = chains[q]
                batch_of[run], index_in[run] = count, np.arange(len(run))
                count += 1
            a, z = cut[d], cut[d + 1]
            if a == z:
                continue
            lev = rest[a:z]
            starts = new[a:z]
            starts[0] = True
            if d:
                lev = grouped[a:z] = lev[at[par[lev]].argsort(kind="stable")]
                under = batch_of[par[lev]]
                np.not_equal(under[1:], under[:-1], out=starts[1:])
            cap = max(1, BATCH_FLOATS // (d + 1) ** 2)
            if z - a > cap:
                j = np.arange(z - a)
                starts[:] = (j - np.maximum.accumulate(np.where(starts, j, 0))) % cap == 0
            ids = starts.cumsum()
            lev = lev[(ids * (n + 1) - fan[lev]).argsort(kind="stable")]
            rest[a:z], at[lev] = lev, np.arange(a, z)
            batch_of[lev] = ids + (count - 1)
            count += int(ids[-1])
        # per level-batched node: its index in its batch, its parent's index
        # in the parent batch, and its rank among its siblings there (in
        # level order, where children of one parent are consecutive)
        j = np.arange(len(rest))
        bounds = new.nonzero()[0]
        first, last = bounds[:-1], bounds[1:]
        begin = first[new[:-1].cumsum() - 1]
        index_in[rest] = j - begin
        pq = par[rest]
        up = index_in[pq]
        sibling = _bounds(par[grouped])[:-1]
        rank = j - np.maximum(sibling[sibling.searchsorted(j, "right") - 1], begin)
        # the updates of each batch's children, one sibling rank at a time:
        # nodes grouped by (batch, rank) in level order.  A group's parents
        # are a slice of their batch: a level batch's nodes are the children
        # of consecutive parents sorted by descending fan, whole sibling
        # groups but at its two ends, so those with more than r of them
        # are consecutive.  Its children's indices are a slice where
        # ``index - j`` is constant over them
        code = begin * (int(rank.max(initial=0)) + 1) + rank
        by = code.argsort(kind="stable")
        groups = _bounds(code[by])
        group, end = groups[:-1], groups[1:]
        local = index_in[grouped[by]]
        steps = _bounds(local - j)
        steady = steps.searchsorted(end - 1, "right") == steps.searchsorted(group, "right")
        steps = _bounds(up - j)
        in_order = (steps.searchsorted(last - 1, "right") == steps.searchsorted(first, "right")).tolist()
        groups = groups.searchsorted(bounds).tolist()
        pairs = [(slice(u, u + z - a), slice(c, c + z - a) if ok else local[a:z])
                 for a, z, u, c, ok in zip(group.tolist(), end.tolist(),
                                           index_in[par[grouped[by[group]]]].tolist(),
                                           local[group].tolist(), steady.tolist())]
        batches = []

        def add(b, nodes, parent, up, kids=()):
            """Register batch ``b`` of ``nodes`` under batch ``parent``,
            which takes the updates of ``kids``, (parents, children) pairs
            as in ``Batch.kids``."""
            b.id, b.nodes = len(batches), nodes
            b.parent, b.up = parent, up
            b.children, b.kids = [], []
            if parent >= 0:
                batches[parent].children.append(b.id)
                batches[parent].kids.extend((b.id, pl, ci) for pl, ci in kids)
            batches.append(b)

        bi = 0
        first, last = first.tolist(), last.tolist()
        for d in range(height):
            for q in tops[d]:
                run = chains[q]
                k, w = len(run), d + len(run)
                b = Batch()
                b.shape, b.k = (1, w, w), k
                # column i holds rows i..w-1, from entry ``start[i]`` on
                size = np.arange(w, w - k, -1)
                start = np.cumsum(size) - size
                entry = np.arange(int(size.sum()))
                rows = entry - np.repeat(start - np.arange(k), size)
                cols = np.repeat(np.arange(k), size)
                if run[-1] - run[0] == k - 1:
                    a = int(ptr[run[0]])
                    slots = (Ellipsis, slice(a, a + len(entry)))
                else:
                    slots = entry + np.repeat(ptr[run] - start, size)
                b.cols, b.chain = slots, (rows * k + cols,)
                p = int(par[q])
                pl = slice(int(index_in[p]), int(index_in[p]) + 1) if d else None
                add(b, run, int(batch_of[p]) if d else -1, pl, [(pl, slice(0, 1))])
            a0, z0 = cut[d], cut[d + 1]
            if a0 < z0:
                # the level's columns' slots, a (k, d+1) block
                slots = ptr[rest[a0:z0], None] + np.arange(d + 1)
            while bi < len(first) and first[bi] < z0:
                a, z = first[bi], last[bi]
                b = Batch()
                b.shape, b.k, b.chain = (z - a, d + 1, d + 1), 1, None
                b.cols = slots[a - a0:z - a0]
                nodes = rest[a:z]
                if d:
                    u0 = int(up[a])
                    add(b, nodes, int(batch_of[pq[a]]),
                        slice(u0, u0 + z - a) if in_order[bi] else up[a:z],
                        pairs[groups[bi]:groups[bi + 1]])
                else:
                    add(b, nodes, -1, None)
                bi += 1
        for b in batches:
            b.children, b.kids = tuple(b.children), tuple(b.kids)
            b.last = b.parent >= 0 and batches[b.parent].children[-1] == b.id
        self.batches = tuple(batches)
        floats = [math.prod(b.shape) for b in batches]
        self.dense = None
        if n <= DENSE_NODES:
            # the whole tree as one block: column j's slot for row i at
            # (i, j) of the n x n block, and its mirror at (j, i)
            self.dense = b = Batch()
            b.id, b.nodes, b.shape, b.k = -1, np.arange(n), (n, n), n
            col = np.arange(n).repeat(depth + 1)
            b.cols = (Ellipsis, slice(0, self.dim))
            b.chain = (self.bar_rows * n + col, col * n + self.bar_rows)
            floats.append(n * n)
        self.stack_rows = max(1, BATCH_FLOATS // max(floats))
        self.height = height

    @classmethod
    def from_pattern(cls, pattern: SparsityPattern) -> "Structure":
        """Recognize the pattern and build the structure from the ordering
        the search returns."""
        res = lbfs_order(pattern)
        if not res.accepted:
            raise OrderingError(
                f"pattern is not homogeneous chordal (induced {res.kind} on "
                f"vertices {res.witness}); extend it first")
        return cls(pattern, res.ordering, res.etree)

    @property
    def dim(self) -> int:
        """Dimension of the symmetric matrix space on this pattern."""
        return self.n + self.nnz

    @property
    def cliques(self) -> tuple:
        """The value slots of the maximal cliques' blocks, made on first use
        and kept: per leaf depth d, a (k, d+1, d+1) array over its k leaves
        (nodes in no column but their own) whose row and column i are the
        leaf's i-th ancestor, in the column of the deeper of i and j, |i - j|
        below its diagonal; ``vals[..., t]`` gathers the blocks."""
        if self._cliques is None:
            leaves = np.flatnonzero(np.bincount(self.bar_rows, minlength=self.n) == 1)
            tables = []
            for d in np.unique(self._depth[leaves]).tolist():
                i = np.arange(d + 1)
                path = self.bar_rows[self.bar_ptr[leaves[self._depth[leaves] == d], None] + i]
                tables.append(self.bar_ptr[path[:, np.minimum.outer(i, i)]] + abs(i - i[:, None]))
            self._cliques = tuple(tables)
        return self._cliques

    def col(self, q: int) -> slice:
        return slice(int(self.bar_ptr[q]), int(self.bar_ptr[q + 1]))

    def slot(self, i: int, j: int) -> int:
        """Index of vertex pair (i, j) in the value array; diagonal for
        i == j.  Raises StructuralError when (i, j) is outside the pattern."""
        return int(self._slots(np.array([[i], [j]]), 0)[0])

    def _slots(self, pairs: np.ndarray, base: int) -> np.ndarray:
        """Value-array index of each vertex pair ``pairs[:, k]``, vertices
        counted from ``base``.  Raises StructuralError, naming the first
        offending pair as given, when an index is not an integer in range
        or a pair is outside the pattern."""
        if pairs.dtype.kind not in "iuf":
            raise StructuralError("vertex indices must be numbers")
        q = pairs - base
        ok = (q >= 0) & (q < self.n)
        if pairs.dtype.kind == "f":
            ok &= q == np.floor(q)
        ok = ok.all(axis=0)
        if not ok.all():
            raise StructuralError(
                f"entry {_entry(pairs, np.argmin(ok))} needs integer vertex "
                f"indices in {base}..{base + self.n - 1}")
        qi, qj = self._position[q.astype(np.int64)]
        lo, hi = np.minimum(qi, qj), np.maximum(qi, qj)
        # hi is on lo's chain iff it is slot t of lo's column, where t is
        # their depth difference; t = 0 is the diagonal, whose row is the
        # column itself.  k >= -dim, so the lookup is in bounds for t < 0
        t = self._depth[lo] - self._depth[hi]
        k = self.bar_ptr[lo] + t
        ok = (t >= 0) & (self.bar_rows[k] == hi)
        if not ok.all():
            raise StructuralError(
                f"entry {_entry(pairs, np.argmin(ok))} is not in the pattern")
        return k

    def __eq__(self, other):
        return (self is other) or (
            isinstance(other, Structure)
            and self.pattern == other.pattern
            and self.ordering.sigma == other.ordering.sigma)

    def __hash__(self):
        return hash((self.pattern, self.ordering.sigma))

    def __repr__(self):
        return f"Structure(n={self.n}, nnz={self.nnz})"


def _check_same(a, b):
    if a.struct is not b.struct and a.struct != b.struct:
        raise StructuralError("operands live on different structures")


def _nonsingular(L) -> None:
    """Raise SingularFactor at the lowest-position zero pivot of ``L``."""
    s = L.struct
    zero = L.vals[s.bar_ptr[:-1]] == 0.0
    if zero.any():
        raise SingularFactor(column=s.ordering.sigma[np.argmax(zero)])


def _one(*xs) -> None:
    """Raise StructuralError if an operand is a stack: only the kernels
    :class:`_Values` names take one."""
    for x in xs:
        if x.vals.ndim != 1:
            raise StructuralError(f"operand is a stack of shape {x.vals.shape}; "
                                  "this operation takes one matrix")


class _Values:
    """Shared plumbing for pattern-restricted value arrays.

    ``vals`` has shape (dim,), or (m, dim) for a stack of m matrices on one
    structure.  ``forward_map`` and ``adjoint_map`` sweep a stack member by
    member in one pass, and the arithmetic operators act member by member;
    everything else takes one matrix and raises StructuralError on a stack.
    ``vals`` is kept C-contiguous (copied if it is not): kernels read
    consecutive slots through views, and a reduction over a strided view
    is not bitwise one over a contiguous array.  No operation writes to it; a
    :class:`LowerSparse` also makes it a read-only view."""

    __slots__ = ("struct", "vals")

    def __init__(self, struct: Structure, vals: np.ndarray):
        if vals.ndim not in (1, 2) or vals.shape[-1] != struct.dim:
            raise StructuralError(
                f"value array has shape {vals.shape}, structure needs "
                f"({struct.dim},) or (m, {struct.dim})")
        self.struct = struct
        self.vals = np.ascontiguousarray(vals, dtype=np.float64)

    @property
    def diag(self) -> np.ndarray:
        return np.take(self.vals, self.struct.bar_ptr[:-1], axis=-1)

    def copy(self):
        return type(self)(self.struct, self.vals.copy())

    def __neg__(self):
        return type(self)(self.struct, -self.vals)

    def __add__(self, other):
        _check_same(self, other)
        return type(self)(self.struct, self.vals + other.vals)

    def __sub__(self, other):
        _check_same(self, other)
        return type(self)(self.struct, self.vals - other.vals)

    def __mul__(self, a: float):
        return type(self)(self.struct, self.vals * float(a))

    __rmul__ = __mul__

    def __truediv__(self, a: float):
        return type(self)(self.struct, self.vals / float(a))


class SymSparse(_Values):
    """Symmetric matrix restricted to the pattern (lower half stored)."""


class LowerSparse(_Values):
    """Lower-triangular matrix (in position space) on the pattern.

    ``vals`` is a read-only view, so writing into it raises: the object
    caches what a factor alone determines, which a write would leave
    stale, each part made on first use:

    each batch's panel (:func:`_panel`), (k+d)k + k^2 floats for each
    supernode of k columns under d ancestors, so at most dim + n floats
    over the level batches, and 2n^2 for ``Structure.dense``; and the
    inverse (:func:`tri_inverse`) with its panels, about 2 dim floats.
    The frontal blocks that a sweep hands down are made per sweep and not
    kept.  The cache lives and dies with the object."""

    __slots__ = ("_panels", "_inverse")

    def __init__(self, struct: Structure, vals: np.ndarray):
        _Values.__init__(self, struct, vals)
        self.vals = self.vals[...]
        self.vals.setflags(write=False)
        self._panels = {}
        self._inverse = None


def identity(struct: Structure) -> SymSparse:
    v = np.zeros(struct.dim)
    v[struct.bar_ptr[:-1]] = 1.0
    return SymSparse(struct, v)


def zeros(struct: Structure, lower: bool = False):
    cls = LowerSparse if lower else SymSparse
    return cls(struct, np.zeros(struct.dim))


def project(dense: np.ndarray, struct: Structure, tol: float = 1e-12) -> SymSparse:
    """Orthogonal projection of a dense symmetric matrix onto the pattern:
    keep the diagonal and the entries on edges, drop everything else."""
    d = np.asarray(dense, dtype=np.float64)
    if d.shape != (struct.n, struct.n):
        raise StructuralError(f"dense matrix is {d.shape}, need ({struct.n},{struct.n})")
    scale = max(1.0, float(np.max(np.abs(d))) if d.size else 1.0)
    if float(np.max(np.abs(d - d.T))) > tol * scale:
        raise StructuralError("matrix is not symmetric within tolerance")
    ds = 0.5 * (d + d.T)
    return SymSparse(struct, ds[struct._row_vertex, struct._col_vertex])


def inner(x: _Values, y: _Values) -> float:
    """Trace inner product: sum of diagonal products plus twice the
    products over edges."""
    _check_same(x, y)
    _one(x, y)
    return float(np.dot(x.struct.weights * x.vals, y.vals))


def norm(x: _Values) -> float:
    return float(np.sqrt(inner(x, x)))


def to_dense(x: _Values) -> np.ndarray:
    """Dense matrix in vertex labels.  SymSparse fills both triangles;
    LowerSparse fills only the (position-space) lower one, so its dense
    form is triangular only under an identity ordering."""
    _one(x)
    s = x.struct
    d = np.zeros((s.n, s.n))
    d[s._row_vertex, s._col_vertex] = x.vals
    if isinstance(x, SymSparse):
        d[s._col_vertex, s._row_vertex] = x.vals
    return d


def _entry(pairs: np.ndarray, k: int) -> str:
    """Pair ``pairs[:, k]`` as given, e.g. "(3,1)"."""
    i, j = (int(v) if float(v).is_integer() else v for v in pairs[:, k].tolist())
    return f"({i},{j})"


def from_triplets(struct: Structure, entries, lower: bool = False, base: int = 0):
    """Place (i, j, value) vertex triplets, given as one array-like of
    shape (k, 3) with vertices counted from ``base``.  An index that is
    not an integer in range, a pair outside the pattern and a slot given
    twice raise StructuralError.  ``from_triplets(s, to_triplets(x),
    base=1)`` rebuilds x."""
    t = np.asarray(entries)
    if t.size == 0:
        t = t.reshape(0, 3)
    if t.ndim != 2 or t.shape[1] != 3:
        raise StructuralError(f"triplets must form a (k, 3) array, got shape {t.shape}")
    pairs = t[:, :2].T
    k = struct._slots(pairs, base)
    order = np.argsort(k, kind="stable")
    again = order[1:][k[order[1:]] == k[order[:-1]]]
    if again.size:
        raise StructuralError(f"duplicate entry {_entry(pairs, again.min())}")
    v = np.zeros(struct.dim)
    v[k] = t[:, 2]
    return (LowerSparse if lower else SymSparse)(struct, v)


def to_triplets(x: _Values) -> list:
    """``[i, j, value]`` for every slot, column by column in position
    order, with the 1-based vertex indices of the file formats."""
    _one(x)
    s = x.struct
    return list(map(list, zip((s._row_vertex + 1).tolist(),
                              (s._col_vertex + 1).tolist(), x.vals.tolist())))


def _gather(v, b):
    """Batch ``b``'s columns of ``v`` (one value array or a stack) as the
    lower trapezoids of its supernodes, shape (..., b, k+d, k) (``(..., n,
    n)`` for ``Structure.dense``): column i holds the column of c_i from
    row i down.  At k = 1 that is one take of the slot table; otherwise the
    slots are scattered into zeros.  ``b.cols`` is an index array or a
    view-making tuple that starts with Ellipsis.  A stack is taken
    C-contiguous by np.take, as ``v[:, ix]`` would lay the stack axis
    innermost and a reduction over that is not bitwise one over a row.
    One array is indexed directly: plain ``v[ix]`` makes the ten
    one-matrix kernels about 14% faster on small structures than the
    stack path does."""
    ix = b.cols
    t = v[ix] if v.ndim == 1 or type(ix) is tuple else np.take(v, ix, axis=-1)
    if b.chain is None:
        return t[..., None]
    shape = v.shape[:-1] + b.shape[:-1] + (b.k,)
    out = np.zeros(v.shape[:-1] + (math.prod(shape[-2:]),))
    out[..., b.chain[0]] = t
    return out.reshape(shape)


def _lower(b, t):
    """The values of the columns of one supernode ``b`` (k >= 2, or
    ``Structure.dense``) in the lower trapezoid of ``t``, a (..., k+d, k)
    array, C-contiguous."""
    return np.take(t.reshape(t.shape[:-2] + (t.shape[-2] * t.shape[-1],)), b.chain[0], axis=-1)


def _store(out, b, t):
    """Store the lower trapezoids ``t``, shape (..., b, k+d, k), as batch
    ``b``'s columns of ``out`` (one value array or a stack): the inverse
    of :func:`_gather`, indexed as it reads."""
    v = t[..., 0] if b.chain is None else _lower(b, t[..., 0, :, :])
    if out.ndim == 1 or type(b.cols) is tuple:
        out[b.cols] = v
    else:
        out[..., b.cols] = v


def _inv(c):
    """The inverses of the (..., k, k) triangles ``c``: a reciprocal at
    k = 1, else ``np.linalg.inv`` (numpy has no triangular solve)."""
    return 1.0 / c if c.shape[-1] == 1 else np.linalg.inv(c)


def _panel(L: LowerSparse, b: Batch, inverse: bool = False) -> list:
    """Batch ``b``'s panel of one matrix ``L``, made once and kept in
    ``L``'s cache (``cholesky`` fills it with the same bits): [T, T_CC^-1],
    T = L[P, C] its supernodes' (k+d, k) trapezoids (:func:`_gather`) and
    T_CC^-1 the inverses of their top k rows (:func:`_inv`), None until a
    caller asks for ``inverse``."""
    p = L._panels.get(b)
    if p is None:
        p = L._panels[b] = [_gather(L.vals, b), None]
    if inverse and p[1] is None:
        p[1] = _inv(p[0][..., :b.k, :])
    return p


@functools.lru_cache(maxsize=None)
def _tri(k: int) -> np.ndarray:
    """``np.tri(k, k, dtype=bool)``, read-only and made once per size: the
    lower triangle of a k x k block."""
    m = np.tri(k, k, dtype=bool)
    m.flags.writeable = False
    return m


def _down(s: Structure, stack: tuple = ()):
    """Top-down sweep, parents' batches first.  Yields each batch with its
    supernodes' parent blocks, shape (*stack, b, d, d), and a (*stack, b,
    k+d, k+d) block the kernel fills when the batch has children: its
    supernodes' blocks bordered by their parent blocks, which the children
    read as theirs."""
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


def _lower_block(t, v, out) -> None:
    """Fill ``out`` with the lower triangular (..., k+d, k+d) blocks [[T_CC,
    0], [T_AC, V]] whose first k columns are the trapezoids ``t``, shape
    (..., k+d, k), and whose trailing d x d blocks are ``v``."""
    k = t.shape[-1]
    out[..., :k] = t
    out[..., :k, k:] = 0.0
    out[..., k:, k:] = v


def _chain_sweep(s: Structure, L: LowerSparse, x: np.ndarray) -> np.ndarray:
    """L X for the lower triangle X on the pattern whose values are ``x``:
    column i of L X is L restricted to i's chain (i, then its ancestors)
    times column i of X, which lies on that chain; with :func:`tri_inverse`'s
    L^-1, the substitutions L^-1 X.  A stack of values, shape (m, dim),
    is done member by member in the same steps.  The result,
    C-contiguous, has ``x``'s shape.

    One top-down sweep of the batches (:func:`_down`).  A supernode's rows
    P = C + A, its k columns and their d ancestors, are closed upward, so
    L[P, P] is the frontal block Λ = [[T_CC, 0], [T_AC, V]], T its panel
    (:func:`_panel`) and V = L[A, A] the block its parent hands down
    (:func:`_lower_block`).  The chain of c_j is P from row j on, where L
    restricted to it is a trailing block of Λ, so every column of a
    supernode is done by one product Λ M, M the trapezoids of x with
    zeros above them.  A stack broadcasts Λ over its leading axis.
    Results agree with walking each chain alone to about 1e-12 relative
    on well-conditioned inputs, not bitwise."""
    y = np.empty(x.shape)
    for b, v, pack in _down(s):
        _lower_block(_panel(L, b)[0], v, pack)
        _store(y, b, pack @ _gather(x, b))
    return y


def tri_mul(L: LowerSparse, Lt: LowerSparse) -> LowerSparse:
    """Exact product of two pattern-restricted lower triangles.  Stays in
    the pattern because each column's ancestor chain contains the chains
    of everything on it: column k of the product is L restricted to k's
    chain times column k of ``Lt``: one :func:`_chain_sweep`.  On
    ``Structure.dense``, one ``matmul`` of the blocks."""
    _check_same(L, Lt)
    _one(L, Lt)
    s = L.struct
    if s.dense is not None:
        return LowerSparse(s, _lower(s.dense, _panel(L, s.dense)[0] @ _gather(Lt.vals, s.dense)))
    return LowerSparse(s, _chain_sweep(s, L, Lt.vals))


def tri_inverse(L: LowerSparse) -> LowerSparse:
    """Inverse of a pattern-restricted lower triangle, made on first use
    and kept on ``L`` with its panels.  One top-down sweep: a supernode's
    columns of L^-1[P, P], the inverse of [[T_CC, 0], [T_AC, V]], are
    [T_CC^-1; -V^-1 T_AC T_CC^-1], from L's panel (:func:`_panel`, T_CC^-1
    masked to the lower triangle np.linalg.inv leaves roundoff above) and
    the block V^-1 its parent hands down.  On ``Structure.dense``, the
    inverse of the block."""
    if L._inverse is not None:
        return L._inverse
    _one(L)
    _nonsingular(L)
    s = L.struct
    if s.dense is not None:
        inverse = LowerSparse(s, _lower(s.dense, _panel(L, s.dense, True)[1]))
    else:
        out, panels = np.empty(s.dim), {}
        for b, v, pack in _down(s):
            k = b.k
            t, li = _panel(L, b, True)
            li = li if k == 1 else np.where(_tri(k), li, 0.0)
            u = -(v @ t[..., k:, :])
            cols = np.concatenate([li, u * li if k == 1 else u @ li], -2)
            _store(out, b, cols)
            panels[b] = [cols, None]
            if b.children:
                _lower_block(cols, v, pack)
        inverse = LowerSparse(s, out)
        inverse._panels.update(panels)
    L._inverse = inverse
    return inverse
