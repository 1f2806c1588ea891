"""Numeric storage and elementary algebra on homogeneous chordal patterns.

Matrices are stored column-compressed: column j holds the diagonal entry
followed by the entries on the ancestor chain of j, so every kernel reads
exactly the (j, ancestors-of-j) slices it recurses over.  A ``Structure``
compiles a pattern plus a trivially perfect elimination ordering into those
slice tables, and into the level schedule the kernels sweep, once;
symmetric (:class:`SymSparse`) and lower-triangular (:class:`LowerSparse`)
values share it.

General chordal orderings are rejected at construction: the closure
properties used by every operation here (triangular products and inverses
staying inside the pattern) fail for them.

Values are 64-bit floats.  All objects are immutable in practice: no
operation writes to its inputs, so concurrent use is safe.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from .errors import OrderingError, SingularFactor, StructuralError
from .pattern import EliminationTree, Ordering, SparsityPattern, edges_and_parents, lbfs_order

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


#: Floats of stacked frontal block one kernel step may hold: a batch of
#: nodes at depth d has at most ``max(1, BATCH_FLOATS // (d+1)^2)`` nodes,
#: so a step's blocks stay in cache on deep trees.
BATCH_FLOATS = 1 << 15

_NOT_TRIVIALLY_PERFECT = ("structure requires a trivially perfect elimination ordering; "
                          "run lbfs_order or homogeneous_extension first")


def _index(idx: list):
    """An index list as a slice when it is a run of consecutive ascending
    integers, so that indexing by it makes a view instead of a copy."""
    if len(idx) == 1 or idx == list(range(idx[0], idx[0] + len(idx))):
        return slice(idx[0], idx[0] + len(idx))
    return np.array(idx, dtype=np.int64)


def _topological(batches, ready, after, key, waits) -> list:
    """Order ``batches`` so each comes after every batch it waits for.
    ``ready`` are the ids waiting on none, ``after(b)`` the ids waiting on
    b, and ``waits[id]`` how many batches that id waits on; among ready
    batches the one of smallest ``key[id]`` goes first."""
    heap = [(key[i], i) for i in ready]
    heapq.heapify(heap)
    order = []
    while heap:
        b = batches[heapq.heappop(heap)[1]]
        order.append(b)
        for i in after(b):
            waits[i] -= 1
            if not waits[i]:
                heapq.heappush(heap, (key[i], i))
    return order


class Batch:
    """Same-depth nodes that one kernel step handles together.

    Every node of a batch has its parent in the same batch one level up,
    so batches form a tree.  Kernels sweep it in ``Structure.up_order`` /
    ``down_order``, which follow node positions as closely as the tree
    allows; on deep trees a batch is one node and the sweep is the
    node-by-node one, so a batch's blocks are consumed soon after they are
    made and only those of batches whose consumer is pending are held.

    Attributes
    ----------
    id : index in ``Structure.batches``.
    nodes : positions of the batch's nodes, shape (k,).
    slots : value slots of their columns, shape (k, d+1), diagonal first.
    cols, diag, sub, at : indices selecting, as (k, d+1), (k,) and (k, d)
        arrays, the batch's columns, their diagonal and subdiagonal slots
        from a value array, and its nodes from a per-position array.
    parent : id of the batch holding the parents (-1 for roots).
    up : index (or slice) of each node's parent within that batch.
    children : ids of the batches holding the children.
    kids : ``(child batch, parents, children)`` per child batch and
        sibling rank within it, in the order their updates are added: the
        batch-local index of each parent with such a child and that
        child's index in its batch.
    last : whether this is the last of its parent's child batches that a
        top-down sweep visits.
    lowest, highest : lowest position in this and all later batches of
        ``up_order``; highest in this and all later batches of
        ``down_order``.
    """

    __slots__ = ("id", "nodes", "slots", "cols", "diag", "sub", "at", "parent",
                 "up", "children", "kids", "last", "lowest", "highest")


class Level:
    """The nodes of one tree depth d (children grouped by parent, in the
    order of the parents) and their column slots, shape (k, d+1)."""

    __slots__ = ("nodes", "slots")

    def __init__(self, nodes, slots):
        self.nodes, self.slots = nodes, slots


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
    weights : 1.0 on diagonal slots, 2.0 on subdiagonal slots; makes the
        trace inner product a plain weighted dot.
    levels : ``levels[d]`` is the :class:`Level` of the nodes at depth d.
        Nodes of one depth have same-shape frontal blocks and are
        independent, and a child's update block has its parent's frontal
        shape, because anc(c) = {p} + anc(p).
    batches, up_order, down_order : the level schedule every kernel runs:
        the :class:`Batch` es, children's before their parents' (bottom-up
        sweeps) and parents' before their children's (top-down sweeps).
    """

    __slots__ = (
        "pattern", "ordering", "n", "nnz",
        "pos_parent", "depth", "levels", "batches", "up_order", "down_order",
        "bar_ptr", "bar_rows", "weights",
        "_row_vertex", "_col_vertex", "_position", "_depth",
        "_level_index", "_ends_deep_first", "_at_least",
    )

    def __init__(self, pattern: SparsityPattern, ordering: Ordering,
                 etree: Optional[EliminationTree] = None):
        """The ordering is trivially perfect iff the pattern is the
        comparability graph of the forest in which each vertex's parent is
        its lowest-position higher neighbour; ``etree``, if given, must be
        that forest.  Anything else raises OrderingError."""
        n = pattern.n
        u, w, par = edges_and_parents(pattern, ordering)
        pos = np.asarray(ordering.sigma_inv, dtype=np.int64)
        sig = np.asarray(ordering.sigma, dtype=np.int64)
        # depth by pointer jumping: ``up`` is ``depth`` levels above, and
        # the reach doubles until every ``up`` is a root
        depth, up = (par != np.arange(n)).astype(np.int64), par
        while (up[up] != up).any():
            depth += depth[up]
            up = up[up]
        # the pattern is the forest's comparability graph iff it has as many
        # edges as the chains have slots (checked here, before the O(nnz)
        # tables are built) and every edge is a chain slot (checked below)
        if len(u) != depth.sum() or (
                etree is not None and tuple(etree.parent) != tuple(sig[par[pos]].tolist())):
            raise OrderingError(_NOT_TRIVIALLY_PERFECT)
        bar_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(depth + 1, out=bar_ptr[1:])
        self.pattern = pattern
        self.ordering = ordering
        self.n = n
        self.nnz = int(bar_ptr[n]) - n
        self.pos_parent = tuple(par.tolist())
        self.depth = tuple(depth.tolist())
        self.bar_ptr = bar_ptr
        # slot t >= 1 of a column holds what slot t-1 of its parent's column
        # holds, so a column's rows are its own index followed by its
        # parent's rows; follow those links, doubling their reach, until
        # every slot points at the diagonal of the column it names
        col = np.repeat(np.arange(n), depth + 1)
        link = np.arange(-1, self.dim - 1) + (bar_ptr[par] - bar_ptr[:-1])[col]
        link[bar_ptr[:-1]] = bar_ptr[:-1]
        reach, top = 1, int(depth.max())
        while reach < top:
            link = link[link]
            reach *= 2
        self.bar_rows = col[link]
        self._position = pos
        self._depth = depth
        try:
            self._slots(np.array([u, w]), 0)
        except StructuralError:
            raise OrderingError(_NOT_TRIVIALLY_PERFECT) from None
        self._compile(self.pos_parent)
        self.weights = np.full(self.dim, 2.0)
        self.weights[bar_ptr[:-1]] = 1.0
        self._row_vertex = sig[self.bar_rows]
        self._col_vertex = sig[col]

    def _compile(self, par: list) -> None:
        """Compile the level schedule.  Every index table is O(dim)."""
        n, ptr = self.n, self.bar_ptr
        kids = [[] for _ in range(n)]
        roots = []
        for q, p in enumerate(par):
            (roots if p == q else kids[p]).append(q)
        # levels: the roots, then each level's children grouped by parent
        levels = [roots]
        while True:
            nxt = [c for p in levels[-1] for c in kids[p]]
            if not nxt:
                break
            levels.append(nxt)
        level_index = [0] * n
        for lv in levels:
            for i, q in enumerate(lv):
                level_index[q] = i
        order = np.array([q for lv in levels for q in lv], dtype=np.int64)
        # the columns' slots in level order, where level d is a (k, d+1) block
        width = ptr[order + 1] - ptr[order]
        flat = np.arange(self.dim) + np.repeat(ptr[order] + width - np.cumsum(width), width)
        self.levels, batches, batch_of = [], [], [0] * n
        start, low, high = [], [], []  # per batch: level index, node range
        col_at = ptr.tolist()
        at = fat = 0
        for d, lv in enumerate(levels):
            k = len(lv)
            nodes = order[at:at + k]
            slots = flat[fat:fat + k * (d + 1)].reshape(k, d + 1)
            at += k
            fat += k * (d + 1)
            self.levels.append(Level(nodes, slots))
            # batches: runs of nodes under one parent batch, capped in size
            cap = max(1, BATCH_FLOATS // (d + 1) ** 2)
            if d:
                up = [level_index[par[q]] for q in lv]
                under = [batch_of[par[q]] for q in lv]
                # children of one parent are consecutive, ascending by
                # position; a child's rank among them orders its update
                rank = [0] * k
                for j in range(1, k):
                    if up[j] == up[j - 1]:
                        rank[j] = rank[j - 1] + 1
            lo = 0
            for i in range(1, k + 1):
                if i < k and i - lo < cap and (d == 0 or under[i] == under[lo]):
                    continue
                b = Batch()
                b.id, b.nodes, b.slots = len(batches), nodes[lo:i], slots[lo:i]
                start.append(lo)
                low.append(min(lv[lo:i]))
                high.append(max(lv[lo:i]))
                if i - lo == 1:
                    # one column: index it by slices, which numpy serves
                    # as views instead of gathers
                    q = lv[lo]
                    a = col_at[q]
                    b.cols, b.diag = (None, slice(a, a + d + 1)), slice(a, a + 1)
                    b.sub, b.at = (None, slice(a + 1, a + d + 1)), slice(q, q + 1)
                else:
                    b.cols, b.diag, b.sub, b.at = b.slots, b.slots[:, 0], b.slots[:, 1:], b.nodes
                b.children, b.kids = [], []
                if d:
                    pb = batches[under[lo]]
                    first = start[pb.id]
                    b.parent = pb.id
                    b.up = _index([u - first for u in up[lo:i]])
                    pb.children.append(b.id)
                    # the children's updates, one sibling rank at a time
                    rk = rank[lo:i]
                    if rk[0]:
                        # the cap split a parent's children: renumber them
                        rk = [r - rk[0] if u == up[lo] else r for r, u in zip(rk, up[lo:i])]
                    top = max(rk)
                    if not top:
                        pb.kids.append((b.id, b.up, slice(0, i - lo)))
                    else:
                        for r in range(top + 1):
                            ci = [j for j in range(i - lo) if rk[j] == r]
                            pb.kids.append((b.id, _index([up[lo + j] - first for j in ci]),
                                            _index(ci)))
                else:
                    b.parent, b.up = -1, None
                for q in lv[lo:i]:
                    batch_of[q] = b.id
                batches.append(b)
                lo = i
        # sweep orders: children's batches before their parents' (up) and
        # parents' before children's (down), each taking among the ready
        # batches the one with the lowest (up) or highest (down) position,
        # as close as the tree allows to the ascending and descending
        # node-by-node sweeps, so a failure ends a sweep as early
        up = _topological(batches, [b.id for b in batches if not b.children],
                          lambda b: [b.parent] if b.parent >= 0 else [],
                          low, [len(b.children) for b in batches])
        down = _topological(batches, [b.id for b in batches if b.parent < 0],
                            lambda b: b.children, [-h for h in high],
                            [1] * len(batches))
        final = {}
        for b in down:
            b.last, final[b.parent] = False, b
        for b in final.values():
            b.last = True
        lo, hi = n, -1
        for b in reversed(up):
            lo = b.lowest = min(lo, low[b.id])
        for b in reversed(down):
            hi = b.highest = max(hi, high[b.id])
        for b in batches:
            b.children, b.kids = tuple(b.children), tuple(b.kids)
        self.levels, self.batches = tuple(self.levels), tuple(batches)
        self.up_order, self.down_order = tuple(up), tuple(down)
        # chain tables: column ends deepest node first, and how many nodes
        # have depth >= a, so the columns reaching depth a are a prefix
        self._level_index = np.array(level_index, dtype=np.int64)
        self._ends_deep_first = ptr[order[::-1] + 1]
        at_least = [0]
        for lv in reversed(levels):
            at_least.append(at_least[-1] + len(lv))
        self._at_least = np.array(at_least[::-1], dtype=np.int64)

    @classmethod
    def from_pattern(cls, pattern: SparsityPattern) -> "Structure":
        """Recognize the pattern and build the structure from the ordering
        the search returns."""
        res = lbfs_order(pattern)
        if not res.accepted:
            raise OrderingError(
                "pattern is not homogeneous chordal "
                f"(recognition failed at pivot {res.pivot}); extend it first")
        return cls(pattern, res.ordering, res.etree)

    @property
    def dim(self) -> int:
        """Dimension of the symmetric matrix space on this pattern."""
        return self.n + self.nnz

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


class _Values:
    """Shared plumbing for pattern-restricted value arrays."""

    __slots__ = ("struct", "vals")

    def __init__(self, struct: Structure, vals: np.ndarray):
        if vals.shape != (struct.dim,):
            raise StructuralError(
                f"value array has length {vals.shape}, structure needs {struct.dim}")
        self.struct = struct
        self.vals = np.asarray(vals, dtype=np.float64)

    @property
    def diag(self) -> np.ndarray:
        return self.vals[self.struct.bar_ptr[:-1]]

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

    def norm(self) -> float:
        return float(np.sqrt(inner(self, self)))


class LowerSparse(_Values):
    """Lower-triangular matrix (in position space) on the pattern."""

    @property
    def nonsingular(self) -> bool:
        return bool(np.all(self.diag != 0.0))


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
    return float(np.dot(x.struct.weights * x.vals, y.vals))


def norm(x: _Values) -> float:
    return float(np.sqrt(inner(x, x)))


def to_dense(x: _Values) -> np.ndarray:
    """Dense matrix in vertex labels.  SymSparse fills both triangles;
    LowerSparse fills only the (position-space) lower one, so its dense
    form is triangular only under an identity ordering."""
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
    s = x.struct
    return list(map(list, zip((s._row_vertex + 1).tolist(),
                              (s._col_vertex + 1).tolist(), x.vals.tolist())))


def _chain(s: Structure, lv: np.ndarray, x: np.ndarray, kind: str,
           own: bool = False) -> np.ndarray:
    """Products and substitutions with L restricted to every column's
    chain, for all columns at once.

    The chain of column i is its ancestors (``own=True``: i itself, then
    its ancestors), and ``x`` holds a vector on each chain in i's value
    slots.  ``kind`` is "mul" (L x), "mul_t" (L^T x), "solve" (L^-1 x) or
    "solve_t" (L^-T x); the result is laid out like ``x``, whose other
    slots it keeps ("mul": zeros).

    Step a treats the chain member at depth a of every column that reaches
    that depth: the last a+1 slots of those columns, against the column of
    L at that member.  For each column this is one axpy or one dot per
    chain member, in the order of the scalar column recurrence, so every
    result is bitwise that of walking the chain alone.  Steps run from
    the deepest member up ("solve_t": from the root down).
    """
    top = len(s.levels) - 1 if own else len(s.levels) - 2
    steps = range(top + 1) if kind == "solve_t" else range(top, -1, -1)
    y = np.zeros_like(x) if kind == "mul" else x.copy()
    for a in steps:
        at = s._ends_deep_first[:s._at_least[a + 1 - own]] - 1 - a
        tail = at[:, None] + np.arange(a + 1)
        col = lv[s.levels[a].slots][s._level_index[s.bar_rows[at]]]
        if kind == "mul":
            y[tail] += x[at, None] * col
        elif kind == "mul_t":
            y[at] = np.vecdot(col, x[tail])
        elif kind == "solve":
            y[at] /= col[:, 0]
            y[tail[:, 1:]] -= y[at, None] * col[:, 1:]
        else:
            y[at] = (y[at] - np.vecdot(col[:, 1:], y[tail[:, 1:]])) / col[:, 0]
    return y


def tri_mul(L: LowerSparse, Lt: LowerSparse) -> LowerSparse:
    """Exact product of two pattern-restricted lower triangles.  Stays in
    the pattern because each column's ancestor chain contains the chains
    of everything on it: column k of the product is L restricted to k's
    chain times column k of ``Lt``."""
    _check_same(L, Lt)
    s = L.struct
    return LowerSparse(s, _chain(s, L.vals, Lt.vals, "mul", own=True))


def tri_inverse(L: LowerSparse) -> LowerSparse:
    """Inverse of a pattern-restricted lower triangle, column by column by
    substitution along the ancestor chain."""
    s = L.struct
    lv = L.vals
    zero = lv[s.bar_ptr[:-1]] == 0.0
    if zero.any():
        # the first zero pivot that column-by-column substitution meets
        rows = s.bar_rows
        raise SingularFactor(column=s.ordering.sigma[rows[np.argmax(zero[rows])]])
    return LowerSparse(s, _chain(s, lv, identity(s).vals, "solve", own=True))
