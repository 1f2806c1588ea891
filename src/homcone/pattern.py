"""Sparsity-pattern graphs and their combinatorics.

A pattern is homogeneous chordal (equivalently: trivially perfect, the
comparability graph of a rooted forest, free of induced P4 and C4)
exactly when it admits an ordering whose higher neighborhoods satisfy
adj+(u) = {p(u)} | adj+(p(u)), p(u) the lowest higher neighbor of u.
This module recognizes such patterns by checking that equation in
(degree, index) order, certifying a rejection with an induced P4 or C4;
classifies orderings by the same check in position order; builds
elimination trees and fundamental supernode partitions; extends arbitrary
patterns to homogeneous chordal ones; and samples random instances from
rooted forests.

Vertices are 0-based everywhere in this module; file formats are 1-based
and converted in the io layer.  All types are immutable after construction
and all functions are pure.
"""

from __future__ import annotations

import bisect
import enum
import functools
import heapq
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import OrderingError, PatternError

__all__ = [
    "SparsityPattern",
    "Ordering",
    "EliminationTree",
    "SupernodePartition",
    "OrderingClass",
    "LbfsAccept",
    "LbfsReject",
    "Extension",
    "GeneratedPattern",
    "lbfs_order",
    "verify_ordering",
    "build_etree",
    "supernode_partition",
    "single_child_runs",
    "homogeneous_extension",
    "random_homogeneous_pattern",
    "is_postordering",
]


class SparsityPattern:
    """Undirected graph on {0,..,n-1} encoding the off-diagonal nonzeros.

    Stored as two read-only int64 arrays: ``degrees``, and ``neighbours``,
    each vertex's neighbours in ascending order, one run per vertex.  Build
    it from validated edges, as pairs or as an integer (|E|, 2) array read
    as it is, by one sort in O(|V| + |E| log |E|); or with
    :meth:`from_adjacency`, which keeps the caller's tuples and derives the
    arrays on first read.  ``adjacency`` (v's run as the tuple
    ``adjacency[v]``) and the ``edges`` set are derived on first read too.
    """

    __slots__ = ("n", "degrees", "neighbours", "adjacency", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise PatternError(f"need at least one vertex, got n={n}")
        n = operator.index(n)
        pairs = edges if isinstance(edges, np.ndarray) else list(edges)
        try:
            e = np.asarray(pairs if len(pairs) else np.empty((0, 2), dtype=np.int64))
        except (TypeError, ValueError):
            e = np.empty(0)
        if e.dtype.kind not in "iu" or e.shape != (len(pairs), 2) or (
                e.size and (e.min() < 0 or e.max() >= n)):
            e = _checked_edges(n, pairs)
        e = np.asarray(e, dtype=np.int64).reshape(-1, 2)
        # sorted, the codes i n + j and j n + i list each vertex's neighbours
        # as one ascending run, and two equal codes are a self-loop or a repeat
        code = (e * n + e[:, ::-1]).ravel()
        code.sort()
        if np.count_nonzero(code[1:] == code[:-1]):
            _checked_edges(n, pairs)  # raises, naming the first of them
        lo, self.neighbours = np.divmod(code, n)
        self.n, self.degrees = n, np.bincount(lo, minlength=n)
        self.degrees.flags.writeable = self.neighbours.flags.writeable = False

    @classmethod
    def from_adjacency(cls, n: int, adjacency: Sequence[Sequence[int]]) -> "SparsityPattern":
        """Wrap prebuilt neighbor lists, unchecked, which must be sorted,
        symmetric and loop-free: C2's scan wraps 2.1M small patterns so."""
        self = cls.__new__(cls)
        self.n = n
        self.adjacency = tuple(map(tuple, adjacency))
        return self

    def __getattr__(self, name):
        """Derive a form the constructor did not store, on its first read."""
        if name == "adjacency":
            flat, end = self.neighbours.tolist(), self.degrees.cumsum().tolist()
            self.adjacency = tuple(tuple(flat[a:b]) for a, b in zip([0, *end], end))
        elif name in ("degrees", "neighbours"):
            self.degrees = np.fromiter(map(len, self.adjacency), np.int64, self.n)
            self.neighbours = np.fromiter(itertools.chain.from_iterable(self.adjacency), np.int64)
            self.degrees.flags.writeable = self.neighbours.flags.writeable = False
        elif name == "edges":
            self.edges = frozenset(zip(*(a.tolist() for a in self.edge_arrays())))
        else:
            raise AttributeError(name)
        return getattr(self, name)

    def edge_arrays(self) -> tuple:
        """Every edge once as arrays ``(i, j)``, i < j, in (i, j) order."""
        i = np.arange(self.n).repeat(self.degrees)
        keep = i < self.neighbours
        return i[keep], self.neighbours[keep]

    @property
    def n_edges(self) -> int:
        return len(self.neighbours) // 2

    def has_edge(self, i: int, j: int) -> bool:
        return ((i, j) if i < j else (j, i)) in self.edges

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparsityPattern) and self.n == other.n
                and np.array_equal(self.degrees, other.degrees)
                and np.array_equal(self.neighbours, other.neighbours))

    def __hash__(self):
        return hash((self.n, self.degrees.tobytes(), self.neighbours.tobytes()))

    def __repr__(self):
        return f"SparsityPattern(n={self.n}, m={self.n_edges})"


def _checked_edges(n: int, pairs: Sequence) -> list:
    """The edges as pairs of Python ints, checked in input order: PatternError
    at the first bad one, TypeError at a vertex that is not an integer."""
    seen, out = set(), []
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise PatternError(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise PatternError(f"self-loop at vertex {i}")
        i, j = operator.index(i), operator.index(j)
        key = (i, j) if i < j else (j, i)
        if key in seen:
            raise PatternError(f"duplicate edge {key}")
        seen.add(key)
        out.append((i, j))
    return out


@dataclass(frozen=True)
class Ordering:
    """Bijection between positions and vertices.

    ``sigma[q]`` is the vertex in position q; ``sigma_inv[v]`` the position
    of vertex v.
    """

    sigma: tuple
    sigma_inv: tuple

    @classmethod
    def from_sigma(cls, sigma: Sequence[int]) -> "Ordering":
        n = len(sigma)
        inv = [-1] * n
        for q, v in enumerate(sigma):
            if not 0 <= v < n or inv[v] >= 0:
                raise OrderingError(f"sigma is not a bijection on 0..{n - 1}")
            inv[v] = q
        return cls(tuple(sigma), tuple(inv))

    @classmethod
    def identity(cls, n: int) -> "Ordering":
        r = tuple(range(n))
        return cls(r, r)

    @property
    def n(self) -> int:
        return len(self.sigma)


@dataclass(frozen=True)
class EliminationTree:
    """Rooted forest with parent(v) = v marking roots; ``children`` is the
    exact inverse of ``parent``."""

    parent: tuple
    children: tuple
    roots: tuple

    @classmethod
    def from_parent(cls, parent: Sequence[int]) -> "EliminationTree":
        """Children ascend by index, grouped by one sort of (parent, child)
        pairs; only a parent gets a tuple, sparing the garbage collector."""
        parent = tuple(parent)
        n = len(parent)
        par = np.array(parent, dtype=np.int64)
        up = par != np.arange(n)
        code = up.nonzero()[0]
        code += par[code] * n
        code.sort()
        count = np.bincount(code // n, minlength=n)
        has = count.nonzero()[0]
        end = count[has].cumsum()
        children, kids = [()] * n, (code % n).tolist()
        for p, a, b in zip(has.tolist(), (end - count[has]).tolist(), end.tolist()):
            children[p] = tuple(kids[a:b])
        return cls(parent, tuple(children), tuple((~up).nonzero()[0].tolist()))

    @property
    def n(self) -> int:
        return len(self.parent)

    def subtree_sizes(self) -> np.ndarray:
        """Vertices in each subtree, as an int64 array: 1 + proper descendants."""
        return np.bincount(_ancestors(self.parent)[1], minlength=self.n) + 1


@dataclass(frozen=True)
class SupernodePartition:
    """Fundamental supernodes: maximal single-child chains grouped below a
    representative (a leaf or a node with several children)."""

    representatives: tuple
    member_of: tuple
    snode_parent: tuple
    members: tuple

    @property
    def n_supernodes(self) -> int:
        return len(self.representatives)


class OrderingClass(enum.Enum):
    NOT_PEO = "NotPEO"
    PEO = "PEO"
    TRIVIALLY_PERFECT_PEO = "TriviallyPerfectPEO"


@dataclass(frozen=True)
class LbfsAccept:
    ordering: Ordering
    etree: EliminationTree
    accepted: bool = True


@dataclass(frozen=True)
class LbfsReject:
    """Certificate of rejection: ``pivot`` is the first vertex, parents
    first, whose higher neighborhood is not its parent plus the parent's;
    ``witness`` is four vertices through it inducing a ``kind`` ("P4" or
    "C4") subgraph, listed along the path or cycle, found on first use."""

    pivot: int
    pattern: SparsityPattern
    accepted: bool = False

    @property
    def kind(self) -> str:
        a, _, _, d = self.witness
        return "C4" if d in self.pattern.adjacency[a] else "P4"

    @functools.cached_property
    def witness(self) -> tuple:
        """With v the pivot and p its parent, in O(deg): either some higher
        neighbor w != p of v misses p, and x in N(p) - N[v] (nonempty as
        deg p >= deg v) gives x-p-v-w; or some higher neighbor y of p
        misses v, and x in N(y) - N[p] gives v-p-y-x."""
        adj = self.pattern.adjacency
        v = self.pivot

        def key(u):
            return len(adj[u]), u

        p = min((w for w in adj[v] if key(w) > key(v)), key=key)
        near_p = set(adj[p])
        missed = [w for w in adj[v] if key(w) > key(p) and w not in near_p]
        if missed:
            return min(near_p.difference(adj[v], (v,))), p, v, min(missed, key=key)
        near_v = set(adj[v])
        y = min((y for y in adj[p] if key(y) > key(p) and y not in near_v), key=key)
        return v, p, y, min(set(adj[y]).difference(near_p, (p,)))


def _positions(pattern: SparsityPattern, ordering: Ordering) -> np.ndarray:
    """The position of each vertex, as an array; raises OrderingError
    when the ordering is on another number of vertices."""
    if ordering.n != pattern.n:
        raise OrderingError(f"ordering on {ordering.n} vertices, pattern has {pattern.n}")
    return np.asarray(ordering.sigma_inv, dtype=np.int64)


def _higher(pattern: SparsityPattern, key: np.ndarray):
    """Higher neighbourhoods under ``key``, a permutation of 0..n-1 (a
    rank or a position per vertex), with the check of the module
    docstring run on every key at once.

    Returns ``(hi, count, parent, bad)`` indexed by key: every edge once,
    as its ends' keys lo < hi, sorted by (lo, hi) with one sort, so that
    ``hi`` lists each key's higher neighbours as one ascending run; how
    many each key has; its lowest higher neighbour (itself when it has
    none); and whether its run after that parent p differs from p's run.
    Reads the pattern's stored arrays.  O(|V| + |E| log |E|).
    """
    n = pattern.n
    a = key.repeat(pattern.degrees)
    b = key[pattern.neighbours]
    keep = (a < b).nonzero()[0]
    code = a.take(keep) * n + b.take(keep)
    del a, b, keep
    code.sort()
    lo = code // n
    hi = code - lo * n
    del code
    count = np.bincount(lo, minlength=n)
    start = count.cumsum() - count
    has = count > 0
    parent = np.arange(n)
    parent[has] = hi[start[has]]
    # entry t >= 1 of a run against entry t-1 of its parent's run, where
    # the runs have matching lengths
    bad = has & (count - 1 != count[parent])
    t = np.arange(len(hi)) - start[lo]
    e = ((t > 0) & ~bad[lo]).nonzero()[0]
    p = parent[lo[e]]
    bad[lo[e[hi[e] != hi[start[p] + t[e] - 1]]]] = True
    return hi, count, parent, bad


def _columns(hi: np.ndarray, count: np.ndarray):
    """Each key followed by its higher neighbours, the ``count`` entries of
    its run of ``hi``, as ``rows[ptr[k]:ptr[k+1]]``: after a trivially
    perfect check, each key and its ancestors."""
    n = len(count)
    ptr = np.zeros(n + 1, dtype=np.int64)
    (count + 1).cumsum(out=ptr[1:])
    rows = np.arange(n).repeat(count + 1)
    above = np.ones(len(rows), dtype=bool)
    above[ptr[:-1]] = False
    rows[above] = hi
    return ptr, rows


def _ancestors(parent: Sequence[int]):
    """Every vertex v of the forest ``parent`` (``parent[v] == v`` at a
    root) paired with each of its proper ancestors a, bottom up, as arrays
    ``(lo, hi)`` by ascending v: the edges of the forest's comparability
    graph, and, with the depths ``bincount(lo)`` as counts, the runs
    :func:`_columns` lays out.  One array step per tree level (the vertices
    with a t-th ancestor, and those ancestors), O(|V| + |A|) for |A| pairs;
    OrderingError when ``parent`` has a cycle."""
    parent = np.asarray(parent, dtype=np.int64)
    n = len(parent)
    who = [(parent != np.arange(n)).nonzero()[0]]
    up = [parent[who[0]]]
    while len(who[-1]):
        if len(who) > n:
            raise OrderingError("parent has a cycle, so it is not a forest")
        k = (parent[up[-1]] != up[-1]).nonzero()[0]
        who.append(who[-1][k])
        up.append(parent[up[-1][k]])
    count = np.bincount(np.concatenate(who), minlength=n)
    start = count.cumsum() - count
    lo = np.arange(n).repeat(count)
    hi = np.empty_like(lo)
    for t, (w, a) in enumerate(zip(who, up)):
        hi[start[w] + t] = a
    return lo, hi


def _preorder(parent: np.ndarray, key: np.ndarray, size: np.ndarray,
              ptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Preorder index of each vertex of the forest ``parent`` (``parent[v]
    == v`` at a root), visiting the roots and each vertex's children by
    ascending ``key`` (a permutation), given the subtree sizes and each
    vertex followed by its ancestors as ``rows[ptr[v]:ptr[v+1]]``.  A
    vertex comes after each of those and after the subtrees of their
    siblings of lower key: one sort of the siblings, their sizes' prefix
    sums, and one sum over every vertex's ancestors."""
    n = len(parent)
    group = np.where(parent == np.arange(n), n, parent)
    sib = (group * n + key).argsort()
    sizes = size[sib]
    before = sizes.cumsum() - sizes
    first = np.ones(n, dtype=bool)
    first[1:] = group[sib[1:]] != group[sib[:-1]]
    earlier = np.empty(n, dtype=np.int64)
    earlier[sib] = before - np.maximum.accumulate(np.where(first, before, 0))
    return np.add.reduceat(earlier[rows] + 1, ptr[:-1]) - 1


#: :func:`lbfs_order` walks patterns of fewer vertices one vertex at a
#: time: its array passes make some forty numpy calls whatever the size,
#: which cost more than the walk below about 100 vertices (about 90 us
#: against 17 us on 7 vertices, measured on a 2-core VM).
_WALK_BELOW = 100


def lbfs_order(pattern: SparsityPattern):
    """Recognize a homogeneous chordal pattern: its trivially perfect
    elimination ordering and elimination forest, or a :class:`LbfsReject`.

    Key each vertex by its rank in (degree, index) order.  In a trivially
    perfect graph the closed neighborhoods of adjacent vertices are
    nested, so the key order is a trivially perfect elimination ordering
    (Yan, Chen & Chang, 1996): v's parent p is its lowest-key higher
    neighbor and adj+(v) = {p} | adj+(p).  The pattern is accepted iff
    that holds at every non-root; a rejection's pivot is the failing
    vertex of highest rank, the first a walk from the roots down meets,
    through which it names an induced P4 or C4.

    sigma is the forest's postorder, roots and children ascending by key
    (a subtree's size is 1 plus the number of lower-key neighbors).  That
    is the paper's lexicographic BFS ordering: numbering positions n-1 down
    to 0, the search takes the highest-key vertex of the newest part, a
    subtree's root, and splits its unnumbered neighbors, the rest of the
    subtree, off as the next part: it walks the forest depth first by
    descending key, each vertex's last adjacent pivot being its parent.

    Patterns of ``_WALK_BELOW`` vertices or more are checked all at once
    by array passes over the edges (:func:`_lbfs_arrays`), O(|V| + |E|
    log |E|) for their one sort; smaller ones vertex by vertex, from the
    top rank down (:func:`_lbfs_walk`), O(|V| + |E| log deg).  Both give
    the same result.
    """
    return (_lbfs_walk if pattern.n < _WALK_BELOW else _lbfs_arrays)(pattern)


def _lbfs_arrays(pattern: SparsityPattern):
    """:func:`lbfs_order` by array passes: :func:`_higher` checks every
    vertex on the edges sorted by their ends' ranks, and a vertex's
    position is n - 1 less its index in the preorder that visits children
    by descending rank (:func:`_preorder`)."""
    n = pattern.n
    deg = pattern.degrees
    order = deg.argsort(kind="stable")  # ties by index
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    hi, count, parent, bad = _higher(pattern, rank)
    if bad.any():
        return LbfsReject(pivot=int(order[bad.nonzero()[0][-1]]), pattern=pattern)
    at = n - 1 - _preorder(parent, n - 1 - np.arange(n), deg[order] - count + 1,
                           *_columns(hi, count))
    pos = np.empty(n, dtype=np.int64)
    pos[order] = at
    sigma = np.empty(n, dtype=np.int64)
    sigma[at] = order
    return LbfsAccept(ordering=Ordering(tuple(sigma.tolist()), tuple(pos.tolist())),
                      etree=EliminationTree.from_parent(order[parent[rank]].tolist()))


def _lbfs_walk(pattern: SparsityPattern):
    """:func:`lbfs_order` one vertex at a time, from the top rank down:
    each vertex's sorted higher-neighbour ranks against its parent's,
    stopping at the first mismatch.  Positions are handed out top down,
    each subtree directly below its root, siblings by descending rank."""
    n = pattern.n
    adj = pattern.adjacency
    order = sorted(range(n), key=list(map(len, adj)).__getitem__)  # stable: ties by index
    rank = [0] * n
    for r, v in enumerate(order):
        rank[v] = r
    up = [None] * n  # ranks of the higher neighbors, kept for possible parents
    parent = list(range(n))
    pos = [0] * n
    sigma = [0] * n
    below = [0] * n  # next free position under each rank
    free = n - 1     # next free position for a root
    for r in range(n - 1, -1, -1):
        v = order[r]
        ranks = sorted(map(rank.__getitem__, adj[v]))
        lower = bisect.bisect(ranks, r)
        hv = ranks[lower:]
        if hv:
            p = hv[0]
            if hv[1:] != up[p]:
                return LbfsReject(pivot=v, pattern=pattern)
            parent[v] = order[p]
            at = below[p]
            below[p] = at - lower - 1
        else:
            at = free
            free = at - lower - 1
        if lower:  # only a vertex with lower neighbors can be a parent
            up[r] = hv
            below[r] = at - 1
        pos[v] = at
        sigma[at] = v
    return LbfsAccept(ordering=Ordering(tuple(sigma), tuple(pos)),
                      etree=EliminationTree.from_parent(parent))


def verify_ordering(pattern: SparsityPattern, ordering: Ordering) -> OrderingClass:
    """Classify an ordering of the pattern.

    With p(u) the lowest higher neighbor of u: PEO means adj+(u) - {p(u)}
    is a subset of adj+(p(u)) for every non-root u, which makes every
    higher neighborhood a clique; trivially perfect additionally requires
    adj+(u) = {p(u)} | adj+(p(u)), which makes inverse Cholesky factors
    fill-free: the check of :func:`lbfs_order`, keyed by position
    (:func:`_higher`).  The subset test runs only where that check fails.
    """
    n = pattern.n
    hi, count, parent, bad = _higher(pattern, _positions(pattern, ordering))
    if not bad.any():
        return OrderingClass.TRIVIALLY_PERFECT_PEO
    lo = np.arange(n).repeat(count)
    code = lo * n + hi
    e = (bad[lo] & (hi != parent[lo])).nonzero()[0]
    want = parent[lo[e]] * n + hi[e]
    found = code[np.minimum(code.searchsorted(want), len(code) - 1)] == want
    return OrderingClass.PEO if found.all() else OrderingClass.NOT_PEO


def build_etree(pattern: SparsityPattern, ordering: Ordering,
                check: bool = False) -> EliminationTree:
    """Parent of v is its first higher neighbor (v itself at a root).

    The caller is responsible for ``ordering`` being at least a PEO;
    pass ``check=True`` to verify.
    """
    if check and verify_ordering(pattern, ordering) is OrderingClass.NOT_PEO:
        raise OrderingError("ordering is not a perfect elimination ordering")
    pos = _positions(pattern, ordering)
    par = _higher(pattern, pos)[2]
    sig = np.asarray(ordering.sigma, dtype=np.int64)
    return EliminationTree.from_parent(sig[par[pos]].tolist())


def is_postordering(etree: EliminationTree, ordering: Ordering) -> bool:
    """True when every subtree occupies the consecutive positions directly
    below its root's position: pos[a] - size[a] < pos[v] < pos[a] for
    every vertex v and each of its proper ancestors a, the subtree of a
    holding size[a] vertices.  O(|V| + |A|) for |A| such pairs."""
    lo, hi = _ancestors(etree.parent)
    pos = np.asarray(ordering.sigma_inv, dtype=np.int64)
    at, top, size = pos[lo], pos[hi], np.bincount(hi, minlength=etree.n) + 1
    return bool(((top - size[hi] < at) & (at < top)).all())


def _chain_runs(parent: np.ndarray):
    """:func:`single_child_runs` as arrays: every vertex, run by run, and
    where each run starts, with the total at the end.  A vertex with one
    child continues that child's run; pointer jumping down those links
    finds each vertex's representative and its height above it, in
    O(|V| log L) for runs of at most L vertices, and one sort lays the
    runs out."""
    n = len(parent)
    up = parent != np.arange(n)
    children = np.bincount(parent[up], minlength=n)
    only = up.nonzero()[0]
    only = only[children[parent[only]] == 1]
    rep = np.arange(n)
    rep[parent[only]] = only
    steps = (rep != np.arange(n)).astype(np.int64)
    while (rep[rep] != rep).any():
        steps += steps[rep]
        rep = rep[rep]
    runs = (children != 1).nonzero()[0]
    start = np.zeros(len(runs) + 1, dtype=np.int64)
    np.bincount(rep, minlength=n)[runs].cumsum(out=start[1:])
    return (rep * n + steps).argsort(), start


def single_child_runs(parent: Sequence[int]) -> list:
    """The fundamental supernodes of the forest ``parent`` (``parent[v] ==
    v`` at a root): one run per representative, a leaf or a vertex with
    several children, holding it and then its ancestors up to (excluding)
    the next representative, bottom up.  Runs come in ascending order of
    their representatives."""
    members, start = _chain_runs(np.asarray(parent, dtype=np.int64))
    flat, start = members.tolist(), start.tolist()
    return [flat[a:b] for a, b in zip(start[:-1], start[1:])]


def supernode_partition(pattern: SparsityPattern, ordering: Ordering,
                        etree: EliminationTree) -> SupernodePartition:
    """Group vertices into fundamental supernodes.

    Representatives are the leaves and the nodes with more than one child;
    each supernode is its representative plus the chain of intermediate
    single-child ancestors up to (excluding) the next representative.
    Requires a trivially perfect elimination ordering that is also a
    postordering, so each supernode is a contiguous position run.
    """
    if verify_ordering(pattern, ordering) is not OrderingClass.TRIVIALLY_PERFECT_PEO:
        raise OrderingError("supernodes need a trivially perfect elimination ordering")
    if not is_postordering(etree, ordering):
        raise OrderingError("supernodes need a postordering of the elimination tree")
    pos = ordering.sigma_inv
    members = sorted((tuple(run) for run in single_child_runs(etree.parent)),
                     key=lambda run: pos[run[0]])
    member_of = [-1] * pattern.n
    for k, group in enumerate(members):
        for v in group:
            member_of[v] = k
    reps = [group[0] for group in members]
    snode_parent = [member_of[etree.parent[group[-1]]] for group in members]
    return SupernodePartition(
        representatives=tuple(reps),
        member_of=tuple(member_of),
        snode_parent=tuple(snode_parent),
        members=tuple(members),
    )


@dataclass(frozen=True)
class Extension:
    extended: SparsityPattern
    ordering: Ordering
    etree: EliminationTree


def _minimum_degree(pattern: SparsityPattern):
    """Minimum-degree elimination, ties broken on vertex index: each
    vertex's parent in the filled graph, its first-eliminated higher
    neighbor (itself at a root).

    Pivots come off one heap keyed (degree, index); eliminating v pushes
    its neighbors again under their new degrees, and stale entries are
    skipped on pop.  An eliminated vertex's set is never touched again, so
    it stays its higher neighborhood.  O((n + fill) log n) for the heap
    plus the sum of squared elimination degrees for the fill.
    """
    n = pattern.n
    flat, end = pattern.neighbours.tolist(), pattern.degrees.cumsum().tolist()
    live: list[set] = [set(flat[a:b]) for a, b in zip([0, *end], end)]
    heap = [(len(a), v) for v, a in enumerate(live)]
    heapq.heapify(heap)
    pos = [n] * n  # elimination step of each vertex, n while live
    for q in range(n):
        d, v = heapq.heappop(heap)
        while pos[v] < n or d != len(live[v]):
            d, v = heapq.heappop(heap)
        pos[v] = q
        nb = list(live[v])
        for w in nb:
            live[w].discard(v)
        for a_i, a in enumerate(nb):
            for b in nb[a_i + 1:]:
                if b not in live[a]:
                    live[a].add(b)
                    live[b].add(a)
        for w in nb:
            heapq.heappush(heap, (len(live[w]), w))
    return [min(up, key=pos.__getitem__) if up else v for v, up in enumerate(live)]


def homogeneous_extension(pattern: SparsityPattern) -> Extension:
    """Smallest-effort homogeneous chordal extension of an arbitrary pattern.

    Patterns that already pass recognition are returned unchanged.  Others
    get a minimum-degree fill-reducing ordering, a symbolic factorization of
    that ordering, and the ancestor closure of the filled elimination tree
    (the comparability graph of that tree), which is trivially perfect by
    construction.  The returned ordering is the tree's postorder, children
    by ascending index.  Heuristic only: minimizing added edges is NP-hard.
    The ordering costs O((n + fill) log n) for the heap plus the sum of
    squared elimination degrees for the fill; the closure and postorder
    come from the tree's ancestor pairs, O(E log E), E the extended edges.
    """
    res = lbfs_order(pattern)
    if res.accepted:
        return Extension(pattern, res.ordering, res.etree)
    n = pattern.n
    parent = np.array(_minimum_degree(pattern))
    lo, hi = _ancestors(parent)
    depth, size = np.bincount(lo, minlength=n), np.bincount(hi, minlength=n) + 1
    # postorder index: preorder index, less the ancestors, plus the descendants
    at = _preorder(parent, np.arange(n), size, *_columns(hi, depth)) - depth + size - 1
    return Extension(SparsityPattern(n, np.stack((lo, hi), axis=1)),
                     Ordering(tuple(at.argsort().tolist()), tuple(at.tolist())),
                     EliminationTree.from_parent(parent.tolist()))


@dataclass(frozen=True)
class GeneratedPattern:
    pattern: SparsityPattern
    ordering: Ordering
    etree: EliminationTree


def random_homogeneous_pattern(n: int, seed: int,
                               branching: float = 3.0) -> GeneratedPattern:
    """Sample the comparability graph of a random postordered rooted forest.

    ``branching`` sets the expected number of child subtrees per node
    (1 gives chains, large values give shallow bushy forests).  The natural
    order 0..n-1 is a trivially perfect elimination ordering and a
    postordering of the returned forest by construction, and a fixed seed
    reproduces the instance exactly.
    """
    if n < 1:
        raise PatternError(f"need at least one vertex, got n={n}")
    rng = np.random.default_rng(seed)
    parent = list(range(n))
    # Each stack entry asks for a forest of sibling subtrees covering the
    # index range [lo, hi], all of whose roots attach to par (-1 = none).
    stack = [(0, n - 1, -1)]
    while stack:
        lo, hi, par = stack.pop()
        size = hi - lo + 1
        k = min(size, 1 + int(rng.poisson(max(branching - 1.0, 0.0))))
        if k > 1:
            cuts = np.sort(rng.choice(size - 1, size=k - 1, replace=False)) + 1
        else:
            cuts = ()
        bounds = [lo, *(lo + int(c) for c in cuts), hi + 1]
        for a, b in zip(bounds[:-1], bounds[1:]):
            root = b - 1
            if par >= 0:
                parent[root] = par
            if root > a:
                stack.append((a, root - 1, root))
    edges = np.stack(_ancestors(parent), axis=1)
    return GeneratedPattern(SparsityPattern(n, edges), Ordering.identity(n),
                            EliminationTree.from_parent(parent))
