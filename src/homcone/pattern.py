"""Sparsity-pattern graphs and their combinatorics.

A pattern is homogeneous chordal (equivalently: trivially perfect, the
comparability graph of a rooted forest) exactly when it admits an ordering
whose higher neighborhoods satisfy adj+(u) = {p(u)} | adj+(p(u)).  This
module recognizes such patterns with a lexicographic breadth-first search,
classifies orderings, builds elimination trees and fundamental supernode
partitions, extends arbitrary patterns to homogeneous chordal ones, and
samples random instances from rooted forests.

Vertices are 0-based everywhere in this module; file formats are 1-based
and converted in the io layer.  All types are immutable after construction
and all functions are pure.
"""

from __future__ import annotations

import enum
import itertools
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
    "homogeneous_extension",
    "random_homogeneous_pattern",
    "is_postordering",
]


class SparsityPattern:
    """Undirected graph on {0,..,n-1} encoding the off-diagonal nonzeros.

    ``adjacency[v]`` is a sorted tuple of neighbors.  Construct from an
    edge list (validated) or via :meth:`from_adjacency` when the caller
    already guarantees consistency.
    """

    __slots__ = ("n", "adjacency", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise PatternError(f"need at least one vertex, got n={n}")
        adj: list[list[int]] = [[] for _ in range(n)]
        seen = set()
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise PatternError(f"edge ({i},{j}) out of range for n={n}")
            if i == j:
                raise PatternError(f"self-loop at vertex {i}")
            key = (i, j) if i < j else (j, i)
            if key in seen:
                raise PatternError(f"duplicate edge {key}")
            seen.add(key)
            adj[i].append(j)
            adj[j].append(i)
        self.n = n
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)
        self._edges = frozenset(seen)

    @classmethod
    def from_adjacency(cls, n: int, adjacency: Sequence[Sequence[int]],
                       validate: bool = True) -> "SparsityPattern":
        """Wrap prebuilt neighbor lists.  With ``validate=False`` the lists
        must already be sorted, symmetric, and loop-free."""
        if validate:
            edges = []
            for v, nbrs in enumerate(adjacency):
                for w in nbrs:
                    if v < w:
                        edges.append((v, w))
            return cls(n, edges)
        self = cls.__new__(cls)
        self.n = n
        self.adjacency = tuple(tuple(a) for a in adjacency)
        self._edges = None
        return self

    @property
    def edges(self) -> frozenset:
        if self._edges is None:
            self._edges = frozenset(
                (v, w) for v, nbrs in enumerate(self.adjacency) for w in nbrs if v < w
            )
        return self._edges

    @property
    def n_edges(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, i: int, j: int) -> bool:
        return ((i, j) if i < j else (j, i)) in self.edges

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparsityPattern)
                and self.n == other.n and self.adjacency == other.adjacency)

    def __hash__(self):
        return hash((self.n, self.adjacency))

    def __repr__(self):
        return f"SparsityPattern(n={self.n}, m={self.n_edges})"


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
        n = len(parent)
        ch: list[list[int]] = [[] for _ in range(n)]
        roots = []
        for v, p in enumerate(parent):
            if p == v:
                roots.append(v)
            else:
                ch[p].append(v)
        return cls(tuple(parent), tuple(tuple(c) for c in ch), tuple(roots))

    @property
    def n(self) -> int:
        return len(self.parent)

    def subtree_sizes(self) -> list:
        """Number of vertices in each subtree, computed without recursion."""
        size = [1] * self.n
        for v in self._reverse_topological()[::-1]:
            p = self.parent[v]
            if p != v:
                size[p] += size[v]
        return size

    def _reverse_topological(self) -> list:
        """Parents before children (iterative DFS from the roots)."""
        out = []
        stack = list(self.roots)
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(self.children[v])
        return out


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
    """Certificate that step 2 of the search fired: while numbering
    ``pivot``, an unnumbered neighbor sat in list slot ``set_index``
    instead of the active (last) slot."""

    pivot: int
    set_index: int
    neighbor: int
    accepted: bool = False


def lbfs_order(pattern: SparsityPattern):
    """Recognize a homogeneous chordal pattern by lexicographic BFS.

    Vertices are numbered n-1 down to 0, each time taking the vertex of
    highest degree in the most recently split part and splitting that part
    into non-neighbors followed by neighbors.  On acceptance the returned
    ordering is a trivially perfect elimination ordering and a postordering
    of the returned elimination tree; the parent of w is the last pivot
    adjacent to w before w itself is numbered.  On rejection a
    :class:`LbfsReject` certificate is returned.

    Ties in degree are broken by ascending vertex index, and splits keep
    relative order, so the result is a pure function of the pattern.
    Runs in O(|V| + |E| log deg).
    """
    n = pattern.n
    adj = pattern.adjacency
    deg = [len(a) for a in adj]

    # One global doubly linked list threads every unnumbered vertex; parts
    # of the partition are (head, tail, stack position) windows onto it.
    order = sorted(range(n), key=lambda v: (deg[v], v))
    nxt = [-1] * n
    prv = [-1] * n
    for a, b in zip(order, order[1:]):
        nxt[a] = b
        prv[b] = a
    stack = [[order[0], order[-1], 0]]
    part_of = [stack[0]] * n
    numbered = [False] * n
    sigma = [0] * n
    parent = list(range(n))

    for i in range(n - 1, -1, -1):
        top = stack[-1]
        v = top[1]
        sigma[i] = v
        numbered[v] = True
        before = prv[v]
        if before >= 0:
            nxt[before] = -1
            top[1] = before
        else:
            stack.pop()
        wprime = []
        for w in adj[v]:
            if not numbered[w]:
                part = part_of[w]
                if part is not top:
                    return LbfsReject(pivot=v, set_index=part[2], neighbor=w)
                wprime.append(w)
        if not wprime:
            continue
        if len(wprime) > 1:
            wprime.sort(key=lambda u: (deg[u], u))
        for w in wprime:
            a, b = prv[w], nxt[w]
            if a >= 0:
                nxt[a] = b
            else:
                top[0] = b
            if b >= 0:
                prv[b] = a
            else:
                top[1] = a
        if top[0] < 0:
            stack.pop()
        first, last = wprime[0], wprime[-1]
        prv[first] = -1
        nxt[last] = -1
        for a, b in zip(wprime, wprime[1:]):
            nxt[a] = b
            prv[b] = a
        new_part = [first, last, len(stack)]
        for w in wprime:
            part_of[w] = new_part
            parent[w] = v
        stack.append(new_part)

    return LbfsAccept(ordering=Ordering.from_sigma(sigma),
                      etree=EliminationTree.from_parent(parent))


def _higher_neighborhoods(pattern: SparsityPattern, ordering: Ordering):
    if ordering.n != pattern.n:
        raise OrderingError(
            f"ordering on {ordering.n} vertices, pattern has {pattern.n}")
    pos = ordering.sigma_inv
    return [
        frozenset(w for w in pattern.adjacency[v] if pos[w] > pos[v])
        for v in range(pattern.n)
    ]


def verify_ordering(pattern: SparsityPattern, ordering: Ordering) -> OrderingClass:
    """Classify an ordering of the pattern.

    PEO means every higher neighborhood induces a clique; trivially perfect
    additionally requires adj+(u) = {p(u)} | adj+(p(u)) for every non-root,
    which is what makes inverse Cholesky factors fill-free.
    """
    pos = ordering.sigma_inv
    adjp = _higher_neighborhoods(pattern, ordering)
    parent = [min(a, key=lambda w: pos[w]) if a else v
              for v, a in enumerate(adjp)]
    for v in range(pattern.n):
        if adjp[v] and not (adjp[v] - {parent[v]}) <= adjp[parent[v]]:
            return OrderingClass.NOT_PEO
    for v in range(pattern.n):
        if adjp[v] and adjp[v] != adjp[parent[v]] | {parent[v]}:
            return OrderingClass.PEO
    return OrderingClass.TRIVIALLY_PERFECT_PEO


def edges_and_parents(pattern: SparsityPattern, ordering: Ordering):
    """Every edge once, as vertex arrays (u, w) with u < w, and the parent
    of each position: the position of its lowest-position higher
    neighbour, or itself at a root."""
    n = pattern.n
    if ordering.n != n:
        raise OrderingError(f"ordering on {ordering.n} vertices, pattern has {n}")
    pos = np.asarray(ordering.sigma_inv, dtype=np.int64)
    deg = np.fromiter(map(len, pattern.adjacency), np.int64, n)
    u = np.repeat(np.arange(n), deg)
    w = np.fromiter(itertools.chain.from_iterable(pattern.adjacency), np.int64, len(u))
    u, w = u[u < w], w[u < w]
    par = np.full(n, n)
    np.minimum.at(par, np.minimum(pos[u], pos[w]), np.maximum(pos[u], pos[w]))
    return u, w, np.where(par == n, np.arange(n), par)


def build_etree(pattern: SparsityPattern, ordering: Ordering,
                check: bool = False) -> EliminationTree:
    """Parent of v is its first higher neighbor (v itself at a root).

    The caller is responsible for ``ordering`` being at least a PEO;
    pass ``check=True`` to verify.
    """
    if check and verify_ordering(pattern, ordering) is OrderingClass.NOT_PEO:
        raise OrderingError("ordering is not a perfect elimination ordering")
    par = edges_and_parents(pattern, ordering)[2]
    sig = np.asarray(ordering.sigma, dtype=np.int64)
    return EliminationTree.from_parent(sig[par[list(ordering.sigma_inv)]].tolist())


def is_postordering(etree: EliminationTree, ordering: Ordering) -> bool:
    """True when every subtree occupies the consecutive positions directly
    below its root's position."""
    pos = ordering.sigma_inv
    size = etree.subtree_sizes()
    low = [pos[v] for v in range(etree.n)]
    for v in etree._reverse_topological()[::-1]:
        p = etree.parent[v]
        if p != v:
            low[p] = min(low[p], low[v])
    return all(low[v] == pos[v] - size[v] + 1 for v in range(etree.n))


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
    n = pattern.n
    pos = ordering.sigma_inv
    is_rep = [len(etree.children[v]) != 1 for v in range(n)]
    reps = sorted((v for v in range(n) if is_rep[v]), key=lambda v: pos[v])
    snode_id = {r: k for k, r in enumerate(reps)}
    member_of = [-1] * n
    members = []
    for k, r in enumerate(reps):
        group = [r]
        w = etree.parent[r]
        while w != group[-1] and not is_rep[w]:
            group.append(w)
            w = etree.parent[w]
        for v in group:
            member_of[v] = k
        members.append(tuple(group))
    snode_parent = []
    for k, r in enumerate(reps):
        top = members[k][-1]
        p = etree.parent[top]
        snode_parent.append(k if p == top else snode_id[p])
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

    @property
    def fill_edges(self) -> int:
        return self.extended.n_edges


def _minimum_degree(pattern: SparsityPattern):
    """Elimination-graph minimum degree ordering with the fill recorded
    through the resulting parent function.  Ties break on vertex index."""
    n = pattern.n
    live: list[set] = [set(a) for a in pattern.adjacency]
    eliminated = [False] * n
    sigma = []
    higher: list[set] = [set() for _ in range(n)]
    remaining = set(range(n))
    for _ in range(n):
        v = min(remaining, key=lambda u: (len(live[u]), u))
        remaining.discard(v)
        sigma.append(v)
        eliminated[v] = True
        nbrs = live[v]
        higher[v] = set(nbrs)
        for w in nbrs:
            live[w].discard(v)
        nb = list(nbrs)
        for a_i, a in enumerate(nb):
            for b in nb[a_i + 1:]:
                if b not in live[a]:
                    live[a].add(b)
                    live[b].add(a)
    pos = {v: q for q, v in enumerate(sigma)}
    parent = [min(higher[v], key=lambda w: pos[w]) if higher[v] else v
              for v in range(n)]
    return parent


def _postorder(etree: EliminationTree) -> list:
    """Postorder with children visited in ascending vertex index."""
    out = []
    for r in sorted(etree.roots):
        stack = [(r, iter(sorted(etree.children[r])))]
        while stack:
            v, it = stack[-1]
            child = next(it, None)
            if child is None:
                out.append(v)
                stack.pop()
            else:
                stack.append((child, iter(sorted(etree.children[child]))))
    return out


def _comparability_adjacency(parent: Sequence[int]) -> list:
    """Neighbor lists of the comparability graph of a rooted forest:
    every vertex is adjacent to all of its ancestors."""
    n = len(parent)
    adj: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        w = parent[v]
        prev = v
        while w != prev:
            adj[v].append(w)
            adj[w].append(v)
            prev, w = w, parent[w]
    return [sorted(a) for a in adj]


def homogeneous_extension(pattern: SparsityPattern) -> Extension:
    """Smallest-effort homogeneous chordal extension of an arbitrary pattern.

    Patterns that already pass recognition are returned unchanged.  Others
    get a minimum-degree fill-reducing ordering, a symbolic factorization of
    that ordering, and the ancestor closure of the filled elimination tree
    (the comparability graph of that tree), which is trivially perfect by
    construction.  The returned ordering is a postordering of the tree.
    Heuristic only: minimizing added edges is NP-hard.
    """
    res = lbfs_order(pattern)
    if res.accepted:
        return Extension(pattern, res.ordering, res.etree)
    parent = _minimum_degree(pattern)
    etree = EliminationTree.from_parent(parent)
    sigma = _postorder(etree)
    adj = _comparability_adjacency(parent)
    extended = SparsityPattern.from_adjacency(pattern.n, adj, validate=False)
    return Extension(extended, Ordering.from_sigma(sigma), etree)


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
    adj = _comparability_adjacency(parent)
    pat = SparsityPattern.from_adjacency(n, adj, validate=False)
    return GeneratedPattern(pat, Ordering.identity(n),
                            EliminationTree.from_parent(parent))
