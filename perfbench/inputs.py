"""Benchmark-owned inputs: random rooted forests, their comparability
patterns, and conic problems with a known interior primal-dual pair.

Everything here depends on numpy and the seeds alone, so a change to the
program cannot change the inputs it is measured on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Forest:
    """Rooted forest on 0..n-1 in which every parent has a larger index
    than its children, so the natural order is a trivially perfect
    elimination ordering of the forest's comparability pattern."""

    parent: tuple
    depth: tuple

    @property
    def n(self) -> int:
        return len(self.parent)

    @property
    def depth2(self) -> int:
        """Sum of (depth + 1)^2: the arithmetic of one kernel sweep up to a
        constant, since a node's frontal block has side depth + 1."""
        return sum((d + 1) ** 2 for d in self.depth)

    def ancestor_pairs(self):
        """(v, a) for every vertex v and each of its proper ancestors a."""
        out = []
        for v, p in enumerate(self.parent):
            w = v
            while p != w:
                out.append((v, p))
                w, p = p, self.parent[p]
        return out


def random_forest(n: int, branching: float, rng: np.random.Generator) -> Forest:
    """Split an index range into sibling subtrees whose roots are their
    last index; each range has 1 + Poisson(branching - 1) subtrees.  A
    branching near 1 gives long chains, a larger one shallow bushy trees."""
    parent = list(range(n))
    ranges = [(0, n, -1)]  # [lo, hi) covered by subtrees hanging off par
    while ranges:
        lo, hi, par = ranges.pop()
        size = hi - lo
        k = min(size, 1 + int(rng.poisson(max(branching - 1.0, 0.0))))
        cuts = np.sort(rng.choice(size - 1, size=k - 1, replace=False)) + 1 \
            if k > 1 else ()
        bounds = [lo, *(lo + int(c) for c in cuts), hi]
        for a, b in zip(bounds[:-1], bounds[1:]):
            root = b - 1
            if par >= 0:
                parent[root] = par
            if root > a:
                ranges.append((a, root, root))
    depth = [0] * n
    for v in range(n - 1, -1, -1):
        if parent[v] != v:
            depth[v] = depth[parent[v]] + 1
    return Forest(tuple(parent), tuple(depth))


def labelled_edges(forest: Forest, label: np.ndarray) -> list:
    """1-based edge list [i, j], i < j, of the comparability pattern with
    generator vertex v renamed to label[v]."""
    out = []
    for v, a in forest.ancestor_pairs():
        i, j = int(label[v]), int(label[a])
        out.append([min(i, j) + 1, max(i, j) + 1])
    out.sort()
    return out


def _pattern_mask(forest: Forest) -> np.ndarray:
    """Dense boolean pattern, diagonal included."""
    mask = np.eye(forest.n, dtype=bool)
    for v, a in forest.ancestor_pairs():
        mask[v, a] = mask[a, v] = True
    return mask


def _interior(mask: np.ndarray, rng) -> np.ndarray:
    """L L^T for a random factor supported on the pattern (row = ancestor):
    positive definite, and on the pattern because ancestors of a common
    descendant are comparable."""
    n = mask.shape[0]
    low = np.triu(mask, 1) * 0.3 * rng.standard_normal((n, n))
    low = low.T + np.diag(rng.uniform(0.8, 1.6, n))
    return low @ low.T


_SCHEMA = Path("src", "homcone", "schemas", "problem.schema.json")


@dataclass(frozen=True)
class Instance:
    """A conic problem as problem-file JSON plus what a checker needs.
    Dense arrays use 0-based file labels.  x_feas and (y_feas, s_feas) are
    strictly feasible, so the optimum lies in [dual_bound, primal_bound]."""

    name: str
    forest: Forest
    text: str
    mask: np.ndarray
    a_dense: np.ndarray    # (m, n, n)
    b: np.ndarray
    c_dense: np.ndarray
    primal_bound: float    # <c, x_feas>
    dual_bound: float      # b^T y_feas


def _triplets(dense: np.ndarray, mask: np.ndarray) -> list:
    i, j = np.nonzero(np.tril(mask))
    return [[int(r) + 1, int(c) + 1, float(dense[r, c])] for r, c in zip(i, j)]


def random_instance(n: int, m: int, branching: float, seed: int,
                    root: Path) -> Instance:
    """Conic problem with m constraints on a random n-vertex pattern whose
    vertex labels are shuffled, so recognition has real work to do.
    ``seed`` draws everything.  The document is validated against the
    repository's problem schema before it is returned."""
    import jsonschema

    rng = np.random.default_rng(seed)
    forest = random_forest(n, branching, rng)
    base = _pattern_mask(forest)
    x_feas = _interior(base, rng)
    s_feas = _interior(base, rng)
    y_feas = rng.standard_normal(m)
    a_base = np.empty((m, n, n))
    for k in range(m):
        g = rng.standard_normal((n, n))
        a_base[k] = np.where(base, np.tril(g) + np.tril(g, -1).T, 0.0)
    label = rng.permutation(n)                  # generator vertex -> file label
    inv = np.argsort(label)
    mask = base[np.ix_(inv, inv)]
    x_feas, s_feas = x_feas[np.ix_(inv, inv)], s_feas[np.ix_(inv, inv)]
    a_dense = a_base[:, inv][:, :, inv]
    b = np.einsum("kij,ij->k", a_dense, x_feas)
    c_dense = s_feas + np.einsum("k,kij->ij", y_feas, a_dense)
    doc = {
        "n": n,
        "edges": labelled_edges(forest, label),
        "b": [float(t) for t in b],
        "c": _triplets(c_dense, mask),
        "A": [_triplets(a, mask) for a in a_dense],
    }
    schema = json.loads((root / _SCHEMA).read_text())
    jsonschema.validate(doc, schema)
    return Instance(
        name=f"n{n}-m{m}-b{branching:g}", forest=forest, text=json.dumps(doc),
        mask=mask, a_dense=a_dense, b=b, c_dense=c_dense,
        primal_bound=float(np.sum(c_dense * x_feas)),
        dual_bound=float(b @ y_feas))
