"""Independent dense oracles for tests and acceptance.

Everything here recomputes results the slow, obvious way on full dense
arrays (LAPACK via numpy), and deliberately shares no helper with the
production kernels beyond raw storage access.  Dense symmetric matrices
are plain float ndarrays validated by :func:`as_dense_sym`.

Not part of the public performance surface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotCompletable, NotPositiveDefinite, PatternError, StructuralError
from .matrix import Structure, SymSparse, to_dense
from .pattern import SparsityPattern

__all__ = [
    "as_dense_sym",
    "dense_chol",
    "dense_inverse",
    "dense_logdet",
    "dense_completable",
    "dense_max_step",
    "dense_maxdet_completion",
    "dense_scaling_point",
    "ForbiddenWitness",
    "find_forbidden_subgraph",
    "has_forbidden_subgraph",
]


def as_dense_sym(a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Validate symmetry to tolerance and return the symmetrized array."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    if float(np.max(np.abs(a - a.T))) > tol * scale:
        raise StructuralError("matrix is not symmetric within tolerance")
    return 0.5 * (a + a.T)


def dense_chol(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(as_dense_sym(a))
    except np.linalg.LinAlgError as e:
        raise NotPositiveDefinite(node=-1) from e


def dense_inverse(a: np.ndarray) -> np.ndarray:
    return np.linalg.inv(as_dense_sym(a))


def dense_logdet(a: np.ndarray) -> float:
    sign, val = np.linalg.slogdet(as_dense_sym(a))
    if sign <= 0:
        raise NotPositiveDefinite(node=-1)
    return float(val)


def _pattern_mask(struct: Structure) -> np.ndarray:
    mask = np.zeros((struct.n, struct.n), dtype=bool)
    mask[struct._row_vertex, struct._col_vertex] = True
    mask[struct._col_vertex, struct._row_vertex] = True
    return mask


def dense_completable(s: SymSparse, shift: float = 0.0) -> bool:
    """Eigenvalue test on the fully specified principal blocks: a matrix on
    a chordal pattern has a positive definite completion exactly when every
    block indexed by a column's closed ancestor set is positive definite."""
    st = s.struct
    d = to_dense(s)
    sigma = st.ordering.sigma
    for q in range(st.n):
        idx = [sigma[p] for p in st.bar_rows[st.col(q)]]
        block = d[np.ix_(idx, idx)]
        if np.min(np.linalg.eigvalsh(block)) <= shift:
            return False
    return True


def dense_max_step(x: SymSparse, d_x: SymSparse, s: SymSparse, d_s: SymSparse) -> float:
    """Largest a in [0, 1] with x + a d_x positive definite and s + a d_s
    completable: 1 / max(1, -lambda_min(A^-1/2 D A^-1/2)) over A = x and
    each column's closed ancestor block of s, D the same of d_x or d_s."""
    st = s.struct
    pairs = [(to_dense(x), to_dense(d_x))]
    for q in range(st.n):
        idx = np.ix_(*2 * [[st.ordering.sigma[p] for p in st.bar_rows[st.col(q)]]])
        pairs.append((to_dense(s)[idx], to_dense(d_s)[idx]))
    t = [1.0]
    for a, d in pairs:
        w, v = np.linalg.eigh(as_dense_sym(a))
        h = v / np.sqrt(w) @ v.T
        t.append(-np.linalg.eigvalsh(h @ as_dense_sym(d) @ h)[0])
    return 1.0 / max(t)


def dense_maxdet_completion(s: SymSparse, tol: float = 1e-10,
                            max_iter: int = 200) -> np.ndarray:
    """Maximum-determinant positive definite completion by Newton over the
    free (non-pattern) entries: maximize ln det Y subject to the pattern
    entries of Y being fixed to s.  At the optimum the inverse vanishes on
    every free position.

    Starts from the zero-fill completion; instances whose zero-fill is not
    positive definite are outside this oracle's reach and raise.
    """
    st = s.struct
    n = st.n
    mask = _pattern_mask(st)
    free = [(i, j) for i in range(n) for j in range(i + 1, n) if not mask[i, j]]
    y = to_dense(s)
    try:
        np.linalg.cholesky(y)
    except np.linalg.LinAlgError as e:
        if not dense_completable(s):
            raise NotCompletable(node=-1) from e
        raise StructuralError(
            "completable instance, but the zero-fill start is not positive "
            "definite; dense oracle cannot initialize") from e
    if not free:
        return y
    k = len(free)
    rows = np.array([p[0] for p in free])
    cols = np.array([p[1] for p in free])
    for _ in range(max_iter):
        p = np.linalg.inv(y)
        g = 2.0 * p[rows, cols]
        if float(np.max(np.abs(g))) <= 2.0 * tol:
            break
        # H[k,l] = d g_k / d z_l with basis E_cd + E_dc on free slots:
        # -2 (P[i_k,i_l] P[j_k,j_l] + P[i_k,j_l] P[j_k,i_l]).
        h = -2.0 * (p[np.ix_(rows, rows)] * p[np.ix_(cols, cols)]
                    + p[np.ix_(rows, cols)] * p[np.ix_(cols, rows)])
        dz = np.linalg.solve(h, -g)
        dy = np.zeros((n, n))
        dy[rows, cols] = dz
        dy[cols, rows] = dz
        t = 1.0
        base = dense_logdet(y)
        while t > 1e-14:
            cand = y + t * dy
            try:
                np.linalg.cholesky(cand)
            except np.linalg.LinAlgError:
                t *= 0.5
                continue
            if dense_logdet(cand) >= base - 1e-14:
                break
            t *= 0.5
        y = y + t * dy
    else:
        raise StructuralError("dense completion Newton did not converge")
    return y


def dense_scaling_point(x: SymSparse, s: SymSparse, tol: float = 1e-9,
                        max_iter: int = 200) -> np.ndarray:
    """Primal-dual scaling point by a damped Newton iteration independent of
    the production path: pattern-projected dense algebra only, Hessian
    assembled column by column with full matrix products.

    Returns the dense matrix (supported on the pattern) W at which the
    barrier Hessian maps x to s.
    """
    st = x.struct
    n = st.n
    mask = _pattern_mask(st)
    xd = to_dense(x)
    sd = to_dense(s)
    pairs = [(i, j) for i in range(n) for j in range(i, n) if mask[i, j]]
    mu = float(np.trace(sd @ xd)) / n
    w = xd / np.sqrt(mu)
    s_scale = float(np.linalg.norm(sd))
    for _ in range(max_iter):
        p = np.linalg.inv(w)
        grad = sd - (p @ xd @ p) * mask
        if float(np.linalg.norm(grad)) <= tol * s_scale:
            return w
        q = p @ xd @ p
        hcols = []
        for (i, j) in pairs:
            b = np.zeros((n, n))
            b[i, j] = b[j, i] = 1.0
            col = (q @ b @ p + p @ b @ q) * mask
            hcols.append(col[tuple(zip(*pairs))])
        h = np.array(hcols).T
        rhs = -grad[tuple(zip(*pairs))]
        dz = np.linalg.solve(h, rhs)
        dw = np.zeros((n, n))
        for (i, j), v in zip(pairs, dz):
            dw[i, j] = dw[j, i] = v
        t = 1.0
        phi0 = float(np.trace(p @ xd) + np.trace(sd @ w))
        slope = float(np.sum(grad * dw))
        while t > 1e-14:
            cand = w + t * dw
            try:
                np.linalg.cholesky(cand)
            except np.linalg.LinAlgError:
                t *= 0.5
                continue
            phi = float(np.trace(np.linalg.inv(cand) @ xd) + np.trace(sd @ cand))
            if phi <= phi0 + 1e-4 * t * slope or phi <= phi0 + 1e-14 * abs(phi0):
                break
            t *= 0.5
        w = w + t * dw
    raise StructuralError("dense scaling-point Newton did not converge")


@dataclass(frozen=True)
class ForbiddenWitness:
    kind: str          # "P4" or "C4"
    vertices: tuple    # path or cycle sequence, 0-based


def _classify_quad(sub_adj):
    """Classify the induced graph on four vertices given 4x4 adjacency
    booleans; return a canonical local witness sequence or None."""
    deg = [sum(row) for row in sub_adj]
    m = sum(deg) // 2
    if m == 4 and max(deg) == 2:
        a = 0
        nbrs = [v for v in range(4) if sub_adj[a][v]]
        opp = next(v for v in range(4) if v != a and v not in nbrs)
        u, w = sorted(nbrs)
        return "C4", (a, u, opp, w)
    if m == 3 and sorted(deg) == [1, 1, 2, 2]:
        ends = [v for v in range(4) if deg[v] == 1]
        seqs = []
        for start in ends:
            seq = [start]
            prev = -1
            while len(seq) < 4:
                nxt = next(v for v in range(4)
                           if sub_adj[seq[-1]][v] and v != prev)
                prev = seq[-1]
                seq.append(nxt)
            seqs.append(tuple(seq))
        return "P4", min(seqs)
    return None


def find_forbidden_subgraph(pattern: SparsityPattern) -> Optional[ForbiddenWitness]:
    """Exhaustive scan over 4-subsets for an induced path or 4-cycle.

    Returns the witness from the lexicographically first subset containing
    one (path/cycle reported in its smaller traversal), or None when the
    pattern is homogeneous chordal.  Capped at 64 vertices.
    """
    n = pattern.n
    if n > 64:
        raise PatternError("forbidden-subgraph scan is capped at 64 vertices")
    rows = [0] * n
    for v, nbrs in enumerate(pattern.adjacency):
        for w in nbrs:
            rows[v] |= 1 << w
    for quad in itertools.combinations(range(n), 4):
        sub = [[bool(rows[a] >> b & 1) for b in quad] for a in quad]
        hit = _classify_quad(sub)
        if hit is not None:
            kind, local = hit
            return ForbiddenWitness(kind, tuple(quad[t] for t in local))
    return None


def _bits(m: int):
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def has_forbidden_subgraph(pattern: SparsityPattern) -> bool:
    """Fast exact test for an induced P4 or C4, scanning all placements
    anchored on edges (P4 middle edge) and non-adjacent pairs (C4 diagonal)
    with bitset rows.  Equivalent to find_forbidden_subgraph presence, with
    no witness and no size cap."""
    n = pattern.n
    rows = [0] * n
    for v, nbrs in enumerate(pattern.adjacency):
        for w in nbrs:
            rows[v] |= 1 << w
    for b in range(n):
        rb = rows[b]
        for c in _bits(rb):
            if c < b:
                continue
            xs = rb & ~rows[c] & ~(1 << c)
            ys = rows[c] & ~rb & ~(1 << b)
            if xs and ys:
                for a in _bits(xs):
                    if ys & ~rows[a]:
                        return True
    full = (1 << n) - 1
    for a in range(n):
        non = full & ~rows[a] & ~((1 << (a + 1)) - 1)
        for c in _bits(non):
            common = rows[a] & rows[c]
            for b in _bits(common):
                if common & ~rows[b] & ~(1 << b):
                    return True
    return False
