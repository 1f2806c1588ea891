"""Shared instance generators for the test suite.

Interior points of the sparse PSD cone come from triangular products of
random pattern-restricted factors; interior completable points come from
projections of dense positive definite matrices, boosted until their
zero-fill extension stays positive definite so the dense completion oracle
can start.
"""

import contextlib
import hashlib
import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from homcone import ipm, matrix, scaling
from homcone.errors import NotCompletable, NotPositiveDefinite
from homcone.factor import (CholFactor, adjoint_map, cholesky, dual_gradient, forward_map,
                            hess_apply, inverse_adjoint_map, inverse_forward_map, maxdet_factor,
                            projected_inverse)
from homcone.matrix import (
    LowerSparse,
    Structure,
    SymSparse,
    _chain_sweep,
    inner,
    norm,
    project,
    to_dense,
    tri_inverse,
    tri_mul,
)
from homcone.pattern import Ordering, SparsityPattern, random_homogeneous_pattern

ROOT = Path(__file__).resolve().parents[1]


def random_structure(n, seed, branching=3.0):
    gen = random_homogeneous_pattern(n, seed, branching)
    return Structure(gen.pattern, gen.ordering, gen.etree)


def forest_structure(parent):
    """Structure on the comparability graph of a rooted forest with
    parent[v] > v (parent[v] == v at a root), in the identity ordering, so
    positions are vertex labels and lower triangles stay triangular."""
    edges = []
    for v in range(len(parent)):
        a = v
        while parent[a] != a:
            a = parent[a]
            edges.append((v, a))
    return Structure(SparsityPattern(len(parent), edges), Ordering.identity(len(parent)))


@contextlib.contextmanager
def sweep_only():
    """Structures compiled inside are never one dense block
    (``matrix.DENSE_NODES`` is 0), so every kernel sweeps their schedule."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "DENSE_NODES", 0)
        yield


def swept(st):
    """``st`` compiled with admission off: its kernels sweep."""
    with sweep_only():
        ref = Structure(st.pattern, st.ordering)
    assert ref.dense is None
    return ref


def level_schedule(st):
    """``st`` compiled with admission off and a batch cap no chain
    reaches, so it has no chain block: every batch a level batch of
    one-column supernodes, each given the bits of its own step however the
    levels are cut, and within 1e-12 of a node-by-node sweep, not bitwise
    (test_schedule.py)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "BATCH_FLOATS", 1 << 62)
        ref = swept(st)
    assert not any(b.chain is not None for b in ref.batches)
    return ref


def perfbench_module(name):
    """The benchmark's module ``perfbench.<name>``, imported from the
    checkout's root."""
    sys.path.insert(0, str(ROOT))
    try:
        return importlib.import_module(f"perfbench.{name}")
    finally:
        sys.path.remove(str(ROOT))


def benchmark_structures():
    """(workload, structure) for every structure the benchmark sweeps:
    each workload's conic instances and its sweep patterns."""
    wl = perfbench_module("workloads")
    for w in wl.WORKLOADS.values():
        problems, structs = wl.set_up(wl.make_inputs(w, ROOT), lambda: None)
        yield from ((w.name, p.struct) for p in problems)
        yield from ((w.name, st) for st in structs)


def _canonical(x):
    """A nested value as plain text: arrays by dtype, shape and a hash of
    their bytes, slices and arrays told apart."""
    if isinstance(x, np.ndarray):
        data = hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()
        return f"array({x.dtype.str},{x.shape},{data})"
    if isinstance(x, slice):
        return f"slice({x.start},{x.stop},{x.step})"
    if isinstance(x, (tuple, list)):
        return type(x).__name__ + "(" + ",".join(map(_canonical, x)) + ")"
    if x is Ellipsis or x is None or isinstance(x, (bool, str)):
        return repr(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    raise TypeError(f"no canonical form for {type(x).__name__}")


def structure_digest(st):
    """SHA-256 of every table a Structure compiles, as two digests.  The
    schedule: the column layout, each batch's nodes, shape and place in
    the batch tree (slices kept apart from arrays), the stack sizes, and
    the floats of a sweep's frontal blocks, which the digests were
    recorded with when the structure kept them as ``sweep_floats``.  The
    slot layout the steps gather and store through: each batch's ``k``,
    ``cols`` and ``chain``.  ``Batch.last`` is left out: it follows from
    the batch ids (test_schedule.py checks it)."""
    batch = [(b.id, b.nodes, b.shape, b.parent, b.up, b.children, b.kids)
             for b in st.batches]
    tables = (st.n, st.nnz, st.height, st.bar_ptr, st.bar_rows, st.weights, st.depth,
              st.pos_parent, batch, st.stack_rows,
              sum(math.prod(b.shape) for b in st.batches))
    layout = [(b.k, b.cols, b.chain) for b in st.batches]
    return tuple(hashlib.sha256(_canonical(t).encode()).hexdigest() for t in (tables, layout))


def forest_digest(pattern, ordering, etree):
    """SHA-256 of a pattern made from a forest, with its ordering and that
    forest: the degree and neighbour arrays, sigma and the parents."""
    tables = (pattern.n, pattern.degrees, pattern.neighbours, ordering.sigma, etree.parent)
    return hashlib.sha256(_canonical(tables).encode()).hexdigest()


def random_lower(struct, rng, diag_lo=0.6, diag_hi=1.6, off_scale=0.3):
    v = off_scale * rng.standard_normal(struct.dim)
    v[struct.bar_ptr[:-1]] = rng.uniform(diag_lo, diag_hi, struct.n)
    return LowerSparse(struct, v)


def random_sym(struct, rng, scale=1.0):
    return SymSparse(struct, scale * rng.standard_normal(struct.dim))


def random_spd(struct, rng):
    """Interior point of K as a dense product of a random sparse factor."""
    ld = to_dense(random_lower(struct, rng))
    return project(ld @ ld.T, struct)


def random_completable(struct, rng, zero_fill_pd=True):
    """Interior point of the completable cone.  With zero_fill_pd, keep
    boosting the diagonal until the zero-fill completion is itself positive
    definite (what the dense completion oracle needs to initialize)."""
    n = struct.n
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    y = a @ a.T + 0.2 * np.eye(n)
    s = project(y, struct)
    if zero_fill_pd:
        boost = 0.0
        while True:
            try:
                np.linalg.cholesky(to_dense(s) + boost * np.eye(n))
                break
            except np.linalg.LinAlgError:
                boost = 0.1 if boost == 0.0 else 2.0 * boost
        if boost:
            v = s.vals.copy()
            v[struct.bar_ptr[:-1]] += boost
            s = SymSparse(struct, v)
    return s


def random_interior_pair(struct, rng):
    return random_spd(struct, rng), random_completable(struct, rng)


def random_feasible_problem(struct, m, rng):
    """Conic program with a known interior primal-dual pair, so the optimum
    is bracketed by the certified objectives (weak duality)."""
    from homcone.ipm import ConicProblem

    x_feas = random_spd(struct, rng)
    s_feas = random_completable(struct, rng, zero_fill_pd=False)
    y_feas = rng.standard_normal(m)
    a = rng.standard_normal((m, struct.dim))
    b = np.vecdot(a * struct.weights, x_feas.vals)
    # c = s_feas + y_0 A_0 + y_1 A_1 + ..., added in that order
    c = SymSparse(struct, np.vstack([s_feas.vals, y_feas[:, None] * a]).sum(axis=0))
    problem = ConicProblem(struct, a, b, c)
    return problem, x_feas, y_feas, s_feas


#: bisection steps of the reference step search
BISECT_DEPTH = 40


def sequential_max_step(it, d_x, d_s, eta):
    """Reference step search, one probe at a time: the full step, then
    bisection of [0, 1] with one cholesky and (if that succeeds) one
    maxdet_factor per probe, until the bracket is 1e-12 wide or
    BISECT_DEPTH steps are done; eta times the last step that passed."""
    def interior(a):
        try:
            cholesky(it.x + a * d_x)
            maxdet_factor(it.s + a * d_s)
            return True
        except (NotPositiveDefinite, NotCompletable):
            return False

    if interior(1.0):
        return eta
    lo, hi = 0.0, 1.0
    for _ in range(BISECT_DEPTH):
        mid = 0.5 * (lo + hi)
        if interior(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return eta * lo


def is_induced_witness(pattern, kind, quad):
    """True when the four vertices of ``quad`` induce the path (kind "P4")
    or cycle (kind "C4") they are listed along."""
    a, b, c, d = quad
    edge = pattern.has_edge
    return (len(set(quad)) == 4 and edge(a, b) and edge(b, c) and edge(c, d)
            and not edge(a, c) and not edge(b, d) and edge(a, d) == (kind == "C4"))


def scan_minimum_degree(pattern):
    """Reference minimum-degree elimination that picks each pivot by
    scanning every remaining vertex for the least (degree, index); returns
    each vertex's first-eliminated higher neighbor (itself at a root)."""
    n = pattern.n
    live = [set(a) for a in pattern.adjacency]
    sigma = []
    higher = [set() for _ in range(n)]
    remaining = set(range(n))
    for _ in range(n):
        v = min(remaining, key=lambda u: (len(live[u]), u))
        remaining.discard(v)
        sigma.append(v)
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
    return [min(higher[v], key=lambda w: pos[w]) if higher[v] else v
            for v in range(n)]


def ix_newton_system(struct, w_dense, x_dense):
    """Reference scaling-point Newton matrix gathered by np.ix_, one
    gather per factor of each of the four terms."""
    p = np.linalg.inv(w_dense)
    q = p @ x_dense @ p
    r = struct._row_vertex
    c = struct._col_vertex
    t1 = q[np.ix_(r, r)] * p[np.ix_(c, c)].T
    t2 = q[np.ix_(r, c)] * p[np.ix_(r, c)].T
    t3 = p[np.ix_(r, r)] * q[np.ix_(c, c)].T
    t4 = p[np.ix_(r, c)] * q[np.ix_(r, c)].T
    half = np.where(r == c, 0.5, 1.0)
    return struct.weights[:, None] * (t1 + t2 + t3 + t4) * half[None, :]


def well_conditioned_lower(st, rng):
    """A factor with unit-scale diagonal and subdiagonal entries shrinking
    with the column's depth, so that solves along long chains stay
    accurate."""
    depth = np.asarray(st.depth, dtype=float)
    lv = 0.3 * rng.standard_normal(st.dim) / np.sqrt(np.repeat(depth, depth.astype(int) + 1) + 1.0)
    lv[st.bar_ptr[:-1]] = rng.uniform(1.0, 2.0, st.n)
    return lv


def ten_kernels(st, lv, lv2, xv, zv, sv):
    """The ten kernels on ``st``, each on the same value arrays."""
    ell, x, z, s = LowerSparse(st, lv), SymSparse(st, xv), SymSparse(st, zv), SymSparse(st, sv)
    return {
        "cholesky": cholesky(x).L.vals,
        "forward_map": forward_map(ell, z).vals,
        "adjoint_map": adjoint_map(ell, z).vals,
        "inverse_forward_map": inverse_forward_map(ell, z).vals,
        "inverse_adjoint_map": inverse_adjoint_map(ell, z).vals,
        "projected_inverse": projected_inverse(CholFactor(ell)).vals,
        "maxdet_factor": maxdet_factor(s).L.vals,
        "dual_gradient": dual_gradient(CholFactor(ell)).vals,
        "tri_mul": tri_mul(ell, LowerSparse(st, lv2)).vals,
        "tri_inverse": tri_inverse(ell).vals,
    }


def kernel_inputs(ref, rng):
    """Two factors, X = L L^T, a symmetric Z and a completable S, all made
    on the level schedule."""
    lv, lv2 = well_conditioned_lower(ref, rng), well_conditioned_lower(ref, rng)
    xv = dual_gradient(CholFactor(LowerSparse(ref, lv))).vals
    sv = projected_inverse(cholesky(SymSparse(ref, xv))).vals
    return lv, lv2, xv, rng.standard_normal(ref.dim), sv


def element_chain(s, lv, x, kind):
    """Reference chain product and substitution, L or L^-1 restricted to
    each column's chain (the column, then its ancestors) times x's column,
    gathering and scattering every chain slot through its own index: step
    a indexes the last a+1 slots of each column reaching depth a element
    by element, Sigma depth^2 / 2 index entries per call.  The columns of
    a step come from ``depth`` and ``bar_ptr`` alone."""
    def take(v, ix):
        return v[ix] if v.ndim == 1 else np.take(v, ix, axis=-1)

    def put(v, ix, val):
        v[..., ix] = val

    depth = np.asarray(s.depth)
    y = np.zeros_like(x) if kind == "mul" else x.copy()
    for a in range(int(depth.max()), -1, -1):
        at = s.bar_ptr[np.flatnonzero(depth >= a) + 1] - 1 - a
        tail = at[:, None] + np.arange(a + 1)
        col = lv[s.bar_ptr[s.bar_rows[at]][:, None] + np.arange(a + 1)]
        if kind == "mul":
            acc = take(y, tail)
            acc += take(x, at)[..., None] * col
            put(y, tail, acc)
        else:
            put(y, at, take(y, at) / col[:, 0])
            put(y, tail[:, 1:], take(y, tail[:, 1:]) - take(y, at)[..., None] * col[:, 1:])
    return y


def chain_inputs(dim, rng):
    """One array, stacks of 0, 1 and 3 members, and a one-member stack
    whose row stride is not its length (numpy flags it C-contiguous)."""
    wide = np.zeros((2, dim))
    wide[0] = rng.standard_normal(dim)
    yield rng.standard_normal(dim)
    for m in (0, 1, 3):
        yield rng.standard_normal((m, dim))
    yield wide[::2]


def check_chain(st, rng):
    """``_chain_sweep`` with L and with L^-1 (``tri_inverse``), on one
    array and on stacks of any layout, against element_chain's product
    and substitution within 1e-12 relative (a frontal block sums in
    another order than the walk along one chain), writing no input."""
    ell = random_lower(st, rng, 1.0, 2.0, 0.3 / np.sqrt(st.n))
    for x in chain_inputs(st.dim, rng):
        x.flags.writeable = False
        for kind, lower in (("mul", ell), ("solve", tri_inverse(ell))):
            want = element_chain(st, ell.vals, x, kind)
            got = _chain_sweep(st, lower, x)
            assert got.shape == x.shape and np.isfinite(got).all()
            err = np.abs(got - want).max(initial=0.0)
            assert err <= 1e-12 * np.abs(want).max(initial=0.0), (kind, x.shape)


def sequential_scaling_point(x, s, tol=1e-9, halvings=None):
    """Reference scaling-point search, one cholesky per line-search probe:
    the full step, then t = 1/2, 1/4, ... down to 1e-12, with the Newton
    matrix from ix_newton_system.  ``halvings``, if given, collects how
    many times each line search halved t (40 when it bottomed out).
    Returns the scaling.ScalingPoint record scaling_point returns."""
    st = x.struct
    nx, ns = norm(x), norm(s)
    xb = x / nx
    sb = s / ns
    back = float(np.sqrt(nx / ns))
    mu = inner(sb, xb) / st.n
    w = xb / float(np.sqrt(mu))
    xd = to_dense(xb)
    best_w, best_g = w, np.inf
    no_progress = 0
    f = phi0 = None
    for steps in range(scaling.NEWTON_STEPS):
        if f is None:
            f = cholesky(w)
        g = sb - hess_apply(f, xb)
        gn = norm(g)
        if gn <= tol:
            return scaling.ScalingPoint(back * w, gn, steps, None)
        if gn < 0.99 * best_g:
            no_progress = 0
        else:
            no_progress += 1
        if gn < best_g:
            best_w, best_g = w, gn
        if no_progress >= 8:
            why = "8 steps in a row made no progress"
            break
        m = ix_newton_system(st, to_dense(w), xd)
        rhs = -st.weights * g.vals
        try:
            dw = SymSparse(st, np.linalg.solve(m, rhs))
        except np.linalg.LinAlgError:
            why = "the Newton system is singular"
            break
        basin = gn <= 1e-6
        if not basin:
            if phi0 is None:
                phi0 = inner(projected_inverse(f), xb) + inner(sb, w)
            slope = inner(g, dw)
        t = 1.0
        accepted = False
        phi = None
        halved = 0
        while t > 1e-12:
            cand = w + t * dw
            try:
                fc = cholesky(cand)
            except NotPositiveDefinite:
                t *= 0.5
                halved += 1
                continue
            if basin:
                accepted = True
                break
            phi = inner(projected_inverse(fc), xb) + inner(sb, cand)
            if phi <= phi0 + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
            halved += 1
        if halvings is not None:
            halvings.append(halved)
        if not accepted:
            why = "the line search reached its numerical floor t <= 1e-12"
            break
        w, f, phi0 = cand, fc, phi
    else:
        steps, why = scaling.NEWTON_STEPS, "the step budget ran out"
    return scaling.ScalingPoint(back * best_w, best_g, steps, why)


def scaling_w(x, s, **kwargs):
    """w of a scaling_point call that meets its target; a search that
    stops short fails the calling test."""
    point = scaling.scaling_point(x, s, **kwargs)
    assert point.stop is None, point.stop
    return point.w


def scaling_bases(x, s):
    """The points w the scaling operator is built on in the tests, by
    name: the scaling point, the loose point solve() stops its search at,
    and x/sqrt(mu), where that search starts."""
    return {
        "point": scaling_w(x, s, tol=1e-12),
        "loose": scaling.scaling_point(x, s, tol=ipm.SCALING_TOL).w,
        "start": x / math.sqrt(inner(x, s) / x.struct.n),
    }


def assert_four_equations(op, state, tol):
    """The operator's four alignment equations, forward, adjoint, inverse
    and inverse-adjoint, within tol: it maps v to x and v_hat to delta_p,
    and its adjoint maps s to v and delta_d to v_hat."""
    pairs = ((op.v, state.x, state.s), (op.v_hat, state.delta_p, state.delta_d))
    for v, p, d in pairs:
        assert norm(scaling.apply_scaling(op, "forward", v) - p) <= tol
        assert norm(scaling.apply_scaling(op, "adjoint", d) - v) <= tol
        assert norm(scaling.apply_scaling(op, "inverse", p) - v) <= tol
        assert norm(scaling.apply_scaling(op, "inverse_adjoint", v) - d) <= tol


def assert_same_point(got, want):
    """Two scaling-point records agree field by field, w bit for bit."""
    assert got.w.vals.tobytes() == want.w.vals.tobytes()
    assert (got.residual, got.steps, got.stop) == (want.residual, want.steps, want.stop)


def solve_scaling_calls(seed):
    """(x, s, keyword arguments) of each scaling_point call, in order, that
    a solve of a random problem on 6-19 vertices with 1-5 constraints
    makes.  Its late calls meet iterates near the boundary, where line
    searches halve 17 times or more and some bottom out."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(6, 20)), int(rng.integers(1, 6))
    problem = random_feasible_problem(random_structure(n, seed=300 + seed), m, rng)[0]
    calls = []
    real = ipm.scaling_point

    def record(x, s, **kwargs):
        calls.append((x, s, kwargs))
        return real(x, s, **kwargs)

    ipm.scaling_point = record
    try:
        ipm.solve(problem)
    finally:
        ipm.scaling_point = real
    return calls
