"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion; any failure is a hard test failure.
"""

import gc
import itertools
import time

import numpy as np
import pytest

from homcone.densecheck import (
    dense_completable,
    dense_maxdet_completion,
    dense_scaling_point,
    has_forbidden_subgraph,
)
from homcone.errors import NotCompletable
from homcone.factor import (
    adjoint_map,
    barrier,
    cholesky,
    dual_barrier,
    dual_gradient,
    forward_map,
    hess_apply,
    inverse_adjoint_map,
    inverse_forward_map,
    maxdet_factor,
    projected_inverse,
)
from homcone.ipm import ConicProblem, Iterate, SolveStatus, SolverOptions, residuals, search_direction, solve
from homcone.matrix import (
    LowerSparse,
    Structure,
    SymSparse,
    from_triplets,
    identity,
    inner,
    norm,
    project,
    to_dense,
    tri_inverse,
    tri_mul,
)
from homcone.pattern import Ordering, SparsityPattern, lbfs_order, random_homogeneous_pattern
from homcone.scaling import apply_scaling, bfgs_update, pd_factor, shadow_state

from conftest import PAPER12_EDGES, PAPER12_PARENT, PAPER12_SIGMA
from helpers import (
    random_completable,
    random_feasible_problem,
    random_interior_pair,
    random_lower,
    random_spd,
    random_structure,
    random_sym,
    scaling_w,
    swept,
)


def _report(name, detail=""):
    print(f"\nACCEPT {name}: PASS {detail}")


# ------------------------------------------------------------- criterion 1

def test_c1_lbfs_conformance(paper12_pattern):
    """Exact recognition trace on the 12-vertex example, under 1 ms."""
    res = lbfs_order(paper12_pattern)  # warm the code path
    t0 = time.perf_counter()
    res = lbfs_order(paper12_pattern)
    elapsed = time.perf_counter() - t0
    assert res.accepted
    assert tuple(v + 1 for v in res.ordering.sigma) == PAPER12_SIGMA
    assert tuple(p + 1 for p in res.etree.parent) == PAPER12_PARENT
    assert elapsed < 1e-3
    _report("C1 LBFS conformance", f"({elapsed * 1e6:.0f} us)")


# ------------------------------------------------------------- criterion 2

def _bad6_table():
    """Which of the 64 labeled graphs on 4 vertices are P4 or C4."""
    bad = np.zeros(64, dtype=bool)
    local = list(itertools.combinations(range(4), 2))
    for code in range(64):
        deg = [0] * 4
        m = 0
        for k, (a, b) in enumerate(local):
            if code >> k & 1:
                deg[a] += 1
                deg[b] += 1
                m += 1
        if (m == 4 and max(deg) == 2) or (m == 3 and sorted(deg) == [1, 1, 2, 2]):
            bad[code] = True
    return bad


def _forbidden_bitmap(n, bad6):
    """Vectorized induced-P4/C4 presence for every labeled graph on n
    vertices (graph = bitmask over the C(n,2) pairs in lex order)."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: k for k, p in enumerate(pairs)}
    total = 1 << len(pairs)
    codes = np.arange(total, dtype=np.uint32)
    out = np.zeros(total, dtype=bool)
    for quad in itertools.combinations(range(n), 4):
        bits = [index[(quad[a], quad[b])]
                for a, b in itertools.combinations(range(4), 2)]
        six = np.zeros(total, dtype=np.uint8)
        for k, p in enumerate(bits):
            six |= ((codes >> np.uint32(p)) & np.uint32(1)).astype(np.uint8) << k
        out |= bad6[six]
    return out


def _accept_bitmap(n):
    pairs = list(itertools.combinations(range(n), 2))
    total = 1 << len(pairs)
    out = np.zeros(total, dtype=bool)
    from_adj = SparsityPattern.from_adjacency
    for code in range(total):
        adj = [[] for _ in range(n)]
        c = code
        for a, b in pairs:
            if c & 1:
                adj[a].append(b)
                adj[b].append(a)
            c >>= 1
        out[code] = lbfs_order(from_adj(n, adj)).accepted
    return out


def _pattern_from_code(n, code):
    pairs = list(itertools.combinations(range(n), 2))
    return SparsityPattern(n, [p for k, p in enumerate(pairs) if code >> k & 1])


def test_c2_recognition_soundness_completeness(rng):
    """Acceptance equals absence of induced P4/C4: exhaustively for every
    labeled graph on up to 7 vertices, and on 500 random graphs with up to
    64 vertices; under 60 s total."""
    t0 = time.perf_counter()
    bad6 = _bad6_table()
    checked = 0
    for n in range(1, 8):
        accept = _accept_bitmap(n)
        if n < 4:
            forbidden = np.zeros(len(accept), dtype=bool)
        else:
            forbidden = _forbidden_bitmap(n, bad6)
        assert np.array_equal(accept, ~forbidden), f"mismatch at n={n}"
        checked += len(accept)
        # certify the vectorized classifier against the subset-scan oracle
        sample = rng.integers(0, len(accept), size=min(400, len(accept)))
        for code in sample:
            p = _pattern_from_code(n, int(code))
            assert has_forbidden_subgraph(p) == bool(forbidden[code])
    random_checked = 0
    for trial in range(500):
        n = int(rng.integers(4, 65))
        if trial % 3 == 0:
            p = random_homogeneous_pattern(n, seed=trial, branching=3.0).pattern
        else:
            pairs = list(itertools.combinations(range(n), 2))
            m = int(rng.integers(n, min(4 * n, len(pairs)) + 1))
            take = rng.choice(len(pairs), size=m, replace=False)
            p = SparsityPattern(n, [pairs[t] for t in take])
        assert lbfs_order(p).accepted == (not has_forbidden_subgraph(p))
        random_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("C2 recognition soundness/completeness",
            f"({checked} exhaustive + {random_checked} random graphs, "
            f"{elapsed:.1f} s)")


# ------------------------------------------------------------- criterion 3

def _pattern_mask(struct):
    m = np.zeros((struct.n, struct.n), dtype=bool)
    m[struct._row_vertex, struct._col_vertex] = True
    m[struct._col_vertex, struct._row_vertex] = True
    return m


def test_c3_triangular_closure(rng):
    """200 random instances, N <= 50: products, inverses, and congruences
    stay on the pattern and match dense arithmetic to 1e-10 relative; the
    tridiagonal pattern is the negative control."""
    t0 = time.perf_counter()
    for trial in range(200):
        st = random_structure(int(rng.integers(2, 51)), seed=31000 + trial)
        mask = _pattern_mask(st)
        outside = ~mask
        a = random_lower(st, rng)
        b = random_lower(st, rng)
        x = random_sym(st, rng)
        ad, bd, xd = to_dense(a), to_dense(b), to_dense(x)

        prod = ad @ bd
        assert np.all(prod[outside] == 0.0)
        got = to_dense(tri_mul(a, b))
        assert np.allclose(got, prod, rtol=1e-10, atol=1e-10 * max(1, abs(prod).max()))

        inv = np.linalg.inv(ad)
        assert np.max(np.abs(inv[outside])) <= 1e-12 * max(1, np.abs(inv).max())
        got = to_dense(tri_inverse(a))
        assert np.allclose(got, inv, rtol=1e-10, atol=1e-10 * max(1, np.abs(inv).max()))

        cong = ad @ xd @ ad.T
        assert np.max(np.abs(cong[outside])) <= 1e-13 * max(1, np.abs(cong).max())
        got = to_dense(forward_map(a, x))
        assert np.allclose(got, cong, rtol=1e-10, atol=1e-10 * max(1, np.abs(cong).max()))

        adj = project(ad.T @ xd @ ad, st)
        got = adjoint_map(a, x)
        scale = max(1.0, float(np.max(np.abs(adj.vals))))
        assert np.allclose(got.vals, adj.vals, rtol=1e-10, atol=1e-10 * scale)

    # negative control: tridiagonal (chordal, not homogeneous) fills in
    xd = np.diag(np.full(4, 2.0))
    for i in range(3):
        xd[i + 1, i] = xd[i, i + 1] = -1.0
    linv = np.linalg.inv(np.linalg.cholesky(xd))
    assert abs(linv[2, 0]) > 1e-3 and abs(linv[3, 1]) > 1e-3
    elapsed = time.perf_counter() - t0
    _report("C3 triangular closure", f"(200 instances, {elapsed:.1f} s)")


# ------------------------------------------------------------- criterion 4

def test_c4_kernel_oracle_agreement(rng, vinberg_struct):
    """cholesky / projected inverse / hessian vs LAPACK oracles at 1e-10
    over 200 instances (N <= 50), each on its dense step and on its
    sweep; completion factor vs the dense Newton
    oracle at 1e-8 (N <= 16, where the free-entry Newton solve is cheap);
    plus the closed-form running example; under 120 s."""
    t0 = time.perf_counter()
    for trial in range(200):
        base = random_structure(int(rng.integers(2, 51)), seed=41000 + trial)
        xv, yv = random_spd(base, rng).vals, random_sym(base, rng).vals
        # both paths: the dense step of a small tree, and its sweep
        for st in (base, swept(base)):
            x, y = SymSparse(st, xv), SymSparse(st, yv)
            f = cholesky(x)
            dense_l = np.linalg.cholesky(to_dense(x))
            assert np.allclose(to_dense(f.L), dense_l, rtol=1e-10, atol=1e-11)

            xinv = np.linalg.inv(to_dense(x))
            want = project(xinv, st)
            got = projected_inverse(f)
            scale = max(1.0, float(np.max(np.abs(want.vals))))
            assert np.allclose(got.vals, want.vals, rtol=1e-10, atol=1e-10 * scale)

            want = project(xinv @ to_dense(y) @ xinv, st)
            got = hess_apply(f, y)
            scale = max(1.0, float(np.max(np.abs(want.vals))))
            assert np.allclose(got.vals, want.vals, rtol=1e-10, atol=1e-10 * scale)

            # remaining kernels against the same dense route
            ld = to_dense(f.L)
            li = np.linalg.inv(ld)
            want = project(li @ to_dense(y) @ li.T, st)
            got = inverse_forward_map(f.L, y)
            scale = max(1.0, float(np.max(np.abs(want.vals))))
            assert np.allclose(got.vals, want.vals, rtol=1e-10, atol=1e-10 * scale)
            want = project(li.T @ to_dense(y) @ li, st)
            got = inverse_adjoint_map(f.L, y)
            scale = max(1.0, float(np.max(np.abs(want.vals))))
            assert np.allclose(got.vals, want.vals, rtol=1e-10, atol=1e-10 * scale)
            got = forward_map(f.L, adjoint_map(f.L, y))  # inverse Hessian
            back = project(xinv @ to_dense(got) @ xinv, st)  # dense Hessian of it
            scale = max(1.0, float(np.max(np.abs(y.vals))))
            assert np.allclose(back.vals, y.vals, rtol=1e-9, atol=1e-9 * scale)
            got = dual_gradient(maxdet_factor(projected_inverse(f)))
            scale = max(1.0, float(np.max(np.abs(x.vals))))
            assert np.allclose(got.vals, x.vals, rtol=1e-9, atol=1e-9 * scale)

    for trial in range(200):
        st = random_structure(int(rng.integers(2, 17)), seed=42000 + trial)
        s = random_completable(st, rng)
        ld = to_dense(maxdet_factor(s).L)
        y_kernel = np.linalg.inv(ld @ ld.T)
        y_newton = dense_maxdet_completion(s)
        scale = max(1.0, float(np.max(np.abs(y_newton))))
        assert np.allclose(y_kernel, y_newton, rtol=1e-8, atol=1e-8 * scale)

    # closed-form checks on the running 3x3 example
    x = from_triplets(vinberg_struct, [(0, 0, 2.0), (1, 1, 3.0), (2, 2, 2.0),
                                       (2, 0, 1.0), (2, 1, 1.0)])
    ld = to_dense(cholesky(x).L)
    assert np.allclose([ld[0, 0], ld[1, 1], ld[2, 0], ld[2, 1], ld[2, 2]],
                       [np.sqrt(2), np.sqrt(3), 1 / np.sqrt(2), 1 / np.sqrt(3),
                        np.sqrt(7 / 6)])
    pinv = to_dense(projected_inverse(cholesky(x)))
    assert np.isclose(pinv[2, 0], -3 / 7) and np.isclose(pinv[2, 1], -2 / 7)
    s_half = from_triplets(vinberg_struct,
                           [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0),
                            (2, 0, 0.5), (2, 1, 0.5)])
    ld = to_dense(maxdet_factor(s_half).L)
    assert np.isclose(np.linalg.inv(ld @ ld.T)[1, 0], 0.25)
    # membership test agrees with the principal-block eigenvalue oracle
    s_bad = from_triplets(vinberg_struct,
                          [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 0.1),
                           (2, 0, 0.5), (2, 1, 0.5)])
    assert not dense_completable(s_bad)
    with pytest.raises(NotCompletable):
        maxdet_factor(s_bad)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report("C4 kernel/oracle agreement", f"(200 instances on both paths, 200 completions, {elapsed:.1f} s)")


# ------------------------------------------------------------- criterion 5

def test_c5_barrier_calculus(rng):
    """Logarithmic homogeneity (1e-12), finite-difference Hessian (1e-5),
    composition identities (1e-10), and conjugacy (1e-10)."""
    t0 = time.perf_counter()
    for trial in range(40):
        st = random_structure(int(rng.integers(2, 31)), seed=51000 + trial)
        x = random_spd(st, rng)
        f = cholesky(x)
        grad = projected_inverse(f)
        assert abs(inner(grad, x) - st.n) <= 1e-12 * st.n

        s = projected_inverse(f)
        total = barrier(f) + dual_barrier(s)
        assert abs(total + st.n) <= 1e-10 * max(1.0, st.n)

        ell = cholesky(random_spd(st, rng)).L
        lhs = projected_inverse(cholesky(forward_map(ell, x)))
        rhs = inverse_adjoint_map(ell, grad)
        scale = max(1.0, norm(rhs))
        assert norm(lhs - rhs) <= 1e-10 * scale

        sc = random_completable(st, rng, zero_fill_pd=False)
        lhs = dual_gradient(maxdet_factor(adjoint_map(ell, sc)))
        rhs = inverse_forward_map(ell, dual_gradient(maxdet_factor(sc)))
        scale = max(1.0, norm(rhs))
        assert norm(lhs - rhs) <= 1e-10 * scale

    h = 1e-5
    for trial in range(25):
        st = random_structure(int(rng.integers(2, 21)), seed=52000 + trial)
        x = random_spd(st, rng)
        y = random_sym(st, rng, scale=0.2)
        gp = projected_inverse(cholesky(x + h * y))
        gm = projected_inverse(cholesky(x - h * y))
        fd = (1.0 / (2 * h)) * (gm - gp)
        hv = hess_apply(cholesky(x), y)
        assert norm(fd - hv) <= 1e-5 * max(1.0, norm(hv))
    elapsed = time.perf_counter() - t0
    _report("C5 barrier calculus", f"({elapsed:.1f} s)")


# ------------------------------------------------------------- criterion 6

def test_c6_scaling_point(rng):
    """100 random interior pairs: factored-scaling residual within
    1e-7 (|x| + |s|) at tolerance 1e-9, and agreement with the independent
    dense Newton oracle at 1e-7."""
    t0 = time.perf_counter()
    for trial in range(100):
        st = random_structure(int(rng.integers(2, 15)), seed=61000 + trial)
        x, s = random_interior_pair(st, rng)
        w = scaling_w(x, s, tol=1e-9)
        op = pd_factor(w, x, s)
        assert op.residual <= 1e-7 * (norm(x) + norm(s))
        w_oracle = dense_scaling_point(x, s, tol=1e-10)
        scale = max(1.0, float(np.max(np.abs(w_oracle))))
        assert np.allclose(to_dense(w), w_oracle, rtol=1e-7, atol=1e-7 * scale)
    elapsed = time.perf_counter() - t0
    _report("C6 scaling point", f"(100 pairs, {elapsed:.1f} s)")


# ------------------------------------------------------------- criterion 7

def test_c7_bfgs_update(rng):
    """Four alignment equations at 1e-10, identity update on central pairs,
    orthogonality and curvature invariants at 1e-12."""
    t0 = time.perf_counter()
    corrected = 0
    for trial in range(100):
        st = random_structure(int(rng.integers(2, 15)), seed=71000 + trial)
        x, s = random_interior_pair(st, rng)
        state = shadow_state(x, s)
        scale = max(1.0, norm(x) * norm(s))
        assert abs(inner(s, state.delta_p)) <= 1e-12 * scale
        assert abs(inner(state.delta_d, x)) <= 1e-12 * scale
        assert inner(state.delta_d, state.delta_p) >= -1e-12 * scale
        w = scaling_w(x, s, tol=1e-12)
        op = bfgs_update(pd_factor(w, x, s), state)
        if not op.corrected:
            continue
        corrected += 1
        sc = max(1.0, norm(x), norm(s))
        v = apply_scaling(op, "inverse", x)
        assert norm(v - apply_scaling(op, "adjoint", s)) <= 1e-10 * sc
        assert norm(apply_scaling(op, "inverse", state.delta_p) - op.v_hat) \
            <= 1e-10 * sc
        assert norm(apply_scaling(op, "adjoint", state.delta_d) - op.v_hat) \
            <= 1e-10 * sc
    assert corrected >= 80
    # central pair: identity update
    st = random_structure(12, seed=71999)
    x = random_spd(st, rng)
    s = 0.3 * projected_inverse(cholesky(x))
    state = shadow_state(x, s)
    op = pd_factor(scaling_w(x, s, tol=1e-12), x, s)
    assert bfgs_update(op, state) is op
    elapsed = time.perf_counter() - t0
    _report("C7 BFGS update", f"({corrected} corrected pairs, {elapsed:.1f} s)")


# ------------------------------------------------------------- criterion 8

def test_c8_ipm_end_to_end(rng, vinberg_struct):
    """50 self-certifying instances (N <= 30, m <= 20) to gap/N <= 1e-7 and
    feasibility <= 1e-8 within 100 iterations and < 5 s each; the analytic
    trace-one instance reaches objective 1 within 1e-6; the central-path
    direction with gamma = 1 vanishes to 1e-10."""
    t0 = time.perf_counter()
    worst = 0.0
    # gap target per the criterion; m capped by the space dimension so the
    # constraints can be independent at all
    opts = SolverOptions(tol_gap=1e-7, tol_feas=1e-8)
    for trial in range(50):
        st = random_structure(int(rng.integers(3, 31)), seed=81000 + trial)
        m = int(rng.integers(1, min(20, st.dim) + 1))
        prob, x_feas, y_feas, s_feas = random_feasible_problem(st, m, rng)
        t1 = time.perf_counter()
        rep = solve(prob, opts)
        dt = time.perf_counter() - t1
        worst = max(worst, dt)
        assert dt < 5.0
        assert rep.status is SolveStatus.OPTIMAL
        assert rep.iterations <= 100
        assert rep.gap / st.n <= 1e-7
        feas_scale = 1 + np.linalg.norm(prob.b) + norm(prob.c)
        assert rep.primal_residual <= 1e-8 * feas_scale
        assert rep.dual_residual <= 1e-8 * feas_scale
        cert_hi = inner(prob.c, x_feas)
        cert_lo = float(np.dot(prob.b, y_feas))
        slack = 1e-5 * max(1.0, abs(cert_hi), abs(cert_lo))
        assert cert_lo - slack <= rep.primal_objective <= cert_hi + slack
        assert rep.primal_objective >= rep.dual_objective - slack

    c = from_triplets(vinberg_struct, [(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)])
    prob = ConicProblem(vinberg_struct, identity(vinberg_struct).vals[None],
                        np.array([1.0]), c)
    rep = solve(prob)
    assert abs(rep.primal_objective - 1.0) <= 1e-6

    st = random_structure(10, seed=81999)
    x = random_spd(st, rng)
    s = 0.4 * projected_inverse(cholesky(x))
    a = rng.standard_normal((4, st.dim))
    prob = ConicProblem(st, a, np.vecdot(a * st.weights, x.vals), s.copy())
    it = Iterate(x=x, y=np.zeros(4), s=s, mu=inner(s, x) / st.n)
    state = shadow_state(x, s)
    op = bfgs_update(pd_factor(scaling_w(x, s, tol=1e-13), x, s), state)
    d_x, d_y, d_s = search_direction(prob, it, residuals(prob, it), op, gamma=1.0)
    assert norm(d_x) <= 1e-10 * max(1.0, norm(x))
    assert float(np.linalg.norm(d_y)) <= 1e-10
    assert norm(d_s) <= 1e-10 * max(1.0, norm(s))
    elapsed = time.perf_counter() - t0
    _report("C8 IPM end-to-end",
            f"(50 instances, worst solve {worst:.2f} s, total {elapsed:.1f} s)")


# ------------------------------------------------------------- criterion 9

def test_c9_recognition_scaling():
    """Near-linear recognition: between |V| = 1e4 and 1e5 forest
    comparability graphs with input-size ratio at most 12x, the time ratio
    stays at most 15x."""
    def run(pattern):
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            res = lbfs_order(pattern)
            best = min(best, time.perf_counter() - t0)
            assert res.accepted
        return pattern.n + pattern.n_edges, best

    small = random_homogeneous_pattern(10_000, seed=9, branching=4.0).pattern
    big = random_homogeneous_pattern(100_000, seed=9, branching=8.0).pattern
    # a full collection would scan every object earlier tests left alive;
    # recognition's own garbage is still collected
    gc.collect()
    gc.freeze()
    try:
        size_small, t_small = run(small)
        size_big, t_big = run(big)
    finally:
        gc.unfreeze()
    size_ratio = size_big / size_small
    time_ratio = t_big / t_small
    assert size_ratio <= 12.0, f"input-size ratio {size_ratio:.1f}"
    assert time_ratio <= 15.0, f"time ratio {time_ratio:.1f}"
    _report("C9 recognition scaling",
            f"(sizes {size_small} -> {size_big}, ratio {size_ratio:.1f}x, "
            f"times {t_small * 1e3:.0f} ms -> {t_big * 1e3:.0f} ms, "
            f"ratio {time_ratio:.1f}x)")
