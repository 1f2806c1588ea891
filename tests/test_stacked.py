"""Stacked kernel sweeps: a leading stack axis runs every member through
one sweep, and each member's result is bitwise that of its own call.
Also the step search, against its dense oracle and the one-probe-at-a-time
bisection."""

import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from homcone import factor, ipm, matrix, scaling
from homcone.densecheck import dense_max_step
from homcone.errors import NotCompletable, NotPositiveDefinite, StructuralError
from homcone.factor import (
    adjoint_map,
    cholesky,
    dual_gradient,
    forward_map,
    inverse_adjoint_map,
    inverse_forward_map,
    maxdet_factor,
    projected_inverse,
)
from homcone.ipm import Iterate, max_step
from homcone.matrix import (
    LowerSparse,
    SymSparse,
    _chain,
    inner,
    to_dense,
    to_triplets,
    tri_inverse,
    tri_mul,
)

from helpers import (
    assert_same_point,
    random_completable,
    random_lower,
    random_spd,
    random_structure,
    random_sym,
    sequential_max_step,
    sequential_scaling_point,
    solve_scaling_calls,
    sweep_only,
)


def capped_structure(n, seed, branching, cap):
    """A structure compiled under batch cap ``cap``, with admission off: a
    small cap splits levels into many batches and makes stacks split into
    chunks."""
    with sweep_only(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "BATCH_FLOATS", cap)
        return random_structure(n, seed=seed, branching=branching)


def laid_out(vals, layout):
    """The same stack as C-ordered, Fortran-ordered or row-strided array."""
    if layout == "fortran":
        return np.asfortranarray(vals)
    if layout == "strided":
        wide = np.zeros((2 * len(vals), vals.shape[1]))
        wide[::2] = vals
        return wide[::2]
    return vals


def depressed(st, vals, rng):
    """Copies of the rows of ``vals`` with a diagonal entry far below the
    rest at random positions of every other row, and those positions."""
    vals = vals.copy()
    bad = [set() for _ in vals]
    big = 10.0 * (1.0 + np.abs(vals).max(initial=0.0))
    for i in range(0, len(vals), 2):
        bad[i] = set(rng.choice(st.n, size=int(rng.integers(1, st.n + 1)), replace=False).tolist())
        vals[i, st.bar_ptr[sorted(bad[i])]] -= big
    return vals, bad


instances = hs.tuples(
    hs.integers(1, 40),                                   # n
    hs.sampled_from([1.05, 2.0, 4.0]),                    # branching; 1.05 makes deep chains
    hs.integers(0, 10_000),                               # pattern and value seed
    hs.sampled_from([matrix.BATCH_FLOATS, 60, 20]),       # batch cap
    hs.integers(0, 9),                                    # stack size
    hs.sampled_from(["C", "fortran", "strided"]),         # stack layout
)


@settings(max_examples=60, deadline=None)
@given(instances)
def test_stacked_maps_equal_row_by_row(case):
    n, branching, seed, cap, m, layout = case
    st = capped_structure(n, seed, branching, cap)
    rng = np.random.default_rng(seed)
    ell = random_lower(st, rng)
    stack = laid_out(rng.standard_normal((m, st.dim)), layout)
    for kernel in (forward_map, adjoint_map):
        got = kernel(ell, SymSparse(st, stack)).vals
        want = np.array([kernel(ell, SymSparse(st, row)).vals for row in stack])
        assert got.shape == (m, st.dim)
        assert np.array_equal(got, want.reshape(m, st.dim))
    for kind in ("mul", "mul_t", "solve", "solve_t"):
        for own in (False, True):
            got = _chain(st, ell.vals, stack, kind, own)
            want = [_chain(st, ell.vals, row, kind, own) for row in stack]
            assert np.array_equal(got, np.reshape(want, (m, st.dim)))


@settings(max_examples=60, deadline=None)
@given(instances)
def test_stacked_factorizations_report_each_member(case):
    """Members that fail do not disturb the others, and a failing member
    called alone still raises at the node a one-node-at-a-time sweep stops
    at: below the lowest depressed position every pivot is untouched
    (cholesky), above the highest every Schur complement (maxdet_factor)."""
    n, branching, seed, cap, m, layout = case
    st = capped_structure(n, seed, branching, cap)
    rng = np.random.default_rng(seed)
    xs = np.array([random_spd(st, rng).vals for _ in range(m)]).reshape(m, st.dim)
    ss = np.array([projected_inverse(cholesky(SymSparse(st, x))).vals for x in xs])
    ss = ss.reshape(m, st.dim)
    sigma = st.ordering.sigma
    for kernel, vals, error, stop in ((cholesky, xs, NotPositiveDefinite, min),
                                      (maxdet_factor, ss, NotCompletable, max)):
        vals, bad = depressed(st, vals, rng)
        f = kernel(SymSparse(st, laid_out(vals, layout)))
        assert f.ok.shape == (m,) and f.L.vals.shape == (m, st.dim)
        for i, row in enumerate(vals):
            assert f.ok[i] == (not bad[i])
            if bad[i]:
                with pytest.raises(error) as e:
                    kernel(SymSparse(st, row))
                assert e.value.node == sigma[stop(bad[i])]
            else:
                one = kernel(SymSparse(st, row))
                assert one.ok is None
                assert np.array_equal(f.L.vals[i], one.L.vals)


@pytest.mark.parametrize("branching", [1.05, 4.0])
@pytest.mark.parametrize("cap", [20, matrix.BATCH_FLOATS])
def test_stacks_failing_in_the_first_batch_stop_there(cap, branching, monkeypatch):
    """Every member fails in the first batch its sweep takes (the last
    batch bottom-up, the first top-down) and at random other nodes.  ``ok``
    is all False, and each chunk's sweep stops before the work of its next
    batch; each member called alone sweeps to the end and raises at its
    lowest (cholesky) or highest (maxdet_factor) failing node with the
    value it has when only that node fails."""
    steps = []  # batches yielded, per sweep
    for name in ("_up", "_down"):
        def counted(*args, sweep=getattr(factor, name)):
            steps.append(0)
            for step in sweep(*args):
                steps[-1] += 1
                yield step
        monkeypatch.setattr(factor, name, counted)
    st = capped_structure(30, 17, branching, cap)
    rng = np.random.default_rng(17)
    m = 5
    xs = np.array([random_spd(st, rng).vals for _ in range(m)])
    ss = np.array([projected_inverse(cholesky(SymSparse(st, x))).vals for x in xs])
    for kernel, vals, error, stop, first in (
            (cholesky, xs, NotPositiveDefinite, min, st.batches[-1]),
            (maxdet_factor, ss, NotCompletable, max, st.batches[0])):
        big = 10.0 * (1.0 + np.abs(vals).max())
        bad = [{int(rng.choice(first.nodes))}
               | set(rng.choice(st.n, size=int(rng.integers(0, 4)), replace=False).tolist())
               for _ in range(m)]
        hit = vals.copy()
        for row, nodes in zip(hit, bad):
            row[st.bar_ptr[sorted(nodes)]] -= big
        steps.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = kernel(SymSparse(st, hit))
        assert not f.ok.any()
        assert len(steps) == -(-m // st.stack_rows) and max(steps) == 2
        for row, alone, nodes in zip(hit, vals.copy(), bad):
            q = stop(nodes)
            alone[st.bar_ptr[q]] -= big
            steps.clear()
            with pytest.raises(error) as e:
                kernel(SymSparse(st, row))
            assert steps == [len(st.batches)]
            with pytest.raises(error) as want:
                kernel(SymSparse(st, alone))
            assert e.value.node == st.ordering.sigma[q]
            assert (e.value.node, e.value.value) == (want.value.node, want.value.value)


def test_coverage_of_the_stack_cases():
    """The strategies above reach what they are meant to: single-column
    batches on deep chains, chain blocks, split levels, and stacks split
    into chunks."""
    deep = capped_structure(40, 3, 1.05, matrix.BATCH_FLOATS)
    assert any(len(b.nodes) == 1 and deep.depth[b.nodes[0]] > 5 for b in deep.batches)
    assert any(b.chain is not None for b in capped_structure(40, 3, 1.05, 60).batches)
    split = capped_structure(30, 3, 4.0, 20)
    assert np.bincount(split.depth).max() > 1
    assert len(split.batches) > split.height
    assert split.stack_rows < 9
    floats = max(int(np.prod(b.shape)) for b in split.batches)
    assert split.stack_rows == max(1, 20 // floats)
    # a chain block counts as its (k+d)^2 floats, a level node as (d+1)^2
    chains = [b for b in split.batches if b.chain is not None]
    level = [q for b in split.batches if b.chain is None for q in b.nodes]
    assert chains
    assert split.sweep_floats == (sum((split.depth[q] + 1) ** 2 for q in level)
                                  + sum(b.shape[-1] ** 2 for b in chains))


def test_empty_stack(rng):
    st = random_structure(9, seed=3)
    ell = random_lower(st, rng)
    empty = SymSparse(st, np.zeros((0, st.dim)))
    assert forward_map(ell, empty).vals.shape == (0, st.dim)
    assert adjoint_map(ell, empty).vals.shape == (0, st.dim)
    assert cholesky(empty).ok.shape == (0,)
    assert maxdet_factor(empty).ok.shape == (0,)


def test_stack_input_is_not_written(rng):
    st = capped_structure(20, 5, 2.0, 20)
    ell = random_lower(st, rng)
    stack = rng.standard_normal((5, st.dim))
    stack.flags.writeable = False
    forward_map(ell, SymSparse(st, stack))
    adjoint_map(ell, SymSparse(st, stack))
    cholesky(SymSparse(st, stack))
    maxdet_factor(SymSparse(st, stack))


# ------------------------------------------------------------ step search

def random_step_problem(rng, n, seed, scale, branching=3.0):
    """A random interior pair on a random structure, and directions of
    size ``scale``."""
    st = random_structure(n, seed=seed, branching=branching)
    x, s = random_spd(st, rng), random_completable(st, rng)
    it = Iterate(x=x, y=np.zeros(0), s=s, mu=1.0)
    return it, scale * random_sym(st, rng), scale * random_sym(st, rng)


def test_max_step_zero(rng):
    """A direction that leaves the cone at a step of 1e-15: the step is
    below 1e-10, which solve counts as a stall."""
    it, _, d_s = random_step_problem(rng, 12, 7100, 1.0)
    d_x = -1e15 * it.x
    assert max_step(it, d_x, d_s, 0.99) < 1e-10
    assert sequential_max_step(it, d_x, d_s, 0.99) == 0.0


def spy_on_factorizations(monkeypatch):
    """Record max_step's factorizations as (kernel, members, argument's
    values): members is 0 for a one-matrix call."""
    calls = []

    def spy(kernel):
        def run(x):
            calls.append((kernel.__name__, len(x.vals) if x.vals.ndim == 2 else 0, x.vals))
            return kernel(x)
        return run

    monkeypatch.setattr(ipm, "cholesky", spy(ipm.cholesky))
    monkeypatch.setattr(ipm, "maxdet_factor", spy(ipm.maxdet_factor))
    return calls


@pytest.mark.parametrize("admitted", [True, False], ids=["admitted", "swept"])
def test_max_step_is_the_exact_boundary(admitted, monkeypatch):
    """On random pairs, compiled as one dense block and swept, with zero,
    small (full step), unit and large (partial step) directions: eta
    times the exact step, within 1e-10 relative of the dense oracle's, and
    no shorter than the bisection's, factored as the one cholesky of x
    that gives L and one cholesky and one maxdet_factor, of the points
    the step reaches, certifying it."""
    rng = np.random.default_rng(7300)
    full = partial = 0
    for trial in range(24):
        scale = [0.0, 0.05, 1.0, 10.0][trial % 4]
        with contextlib.ExitStack() as stack:
            if not admitted:
                stack.enter_context(sweep_only())
            it, d_x, d_s = random_step_problem(rng, int(rng.integers(2, 40)), 7300 + trial, scale,
                                               [1.05, 2.0, 4.0][trial % 3])
        assert (it.x.struct.dense is not None) == admitted
        calls = spy_on_factorizations(monkeypatch)
        a = max_step(it, d_x, d_s, 0.99)
        monkeypatch.undo()
        want = dense_max_step(it.x, d_x, it.s, d_s)
        assert abs(a / 0.99 - want) <= 1e-10 * want
        assert a >= sequential_max_step(it, d_x, d_s, 0.99) * (1.0 - 1e-12)
        assert [c[:2] for c in calls] == [("cholesky", 0), ("cholesky", 0), ("maxdet_factor", 0)]
        assert calls[0][2] is it.x.vals
        assert np.array_equal(calls[1][2], (it.x + a * d_x).vals)
        assert np.array_equal(calls[2][2], (it.s + a * d_s).vals)
        full += a == 0.99
        partial += a < 0.99
    assert full >= 6 and partial >= 6


def test_max_step_shrinks_a_step_that_fails_its_certificate(rng, monkeypatch):
    """A step whose certificate fails shrinks by eta, then eta^2, eta^4, ...
    until it passes, and one that does not pass above 1e-10 is 0."""
    it, d_x, d_s = random_step_problem(rng, 12, 7400, 10.0)
    exact = max_step(it, d_x, d_s, 0.99)
    assert exact < 0.99
    real, refused = ipm.maxdet_factor, []

    def refuse(s, times):
        if len(refused) < times:
            refused.append(s)
            raise NotCompletable(node=0)
        return real(s)

    monkeypatch.setattr(ipm, "maxdet_factor", lambda s: refuse(s, 2))
    assert max_step(it, d_x, d_s, 0.99) == pytest.approx(exact * 0.99 ** 3, rel=1e-14)
    monkeypatch.setattr(ipm, "maxdet_factor", lambda s: refuse(s, 10 ** 6))
    assert max_step(it, d_x, d_s, 0.99) == 0.0
    tries, step = 0, exact
    while step >= 1e-10:
        tries, step = tries + 1, step * 0.99 ** 2 ** tries
    assert len(refused) == 2 + tries <= 2 + 13


@pytest.mark.parametrize("sweep_floats, rounds", [
    (None, 8),
    (matrix.BATCH_FLOATS // 3, 3),
    (matrix.BATCH_FLOATS // 2 + 1, 1),
    (10 * matrix.BATCH_FLOATS, 1),
])
def test_line_search_rounds_follow_the_sweep_size(sweep_floats, rounds, monkeypatch):
    """scaling_point tests each full step alone and the halvings after it
    in stacked rounds of min(8, Structure.round_sweeps) (8 on the small
    test structures); where one round takes one sweep, every call is a
    one-matrix call.  Either way w is the sequential search's."""
    calls = solve_scaling_calls(0)
    if sweep_floats is not None:
        monkeypatch.setattr(calls[0][0].struct, "sweep_floats", sweep_floats)
    sizes = []

    def spy(x):
        sizes.append(len(x.vals) if x.vals.ndim == 2 else 0)
        return cholesky(x)

    monkeypatch.setattr(scaling, "cholesky", spy)
    for x, s, kwargs in calls:
        assert_same_point(scaling.scaling_point(x, s, **kwargs),
                          sequential_scaling_point(x, s, **kwargs))
    stacked = {k for k in sizes if k}
    assert max(stacked, default=1) == rounds and 1 not in stacked


@pytest.mark.parametrize("sweep_floats, rounds", [(None, 8), (10 * matrix.BATCH_FLOATS, 1)])
def test_line_search_takes_one_stacked_projected_inverse_a_round(sweep_floats, rounds,
                                                                 monkeypatch):
    """On the deep searches of two solves (halving 17-39 times, and to the
    floor), the objective of a stacked round's points that factor comes
    from one stacked projected_inverse right after the round's cholesky;
    the one-matrix calls are those for t = 1, right after its cholesky,
    and phi0, right before a search.  Where a round takes one sweep,
    every call is a one-matrix call.  w is the sequential search's."""
    calls = solve_scaling_calls(0) + solve_scaling_calls(2)
    if sweep_floats is not None:
        for st in {x.struct for x, _, _ in calls}:
            monkeypatch.setattr(st, "sweep_floats", sweep_floats)
    events, inside = [], [False]

    def chol(x):
        f = cholesky(x)
        events.append(("cholesky", len(x.vals) if x.vals.ndim == 2 else 0,
                       1 if f.ok is None else int(f.ok.sum())))
        return f

    def proj(f):
        events.append(("projected_inverse", len(f.L.vals) if f.L.vals.ndim == 2 else 0,
                       inside[0]))
        return projected_inverse(f)

    def points(w, dw, rounds, phi):
        events.append(("search", phi is not None, None))
        search = real(w, dw, rounds, phi)
        while True:
            inside[0] = True
            try:
                point = next(search)
            except StopIteration:
                events.append(("floor", None, None))
                return
            finally:
                inside[0] = False
            events.append(("point", point[0], None))
            yield point

    real = scaling._line_points
    monkeypatch.setattr(scaling, "cholesky", chol)
    monkeypatch.setattr(scaling, "projected_inverse", proj)
    monkeypatch.setattr(scaling, "_line_points", points)
    for x, s, kwargs in calls:
        assert_same_point(scaling.scaling_point(x, s, **kwargs),
                          sequential_scaling_point(x, s, **kwargs))
    stacked = one = phi0 = 0
    phi = False
    for i, (kind, a, b) in enumerate(events):
        if kind == "search":
            phi = a
        elif kind == "cholesky" and a and b and phi:
            # a stacked round, b of whose points factor
            assert events[i + 1] == ("projected_inverse", b, True)
            stacked += 1
        elif kind == "projected_inverse" and not a and b:
            # t = 1, or a round of one point
            assert events[i - 1] == ("cholesky", 0, 1)
            assert rounds == 1 or events[i - 2] == ("search", True, None)
            one += 1
        elif kind == "projected_inverse" and not a:
            assert events[i + 1] == ("search", True, None)
            phi0 += 1
    assert stacked + one + phi0 == sum(e[0] == "projected_inverse" for e in events)
    assert one and phi0 and (stacked > 0) == (rounds > 1)
    # some search takes a point at t <= 2^-17, and some reaches the floor
    assert min(e[1] for e in events if e[0] == "point") <= 2.0 ** -17
    assert ("floor", None, None) in events


def test_single_factor_has_no_ok(rng):
    st = random_structure(6, seed=2)
    assert cholesky(random_spd(st, rng)).ok is None
    assert maxdet_factor(random_completable(st, rng)).ok is None
    with pytest.raises(StructuralError):
        LowerSparse(st, np.zeros((2, 3, st.dim)))


def test_one_matrix_operations_reject_a_stack(rng):
    """Only the stacked kernels take a stack; the rest raise instead of
    mixing the members, e.g. a stacked factor's logdet would sum the
    diagonals of all members, failed ones included."""
    st = random_structure(8, seed=4)
    one = random_lower(st, rng)
    stack = LowerSparse(st, np.array([one.vals, one.vals]))
    sym = SymSparse(st, stack.vals)
    f = cholesky(SymSparse(st, np.array([random_spd(st, rng).vals] * 2)))
    for call in (f.logdet, lambda: dual_gradient(f),
                 lambda: inverse_forward_map(one, sym), lambda: inverse_adjoint_map(one, sym),
                 lambda: forward_map(stack, random_sym(st, rng)),
                 lambda: adjoint_map(stack, random_sym(st, rng)),
                 lambda: inner(sym, sym), lambda: inner(SymSparse(st, one.vals[None]), sym),
                 lambda: tri_mul(one, stack), lambda: tri_inverse(stack),
                 lambda: to_dense(sym), lambda: to_triplets(sym)):
        with pytest.raises(StructuralError, match="stack"):
            call()
