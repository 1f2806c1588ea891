"""Stacked kernel sweeps: a leading stack axis runs every member through
one sweep of ``forward_map``, ``adjoint_map`` (L's blocks handed down as
one more member beside the stack's) or the ancestor-chain products (with
L and with L^-1), and each member's result is bitwise that of its own
call;
every other kernel rejects a stack.  Also the scaling point's line
search, one probe at a time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from homcone import factor, matrix, scaling
from homcone.errors import NotPositiveDefinite, StructuralError
from homcone.factor import (
    CholFactor,
    adjoint_map,
    cholesky,
    dual_gradient,
    forward_map,
    inverse_adjoint_map,
    inverse_forward_map,
    maxdet_factor,
    projected_inverse,
)
from homcone.matrix import (
    LowerSparse,
    SymSparse,
    _chain_sweep,
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
    for lower in (ell, tri_inverse(ell)):
        got = _chain_sweep(st, lower, stack)
        want = [_chain_sweep(st, lower, row) for row in stack]
        assert np.array_equal(got, np.reshape(want, (m, st.dim)))


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


def test_empty_stack(rng):
    st = random_structure(9, seed=3)
    ell = random_lower(st, rng)
    empty = SymSparse(st, np.zeros((0, st.dim)))
    assert forward_map(ell, empty).vals.shape == (0, st.dim)
    assert adjoint_map(ell, empty).vals.shape == (0, st.dim)


def test_stack_input_is_not_written(rng):
    st = capped_structure(20, 5, 2.0, 20)
    ell = random_lower(st, rng)
    stack = rng.standard_normal((5, st.dim))
    stack.flags.writeable = False
    forward_map(ell, SymSparse(st, stack))
    adjoint_map(ell, SymSparse(st, stack))


def test_line_search_tests_one_point_at_a_time(monkeypatch):
    """On every scaling_point call of two solves, whose deep searches halve
    17-39 times or down to the floor, the line search factors one point a
    call, and a point that does not factor costs its dense step and no
    sweep: nothing reads where it failed.  w is the sequential search's."""
    calls = solve_scaling_calls(0) + solve_scaling_calls(2)
    assert all(x.struct.dense is not None for x, _, _ in calls)
    probes, failed, sweeps = [], [], []

    def chol(x):
        probes.append(x.vals.ndim)
        try:
            return cholesky(x)
        except NotPositiveDefinite:
            failed.append(x)
            raise

    real_up = factor._up
    monkeypatch.setattr(factor, "_up", lambda s: sweeps.append(s) or real_up(s))
    monkeypatch.setattr(scaling, "cholesky", chol)
    for x, s, kwargs in calls:
        assert_same_point(scaling.scaling_point(x, s, **kwargs),
                          sequential_scaling_point(x, s, **kwargs))
    assert set(probes) == {1} and len(failed) >= 20
    assert sweeps == []


def test_single_factor_has_no_ok(rng):
    """A factor is one matrix's: it carries no per-member success flags."""
    st = random_structure(6, seed=2)
    assert not hasattr(cholesky(random_spd(st, rng)), "ok")
    assert not hasattr(maxdet_factor(random_completable(st, rng)), "ok")
    with pytest.raises(StructuralError):
        LowerSparse(st, np.zeros((2, 3, st.dim)))


def test_one_matrix_operations_reject_a_stack(rng):
    """Only the stacked maps take a stack; the rest raise instead of
    mixing the members, e.g. a stacked factor's logdet would sum the
    diagonals of all members.  The factorizations take one matrix too, an
    empty stack included."""
    st = random_structure(8, seed=4)
    one = random_lower(st, rng)
    stack = LowerSparse(st, np.array([one.vals, one.vals]))
    sym = SymSparse(st, stack.vals)
    f = CholFactor(stack)
    spd = SymSparse(st, np.array([random_spd(st, rng).vals] * 2))
    empty = SymSparse(st, np.zeros((0, st.dim)))
    for call in (f.logdet, lambda: dual_gradient(f),
                 lambda: projected_inverse(f), lambda: cholesky(spd), lambda: cholesky(empty),
                 lambda: maxdet_factor(SymSparse(st, np.array([random_completable(st, rng).vals] * 3))),
                 lambda: maxdet_factor(empty),
                 lambda: inverse_forward_map(one, sym), lambda: inverse_adjoint_map(one, sym),
                 lambda: forward_map(stack, random_sym(st, rng)),
                 lambda: adjoint_map(stack, random_sym(st, rng)),
                 lambda: inner(sym, sym), lambda: inner(SymSparse(st, one.vals[None]), sym),
                 lambda: tri_mul(one, stack), lambda: tri_inverse(stack),
                 lambda: to_dense(sym), lambda: to_triplets(sym)):
        with pytest.raises(StructuralError, match="stack"):
            call()
