"""Small trees as one dense block: admission, each kernel against the
sweep of the same structure compiled with admission off, stacked maps
member by member, and the failing node of a cholesky, found only when it
is read."""

import math
import pickle

import numpy as np
import pytest

from homcone import factor, io_cli, matrix
from homcone.errors import NotPositiveDefinite
from homcone.factor import adjoint_map, cholesky, forward_map
from homcone.matrix import LowerSparse, SymSparse, _gather, _lower, to_dense

from helpers import (ROOT, forest_structure, kernel_inputs, perfbench_module, random_lower,
                     random_structure, swept, ten_kernels, well_conditioned_lower)
from test_schedule import EDGE_CASES

#: The instances of the spread runs (ROADMAP), (n, m, branching, seed):
#: solve-mixed's three and three more.
SPREAD = [(16, 8, 3.0, 0), (24, 12, 3.0, 1), (48, 8, 3.0, 2), (24, 12, 3.0, 2),
          (60, 24, 3.0, 5), (40, 16, 3.0, 4)]


def structures():
    """(name, structure): every benchmark solve structure, the spread
    instances', random trees of branching 3 and 1.05 on both sides of the
    admission size, and the edge-case forests."""
    inputs, workloads = perfbench_module("inputs"), perfbench_module("workloads")
    specs = [(sp.n, sp.m, sp.branching, sp.seed)
             for w in workloads.WORKLOADS.values() for sp in w.solves]
    out = []
    for n, m, b, seed in dict.fromkeys(specs + SPREAD):
        inst = inputs.random_instance(n, m, b, seed, ROOT)
        out.append((f"{inst.name}-s{seed}", io_cli.parse_problem(inst.text)[0].struct))
    for b in (3.0, 1.05):
        for n in (matrix.DENSE_NODES, matrix.DENSE_NODES + 1):
            out.append((f"b{b} n={n}", random_structure(n, seed=n, branching=b)))
    out += [(name, forest_structure(parent)) for name, parent in EDGE_CASES.items()]
    return out


STRUCTURES = dict(structures())


def test_admission_and_block():
    """A structure is admitted iff it has at most DENSE_NODES nodes.  Its
    block holds each value in position order, (row, column) of its slot,
    and a stacked step holds at most BATCH_FLOATS floats or one block;
    the schedule is the one compiled with admission off."""
    assert len(STRUCTURES) == 8 + 4 + len(EDGE_CASES)
    for name, st in STRUCTURES.items():
        ref = swept(st)
        assert (st.dense is not None) == (st.n <= matrix.DENSE_NODES), name
        assert [b.shape for b in st.batches] == [b.shape for b in ref.batches]
        if st.dense is None:
            assert st.stack_rows == ref.stack_rows
            continue
        floats = max(math.prod(b.shape) for b in st.batches)
        assert st.stack_rows == max(1, matrix.BATCH_FLOATS // max(floats, st.n ** 2))
        x = SymSparse(st, np.random.default_rng(st.n).standard_normal(st.dim))
        sigma = list(st.ordering.sigma)
        want = np.tril(to_dense(x)[np.ix_(sigma, sigma)])
        assert np.array_equal(_gather(x.vals, st.dense), want), name


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_kernels_agree_with_the_sweep(name):
    """Every dense kernel is within 1e-12 relative of the sweep,
    maxdet_factor is bitwise the sweep's, and a factor whose cache its
    kernels filled gives the bits of a cold copy.  A structure that is
    not admitted sweeps, bitwise."""
    st = STRUCTURES[name]
    ref = swept(st)
    inputs = kernel_inputs(ref, np.random.default_rng(st.n))
    got, want = ten_kernels(st, *inputs), ten_kernels(ref, *inputs)
    for kernel in want:
        if kernel == "maxdet_factor" or st.dense is None:
            assert got[kernel].tobytes() == want[kernel].tobytes(), kernel
        else:
            scale = np.max(np.abs(want[kernel]))
            assert np.max(np.abs(got[kernel] - want[kernel])) <= 1e-12 * scale, kernel
    if st.dense is not None:
        warm = cholesky(SymSparse(st, inputs[2])).L
        y = SymSparse(st, inputs[3])
        for kernel in (factor.inverse_forward_map, factor.inverse_adjoint_map,
                       factor.forward_map, factor.adjoint_map):
            first = kernel(warm, y).vals
            cold = kernel(LowerSparse(st, warm.vals.copy()), y).vals
            assert first.tobytes() == cold.tobytes() == kernel(warm, y).vals.tobytes()
        assert set(warm._panels) == {st.dense}


@pytest.mark.parametrize("name", sorted(n for n, st in STRUCTURES.items() if st.dense is not None))
def test_dense_inverse_maps_multiply_by_the_inverse_block(name):
    """On a dense block the two inverse maps multiply by the unmasked
    ``np.linalg.inv`` of L's block, not by ``tri_inverse``'s L^-1 (its
    lower triangle): li @ X @ li^T and li^T @ S @ li, bit for bit.  The
    factor's subdiagonal entries are as large as its pivots, so LAPACK
    pivots and leaves roundoff above li's diagonal."""
    st = STRUCTURES[name]
    rng = np.random.default_rng(st.n)
    ell = random_lower(st, rng, 0.5, 1.0, 1.0)
    x, s = (SymSparse(st, rng.standard_normal(st.dim)) for _ in range(2))
    li = np.linalg.inv(_gather(ell.vals, st.dense))
    got = factor.inverse_forward_map(ell, x).vals, factor.inverse_adjoint_map(ell, s).vals
    want = (_lower(st.dense, li @ factor._full(x.vals, st) @ li.T),
            _lower(st.dense, li.T @ factor._full(s.vals, st) @ li))
    for mine, theirs in zip(got, want):
        assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("name", sorted(n for n, st in STRUCTURES.items()
                                        if st.dense is not None and st.n > 1))
def test_stacks_are_each_members_own_call(name):
    """Stacks of 1, 3 and stack_rows + 2 members (swept in chunks): the
    stacked maps are each member's own call byte for byte."""
    st = STRUCTURES[name]
    rng = np.random.default_rng(st.n)
    ell = LowerSparse(st, well_conditioned_lower(st, rng))
    for m in (1, 3, st.stack_rows + 2):
        zs = rng.standard_normal((m, st.dim))
        for kernel in (forward_map, adjoint_map):
            got = kernel(ell, SymSparse(st, zs)).vals
            assert got.shape == (m, st.dim)
            for row, one in zip(got, zs):
                assert row.tobytes() == kernel(ell, SymSparse(st, one)).vals.tobytes()


def raised(x):
    with pytest.raises(NotPositiveDefinite) as e:
        cholesky(x)
    return e.value


def failure(x):
    e = raised(x)
    return e.node, e.value


@pytest.mark.parametrize("name", sorted(n for n, st in STRUCTURES.items() if st.dense is not None))
@pytest.mark.parametrize("value", [-1.0, 5e-14])
def test_failing_node_is_the_sweeps(name, value, monkeypatch):
    """A diagonal entry of an interior point set to -1 or to 5e-14 (which
    LAPACK may accept, below the floor), at every node in turn: cholesky
    raises with no sweep, and the error sweeps once, when its node, pivot
    or message (in turn) is first read, for the sweep's node and pivot."""
    st = STRUCTURES[name]
    ref = swept(st)
    xv = kernel_inputs(ref, np.random.default_rng(st.n))[2]
    sweeps = []
    up = factor._up
    monkeypatch.setattr(factor, "_up", lambda s: sweeps.append(s) or up(s))
    for q in range(st.n):
        v = xv.copy()
        v[st.bar_ptr[q]] = value
        want = raised(SymSparse(ref, v))
        sweeps.clear()
        e = raised(SymSparse(st, v))
        assert sweeps == [], q
        (lambda: e.node, lambda: e.value, lambda: str(e))[q % 3]()
        assert sweeps == [st], q
        assert (e.node, e.value, str(e)) == (want.node, want.value, str(want)), q
        assert sweeps == [st], q


def test_failure_the_sweep_does_not_find(monkeypatch):
    """Where the dense step fails but roundoff lifts every sweep pivot
    over its floor, cholesky still fails, at the node whose pivot is
    nearest to its floor."""
    st = STRUCTURES["n48-m8-b3-s2"]
    ref = swept(st)
    xv = kernel_inputs(ref, np.random.default_rng(5))[2]
    pivots = cholesky(SymSparse(ref, xv)).L.diag ** 2
    floor = factor.PIVOT_EPS * (1.0 + np.abs(xv[st.bar_ptr[:-1]]))
    q = int(np.argmin(pivots / floor))
    monkeypatch.setattr(factor, "_potrf", lambda a, floor: (np.eye(a.shape[-1]) + 0 * a,
                                                            np.ones(a.shape[:-2], dtype=bool)))
    node, value = failure(SymSparse(st, xv))
    assert (node, value) == (st.ordering.sigma[q], pivots[q])


def test_failure_pickles_with_its_node():
    """A failure raised before its node is found pickles with the node and
    pivot, found then, and so does one swept for them."""
    st = STRUCTURES["n48-m8-b3-s2"]
    ref = swept(st)
    v = kernel_inputs(ref, np.random.default_rng(5))[2]
    v[st.bar_ptr[7]] = -1.0
    want = failure(SymSparse(ref, v))
    for e in (raised(SymSparse(st, v)), raised(SymSparse(ref, v))):
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is NotPositiveDefinite
        assert (back.node, back.value, str(back)) == (*want, str(e))
