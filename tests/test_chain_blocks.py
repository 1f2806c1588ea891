"""Chain blocks: every kernel against the level schedule compiled
without them, the ancestor-chain products against the element-by-element
chain, the failing node and value inside a block, stacked blocks member
by member, and the panels and inverse a factor caches."""

import numpy as np
import pytest

from homcone import factor, matrix
from homcone.errors import NotCompletable, NotPositiveDefinite
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
from homcone.matrix import (LowerSparse, SymSparse, _chain_sweep, _panel, identity, tri_inverse,
                            tri_mul)

from helpers import (benchmark_structures, check_chain, forest_structure, kernel_inputs,
                     level_schedule, random_structure, sweep_only, ten_kernels,
                     well_conditioned_lower)


@pytest.fixture(autouse=True)
def _sweeps():
    """Every structure these tests compile has admission off: they are
    about the sweep's chain blocks, not the dense step of small trees."""
    with sweep_only():
        yield


def chain_blocks(st):
    return [b for b in st.batches if b.chain is not None]


@pytest.mark.parametrize("n, seed", [(300, 1), (600, 2), (1200, 6)])
def test_kernels_agree_with_the_level_schedule(n, seed):
    st = random_structure(n, seed=seed, branching=1.05)
    assert chain_blocks(st)
    ref = level_schedule(st)
    inputs = kernel_inputs(ref, np.random.default_rng(seed))
    got, want = ten_kernels(st, *inputs), ten_kernels(ref, *inputs)
    for name in want:
        scale = np.max(np.abs(want[name]))
        assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name


@pytest.mark.parametrize("n, seed", [(300, 1), (600, 2), (1200, 6)])
def test_chain_products_agree_with_the_element_chain(n, seed):
    """``_chain_sweep`` takes each chain block's columns in one frontal
    block and hands it down to the columns below it."""
    st = random_structure(n, seed=seed, branching=1.05)
    assert any(b.children for b in chain_blocks(st))
    check_chain(st, np.random.default_rng(seed))


def test_chain_products_on_two_chains(two_chains):
    check_chain(two_chains[0], np.random.default_rng(7))


def on_factor(ell, inputs):
    """The kernels that read a factor's chain-block panels on ``ell``,
    each output feeding a later one as in the benchmark sweep, and
    ``_chain_sweep`` with L and with L^-1."""
    st = ell.struct
    lv, lv2, xv, zv, sv = inputs
    z, s = SymSparse(st, zv), SymSparse(st, sv)
    proj = projected_inverse(CholFactor(ell))
    completed = maxdet_factor(proj)
    inv = tri_inverse(ell)
    out = {
        "forward_map": forward_map(ell, z).vals,
        "adjoint_map": adjoint_map(ell, s).vals,
        "inverse_forward_map": inverse_forward_map(ell, z).vals,
        "inverse_adjoint_map": inverse_adjoint_map(ell, s).vals,
        "projected_inverse": proj.vals,
        "maxdet_factor": completed.L.vals,
        "dual_gradient": dual_gradient(completed).vals,
        "own_dual_gradient": dual_gradient(CholFactor(ell)).vals,
        "tri_inverse": inv.vals,
        "tri_mul": tri_mul(ell, inv).vals,
        "tri_mul_other": tri_mul(ell, LowerSparse(st, lv2)).vals,
    }
    out["mul"] = _chain_sweep(st, ell, zv)
    out["inverse"] = _chain_sweep(st, inv, zv)
    return out


def factor_cases():
    """(structure, kernel inputs) on the branching-1.05 forests and the
    two chains."""
    for n, seed in ((300, 1), (600, 2), (1200, 6)):
        st = random_structure(n, seed=seed, branching=1.05)
        yield st, kernel_inputs(level_schedule(st), np.random.default_rng(seed))
    st = forest_structure(TWO_CHAINS)
    yield st, kernel_inputs(level_schedule(st), np.random.default_rng(4))


@pytest.mark.parametrize("case", range(4))
def test_cholesky_panels_are_the_ones_made_from_its_values(case):
    """``cholesky`` leaves each batch's trapezoids and triangle inverses
    in its factor's cache, and ``tri_inverse`` each batch's trapezoids of
    L^-1 in the inverse's; every kernel reading them gives what it gives
    on a copy of the factor's values, whose panels ``_panel`` makes itself
    from L."""
    st, inputs = list(factor_cases())[case]
    ell = cholesky(SymSparse(st, inputs[2])).L
    fresh = LowerSparse(st, ell.vals.copy())
    inv = tri_inverse(ell)
    fresh_inv = LowerSparse(st, inv.vals.copy())
    for mine, copy in ((ell, fresh), (inv, fresh_inv)):
        assert set(mine._panels) == set(st.batches)
        for b in st.batches:
            made = _panel(copy, b, mine is ell)
            assert [p if p is None else p.tobytes() for p in mine._panels[b]] == [
                p if p is None else p.tobytes() for p in made]
    # an empty cache again, filled by the kernels as they ask
    fresh = LowerSparse(st, ell.vals.copy())
    got, want = on_factor(ell, inputs), on_factor(fresh, inputs)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_one_sweep_inverts_each_block_twice(monkeypatch):
    """One sweep of the ten kernels on one factor inverts two matrices per
    chain block: ``cholesky``'s triangle, whose inverse the other kernels
    on its factor share, and ``maxdet_factor``'s."""
    st, inputs = next(factor_cases())
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    x, z, s = (SymSparse(st, v) for v in inputs[2:])
    f = cholesky(x)
    inverse_forward_map(f.L, forward_map(f.L, z))
    inverse_adjoint_map(f.L, adjoint_map(f.L, s))
    dual_gradient(maxdet_factor(projected_inverse(f)))
    tri_mul(f.L, tri_inverse(f.L))
    assert len(calls) == 2 * len(chain_blocks(st))


@pytest.fixture
def sweep_passes(monkeypatch):
    """The sweep passes the kernels run, by name, as they start them: the
    top-down and bottom-up passes ``factor`` runs itself, its chain
    products, and the top-down passes ``matrix`` runs (the chain
    products' and ``tri_inverse``'s)."""
    passes = []

    def counted(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: passes.append(name) or real(*a))

    for module, name in ((factor, "_down"), (factor, "_up"), (factor, "_chain_sweep"),
                         (matrix, "_down")):
        counted(module, name)
    return passes


def test_each_adjoint_map_is_one_top_down_sweep(sweep_passes, two_chains):
    """``adjoint_map``, on one matrix and on a stack, hands L's blocks
    down its own sweep, and so does ``inverse_adjoint_map`` L^-1's once
    the factor holds its inverse, which ``tri_inverse`` makes in one more
    top-down sweep: each call runs one ``_down`` pass, no bottom-up one
    and no ``_chain_sweep``."""
    st, _ = two_chains
    rng = np.random.default_rng(5)
    ell = LowerSparse(st, well_conditioned_lower(st, rng))
    for kernel, vals in ((adjoint_map, rng.standard_normal(st.dim)),
                         (adjoint_map, rng.standard_normal((3, st.dim))),
                         (lambda ell, _: tri_inverse(ell), None),
                         (inverse_adjoint_map, rng.standard_normal(st.dim))):
        sweep_passes.clear()
        kernel(ell, vals if vals is None else SymSparse(st, vals))
        assert sweep_passes == ["_down"], (kernel.__name__, vals is None or vals.shape)


def test_forward_map_is_one_chain_product_and_one_bottom_up_sweep(sweep_passes, two_chains):
    """``forward_map``, on one matrix and on a stack of 3 (one chunk of
    ``stack_rows``), runs one ``_chain_sweep``, whose one top-down pass
    makes U = L X_h for the whole stack, and one bottom-up pass."""
    st, _ = two_chains
    rng = np.random.default_rng(6)
    ell = LowerSparse(st, well_conditioned_lower(st, rng))
    for vals in (rng.standard_normal(st.dim), rng.standard_normal((3, st.dim))):
        sweep_passes.clear()
        forward_map(ell, SymSparse(st, vals))
        assert sweep_passes == ["_chain_sweep", "_down", "_up"], vals.shape


def test_forward_map_of_the_identity_is_the_dual_gradient():
    """With X = I, X_h = I / 2 and U = L / 2, so ``forward_map`` is L L^T,
    ``dual_gradient``'s product, within 1e-15 relative on every swept
    benchmark structure: the diagonal is halved once, not dropped or
    counted twice."""
    for name, st in benchmark_structures():
        assert st.dense is None, name
        ell = LowerSparse(st, well_conditioned_lower(st, np.random.default_rng(st.n)))
        want = dual_gradient(CholFactor(ell)).vals
        err = np.abs(forward_map(ell, identity(st)).vals - want).max()
        assert err <= 1e-15 * np.abs(want).max(), (name, st.n)


def test_inverse_maps_are_the_maps_of_the_inverse(monkeypatch, two_chains):
    """On every swept benchmark structure, in the benchmark's sweep of the
    ten kernels on one factor: the two inverse maps are ``forward_map``
    and ``adjoint_map`` of L^-1 bit for bit, ``tri_inverse`` makes L^-1
    once per factor, and the sweep inverts two matrices per chain block
    (see test_one_sweep_inverts_each_block_twice)."""
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    for name, st in [("two_chains", two_chains[0]), *benchmark_structures()]:
        x, z, s = (SymSparse(st, v) for v in kernel_inputs(st, np.random.default_rng(st.n))[2:])
        calls.clear()
        f = cholesky(x)
        fz, adj = forward_map(f.L, z), adjoint_map(f.L, s)
        z_back, s_back = inverse_forward_map(f.L, fz), inverse_adjoint_map(f.L, adj)
        dual_gradient(maxdet_factor(projected_inverse(f)))
        tri_mul(f.L, tri_inverse(f.L))
        assert len(calls) == 2 * len(chain_blocks(st)), name
        assert tri_inverse(f.L) is tri_inverse(f.L), name
        fresh = tri_inverse(LowerSparse(st, f.L.vals.copy()))
        assert fresh.vals.tobytes() == tri_inverse(f.L).vals.tobytes(), name
        assert z_back.vals.tobytes() == forward_map(fresh, fz).vals.tobytes(), name
        assert s_back.vals.tobytes() == adjoint_map(fresh, adj).vals.tobytes(), name


def test_lower_values_are_read_only(two_chains):
    """A factor's cached panels cannot go stale: its values refuse
    writes, also through a LowerSparse made on a writable array."""
    st, _ = two_chains
    v = identity(st).vals.copy()
    for ell in (cholesky(identity(st)).L, LowerSparse(st, v)):
        with pytest.raises(ValueError):
            ell.vals[0] = 2.0
        with pytest.raises(ValueError):
            ell.vals += 1.0


def test_a_factor_caches_only_panels_and_its_inverse():
    """The ancestor-chain products keep nothing on a factor but the
    panels of its batches, and L^-1 (``tri_inverse``, made before the
    products) with its own.  With L and with L^-1, on one array and on a
    stack, a product gives on a factor with a warm cache the bits it
    gives on a copy of the values with a cold one, and a second call
    gives the first call's bits: no product writes the cache."""
    assert LowerSparse.__slots__ == ("_panels", "_inverse")
    for name, st in [("two_chains", forest_structure(TWO_CHAINS)), *benchmark_structures()]:
        rng = np.random.default_rng(st.n)
        ell = LowerSparse(st, well_conditioned_lower(st, rng))
        inv = tri_inverse(ell)
        for x in (rng.standard_normal(st.dim), rng.standard_normal((3, st.dim))):
            for lower in (ell, inv):
                got = _chain_sweep(st, lower, x)
                cold = _chain_sweep(st, LowerSparse(st, lower.vals.copy()), x)
                again = _chain_sweep(st, lower, x)
                assert got.tobytes() == cold.tobytes() == again.tobytes(), name
        assert set(ell._panels) <= set(st.batches) and set(inv._panels) <= set(st.batches), name
        assert ell._inverse is inv and inv._inverse is None, name


def test_benchmark_structures_without_chain_blocks_are_bitwise():
    """Only the kernels-deep sweep tree has a chain long and deep enough
    to be blocked; on the other structures all ten kernels are bitwise
    those of the level schedule (whose batches the large cap leaves
    uncapped: a level batch's step gives each of its supernodes the bits
    of its own)."""
    blocked, plain = [], 0
    for name, st in benchmark_structures():
        if chain_blocks(st):
            blocked.append((name, st.n))
            continue
        plain += 1
        ref = level_schedule(st)
        inputs = kernel_inputs(ref, np.random.default_rng(st.n))
        got, want = ten_kernels(st, *inputs), ten_kernels(ref, *inputs)
        for kernel in want:
            assert np.array_equal(got[kernel], want[kernel]), (name, st.n, kernel)
    assert blocked == [("kernels-deep", 1200)] and plain == 6


# Two 40-node chains, 0..39 and 40..79, under the path 80..119: the path
# (depths 0-39) stays in level batches, and each chain (depths 40-79) is
# one chain block of k = 40 columns under d = 40 ancestors, whose 80 x 80
# blocks let a stack sweep 5 members at a time.
TWO_CHAINS = [*range(1, 40), 80, *range(41, 80), 80, *range(81, 120), 119]


@pytest.fixture(scope="module")
def two_chains():
    with sweep_only():
        st = forest_structure(TWO_CHAINS)
    assert [b.nodes.tolist() for b in chain_blocks(st)] == [list(range(40)), list(range(40, 80))]
    assert st.stack_rows == 5
    return st, level_schedule(st)


def diagonal(st, pivots):
    """The identity with the diagonal entries ``pivots`` ({node: value})."""
    v = identity(st).vals.copy()
    for q, a in pivots.items():
        v[st.bar_ptr[q]] = a
    return SymSparse(st, v)


def failure(kernel, error, x):
    with pytest.raises(error) as e:
        kernel(x)
    return e.value.node, e.value.value


@pytest.mark.parametrize("kernel, error", [(cholesky, NotPositiveDefinite),
                                           (maxdet_factor, NotCompletable)])
@pytest.mark.parametrize("pivots", [
    {20: -1.0},                 # a negative pivot mid-chain
    {20: 5e-14},                # a positive one below the floor, which LAPACK accepts
    {20: -1.0, 60: 5e-14},      # one in each chain block
    {60: -2.0, 100: 5e-14},     # one in a chain block, one in a level batch
    {0: -1.0}, {39: -1.0},      # each block's first and last columns
    {40: 5e-14}, {79: 5e-14},
])
def test_failure_inside_a_chain_block_is_the_level_schedules(kernel, error, pivots, two_chains):
    st, ref = two_chains
    assert failure(kernel, error, diagonal(st, pivots)) == failure(kernel, error,
                                                                   diagonal(ref, pivots))


@pytest.mark.parametrize("kernel, error, below", [(cholesky, NotPositiveDefinite, 19),
                                                  (maxdet_factor, NotCompletable, 21)])
def test_floor_inside_a_chain_block_is_each_nodes_own(kernel, error, below, two_chains):
    """Node 20 has a diagonal entry of 1e6 and a pivot of about 1e-8
    (cholesky: after its child 19; maxdet_factor: after its parent 21,
    each coupled to it by 1e3): below its own floor of 1e-7, above every
    other node's."""
    st, ref = two_chains
    got = []
    for s in (st, ref):
        x = diagonal(s, {20: 1e6 + 1e-8})
        x.vals[s.slot(20, below)] = 1e3
        got.append(failure(kernel, error, x))
    assert got[0] == got[1] and got[0][0] == 20 and 0 < got[0][1] < 1e-7


@pytest.mark.parametrize("node", [5, 20, 39, 60])
def test_failure_inside_a_chain_block_on_dense_values(node, two_chains):
    """A depressed diagonal entry in a dense interior point: the same node
    fails, with the level schedule's pivot to roundoff."""
    st, ref = two_chains
    _, _, xv, _, sv = kernel_inputs(ref, np.random.default_rng(node))
    for kernel, error, v in ((cholesky, NotPositiveDefinite, xv),
                             (maxdet_factor, NotCompletable, sv)):
        v = v.copy()
        v[st.bar_ptr[node]] -= 10.0 * (1.0 + np.abs(v).max())
        got = failure(kernel, error, SymSparse(st, v))
        want = failure(kernel, error, SymSparse(ref, v))
        assert got[0] == want[0] == node
        assert abs(got[1] - want[1]) <= 1e-12 * abs(want[1])


@pytest.mark.parametrize("m", [0, 1, 3])
def test_stacked_chain_blocks_are_each_members_own_call(m, two_chains):
    st, _ = two_chains
    rng = np.random.default_rng(m)
    ell = LowerSparse(st, well_conditioned_lower(st, rng))
    zs = rng.standard_normal((m, st.dim))
    for kernel in (forward_map, adjoint_map):
        got = kernel(ell, SymSparse(st, zs)).vals
        assert got.shape == (m, st.dim)
        for row, one in zip(got, zs):
            assert np.array_equal(row, kernel(ell, SymSparse(st, one)).vals)
