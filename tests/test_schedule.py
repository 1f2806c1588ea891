"""The level schedule: batch layout, failing-node rules, and all ten
kernels on edge-case trees against the dense oracles."""

import hashlib

import numpy as np
import pytest

from homcone import matrix
from homcone.densecheck import dense_chol, dense_inverse, dense_maxdet_completion
from homcone.errors import NotCompletable, NotPositiveDefinite, SingularFactor
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
    identity,
    project,
    to_dense,
    tri_inverse,
    tri_mul,
)

from helpers import (element_chain, forest_structure, kernel_inputs, random_completable,
                     random_lower, random_spd, random_structure, random_sym, sweep_only,
                     ten_kernels)


@pytest.fixture(autouse=True)
def _sweeps():
    """Every structure these tests compile has admission off: they are
    about the schedule the sweep runs, not the dense step of small trees."""
    with sweep_only():
        yield


EDGE_CASES = {
    "single vertex": [0],
    "diagonal only": [0, 1, 2, 3, 4],
    "path": [1, 2, 3, 4, 5, 5],
    "star": [5, 5, 5, 5, 5, 5],
    # heights 3, 1, 0 and 2
    "forest of unequal trees": [1, 2, 3, 3, 6, 6, 6, 7, 9, 11, 11, 11],
}


def close(got, want, tol=1e-10):
    scale = max(1.0, float(np.max(np.abs(want))))
    return np.allclose(got, want, rtol=tol, atol=tol * scale)


def check_all_kernels(st, rng):
    x = random_spd(st, rng)
    xd = to_dense(x)
    f = cholesky(x)
    assert close(to_dense(f.L), dense_chol(xd))
    assert close(projected_inverse(f).vals, project(dense_inverse(xd), st).vals)

    ell = random_lower(st, rng)
    ld = to_dense(ell)
    li = np.linalg.inv(ld)
    z, sm = random_sym(st, rng), random_sym(st, rng)
    zd, sd = to_dense(z), to_dense(sm)
    assert close(to_dense(forward_map(ell, z)), ld @ zd @ ld.T)
    assert close(adjoint_map(ell, sm).vals, project(ld.T @ sd @ ld, st).vals)
    assert close(to_dense(inverse_forward_map(ell, z)), li @ zd @ li.T)
    assert close(inverse_adjoint_map(ell, sm).vals, project(li.T @ sd @ li, st).vals)
    assert close(to_dense(dual_gradient(CholFactor(ell))), ld @ ld.T)
    other = random_lower(st, rng)
    assert close(to_dense(tri_mul(ell, other)), ld @ to_dense(other))
    assert close(to_dense(tri_inverse(ell)), li)

    s = random_completable(st, rng)
    lhat = to_dense(maxdet_factor(s).L)
    assert close(np.linalg.inv(lhat @ lhat.T), dense_maxdet_completion(s), 1e-8)


def node_by_node_forward(st, lv, xv, inverse=False):
    """forward_map (``inverse_forward_map`` with ``inverse``) one node at a
    time in position order, each element of a frontal update in a scalar
    operation order: (xii l_i l_j + w_i l_j) + l_i w_j, with w L times
    the column below the diagonal, and b22 - (g_i l_j + (l_i b_j) /
    l_ii), with g substituted down the ancestors' chain; children's blocks
    added in ascending position."""
    ptr, par = st.bar_ptr, st.pos_parent
    kids = [[q for q in range(st.n) if par[q] == p and q != p] for p in range(st.n)]
    below = xv.copy()  # X's columns below the diagonal
    below[ptr[:-1]] = 0.0
    w_all = None if inverse else element_chain(st, lv, below, "mul")
    out, blocks = np.zeros(st.dim), {}
    for q in range(st.n):
        a, z = int(ptr[q]), int(ptr[q + 1])
        lii, ls = lv[a], lv[a + 1:z]
        if inverse:
            f = np.zeros((z - a, z - a))
            f[:, 0] = xv[a:z]
        else:
            xii, w = xv[a], w_all[a + 1:z]
            f = np.empty((z - a, z - a))
            f[0, 0] = lii * lii * xii
            f[1:, 0] = f[0, 1:] = lii * (xii * ls + w)
            f[1:, 1:] = (xii * np.outer(ls, ls) + np.outer(w, ls)) + np.outer(ls, w)
        for c in kids[q]:
            f += blocks.pop(c)[1:, 1:]
        if inverse:
            b00, b01 = f[0, 0], f[1:, 0]
            g10 = (b01 - (b00 / lii) * ls) / lii
            f[1:, 1:] = f[1:, 1:] - (np.outer(g10, ls) + np.outer(ls, b01) / lii)
            y = g10.copy()
            for i, r in enumerate(st.bar_rows[a + 1:z]):
                y[i] /= lv[ptr[r]]
                y[i + 1:] -= y[i] * lv[ptr[r] + 1:ptr[r + 1]]
            out[a], out[a + 1:z] = b00 / (lii * lii), y
        else:
            out[a:z] = f[:, 0]
        blocks[q] = f
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_maps_are_bitwise_node_by_node(seed):
    """On structures without chain blocks, the level batches' frontal
    updates agree with the node-by-node sweep to 1e-12 relative.  They
    are not its bits: a batch's step sums each update element as u_i l_j
    + l_i u_j, with U = L X_h and X_h X's lower triangle, its diagonal
    halved, and multiplies by the reciprocal of a pivot where the
    node-by-node sweep divides by it."""
    rng = np.random.default_rng(seed)
    for st in (random_structure(80, seed=seed), random_structure(300, seed=seed, branching=6.0),
               forest_structure(EDGE_CASES["forest of unequal trees"])):
        assert all(b.chain is None for b in st.batches)
        ell, z = random_lower(st, rng), random_sym(st, rng)
        for kernel, inverse in ((forward_map, False), (inverse_forward_map, True)):
            want = node_by_node_forward(st, ell.vals, z.vals, inverse)
            err = np.abs(kernel(ell, z).vals - want).max()
            assert err <= 1e-12 * np.abs(want).max(), (kernel.__name__, st.n)


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_trees_match_dense_oracles(name, rng):
    check_all_kernels(forest_structure(EDGE_CASES[name]), rng)


def test_capped_batches_match_dense_oracles(rng, monkeypatch):
    """A tiny batch cap cuts levels into many batches, including between
    siblings, and the kernels still agree with the oracles."""
    monkeypatch.setattr(matrix, "BATCH_FLOATS", 20)
    for seed in range(4):
        st = random_structure(30, seed=500 + seed, branching=4.0)
        assert np.bincount(st.depth).max() > 1
        check_all_kernels(st, rng)


@pytest.mark.parametrize("cap", [20, matrix.BATCH_FLOATS])
def test_schedule_layout(cap, monkeypatch):
    monkeypatch.setattr(matrix, "BATCH_FLOATS", cap)
    st = random_structure(60, seed=7, branching=3.0)
    seen = np.concatenate([b.nodes for b in st.batches])
    assert sorted(seen.tolist()) == list(range(st.n))
    children = np.bincount([p for q, p in enumerate(st.pos_parent) if p != q], minlength=st.n)
    chained, batch_of = np.zeros(st.n, dtype=bool), np.zeros(st.n, dtype=int)
    for b in st.batches:
        chained[b.nodes], batch_of[b.nodes] = b.chain is not None, b.id
    fan = np.bincount([p for q, p in enumerate(st.pos_parent) if p != q and not chained[q]],
                      minlength=st.n)
    slot = np.arange(st.dim)
    for b in st.batches:
        # b supernodes of k columns each, whose gathered trapezoids hold
        # each column's diagonal slot at the top of the column
        assert b.k == (1 if b.chain is None else len(b.nodes)) and b.shape[0] * b.k == len(b.nodes)
        top = np.diagonal(matrix._gather(slot.astype(float), b)[..., :b.k, :], 0, -2, -1)
        assert np.array_equal(top, st.bar_ptr[b.nodes].reshape(-1, b.k))
        if b.chain is not None:
            # a fundamental chain bottom up, big enough to be blocked
            run = b.nodes.tolist()
            assert len(run) > 1 and sum((st.depth[q] + 1) ** 2 for q in run) >= cap
            assert [st.pos_parent[q] for q in run[:-1]] == run[1:]
            assert all(children[q] == 1 for q in run[1:]) and children[run[0]] != 1
            assert st.pos_parent[run[-1]] == run[-1] or children[st.pos_parent[run[-1]]] > 1
            w = st.depth[run[0]] + 1
            assert b.shape == (1, w, w)
            assert np.array_equal(slot[b.cols],
                                  np.concatenate([np.arange(st.dim)[st.col(q)] for q in run]))
            if b.parent >= 0:
                assert st.batches[b.parent].nodes[b.up].tolist() == [st.pos_parent[run[-1]]]
            continue
        d = int(st.depth[b.nodes[0]])
        assert all(st.depth[q] == d for q in b.nodes)
        assert len(b.nodes) <= max(1, cap // (d + 1) ** 2)
        assert b.shape == (len(b.nodes), d + 1, d + 1)
        assert np.array_equal(slot[b.cols], st.bar_ptr[b.nodes, None] + np.arange(d + 1))
        if d:
            parents = st.batches[b.parent].nodes[b.up]
            assert np.array_equal(parents, [st.pos_parent[q] for q in b.nodes])
        # by descending number of children in level batches
        assert (np.diff(fan[b.nodes]) <= 0).all()
    assert any(b.chain is not None for b in st.batches) == (cap == 20)
    # every extend-add adds into a slice of the parents' frontal blocks,
    # and each parent takes each child once, its level-batched children
    # in ascending position, however the cap cuts its sibling group
    taken = {q: [] for q in range(st.n)}
    for b in st.batches:
        for c, pl, ci in b.kids:
            assert type(pl) is slice
            kids = st.batches[c].nodes[ci] if st.batches[c].chain is None else st.batches[c].nodes[-1:]
            assert np.array_equal(b.nodes[pl], [st.pos_parent[q] for q in kids])
            for q in kids.tolist():
                taken[st.pos_parent[q]].append(q)
    for p, got in taken.items():
        assert sorted(got) == [q for q in range(st.n)
                               if st.pos_parent[q] == p != q and batch_of[q] != batch_of[p]]
        level = [q for q in got if not chained[q]]
        assert level == sorted(level)
    if cap == 20:
        # the cap cuts some sibling group, whose parent is then in two
        # child batches' ``kids``
        cut = [p for p in range(st.n)
               if len({c for b in st.batches for c, pl, ci in b.kids
                       if st.batches[c].chain is None and p in b.nodes[pl]}) > 1]
        assert cut
    # the ids are the sweep order: every batch after its parent's, and the
    # last child batch a top-down sweep visits is the one of highest id
    for b in st.batches:
        assert b.parent < b.id and all(c > b.id for c in b.children)
        assert b.last == (b.parent >= 0 and max(st.batches[b.parent].children) == b.id)


def test_kernel_bits_do_not_depend_on_the_level_cut(monkeypatch):
    """One branching-4 pattern compiled under two batch caps that cut its
    levels into different batches, neither forming a chain block: all ten
    kernels give SHA-256-equal values, so a node's bits depend neither on
    which batch it is in nor on where in it."""
    layouts = []
    for cap in (256, 512):
        monkeypatch.setattr(matrix, "BATCH_FLOATS", cap)
        st = random_structure(400, seed=3, branching=4.0)
        assert all(b.chain is None for b in st.batches)
        layouts.append(st)
    cuts = [[b.nodes.tolist() for b in st.batches] for st in layouts]
    assert cuts[0] != cuts[1] and len(cuts[0]) > len(cuts[1]) > st.height
    inputs = kernel_inputs(layouts[0], np.random.default_rng(29))
    digests = [{name: hashlib.sha256(v.tobytes()).hexdigest()
                for name, v in ten_kernels(st, *inputs).items()} for st in layouts]
    assert len(digests[0]) == 10 and digests[0] == digests[1]


@pytest.mark.parametrize("name", sorted(EDGE_CASES) + ["deep random"])
def test_bar_rows_are_ancestor_chains(name):
    if name == "deep random":
        st = random_structure(60, seed=3, branching=1.05)
    else:
        st = forest_structure(EDGE_CASES[name])
    for q in range(st.n):
        chain = [q]
        while st.pos_parent[chain[-1]] != chain[-1]:
            chain.append(st.pos_parent[chain[-1]])
        assert st.bar_rows[st.col(q)].tolist() == chain


# Two subtrees under root 6: 0 -> 2, 1 -> 2, 2 -> 6 and 3 -> 4 -> 5 -> 6.
# Depths: 3 at 3; 0, 1, 4 at 2; 2, 5 at 1; 6 at 0.
TWO_SUBTREES = [2, 2, 6, 4, 5, 6, 6]


def diagonal(st, negative):
    v = identity(st).vals.copy()
    v[st.bar_ptr[list(negative)]] = -1.0
    return SymSparse(st, v)


def test_bottom_up_failure_is_lowest_position():
    """Nodes 2 (depth 1) and 3 (depth 3) both fail; an ascending sweep
    stops at 2 although the deeper 3 is reached first level by level."""
    st = forest_structure(TWO_SUBTREES)
    with pytest.raises(NotPositiveDefinite) as e:
        cholesky(diagonal(st, {2, 3}))
    assert e.value.node == 2 and e.value.value == -1.0


def test_top_down_failure_is_highest_position():
    """Nodes 2 (depth 1) and 4 (depth 2) both fail; a descending sweep
    stops at 4 although the shallower 2 is reached first level by level."""
    st = forest_structure(TWO_SUBTREES)
    with pytest.raises(NotCompletable) as e:
        maxdet_factor(diagonal(st, {2, 4}))
    assert e.value.node == 4 and e.value.value == -1.0


@pytest.mark.parametrize("zeros, want", [
    # every triangular solve blames the lowest-position zero pivot
    ({3, 5}, 3),
    ({0, 3}, 0),
    ({2, 4}, 2),
])
def test_singular_factor_column(zeros, want, rng):
    st = forest_structure(TWO_SUBTREES)
    v = random_lower(st, rng).vals.copy()
    v[st.bar_ptr[list(zeros)]] = 0.0
    ell = LowerSparse(st, v)
    y = random_sym(st, rng)
    for kernel in (lambda: inverse_forward_map(ell, y),
                   lambda: tri_inverse(ell),
                   lambda: inverse_adjoint_map(ell, y)):
        with pytest.raises(SingularFactor) as e:
            kernel()
        assert e.value.column == want


# 0 -> 3 -> 4 and 1 -> 2 -> 4: a valid ordering that is not post-order.
# Depth 2 is one batch whose nodes come grouped by parent, as [1, 0].
UNSORTED_LEVEL = [3, 2, 4, 4, 4]


def test_failure_in_unsorted_batch_is_chosen_by_position():
    st = forest_structure(UNSORTED_LEVEL)
    (b,) = [b for b in st.batches if st.depth[b.nodes[0]] == 2]
    assert b.nodes.tolist() == [1, 0]
    with pytest.raises(NotPositiveDefinite) as e:
        cholesky(diagonal(st, {0, 1}))
    assert e.value.node == 0
    with pytest.raises(NotCompletable) as e:
        maxdet_factor(diagonal(st, {0, 1}))
    assert e.value.node == 1


@pytest.mark.parametrize("cap", [20, matrix.BATCH_FLOATS])
def test_failing_node_on_random_forests(cap, monkeypatch):
    """Identity orderings of random forests are valid but rarely
    post-order.  With only diagonal entries every pivot is its own, so
    the failing nodes are the negated ones: cholesky reports the lowest,
    maxdet_factor the highest."""
    monkeypatch.setattr(matrix, "BATCH_FLOATS", cap)
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        parent = [int(rng.integers(v + 1, n)) if v < n - 1 and rng.random() < 0.8 else v
                  for v in range(n)]
        st = forest_structure(parent)
        bad = set(rng.choice(n, size=int(rng.integers(1, n // 2 + 2)), replace=False).tolist())
        with pytest.raises(NotPositiveDefinite) as e:
            cholesky(diagonal(st, bad))
        assert e.value.node == min(bad)
        with pytest.raises(NotCompletable) as e:
            maxdet_factor(diagonal(st, bad))
        assert e.value.node == max(bad)
