import numpy as np
import pytest

from homcone.errors import OrderingError, SingularFactor, StructuralError
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
    to_triplets,
    tri_inverse,
    tri_mul,
)
from homcone.pattern import (
    EliminationTree,
    Ordering,
    OrderingClass,
    SparsityPattern,
    build_etree,
    lbfs_order,
    random_homogeneous_pattern,
    verify_ordering,
)

from helpers import (benchmark_structures, check_chain, random_lower, random_structure, random_sym,
                     structure_digest, sweep_only)


def vinberg_lower(struct, l11, l22, l31, l32, l33):
    return from_triplets(struct, [(0, 0, l11), (1, 1, l22), (2, 0, l31),
                                  (2, 1, l32), (2, 2, l33)], lower=True)


class TestStructure:
    def test_rejects_general_chordal(self):
        tri = SparsityPattern(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(OrderingError):
            Structure(tri, Ordering.identity(4))

    def test_rejects_non_homogeneous_pattern(self):
        c4 = SparsityPattern(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(OrderingError):
            Structure.from_pattern(c4)

    def test_rejects_inconsistent_etree(self):
        # the tree 0 -> 1 -> 2 has three ancestor pairs; the pattern has two
        pat = SparsityPattern(3, [(0, 2), (1, 2)])
        with pytest.raises(OrderingError, match="trivially perfect"):
            Structure(pat, Ordering.identity(3), EliminationTree.from_parent([1, 2, 2]))
        assert Structure(pat, Ordering.identity(3),
                         EliminationTree.from_parent([2, 2, 2])).nnz == 2

    def test_rejects_size_mismatch(self, vinberg_pattern):
        with pytest.raises(OrderingError, match="ordering on 4 vertices"):
            Structure(vinberg_pattern, Ordering.identity(4))
        with pytest.raises(OrderingError, match="ordering on 2 vertices"):
            Structure(vinberg_pattern, Ordering.identity(2))

    def test_single_vertex(self):
        s = Structure(SparsityPattern(1, []), Ordering.identity(1))
        assert s.nnz == 0 and s.depth == (0,) and list(s.bar_rows) == [0]

    def test_accepts_exactly_trivially_perfect_orderings(self, rng):
        """The edge-to-chain check agrees with verify_ordering, and with a
        supplied tree accepts exactly the tree of lowest higher neighbours,
        which is build_etree's."""
        verdicts = []
        for _ in range(400):
            n = int(rng.integers(1, 8))
            if rng.random() < 0.5:
                pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
                edges = [e for e in pairs if rng.random() < rng.random()]
            else:  # comparability graph of a random forest
                parent = [int(rng.integers(v, n)) for v in range(n)]
                edges = set()
                for v in range(n):
                    w = v
                    while parent[w] != w:
                        w = parent[w]
                        edges.add((v, w))
                label = rng.permutation(n)
                edges = [(int(label[i]), int(label[j])) for i, j in edges]
            pat = SparsityPattern(n, edges)
            res = lbfs_order(pat)
            if res.accepted and rng.random() < 0.5:
                ordering = res.ordering
            else:
                ordering = Ordering.from_sigma([int(v) for v in rng.permutation(n)])
            good = verify_ordering(pat, ordering) is OrderingClass.TRIVIALLY_PERFECT_PEO
            verdicts.append(good)
            if good:
                s = Structure(pat, ordering)
                assert s.nnz == len(edges)
                assert all(s.slot(i, j) >= 0 for i, j in edges)
            else:
                with pytest.raises(OrderingError):
                    Structure(pat, ordering)
            pos = ordering.sigma_inv
            lowest = [min((w for w in pat.adjacency[v] if pos[w] > pos[v]),
                          key=pos.__getitem__, default=v) for v in range(n)]
            assert build_etree(pat, ordering).parent == tuple(lowest)
            # a random tree in the ordering: accepted iff it is that tree
            parent = [ordering.sigma[int(rng.integers(pos[v], n))] for v in range(n)]
            tree = EliminationTree.from_parent(parent)
            if good and tree.parent == tuple(lowest):
                Structure(pat, ordering, tree)
            else:
                with pytest.raises(OrderingError):
                    Structure(pat, ordering, tree)
        assert min(sum(verdicts), len(verdicts) - sum(verdicts)) > 100

    def test_from_pattern(self, paper12_pattern):
        s = Structure.from_pattern(paper12_pattern)
        assert s.n == 12 and s.nnz == 26

    def test_layout_chains(self, vinberg_struct):
        assert list(vinberg_struct.bar_ptr) == [0, 2, 4, 5]
        assert list(vinberg_struct.bar_rows) == [0, 2, 1, 2, 2]
        assert vinberg_struct.depth == (1, 1, 0)

    def test_slot_errors(self, vinberg_struct):
        with pytest.raises(StructuralError):
            vinberg_struct.slot(1, 0)


def test_cliques_are_the_leaf_blocks(rng):
    """Made on first use and kept: per leaf depth, ascending, each leaf's
    closed ancestor block of slots, the leaves in position order, Σ over
    leaves of (depth+1)^2 slots."""
    for trial, branching in enumerate([1.05, 2.0, 4.0] * 2):
        st = random_structure(int(rng.integers(1, 60)), seed=7500 + trial, branching=branching)
        assert st._cliques is None
        x = random_sym(st, rng)
        d = to_dense(x)
        parents = {p for q, p in enumerate(st.pos_parent) if p != q}
        leaves = [q for q in range(st.n) if q not in parents]
        want = {}
        for q in leaves:
            v = [st.ordering.sigma[r] for r in st.bar_rows[st.col(q)]]
            want.setdefault(st.depth[q], []).append(d[np.ix_(v, v)])
        got = [x.vals[t] for t in st.cliques]
        assert len(got) == len(want)
        for blocks, depth in zip(got, sorted(want)):
            assert np.array_equal(blocks, np.array(want[depth]))
        assert sum(t.size for t in st.cliques) == sum((st.depth[q] + 1) ** 2 for q in leaves)
        assert st.cliques is st.cliques


class TestProject:
    def test_identity_fixed_point(self, vinberg_struct):
        assert np.allclose(to_dense(project(np.eye(3), vinberg_struct)), np.eye(3))

    def test_vinberg_inverse_entries(self, vinberg_struct, vinberg_x):
        xinv = np.linalg.inv(to_dense(vinberg_x))
        p = project(xinv, vinberg_struct)
        d = to_dense(p)
        assert np.allclose(np.diag(d), [5 / 7, 3 / 7, 6 / 7])
        assert np.isclose(d[2, 0], -3 / 7) and np.isclose(d[2, 1], -2 / 7)
        assert d[1, 0] == 0.0  # dropped: outside the pattern

    def test_idempotent(self, vinberg_struct, rng):
        x = random_sym(vinberg_struct, rng)
        again = project(to_dense(x), vinberg_struct)
        assert np.allclose(again.vals, x.vals)

    def test_asymmetry_rejected(self, vinberg_struct):
        bad = np.eye(3)
        bad[0, 2] = 1e-6
        with pytest.raises(StructuralError):
            project(bad, vinberg_struct)

    def test_adjoint_of_inclusion(self, rng):
        # <project(Y), X> = Tr(Y X) for dense Y and patterned X
        for trial in range(25):
            s = random_structure(int(rng.integers(2, 20)), seed=trial)
            y = rng.standard_normal((s.n, s.n))
            y = 0.5 * (y + y.T)
            x = random_sym(s, rng)
            lhs = inner(project(y, s), x)
            rhs = float(np.trace(y @ to_dense(x)))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestInner:
    def test_identity(self, vinberg_struct):
        assert inner(identity(vinberg_struct), identity(vinberg_struct)) == 3.0

    def test_vinberg_trace(self, vinberg_struct, vinberg_x):
        p = project(np.linalg.inv(to_dense(vinberg_x)), vinberg_struct)
        assert np.isclose(inner(vinberg_x, p), 3.0)

    def test_zero(self, vinberg_struct, vinberg_x):
        z = SymSparse(vinberg_struct, np.zeros(vinberg_struct.dim))
        assert inner(vinberg_x, z) == 0.0

    def test_pattern_mismatch(self, vinberg_struct, rng):
        other = random_structure(3, seed=5)
        with pytest.raises(StructuralError):
            inner(identity(vinberg_struct), identity(other))


class TestTriMul:
    def test_times_identity(self, vinberg_struct, rng):
        l = random_lower(vinberg_struct, rng)
        eye = vinberg_lower(vinberg_struct, 1, 1, 0, 0, 1)
        assert np.allclose(tri_mul(l, eye).vals, l.vals)

    def test_vinberg_square(self, vinberg_struct):
        l = vinberg_lower(vinberg_struct, 1, 1, 2, 3, 1)
        sq = tri_mul(l, l)
        assert np.allclose(to_dense(sq)[np.tril_indices(3)],
                           to_dense(vinberg_lower(vinberg_struct, 1, 1, 4, 6, 1))[np.tril_indices(3)])

    def test_matches_dense_no_fill(self, rng):
        for trial in range(30):
            s = random_structure(int(rng.integers(2, 21)), seed=100 + trial)
            a, b = random_lower(s, rng), random_lower(s, rng)
            dense = to_dense(a) @ to_dense(b)
            got = to_dense(tri_mul(a, b))
            # exact equality of the full dense product certifies zero fill
            assert np.allclose(got, dense, rtol=1e-10, atol=1e-12)


class TestTriInverse:
    def test_identity(self, vinberg_struct):
        eye = vinberg_lower(vinberg_struct, 1, 1, 0, 0, 1)
        assert np.allclose(tri_inverse(eye).vals, eye.vals)

    def test_vinberg_closed_form(self, vinberg_struct):
        l = vinberg_lower(vinberg_struct, 1, 1, 2, 3, 1)
        inv = tri_inverse(l)
        expect = vinberg_lower(vinberg_struct, 1, 1, -2, -3, 1)
        assert np.allclose(inv.vals, expect.vals)

    def test_inverse_property(self, rng):
        for trial in range(30):
            s = random_structure(int(rng.integers(2, 21)), seed=200 + trial)
            l = random_lower(s, rng)
            prod = tri_mul(l, tri_inverse(l))
            eye = np.zeros(s.dim)
            eye[s.bar_ptr[:-1]] = 1.0
            assert np.allclose(prod.vals, eye, atol=1e-12)

    def test_matches_dense_no_fill(self, rng):
        for trial in range(20):
            s = random_structure(int(rng.integers(2, 31)), seed=300 + trial)
            l = random_lower(s, rng)
            dense_inv = np.linalg.inv(to_dense(l))
            assert np.allclose(to_dense(tri_inverse(l)), dense_inv,
                               rtol=1e-10, atol=1e-11)

    def test_singular_names_column(self, vinberg_struct):
        l = vinberg_lower(vinberg_struct, 1, 0, 2, 3, 1)
        with pytest.raises(SingularFactor) as e:
            tri_inverse(l)
        assert e.value.column == 1


def test_tridiagonal_counterexample():
    """On a chordal-but-not-homogeneous pattern the inverse factor fills in:
    the closure claims really do need trivially perfect orderings."""
    x = np.diag([2.0, 2.0, 2.0, 2.0])
    for i in range(3):
        x[i + 1, i] = x[i, i + 1] = -1.0
    l = np.linalg.cholesky(x)
    linv = np.linalg.inv(l)
    assert abs(linv[2, 0]) > 1e-3 and abs(linv[3, 0]) > 1e-4  # fill below the band


class TestTriplets:
    def test_rejects_outside_pattern(self, vinberg_struct):
        with pytest.raises(StructuralError):
            from_triplets(vinberg_struct, [(1, 0, 1.0)])

    def test_duplicate(self, vinberg_struct):
        with pytest.raises(StructuralError):
            from_triplets(vinberg_struct, [(2, 0, 1.0), (0, 2, 2.0)])

    @pytest.mark.parametrize("entry, base", [
        ((3, 3, 1.0), 0), ((-1, -1, 1.0), 0), ((0.5, 0, 1.0), 0),
        ((0, 0, 1.0), 1), ((4, 1, 1.0), 1), ((np.nan, 1, 1.0), 1),
    ])
    def test_rejects_bad_vertex_index(self, vinberg_struct, entry, base):
        good = [(base, base, 1.0)]
        with pytest.raises(StructuralError, match="needs integer vertex indices"):
            from_triplets(vinberg_struct, good + [entry], base=base)

    def test_messages_name_entries_as_given(self, vinberg_struct):
        with pytest.raises(StructuralError, match=r"duplicate entry \(1,3\)"):
            from_triplets(vinberg_struct, [(3, 1, 1.0), (1, 3, 2.0)], base=1)
        with pytest.raises(StructuralError, match=r"entry \(2,1\) is not in"):
            from_triplets(vinberg_struct, [(1, 1, 1.0), (2, 1, 2.0)], base=1)

    def test_to_triplets_matches_slot_walk(self, rng):
        for n, seed in ((1, 1), (9, 2), (30, 3)):
            gen = random_structure(n, seed=seed).pattern
            label = rng.permutation(n)
            st = Structure.from_pattern(SparsityPattern(
                n, [(label[i], label[j]) for i, j in gen.edges]))
            x = random_sym(st, rng)
            sigma = st.ordering.sigma
            walk = [[sigma[st.bar_rows[k]] + 1, sigma[q] + 1, float(x.vals[k])]
                    for q in range(n) for k in range(st.bar_ptr[q], st.bar_ptr[q + 1])]
            trips = to_triplets(x)
            assert trips == walk
            assert all(type(i) is int and type(j) is int and type(v) is float
                       for i, j, v in trips)
            assert np.array_equal(from_triplets(st, trips, base=1).vals, x.vals)
            rev = np.array(trips)[::-1]
            assert np.array_equal(from_triplets(st, rev, base=1).vals, x.vals)

    def test_empty_and_malformed(self, vinberg_struct):
        assert not from_triplets(vinberg_struct, []).vals.any()
        with pytest.raises(StructuralError):
            from_triplets(vinberg_struct, [(0, 0)])
        with pytest.raises(StructuralError):
            from_triplets(vinberg_struct, [("a", 0, 1.0)])

    def test_round_trip(self, vinberg_struct, rng):
        x = random_sym(vinberg_struct, rng)
        d = to_dense(x)
        trips = [(i, j, d[i, j]) for i in range(3) for j in range(i + 1)
                 if d[i, j] != 0 or i == j]
        back = from_triplets(vinberg_struct, trips)
        assert np.allclose(project(d, vinberg_struct).vals, back.vals)
        assert np.allclose(back.vals, x.vals)


def test_dense_of_identity(vinberg_struct):
    assert np.allclose(to_dense(identity(vinberg_struct)), np.eye(3))


def test_arithmetic_and_norm(vinberg_struct, rng):
    x = random_sym(vinberg_struct, rng)
    y = random_sym(vinberg_struct, rng)
    assert np.allclose((x + y).vals, x.vals + y.vals)
    assert np.allclose((x - y).vals, x.vals - y.vals)
    assert np.allclose((2.0 * x).vals, 2.0 * x.vals)
    assert np.isclose(norm(x) ** 2, inner(x, x))
    assert np.isclose(norm(x), np.linalg.norm(to_dense(x)))


def test_operations_leave_inputs_untouched(rng):
    s = random_structure(12, seed=9)
    l = random_lower(s, rng)
    snapshot = l.vals.copy()
    tri_mul(l, l)
    tri_inverse(l)
    assert np.array_equal(l.vals, snapshot)


CHAIN_STRUCTURES = {
    "n=1": lambda: Structure(SparsityPattern(1, []), Ordering.identity(1)),
    "2-path": lambda: Structure.from_pattern(SparsityPattern(2, [(0, 1)])),
    "7-star": lambda: Structure.from_pattern(SparsityPattern(7, [(0, k) for k in range(1, 7)])),
    # the complete graph on 301 vertices: its elimination tree is a path
    # 300 deep
    "300-deep": lambda: Structure.from_pattern(
        SparsityPattern(301, [(i, j) for i in range(301) for j in range(i)])),
    "branching 1.05": lambda: random_structure(80, seed=71, branching=1.05),
    "branching 4": lambda: random_structure(200, seed=72, branching=4.0),
}


@pytest.mark.parametrize("name", CHAIN_STRUCTURES)
def test_chain_windows_are_the_element_chain(name, rng):
    """The chain products with L and with L^-1 are the element-by-element
    chain within 1e-12 relative, on level batches and where a chain block
    takes some members (the 300-deep path is one)."""
    st = CHAIN_STRUCTURES[name]()
    assert any(b.chain is not None for b in st.batches) == (name in ("300-deep", "branching 1.05"))
    check_chain(st, rng)


def _topological_forest(n, seed):
    """A random forest comparability pattern in a random ordering that puts
    every vertex below its ancestors but is no postordering: siblings'
    subtrees interleave."""
    gen = random_homogeneous_pattern(n, seed, branching=3.0)
    depth = np.zeros(n, dtype=int)
    for v in range(n - 1, -1, -1):
        p = gen.etree.parent[v]
        depth[v] = 0 if p == v else depth[p] + 1
    order = np.lexsort((np.random.default_rng(seed).random(n), -depth))
    return Structure(gen.pattern, Ordering.from_sigma(order.tolist()))


def _capped_levels():
    """A 30-vertex path over 3 children of 50 leaves each: the 150 leaves,
    at depth 31, split into level batches of at most 32, some of them
    between two siblings."""
    parent = list(range(1, 30)) + [29]
    for c in range(3):
        kid = len(parent)
        parent.append(0)
        parent.extend([kid] * 50)
    edges = set()
    for v in range(len(parent)):
        a = v
        while parent[a] != a:
            a = parent[a]
            edges.add((v, a))
    return Structure.from_pattern(SparsityPattern(len(parent), sorted(edges)))


DIGEST_STRUCTURES = {
    "branching 4": lambda: random_structure(200, seed=72, branching=4.0),
    "branching 1.05": lambda: random_structure(300, seed=71, branching=1.05),
    "topological": lambda: _topological_forest(400, seed=73),
    "capped levels": _capped_levels,
    "300-deep": CHAIN_STRUCTURES["300-deep"],
}

# Digests of every Structure table (helpers.structure_digest), as
# (schedule, slot layout).  Both were re-pinned when level batches came to
# list their nodes by descending number of children, each level grouped
# under its parents in that order: the column tables (bar_ptr, bar_rows,
# weights, depth, pos_parent) are those of the compile before, whose
# level order was a preorder, and every kernel gives the same bits on
# both; the batches' nodes, ``up``, ``kids`` and ``cols`` follow the new
# order.  The slot layout was re-pinned again when batches stopped
# keeping their diagonal slots (``Batch.diag``), by the digest without
# them on the compile that still kept them; the schedule digests did not
# move.
STRUCTURE_DIGESTS = {
    "solve-mixed n=16": ("36ad487e2f4b946bd2bec8ead997b734e4588dbde5afd0e270a702504ad387ff",
                         "9794da378b1b9a6e1720afb6c026fbe70da5d128a35057489b0b91e58d426505"),
    "solve-mixed n=24": ("9b9088d9e5de66d806cc87013c413f28b96a4e99a5b00d3fce183725cbcdf528",
                         "aa1931c4b0edaa206baae5895c676dc6c5120106c3e36e18a2e05f56d6fac230"),
    "solve-mixed n=48": ("9256e7b41a36ca1583226ce0e5c8d73660b8b0c286b11017dbd16bb6aa3ce6b6",
                         "eeb0003708c9817c4c9dc38c029ac2ab5df87690f030b5a9d791ee54c21a3aac"),
    "kernels-wide n=16": ("c585f6794653de5700f8b3ae95d812f948365b3b473cb0cee6a02fda0053a001",
                          "10c54107cad7137240413a451f3b3d21e6ff004a5f9dfb89d69aaf3e578aa216"),
    "kernels-wide n=16000": ("494d4644adb79418f7eb82834bf53800a0ed31cb6b68cfc1a26b6063d3751555",
                             "6e3f45cf3b4ba6831793ac078ab5e485ed82efd163770d81dfa69386c88521dc"),
    "kernels-deep n=12": ("341604bae13ba2fd5fc702c418ac340a37a22173f7d97d92ec6d74b29dfa5187",
                          "b39058a57ed74814b6c2f22f00bc4d3ba82b93ef892640f38398da6a63752a5f"),
    "kernels-deep n=1200": ("7a0d64d262e627c33a88ac1f9880b6d9a100ffac108ec1afb25c583fb2d793b9",
                            "ee3e625756032d264cb00d2854596139fac59789e1b78f934108dbeba70fc55e"),
    "branching 4": ("3dfb3b3a899c73c141bd25167b76c7a6f8f433a852d7f276f74bf15132ae0747",
                    "f859c5794bb2d6c7f1dc3f74b65770464e5a85e02b0b28f5e014107af8a8d0ff"),
    "branching 1.05": ("4d8cca3fab5463bc412c613f88435668a50e24b59f19812ab680a378155cbf95",
                       "b1c96f668e34a917995f6c4ac4a6245f3ecea9440d140e832b7ee38889861af3"),
    "topological": ("487edb5913025a0421f91ea72686d630344a00ff463230c797bc089c8d4b0ffc",
                    "46b84da1be9def62c05a233c7b08e7db5dc34ef9a7e8f70a16f59a1d0f038080"),
    "capped levels": ("0f93170884b9f719e4c345b9fe8ad70ac814a5377bddb4344bc4ed6390b4dd04",
                      "4012940d41c49c655d148bf358ad1fda35b9f157b331a40bc37f96bf06f1a0f2"),
    "300-deep": ("6bab2039c5ef7e6c4432d105e1007408235c3645a0b75c1eb2a668ff9c050714",
                 "8fbabcbbf837bd80abbaabaf0a6c81fe6fdc087ab8d11aa539557b96a6d436c1"),
}


def test_structure_tables_are_pinned():
    """Every table of the benchmark's 7 structures and of a few random
    ones, including which indices are slices, is what it was, compiled
    with admission off (test_dense.py checks the dense block and the
    stack size it sets)."""
    with sweep_only():
        got = {f"{w} n={st.n}": structure_digest(st) for w, st in benchmark_structures()}
        got.update((name, structure_digest(make())) for name, make in DIGEST_STRUCTURES.items())
    assert len(got) == 12
    assert got == STRUCTURE_DIGESTS
