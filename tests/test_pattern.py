import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcone.densecheck import find_forbidden_subgraph, has_forbidden_subgraph
from homcone.errors import OrderingError, PatternError
from homcone.pattern import (
    EliminationTree,
    Ordering,
    OrderingClass,
    SparsityPattern,
    build_etree,
    homogeneous_extension,
    is_postordering,
    lbfs_order,
    random_homogeneous_pattern,
    single_child_runs,
    supernode_partition,
    verify_ordering,
    _ancestors,
    _lbfs_arrays,
    _lbfs_walk,
    _minimum_degree,
)

from conftest import PAPER12_PARENT, PAPER12_SIGMA
from helpers import benchmark_structures, forest_digest, is_induced_witness, scan_minimum_degree


def test_pattern_validation():
    with pytest.raises(PatternError):
        SparsityPattern(3, [(0, 0)])
    with pytest.raises(PatternError):
        SparsityPattern(3, [(0, 1), (1, 0)])
    with pytest.raises(PatternError):
        SparsityPattern(2, [(0, 2)])
    with pytest.raises(PatternError):
        SparsityPattern(0, [])
    p = SparsityPattern(4, [(0, 2), (1, 2)])
    assert p.degrees[2] == 2 and p.degrees[3] == 0
    assert p.has_edge(2, 0) and not p.has_edge(0, 1)
    assert p.n_edges == 2


@pytest.mark.parametrize("n, edges, message", [
    (3, [(0, 1), (0, 3), (1, 1)], "edge (0,3) out of range for n=3"),
    (3, [(0, 1), (-1, 2)], "edge (-1,2) out of range for n=3"),
    (3, [(0, 1), (2, 2), (0, 1)], "self-loop at vertex 2"),
    (3, [(0, 1), (1, 2), (1, 0), (0, 0)], "duplicate edge (0, 1)"),
    (4, [(2, 3), (0, 1), (0, 1), (3, 2)], "duplicate edge (0, 1)"),
    (4, [(0, 1), (1, 0), (9, 9)], "duplicate edge (0, 1)"),
    # within one edge: the range check, then the self-loop check
    (3, [(0, 1), (5, 5), (0, 1)], "edge (5,5) out of range for n=3"),
    (3, [(1, 1), (1, 1)], "self-loop at vertex 1"),
    (3, [(0, 1), (5.5, 1)], "edge (5.5,1) out of range for n=3"),
])
def test_constructor_names_the_first_bad_edge(n, edges, message):
    with pytest.raises(PatternError) as e:
        SparsityPattern(n, edges)
    assert str(e.value) == message
    with pytest.raises(PatternError) as e:
        SparsityPattern(n, iter(edges))
    assert str(e.value) == message
    if all(type(x) is int for edge in edges for x in edge):
        for dtype in (np.int64, np.int32):
            with pytest.raises(PatternError) as e:
                SparsityPattern(n, np.array(edges, dtype=dtype))
            assert str(e.value) == message


@pytest.mark.parametrize("n, edges, error", [
    (3, [(0, 1.5)], TypeError),     # rejected, not truncated
    (3, [(0.0, 1.0)], TypeError),
    (3, [("0", "1")], TypeError),
    (3, [(0, None)], TypeError),
    (3, [(0, 1), 5], TypeError),
    (3, [(0, 1, 2)], ValueError),
    (3, [(0,)], ValueError),
    (3.0, [(0, 1)], TypeError),
])
def test_constructor_rejects_malformed_edges(n, edges, error):
    with pytest.raises(error):
        SparsityPattern(n, edges)


def _stored(pattern, name):
    """Whether the pattern holds ``name`` already, without deriving it."""
    try:
        getattr(SparsityPattern, name).__get__(pattern)
    except AttributeError:
        return False
    return True


def test_constructor_stores_the_edge_arrays():
    path = [(0, 1), (2, 1), (3, 2)]
    p = SparsityPattern(4, path)
    assert not _stored(p, "adjacency") and not _stored(p, "edges")
    assert p.degrees.tolist() == [1, 2, 2, 1]
    assert p.neighbours.tolist() == [1, 0, 2, 1, 3, 2]
    for a in (p.degrees, p.neighbours):
        assert a.dtype == np.int64 and not a.flags.writeable
    assert p.adjacency == ((1,), (0, 2), (1, 3), (2,))
    assert [a.tolist() for a in p.edge_arrays()] == [[0, 1, 2], [1, 2, 3]]
    for other in (SparsityPattern(4, (e for e in path)), SparsityPattern(4, np.array(path)),
                  SparsityPattern(4, np.array(path, dtype=np.int32)),
                  SparsityPattern(4, np.array(path, dtype=np.uint8).T.copy().T),
                  SparsityPattern(4, [(True, 2), (0, True), (3, 2)])):
        assert other == p and np.array_equal(other.neighbours, p.neighbours)
    for n in (1, 5):
        empty = SparsityPattern(n, [])
        assert SparsityPattern(n, np.empty((0, 2), dtype=np.int32)) == empty
        assert empty.degrees.tolist() == [0] * n and empty.neighbours.shape == (0,)
        assert empty.adjacency == ((),) * n and empty.n_edges == 0 and not empty.edges


def test_both_constructors_give_the_same_pattern(rng):
    for n in (1, 2, 7, 48, 150):
        gen = random_homogeneous_pattern(n, seed=n, branching=2.0).pattern
        label = rng.permutation(n)
        edges = [(int(label[i]), int(label[j])) for i, j in gen.edges]
        rng.shuffle(edges)
        edges = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in edges]
        built = SparsityPattern(n, edges)
        wrapped = SparsityPattern.from_adjacency(n, built.adjacency)
        fresh = SparsityPattern(n, edges)
        assert built == wrapped == fresh and hash(built) == hash(wrapped) == hash(fresh)
        for name in ("degrees", "neighbours"):
            a, b = getattr(built, name), getattr(wrapped, name)
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
            assert not b.flags.writeable
        assert fresh.adjacency == wrapped.adjacency
        assert fresh.edges == wrapped.edges == {(min(e), max(e)) for e in edges}
        assert fresh.n_edges == wrapped.n_edges == len(edges)
        assert fresh.degrees.tolist() == [len(a) for a in wrapped.adjacency]
        for a, b in zip(fresh.edge_arrays(), wrapped.edge_arrays()):
            assert np.array_equal(a, b)
    assert SparsityPattern(3, [(0, 1)]) != SparsityPattern(3, [(0, 2)])
    assert SparsityPattern(3, [(0, 1)]) != SparsityPattern(2, [(0, 1)])


def test_set_up_reads_the_stored_arrays(rng):
    """Recognition and the Structure compile of an edge-list pattern (of
    at least _WALK_BELOW vertices) read the arrays its constructor stored:
    no adjacency tuples are built, and no array is made again."""
    from homcone.matrix import Structure

    gen = random_homogeneous_pattern(300, seed=8, branching=3.0).pattern
    label = rng.permutation(300)
    p = SparsityPattern(300, [(int(label[i]), int(label[j])) for i, j in gen.edges])
    deg, nbr = p.degrees, p.neighbours
    res = lbfs_order(p)
    assert res.accepted
    Structure(p, res.ordering, res.etree)
    assert verify_ordering(p, res.ordering) is OrderingClass.TRIVIALLY_PERFECT_PEO
    assert not _stored(p, "adjacency") and not _stored(p, "edges")
    assert p.degrees is deg and p.neighbours is nbr


class TestLbfs:
    def test_paper12_exact(self, paper12_pattern):
        res = lbfs_order(paper12_pattern)
        assert res.accepted
        sigma_1based = tuple(v + 1 for v in res.ordering.sigma)
        parent_1based = tuple(res.etree.parent[v] + 1 for v in range(12))
        assert sigma_1based == PAPER12_SIGMA
        assert parent_1based == PAPER12_PARENT
        assert res.etree.roots == (7,)  # vertex 8

    def test_single_vertex(self):
        res = lbfs_order(SparsityPattern(1, []))
        assert res.accepted
        assert res.ordering.sigma == (0,)
        assert res.etree.parent == (0,)

    def test_star(self):
        # center vertex 3, leaves first, all parents = center
        res = lbfs_order(SparsityPattern(4, [(0, 3), (1, 3), (2, 3)]))
        assert res.accepted
        assert res.ordering.sigma[-1] == 3
        assert all(res.etree.parent[v] == 3 for v in range(3))
        assert find_forbidden_subgraph(SparsityPattern(4, [(0, 3), (1, 3), (2, 3)])) is None

    def test_empty_graph_forest(self):
        res = lbfs_order(SparsityPattern(5, []))
        assert res.accepted
        assert all(res.etree.parent[v] == v for v in range(5))

    def test_rejects_c4(self):
        c4 = SparsityPattern(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        res = lbfs_order(c4)
        assert not res.accepted
        assert res.kind == "C4" and sorted(res.witness) == [0, 1, 2, 3]
        assert res.pivot in res.witness and is_induced_witness(c4, "C4", res.witness)

    def test_rejects_p4(self):
        p4 = SparsityPattern(4, [(0, 1), (1, 2), (2, 3)])
        res = lbfs_order(p4)
        assert not res.accepted
        assert res.kind == "P4" and is_induced_witness(p4, "P4", res.witness)

    def test_deterministic(self, paper12_pattern):
        a = lbfs_order(paper12_pattern)
        b = lbfs_order(paper12_pattern)
        assert a.ordering.sigma == b.ordering.sigma
        assert a.etree.parent == b.etree.parent

    def test_accept_invariants(self, paper12_pattern):
        res = lbfs_order(paper12_pattern)
        assert verify_ordering(paper12_pattern, res.ordering) is \
            OrderingClass.TRIVIALLY_PERFECT_PEO
        assert is_postordering(res.etree, res.ordering)

    def test_comparability_property(self, paper12_pattern):
        res = lbfs_order(paper12_pattern)
        parent = res.etree.parent
        n = paper12_pattern.n

        def ancestors(v):
            out = set()
            while parent[v] != v:
                v = parent[v]
                out.add(v)
            return out

        anc = [ancestors(v) for v in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                comparable = v in anc[u] or u in anc[v]
                assert comparable == paper12_pattern.has_edge(u, v)


class TestVerifyOrdering:
    def test_vinberg_natural_is_tpeo(self, vinberg_pattern):
        assert verify_ordering(vinberg_pattern, Ordering.identity(3)) is \
            OrderingClass.TRIVIALLY_PERFECT_PEO

    def test_vinberg_swapped_is_peo_only(self, vinberg_pattern):
        # positions: vertex0 first, vertex2 second, vertex1 last
        ordering = Ordering.from_sigma((0, 2, 1))
        assert verify_ordering(vinberg_pattern, ordering) is OrderingClass.PEO

    def test_c4_never_peo(self):
        c4 = SparsityPattern(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        for perm in itertools.permutations(range(4)):
            assert verify_ordering(c4, Ordering.from_sigma(perm)) is \
                OrderingClass.NOT_PEO

    def test_dimension_mismatch(self, vinberg_pattern):
        with pytest.raises(OrderingError):
            verify_ordering(vinberg_pattern, Ordering.identity(4))


class TestEtree:
    def test_vinberg(self, vinberg_pattern):
        t = build_etree(vinberg_pattern, Ordering.identity(3))
        assert t.parent == (2, 2, 2)
        assert t.roots == (2,)
        assert t.children[2] == (0, 1)

    def test_matches_lbfs(self, paper12_pattern):
        res = lbfs_order(paper12_pattern)
        t = build_etree(paper12_pattern, res.ordering)
        assert t.parent == res.etree.parent

    def test_diagonal_pattern(self):
        t = build_etree(SparsityPattern(4, []), Ordering.identity(4))
        assert t.parent == (0, 1, 2, 3)
        assert t.roots == (0, 1, 2, 3)

    def test_check_flag(self):
        c4 = SparsityPattern(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(OrderingError):
            build_etree(c4, Ordering.identity(4), check=True)


class TestSupernodes:
    def test_arrow12(self, arrow12_pattern):
        ordering = Ordering.identity(12)
        etree = build_etree(arrow12_pattern, ordering)
        sn = supernode_partition(arrow12_pattern, ordering, etree)
        reps = tuple(r + 1 for r in sn.representatives)
        assert reps == (1, 2, 4, 6, 7, 9, 11, 12)
        groups = {tuple(sorted(v + 1 for v in g)) for g in sn.members}
        assert groups == {(1,), (2, 3), (4, 5), (6,), (7, 8), (9, 10), (11,), (12,)}

    def test_empty_pattern(self):
        p = SparsityPattern(3, [])
        ordering = Ordering.identity(3)
        sn = supernode_partition(p, ordering, build_etree(p, ordering))
        assert sn.n_supernodes == 3

    def test_dense_single_supernode(self):
        p = SparsityPattern(4, list(itertools.combinations(range(4), 2)))
        ordering = Ordering.identity(4)
        sn = supernode_partition(p, ordering, build_etree(p, ordering))
        assert sn.n_supernodes == 1
        assert sorted(sn.members[0]) == [0, 1, 2, 3]

    def test_contiguous_runs(self):
        gen = random_homogeneous_pattern(40, seed=7, branching=2.5)
        sn = supernode_partition(gen.pattern, gen.ordering, gen.etree)
        for g in sn.members:
            lo, hi = min(g), max(g)
            assert sorted(g) == list(range(lo, hi + 1))
        # every supernode induces a clique
        for g in sn.members:
            for u, v in itertools.combinations(g, 2):
                assert gen.pattern.has_edge(u, v)

    def test_precondition(self):
        c4 = SparsityPattern(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(OrderingError):
            supernode_partition(c4, Ordering.identity(4),
                                EliminationTree.from_parent((1, 2, 3, 3)))


class TestExtension:
    def test_already_homogeneous_unchanged(self, vinberg_pattern):
        ext = homogeneous_extension(vinberg_pattern)
        assert ext.extended == vinberg_pattern

    def test_tridiagonal_closes_to_dense(self):
        tri = SparsityPattern(4, [(0, 1), (1, 2), (2, 3)])
        ext = homogeneous_extension(tri)
        added = ext.extended.edges - tri.edges
        assert added == {(0, 2), (0, 3), (1, 3)}
        assert verify_ordering(ext.extended, ext.ordering) is \
            OrderingClass.TRIVIALLY_PERFECT_PEO

    def test_c4_gets_fill(self):
        c4 = SparsityPattern(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        ext = homogeneous_extension(c4)
        assert ext.extended.n_edges > 4
        assert lbfs_order(ext.extended).accepted

    def test_superset_and_recognized(self, fig1_pattern):
        ext = homogeneous_extension(fig1_pattern)
        assert ext.extended.edges >= fig1_pattern.edges
        assert lbfs_order(ext.extended).accepted
        assert is_postordering(ext.etree, ext.ordering)

    def test_minimum_degree_matches_scan_on_small_graphs(self):
        for n in range(1, 7):
            pairs = list(itertools.combinations(range(n), 2))
            for code in range(1 << len(pairs)):
                p = SparsityPattern(n, [e for k, e in enumerate(pairs) if code >> k & 1])
                assert _minimum_degree(p) == scan_minimum_degree(p)

    def test_minimum_degree_matches_scan_on_random_graphs(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 41))
            prob = rng.uniform(0.02, 0.3)
            p = SparsityPattern(n, [e for e in itertools.combinations(range(n), 2)
                                    if rng.random() < prob])
            assert _minimum_degree(p) == scan_minimum_degree(p)

    def test_star_of_paths_extends_fast(self):
        """Centre 0 with arms 1-2-3, 4-5-6, ...: a scan for each pivot
        made this quadratic (about 25 s at 16000 vertices)."""
        n = 20_000
        star = SparsityPattern(n, [(0 if v % 3 == 1 else v - 1, v) for v in range(1, n)])
        t0 = time.perf_counter()
        ext = homogeneous_extension(star)
        elapsed = time.perf_counter() - t0
        assert lbfs_order(ext.extended).accepted
        assert ext.extended.edges >= star.edges
        assert elapsed < 5.0, f"extension took {elapsed:.2f} s"


class TestRandomPattern:
    def test_single_vertex(self):
        gen = random_homogeneous_pattern(1, seed=0)
        assert gen.pattern.n_edges == 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("branching", [1.0, 2.0, 5.0])
    def test_always_accepted(self, seed, branching):
        gen = random_homogeneous_pattern(30, seed=seed, branching=branching)
        assert lbfs_order(gen.pattern).accepted
        assert verify_ordering(gen.pattern, gen.ordering) is \
            OrderingClass.TRIVIALLY_PERFECT_PEO
        assert is_postordering(gen.etree, gen.ordering)

    def test_reproducible(self):
        a = random_homogeneous_pattern(25, seed=42, branching=3.0)
        b = random_homogeneous_pattern(25, seed=42, branching=3.0)
        assert a.pattern == b.pattern
        assert a.etree.parent == b.etree.parent

    def test_forest_possible(self):
        # with bushy branching the top level usually splits into several roots
        roots = set()
        for seed in range(12):
            gen = random_homogeneous_pattern(40, seed=seed, branching=4.0)
            roots.add(len(gen.etree.roots))
        assert max(roots) > 1


def _random_postorder(parent, rng):
    """A postorder of the forest ``parent``, roots and children in random
    order, walked one vertex at a time."""
    kids = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p != v:
            kids[p].append(v)
    order, stack = [], [(r, False) for r in rng.permutation(len(parent)).tolist()
                        if parent[r] == r]
    while stack:
        v, done = stack.pop()
        if done:
            order.append(v)
        else:
            stack.append((v, True))
            stack += [(c, False) for c in rng.permutation(kids[v]).tolist()]
    return order


def _fills_windows(parent, pos):
    """Brute force: the subtree of each v holds exactly the size(v)
    positions ending at pos[v]."""
    below = [{v} for v in range(len(parent))]
    for v in range(len(parent)):
        a = v
        while parent[a] != a:
            a = parent[a]
            below[a].add(v)
    return all(sorted(pos[u] for u in b) == list(range(pos[v] - len(b) + 1, pos[v] + 1))
               for v, b in enumerate(below))


def test_is_postordering_matches_brute_force(rng):
    """Random forests in random labellings under random orderings,
    postorders and postorders with two positions swapped: both verdicts
    occur, and each is the brute force's."""
    verdicts = []
    for trial in range(600):
        n = int(rng.integers(1, 40))
        label = rng.permutation(n)
        parent = [0] * n
        for v in range(n):
            up = int(rng.integers(v, n)) if rng.random() < 0.9 else v
            parent[label[v]] = int(label[up])
        kind = trial % 3
        sigma = rng.permutation(n).tolist() if kind == 0 else _random_postorder(parent, rng)
        if kind == 2 and n > 1:
            i, j = rng.choice(n, size=2, replace=False)
            sigma[i], sigma[j] = sigma[j], sigma[i]
        ordering = Ordering.from_sigma(sigma)
        got = is_postordering(EliminationTree.from_parent(parent), ordering)
        assert got is _fills_windows(parent, ordering.sigma_inv), (parent, sigma)
        verdicts.append(got)
    assert 100 < sum(verdicts) < 500


def test_is_postordering_rejects_a_child_after_its_parent():
    """Vertex 2 has children 0 and 3: every subtree's lowest position is
    where a postorder puts it, but 3 comes after its parent and the root
    1 sits inside 2's subtree."""
    etree = EliminationTree.from_parent([2, 1, 2, 2])
    assert not is_postordering(etree, Ordering.identity(4))
    assert is_postordering(etree, Ordering.from_sigma([1, 0, 3, 2]))
    assert etree.subtree_sizes().tolist() == [1, 1, 3, 1]


def test_ancestors_match_a_walk(rng):
    """Each vertex's proper ancestors, bottom up and by ascending vertex,
    are those of walking up from it, on random forests in random
    labellings; subtree sizes count each vertex's descendants."""
    for trial in range(60):
        n = int(rng.integers(1, 300))
        gen = random_homogeneous_pattern(n, trial, branching=float(rng.uniform(1.0, 4.0)))
        label = rng.permutation(n)
        parent = [0] * n
        for v, p in enumerate(gen.etree.parent):
            parent[label[v]] = int(label[p])
        want = []
        for v in range(n):
            a = v
            while parent[a] != a:
                a = parent[a]
                want.append((v, a))
        lo, hi = _ancestors(parent)
        assert list(zip(lo.tolist(), hi.tolist())) == want
        size = [1] * n
        for _, a in want:
            size[a] += 1
        assert EliminationTree.from_parent(parent).subtree_sizes().tolist() == size


def test_ancestor_walks_refuse_a_cycle():
    """A parent array with a cycle is no forest: the level-by-level walk
    up stops with OrderingError instead of growing without end."""
    etree = EliminationTree.from_parent([1, 0, 1])
    with pytest.raises(OrderingError):
        etree.subtree_sizes()
    with pytest.raises(OrderingError):
        is_postordering(etree, Ordering.identity(3))


GENERATED_CASES = [(1, 0, 3.0), (2, 1, 3.0), (40, 2, 1.0), (200, 3, 1.05), (300, 4, 2.0),
                   (500, 5, 8.0), (1200, 2001, 1.05), (2000, 6, 1.05), (3000, 7, 3.0),
                   (16000, 2001, 4.0)]


def _extension_inputs():
    """Random non-homogeneous graphs, C4 and a path."""
    rng = np.random.default_rng(93)
    for n, m in ((12, 20), (60, 90), (150, 200), (400, 700), (1500, 2000)):
        pairs = list(itertools.combinations(range(n), 2))
        take = rng.choice(len(pairs), size=m, replace=False)
        yield f"random n={n} m={m}", SparsityPattern(n, [pairs[t] for t in take])
    yield "C4", SparsityPattern(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    yield "path 300", SparsityPattern(300, [(v, v + 1) for v in range(299)])


def _forest_digests():
    got = {}
    for n, seed, b in GENERATED_CASES:
        g = random_homogeneous_pattern(n, seed, branching=b)
        got[f"gen n={n} seed={seed} branching={b}"] = forest_digest(g.pattern, g.ordering,
                                                                     g.etree)
    for name, p in _extension_inputs():
        assert not lbfs_order(p).accepted, name
        e = homogeneous_extension(p)
        got[name] = forest_digest(e.extended, e.ordering, e.etree)
    return got


# Digests of the generated and extended patterns, their orderings and
# forests (helpers.forest_digest), recorded with the generator and the
# extension that walked each vertex's ancestors one vertex at a time.
FOREST_DIGESTS = {
    "gen n=1 seed=0 branching=3.0": "9be4816520c702b0f1e153ebb17bc034bb6c471ce7a1e43fa53ff05d9e27237b",
    "gen n=2 seed=1 branching=3.0": "2ce942df7c2d93504aa7867151a548c5ca771f0459b628d9bb22e4aeabe6ebd4",
    "gen n=40 seed=2 branching=1.0": "4ca715b73a951078aec204780277192bae068bee853d042317215e495684f4f8",
    "gen n=200 seed=3 branching=1.05": "99fe796e816c97bbb5edc865860d4d0edd38c0d1738a4eb22304f38969ce5073",
    "gen n=300 seed=4 branching=2.0": "103622786e9e14c8c111432340daed9df4225cd3c9b8cae9259f62ad33019670",
    "gen n=500 seed=5 branching=8.0": "dbc464baf7691ec5a6c16f43df80944f7fc0ecbeb3bc22d2bce363cb5b364a2d",
    "gen n=1200 seed=2001 branching=1.05": "0e8cd402a9c62345c18b9fca8c1b8cf7a87ec2f4bb728aff2c2e4fa7b9b4462a",
    "gen n=2000 seed=6 branching=1.05": "a36c85e64117dd0afc0fe72b8f03c1229f09dc644d8f9c9ea3e36cc9f2c68317",
    "gen n=3000 seed=7 branching=3.0": "853854390ec0c3396618fca036231b6cec29fdc8b1f8aeee4b7134602cc155ee",
    "gen n=16000 seed=2001 branching=4.0": "e350b44cf8f2d8eba4825af7c1dcdd088b101f9dfc9a26c631d3a4e00b3044a0",
    "random n=12 m=20": "79128d428566ed7f8ffdb1a6a285d18f8b7e0401fae51238d590c413c0c160d4",
    "random n=60 m=90": "d08d2a6270be03571ad292c1808c624d1de4b9f7facec50ed1b58fb7fb38ea97",
    "random n=150 m=200": "739a51582bdac6e30ed8b8167b7ed0a61f7e10fb33135f4bba3a4b11076b9a4e",
    "random n=400 m=700": "e20691bf62276ea1b0eed5af728d64c2844730d4d172465eea611c77a9fde8c4",
    "random n=1500 m=2000": "8db2b4ed92760a1e53d402ca4068fda6b655653debb28a4d03729bf129fc9944",
    "C4": "6705be40101964665dd8eccbad8af504e24238bdfab0533d888fd4a8ad18310e",
    "path 300": "9403c2c98f2730a1cd24d67f65a3de80c1d830e8ae1ed843c70208968e0b419f",
}


def test_generated_and_extended_forests_are_pinned():
    assert _forest_digests() == FOREST_DIGESTS


def _pattern_from_bits(n, bits):
    pairs = list(itertools.combinations(range(n), 2))
    return SparsityPattern(n, [e for e, b in zip(pairs, bits) if b])


@settings(max_examples=250, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
def test_recognition_matches_forbidden_subgraph_scan(args):
    n, bits = args
    p = _pattern_from_bits(n, bits)
    accepted = lbfs_order(p).accepted
    assert accepted == (not has_forbidden_subgraph(p))
    if accepted:
        res = lbfs_order(p)
        assert verify_ordering(p, res.ordering) is OrderingClass.TRIVIALLY_PERFECT_PEO
        assert is_postordering(res.etree, res.ordering)


def test_rejection_always_has_witness(rng):
    for _ in range(60):
        n = int(rng.integers(4, 24))
        m = int(rng.integers(n, 3 * n))
        pairs = list(itertools.combinations(range(n), 2))
        take = rng.choice(len(pairs), size=min(m, len(pairs)), replace=False)
        p = SparsityPattern(n, [pairs[t] for t in take])
        res = lbfs_order(p)
        if not res.accepted:
            assert has_forbidden_subgraph(p)
            w = find_forbidden_subgraph(p)
            assert w is not None and w.kind in ("P4", "C4")
            assert is_induced_witness(p, res.kind, res.witness)


def test_witness_is_induced_on_every_small_graph():
    """Every rejected graph on up to 6 vertices gets an induced P4 or C4
    through its pivot."""
    for n in range(4, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for code in range(1 << len(pairs)):
            p = SparsityPattern(n, [e for k, e in enumerate(pairs) if code >> k & 1])
            res = lbfs_order(p)
            if not res.accepted:
                assert res.pivot in res.witness
                assert is_induced_witness(p, res.kind, res.witness), (n, code)


def _relabelled_forest(n, seed, rng, flip):
    """A random forest comparability pattern under a random relabelling,
    with one vertex pair's adjacency flipped when ``flip``."""
    gen = random_homogeneous_pattern(n, seed=seed, branching=float(rng.uniform(1.05, 6.0)))
    label = rng.permutation(n).tolist()
    edges = {tuple(sorted((label[u], label[w]))) for u, w in gen.pattern.edges}
    if flip:
        edges ^= {tuple(sorted(rng.choice(n, size=2, replace=False).tolist()))}
    return SparsityPattern(n, sorted(edges))


def test_witness_is_induced_on_random_rejections(rng):
    """Random forest patterns with one pair flipped, and sparse random
    graphs, up to 300 vertices: every rejection certifies itself."""
    rejected = 0
    for trial in range(120):
        n = int(rng.integers(4, 301))
        if trial % 2:
            p = _relabelled_forest(n, trial, rng, flip=True)
        else:
            pairs = list(itertools.combinations(range(n), 2))
            take = rng.choice(len(pairs), size=min(2 * n, len(pairs)), replace=False)
            p = SparsityPattern(n, [pairs[t] for t in take])
        res = lbfs_order(p)
        if not res.accepted:
            rejected += 1
            assert res.kind in ("P4", "C4") and res.pivot in res.witness
            assert is_induced_witness(p, res.kind, res.witness)
    assert rejected > 60


def _brute_force_class(pattern, ordering):
    """PEO: every higher neighbourhood is a clique.  Trivially perfect:
    also, along every edge, the higher end's higher neighbourhood lies in
    the lower end's."""
    pos = ordering.sigma_inv
    up = [{w for w in pattern.adjacency[v] if pos[w] > pos[v]} for v in range(pattern.n)]
    if any(not pattern.has_edge(a, b) for h in up for a, b in itertools.combinations(h, 2)):
        return OrderingClass.NOT_PEO
    if all(up[w] <= up[v] for v in range(pattern.n) for w in up[v]):
        return OrderingClass.TRIVIALLY_PERFECT_PEO
    return OrderingClass.PEO


def test_verify_ordering_matches_brute_force(rng):
    """Random graphs and (flipped) forest patterns under random orderings
    and under recognition orderings with a few swaps."""
    seen = set()
    for trial in range(600):
        n = int(rng.integers(1, 16))
        if trial % 3 == 0:
            pairs = list(itertools.combinations(range(n), 2))
            keep = rng.random(len(pairs)) < rng.uniform(0.1, 0.9)
            p = SparsityPattern(n, [e for e, k in zip(pairs, keep) if k])
        else:
            p = _relabelled_forest(n, trial, rng, flip=trial % 3 == 2 and n > 1)
        res = lbfs_order(p)
        sigma = list(res.ordering.sigma) if res.accepted else rng.permutation(n).tolist()
        for _ in range(int(rng.integers(0, 3))):
            i, j = rng.integers(0, n, size=2)
            sigma[i], sigma[j] = sigma[j], sigma[i]
        ordering = Ordering.from_sigma(sigma)
        got = verify_ordering(p, ordering)
        assert got is _brute_force_class(p, ordering), (p.adjacency, sigma)
        seen.add(got)
    assert seen == set(OrderingClass)


def _same_recognition(p):
    """The array passes give exactly what the vertex-by-vertex walk
    gives, whichever way lbfs_order takes: the verdict, the ordering and
    tree (each parent's children ascending, the roots), or the
    rejection's pivot and witness."""
    want, *others = results = [_lbfs_walk(p), lbfs_order(p), _lbfs_arrays(p)]
    for got in others:
        assert got.accepted == want.accepted
        if want.accepted:
            assert got.ordering.sigma == want.ordering.sigma
            assert got.ordering.sigma_inv == want.ordering.sigma_inv
            assert got.etree.parent == want.etree.parent
            assert all(type(v) is int for v in got.ordering.sigma + got.etree.parent)
        else:
            assert type(got.pivot) is int
            assert got.pivot == want.pivot and got.witness == want.witness
    if want.accepted:
        parent = want.etree.parent
        kids = [[] for _ in parent]
        for v, u in enumerate(parent):
            if u != v:
                kids[u].append(v)
        for res in results:
            assert res.etree.children == tuple(map(tuple, kids))
            assert res.etree.roots == tuple(v for v, u in enumerate(parent) if u == v)
    return want.accepted


def test_recognition_by_arrays_is_the_walk_on_every_small_graph():
    """Every graph on up to 6 vertices, accepted or not."""
    verdicts = set()
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for code in range(1 << len(pairs)):
            p = SparsityPattern(n, [e for k, e in enumerate(pairs) if code >> k & 1])
            verdicts.add(_same_recognition(p))
    assert verdicts == {True, False}


def test_recognition_by_arrays_is_the_walk_on_random_forests(rng):
    """Relabelled random forests up to 2000 vertices, half of them with
    one vertex pair's adjacency flipped."""
    verdicts = []
    for trial in range(40):
        n = int(rng.integers(2, 2001))
        verdicts.append(_same_recognition(_relabelled_forest(n, trial, rng, flip=trial % 2)))
    assert 15 < sum(verdicts) < 40


def test_recognition_by_arrays_is_the_walk_on_the_benchmark_patterns():
    names = [(w, _same_recognition(st.pattern)) for w, st in benchmark_structures()]
    assert len(names) == 7 and all(ok for _, ok in names)


def _chordal_orderings(n, rng):
    """A random tree's own edges (a chordal graph, trivially perfect only
    when it is a star forest) in an ordering that eliminates leaves
    first, with a few swaps: PEO, NotPEO and trivially perfect ones."""
    parent = [int(rng.integers(v + 1, n)) if v < n - 1 and rng.random() < 0.9 else v
              for v in range(n)]
    p = SparsityPattern(n, [(v, parent[v]) for v in range(n) if parent[v] != v])
    sigma = list(range(n))
    for _ in range(int(rng.integers(0, 3))):
        i, j = rng.integers(0, n, size=2)
        sigma[i], sigma[j] = sigma[j], sigma[i]
    return p, Ordering.from_sigma(sigma)


def test_verify_ordering_matches_brute_force_on_larger_graphs(rng):
    """Up to 200 vertices: forest patterns, flipped or not, under their
    recognition orderings with a few swaps and under random ones, and
    trees' own edges under leaves-first orderings."""
    seen = set()
    for trial in range(150):
        n = int(rng.integers(2, 201))
        if trial % 3 == 2:
            p, ordering = _chordal_orderings(n, rng)
        else:
            p = _relabelled_forest(n, trial, rng, flip=trial % 2 == 1)
            res = lbfs_order(p)
            sigma = list(res.ordering.sigma) if res.accepted and trial % 4 else \
                rng.permutation(n).tolist()
            for _ in range(int(rng.integers(0, 3))):
                i, j = rng.integers(0, n, size=2)
                sigma[i], sigma[j] = sigma[j], sigma[i]
            ordering = Ordering.from_sigma(sigma)
        got = verify_ordering(p, ordering)
        assert got is _brute_force_class(p, ordering), (trial, n)
        seen.add(got)
    assert seen == set(OrderingClass)


def test_single_child_runs_match_a_walk(rng):
    """The runs found by pointer jumping are those of walking up from each
    representative, on random forests in random labellings."""
    for trial in range(60):
        n = int(rng.integers(1, 300))
        gen = random_homogeneous_pattern(n, trial, branching=float(rng.uniform(1.0, 4.0)))
        label = rng.permutation(n)
        parent = [0] * n
        for v, p in enumerate(gen.etree.parent):
            parent[label[v]] = int(label[p])
        kids = [0] * n
        for v, p in enumerate(parent):
            kids[p] += p != v
        want = []
        for r in range(n):
            if kids[r] != 1:
                run = [r]
                while parent[run[-1]] != run[-1] and kids[parent[run[-1]]] == 1:
                    run.append(parent[run[-1]])
                want.append(run)
        assert single_child_runs(parent) == want
