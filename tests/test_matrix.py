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
    verify_ordering,
)

from helpers import random_lower, random_structure, random_sym


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
