import numpy as np
import pytest

from homcone.densecheck import dense_completable, dense_maxdet_completion
from homcone.errors import NotCompletable, NotPositiveDefinite
from homcone.factor import (
    CholFactor,
    adjoint_map,
    barrier,
    cholesky,
    dual_barrier,
    dual_gradient,
    forward_map,
    hess_apply,
    inv_hess_apply,
    inverse_adjoint_map,
    inverse_forward_map,
    maxdet_factor,
    projected_inverse,
)
from homcone.matrix import (
    from_triplets,
    identity,
    inner,
    norm,
    project,
    to_dense,
    tri_inverse,
    tri_mul,
)

from helpers import (
    random_completable,
    random_lower,
    random_spd,
    random_structure,
    random_sym,
)


def structs(rng, count, lo=2, hi=30, seed0=1000):
    for t in range(count):
        yield random_structure(int(rng.integers(lo, hi)), seed=seed0 + t)


class TestCholesky:
    def test_identity(self, vinberg_struct):
        f = cholesky(identity(vinberg_struct))
        assert np.allclose(f.L.vals, identity(vinberg_struct).vals)

    def test_vinberg_closed_form(self, vinberg_x):
        f = cholesky(vinberg_x)
        d = to_dense(f.L)
        assert np.isclose(d[0, 0], np.sqrt(2))
        assert np.isclose(d[1, 1], np.sqrt(3))
        assert np.isclose(d[2, 0], 1 / np.sqrt(2))
        assert np.isclose(d[2, 1], 1 / np.sqrt(3))
        assert np.isclose(d[2, 2], np.sqrt(7 / 6))

    def test_indefinite_rejected_at_node(self, vinberg_struct):
        x = identity(vinberg_struct)
        v = x.vals.copy()
        v[0] = -1.0
        with pytest.raises(NotPositiveDefinite) as e:
            cholesky(type(x)(vinberg_struct, v))
        assert e.value.node == 0

    def test_matches_dense_oracle(self, rng):
        for s in structs(rng, 30):
            x = random_spd(s, rng)
            f = cholesky(x)
            dense = np.linalg.cholesky(to_dense(x))
            assert np.allclose(to_dense(f.L), dense, rtol=1e-10, atol=1e-12)

    def test_reconstruction(self, rng):
        for s in structs(rng, 10, seed0=1100):
            x = random_spd(s, rng)
            ld = to_dense(cholesky(x).L)
            err = np.linalg.norm(ld @ ld.T - to_dense(x))
            assert err <= 1e-12 * max(1.0, np.linalg.norm(to_dense(x)))


class TestForwardAdjoint:
    def test_forward_identity_factor(self, vinberg_struct, rng):
        x = random_sym(vinberg_struct, rng)
        eye_l = cholesky(identity(vinberg_struct)).L
        assert np.allclose(forward_map(eye_l, x).vals, x.vals)

    def test_forward_matches_dense(self, rng):
        for s in structs(rng, 25, seed0=1200):
            ell = random_lower(s, rng)
            x = random_sym(s, rng)
            got = to_dense(forward_map(ell, x))
            ld = to_dense(ell)
            want = ld @ to_dense(x) @ ld.T
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)  # zero fill too

    def test_forward_of_identity_is_llt(self, rng):
        s = random_structure(15, seed=77)
        ell = random_lower(s, rng)
        ld = to_dense(ell)
        assert np.allclose(to_dense(forward_map(ell, identity(s))), ld @ ld.T,
                           atol=1e-12)

    def test_adjoint_identity_factor(self, vinberg_struct, rng):
        sm = random_sym(vinberg_struct, rng)
        eye_l = cholesky(identity(vinberg_struct)).L
        assert np.allclose(adjoint_map(eye_l, sm).vals, sm.vals)

    def test_adjoint_matches_projected_dense(self, rng):
        for s in structs(rng, 25, seed0=1300):
            ell = random_lower(s, rng)
            sm = random_sym(s, rng)
            ld = to_dense(ell)
            want = project(ld.T @ to_dense(sm) @ ld, s)
            got = adjoint_map(ell, sm)
            assert np.allclose(got.vals, want.vals, rtol=1e-11, atol=1e-11)

    def test_adjoint_contract(self, rng):
        for s in structs(rng, 20, seed0=1400):
            ell = random_lower(s, rng)
            x, sm = random_sym(s, rng), random_sym(s, rng)
            lhs = inner(adjoint_map(ell, sm), x)
            rhs = inner(sm, forward_map(ell, x))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestInverseMaps:
    def test_inverse_forward_roundtrip(self, rng):
        for s in structs(rng, 20, seed0=1500):
            ell = random_lower(s, rng)
            x = random_sym(s, rng)
            back = inverse_forward_map(ell, forward_map(ell, x))
            assert np.allclose(back.vals, x.vals, rtol=1e-11, atol=1e-11)

    def test_inverse_forward_matches_dense(self, rng):
        for s in structs(rng, 15, seed0=1600):
            ell = random_lower(s, rng)
            x = random_sym(s, rng)
            li = np.linalg.inv(to_dense(ell))
            want = li @ to_dense(x) @ li.T
            assert np.allclose(to_dense(inverse_forward_map(ell, x)), want,
                               rtol=1e-10, atol=1e-10)

    def test_inverse_adjoint_roundtrip(self, rng):
        for s in structs(rng, 20, seed0=1700):
            ell = random_lower(s, rng)
            sm = random_sym(s, rng)
            back = inverse_adjoint_map(ell, adjoint_map(ell, sm))
            assert np.allclose(back.vals, sm.vals, rtol=1e-11, atol=1e-11)

    def test_inverse_adjoint_matches_dense(self, rng):
        for s in structs(rng, 15, seed0=1800):
            ell = random_lower(s, rng)
            sm = random_sym(s, rng)
            li = np.linalg.inv(to_dense(ell))
            want = project(li.T @ to_dense(sm) @ li, s)
            got = inverse_adjoint_map(ell, sm)
            assert np.allclose(got.vals, want.vals, rtol=1e-10, atol=1e-10)


class TestProjectedInverse:
    def test_identity(self, vinberg_struct):
        y = projected_inverse(cholesky(identity(vinberg_struct)))
        assert np.allclose(y.vals, identity(vinberg_struct).vals)

    def test_vinberg_entries(self, vinberg_x):
        y = to_dense(projected_inverse(cholesky(vinberg_x)))
        assert np.allclose(np.diag(y), [5 / 7, 3 / 7, 6 / 7])
        assert np.isclose(y[2, 0], -3 / 7) and np.isclose(y[2, 1], -2 / 7)

    def test_log_homogeneity(self, rng):
        for s in structs(rng, 15, seed0=1900):
            x = random_spd(s, rng)
            y = projected_inverse(cholesky(x))
            assert abs(inner(y, x) - s.n) <= 1e-12 * s.n

    def test_matches_dense(self, rng):
        for s in structs(rng, 15, seed0=2000):
            x = random_spd(s, rng)
            want = project(np.linalg.inv(to_dense(x)), s)
            got = projected_inverse(cholesky(x))
            assert np.allclose(got.vals, want.vals, rtol=1e-10, atol=1e-10)


class TestMaxdet:
    def test_identity(self, vinberg_struct):
        f = maxdet_factor(identity(vinberg_struct))
        assert np.allclose(f.L.vals, identity(vinberg_struct).vals)

    def test_vinberg_half_completion(self, vinberg_struct):
        s = from_triplets(vinberg_struct,
                          [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0),
                           (2, 0, 0.5), (2, 1, 0.5)])
        ld = to_dense(maxdet_factor(s).L)
        yhat = np.linalg.inv(ld @ ld.T)
        assert np.isclose(yhat[1, 0], 0.25)

    def test_defining_equation(self, rng):
        for st in structs(rng, 15, seed0=2100):
            s = random_completable(st, rng, zero_fill_pd=False)
            f = maxdet_factor(s)
            back = inverse_adjoint_map(f.L, identity(st))
            assert np.allclose(back.vals, s.vals, rtol=1e-9, atol=1e-9)

    def test_matches_newton_oracle(self, rng):
        for st in structs(rng, 8, lo=3, hi=12, seed0=2200):
            s = random_completable(st, rng)
            ld = to_dense(maxdet_factor(s).L)
            y_kernel = np.linalg.inv(ld @ ld.T)
            y_newton = dense_maxdet_completion(s)
            assert np.allclose(y_kernel, y_newton, rtol=1e-8, atol=1e-8)

    def test_membership_agrees_with_eigen_oracle(self, vinberg_struct, rng):
        cases = [
            [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 0.1), (2, 0, 0.5), (2, 1, 0.5)],
            [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (2, 0, 0.5), (2, 1, 0.5)],
            [(0, 0, 1.0), (1, 1, 0.3), (2, 2, 0.5), (2, 0, 0.6), (2, 1, 0.2)],
        ]
        for trip in cases:
            s = from_triplets(vinberg_struct, trip)
            ok_oracle = dense_completable(s)
            try:
                maxdet_factor(s)
                ok_kernel = True
            except NotCompletable:
                ok_kernel = False
            assert ok_kernel == ok_oracle

    def test_k_inside_kstar(self, rng):
        # every matrix accepted by cholesky is accepted by maxdet_factor
        for st in structs(rng, 12, seed0=2300):
            x = random_spd(st, rng)
            cholesky(x)
            maxdet_factor(x)


class TestBarriers:
    def test_values_at_identity(self, vinberg_struct):
        eye = identity(vinberg_struct)
        assert barrier(cholesky(eye)) == 0.0
        assert np.isclose(dual_barrier(eye), -3.0)

    def test_vinberg_value(self, vinberg_x):
        assert np.isclose(barrier(cholesky(vinberg_x)), -np.log(7.0))

    def test_fenchel_at_matched_pair(self, rng):
        for st in structs(rng, 12, seed0=2400):
            x = random_spd(st, rng)
            s = projected_inverse(cholesky(x))
            total = barrier(cholesky(x)) + dual_barrier(s)
            assert abs(total + st.n) <= 1e-10 * max(1.0, st.n)

    def test_scaling_identity(self, rng):
        for st in structs(rng, 10, seed0=2500):
            x = random_spd(st, rng)
            ell = random_lower(st, rng)
            lhs = barrier(cholesky(forward_map(ell, x)))
            rhs = barrier(cholesky(x)) - CholFactor(ell).logdet()
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_dual_gradient_identity(self, vinberg_struct):
        xhat = dual_gradient(maxdet_factor(identity(vinberg_struct)))
        assert np.allclose(xhat.vals, identity(vinberg_struct).vals)

    def test_dual_gradient_defining_equation(self, rng):
        for st in structs(rng, 12, seed0=2600):
            s = random_completable(st, rng, zero_fill_pd=False)
            xhat = dual_gradient(maxdet_factor(s))
            back = projected_inverse(cholesky(xhat))
            assert np.allclose(back.vals, s.vals, rtol=1e-9, atol=1e-9)

    def test_dual_gradient_matches_newton_oracle(self, vinberg_struct, rng):
        s = random_completable(vinberg_struct, rng)
        xhat = to_dense(dual_gradient(maxdet_factor(s)))
        y = dense_maxdet_completion(s)
        assert np.allclose(xhat, np.linalg.inv(y), rtol=1e-8, atol=1e-8)


class TestHessian:
    def test_identity_point(self, vinberg_struct, rng):
        y = random_sym(vinberg_struct, rng)
        f = cholesky(identity(vinberg_struct))
        assert np.allclose(hess_apply(f, y).vals, y.vals)
        assert np.allclose(inv_hess_apply(f, y).vals, y.vals)

    def test_inverse_pair(self, rng):
        for st in structs(rng, 15, seed0=2700):
            x = random_spd(st, rng)
            f = cholesky(x)
            y = random_sym(st, rng)
            back = inv_hess_apply(f, hess_apply(f, y))
            assert np.allclose(back.vals, y.vals, rtol=1e-10, atol=1e-10)

    def test_matches_dense(self, rng):
        for st in structs(rng, 12, seed0=2800):
            x = random_spd(st, rng)
            y = random_sym(st, rng)
            xinv = np.linalg.inv(to_dense(x))
            want = project(xinv @ to_dense(y) @ xinv, st)
            got = hess_apply(cholesky(x), y)
            assert np.allclose(got.vals, want.vals, rtol=1e-10, atol=1e-10)

    def test_self_adjoint(self, rng):
        for st in structs(rng, 10, seed0=2900):
            f = cholesky(random_spd(st, rng))
            y, z = random_sym(st, rng), random_sym(st, rng)
            a = inner(hess_apply(f, y), z)
            b = inner(y, hess_apply(f, z))
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_finite_difference(self, rng):
        h = 1e-5
        for st in structs(rng, 6, lo=3, hi=12, seed0=3000):
            x = random_spd(st, rng)
            y = random_sym(st, rng, scale=0.2)
            gp = projected_inverse(cholesky(x + h * y))
            gm = projected_inverse(cholesky(x - h * y))
            fd = (1.0 / (2 * h)) * (gm - gp)  # F' = -proj inverse
            hv = hess_apply(cholesky(x), y)
            assert np.allclose(fd.vals, hv.vals, rtol=1e-5, atol=1e-5 * norm(hv))


class TestCompositions:
    def test_gradient_primal(self, rng):
        for st in structs(rng, 10, seed0=3100):
            x = random_spd(st, rng)
            ell = cholesky(random_spd(st, rng)).L
            lhs = projected_inverse(cholesky(forward_map(ell, x)))
            rhs = inverse_adjoint_map(ell, projected_inverse(cholesky(x)))
            assert np.allclose(lhs.vals, rhs.vals, rtol=1e-10, atol=1e-10)

    def test_hessian_primal(self, rng):
        for st in structs(rng, 8, seed0=3200):
            x = random_spd(st, rng)
            ell = cholesky(random_spd(st, rng)).L
            y = random_sym(st, rng)
            lhs = hess_apply(cholesky(forward_map(ell, x)), y)
            rhs = inverse_adjoint_map(
                ell, hess_apply(cholesky(x), inverse_forward_map(ell, y)))
            assert np.allclose(lhs.vals, rhs.vals, rtol=1e-10, atol=1e-10)

    def test_gradient_dual(self, rng):
        for st in structs(rng, 10, seed0=3300):
            s = random_completable(st, rng, zero_fill_pd=False)
            ell = cholesky(random_spd(st, rng)).L
            lhs = dual_gradient(maxdet_factor(adjoint_map(ell, s)))
            rhs = inverse_forward_map(ell, dual_gradient(maxdet_factor(s)))
            assert np.allclose(lhs.vals, rhs.vals, rtol=1e-9, atol=1e-9)


def test_kernels_leave_inputs_untouched(rng):
    st = random_structure(14, seed=11)
    x = random_spd(st, rng)
    ell = random_lower(st, rng)
    xs, ls = x.vals.copy(), ell.vals.copy()
    f = CholFactor(ell)
    cholesky(x)
    forward_map(ell, x)
    adjoint_map(ell, x)
    inverse_forward_map(ell, x)
    inverse_adjoint_map(ell, x)
    projected_inverse(f)
    maxdet_factor(x)
    dual_gradient(f)
    tri_mul(ell, ell)
    tri_inverse(ell)
    assert np.array_equal(x.vals, xs) and np.array_equal(ell.vals, ls)
