import re

import numpy as np
import pytest

import helpers
from homcone import scaling
from homcone.densecheck import dense_scaling_point
from homcone.errors import NonpositiveCurvature, NotCompletable, NotPositiveDefinite
from homcone.factor import cholesky, hess_apply
from homcone.matrix import (
    Structure,
    from_triplets,
    identity,
    inner,
    norm,
    project,
    to_dense,
)
from homcone.pattern import Ordering, SparsityPattern
from homcone.scaling import (
    ScalingOperator,
    _newton_system,
    apply_scaling,
    bfgs_update,
    pd_factor,
    scaling_point,
    shadow_state,
)

from helpers import (
    assert_four_equations,
    assert_same_point,
    ix_newton_system,
    random_interior_pair,
    random_spd,
    random_structure,
    random_sym,
    scaling_bases,
    scaling_w,
    sequential_scaling_point,
    solve_scaling_calls,
)


def interior_pairs(rng, count, lo=2, hi=16, seed0=5000):
    for t in range(count):
        st = random_structure(int(rng.integers(lo, hi)), seed=seed0 + t)
        x, s = random_interior_pair(st, rng)
        yield st, x, s


class TestShadowState:
    def test_central_identity(self, vinberg_struct):
        eye = identity(vinberg_struct)
        st = shadow_state(eye, eye)
        assert np.isclose(st.mu, 1.0)
        assert norm(st.delta_p) < 1e-14 and norm(st.delta_d) < 1e-14
        assert np.allclose(st.x_shadow.vals, eye.vals)
        assert np.allclose(st.s_shadow.vals, eye.vals)

    def test_scaled_central_pair(self, vinberg_struct):
        eye = identity(vinberg_struct)
        st = shadow_state(2.0 * eye, eye)
        assert np.isclose(st.mu, 2.0)
        assert norm(st.delta_p) < 1e-14 and norm(st.delta_d) < 1e-14

    def test_orthogonality_invariants(self, rng):
        for _, x, s in interior_pairs(rng, 15):
            st = shadow_state(x, s)
            scale = max(1.0, norm(x) * norm(s))
            assert abs(inner(s, st.delta_p)) <= 1e-12 * scale
            assert abs(inner(st.delta_d, x)) <= 1e-12 * scale
            assert inner(st.delta_d, st.delta_p) >= -1e-12 * scale

    def test_membership_diagnostics(self, vinberg_struct):
        eye = identity(vinberg_struct)
        bad = from_triplets(vinberg_struct, [(0, 0, -1.0), (1, 1, 1.0), (2, 2, 1.0)])
        with pytest.raises(NotPositiveDefinite):
            shadow_state(bad, eye)
        not_compl = from_triplets(
            vinberg_struct,
            [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 0.1), (2, 0, 0.5), (2, 1, 0.5)])
        with pytest.raises(NotCompletable):
            shadow_state(eye, not_compl)


class TestScalingPoint:
    def test_central_identity(self, vinberg_struct):
        eye = identity(vinberg_struct)
        w = scaling_w(eye, eye, tol=1e-12)
        assert np.allclose(w.vals, eye.vals, atol=1e-10)

    def test_scalar_case(self):
        st = Structure(SparsityPattern(1, []), Ordering.identity(1))
        x = from_triplets(st, [(0, 0, 4.0)])
        s = from_triplets(st, [(0, 0, 1.0)])
        w = scaling_w(x, s, tol=1e-12)
        assert np.isclose(w.vals[0], 2.0)

    def test_defining_equation(self, rng):
        for _, x, s in interior_pairs(rng, 12, seed0=5100):
            w = scaling_w(x, s, tol=1e-10)
            resid = norm(hess_apply(cholesky(w), x) - s)
            assert resid <= 1e-9 * norm(s)

    def test_matches_dense_oracle(self, rng):
        for st, x, s in interior_pairs(rng, 8, lo=3, hi=10, seed0=5200):
            w = scaling_w(x, s, tol=1e-11)
            w_oracle = dense_scaling_point(x, s, tol=1e-11)
            assert np.allclose(to_dense(w), w_oracle, rtol=1e-7, atol=1e-7)

    def test_record_of_a_search_that_meets_its_target(self, rng, monkeypatch):
        """stop is None and residual at most tol; hess_apply runs once per
        iterate, the start and the point of each Newton step."""
        calls = []

        def counted(f, z):
            calls.append(1)
            return hess_apply(f, z)

        monkeypatch.setattr(scaling, "hess_apply", counted)
        for t, (_, x, s) in enumerate(interior_pairs(rng, 8, seed0=5120)):
            tol = [1e-9, 1e-12][t % 2]
            calls.clear()
            point = scaling_point(x, s, tol=tol)
            assert point.stop is None and point.residual <= tol
            assert point.steps >= 1 and len(calls) == point.steps + 1


def assert_sequential(x, s, **kwargs):
    """scaling_point returns the sequential search's record: w bit for
    bit, the same residual, steps and stop."""
    assert_same_point(scaling_point(x, s, **kwargs), sequential_scaling_point(x, s, **kwargs))


class TestBitwise:
    """The take-gathered Newton system and the stacked line-search rounds
    change no bit of the one-probe-at-a-time search they replace."""

    def test_newton_system_is_the_ix_gather(self, rng):
        structs = [
            Structure(SparsityPattern(1, []), Ordering.identity(1)),
            Structure.from_pattern(SparsityPattern(3, [(0, 1), (1, 2)])),
            Structure.from_pattern(SparsityPattern(7, [(0, k) for k in range(1, 7)])),
        ] + [random_structure(int(rng.integers(2, 30)), seed=5050 + t, branching=b)
             for t, b in enumerate([1.05, 3.0, 4.0] * 3)]
        for st in structs:
            w, x = to_dense(random_spd(st, rng)), to_dense(random_spd(st, rng))
            assert np.array_equal(_newton_system(st, w, x), ix_newton_system(st, w, x))

    def test_random_pairs(self, rng):
        for t, (_, x, s) in enumerate(interior_pairs(rng, 12, seed0=5150)):
            assert_sequential(x, s, tol=[1e-9, 1e-12, 0.0][t % 3])

    def test_late_solve_iterates(self):
        """Every scaling_point call of three solves, including iterates near
        the boundary whose searches halve 17 times or more, some of them
        down to the floor."""
        longest = []
        for x, s, kwargs in [c for seed in (0, 2, 4) for c in solve_scaling_calls(seed)]:
            halvings = []
            sequential_scaling_point(x, s, **kwargs, halvings=halvings)
            longest.append(max(halvings, default=0))
            assert_sequential(x, s, **kwargs)
        assert any(17 <= h < 40 for h in longest) and 40 in longest


class TestScalingConvergenceError:
    """A search that stops short of its target returns its best iterate
    with why it stopped and after how many Newton steps, and in every
    case the sequential search's record."""

    def assert_stops(self, x, s, why, **kwargs):
        point = scaling_point(x, s, **kwargs)
        assert re.search(why, f"after {point.steps} Newton steps: {point.stop}")
        assert point.residual > kwargs["tol"]
        assert point.w.struct is x.struct
        assert_sequential(x, s, **kwargs)

    def pair(self, rng):
        _, x, s = next(interior_pairs(rng, 1, lo=8, seed0=5350))
        return x, s

    def test_step_budget(self, rng, monkeypatch):
        monkeypatch.setattr(scaling, "NEWTON_STEPS", 2)
        self.assert_stops(*self.pair(rng), "after 2 Newton steps: the step budget ran out",
                          tol=1e-12)

    def test_no_progress(self, rng):
        self.assert_stops(*self.pair(rng), r"after \d+ Newton steps: 8 steps in a row made no "
                          "progress", tol=0.0)

    def test_line_search_floor(self):
        floors = 0
        for x, s, kwargs in solve_scaling_calls(0):
            halvings = []
            sequential_scaling_point(x, s, **kwargs, halvings=halvings)
            if halvings[-1:] == [40]:
                floors += 1
                self.assert_stops(x, s, r"after \d+ Newton steps: the line search reached its "
                                  r"numerical floor t <= 1e-12", tol=kwargs["tol"])
        assert floors

    def test_singular_newton_system(self, rng, monkeypatch):
        def singular(struct, w_dense, x_dense):
            return np.zeros((struct.dim, struct.dim))

        monkeypatch.setattr(scaling, "_newton_system", singular)
        monkeypatch.setattr(helpers, "ix_newton_system", singular)
        self.assert_stops(*self.pair(rng), "after 0 Newton steps: the Newton system is "
                          "singular", tol=1e-12)


class TestPdFactor:
    def test_identity_point(self, vinberg_struct):
        eye = identity(vinberg_struct)
        op = pd_factor(eye, eye, eye)
        assert op.residual < 1e-14
        assert np.allclose(op.v.vals, eye.vals)

    def test_scalar_case(self):
        st = Structure(SparsityPattern(1, []), Ordering.identity(1))
        x = from_triplets(st, [(0, 0, 4.0)])
        s = from_triplets(st, [(0, 0, 1.0)])
        w = scaling_w(x, s, tol=1e-13)
        op = pd_factor(w, x, s)
        assert np.isclose(to_dense(op.base)[0, 0], np.sqrt(2.0))
        assert np.isclose(op.v.vals[0], 2.0)

    def test_exact_from_any_interior_point(self, rng):
        """The first rank-one term maps v to x, and the adjoint maps s to
        v, with |v|^2 = <x, s>, whatever interior w is factored."""
        for _, x, s in interior_pairs(rng, 10, seed0=5450):
            op = pd_factor(random_spd(x.struct, rng), x, s)
            scale = max(1.0, norm(x), norm(s))
            assert norm(apply_scaling(op, "forward", op.v) - x) <= 1e-12 * scale
            assert norm(apply_scaling(op, "adjoint", s) - op.v) <= 1e-12 * scale
            assert np.isclose(inner(op.v, op.v), inner(x, s), rtol=1e-12)
            assert op.residual > 1e-3 * scale

    def test_common_value_residual(self, rng):
        for _, x, s in interior_pairs(rng, 10, seed0=5400):
            w = scaling_w(x, s, tol=1e-9)
            op = pd_factor(w, x, s)
            assert op.residual <= 1e-7 * (norm(x) + norm(s))


class TestApplyScaling:
    def test_identity_operator(self, vinberg_struct, rng):
        eye_l = cholesky(identity(vinberg_struct)).L
        op = ScalingOperator(base=eye_l)
        z = random_sym(vinberg_struct, rng)
        for mode in ("forward", "adjoint", "inverse", "inverse_adjoint"):
            assert np.allclose(apply_scaling(op, mode, z).vals, z.vals)

    def test_unknown_mode(self, vinberg_struct, rng):
        op = ScalingOperator(base=cholesky(identity(vinberg_struct)).L)
        with pytest.raises(ValueError):
            apply_scaling(op, "sideways", random_sym(vinberg_struct, rng))

    @pytest.mark.parametrize("corrected", [False, True])
    def test_mode_consistency(self, rng, corrected):
        self.assert_modes_consistent(rng, corrected, "point")

    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("base", ["loose", "start"])
    def test_mode_consistency_off_the_scaling_point(self, rng, base, corrected):
        """The inverse round trips and adjoint pairings hold on the loose
        point solve() uses and on x/sqrt(mu), where the rank-one terms are
        far from zero."""
        self.assert_modes_consistent(rng, corrected, base)

    @staticmethod
    def assert_modes_consistent(rng, corrected, base):
        for _, x, s in interior_pairs(rng, 8, seed0=5500 + corrected):
            op = pd_factor(scaling_bases(x, s)[base], x, s)
            if corrected:
                op = bfgs_update(op, shadow_state(x, s))
                if not op.corrected:
                    continue
            z = random_sym(x.struct, rng)
            y = random_sym(x.struct, rng)
            fwd_inv = apply_scaling(op, "inverse", apply_scaling(op, "forward", z))
            assert np.allclose(fwd_inv.vals, z.vals, rtol=1e-11, atol=1e-11)
            adj_inv = apply_scaling(op, "adjoint",
                                    apply_scaling(op, "inverse_adjoint", z))
            assert np.allclose(adj_inv.vals, z.vals, rtol=1e-11, atol=1e-11)
            lhs = inner(apply_scaling(op, "adjoint", y), z)
            rhs = inner(y, apply_scaling(op, "forward", z))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            lhs = inner(apply_scaling(op, "inverse_adjoint", y), z)
            rhs = inner(y, apply_scaling(op, "inverse", z))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


class TestBfgsUpdate:
    def test_central_pair_identity_update(self, rng):
        st = random_structure(10, seed=8)
        x, _ = random_interior_pair(st, rng)
        # exactly central dual point: s = mu * proj(x^{-1}) for some mu
        from homcone.factor import projected_inverse

        s = 0.7 * projected_inverse(cholesky(x))
        state = shadow_state(x, s)
        assert norm(state.delta_p) <= 1e-10 and norm(state.delta_d) <= 1e-10
        w = scaling_w(x, s, tol=1e-12)
        op = pd_factor(w, x, s)
        assert bfgs_update(op, state) is op

    def test_four_equations(self, rng):
        checked = 0
        for _, x, s in interior_pairs(rng, 12, seed0=5600):
            state = shadow_state(x, s)
            for w in scaling_bases(x, s).values():
                op = bfgs_update(pd_factor(w, x, s), state)
                if not op.corrected:
                    break
                assert_four_equations(op, state, 1e-10 * max(1.0, norm(x), norm(s)))
            else:
                checked += 1
        assert checked >= 8

    def test_vhat_orthogonal_to_v(self, rng):
        for _, x, s in interior_pairs(rng, 8, seed0=5700):
            state = shadow_state(x, s)
            w = scaling_w(x, s, tol=1e-12)
            op = bfgs_update(pd_factor(w, x, s), state)
            if op.corrected:
                assert abs(inner(op.v_hat, op.v)) <= 1e-10 * norm(op.v_hat) * norm(op.v)

    def test_vhat_normalization(self, rng):
        for _, x, s in interior_pairs(rng, 6, seed0=5800):
            state = shadow_state(x, s)
            w = scaling_w(x, s, tol=1e-11)
            op = bfgs_update(pd_factor(w, x, s), state)
            if op.corrected:
                curv = inner(state.delta_d, state.delta_p)
                assert np.isclose(norm(op.v_hat) ** 2, curv, rtol=1e-10)

    def test_shadow_v_consistency(self, rng):
        # (v - v_hat)/mu equals both corrected images of the shadow pair
        for _, x, s in interior_pairs(rng, 8, seed0=5900):
            state = shadow_state(x, s)
            w = scaling_w(x, s, tol=1e-12)
            op = bfgs_update(pd_factor(w, x, s), state)
            if not op.corrected:
                continue
            tilde = (1.0 / state.mu) * (op.v - op.v_hat)
            a = apply_scaling(op, "inverse", state.x_shadow)
            b = apply_scaling(op, "adjoint", state.s_shadow)
            scale = max(1.0, norm(tilde))
            assert norm(a - tilde) <= 1e-9 * scale
            assert norm(b - tilde) <= 1e-9 * scale

    def test_nonpositive_curvature_rejected(self, rng):
        st = random_structure(6, seed=17)
        x, s = random_interior_pair(st, rng)
        state = shadow_state(x, s)
        if inner(state.delta_d, state.delta_p) <= 0:
            pytest.skip("degenerate draw")
        w = scaling_w(x, s, tol=1e-10)
        op = pd_factor(w, x, s)
        from dataclasses import replace

        corrupted = replace(state, delta_d=-1.0 * state.delta_d)
        with pytest.raises(NonpositiveCurvature):
            bfgs_update(op, corrupted)
