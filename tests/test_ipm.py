import contextlib
import logging

import numpy as np
import pytest

from homcone import ipm, matrix
from homcone.densecheck import dense_max_step
from homcone.errors import NotCompletable, SingularNormalMatrix
from homcone.factor import cholesky, maxdet_factor, projected_inverse
from homcone.io_cli import parse_problem
from homcone.ipm import (
    ConicProblem,
    Iterate,
    Residuals,
    SolveStatus,
    SolverOptions,
    max_step,
    normal_matrix,
    random_problem,
    residuals,
    search_direction,
    solve,
)
from homcone.matrix import SymSparse, from_triplets, identity, inner, norm, zeros
from homcone.scaling import apply_scaling, bfgs_update, pd_factor, scaling_point, shadow_state

from helpers import (
    ROOT,
    perfbench_module,
    random_completable,
    random_feasible_problem,
    random_spd,
    random_structure,
    random_sym,
    scaling_w,
    sequential_max_step,
    sweep_only,
)


def trace_one_problem(struct, costs):
    c = from_triplets(struct, [(i, i, ci) for i, ci in enumerate(costs)])
    return ConicProblem(struct, identity(struct).vals[None], np.array([1.0]), c)


def central_iterate(struct, rng, mu=0.5):
    """Feasible, exactly central iterate and a problem built around it."""
    x = random_spd(struct, rng)
    s = mu * projected_inverse(cholesky(x))
    a = rng.standard_normal((3, struct.dim))
    prob = ConicProblem(struct, a, np.vecdot(a * struct.weights, x.vals), s.copy())
    it = Iterate(x=x, y=np.zeros(3), s=s, mu=inner(s, x) / struct.n)
    return prob, it


def build_operator(x, s, tol=1e-12):
    state = shadow_state(x, s)
    w = scaling_w(x, s, tol=tol)
    return bfgs_update(pd_factor(w, x, s), state), state


def direction_equation_residuals(problem, it, op, gamma, d):
    d_x, d_y, d_s = d
    res = residuals(problem, it)
    e1 = float(np.linalg.norm(problem.apply_a(d_x) + res.r_p))
    e2 = norm(problem.apply_at(d_y) + d_s + res.r_d)
    vtilde = (1.0 / it.mu) * (op.v - op.v_hat_or_zero())
    rv = -1.0 * op.v + (gamma * it.mu) * vtilde
    e3 = norm(apply_scaling(op, "inverse", d_x)
              + apply_scaling(op, "adjoint", d_s) - rv)
    return e1, e2, e3


class TestResiduals:
    def test_identity_instance(self, vinberg_struct):
        prob = ConicProblem(vinberg_struct, identity(vinberg_struct).vals[None],
                            np.array([3.0]), identity(vinberg_struct))
        it = Iterate(x=identity(vinberg_struct), y=np.zeros(1),
                     s=identity(vinberg_struct), mu=1.0)
        res = residuals(prob, it)
        assert res.p_norm() == 0.0 and res.d_norm() == 0.0
        assert res.gap == 3.0

    def test_feasible_pair_zero(self, rng):
        st = random_structure(8, seed=31)
        prob, x_feas, y_feas, s_feas = random_feasible_problem(st, 4, rng)
        it = Iterate(x=x_feas, y=y_feas, s=s_feas, mu=inner(s_feas, x_feas) / st.n)
        res = residuals(prob, it)
        assert res.p_norm() <= 1e-12 * (1 + np.linalg.norm(prob.b))
        assert res.d_norm() <= 1e-12 * (1 + norm(prob.c))

    def test_perturbation_image(self, rng):
        st = random_structure(8, seed=32)
        prob, x_feas, y_feas, s_feas = random_feasible_problem(st, 4, rng)
        dx = random_sym(st, rng, scale=0.1)
        it = Iterate(x=x_feas + dx, y=y_feas, s=s_feas, mu=1.0)
        res = residuals(prob, it)
        assert np.allclose(res.r_p, prob.apply_a(dx), atol=1e-12)

    def test_weak_duality_identity(self, rng):
        # <c,x> - b'y = gap + y'r_p - <r_d, x> for arbitrary iterates
        st = random_structure(10, seed=33)
        prob, *_ = random_feasible_problem(st, 5, rng)
        x = random_spd(st, rng)
        y = rng.standard_normal(5)
        s = random_spd(st, rng)
        it = Iterate(x=x, y=y, s=s, mu=1.0)
        res = residuals(prob, it)
        lhs = inner(prob.c, x) - float(np.dot(prob.b, y))
        rhs = res.gap + float(np.dot(y, res.r_p)) - inner(res.r_d, x)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestSearchDirection:
    def test_central_gamma_one_is_zero(self, rng):
        st = random_structure(9, seed=34)
        prob, it = central_iterate(st, rng)
        op, _ = build_operator(it.x, it.s)
        d_x, d_y, d_s = search_direction(prob, it, residuals(prob, it), op, gamma=1.0)
        scale = max(1.0, norm(it.x))
        assert norm(d_x) <= 1e-10 * scale
        assert float(np.linalg.norm(d_y)) <= 1e-10 * scale
        assert norm(d_s) <= 1e-10 * scale

    def test_affine_direction_equations(self, rng):
        st = random_structure(9, seed=35)
        prob, it = central_iterate(st, rng)
        op, _ = build_operator(it.x, it.s)
        d = search_direction(prob, it, residuals(prob, it), op, gamma=0.0)
        e1, e2, e3 = direction_equation_residuals(prob, it, op, 0.0, d)
        assert max(e1, e2, e3) <= 1e-10 * max(1.0, norm(op.v))

    def test_equations_on_random_instance(self, rng):
        for trial in range(6):
            st = random_structure(int(rng.integers(3, 14)), seed=6000 + trial)
            prob, *_ = random_feasible_problem(st, int(rng.integers(1, 6)), rng)
            x = random_spd(st, rng)
            s = random_spd(st, rng)  # K subset K*, fine as a dual point
            it = Iterate(x=x, y=rng.standard_normal(prob.m), s=s,
                         mu=inner(s, x) / st.n)
            op, _ = build_operator(x, s)
            gamma = float(rng.uniform(0, 1))
            d = search_direction(prob, it, residuals(prob, it), op, gamma)
            e1, e2, e3 = direction_equation_residuals(prob, it, op, gamma, d)
            scale = max(1.0, norm(op.v), norm(x), norm(s))
            assert max(e1, e2, e3) <= 1e-9 * scale

    def test_normal_matrix_spd(self, rng):
        st = random_structure(8, seed=36)
        prob, *_ = random_feasible_problem(st, 4, rng)
        x, s = identity(st), identity(st)
        op, _ = build_operator(x, s)
        rows = [SymSparse(st, a) for a in prob.A]
        images = [apply_scaling(op, "forward", apply_scaling(op, "adjoint", a))
                  for a in rows]
        nm = np.array([[inner(ai, img) for img in images] for ai in rows])
        assert np.max(np.abs(nm - nm.T)) <= 1e-12 * max(1.0, np.max(np.abs(nm)))
        assert np.min(np.linalg.eigvalsh(0.5 * (nm + nm.T))) > 0

    def test_dependent_constraints(self, rng):
        st = random_structure(6, seed=37)
        a = random_sym(st, rng)
        with pytest.warns(UserWarning):
            prob = ConicProblem(st, np.array([a.vals, 2.0 * a.vals]),
                                np.array([1.0, 2.0]), identity(st))
        it = Iterate(x=identity(st), y=np.zeros(2), s=identity(st), mu=1.0)
        op, _ = build_operator(it.x, it.s)
        with pytest.raises(SingularNormalMatrix, match="rank deficient"):
            search_direction(prob, it, residuals(prob, it), op, gamma=0.5)


class TestMaxStep:
    def test_zero_direction(self, vinberg_struct):
        it = Iterate(x=identity(vinberg_struct), y=np.zeros(0),
                     s=identity(vinberg_struct), mu=1.0)
        z = zeros(vinberg_struct)
        assert max_step(it, z, z, eta=0.99) == 0.99

    def test_boundary_at_half(self, vinberg_struct):
        it = Iterate(x=identity(vinberg_struct), y=np.zeros(0),
                     s=identity(vinberg_struct), mu=1.0)
        d_x = -2.0 * identity(vinberg_struct)
        a = max_step(it, d_x, zeros(vinberg_struct), eta=0.99)
        assert a < 0.5
        assert a > 0.99 * 0.5 - 1e-6

    def test_bisection_certificate(self, rng):
        for trial in range(8):
            st = random_structure(int(rng.integers(2, 12)), seed=6100 + trial)
            x = random_spd(st, rng)
            s = random_spd(st, rng)
            it = Iterate(x=x, y=np.zeros(0), s=s, mu=1.0)
            d_x = random_sym(st, rng)
            d_s = random_sym(st, rng)
            eta = 0.99
            a = max_step(it, d_x, d_s, eta=eta)
            if a > 1e-9:
                cholesky(x + a * d_x)
                maxdet_factor(s + a * d_s)
            raw = a / eta
            if raw < 0.999:  # did not hit the cap
                with pytest.raises(Exception):
                    cholesky(x + (raw * 1.02) * d_x)
                    maxdet_factor(s + (raw * 1.02) * d_s)


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


class TestSolve:
    def test_analytic_trace_one(self, vinberg_struct):
        prob = trace_one_problem(vinberg_struct, [1.0, 2.0, 3.0])
        rep = solve(prob, SolverOptions(tol_gap=1e-9, tol_feas=1e-9))
        assert rep.status is SolveStatus.OPTIMAL
        assert abs(rep.primal_objective - 1.0) <= 1e-6
        assert rep.gap / 3 <= 1e-7

    def test_fixed_trace_objective(self, rng):
        st = random_structure(6, seed=38)
        prob = ConicProblem(st, identity(st).vals[None], np.array([float(st.n)]),
                            identity(st))
        rep = solve(prob)
        assert rep.status is SolveStatus.OPTIMAL
        assert abs(rep.primal_objective - st.n) <= 1e-6
        assert abs(rep.dual_objective - st.n) <= 1e-6

    def test_self_certifying_instances(self, rng):
        for trial in range(6):
            st = random_structure(int(rng.integers(3, 16)), seed=6200 + trial)
            m = int(rng.integers(1, 8))
            prob, x_feas, y_feas, s_feas = random_feasible_problem(st, m, rng)
            rep = solve(prob)
            assert rep.status is SolveStatus.OPTIMAL
            assert rep.gap / st.n <= 1e-7
            feas_scale = 1 + np.linalg.norm(prob.b) + norm(prob.c)
            assert rep.primal_residual <= 1e-8 * feas_scale
            assert rep.dual_residual <= 1e-8 * feas_scale
            cert_primal = inner(prob.c, x_feas)
            cert_dual = float(np.dot(prob.b, y_feas))
            slack = 1e-5 * max(1.0, abs(cert_primal))
            assert rep.primal_objective <= cert_primal + slack
            assert rep.dual_objective >= cert_dual - slack
            assert rep.primal_objective >= rep.dual_objective - slack

    def test_cone_membership_certified(self, rng):
        st = random_structure(8, seed=39)
        prob, *_ = random_feasible_problem(st, 3, rng)
        rep = solve(prob)
        cholesky(rep.x)
        maxdet_factor(rep.s)

    @pytest.mark.parametrize("admitted", [True, False], ids=["admitted", "swept"])
    def test_accepted_iterates_are_the_certified_points(self, admitted, rng, monkeypatch):
        """Every x and s an iteration starts from (what shadow_state
        receives) is bit for bit the pair the previous max_step certified
        by its last cholesky and maxdet_factor, as is the final one."""
        with contextlib.ExitStack() as stack:
            if not admitted:
                stack.enter_context(sweep_only())
            st = random_structure(14, seed=41)
        assert (st.dense is not None) == admitted
        prob, *_ = random_feasible_problem(st, 4, rng)
        last, certified, started = {}, [], []

        def spy(kernel):
            def run(x):
                last[kernel] = x.vals.tobytes()
                return kernel(x)
            return run

        def step(*args):
            a = real_step(*args)
            certified.append((last[cholesky], last[maxdet_factor]))
            return a

        def state(x, s):
            started.append((x.vals.tobytes(), s.vals.tobytes()))
            return shadow_state(x, s)

        real_step = ipm.max_step
        monkeypatch.setattr(ipm, "cholesky", spy(cholesky))
        monkeypatch.setattr(ipm, "maxdet_factor", spy(maxdet_factor))
        monkeypatch.setattr(ipm, "max_step", step)
        monkeypatch.setattr(ipm, "shadow_state", state)
        rep = solve(prob)
        assert rep.status is SolveStatus.OPTIMAL
        assert min(row["alpha"] for row in rep.trace) >= 1e-10
        assert len(started) == len(certified) == rep.iterations >= 10
        assert started[1:] + [(rep.x.vals.tobytes(), rep.s.vals.tobytes())] == certified
        assert st._cliques is not None

    def test_mu_monotone_trend(self, rng):
        # constant-factor decrease per 10-iteration window at the supported
        # tolerance (tighter targets sit below the double-precision floor)
        st = random_structure(10, seed=40)
        prob, *_ = random_feasible_problem(st, 5, rng)
        rep = solve(prob)
        assert rep.status is SolveStatus.OPTIMAL
        mus = [row["mu"] for row in rep.trace]
        assert len(mus) >= 11
        for k in range(len(mus) - 10):
            assert mus[k + 10] <= 0.5 * mus[k]

    def test_trace_fields(self, vinberg_struct):
        prob = trace_one_problem(vinberg_struct, [1.0, 2.0, 3.0])
        rep = solve(prob)
        assert rep.trace
        row = rep.trace[0]
        for key in ("iter", "mu", "gap", "primal_residual", "dual_residual",
                    "alpha", "gamma", "scaling_residual", "proximity"):
            assert key in row

    def test_report_roundtrip_dict(self, vinberg_struct):
        prob = trace_one_problem(vinberg_struct, [1.0, 2.0, 3.0])
        rep = solve(prob)
        d = rep.to_dict()
        assert d["status"] == "Optimal"
        assert len(d["x"]) == vinberg_struct.dim
        assert isinstance(d["trace"], list)

    def test_debug_log_per_iteration(self, vinberg_struct, caplog):
        prob = trace_one_problem(vinberg_struct, [1.0, 2.0, 3.0])
        with caplog.at_level(logging.DEBUG, logger="homcone.ipm"):
            rep = solve(prob)
        lines = [r.getMessage() for r in caplog.records if r.name == "homcone.ipm"]
        assert len(lines) == rep.iterations > 0
        assert lines[0].startswith("it   0  mu 1.000e+00")

    def test_max_iter_status(self, vinberg_struct):
        prob = trace_one_problem(vinberg_struct, [1.0, 2.0, 3.0])
        rep = solve(prob, SolverOptions(max_iter=2))
        assert rep.status is SolveStatus.MAX_ITER
        assert rep.iterations == 2
        assert rep.stop_reason == "the iteration limit of 2 was reached"

    def test_stop_reasons(self, vinberg_struct, monkeypatch):
        prob = trace_one_problem(vinberg_struct, [1.0, 2.0, 3.0])
        rep = solve(prob)
        assert rep.to_dict()["stop_reason"] == rep.stop_reason
        assert rep.stop_reason == (
            f"gap/N {rep.gap / 3:.3e} <= 1e-08 and residual norms "
            f"{rep.primal_residual:.3e}, {rep.dual_residual:.3e} <= "
            f"{1e-8 * (1.0 + 1.0 + norm(prob.c)):.3e} at iteration {rep.iterations}")
        monkeypatch.setattr(ipm, "max_step", lambda *args: 1e-11)
        rep = solve(prob)
        assert rep.status is SolveStatus.STALLED and rep.iterations == 2
        assert rep.stop_reason == "steps 1.0e-11 and 1.0e-11 in a row were below 1e-10"

    def test_benchmark_instance_from_the_central_path_start(self):
        """perfbench's random_instance(40, 16, 3.0, 4) ended MaxIter when
        each scaling-point search started from the previous iteration's
        point.  Started on the central path, it ends Optimal, and the
        benchmark's dense checks accept the result."""
        inst = perfbench_module("inputs").random_instance(40, 16, 3.0, 4, ROOT)
        rep = solve(parse_problem(inst.text)[0])
        assert rep.status is SolveStatus.OPTIMAL and rep.iterations <= 30, rep.stop_reason
        ok, _, why = perfbench_module("checks").check_solve(inst, rep)
        assert ok, why

    def test_scaling_stops_are_reported(self, caplog, monkeypatch):
        """A scaling-point search that gives up is named in the trace row
        and the log, and the solve goes on with its best iterate."""
        rng = np.random.default_rng(0)
        n, m = int(rng.integers(6, 20)), int(rng.integers(1, 6))
        prob = random_feasible_problem(random_structure(n, seed=300), m, rng)[0]
        bests, used = {}, []

        def search(x, s, **kwargs):
            point = scaling_point(x, s, **kwargs)
            if point.stop is not None:
                bests[len(used)] = point
            return point

        def factor(w, x, s):
            used.append(w)
            return pd_factor(w, x, s)

        monkeypatch.setattr(ipm, "scaling_point", search)
        monkeypatch.setattr(ipm, "pd_factor", factor)
        with caplog.at_level(logging.INFO, logger="homcone.ipm"):
            rep = solve(prob)
        stops = [row["scaling_stop"] for row in rep.trace]
        assert sorted(bests) == [k for k, stop in enumerate(stops) if stop is not None]
        assert all(used[k] is best.w for k, best in bests.items())
        logged = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert None in stops
        assert "the line search reached its numerical floor t <= 1e-12" in stops
        assert len(logged) == sum(stop is not None for stop in stops)
        for line, (k, best) in zip(logged, sorted(bests.items())):
            assert stops[k] == best.stop
            assert line == (f"it {k:3d}  scaling point stopped at residual {best.residual:.3e} "
                            f"(target 1e-11) after {best.steps} Newton steps: {best.stop}; "
                            "going on with its best iterate")


def per_matrix_maps(prob, x, y, op):
    """A(x), A*(y) and the normal matrix computed one constraint matrix
    (or one pair) at a time, as a tuple of SymSparse would."""
    mats = [SymSparse(prob.struct, a) for a in prob.A]
    a_x = np.array([inner(a, x) for a in mats])
    at_y = zeros(prob.struct)
    for yi, a in zip(y, mats):
        if yi != 0.0:
            at_y = at_y + float(yi) * a
    images = [apply_scaling(op, "forward", apply_scaling(op, "adjoint", a))
              for a in mats]
    nm = np.array([[inner(ai, img) for img in images] for ai in mats])
    nm = nm.reshape(prob.m, prob.m)
    return a_x, at_y, 0.5 * (nm + nm.T)


class TestConstraintArray:
    def test_maps_bitwise_per_matrix(self, rng):
        for trial, m in enumerate((0, 1, 1, 2, 5, 9)):
            st = random_structure(int(rng.integers(3, 16)), seed=6300 + trial)
            prob, *_ = random_feasible_problem(st, m, rng)
            x, s = random_spd(st, rng), random_spd(st, rng)
            op, _ = build_operator(x, s)
            assert op.corrected
            y = rng.standard_normal(m)
            y[::3] = 0.0
            want = per_matrix_maps(prob, x, y, op)
            got = (prob.apply_a(x), prob.apply_at(y).vals, normal_matrix(prob, op))
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1].vals)
            assert np.array_equal(np.signbit(got[1]), np.signbit(want[1].vals))
            assert np.array_equal(got[2], want[2])

    def test_array_is_a_read_only_copy(self, rng):
        st = random_structure(7, seed=6310)
        a = rng.standard_normal((2, st.dim))
        prob = ConicProblem(st, a, np.zeros(2), identity(st))
        a[0, 0] = 99.0
        assert prob.A[0, 0] != 99.0
        assert prob.A.dtype == np.float64 and not prob.A.flags.writeable
        with pytest.raises(ValueError):
            prob.A[0, 0] = 1.0
        assert np.array_equal(prob.A_weighted, prob.A * st.weights)
        assert not prob.A_weighted.flags.writeable

    def test_identity_equality_and_hash(self, rng):
        """Equal-valued distinct problems with m >= 2 compare unequal
        instead of raising on an array truth value, and problems hash."""
        st = random_structure(7, seed=6313)
        p, *_ = random_feasible_problem(st, 3, rng)
        q = ConicProblem(st, p.A, p.b, p.c)
        assert p == p
        assert p != q
        assert hash(p) == hash(p)
        assert len({p, q, p}) == 2

    def test_wrong_shape_names_both_sizes(self, rng):
        st = random_structure(7, seed=6311)
        dim = st.dim
        with pytest.raises(ValueError, match=rf"\(2, {dim + 1}\).*dim {dim}"):
            ConicProblem(st, np.zeros((2, dim + 1)), np.zeros(2), identity(st))
        with pytest.raises(ValueError, match=rf"\({dim},\).*dim {dim}"):
            ConicProblem(st, np.zeros(dim), np.zeros(1), identity(st))
        with pytest.raises(ValueError, match="3 rows but b has 2 entries"):
            ConicProblem(st, rng.standard_normal((3, dim)), np.zeros(2), identity(st))

    def test_no_constraints_solves(self, rng):
        st = random_structure(12, seed=6312)
        prob, *_ = random_feasible_problem(st, 0, rng)
        assert prob.A.shape == (0, st.dim) and prob.m == 0
        rep = solve(prob)
        assert rep.status is SolveStatus.OPTIMAL
        assert rep.y.shape == (0,)
        # with c interior to K*, the optimum of <c, x> over K is x = 0
        assert abs(rep.primal_objective) <= 1e-6

    def test_gram_check(self, rng):
        st = random_structure(6, seed=6313)
        a = rng.standard_normal((3, st.dim))
        assert not ConicProblem(st, a, np.zeros(3), identity(st)).constraints_dependent()
        a[2] = a[0] - 0.5 * a[1]
        with pytest.warns(UserWarning, match="linearly dependent"):
            prob = ConicProblem(st, a, np.zeros(3), identity(st))
        assert prob.constraints_dependent()

    @pytest.mark.parametrize("n,seed", [(10, 0), (10, 1), (20, 1)])
    def test_singular_normal_matrix_not_blamed_on_constraints(self, n, seed):
        # min <I, x> s.t. <I, x> = -1 is infeasible; the constraints are not
        # dependent, so the failure must not say they are
        st = random_structure(n, seed=seed)
        rng = np.random.default_rng(seed)
        a = np.array([identity(st).vals, rng.standard_normal(st.dim)])
        prob = ConicProblem(st, a, np.array([-1.0, 0.0]), identity(st))
        assert not prob.constraints_dependent()
        with pytest.raises(SingularNormalMatrix) as err:
            solve(prob)
        msg = str(err.value)
        assert "rank deficient" not in msg
        assert "at iteration" in msg and "mu =" in msg and "may be infeasible" in msg


def test_random_problem_without_dense_algebra(monkeypatch, rng):
    def refuse(x):
        raise AssertionError("random_problem built a dense matrix")

    st = random_structure(20, seed=6320)
    with monkeypatch.context() as mp:
        # the solve below may: its scaling point and step search are dense
        mp.setattr(matrix, "to_dense", refuse)
        mp.setattr(ipm, "to_dense", refuse)
        prob = random_problem(st, 3, rng)
    assert prob.A.shape == (3, st.dim)
    assert solve(prob).status is SolveStatus.OPTIMAL
