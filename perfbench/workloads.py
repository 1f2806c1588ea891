"""The three workloads and the measured loop that runs them.

Every workload is a closed loop: one process, one call at a time.  A run
builds its inputs, sets them up several times (timing each set-up), then
repeats passes until ``seconds`` have elapsed.  A pass solves every conic
instance once and sweeps the ten kernels over every structure of the
workload ``sweep_repeats`` times.  Each solve and each sweep is checked;
the checks run outside the timed calls.

The conic instances and the sweep patterns (shapes and vertex labels) are
fixed by the workload; the run seed draws the matrix values of every
kernel sweep, which the correctness gates check but which do not change
the work.  Measurements forced this.  The solver's iteration count is
chaotic in roundoff: relabelling the vertices of one fixed instance (which
only permutes its dense scaling-point algebra) moved it between 29 and 95
iterations at n=40, m=12, and between 14 and 27 at n=16, m=8.  Kernel cost
tracks sum (depth+1)^2, whose quartiles span 12% (n=20000, branching 4) to
46% (n=1500, branching 1.05) of the median across random trees.  And the
labels of one tree change the elimination order recognition picks, which
moved set-up by up to 14% and a cholesky plus forward_map by 9% at
n=16000.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from homcone import factor, io_cli, ipm, matrix, pattern
from homcone.errors import HomconeError
from homcone.matrix import SymSparse

from .clock import SteadyClock, checkpoints_at
from .checks import KERNEL_TOL, check_solve, kernel_errors, rel_err
from .inputs import labelled_edges, random_forest, random_instance
from .tracer import KERNELS, Totals, Tracer


@dataclass(frozen=True)
class SolveSpec:
    n: int
    m: int
    branching: float
    seed: int


@dataclass(frozen=True)
class SweepSpec:
    n: int
    branching: float
    seed: int


@dataclass(frozen=True)
class Workload:
    """Conic instances to solve and forests to sweep; why each workload
    exists is in BENCHMARK.json and README.md."""

    name: str
    solves: tuple
    sweeps: tuple = ()
    sweep_repeats: int = 1


WORKLOADS = {w.name: w for w in (
    Workload(
        "solve-mixed",
        solves=(SolveSpec(16, 8, 3.0, 0), SolveSpec(24, 12, 3.0, 1),
                SolveSpec(48, 8, 3.0, 2)),
        sweep_repeats=5),
    Workload(
        "kernels-wide",
        solves=(SolveSpec(16, 6, 4.0, 3),),
        sweeps=(SweepSpec(16000, 4.0, 4),)),
    Workload(
        "kernels-deep",
        solves=(SolveSpec(12, 4, 1.05, 5),),
        sweeps=(SweepSpec(1200, 1.05, 6),)),
)}

#: set up at least SETUP_REPEATS times per run, then until SETUP_SECONDS of
#: set-up have passed or SETUP_MAX_REPEATS set-ups are done
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 50


# ------------------------------------------------------------------ inputs

@dataclass
class Inputs:
    instances: list
    patterns: list          # SparsityPattern of each sweep spec
    forests: list           # Forest of each sweep spec


def make_inputs(w: Workload, root: Path) -> Inputs:
    instances = [random_instance(sp.n, sp.m, sp.branching, sp.seed, root)
                 for sp in w.solves]
    patterns, forests = [], []
    for sp in w.sweeps:
        rng = np.random.default_rng(sp.seed)
        forest = random_forest(sp.n, sp.branching, rng)
        label = rng.permutation(sp.n)
        edges = [(i - 1, k - 1) for i, k in labelled_edges(forest, label)]
        patterns.append(pattern.SparsityPattern(sp.n, edges))
        forests.append(forest)
    return Inputs(instances, patterns, forests)


def set_up(inputs: Inputs, checkpoint):
    """What the first call needs: parsed problems (recognition, Structure,
    Gram check) and the sweep structures (recognition plus Structure),
    with ``checkpoint()`` called between steps (see clock.py)."""
    problems = []
    for inst in inputs.instances:
        problems.append(io_cli.parse_problem(inst.text)[0])
        checkpoint()
    structs = []
    for pat in inputs.patterns:
        res = pattern.lbfs_order(pat)
        if not res.accepted:
            raise HomconeError("sweep pattern failed recognition")
        checkpoint()
        structs.append(matrix.Structure(pat, res.ordering, res.etree))
    return problems, structs


@dataclass
class KernelInput:
    struct: object
    l0: np.ndarray          # known factor of x
    x: SymSparse
    z: SymSparse
    s: SymSparse


def lower_gram(struct, lv: np.ndarray) -> np.ndarray:
    """Values of L L^T on the pattern, summed column by column: column k
    of L lives on k's ancestor chain, and the entry pairing chain members
    i >= j sits in column chain[j] at offset i - j."""
    out = np.zeros(struct.dim)
    ptr, rows = struct.bar_ptr, struct.bar_rows
    for k in range(struct.n):
        a, b = int(ptr[k]), int(ptr[k + 1])
        col = lv[a:b]
        for j in range(b - a):
            c = int(ptr[rows[a + j]])
            out[c:c + b - a - j] += col[j] * col[j:]
    return out


def kernel_input(struct, rng) -> KernelInput:
    """Well-conditioned random factor: unit-scale diagonal and
    subdiagonal entries shrinking with the column's depth, so triangular
    solves along long chains stay accurate."""
    depth = np.asarray(struct.depth, dtype=float)
    col_depth = np.repeat(depth, depth.astype(int) + 1)
    lv = 0.3 * rng.standard_normal(struct.dim) / np.sqrt(col_depth + 1.0)
    lv[struct.bar_ptr[:-1]] = rng.uniform(1.0, 2.0, struct.n)
    return KernelInput(
        struct=struct, l0=lv, x=SymSparse(struct, lower_gram(struct, lv)),
        z=SymSparse(struct, rng.standard_normal(struct.dim)),
        s=SymSparse(struct, rng.standard_normal(struct.dim)))


@dataclass
class KernelPass:
    """Outputs of one sweep, named for the identities that check them."""

    struct: object
    l0: np.ndarray
    x: np.ndarray
    z: np.ndarray
    s: np.ndarray
    chol: np.ndarray
    fz: np.ndarray
    z_back: np.ndarray
    adj_s: np.ndarray
    s_back: np.ndarray
    x_back: np.ndarray
    eye: np.ndarray
    eye_want: np.ndarray


def sweep(k: KernelInput, checkpoint) -> KernelPass:
    """The ten kernels once each, every output feeding a round trip, with
    ``checkpoint()`` called between kernels (see clock.py)."""
    f = factor.cholesky(k.x)
    checkpoint()
    fz = factor.forward_map(f.L, k.z)
    checkpoint()
    z_back = factor.inverse_forward_map(f.L, fz)
    checkpoint()
    adj_s = factor.adjoint_map(f.L, k.s)
    checkpoint()
    s_back = factor.inverse_adjoint_map(f.L, adj_s)
    checkpoint()
    proj = factor.projected_inverse(f)
    checkpoint()
    completed = factor.maxdet_factor(proj)
    checkpoint()
    x_back = factor.dual_gradient(completed)
    checkpoint()
    inv = matrix.tri_inverse(f.L)
    checkpoint()
    eye = matrix.tri_mul(f.L, inv)
    return KernelPass(
        struct=k.struct, l0=k.l0, x=k.x.vals, z=k.z.vals, s=k.s.vals,
        chol=f.L.vals, fz=fz.vals, z_back=z_back.vals, adj_s=adj_s.vals,
        s_back=s_back.vals, x_back=x_back.vals, eye=eye.vals,
        eye_want=matrix.identity(k.struct).vals)


# -------------------------------------------------------------- measuring

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    solves: int = 0
    solves_ok: int = 0
    rel_gap_max: float = 0.0
    kernel_err_max: float = 0.0
    failures: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


@dataclass
class Samples:
    """Reference-speed seconds (see clock.py) of every timed call, one list
    per operation: ("solve", i, ...) for instance i and ("sweep", j, ...)
    for the ``sweep_repeats`` sweeps of structure j, timed as one block.
    Passes repeat identical work, so each list holds repeated measurements
    of one thing.  ``wall`` sums the raw wall seconds."""

    times: dict = field(default_factory=dict)
    iterations: list = field(default_factory=list)
    wall: float = 0.0

    def add(self, key: tuple, log: list) -> None:
        for name, wall, steady in log:
            self.times.setdefault(key + (name,), []).append(steady)
            self.wall += wall

    def medians(self, repeats: int) -> tuple:
        """(solve set, one sweep, one pass), each operation at its median."""
        med = {k: statistics.median(v) for k, v in self.times.items()}
        solve = sum(v for k, v in med.items() if k[0] == "solve")
        sweeps = sum(v for k, v in med.items() if k[0] == "sweep")
        return solve, sweeps / repeats, solve + sweeps


def run_pass(problems, instances, kinputs, repeats: int, tally: Tally,
             samples: Samples, clock: SteadyClock) -> None:
    iterations = []
    for i, (prob, inst) in enumerate(zip(problems, instances)):
        tally.attempted += 1
        tally.solves += 1
        gc.collect()  # a solve's time should not depend on the garbage before it
        try:
            report = clock.call(ipm.solve, prob)
        except HomconeError as e:
            report = e
        samples.add(("solve", i), clock.take())
        if isinstance(report, HomconeError):
            tally.fail(f"{inst.name}: {type(report).__name__}: {report}")
            tally.rel_gap_max = 1.0
            iterations.append(0)
            continue
        iterations.append(report.iterations)
        ok, gap, why = check_solve(inst, report)
        tally.rel_gap_max = max(tally.rel_gap_max, _capped(gap))
        if ok:
            tally.solves_ok += 1
        else:
            tally.fail(f"{inst.name}: " + "; ".join(why))
    samples.iterations = iterations
    for j, k in enumerate(kinputs):
        outs = []

        def block():
            for _ in range(repeats):
                outs.append(sweep(k, clock.checkpoint))

        try:
            clock.call(block)
            failure = None
        except HomconeError as e:
            failure = e
        samples.add(("sweep", j), clock.take())
        for out in outs:
            tally.attempted += 1
            check_kernels(out, tally)
        if failure is not None:
            tally.attempted += 1
            tally.fail(f"sweep n={k.struct.n}: {type(failure).__name__}: {failure}")
            tally.kernel_err_max = 1.0


def check_kernels(out: KernelPass, tally: Tally) -> None:
    errs = kernel_errors(out)
    worst = max(_capped(v) for v in errs.values())
    tally.kernel_err_max = max(tally.kernel_err_max, worst)
    if not worst <= KERNEL_TOL:
        bad = ", ".join(f"{k} {v:.1e}" for k, v in errs.items() if not v <= KERNEL_TOL)
        tally.fail(f"sweep n={out.struct.n}: {bad}")


def check_forward_identity(k: KernelInput, tally: Tally) -> None:
    """forward_map(L, I) = L L^T = x, with L = cholesky(x)."""
    tally.attempted += 1
    try:
        got = factor.forward_map(factor.cholesky(k.x).L, matrix.identity(k.struct))
    except HomconeError as e:
        tally.fail(f"forward_map(L, I) n={k.struct.n}: {e}")
        tally.kernel_err_max = 1.0
        return
    err = _capped(rel_err(got.vals, k.x.vals))
    tally.kernel_err_max = max(tally.kernel_err_max, err)
    if not err <= KERNEL_TOL:
        tally.fail(f"forward_map(L, I) n={k.struct.n}: error {err:.1e}")


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict           # name -> (value, unit)
    detail: dict


def run(w: Workload, seed: int, seconds: float, trace: bool, root: Path) -> Result:
    inputs = make_inputs(w, root)
    setup_tracer = Tracer()
    clock = SteadyClock()
    setup_s, setup_wall = [], []
    while len(setup_s) < SETUP_REPEATS or (sum(setup_wall) < SETUP_SECONDS
                                           and len(setup_s) < SETUP_MAX_REPEATS):
        gc.collect()  # every set-up starts from the same heap
        with setup_tracer if trace else nullcontext():
            problems, structs = clock.call(set_up, inputs, clock.checkpoint)
        ((_, wall, steady),) = clock.take()
        setup_s.append(steady)
        setup_wall.append(wall)
    rng = np.random.default_rng([seed, 200])
    all_structs = structs + [p.struct for p in problems]
    kinputs = [kernel_input(st, rng) for st in all_structs]
    depth2 = {id(st): f.depth2 for st, f in
              zip(all_structs, inputs.forests + [i.forest for i in inputs.instances])}

    tally = Tally()
    pass_tracer = Tracer(depth2)
    untraced, traced = Samples(), Samples()
    passes = traced_passes = 0
    gc.collect()
    gc.freeze()  # the inputs live all run; collections need not scan them
    try:
        start = time.perf_counter()
        while True:
            tracing = trace and passes % 2 == 1
            # Untraced solves are cut into one timing segment per iteration;
            # traced ones are not, so the calibration stays out of every span.
            with pass_tracer if tracing else checkpoints_at(clock, ipm, "max_step"):
                run_pass(problems, inputs.instances, kinputs, w.sweep_repeats,
                         tally, traced if tracing else untraced, clock)
            passes += 1
            traced_passes += tracing
            if time.perf_counter() - start >= seconds and (traced_passes or not trace):
                break
    finally:
        gc.unfreeze()
    for k in kinputs:
        check_forward_identity(k, tally)

    iters = sum(untraced.iterations)
    solve_s, sweep_s, pass_s = untraced.medians(w.sweep_repeats)
    detail = {
        "workload": w.name, "seed": seed, "trace": int(trace),
        "passes": passes, "traced_passes": traced_passes,
        "instances": [{"name": i.name, "dim": p.struct.dim, "iterations": it}
                      for i, p, it in zip(inputs.instances, problems,
                                          untraced.iterations)],
        "sweep_structures": [{"n": st.n, "dim": st.dim, "depth2": depth2[id(st)]}
                             for st in all_structs],
        "setup_repeats": len(setup_s),
        "setup_wall_median_s": statistics.median(setup_wall),
        "untraced_wall_s": untraced.wall,
        "traced_wall_s": traced.wall,
        "rel_gap_max": tally.rel_gap_max,
        "kernel_err_max": tally.kernel_err_max,
        "failures": tally.failures,
    }
    if trace:
        totals = Totals()
        totals.add(setup_tracer.totals, 1.0 / len(setup_s))
        totals.add(pass_tracer.totals, 1.0 / traced_passes)
        overhead = traced.medians(w.sweep_repeats)[2] - pass_s
        metrics = per_layer_metrics(totals, overhead_s=overhead)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "solve_wall_s": (solve_s, "s"),
            "iter_s": (solve_s / max(iters, 1), "s"),
            "ipm_iters": (iters, "count"),
            "solve_ok_ratio": (tally.solves_ok / max(tally.solves, 1), "1"),
            "rel_gap_digits": (_digits(tally.rel_gap_max), "digits"),
            "sweep_s": (sweep_s, "s"),
            "kernel_err_digits": (_digits(tally.kernel_err_max), "digits"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return Result(correct=tally.failed == 0, attempted=tally.attempted,
                  failed=tally.failed, metrics=metrics, detail=detail)


def _capped(err: float) -> float:
    """A relative error, with NaN and anything past 100% counted as 1."""
    return err if err < 1.0 else 1.0


def _digits(err: float) -> float:
    """-log10 of a capped relative error: correct digits, higher is better."""
    return float(-np.log10(max(err, 1e-300)))


def per_layer_metrics(t: Totals, overhead_s: float) -> dict:
    """Per-layer figures per set-up (set-up spans) plus per pass (the
    rest); counts are therefore calls per pass."""
    out = {}

    def seconds(name, span):
        out[name] = (t.self_s[span], "s")

    def count(name, value):
        out[name] = (value, "count")

    def rate(name, span):
        s = t.self_s[span]
        out[name] = (t.work[span] / s if s > 0 else 0.0, "1/s")

    seconds("pattern.lbfs_order.s", "pattern.lbfs_order")
    seconds("pattern.verify_ordering.s", "pattern.verify_ordering")
    seconds("matrix.Structure.s", "matrix.Structure")
    for k in ("tri_mul", "tri_inverse"):
        seconds(f"matrix.{k}.s", f"matrix.{k}")
        rate(f"matrix.{k}.depth2_per_s", f"matrix.{k}")
    seconds("matrix.inner.s", "matrix.inner")
    count("matrix.inner.calls", t.calls["matrix.inner"])
    for k in KERNELS:
        seconds(f"factor.{k}.s", f"factor.{k}")
        count(f"factor.{k}.calls", t.calls[f"factor.{k}"])
        rate(f"factor.{k}.depth2_per_s", f"factor.{k}")
    count("factor.cholesky.fail", t.fails["factor.cholesky"])
    count("factor.maxdet_factor.fail", t.fails["factor.maxdet_factor"])
    sp = "scaling.scaling_point"
    seconds("scaling.scaling_point.s", sp)
    count("scaling.scaling_point.calls", t.calls[sp])
    newton = t.edges[(sp, "factor.hess_apply")]
    count("scaling.newton_steps", newton)
    # each Newton step factors w once; every further factorization under
    # scaling_point is a line-search probe
    count("scaling.line_search_probes", t.edges[(sp, "factor.cholesky")] - newton)
    count("scaling.line_search_fail", t.child_fails[sp])
    out["scaling.residual_max"] = (t.peak["scaling.pd_factor"], "1")
    for k in ("shadow_state", "pd_factor", "bfgs_update", "apply_scaling"):
        seconds(f"scaling.{k}.s", f"scaling.{k}")
    count("scaling.apply_scaling.calls", t.calls["scaling.apply_scaling"])
    seconds("ipm.search_direction.s", "ipm.search_direction")
    seconds("ipm.max_step.s", "ipm.max_step")
    count("ipm.max_step.probes", t.edges[("ipm.max_step", "factor.cholesky")])
    count("ipm.max_step.probe_fail", t.child_fails["ipm.max_step"])
    seconds("ipm.residuals.s", "ipm.residuals")
    seconds("ipm.solve.s", "ipm.solve")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
