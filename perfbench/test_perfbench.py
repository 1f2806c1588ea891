"""Self-test of the benchmark at tiny sizes: every metric named in
BENCHMARK.json is emitted with its unit, and every correctness gate
rejects a perturbed result.

    python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from homcone import io_cli, ipm  # noqa: E402
from homcone.errors import NotPositiveDefinite  # noqa: E402
from homcone.matrix import SymSparse  # noqa: E402

from perfbench import workloads  # noqa: E402
from perfbench.checks import KERNEL_TOL, check_solve, kernel_errors  # noqa: E402
from perfbench.clock import SteadyClock  # noqa: E402
from perfbench.inputs import random_instance  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    SolveSpec,
    SweepSpec,
    Workload,
    kernel_input,
    sweep,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = Workload("tiny", solves=(SolveSpec(6, 2, 3.0, 0),),
                sweeps=(SweepSpec(40, 1.5, 1),), sweep_repeats=2)


@pytest.fixture(scope="module")
def solved():
    inst = random_instance(8, 3, 3.0, 0, ROOT)
    problem, _ = io_cli.parse_problem(inst.text)
    return inst, ipm.solve(problem)


@pytest.fixture(scope="module")
def kernel_pass():
    gen = random_instance(30, 1, 1.3, 2, ROOT)
    problem, _ = io_cli.parse_problem(gen.text)
    k = kernel_input(problem.struct, np.random.default_rng(0))
    return sweep(k, lambda: None)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    res = workloads.run(TINY, seed=3, seconds=0.0, trace=bool(trace), root=ROOT)
    assert res.correct and res.failed == 0 and res.attempted > 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: u for k, (_, u) in res.metrics.items()} == want
    assert all(np.isfinite(v) for v, _ in res.metrics.values())


def test_same_seed_same_inputs():
    runs = [workloads.run(TINY, seed=s, seconds=0.0, trace=False, root=ROOT)
            for s in (4, 4, 5)]
    errs = [r.detail["kernel_err_max"] for r in runs]
    assert errs[0] == errs[1] != errs[2]


def test_solve_gate_accepts_the_solution(solved):
    inst, rep = solved
    ok, gap, why = check_solve(inst, rep)
    assert ok, why
    assert gap < 1e-6


@pytest.mark.parametrize("perturb", ["status", "x_not_psd", "s_not_completable",
                                     "primal_residual", "dual_residual", "gap"])
def test_solve_gate_rejects_a_perturbed_result(solved, perturb):
    inst, rep = solved
    st = rep.x.struct
    eye = np.zeros(st.dim)
    eye[st.bar_ptr[:-1]] = 1.0
    big = 10.0 * (1.0 + np.abs(rep.x.vals).max() + np.abs(rep.s.vals).max())
    if perturb == "status":
        bad = replace(rep, status=ipm.SolveStatus.MAX_ITER)
    elif perturb == "x_not_psd":
        bad = replace(rep, x=SymSparse(st, rep.x.vals - big * eye))
    elif perturb == "s_not_completable":
        bad = replace(rep, s=SymSparse(st, rep.s.vals - big * eye))
    elif perturb == "primal_residual":
        bad = replace(rep, x=SymSparse(st, rep.x.vals + 1e-3 * eye))
    elif perturb == "dual_residual":
        bad = replace(rep, s=SymSparse(st, rep.s.vals + 1e-3 * eye))
    else:
        bad = replace(rep, y=rep.y - 1e-2 * np.sign(inst.b))
    ok, _, why = check_solve(inst, bad)
    assert not ok and why


def test_kernel_gate_accepts_a_clean_pass(kernel_pass):
    errs = kernel_errors(kernel_pass)
    assert max(errs.values()) <= KERNEL_TOL, errs


@pytest.mark.parametrize("field", ["chol", "z_back", "s_back", "fz", "x_back", "eye"])
def test_kernel_gate_rejects_a_perturbed_output(kernel_pass, field):
    vals = getattr(kernel_pass, field).copy()
    vals[len(vals) // 2] += 1e-4 * (1.0 + abs(vals).max())
    errs = kernel_errors(replace(kernel_pass, **{field: vals}))
    assert max(errs.values()) > KERNEL_TOL


def test_a_failed_call_or_check_counts_as_failed(monkeypatch):
    inputs = workloads.make_inputs(TINY, ROOT)
    problems, structs = workloads.set_up(inputs, lambda: None)
    kinputs = [kernel_input(structs[0], np.random.default_rng(0))]

    def no_solve(problem):
        raise NotPositiveDefinite(node=0)

    def off_by_one(L, X):
        return SymSparse(X.struct, forward(L, X).vals + 1.0)

    forward = workloads.factor.forward_map
    monkeypatch.setattr(workloads.ipm, "solve", no_solve)
    monkeypatch.setattr(workloads.factor, "forward_map", off_by_one)
    tally = workloads.Tally()
    workloads.run_pass(problems, inputs.instances, kinputs, 1, tally,
                       workloads.Samples(), SteadyClock())
    workloads.check_forward_identity(kinputs[0], tally)
    assert (tally.attempted, tally.failed) == (3, 3)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernels-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode != 0
    assert out.stdout == ""
