"""Correctness gates.  Every solve and every kernel pass is checked; a
check that fails, or a call that raises, counts as a failed operation.

Solves are checked in dense arithmetic from the instance's own data, not
from anything the solver reports: cone membership with the dense oracles
of ``homcone.densecheck``, then residuals, gap and the objective bracket
given by the instance's known interior pair.  Kernel passes are checked
through round-trip identities whose exact answer is known.
"""

from __future__ import annotations

import numpy as np

from homcone import densecheck
from homcone.errors import NotPositiveDefinite
from homcone.matrix import to_dense

#: Solve tolerances: the solver stops at 1e-8, these leave room for the
#: dense recomputation and still reject any result that is not optimal.
SOLVE_TOL = 1e-6
#: Kernel round trips are exact up to roundoff.
KERNEL_TOL = 1e-8


def check_solve(inst, report) -> tuple[bool, float, list]:
    """(passed, relative gap, reasons) for one solve report."""
    why = []
    if report.status.value != "Optimal":
        why.append(f"status {report.status.value}")
    x, s, y = to_dense(report.x), to_dense(report.s), np.asarray(report.y)
    scale = 1.0 + max(np.abs(x).max(), np.abs(s).max())
    try:
        densecheck.dense_chol(x + 1e-9 * scale * np.eye(len(x)))
    except NotPositiveDefinite:
        why.append("x is not positive semidefinite")
    if not densecheck.dense_completable(report.s, shift=-1e-9 * scale):
        why.append("s is not completable")
    if np.any(x[~inst.mask]) or np.any(s[~inst.mask]):
        why.append("x or s leaves the pattern")
    r_p = np.einsum("kij,ij->k", inst.a_dense, x) - inst.b
    r_d = np.einsum("k,kij->ij", y, inst.a_dense) + s - inst.c_dense
    if np.linalg.norm(r_p) > SOLVE_TOL * (1.0 + np.linalg.norm(inst.b)):
        why.append(f"primal residual {np.linalg.norm(r_p):.2e}")
    if np.linalg.norm(r_d) > SOLVE_TOL * (1.0 + np.linalg.norm(inst.c_dense)):
        why.append(f"dual residual {np.linalg.norm(r_d):.2e}")
    pobj = float(np.sum(inst.c_dense * x))
    dobj = float(inst.b @ y)
    rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj))
    if rel_gap > SOLVE_TOL:
        why.append(f"relative gap {rel_gap:.2e}")
    slack = SOLVE_TOL * (1.0 + abs(pobj))
    if pobj > inst.primal_bound + slack or dobj < inst.dual_bound - slack:
        why.append("objective outside the bracket of the known interior pair")
    return not why, rel_gap, why


def rel_err(got, want) -> float:
    """Relative 2-norm error of value arrays."""
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def kernel_errors(k) -> dict:
    """Round-trip errors of one kernel pass (see workloads.sweep)."""
    w = k.struct.weights

    def dot(a, b):
        return float(np.dot(w * a, b))

    fwd_s = dot(k.fz, k.s)
    z_adj = dot(k.z, k.adj_s)
    pairing = abs(fwd_s - z_adj) / (
        np.sqrt(dot(k.fz, k.fz) * dot(k.s, k.s))
        + np.sqrt(dot(k.z, k.z) * dot(k.adj_s, k.adj_s)))
    return {
        "cholesky": rel_err(k.chol, k.l0),
        "inverse_forward_map": rel_err(k.z_back, k.z),
        "inverse_adjoint_map": rel_err(k.s_back, k.s),
        "adjoint_pairing": float(pairing),
        "dual_gradient": rel_err(k.x_back, k.x),
        "tri_mul": rel_err(k.eye, k.eye_want),
    }
