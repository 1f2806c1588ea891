"""Spans around the public functions of each homcone layer, recorded from
outside the program.

A :class:`Tracer` replaces each traced function at every module attribute
through which callers look it up (``ipm.scaling_point``,
``scaling.cholesky``, ``matrix.verify_ordering``, ...) and restores the
originals on exit.  Spans nest on a stack, so each span has a parent and a
span's self time is its duration minus the durations of its child spans.
Spans are folded into per-name totals as they close, which keeps memory
flat however many calls a run makes.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import homcone
from homcone import factor, io_cli, ipm, matrix, pattern, scaling
from homcone.errors import NotCompletable, NotPositiveDefinite

KERNELS = ("cholesky", "forward_map", "adjoint_map", "inverse_forward_map",
           "inverse_adjoint_map", "projected_inverse", "maxdet_factor",
           "dual_gradient")

#: layer -> (defining module, traced function names)
LAYERS = {
    "pattern": (pattern, ("lbfs_order", "verify_ordering")),
    "matrix": (matrix, ("tri_mul", "tri_inverse", "inner")),
    "factor": (factor, KERNELS + ("hess_apply",)),
    "scaling": (scaling, ("shadow_state", "scaling_point", "pd_factor",
                          "bfgs_update", "apply_scaling")),
    "ipm": (ipm, ("solve", "search_direction", "max_step", "residuals")),
}

#: every namespace a caller may look a traced function up in
_NAMESPACES = (homcone, pattern, matrix, factor, scaling, ipm, io_cli)

#: membership-test failures, counted on the span and on its parent
_CONE_FAILURES = (NotPositiveDefinite, NotCompletable)


@dataclass
class Totals:
    """Per-span-name sums.  ``edges[(parent, name)]`` counts calls of name
    made directly from parent; ``child_fails[parent]`` counts cone-membership
    failures raised by parent's direct children."""

    self_s: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    fails: Counter = field(default_factory=Counter)
    work: Counter = field(default_factory=Counter)
    edges: Counter = field(default_factory=Counter)
    child_fails: Counter = field(default_factory=Counter)
    peak: dict = field(default_factory=lambda: defaultdict(float))

    def add(self, other: "Totals", scale: float) -> None:
        """Accumulate other's sums times scale (peaks are maxima)."""
        for name in ("self_s", "calls", "fails", "work", "edges", "child_fails"):
            mine = getattr(self, name)
            for k, v in getattr(other, name).items():
                mine[k] += v * scale
        for k, v in other.peak.items():
            self.peak[k] = max(self.peak[k], v)


class Tracer:
    """Context manager installing span wrappers for the duration of a block.

    ``work`` maps ``id(struct)`` to the depth^2 count of that structure; a
    kernel span adds the count of the structure it ran on.
    """

    def __init__(self, work: dict | None = None):
        self.totals = Totals()
        self._work = work or {}
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name: str, fn, on_result=None, sized=False):
        stack, tot, work = self._stack, self.totals, self._work

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except _CONE_FAILURES:
                tot.fails[name] += 1
                tot.child_fails[parent] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                tot.self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                tot.calls[name] += 1
                tot.edges[(parent, name)] += 1
                if sized:
                    tot.work[name] += work.get(id(args[0].struct), 0)
            if on_result is not None:
                tot.peak[name] = max(tot.peak[name], on_result(out))
            return out

        return functools.wraps(fn)(span)

    def __enter__(self):
        sized = set(KERNELS) | {"tri_mul", "tri_inverse"}
        for layer, (home, names) in LAYERS.items():
            for attr in names:
                original = getattr(home, attr)
                hook = (lambda op: op.residual) if attr == "pd_factor" else None
                wrapped = self._wrap(f"{layer}.{attr}", original, hook,
                                     sized=attr in sized)
                for ns in _NAMESPACES:
                    if getattr(ns, attr, None) is original:
                        self._undo.append((ns, attr, original))
                        setattr(ns, attr, wrapped)
        # Structure stays a class (isinstance and equality need it), so its
        # constructor is traced in place.
        init = matrix.Structure.__init__
        self._undo.append((matrix.Structure, "__init__", init))
        matrix.Structure.__init__ = self._wrap("matrix.Structure", init)
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._undo):
            setattr(ns, attr, original)
        self._undo.clear()
        return False
