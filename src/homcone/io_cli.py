"""File formats and the command-line front end.

Formats (everything 1-based on disk, 0-based in memory):

* pattern (text): first non-comment line ``N M``, then M lines ``i j`` with
  1 <= i < j <= N.  ``#`` starts a comment.  Duplicates and self-loops are
  rejected with the offending line number.
* matrix: the pattern header followed by ``i j value`` triplet lines
  (lower triangle, diagonal included), or the JSON object
  ``{"n", "edges", "entries", "ordering"?}``.
* problem (JSON): ``{"n", "edges", "b", "c", "A", "ordering"?}`` with c and
  each A entry as triplet lists.
* SDPA sparse (``.dat-s``) import: the data (c, F_0, F_i) are read as the
  standard-form program min <-F_0, x> s.t. <F_i, x> = c_i over the sparse
  PSD cone on the (extended) aggregate pattern.  Exactly the SDP dual pair
  of the file's inequality form when the aggregate pattern is block
  diagonal dense; otherwise the sparse-PSD restriction of it, which the
  importer reports.

Exit codes: 0 success, 1 usage, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import numpy as np

from .densecheck import find_forbidden_subgraph
from .errors import (
    HomconeError,
    NotCompletable,
    NotPositiveDefinite,
    OrderingError,
    ParseError,
    PatternError,
    StructuralError,
)
from .factor import barrier, cholesky, maxdet_factor
from .ipm import ConicProblem, SolveReport, SolverOptions, SolveStatus, random_problem, solve
from .matrix import Structure, SymSparse, from_triplets, to_triplets
from .pattern import (
    Ordering,
    OrderingClass,
    SparsityPattern,
    homogeneous_extension,
    lbfs_order,
    random_homogeneous_pattern,
    verify_ordering,
)

__all__ = [
    "parse_pattern",
    "format_pattern",
    "parse_matrix",
    "parse_problem",
    "serialize_problem",
    "parse_sdpa",
    "main",
    "run_cli",
]


# ---------------------------------------------------------------- pattern io

def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read_pattern(lines) -> SparsityPattern:
    """The ``N M`` header and the M edge lines it announces, taken from
    ``lines``, an iterator of (line number, content) pairs."""
    try:
        lineno, head = next(lines)
    except StopIteration:
        raise ParseError("empty pattern file") from None
    parts = head.split()
    if len(parts) != 2:
        raise ParseError(f"header must be 'N M', got {head!r}", line=lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"header must be 'N M', got {head!r}", line=lineno) from None
    if n < 1 or m < 0:
        raise ParseError(f"bad sizes N={n} M={m}", line=lineno)
    edges = []
    seen = set()
    for count in range(m):
        try:
            lineno, line = next(lines)
        except StopIteration:
            raise ParseError(f"header announced {m} edges, file has {count}") from None
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"edge line must be 'i j', got {line!r}", line=lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"edge line must be 'i j', got {line!r}",
                             line=lineno) from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"vertex out of range in edge ({i},{j})", line=lineno)
        if i == j:
            raise ParseError(f"self-loop at vertex {i}", line=lineno)
        if not i < j:
            raise ParseError(f"edges must satisfy i < j, got ({i},{j})", line=lineno)
        if (i, j) in seen:
            raise ParseError(f"duplicate edge ({i},{j})", line=lineno)
        seen.add((i, j))
        edges.append((i - 1, j - 1))
    return SparsityPattern(n, edges)


def parse_pattern(text: str) -> SparsityPattern:
    """Parse the text pattern format with line-numbered diagnostics."""
    lines = _content_lines(text)
    pattern = _read_pattern(lines)
    extra = next(lines, None)
    if extra is not None:
        raise ParseError(f"header announced {pattern.n_edges} edges, file has more",
                         line=extra[0])
    return pattern


def format_pattern(pattern: SparsityPattern) -> str:
    lines = [f"{pattern.n} {pattern.n_edges}"]
    for i, j in sorted(pattern.edges):
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------- matrix and problem io

def _json_document(text: str, keys) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ParseError("JSON document must be an object")
    for key in keys:
        if key not in data:
            raise ParseError(f"JSON document is missing {key!r}")
    return data


def _json_structure(data: dict) -> Structure:
    """Structure of a JSON document's "n", "edges" and optional "ordering"."""
    try:
        pattern = SparsityPattern(data["n"], [(i - 1, j - 1) for i, j in data["edges"]])
        sigma = data.get("ordering")
        ordering = None if sigma is None else Ordering.from_sigma([v - 1 for v in sigma])
    except (TypeError, ValueError):
        raise ParseError("'n' must be a vertex count, 'edges' a list of [i, j] "
                         "pairs and 'ordering' a list of vertices") from None
    return _structure_for(pattern, ordering)


def _structure_for(pattern: SparsityPattern, ordering: Optional[Ordering]) -> Structure:
    if ordering is not None:
        try:
            return Structure(pattern, ordering)
        except OrderingError:
            if ordering.n != pattern.n:
                raise
            raise ParseError("supplied ordering is not a trivially perfect "
                             "elimination ordering of the pattern") from None
    res = lbfs_order(pattern)
    if not res.accepted:
        raise ParseError(
            "pattern is not homogeneous chordal (rejected at pivot "
            f"{res.pivot + 1}); run 'extend' first")
    return Structure(pattern, res.ordering, res.etree)


def _triplets_to_sym(struct: Structure, trips, where: str, base: int = 1) -> SymSparse:
    """The matrix ``where`` of a file from its triplets; messages name
    entries by the file's indices."""
    try:
        return from_triplets(struct, trips, base=base)
    except (StructuralError, ValueError) as e:
        raise ParseError(f"bad {where}: {e}") from None


def parse_matrix(text: str):
    """Matrix file (text header+triplets, or JSON).  Returns
    (Structure, SymSparse)."""
    if text.lstrip().startswith("{"):
        data = _json_document(text, ("n", "edges", "entries"))
        struct = _json_structure(data)
        return struct, _triplets_to_sym(struct, data["entries"], "'entries'")
    lines = _content_lines(text)
    struct = _structure_for(_read_pattern(lines), None)
    trips = []
    for lineno, line in lines:
        try:
            i, j, v = map(float, line.split())
        except ValueError:
            raise ParseError(f"triplet line must be 'i j value', got {line!r}",
                             line=lineno) from None
        trips.append((i, j, v))
    return struct, _triplets_to_sym(struct, trips, "matrix")


def parse_problem(text: str):
    """Native JSON conic problem.  Returns (ConicProblem, info dict)."""
    data = _json_document(text, ("n", "edges", "b", "c", "A"))
    struct = _json_structure(data)
    c = _triplets_to_sym(struct, data["c"], "'c'")
    if not isinstance(data["A"], list):
        raise ParseError("'A' must be a list of triplet lists")
    a_mats = tuple(_triplets_to_sym(struct, trips, f"'A'[{k}]")
                   for k, trips in enumerate(data["A"]))
    try:
        b = np.asarray(data["b"], dtype=float)
    except (TypeError, ValueError):
        raise ParseError("'b' must be a list of numbers") from None
    if b.shape != (len(a_mats),):
        raise ParseError(f"{len(a_mats)} constraint matrices but {b.size} "
                         "right-hand sides")
    return ConicProblem(struct, a_mats, b, c), {"format": "native"}


def serialize_problem(problem: ConicProblem) -> dict:
    st = problem.struct
    return {
        "n": st.n,
        "edges": [[i + 1, j + 1] for i, j in sorted(st.pattern.edges)],
        "ordering": [v + 1 for v in st.ordering.sigma],
        "b": [float(t) for t in problem.b],
        "c": to_triplets(problem.c),
        "A": [to_triplets(a) for a in problem.a_mats],
    }


# ------------------------------------------------------------------ sdpa io

def parse_sdpa(text: str):
    """Import SDPA sparse data onto the extended aggregate pattern.
    Returns (ConicProblem, info) with info noting the applied extension
    and whether the import is exact (block-diagonal dense aggregate)."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("*", '"')):
            continue
        lines.append((lineno, line))
    if len(lines) < 4:
        raise ParseError("truncated SDPA file")
    try:
        m = int(lines[0][1].split()[0])
        nblocks = int(lines[1][1].split()[0])
        sizes = [int(t) for t in lines[2][1].replace(",", " ").split()[:nblocks]]
        cvec = [float(t) for t in lines[3][1].replace(",", " ").split()[:m]]
    except (ValueError, IndexError) as e:
        raise ParseError(f"bad SDPA header: {e}") from None
    if len(sizes) != nblocks or len(cvec) != m:
        raise ParseError(f"SDPA header announces {nblocks} blocks and {m} constraints "
                         f"but lists {len(sizes)} block sizes and {len(cvec)} costs")
    widths = [abs(t) for t in sizes]
    offsets = np.cumsum([0] + widths[:-1])
    n = int(sum(widths))
    entries: dict = {}  # (matrix, row, column) -> value, the last one given
    for lineno, line in lines[4:]:
        parts = line.replace(",", " ").split()
        try:
            if len(parts) != 5:
                raise ValueError
            matno, blk, i, j = map(int, parts[:4])
            val = float(parts[4])
        except ValueError:
            raise ParseError(f"SDPA entry must be 'matrix block i j value', "
                             f"got {line!r}", line=lineno) from None
        if not (0 <= matno <= m and 1 <= blk <= nblocks):
            raise ParseError("matrix or block index out of range", line=lineno)
        if sizes[blk - 1] < 0 and i != j:
            raise ParseError("off-diagonal entry in a diagonal block", line=lineno)
        if not (1 <= i <= widths[blk - 1] and 1 <= j <= widths[blk - 1]):
            raise ParseError("entry index outside its block", line=lineno)
        gi = int(offsets[blk - 1]) + i - 1
        gj = int(offsets[blk - 1]) + j - 1
        entries[matno, max(gi, gj), min(gi, gj)] = val
    keys = np.array(list(entries), dtype=np.int64).reshape(-1, 3)
    vals = np.array(list(entries.values()), dtype=np.float64)
    off = keys[:, 1] != keys[:, 2]
    aggregate = SparsityPattern(n, sorted(set(zip(keys[off, 2].tolist(),
                                                  keys[off, 1].tolist()))))
    ext = homogeneous_extension(aggregate)
    struct = Structure(ext.extended, ext.ordering, ext.etree)
    # with no fill the aggregate is the comparability graph of the
    # structure's forest, whose components are complete iff no node has
    # two children
    kids = [p for q, p in enumerate(struct.pos_parent) if p != q]
    exact = ext.extended.n_edges == aggregate.n_edges and len(set(kids)) == len(kids)

    def build(matno, negate=False):
        mine = keys[:, 0] == matno
        v = -vals[mine] if negate else vals[mine]
        return _triplets_to_sym(struct, np.column_stack((keys[mine, 1:], v)),
                                f"matrix {matno}", base=0)

    c = build(0, negate=True)
    a_mats = tuple(build(k) for k in range(1, m + 1))
    problem = ConicProblem(struct, a_mats, np.asarray(cvec), c)
    info = {
        "format": "sdpa",
        "aggregate_edges": aggregate.n_edges,
        "extension_edges": ext.extended.n_edges - aggregate.n_edges,
        "exact": bool(exact),
        "note": ("exact SDP dual pair of the inequality-form data"
                 if exact else
                 "sparse-PSD restriction of the SDP dual (aggregate pattern "
                 "is not block diagonal dense)"),
    }
    return problem, info


# ------------------------------------------------------------------ helpers

def _is_chordal(pattern: SparsityPattern) -> bool:
    """Maximum cardinality search followed by the elimination-order test.
    Unnumbered vertices sit in buckets by weight, so the search is linear."""
    n = pattern.n
    weight = [0] * n
    numbered = [False] * n
    buckets = [set() for _ in range(n)]
    buckets[0].update(range(n))
    top = 0
    sigma = [0] * n
    for pos in range(n - 1, -1, -1):
        while not buckets[top]:
            top -= 1
        v = buckets[top].pop()
        sigma[pos] = v
        numbered[v] = True
        for w in pattern.adjacency[v]:
            if not numbered[w]:
                buckets[weight[w]].remove(w)
                weight[w] += 1
                buckets[weight[w]].add(w)
        top += 1  # a weight grows by at most one per step
    ordering = Ordering.from_sigma(sigma)
    return verify_ordering(pattern, ordering) is not OrderingClass.NOT_PEO


def _report_text(rep: SolveReport) -> str:
    d = rep.to_dict()
    lines = [f"status: {d['status']}",
             f"iterations: {d['iterations']}",
             f"primal_objective: {d['primal_objective']!r}",
             f"dual_objective: {d['dual_objective']!r}",
             f"gap: {d['gap']!r}",
             f"primal_residual: {d['primal_residual']!r}",
             f"dual_residual: {d['dual_residual']!r}",
             "x:"]
    lines += [f"  {i} {j} {v!r}" for i, j, v in d["x"]]
    lines.append("y:")
    lines += [f"  {v!r}" for v in d["y"]]
    lines.append("s:")
    lines += [f"  {i} {j} {v!r}" for i, j, v in d["s"]]
    lines.append("trace:")
    lines += ["  " + json.dumps(row, sort_keys=True) for row in d["trace"]]
    return "\n".join(lines) + "\n"


def _emit(out_path: Optional[str], text: str, stdout) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        stdout.write(text)


def _fmt_triplets_text(trips) -> str:
    return "\n".join(f"{i} {j} {v!r}" for i, j, v in trips) + "\n"


# ---------------------------------------------------------------- commands

def _cmd_check_pattern(args, stdout) -> int:
    pattern = parse_pattern(_read(args.file))
    res = lbfs_order(pattern)
    if res.accepted:
        stdout.write("HOMOGENEOUS_CHORDAL\n")
        return 0
    kind = "CHORDAL_ONLY" if _is_chordal(pattern) else "GENERAL"
    if pattern.n <= 64:
        w = find_forbidden_subgraph(pattern)
        witness = f"{w.kind} ({', '.join(str(v + 1) for v in w.vertices)})"
    else:
        witness = "unavailable (witness scan capped at 64 vertices)"
    stdout.write(f"{kind} witness: {witness}\n")
    return 0


def _cmd_order(args, stdout) -> int:
    pattern = parse_pattern(_read(args.file))
    res = lbfs_order(pattern)
    if not res.accepted:
        stdout.write(f"REJECTED pivot={res.pivot + 1} set={res.set_index + 1}\n")
        return 3
    sigma = " ".join(str(v + 1) for v in res.ordering.sigma)
    parent = " ".join(str(res.etree.parent[v] + 1) for v in range(pattern.n))
    if args.format == "json":
        stdout.write(json.dumps({
            "sigma": [v + 1 for v in res.ordering.sigma],
            "parent": [res.etree.parent[v] + 1 for v in range(pattern.n)],
        }) + "\n")
    else:
        stdout.write(f"sigma: {sigma}\nparent: {parent}\n")
    return 0


def _cmd_extend(args, stdout) -> int:
    pattern = parse_pattern(_read(args.file))
    ext = homogeneous_extension(pattern)
    added = ext.extended.n_edges - pattern.n_edges
    _emit(args.out, format_pattern(ext.extended), stdout)
    if args.out:
        stdout.write(f"added {added} edges -> {args.out}\n")
    return 0


def _cmd_factor(args, stdout) -> int:
    struct, x = parse_matrix(_read(args.file))
    try:
        f = cholesky(x)
    except NotPositiveDefinite as e:
        stdout.write(f"NOT_POSITIVE_DEFINITE node={e.node + 1}\n")
        return 3
    trips = to_triplets(f.L)
    if args.format == "json":
        stdout.write(json.dumps({"L": trips, "barrier": barrier(f)}) + "\n")
    else:
        stdout.write(_fmt_triplets_text(trips))
    return 0


def _cmd_complete(args, stdout) -> int:
    struct, s = parse_matrix(_read(args.file))
    try:
        f = maxdet_factor(s)
    except NotCompletable as e:
        stdout.write(f"NOT_COMPLETABLE node={e.node + 1}\n")
        return 3
    trips = to_triplets(f.L)
    if args.format == "json":
        stdout.write(json.dumps({"L": trips,
                                 "dual_barrier": f.logdet() - struct.n}) + "\n")
    else:
        stdout.write(_fmt_triplets_text(trips))
    return 0


def _cmd_solve(args, stdout) -> int:
    try:
        options = SolverOptions(gamma=args.gamma, tol_gap=args.tol, tol_feas=args.tol,
                                max_iter=args.max_iter, step_fraction=args.eta)
    except ValueError as e:
        print(f"homcone solve: error: {e}", file=sys.stderr)
        return 1
    text = _read(args.file)
    if args.file.endswith((".dat-s", ".sdpa")) or not text.lstrip().startswith("{"):
        problem, info = parse_sdpa(text)
    else:
        problem, info = parse_problem(text)
    rep = solve(problem, options)
    if args.trace:
        with open(args.trace, "w") as fh:
            for row in rep.trace:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    if info.get("format") == "sdpa":
        stdout.write(f"# sdpa import: {info['note']}; "
                     f"{info['extension_edges']} extension edges\n")
    if args.format == "json":
        stdout.write(json.dumps(rep.to_dict(), sort_keys=True) + "\n")
    else:
        stdout.write(_report_text(rep))
    return 0 if rep.status is SolveStatus.OPTIMAL else 3


def _cmd_gen(args, stdout) -> int:
    if args.kind == "pattern":
        gen = random_homogeneous_pattern(args.n, seed=args.seed,
                                         branching=args.branching)
        _emit(args.out, format_pattern(gen.pattern), stdout)
        return 0
    if args.m < 0:
        print(f"homcone gen: error: --m must be non-negative, got {args.m}", file=sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed)
    gen = random_homogeneous_pattern(args.n, seed=args.seed,
                                     branching=args.branching)
    struct = Structure(gen.pattern, gen.ordering, gen.etree)
    m = min(args.m, struct.dim)
    if m < args.m:
        print(f"homcone: capping m at the space dimension {struct.dim}",
              file=sys.stderr)
    problem = random_problem(struct, m, rng)
    _emit(args.out, json.dumps(serialize_problem(problem), sort_keys=True) + "\n",
          stdout)
    return 0


# ------------------------------------------------------------------- driver

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None


def _build_parser() -> _Parser:
    p = _Parser(prog="homcone",
                description="homogeneous sparse matrix cones toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("check-pattern", _cmd_check_pattern,
             help="classify a pattern file")
    sp.add_argument("file")

    sp = add("order", _cmd_order, help="recognition ordering and parents")
    sp.add_argument("file")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = add("extend", _cmd_extend, help="homogeneous chordal extension")
    sp.add_argument("file")
    sp.add_argument("--out")

    sp = add("factor", _cmd_factor, help="Cholesky factor of a matrix file")
    sp.add_argument("file")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = add("complete", _cmd_complete,
             help="max-determinant completion factor of a matrix file")
    sp.add_argument("file")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = add("solve", _cmd_solve, help="solve a conic problem file")
    sp.add_argument("file")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--max-iter", type=int, default=100)
    sp.add_argument("--eta", type=float, default=0.99)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--trace", metavar="FILE")

    sp = add("gen", _cmd_gen, help="generate random instances")
    sp.add_argument("kind", choices=("pattern", "problem"))
    sp.add_argument("--n", type=int, default=20)
    sp.add_argument("--m", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--branching", type=float, default=3.0)
    sp.add_argument("--out")

    return p


def run_cli(argv: Optional[Sequence[str]] = None, stdout=None) -> int:
    stdout = stdout or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args, stdout)
    except (ParseError, PatternError, OrderingError) as e:
        print(f"homcone: input error: {e}", file=sys.stderr)
        return 2
    except HomconeError as e:
        print(f"homcone: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())
