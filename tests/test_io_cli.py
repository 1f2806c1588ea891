import io
import itertools
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from homcone.errors import ParseError
from homcone.io_cli import (
    _is_chordal,
    format_pattern,
    parse_matrix,
    parse_pattern,
    parse_problem,
    parse_sdpa,
    run_cli,
    serialize_problem,
)
from homcone.ipm import solve
from homcone.matrix import inner, to_dense
from homcone.pattern import SparsityPattern, homogeneous_extension

from conftest import FIG1_EDGES, PAPER12_EDGES, PAPER12_SIGMA

SCHEMA_DIR = Path(__file__).parent.parent / "src" / "homcone" / "schemas"


def cli(*argv):
    out = io.StringIO()
    rc = run_cli(list(argv), stdout=out)
    return rc, out.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


VINBERG_PAT = "3 2\n1 3\n2 3\n"

VINBERG_MATRIX = """# running example
3 2
1 3
2 3
1 1 2.0
2 2 3.0
3 3 2.0
3 1 1.0
3 2 1.0
"""


class TestPatternIO:
    def test_parse_vinberg(self):
        p = parse_pattern(VINBERG_PAT)
        assert p.n == 3 and p.edges == {(0, 2), (1, 2)}

    def test_comments_and_whitespace(self):
        p = parse_pattern("# hi\n 3 1 \n\n1 2  # trailing\n")
        assert p.edges == {(0, 1)}

    def test_duplicate_edge_names_line(self):
        with pytest.raises(ParseError) as e:
            parse_pattern("3 2\n1 3\n1 3\n")
        assert e.value.line == 3

    def test_self_loop(self):
        with pytest.raises(ParseError):
            parse_pattern("3 1\n2 2\n")

    def test_order_violation(self):
        with pytest.raises(ParseError):
            parse_pattern("3 1\n3 1\n")

    def test_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_pattern("3 2\n1 3\n")

    def test_round_trip(self, paper12_pattern):
        assert parse_pattern(format_pattern(paper12_pattern)) == paper12_pattern


class TestMatrixIO:
    def test_text_matrix(self):
        struct, x = parse_matrix(VINBERG_MATRIX)
        d = to_dense(x)
        assert np.allclose(d, [[2, 0, 1], [0, 3, 1], [1, 1, 2]])

    def test_json_matrix(self):
        data = {"n": 3, "edges": [[1, 3], [2, 3]],
                "entries": [[1, 1, 2.0], [2, 2, 3.0], [3, 3, 2.0],
                            [3, 1, 1.0], [3, 2, 1.0]]}
        struct, x = parse_matrix(json.dumps(data))
        assert np.allclose(to_dense(x), [[2, 0, 1], [0, 3, 1], [1, 1, 2]])

    def test_out_of_pattern_entry(self):
        bad = "3 2\n1 3\n2 3\n2 1 5.0\n"
        with pytest.raises(ParseError):
            parse_matrix(bad)


class TestProblemIO:
    def test_round_trip(self, rng):
        from helpers import random_feasible_problem, random_structure

        st = random_structure(10, seed=51)
        prob, *_ = random_feasible_problem(st, 4, rng)
        blob = json.dumps(serialize_problem(prob))
        back, info = parse_problem(blob)
        assert info["format"] == "native"
        assert back.struct.pattern == prob.struct.pattern
        assert np.allclose(back.b, prob.b)
        assert np.allclose(back.c.vals, prob.c.vals)
        for a1, a2 in zip(back.a_mats, prob.a_mats):
            assert np.allclose(a1.vals, a2.vals)

    def test_identity_instance(self):
        data = {"n": 3, "edges": [[1, 3], [2, 3]], "b": [1.0],
                "c": [[1, 1, 1.0], [2, 2, 1.0], [3, 3, 1.0]],
                "A": [[[1, 1, 1.0], [2, 2, 1.0], [3, 3, 1.0]]]}
        prob, _ = parse_problem(json.dumps(data))
        assert prob.m == 1
        assert inner(prob.c, prob.a_mats[0]) == 3.0

    def test_schema_validates_serialized(self, rng):
        from helpers import random_feasible_problem, random_structure

        schema = json.loads((SCHEMA_DIR / "problem.schema.json").read_text())
        st = random_structure(8, seed=52)
        prob, *_ = random_feasible_problem(st, 3, rng)
        jsonschema.validate(serialize_problem(prob), schema)

    def test_missing_key(self):
        with pytest.raises(ParseError):
            parse_problem(json.dumps({"n": 3, "edges": [], "b": [], "c": []}))

    def test_non_homogeneous_pattern_rejected(self):
        data = {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]], "b": [],
                "c": [[1, 1, 1.0]], "A": []}
        with pytest.raises(ParseError):
            parse_problem(json.dumps(data))


class TestSdpa:
    DAT = """\"tiny example\"
1
2
2 -1
1.0
0 1 1 1 1.0
0 1 2 2 1.0
0 2 1 1 1.0
1 1 1 1 1.0
1 1 2 2 2.0
1 2 1 1 1.0
"""

    def test_parse_and_solve(self):
        prob, info = parse_sdpa(self.DAT)
        assert info["format"] == "sdpa"
        assert info["exact"]
        assert prob.struct.n == 3
        rep = solve(prob)
        # maximize tr of the 2x2 block + z subject to x11 + 2 x22 + z = 1
        # over psd entries: optimum puts everything on x11 -> objective -1
        assert abs(rep.primal_objective - (-1.0)) <= 1e-6

    def test_sparse_aggregate_reports_restriction(self):
        dat = """1
1
4
1.0
0 1 1 2 1.0
0 1 2 3 1.0
0 1 3 4 1.0
1 1 1 1 1.0
1 1 2 2 1.0
1 1 3 3 1.0
1 1 4 4 1.0
"""
        prob, info = parse_sdpa(dat)
        assert not info["exact"]
        assert info["extension_edges"] > 0

    def test_bad_entry(self):
        with pytest.raises(ParseError):
            parse_sdpa("1\n1\n2\n1.0\n0 1 5 5 1.0\n")

    @pytest.mark.parametrize("head", ["2\n1\n2\n1.0\n", "1\n2\n2\n1.0\n"])
    def test_short_header_lists(self, head):
        with pytest.raises(ParseError, match="SDPA header announces"):
            parse_sdpa(head + "0 1 1 1 1.0\n1 1 1 1 1.0\n")


class TestCli:
    def test_order_vinberg(self, tmp_path):
        f = write(tmp_path, "v.pat", VINBERG_PAT)
        rc, out = cli("order", f)
        assert rc == 0
        assert "sigma: 1 2 3" in out
        assert "parent: 3 3 3" in out

    def test_order_paper12(self, tmp_path, paper12_pattern):
        f = write(tmp_path, "p12.pat", format_pattern(paper12_pattern))
        rc, out = cli("order", f)
        assert rc == 0
        expect = " ".join(str(v) for v in PAPER12_SIGMA)
        assert f"sigma: {expect}" in out

    def test_check_pattern_fig1(self, tmp_path, fig1_pattern):
        f = write(tmp_path, "fig1.pat", format_pattern(fig1_pattern))
        rc, out = cli("check-pattern", f)
        assert rc == 0
        assert out.startswith("CHORDAL_ONLY")
        assert "P4 (1, 2, 5, 3)" in out

    def test_check_pattern_general(self, tmp_path):
        f = write(tmp_path, "c4.pat", "4 4\n1 2\n1 4\n2 3\n3 4\n")
        rc, out = cli("check-pattern", f)
        assert rc == 0
        assert out.startswith("GENERAL")
        assert "C4" in out

    def test_extend_then_accept(self, tmp_path):
        f = write(tmp_path, "tri.pat", "4 3\n1 2\n2 3\n3 4\n")
        out_file = str(tmp_path / "ext.pat")
        rc, out = cli("extend", f, "--out", out_file)
        assert rc == 0
        rc, out = cli("check-pattern", out_file)
        assert out.startswith("HOMOGENEOUS_CHORDAL")

    def test_factor_outputs_triplets(self, tmp_path):
        f = write(tmp_path, "m.mat", VINBERG_MATRIX)
        rc, out = cli("factor", f, "--format", "json")
        assert rc == 0
        data = json.loads(out)
        vals = {(i, j): v for i, j, v in data["L"]}
        assert np.isclose(vals[(1, 1)], np.sqrt(2))
        assert np.isclose(vals[(3, 2)], 1 / np.sqrt(3))
        assert np.isclose(data["barrier"], -np.log(7))

    def test_factor_not_pd(self, tmp_path):
        bad = "3 2\n1 3\n2 3\n1 1 -1.0\n2 2 1.0\n3 3 1.0\n"
        f = write(tmp_path, "bad.mat", bad)
        rc, out = cli("factor", f)
        assert rc == 3
        assert "NOT_POSITIVE_DEFINITE node=1" in out

    def test_complete_not_completable(self, tmp_path):
        bad = ("3 2\n1 3\n2 3\n"
               "1 1 1.0\n2 2 1.0\n3 3 0.1\n3 1 0.5\n3 2 0.5\n")
        f = write(tmp_path, "bad.mat", bad)
        rc, out = cli("complete", f)
        assert rc == 3
        assert "NOT_COMPLETABLE" in out

    def test_complete_identity(self, tmp_path):
        eye = "3 2\n1 3\n2 3\n1 1 1.0\n2 2 1.0\n3 3 1.0\n"
        f = write(tmp_path, "eye.mat", eye)
        rc, out = cli("complete", f, "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert np.isclose(data["dual_barrier"], -3.0)

    def test_gen_solve_pipeline(self, tmp_path):
        pf = str(tmp_path / "prob.json")
        rc, _ = cli("gen", "problem", "--n", "8", "--m", "3", "--seed", "7",
                    "--out", pf)
        assert rc == 0
        trace_file = str(tmp_path / "trace.jsonl")
        rc, out = cli("solve", pf, "--format", "json", "--trace", trace_file)
        assert rc == 0
        rep = json.loads(out)
        schema = json.loads((SCHEMA_DIR / "solve_report.schema.json").read_text())
        jsonschema.validate(rep, schema)
        assert rep["status"] == "Optimal"
        rows = [json.loads(line) for line in
                Path(trace_file).read_text().splitlines()]
        assert rows and all("mu" in r for r in rows)

    def test_gen_deterministic(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        cli("gen", "problem", "--n", "9", "--m", "2", "--seed", "3", "--out", a)
        cli("gen", "problem", "--n", "9", "--m", "2", "--seed", "3", "--out", b)
        assert Path(a).read_text() == Path(b).read_text()
        c = str(tmp_path / "c.pat")
        d = str(tmp_path / "d.pat")
        cli("gen", "pattern", "--n", "30", "--seed", "5", "--out", c)
        cli("gen", "pattern", "--n", "30", "--seed", "5", "--out", d)
        assert Path(c).read_text() == Path(d).read_text()

    def test_text_json_value_identical(self, tmp_path):
        pf = str(tmp_path / "prob.json")
        cli("gen", "problem", "--n", "6", "--m", "2", "--seed", "11",
            "--out", pf)
        rc_j, out_j = cli("solve", pf, "--format", "json")
        rc_t, out_t = cli("solve", pf, "--format", "text")
        assert rc_j == rc_t == 0
        rep = json.loads(out_j)
        text = {}
        for line in out_t.splitlines():
            if ":" in line and not line.startswith(" "):
                key, _, val = line.partition(":")
                if val.strip():
                    text[key] = val.strip()
        assert text["status"] == rep["status"]
        for key in ("primal_objective", "dual_objective", "gap",
                    "primal_residual", "dual_residual"):
            assert float(text[key]) == rep[key]
        x_lines = [ln for ln in out_t.splitlines() if ln.startswith("  ")]
        assert len(x_lines) >= len(rep["x"]) + len(rep["s"]) + len(rep["y"])

    def test_solve_sdpa_file(self, tmp_path):
        f = write(tmp_path, "tiny.dat-s", TestSdpa.DAT)
        rc, out = cli("solve", f, "--format", "json")
        assert rc == 0
        assert "# sdpa import" in out
        rep = json.loads(out.splitlines()[-1])
        assert abs(rep["primal_objective"] + 1.0) <= 1e-6

    def test_exit_codes(self, tmp_path):
        rc, _ = cli("no-such-command")
        assert rc == 1
        rc, _ = cli("order", str(tmp_path / "missing.pat"))
        assert rc == 2
        f = write(tmp_path, "dup.pat", "3 2\n1 3\n1 3\n")
        rc, _ = cli("order", f)
        assert rc == 2

    def test_order_rejects_non_homogeneous(self, tmp_path):
        f = write(tmp_path, "p4.pat", "4 3\n1 2\n2 3\n3 4\n")
        rc, out = cli("order", f)
        assert rc == 3
        assert "REJECTED" in out

    @pytest.mark.parametrize("text, where", [
        ("3 x\n1 3\n2 3\n1 1 2.0\n", "(line 1)"),
        ("3 2\n1 3\n2 3\n1 1 2.0\n2 2 x\n", "(line 5)"),
        ('{"n": 3, "edges": [[1, 3]', "invalid JSON"),
        ('{"n": 3, "edges": [[1, 3], [2, 3]]}', "'entries'"),
        ('{"n": 3, "edges": [[1, 3, 2]], "entries": []}', "'edges'"),
        ('{"n": 3, "edges": [], "entries": [[1, 1]]}', "'entries'"),
    ])
    def test_malformed_matrix_is_input_error(self, tmp_path, capsys, text, where):
        f = write(tmp_path, "bad.mat", text)
        rc, out = cli("factor", f)
        assert rc == 2 and out == ""
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        ("0 0 5.0", "entry (0,0) needs integer vertex indices in 1..3"),
        ("4 4 1.0", "entry (4,4) needs integer vertex indices in 1..3"),
        ("1.5 1 1.0", "entry (1.5,1) needs integer vertex indices in 1..3"),
        ("2 1 1.0", "entry (2,1) is not in the pattern"),
        ("3 3 1.0", "duplicate entry (3,3)"),
    ])
    def test_bad_vertex_index_names_file_entry(self, tmp_path, capsys, entry, message):
        text = f"3 2\n1 3\n2 3\n1 1 2.0\n2 2 1.0\n3 3 2.0\n{entry}\n"
        rc, out = cli("factor", write(tmp_path, "bad.mat", text))
        assert rc == 2 and out == ""
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("index", [0, 4, 1.5])
    def test_solve_rejects_bad_vertex_index(self, tmp_path, capsys, index):
        data = {"n": 3, "edges": [[1, 3], [2, 3]], "b": [1.0],
                "c": [[1, 1, 1.0], [2, 2, 1.0], [3, 3, 1.0]],
                "A": [[[1, 1, 1.0], [index, index, 1.0]]]}
        rc, out = cli("solve", write(tmp_path, "p.json", json.dumps(data)))
        assert rc == 2 and out == ""
        assert f"bad 'A'[0]: entry ({index},{index})" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--eta", "1.5", "step_fraction must be in (0, 1)"),
        ("--gamma", "2", "gamma must be in [0, 1]"),
        ("--max-iter", "-3", "max_iter must be at least 1"),
        ("--tol", "0", "tol_gap and tol_feas must be positive"),
    ])
    def test_solve_rejects_bad_option(self, tmp_path, capsys, flag, value, message):
        pf = str(tmp_path / "prob.json")
        assert cli("gen", "problem", "--n", "4", "--m", "1", "--out", pf)[0] == 0
        rc, out = cli("solve", pf, flag, value)
        assert rc == 1 and out == ""
        assert capsys.readouterr().err == f"homcone solve: error: {message}\n"

    def test_gen_rejects_negative_m(self, capsys):
        rc, out = cli("gen", "problem", "--m", "-1")
        assert rc == 1 and out == ""
        assert capsys.readouterr().err == "homcone gen: error: --m must be non-negative, got -1\n"

    @pytest.mark.parametrize("ordering, message", [
        ([3, 1, 2], "supplied ordering is not a trivially perfect elimination "
                    "ordering of the pattern"),
        ([1, 2], "ordering on 2 vertices, pattern has 3"),
    ])
    def test_bad_supplied_ordering(self, tmp_path, capsys, ordering, message):
        data = {"n": 3, "edges": [[1, 3], [2, 3]], "ordering": ordering,
                "entries": [[1, 1, 2.0], [2, 2, 3.0], [3, 3, 2.0]]}
        rc, out = cli("factor", write(tmp_path, "m.json", json.dumps(data)))
        assert rc == 2 and out == ""
        assert capsys.readouterr().err == f"homcone: input error: {message}\n"


def _brute_force_chordal(p):
    """No induced cycle of length >= 4, by scanning every vertex subset."""
    for k in range(4, p.n + 1):
        for sub in itertools.combinations(range(p.n), k):
            inside = set(sub)
            deg = {v: sum(w in inside for w in p.adjacency[v]) for v in sub}
            if any(d != 2 for d in deg.values()):
                continue
            seen, stack = {sub[0]}, [sub[0]]
            while stack:
                for w in p.adjacency[stack.pop()]:
                    if w in inside and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == k:
                return False
    return True


class TestIsChordal:
    def test_cycles_are_general(self, tmp_path):
        for k in range(4, 10):
            cycle = SparsityPattern(k, [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)])
            assert not _is_chordal(cycle)
            rc, out = cli("check-pattern", write(tmp_path, "c.pat", format_pattern(cycle)))
            assert rc == 0 and out.startswith("GENERAL")

    def test_extensions_are_chordal(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 40))
            pairs = list(itertools.combinations(range(n), 2))
            keep = rng.random(len(pairs)) < rng.uniform(0.05, 0.4)
            p = SparsityPattern(n, [e for e, b in zip(pairs, keep) if b])
            assert _is_chordal(homogeneous_extension(p).extended)

    def test_matches_brute_force(self, rng):
        verdicts = set()
        for _ in range(300):
            n = int(rng.integers(1, 9))
            pairs = list(itertools.combinations(range(n), 2))
            keep = rng.random(len(pairs)) < rng.uniform(0.2, 0.8)
            p = SparsityPattern(n, [e for e, b in zip(pairs, keep) if b])
            verdicts.add(_is_chordal(p))
            assert _is_chordal(p) == _brute_force_chordal(p)
        assert verdicts == {True, False}
