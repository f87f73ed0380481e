import json
import random
import re

import pytest

from twinwidth.cli import (
    _config,
    _parser,
    emit_graph,
    emit_sequence,
    parse_graph,
    parse_sequence,
    run,
)
from twinwidth.corpus import random_connected_graph
from twinwidth.errors import (
    DuplicateEdge,
    GraphSyntaxError,
    HeaderMismatch,
    IndexOutOfRange,
    SelfLoop,
    TwinWidthError,
)
from twinwidth.sequence import verify
from twinwidth.solver import SolverConfig
from twinwidth.trigraph import EdgeColor, new_trigraph

from conftest import FIG2_PAIRS, make_fig2, make_fig3

FIG2_TEXT = """c the worked six-vertex example
p tww 6 8
1 2
1 3
2 3
2 4
3 5
3 6
4 5
5 6
"""

FIG2_SEQ = "5 6\n1 2\n3 4\n3 5\n1 3\n"


class TestGraphFiles:
    def test_single_vertex(self):
        g = parse_graph("p tww 1 0\n")
        assert g.n == 1 and g.edge_count() == 0

    def test_fig2_parse(self):
        assert parse_graph(FIG2_TEXT) == make_fig2()

    def test_roundtrip(self):
        for g in (make_fig2(), make_fig3(), new_trigraph(3, [(0, 1)], [(1, 2)])):
            assert parse_graph(emit_graph(g)) == g

    def test_roundtrip_corpus(self):
        rng = random.Random(42)
        for _ in range(20):
            n = rng.randrange(1, 40)
            k = rng.randrange(0, 4)
            if n - 1 + k > n * (n - 1) // 2:
                k = 0
            g = random_connected_graph(n, k, rng)
            assert parse_graph(emit_graph(g)) == g

    def test_comments_and_blank_lines_among_edges(self):
        text = FIG2_TEXT.replace("2 3\n", "2 3\n\nc between edges\n   \n")
        assert text.count("\n") == FIG2_TEXT.count("\n") + 3
        assert parse_graph(text) == make_fig2()

    def test_red_edge_token(self):
        g = parse_graph("p tww 3 2\n1 2\n2 3 r\n")
        assert g.color(0, 1) is EdgeColor.BLACK
        assert g.color(1, 2) is EdgeColor.RED
        assert "3 r" not in emit_graph(make_fig2())

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange) as exc:
            parse_graph("p tww 6 8\n7 1\n1 2\n1 3\n2 3\n2 4\n3 5\n4 5\n5 6\n")
        assert exc.value.line == 2

    def test_header_mismatches(self):
        with pytest.raises(HeaderMismatch):
            parse_graph("p tww 2 1\n")
        with pytest.raises(GraphSyntaxError):
            parse_graph("1 2\n")  # edge line before any header
        with pytest.raises(HeaderMismatch):
            parse_graph("")
        with pytest.raises(GraphSyntaxError):
            parse_graph("p tww 2 1\n1 x\n")

    # the parser reads the text once and checks each edge as it comes, so a
    # text with two faults reports the first in file order
    @pytest.mark.parametrize(
        "text, error, message, line",
        [
            (
                "p tww 3 3\n1 2\n2 1\n2 x\n",
                DuplicateEdge,
                "edge (0, 1) listed twice or in both colors",
                None,
            ),
            ("p tww 3 1\n2 2\n", SelfLoop, "self-loop at 1", None),
            (
                "p tww 3 2\n1 2\n2 1 r\n",
                DuplicateEdge,
                "edge (0, 1) listed twice or in both colors",
                None,
            ),
            (
                "p tww 3 3\n1 2\n1 2\n",
                DuplicateEdge,
                "edge (0, 1) listed twice or in both colors",
                None,
            ),
            ("p tww 3 1\n1 4\n", IndexOutOfRange, "line 2: endpoint outside 1..3", 2),
            # a number is ASCII digits alone, though int() reads all of these
            (
                "p tww \u0663 0\n",
                HeaderMismatch,
                "line 1: bad header 'p tww \u0663 0'",
                1,
            ),
            ("p tww 12 1\n1_0 2\n", GraphSyntaxError, "line 2: bad edge line '1_0 2'", 2),
            ("p tww 3 1\n+1 2\n", GraphSyntaxError, "line 2: bad edge line '+1 2'", 2),
            ("p tww 3 1\n\u0663 2\n", GraphSyntaxError, "line 2: bad edge line '\u0663 2'", 2),
        ],
        ids=["duplicate-then-bad-line", "self-loop", "black-red-duplicate",
             "duplicate-and-count", "endpoint-out-of-range", "header-arabic-indic-digit",
             "edge-underscore", "edge-plus-sign", "edge-arabic-indic-digit"],
    )
    def test_parse_error_reported(self, text, error, message, line):
        with pytest.raises(TwinWidthError) as exc:
            parse_graph(text)
        assert type(exc.value) is error
        assert str(exc.value) == message
        assert getattr(exc.value, "line", None) == line


class TestSequenceFiles:
    def test_fig2_sequence(self):
        g = make_fig2()
        seq = parse_sequence(g, FIG2_SEQ)
        assert verify(g, seq) == 2
        assert seq.pairs() == FIG2_PAIRS

    def test_survivor_keeps_label(self):
        g = make_fig2()
        seq = parse_sequence(g, FIG2_SEQ)
        assert emit_sequence(g, seq) == FIG2_SEQ

    def test_comments_and_blank_lines_skipped(self):
        text = "c a sequence\n" + FIG2_SEQ.replace("3 4\n", "3 4\n\nc midway\n  \n")
        assert parse_sequence(make_fig2(), text).pairs() == FIG2_PAIRS

    def test_bad_step(self):
        g = make_fig2()
        with pytest.raises(GraphSyntaxError):
            parse_sequence(g, "1 2\n2 3\n")  # 2 is dead after the first step


@pytest.fixture
def tmp_fig2(tmp_path):
    path = tmp_path / "fig2.gr"
    path.write_text(FIG2_TEXT)
    return path


class TestCommands:
    def test_verify_ok(self, tmp_fig2, tmp_path, capsys):
        seq = tmp_path / "fig2.seq"
        seq.write_text(FIG2_SEQ)
        assert run(["verify", str(tmp_fig2), str(seq)]) == 0
        assert capsys.readouterr().out == "width 2\n"

    def test_verify_failure_exit_2(self, tmp_fig2, tmp_path, capsys):
        seq = tmp_path / "bad.seq"
        seq.write_text("1 2\n1 2\n")
        assert run(["verify", str(tmp_fig2), str(seq)]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 2\n2 3\n", "step 2 3 references a dead label"),
            ("1 2\n1 1\n", "step 1 1 contracts a label with itself"),
        ],
    )
    def test_verify_bad_step_names_its_fault(self, tmp_fig2, tmp_path, capsys, text, message):
        seq = tmp_path / "bad.seq"
        seq.write_text(text)
        assert run(["verify", str(tmp_fig2), str(seq)]) == 2
        assert capsys.readouterr().err == f"verification failed: line 2: {message}\n"

    def test_verify_prefix_exit_2(self, tmp_fig2, tmp_path, capsys):
        # a valid prefix of a full sequence is not a full sequence
        seq = tmp_path / "prefix.seq"
        seq.write_text("".join(FIG2_SEQ.splitlines(keepends=True)[:2]))
        assert run(["verify", str(tmp_fig2), str(seq)]) == 2
        assert capsys.readouterr().err.startswith("verification failed: 4 vertices remain")

    def test_verify_uncontracted_component_exit_2(self, tmp_path, capsys):
        # a P4 beside four isolated vertices, whose sequence merges only the
        # isolated ones: one vertex per component remains, but the P4 keeps
        # its edges, so the sequence is not full
        graph = tmp_path / "p4.gr"
        graph.write_text("p tww 8 3\n1 2\n2 3\n3 4\n")
        seq = tmp_path / "p4.seq"
        seq.write_text("5 6\n7 8\n5 7\n")
        assert run(["verify", str(graph), str(seq)]) == 2
        assert capsys.readouterr().err.startswith("verification failed: 5 vertices remain")

    @pytest.mark.parametrize("line", ["1 x", "1 2 3", "1", "1_0 2", "+1 2", "\u0663 2"])
    def test_verify_malformed_step_exit_1(self, tmp_fig2, tmp_path, capsys, line):
        # a step line that is not two whole numbers in ASCII digits is a
        # format error, while a step naming a dead label (above) fails the
        # check
        seq = tmp_path / "bad.seq"
        seq.write_text(line + "\n")
        assert run(["verify", str(tmp_fig2), str(seq)]) == 1
        assert capsys.readouterr().err == f"error: line 1: bad step line {line!r}\n"

    def test_solve_then_verify(self, tmp_fig2, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run(["solve", str(tmp_fig2), "--report", str(report)]) == 0
        out = capsys.readouterr().out
        seq_file = tmp_path / "out.seq"
        seq_file.write_text(out)
        assert run(["verify", str(tmp_fig2), str(seq_file)]) == 0
        assert capsys.readouterr().out == "width 2\n"
        rep = json.loads(report.read_text())
        assert rep["width"] == 2 and rep["status"] == "optimal"

    def test_solve_theory_policy(self, tmp_fig2, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run(["solve", str(tmp_fig2), "--policy", "theory", "--report", str(report)]) == 0
        g = make_fig2()
        assert verify(g, parse_sequence(g, capsys.readouterr().out)) == 2
        rep = json.loads(report.read_text())
        assert rep["policy"] == "theory"
        assert rep["width"] == 2 and rep["status"] == "optimal"

    def test_solve_seed_is_usage_error(self, tmp_fig2, capsys):
        assert run(["solve", str(tmp_fig2), "--seed", "1"]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_solve_cap_exceeded(self, tmp_fig2):
        assert run(["solve", str(tmp_fig2), "--cap", "1"]) == 2
        assert run(["solve", str(tmp_fig2), "--cap", "2"]) == 0

    def test_kernelize_tww2(self, tmp_path, capsys):
        graph = tmp_path / "fig3.gr"
        graph.write_text(emit_graph(make_fig3()))
        trace = tmp_path / "trace.json"
        assert run(
            ["kernelize", "--target", "tww2", "--budget", "25",
             "--trace", str(trace), str(graph)]
        ) == 0
        out = capsys.readouterr().out
        kernel = parse_graph(out)
        assert kernel.n <= 116 * 2
        payload = json.loads(trace.read_text())
        assert not payload["solved"]
        assert payload["meta"]["k"] == 2
        assert any(e["rule"] == "reduce_tree" for e in payload["rules"])

    @pytest.mark.parametrize("policy, lengths", [("practical:12", []), ("practical:4", [4])])
    def test_kernelize_general(self, tmp_path, capsys, policy, lengths):
        # Fig. 3's one tidy path has 11 vertices: floor 12 absorbs it into
        # the core, floor 4 shortens it to 4
        graph = tmp_path / "fig3.gr"
        graph.write_text(emit_graph(make_fig3()))
        trace = tmp_path / "trace.json"
        assert run(
            ["kernelize", "--target", "general", "--policy", policy, "--budget", "25",
             "--trace", str(trace), str(graph)]
        ) == 0
        kernel = parse_graph(capsys.readouterr().out)
        meta = json.loads(trace.read_text())["meta"]
        assert meta["path_lengths"] == lengths
        assert meta["shortened"] is bool(lengths)
        assert meta["floors"][-1] == policy.split(":")[1]
        assert kernel.n == meta["kernel_size"]

    def test_kernelize_solved_instance(self, tmp_path, capsys):
        graph = tmp_path / "tree.gr"
        graph.write_text("p tww 4 3\n1 2\n2 3\n3 4\n")
        trace = tmp_path / "trace.json"
        assert run(["kernelize", str(graph), "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("c solved width=")
        payload = json.loads(trace.read_text())
        assert payload["solved"] and payload["width"] <= 2

    @pytest.mark.parametrize("command, flag", [("solve", "--report"), ("kernelize", "--trace")])
    def test_unwritable_output_file_leaves_stdout_empty(self, tmp_fig2, tmp_path, capsys,
                                                        command, flag):
        # the JSON file is written before stdout, so a run that fails on it
        # prints no answer beside its exit code 1
        target = tmp_path / "missing" / "out.json"
        assert run([command, str(tmp_fig2), flag, str(target)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "missing" in err

    def test_fes(self, tmp_path, capsys):
        graph = tmp_path / "c5.gr"
        graph.write_text("p tww 5 5\n1 2\n2 3\n3 4\n4 5\n5 1\n")
        assert run(["fes", str(graph)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["feedback_edge_number"] == 1
        assert len(out["edges"]) == 1

    def test_info(self, tmp_path, capsys):
        graph = tmp_path / "fig3.gr"
        graph.write_text(emit_graph(make_fig3()))
        assert run(["info", str(graph)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 54
        assert out["feedback_edge_number"] == 2
        assert len(out["dangling_trees"]) == 11

    def test_info_disconnected(self, tmp_path, capsys):
        # a path beside a triangle: the path's edges are bridges, and no
        # tree dangles, since the path has no core to hang from
        graph = tmp_path / "two.gr"
        graph.write_text("p tww 6 5\n1 2\n2 3\n4 5\n5 6\n6 4\n")
        assert run(["info", str(graph)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["feedback_edge_number"] == 1
        assert out["bridges"] == [[1, 2], [2, 3]]
        assert out["dangling_trees"] == []

    def test_usage_error(self):
        assert run(["solve"]) == 1
        assert run(["bogus"]) == 1

    @pytest.mark.parametrize(
        "policy",
        [
            "practical:x",
            "practical:0",
            "practical:",
            "tower",
            "practical:+12",
            "practical:1_2",
            "practical: 12",
            "practical:\u0661\u0662",
        ],
    )
    def test_bad_policy_is_usage_error(self, tmp_path, capsys, policy):
        graph = tmp_path / "fig2.gr"
        graph.write_text(FIG2_TEXT)
        for command in ("solve", "kernelize"):
            assert run([command, str(graph), "--policy", policy]) == 1
            assert "bad policy" in capsys.readouterr().err

    def test_parse_error_exit_1(self, tmp_path):
        bad = tmp_path / "bad.gr"
        bad.write_text("p tww 2 1\n9 9\n")
        assert run(["solve", str(bad)]) == 1

    @pytest.mark.parametrize("header", ["p tww -3 0", "p tww 2 -1", "p tww 0x2 0"])
    def test_negative_header_count_exit_1(self, tmp_path, capsys, header):
        with pytest.raises(HeaderMismatch):
            parse_graph(header + "\n")
        bad = tmp_path / "bad.gr"
        bad.write_text(header + "\n")
        assert run(["solve", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: line 1: bad header")

    def test_non_utf8_file_exit_1(self, tmp_fig2, tmp_path, capsys):
        binary = tmp_path / "binary"
        binary.write_bytes(b"p tww 2 1\n1 2\xff\n")
        for argv in (["solve", str(binary)], ["verify", str(tmp_fig2), str(binary)]):
            assert run(argv) == 1
            assert capsys.readouterr().err == f"error: {binary}: not UTF-8 text (byte 13)\n"

    def test_solve_emitted_kernel_roundtrip(self, tmp_path, capsys):
        # kernelize writes a trigraph; solving that file must work end to end
        graph = tmp_path / "fig3.gr"
        graph.write_text(emit_graph(make_fig3()))
        assert run(["kernelize", "--target", "tww2", "--budget", "25", str(graph)]) == 0
        kernel_text = capsys.readouterr().out
        kernel_file = tmp_path / "kernel.gr"
        kernel_file.write_text(kernel_text)
        assert run(["solve", str(kernel_file), "--budget", "25"]) == 0
        seq_file = tmp_path / "kernel.seq"
        seq_file.write_text(capsys.readouterr().out)
        assert run(["verify", str(kernel_file), str(seq_file)]) == 0
        assert capsys.readouterr().out == "width 2\n"

    def test_kernelize_trigraph_input_exit_1(self, tmp_path, capsys):
        graph = tmp_path / "tri.gr"
        graph.write_text("p tww 3 2\n1 2\n2 3 r\n")
        assert run(["kernelize", str(graph)]) == 1
        assert capsys.readouterr().err == "error: kernelization expects a plain (all-black) graph\n"

    def test_budget_exit_3(self, tmp_path):
        g = random_connected_graph(120, 2, random.Random(0))
        graph = tmp_path / "big.gr"
        graph.write_text(emit_graph(g))
        assert run(["solve", str(graph)]) == 3

    def test_time_budget_exit_3(self, tmp_path, capsys):
        # a vertex budget this large alone lets the exact search run without
        # end; a time budget ends it with the budget exit code
        graph = tmp_path / "big.gr"
        graph.write_text(emit_graph(random_connected_graph(300, 40, random.Random(1))))
        assert run(["solve", str(graph), "--budget", "400", "--time", "1"]) == 3
        assert re.search(r"time budget exceeded: \d+\.\d+ > 1\.0$", capsys.readouterr().err)
        # a node miss names the node that crossed the cap
        assert run(["solve", str(graph), "--budget", "400", "--nodes", "100"]) == 3
        assert "nodes budget exceeded: 101 > 100" in capsys.readouterr().err

    def test_deep_search_answers(self, tmp_path, capsys):
        # the search of an 1100-vertex path with one red edge goes 1099
        # contractions deep
        edges = [f"{i} {i + 1}" + (" r" if i == 2 else "") for i in range(1, 1100)]
        text = "\n".join(["p tww 1100 1099"] + edges) + "\n"
        graph = tmp_path / "path.gr"
        graph.write_text(text)
        assert run(["solve", str(graph), "--budget", "2000", "--time", "60"]) == 0
        out, err = capsys.readouterr()
        assert err == "width 1\n"
        g = parse_graph(text)
        assert verify(g, parse_sequence(g, out)) == 1

    def test_search_budgets_reach_the_solver(self):
        for command in ("solve", "kernelize"):
            args = _parser().parse_args([command, "g.gr", "--nodes", "7", "--time", "2.5"])
            assert _config(args) == SolverConfig(max_vertices=20, max_nodes=7, time_limit=2.5)
            args = _parser().parse_args([command, "g.gr"])
            assert _config(args) == SolverConfig()

    @pytest.mark.parametrize(
        "flag, value",
        [("--nodes", "-1"), ("--nodes", "1.5"), ("--nodes", "x"), ("--nodes", "\u0663"),
         ("--time", "-1"), ("--time", "x"), ("--time", "nan"),
         ("--budget", "-1"), ("--budget", "1_0"), ("--budget", "+5"), ("--budget", "\u0663"),
         ("--cap", "-1"), ("--cap", "1_0"),
         ("--threads", "-1"), ("--threads", "+3"), ("--threads", "1_0"), ("--threads", "\u0663")],
    )
    def test_bad_search_budget_is_usage_error(self, tmp_fig2, capsys, flag, value):
        # --cap belongs to solve alone
        for command in ("solve",) if flag == "--cap" else ("solve", "kernelize"):
            assert run([command, str(tmp_fig2), flag, value]) == 1
            assert f"argument {flag}" in capsys.readouterr().err

    def test_disconnected_solve_verify_roundtrip(self, tmp_path, capsys):
        graph = tmp_path / "two.gr"
        graph.write_text("p tww 6 5\n1 2\n2 3\n4 5\n5 6\n6 4\n")
        assert run(["solve", str(graph)]) == 0
        seq_file = tmp_path / "two.seq"
        seq_file.write_text(capsys.readouterr().out)
        assert run(["verify", str(graph), str(seq_file)]) == 0
        assert capsys.readouterr().out.startswith("width")

    def test_deterministic_bytes(self, tmp_fig2, tmp_path, capsys):
        outs = []
        for threads in ("1", "4", "1"):
            report = tmp_path / f"r{threads}.json"
            assert run(
                ["solve", str(tmp_fig2), "--threads", threads,
                 "--report", str(report)]
            ) == 0
            outs.append(capsys.readouterr().out + report.read_text())
        assert outs[0] == outs[1] == outs[2]
