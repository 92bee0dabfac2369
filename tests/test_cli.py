import json
import os
import stat
import sys
from pathlib import Path

import pytest

import palab.cfl
from palab.cli import main

import helpers

EXPECTED_SOLUTION = "pt(a) = { b }\npt(b) = { d }\npt(c) = { d }\npt(d) = { }\n"
MATRIX_A = "4\n0100\n0000\n0000\n0000\n"
MATRIX_B = "4\n0000\n0011\n0000\n0000\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "ex.pa").write_text(helpers.EXAMPLE_PROGRAM_TEXT)
    (tmp_path / "A.bm").write_text(MATRIX_A)
    (tmp_path / "B.bm").write_text(MATRIX_B)
    return tmp_path


def test_analyze_prints_solution(workdir, capsys):
    assert main(["analyze", str(workdir / "ex.pa")]) == 0
    assert capsys.readouterr().out == EXPECTED_SOLUTION


def test_analyze_query_exit_codes(workdir, capsys):
    assert main(["analyze", str(workdir / "ex.pa"), "--query", "c", "d"]) == 0
    assert capsys.readouterr().out == "yes\n"
    assert main(["analyze", str(workdir / "ex.pa"), "--query", "a", "d"]) == 1
    assert capsys.readouterr().out == "no\n"


def test_analyze_empty_program(workdir, capsys):
    (workdir / "empty.pa").write_text("")
    assert main(["analyze", str(workdir / "empty.pa")]) == 0
    assert capsys.readouterr().out == ""


def test_analyze_parse_failure_exits_2(workdir, capsys):
    (workdir / "bad.pa").write_text("**a = b\n")
    assert main(["analyze", str(workdir / "bad.pa")]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_2(workdir, capsys):
    assert main(["analyze", str(workdir / "no_such.pa")]) == 2


def test_reduce_reach_pipeline(workdir, capsys):
    g = workdir / "g.lg"
    assert (
        main(["reduce", "bmm-to-d1", str(workdir / "A.bm"), str(workdir / "B.bm"), "-o", str(g)])
        == 0
    )
    assert main(["reach", str(g), "--grammar", "d1"]) == 0
    assert capsys.readouterr().out == "x0 -> z2\nx0 -> z3\n"
    # self pairs come back with the flag
    assert main(["reach", str(g), "--grammar", "d1", "--include-self"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "x0 -> x0" in lines and len(lines) == 12 + 2


def test_reach_st_mode(workdir, capsys):
    g = workdir / "tri.lg"
    (workdir / "in.lg").write_text("nodes 4\nw e x\nx e y\ny e z\nx e z\n")
    assert main(["reduce", "triangle-to-d1", str(workdir / "in.lg"), "-o", str(g)]) == 0
    assert main(["reach", str(g), "--grammar", "d1", "--source", "s", "--target", "t"]) == 0
    assert capsys.readouterr().out == "reachable\n"
    (workdir / "path.lg").write_text("nodes 3\n0 e 1\n1 e 2\n")
    assert main(["reduce", "triangle-to-d1", str(workdir / "path.lg"), "-o", str(g)]) == 0
    assert main(["reach", str(g), "--grammar", "d1", "--source", "s", "--target", "t"]) == 1
    assert capsys.readouterr().out == "unreachable\n"


def test_reach_alphabet_mismatch_exits_2(workdir, capsys):
    (workdir / "odd.lg").write_text("nodes 2\n0 q 1\n")
    assert main(["reach", str(workdir / "odd.lg"), "--grammar", "d1"]) == 2


def test_reduce_d1_to_pa_golden(workdir, capsys):
    g = workdir / "g.lg"
    p = workdir / "p.pa"
    main(["reduce", "bmm-to-d1", str(workdir / "A.bm"), str(workdir / "B.bm"), "-o", str(g)])
    assert (
        main(
            [
                "reduce", "d1-to-pa", str(g),
                "--profile", "case1", "--prune-isolated",
                "-o", str(p), "--map", str(workdir / "p.map"),
            ]
        )
        == 0
    )
    text = p.read_text()
    assert len(text.splitlines()) == 21
    assert "query_var\tx0" in (workdir / "p.map").read_text()
    assert main(["analyze", str(p), "--query", "x0", "z2'"]) == 0


def test_reduce_outputs_are_deterministic(workdir):
    g1, g2 = workdir / "g1.lg", workdir / "g2.lg"
    for out in (g1, g2):
        main(["reduce", "bmm-to-d1", str(workdir / "A.bm"), str(workdir / "B.bm"), "-o", str(out)])
    assert g1.read_bytes() == g2.read_bytes()


def test_crosscheck_command(workdir, capsys):
    assert (
        main(
            [
                "crosscheck", "--suite", "bmm", "--trials", "5",
                "--max-n", "4", "--seed", "42", "--profile", "case1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "trials=5" in out and "mismatches=0" in out
    assert main(["crosscheck", "--suite", "triangle", "--trials", "1", "--max-n", "3", "--seed", "0"]) == 0
    capsys.readouterr()
    assert main(["crosscheck", "--suite", "peg", "--trials", "5", "--seed", "7"]) == 0
    capsys.readouterr()
    assert main(["crosscheck", "--suite", "pt-prime", "--trials", "3", "--seed", "1"]) == 0


def test_gen_determinism(workdir, capsys):
    z = workdir / "z.bm"
    assert main(["gen", "matrix", "-n", "4", "--density", "0", "--seed", "1", "-o", str(z)]) == 0
    assert z.read_text() == "4\n0000\n0000\n0000\n0000\n"
    g1, g2 = workdir / "d1.lg", workdir / "d2.lg"
    for out in (g1, g2):
        assert main(["gen", "dyck-graph", "-n", "6", "-m", "8", "--seed", "2", "-o", str(out)]) == 0
    assert g1.read_bytes() == g2.read_bytes()


def test_gen_to_stdout(workdir, capsys):
    assert main(["gen", "matrix", "-n", "2", "--density", "0", "--seed", "1"]) == 0
    assert capsys.readouterr().out == "2\n00\n00\n"


def test_bench_prints_one_row_per_size(capsys):
    assert main(["bench", "--sizes", "10,20,30", "--suite", "reach-d1", "--seed", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 3
    assert all("seconds=" in row for row in rows)


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["reach"])  # missing required arguments
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["crosscheck", "--suite", "nonsense"])
    assert err.value.code == 2


def test_seed_comes_only_from_the_flag(workdir, capsys, monkeypatch):
    explicit = workdir / "seed0.lg"
    assert main(["gen", "dyck-graph", "-n", "6", "-m", "8", "--seed", "0", "-o", str(explicit)]) == 0
    for value in ("abc", "2"):
        monkeypatch.setenv("PA_LAB_SEED", value)
        out = workdir / f"env{value}.lg"
        assert main(["gen", "dyck-graph", "-n", "6", "-m", "8", "-o", str(out)]) == 0
        assert out.read_bytes() == explicit.read_bytes()
    assert capsys.readouterr().err == ""


def test_reach_with_grammar_file(workdir, capsys):
    from palab.cfl import builtin_grammar

    cfg = workdir / "dyck.cfg"
    cfg.write_text(helpers.serialize_grammar(builtin_grammar("d1")))
    g = workdir / "g.lg"
    main(["reduce", "bmm-to-d1", str(workdir / "A.bm"), str(workdir / "B.bm"), "-o", str(g)])
    assert main(["reach", str(g), "--grammar", str(cfg)]) == 0
    assert capsys.readouterr().out == "x0 -> z2\nx0 -> z3\n"


def test_analyze_unknown_query_variable_exits_2(workdir, capsys):
    assert main(["analyze", str(workdir / "ex.pa"), "--query", "zz", "d"]) == 2
    assert "error" in capsys.readouterr().err


def test_analyze_query_agrees_with_the_printed_solution(workdir, capsys):
    p = str(workdir / "r.pa")
    assert main(["gen", "program", "-n", "14", "--stmts", "40", "--seed", "2", "-o", p]) == 0
    assert main(["analyze", p]) == 0
    pt = {}
    for line in capsys.readouterr().out.splitlines():
        head, members = line.split(" = ")
        pt[head[3:-1]] = set(members.strip("{ }").split(", ")) - {""}
    assert len(pt) == 14 and any(pt.values())
    for v in pt:
        for w in pt:
            assert main(["analyze", p, "--query", v, w]) == (0 if w in pt[v] else 1), (v, w)
            assert capsys.readouterr().out == ("yes\n" if w in pt[v] else "no\n")
    known = next(iter(pt))
    for query in (["zz", known], [known, "zz"]):
        assert main(["analyze", p, "--query", *query]) == 2
        assert capsys.readouterr().err == "error: unknown variable zz\n"


def test_gen_program_and_simple_graph(workdir, capsys):
    p = workdir / "r.pa"
    assert main(["gen", "program", "-n", "6", "--stmts", "9", "--seed", "4", "-o", str(p)]) == 0
    from palab.textio import parse_program

    prog = parse_program(p.read_text())
    assert 1 <= len(prog.statements) <= 9
    s = workdir / "s.lg"
    assert main(["gen", "simple-graph", "-n", "5", "--density", "0.5", "--seed", "4", "-o", str(s)]) == 0
    assert main(["gen", "simple-graph", "-n", "5", "--density", "0.5", "--directed", "--seed", "4", "-o", str(s)]) == 0


def test_bench_solve_suite(capsys):
    assert main(["bench", "--sizes", "10,20", "--suite", "solve", "--seed", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_bench_rows_carry_the_instance_sizes(capsys):
    from palab.crosscheck import rand_program

    assert main(["bench", "--sizes", "200", "--suite", "solve", "--seed", "1"]) == 0
    program = rand_program(200, 400, 1)
    row = capsys.readouterr().out
    assert row.startswith(f"vars={len(program.variables)} stmts={len(program.statements)} ")
    assert main(["bench", "--sizes", "10", "--suite", "reach-d1", "--seed", "1"]) == 0
    assert capsys.readouterr().out.startswith("nodes=10 edges=20 suite=reach-d1 ")


@pytest.mark.parametrize(
    "sizes", ["10,x", "-5", "1.5", "٣", "1_0", "+3", "4, 5", "", ",", "100000000000000000000"]
)
def test_bench_rejects_bad_sizes_with_usage(sizes, capsys):
    with pytest.raises(SystemExit) as err:
        main(["bench", "--sizes", sizes])
    assert err.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "matrix", "-n"],
        ["gen", "dyck-graph", "-n", "4", "-m"],
        ["gen", "program", "-n", "3", "--stmts"],
        ["crosscheck", "--suite", "peg", "--trials"],
        ["crosscheck", "--suite", "bmm", "--trials", "1", "--max-n"],
    ],
)
@pytest.mark.parametrize("count", ["٣", "1_0", "100000000000000000000"])
def test_count_options_take_ascii_digits_up_to_maxsize(argv, count, capsys):
    with pytest.raises(SystemExit) as err:
        main([*argv, count, "--seed", "1"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["reach", "--grammar", "d1"], ["reduce", "d1-to-pa", "-o", "out.pa"]],
)
def test_undecodable_input_exits_2_without_traceback(workdir, capsys, argv):
    bad = workdir / "bad.in"
    bad.write_bytes(b"\xff\xfe")
    argv = [arg if arg != "out.pa" else str(workdir / arg) for arg in argv]
    assert main([*argv, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _reach_error(workdir, capsys, text: str, *extra: str) -> str:
    graph = workdir / "g.lg"
    graph.write_text(text, encoding="utf-8")
    assert main(["reach", str(graph), "--grammar", "d1", *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    return err


def test_non_ascii_digit_token_exits_2(workdir, capsys):
    # "²" passes str.isdigit() but is not an id; as a name it leaves node 1 unnamed
    err = _reach_error(workdir, capsys, "nodes 2\n0 [1 ²\n")
    assert "name all or none" in err


def test_digit_node_name_exits_2(workdir, capsys):
    # `3` would name node 0 and also be the id of node 3
    text = "nodes 4\nname 0 3\nname 1 a\nname 2 b\nname 3 c\n3 [1 a\na ]1 b\n"
    assert "reads as a node id" in _reach_error(workdir, capsys, text)
    assert "reads as a node id" in _reach_error(
        workdir, capsys, text, "--source", "3", "--target", "b"
    )


def test_analyze_stats_go_to_stderr_only(workdir, capsys):
    program = str(workdir / "ex.pa")
    assert main(["analyze", program]) == 0
    plain = capsys.readouterr()
    assert main(["analyze", program, "--stats"]) == 0
    with_stats = capsys.readouterr()
    assert with_stats.out == plain.out == EXPECTED_SOLUTION
    assert plain.err == ""
    stats = json.loads(with_stats.err)
    assert set(stats) == {"pops", "copy_edges", "cycle_checks", "merged"}


@pytest.mark.parametrize("count", ["٣", "+3", "1_0", "-1"])
def test_graph_node_count_must_be_ascii_digits(workdir, capsys, count):
    assert "bad node count" in _reach_error(workdir, capsys, f"nodes {count}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["reach", "--grammar", "d1"],
        ["reach", "--grammar", "d1", "--source", "0", "--target", "1"],
        ["reduce", "d1-to-pa", "-o", "out.pa"],
        ["reduce", "triangle-to-d1", "-o", "out.lg"],
    ],
)
def test_node_count_above_maxsize_exits_2(workdir, capsys, argv):
    huge = workdir / "huge.lg"
    huge.write_text("nodes 100000000000000000000\n")
    argv = [str(workdir / arg) if arg.startswith("out.") else arg for arg in argv]
    assert main([*argv, str(huge)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: ") and err.count("\n") == 1


def test_node_count_beyond_memory_exits_2(workdir, capsys):
    # CPython refuses `[0] * 2**60` before it allocates anything
    huge = workdir / "huge.lg"
    huge.write_text("nodes 1152921504606846976\n")
    assert main(["reach", str(huge), "--grammar", "d1"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


@pytest.mark.parametrize("size", ["٤", "+4", "0_4"])
def test_matrix_size_must_be_ascii_digits(workdir, capsys, size):
    bad = workdir / "bad.bm"
    bad.write_text(MATRIX_A.replace("4", size, 1), encoding="utf-8")
    assert main(["reduce", "bmm-to-d1", str(bad), str(workdir / "B.bm"), "-o", str(workdir / "o.lg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad matrix size" in err and "Traceback" not in err


def test_zero_size_matrix_is_a_parse_error_with_its_line(workdir, capsys):
    zero = workdir / "z.bm"
    zero.write_text("0\n")
    assert main(["reduce", "bmm-to-d1", str(zero), str(zero), "-o", str(workdir / "out.lg")]) == 2
    assert capsys.readouterr().err == "error: line 1: matrix must be non-empty\n"


@pytest.mark.parametrize("name", ["dyck:1_0", "dyck:٣", "dyck:+2", "dyck: 2"])
def test_dyck_grammar_count_must_be_ascii_digits(workdir, capsys, name):
    err = _reach_error(workdir, capsys, "nodes 2\n0 [1 1\n", "--grammar", name)
    assert "bad dyck grammar name" in err


def test_reach_helper_names_avoid_grammar_symbols(workdir, capsys):
    graph = workdir / "g.lg"
    graph.write_text("nodes 3\n0 a 1\n1 b 2\n0 c 2\n")
    cfg = workdir / "clash.cfg"
    cfg.write_text("start X\nterminals a b c\nX -> a c c b\n@1 -> b\n")
    assert main(["reach", str(graph), "--grammar", str(cfg)]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("query", [[], ["--source", "0", "--target", "5"]])
def test_reach_stats_go_to_stderr_only(workdir, capsys, query):
    graph = str(workdir / "g.lg")
    assert main(["gen", "dyck-graph", "-n", "20", "-m", "40", "--seed", "1", "-o", graph]) == 0
    capsys.readouterr()
    argv = ["reach", graph, "--grammar", "d1", *query]
    code = main(argv)
    plain = capsys.readouterr()
    runs = []
    for _ in range(2):
        assert main([*argv, "--stats"]) == code
        runs.append(capsys.readouterr())
    assert plain.err == ""
    assert runs[0].out == runs[1].out == plain.out
    assert runs[0].err == runs[1].err
    stats = json.loads(runs[0].err)
    assert set(stats) == {"pops", "joined_rows", "copy_edges", "summaries"}
    assert stats["pops"] > 0 and stats["summaries"]["D1"] > 0


def test_reach_stats_list_every_grammar_symbol_for_both_queries(workdir, capsys):
    graph = workdir / "g.lg"
    graph.write_text("nodes 3\n0 a 1\n1 b 2\n")
    cfg = workdir / "unproductive.cfg"
    cfg.write_text("start Y\nterminals a b\nX -> a b\n")
    summaries = []
    for query, code in (([], 0), (["--source", "0", "--target", "2"], 1)):
        assert main(["reach", str(graph), "--grammar", str(cfg), "--stats", *query]) == code
        summaries.append(json.loads(capsys.readouterr().err)["summaries"])
    assert summaries[0].keys() == summaries[1].keys() == {"X", "Y", "a", "b"}
    assert summaries[0]["Y"] == summaries[1]["Y"] == 0
    assert summaries[0]["X"] == 1


def test_reach_stats_for_an_empty_path_list_the_all_pairs_keys(workdir, capsys):
    # s = t on a nullable start is read from the full saturation too, so its
    # counters are the all-pairs ones
    graph = workdir / "g.lg"
    graph.write_text("nodes 3\n0 [1 1\n1 ]1 2\n")
    stats = []
    for query, code in (([], 0), (["--source", "1", "--target", "1"], 0)):
        assert main(["reach", str(graph), "--grammar", "d1", "--stats", *query]) == code
        stats.append(json.loads(capsys.readouterr().err))
    assert stats[1] == stats[0] and stats[0]["summaries"]["D1"] > 0


@pytest.mark.parametrize("k", ["100000000000000000000", "3"])
def test_dyck_count_above_the_label_count_exits_2_before_building(workdir, capsys, monkeypatch, k):
    def refuse(count):
        raise AssertionError(f"dyck_grammar({count}) was built")

    monkeypatch.setattr(palab.cfl, "dyck_grammar", refuse)
    graph = workdir / "g.lg"
    graph.write_text("nodes 3\n0 [1 1\n1 ]1 2\n")
    assert main(["reach", str(graph), "--grammar", f"dyck:{k}"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: dyck:{k}: {k} bracket kinds exceed the 2 allowed\n"


def test_dyck_count_up_to_the_label_count_runs(workdir, capsys):
    graph = workdir / "g.lg"
    graph.write_text("nodes 3\n0 [1 1\n1 ]1 2\n")
    for grammar in ("d1", "dyck:1", "dyck:2"):
        assert main(["reach", str(graph), "--grammar", grammar]) == 0
        assert capsys.readouterr().out == "0 -> 2\n"


def test_dyck_1_answers_a_graph_with_no_labels_as_d1_does(workdir, capsys):
    graph = workdir / "g.lg"
    graph.write_text("nodes 3\n")
    outs = []
    for grammar in ("d1", "dyck:1"):
        assert main(["reach", str(graph), "--grammar", grammar, "--include-self"]) == 0
        outs.append(capsys.readouterr())
    assert outs[1] == outs[0] and outs[0].out == "0 -> 0\n1 -> 1\n2 -> 2\n"
    assert main(["reach", str(graph), "--grammar", "dyck:2"]) == 2
    assert capsys.readouterr().err == "error: dyck:2: 2 bracket kinds exceed the 1 allowed\n"


def test_a_declared_non_dyck_label_is_refused_alike_by_reach_and_reduce(workdir, capsys):
    graph = workdir / "g.lg"
    graph.write_text("nodes 2\nalphabet [1 ]1 x\n0 [1 1\n")
    program = workdir / "p.pa"
    for argv in (
        ["reach", str(graph), "--grammar", "d1"],
        ["reach", str(graph), "--grammar", "d1", "--source", "0", "--target", "1"],
        ["reduce", "d1-to-pa", str(graph), "-o", str(program)],
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: labels not in grammar terminals: x\n")
    assert not program.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["reach", "G", "--grammar", "d1", "--source", "0"], "--source and --target must be given together"),
        (["reduce", "bmm-to-d1", "A", "-o", "OUT"], "bmm-to-d1 needs two matrix files"),
        (["reduce", "d1-to-pa", "G", "G", "-o", "OUT"], "d1-to-pa needs one graph file"),
        (["reduce", "triangle-to-d1", "G", "G", "-o", "OUT"], "triangle-to-d1 needs one graph file"),
    ],
)
def test_wrong_argument_combinations_exit_2(workdir, capsys, argv, message):
    (workdir / "g.lg").write_text("nodes 2\n0 [1 1\n")
    paths = {"G": workdir / "g.lg", "A": workdir / "A.bm", "OUT": workdir / "out"}
    assert main([str(paths.get(arg, arg)) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "out").exists()


LONG = "1" * 5000  # past CPython's 4300-digit limit for `int()`


@pytest.mark.parametrize(
    "graph, argv, message",
    [
        (f"nodes {LONG}\n", [], f"line 1: node count {LONG} exceeds {sys.maxsize}"),
        ("nodes 3\n0 [1 1\n1 ]1 2\n", ["--source", LONG, "--target", "0"], f"node {LONG} out of range"),
        (f"nodes 3\n0 [1 -{LONG}\n", [], f"line 2: node -{LONG} out of range"),
        (f"nodes 3\nname {LONG} x\n", [], f"line 2: node {LONG} out of range"),
        ("nodes 3\n0 [1 1\n1 ]1 2\n", ["--grammar", f"dyck:{LONG}"],
         f"dyck:{LONG}: {LONG} bracket kinds exceed the 2 allowed"),
    ],
    ids=["nodes-count", "source", "edge-id", "name-id", "dyck-k"],
)
def test_long_digit_tokens_in_reach_exit_2(workdir, capsys, graph, argv, message):
    (workdir / "g.lg").write_text(graph)
    assert main(["reach", str(workdir / "g.lg"), "--grammar", "d1", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_long_digit_matrix_size_exits_2(workdir, capsys):
    (workdir / "long.bm").write_text(f"{LONG}\n01\n10\n")
    argv = ["reduce", "bmm-to-d1", str(workdir / "long.bm"), str(workdir / "B.bm"), "-o", str(workdir / "o.lg")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: expected {LONG} rows, got 2\n"


def test_long_digit_tokens_with_leading_zeros_are_their_value(workdir, capsys):
    zeros = "0" * 5000
    (workdir / "g.lg").write_text(f"nodes {zeros}3\n-{zeros} [1 {zeros}1\n{zeros}1 ]1 {zeros}2\n")
    assert main(["reach", str(workdir / "g.lg"), "--grammar", "d1"]) == 0
    assert capsys.readouterr().out == "0 -> 2\n"
    argv = ["--grammar", f"dyck:{zeros}1", "--source", f"-{zeros}", "--target", f"{zeros}2"]
    assert main(["reach", str(workdir / "g.lg"), *argv]) == 0
    assert capsys.readouterr().out == "reachable\n"


# Each writer as a function of the work directory and the output path it is handed.
_WRITERS = {
    "gen -o": lambda d, out: ["gen", "matrix", "-n", "5", "--seed", "1", "-o", out],
    "reduce -o": lambda d, out: ["reduce", "bmm-to-d1", str(d / "A.bm"), str(d / "B.bm"), "-o", out],
    "reduce --map": lambda d, out: [
        "reduce", "bmm-to-d1", str(d / "A.bm"), str(d / "B.bm"), "-o", str(d / "g.lg"), "--map", out
    ],
}


@pytest.mark.parametrize("writer", list(_WRITERS))
@pytest.mark.parametrize("stale", ["longer", "shorter"])
def test_rewriting_an_output_gives_the_bytes_of_a_fresh_write(workdir, writer, stale):
    """Outputs are rewritten in place and cut at the end of the new text."""
    argv = _WRITERS[writer]
    fresh = workdir / "fresh.out"
    assert main(argv(workdir, str(fresh))) == 0
    want = fresh.read_bytes()
    old = workdir / "old.out"
    old.write_bytes(b"x" * (len(want) + 4096 if stale == "longer" else len(want) // 2))
    assert main(argv(workdir, str(old))) == 0
    assert old.read_bytes() == want


@pytest.mark.skipif(not Path("/dev/null").exists(), reason="no /dev/null")
def test_output_to_dev_null_exits_0(capsys):
    """A device is written but not truncated: /dev/null refuses `ftruncate`."""
    assert main(["gen", "matrix", "-n", "3", "-o", "/dev/null"]) == 0
    assert capsys.readouterr().err == ""


def test_a_new_output_gets_the_mode_open_w_gives(workdir):
    umask = os.umask(0o027)
    try:
        assert main(_WRITERS["gen -o"](workdir, str(workdir / "new.bm"))) == 0
        open(workdir / "ref.bm", "w").close()
    finally:
        os.umask(umask)
    mode = stat.S_IMODE((workdir / "new.bm").stat().st_mode)
    assert mode == stat.S_IMODE((workdir / "ref.bm").stat().st_mode) == 0o666 & ~0o027


@pytest.mark.parametrize("writer", list(_WRITERS))
def test_an_output_naming_a_directory_exits_2(workdir, writer, capsys):
    (workdir / "dir").mkdir()
    assert main(_WRITERS[writer](workdir, str(workdir / "dir"))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
