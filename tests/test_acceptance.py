"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every tolerance is exact (zero mismatches / exact text);
each criterion also carries its wall-clock budget.
"""

import random
import time

import pytest

from palab.andersen import solve
from palab.cfl import all_pairs, builtin_grammar, follow_sets, st_query
from palab.cli import main
from palab.crosscheck import (
    check_bmm_chain,
    check_peg_equivalence,
    check_pt_prime,
    check_triangle_chain,
    rand_dyck_graph,
    rand_matrix,
    rand_program,
    rand_simple_graph,
)
from palab.model import DYCK_LABELS, Program, StatementProfile
from palab.peg import PEG_ALPHABET, build_peg
from palab.reductions import bmm_to_d1, d1_to_program, triangle_to_st_d1
from palab.textio import parse_graph, parse_program, serialize_graph

import helpers

EXPECTED_SOLUTION = "pt(a) = { b }\npt(b) = { d }\npt(c) = { d }\npt(d) = { }\n"


def _report(name: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} {name} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded {budget}s budget: {elapsed:.2f}s"


def test_criterion_01_analyze_golden(tmp_path, capsys):
    started = time.perf_counter()
    path = tmp_path / "ex.pa"
    path.write_text("a=&b; b=&d; c=*a\n")
    code = main(["analyze", str(path)])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(
            "criterion-01 solver golden output",
            code == 0 and out == EXPECTED_SOLUTION,
            elapsed,
            1.0,
        )


def test_criterion_02_pipeline_golden(tmp_path, capsys):
    started = time.perf_counter()
    (tmp_path / "A.bm").write_text("4\n0100\n0000\n0000\n0000\n")
    (tmp_path / "B.bm").write_text("4\n0000\n0011\n0000\n0000\n")
    graph_file = tmp_path / "g.lg"
    ok = (
        main(
            ["reduce", "bmm-to-d1", str(tmp_path / "A.bm"), str(tmp_path / "B.bm"), "-o", str(graph_file)]
        )
        == 0
    )
    capsys.readouterr()
    graph = parse_graph(graph_file.read_text())
    named = {(graph.name_of(s), l, graph.name_of(d)) for s, l, d in graph.edges}
    ok &= graph.node_count == 12 and named == {
        ("x0", "[1", "y1"),
        ("y1", "]1", "z2"),
        ("y1", "]1", "z3"),
    }

    ok &= main(["reach", str(graph_file), "--grammar", "d1"]) == 0
    ok &= capsys.readouterr().out == "x0 -> z2\nx0 -> z3\n"

    # same graph under the walkthrough's variable names, then the program route
    renamed_file = tmp_path / "renamed.lg"
    renamed_file.write_text(serialize_graph(helpers.renamed_worked_graph()))
    program_file = tmp_path / "p.pa"
    ok &= (
        main(
            [
                "reduce", "d1-to-pa", str(renamed_file),
                "--profile", "case1", "--prune-isolated", "-o", str(program_file),
            ]
        )
        == 0
    )
    program = parse_program(program_file.read_text())
    ok &= len(program.statements) == 21
    solution = solve(program)
    ok &= solution.query("u0", "w2'")
    ok &= solution.query("u0", "w3'")
    ok &= solution.query("w3", "w3'")
    # the two close-bracket targets stay unrelated, by points-to and by subset
    ok &= not solution.query("w3", "w2'")
    ok &= not solution.query("w2", "w3'")
    peg = build_peg(program)
    summaries = all_pairs(peg.graph, builtin_grammar("pt"))
    from palab.model import Variable
    from palab.peg import ExprForm

    w2 = peg.node(Variable("w2"), ExprForm.VAR)
    w3 = peg.node(Variable("w3"), ExprForm.VAR)
    ok &= not summaries.holds(w3, "S", w2)
    ok &= not summaries.holds(w2, "S", w3)
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report("criterion-02 reduction pipeline golden", bool(ok), elapsed, 1.0)


def test_criterion_03_size_formulas(capsys):
    started = time.perf_counter()
    ok = True
    for trial in range(50):
        n = 1 + trial % 9
        a = rand_matrix(n, 0.35, seed=3000 + trial)
        b = rand_matrix(n, 0.35, seed=4000 + trial)
        inst = bmm_to_d1(a, b)
        ok &= inst.graph.node_count == 3 * n
        ok &= len(inst.graph.edges) == a.nnz() + b.nnz()
    for trial in range(50):
        n = 1 + trial % 10
        g = rand_dyck_graph(n, min(trial % 16, 2 * n * n), seed=5000 + trial)
        program, _ = d1_to_program(g, StatementProfile.CASE1, prune_isolated=False)
        nv, ne = g.node_count, len(g.edges)
        sources = len({(u, label) for u, label, _ in g.edges})  # one temp each
        ok &= len(program.variables) == 5 * nv + sources
        ok &= len(program.statements) == 4 * nv + sources + ne
    for trial in range(50):
        n = 3 + trial % 8
        g = rand_simple_graph(n, 0.4, seed=6000 + trial)
        m = len(g.edges)
        inst = triangle_to_st_d1(g)
        hops = 3 * n if m else 0
        ok &= inst.graph.node_count == 4 * n + 2 + hops
        ok &= len(inst.graph.edges) == 2 * n + hops + 6 * m
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report("criterion-03 exact size formulas", bool(ok), elapsed, 5.0)


def test_criterion_04_bmm_chain_all_profiles(capsys):
    started = time.perf_counter()
    reports = [
        check_bmm_chain(n_max=8, trials=100, seed=42, profile=profile)
        for profile in StatementProfile
    ]
    ok = all(r.passed for r in reports)
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        for r, profile in zip(reports, StatementProfile):
            if not r.passed:
                print(f"  {profile.value}: {r.summary_text()}")
        _report("criterion-04 matrix-product chain, six profiles", ok, elapsed, 120.0)


def test_criterion_05_solver_vs_reachability(capsys):
    started = time.perf_counter()
    report = check_peg_equivalence(trials=200, seed=7)
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        if not report.passed:
            print(report.summary_text())
        _report("criterion-05 solver vs graph reachability", report.passed, elapsed, 60.0)


def test_criterion_06_full_vs_pruned_grammar(capsys):
    started = time.perf_counter()
    report = check_pt_prime(trials=100, seed=11)
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        if not report.passed:
            print(report.summary_text())
        _report("criterion-06 full vs pruned grammar summaries", report.passed, elapsed, 60.0)


def test_criterion_07_triangle_chain_both_modes(capsys):
    started = time.perf_counter()
    undirected = check_triangle_chain(n_max=10, trials=200, seed=3, directed=False)
    directed = check_triangle_chain(n_max=10, trials=200, seed=3, directed=True)
    ok = undirected.passed and directed.passed
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        for r in (undirected, directed):
            if not r.passed:
                print(r.summary_text())
        _report("criterion-07 triangle chain, both modes", ok, elapsed, 60.0)


def test_criterion_08_follow_set_table(capsys):
    started = time.perf_counter()
    expected = {
        "d": {"sa", "-as", "r", "d", "as", "-d", "s", "-sa", "-s"},
        "-d": {"as", "-d", "s", "r", "-r"},
        "r": {"d"},
        "-r": {"-d", "d", "-sa", "-s"},
        "as": {"-d"},
        "-as": {"-d", "d", "-sa", "-s"},
        "sa": {"r", "as", "-d", "s"},
        "-sa": {"-d"},
        "s": {"r", "as", "-d", "s"},
        "-s": {"-d", "d", "-sa", "-s"},
    }
    got = follow_sets(builtin_grammar("pt"))
    mismatched = {
        t: (sorted(got[t]), sorted(want))
        for t, want in expected.items()
        if got[t] != frozenset(want)
    }
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        for t, (g, w) in mismatched.items():
            print(f"  Follow({t}) computed {g} but the table says {w}")
        _report("criterion-08 all ten terminal Follow sets", not mismatched, elapsed, 5.0)


def test_criterion_09_solver_property_suite(capsys):
    started = time.perf_counter()
    rng = random.Random(99)
    ok = True
    for trial in range(100):
        program = rand_program(10, 22, seed=9900 + trial)
        solution = solve(program)
        # fixpoint: one more resolution pass adds nothing
        ok &= helpers.constraint_violations(program, solution) == []
        # statement order independence
        shuffled = list(program.statements)
        rng.shuffle(shuffled)
        ok &= solve(Program(shuffled)) == solution
        # worklist pop order independence
        ok &= helpers.solve_lifo(program) == solution
        # monotone growth under statement addition
        cut = 1 + trial % len(program.statements)
        smaller_sol = solve(Program(program.statements[:cut]))
        for v, pts in smaller_sol.pt.items():
            ok &= pts <= solution.pt[v]
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report("criterion-09 solver property suite", bool(ok), elapsed, 60.0)


def test_criterion_10_saturation_oracle(capsys):
    started = time.perf_counter()
    d1 = builtin_grammar("d1")
    pt = builtin_grammar("pt")
    ok = True
    for trial in range(50):
        g = helpers.rand_acyclic_graph(sorted(DYCK_LABELS), max_nodes=6, max_edges=8, seed=trial)
        summaries = all_pairs(g, d1)
        for symbol in ("D1", "S"):
            ok &= summaries.pairs(symbol) == helpers.reachable_by_enumeration(g, d1, symbol)
    for trial in range(50):
        g = helpers.rand_acyclic_graph(
            sorted(PEG_ALPHABET), max_nodes=5, max_edges=8, seed=7000 + trial
        )
        summaries = all_pairs(g, pt)
        for symbol in ("Pt", "S", "-S"):
            ok &= summaries.pairs(symbol) == helpers.reachable_by_enumeration(g, pt, symbol)
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report("criterion-10 saturation vs path enumeration", bool(ok), elapsed, 30.0)
