import random

import pytest

from palab.andersen import extract_constraints, query, solve
from palab.cfl import all_pairs, builtin_grammar
from palab.crosscheck import rand_program, worked_program
from palab.model import Program, UnknownVariableError, Variable
from palab.peg import ExprForm, build_peg
from palab.textio import parse_program

import helpers


def test_constraint_extraction_buckets():
    cs = extract_constraints(worked_program())
    named = lambda pairs: {(a.name, b.name) for a, b in pairs}
    assert named(cs.address_of) == {("a", "b"), ("b", "d")}
    assert named(cs.assign_star) == {("c", "a")}
    assert cs.assign == frozenset() and cs.star_assign == frozenset()


def test_constraint_extraction_empty_and_duplicates():
    empty = extract_constraints(Program([]))
    assert all(
        not bucket
        for bucket in (empty.address_of, empty.assign, empty.assign_star, empty.star_assign)
    )
    dup = extract_constraints(parse_program("a = b\na = b"))
    assert len(dup.assign) == 1


def test_solve_worked_example():
    sol = solve(worked_program())
    pt = {v.name: {w.name for w in ws} for v, ws in sol.pt.items()}
    assert pt == {"a": {"b"}, "b": {"d"}, "c": {"d"}, "d": set()}


def test_solve_no_address_of_means_all_empty():
    sol = solve(parse_program("a = b\nb = *c\n*a = c"))
    assert all(not ws for ws in sol.pt.values())


def test_solve_reduced_walkthrough_facts():
    sol = solve(parse_program(helpers.REDUCED_PROGRAM_TEXT))
    assert sol.query("u0", "w2'")
    assert sol.query("u0", "w3'")
    assert sol.query("w3", "w3'")
    assert not sol.query("w3", "w2'")
    assert not sol.query("w2", "w3'")


def test_query_answers_and_errors():
    sol = solve(worked_program())
    assert query(sol, "c", "d")
    assert not query(sol, "d", "d")  # no reflexivity without address-of
    assert not query(sol, "a", "d")
    with pytest.raises(UnknownVariableError):
        query(sol, "zz", "a")
    with pytest.raises(UnknownVariableError):
        query(sol, "a", Variable("zz"))


def test_solution_is_a_fixpoint_on_seeded_programs():
    for trial in range(120):
        prog = rand_program(10, 20, seed=9000 + trial)
        assert helpers.constraint_violations(prog, solve(prog)) == []


def test_statement_order_independence():
    rng = random.Random(4)
    for trial in range(120):
        prog = rand_program(10, 20, seed=5000 + trial)
        shuffled = list(prog.statements)
        rng.shuffle(shuffled)
        assert solve(prog) == solve(Program(shuffled))


def test_fifo_and_lifo_policies_agree():
    for trial in range(120):
        prog = rand_program(10, 20, seed=6000 + trial)
        assert solve(prog, policy="fifo") == solve(prog, policy="lifo")
    with pytest.raises(ValueError):
        solve(worked_program(), policy="random")


def test_monotone_under_statement_addition():
    for trial in range(120):
        prog = rand_program(10, 24, seed=7000 + trial)
        cut = 1 + trial % (len(prog.statements))
        smaller = Program(prog.statements[:cut])
        small_sol, big_sol = solve(smaller), solve(prog)
        for v in smaller.variables:
            assert small_sol.pt[v] <= big_sol.pt[v]


def test_agreement_with_reachability_on_small_programs():
    grammar = builtin_grammar("pt")
    for trial in range(40):
        prog = rand_program(15, 30, seed=100 + trial)
        sol = solve(prog)
        peg = build_peg(prog)
        summaries = all_pairs(peg.graph, grammar)
        for p in prog.variables:
            for q in prog.variables:
                assert sol.query(p, q) == summaries.holds(
                    peg.node(p, ExprForm.VAR), "Pt", peg.node(q, ExprForm.ADDR)
                ), (trial, p.name, q.name)


# Hand-built shapes around self-loops, stores that close cycles, and cycles
# that only appear once an earlier cycle has been collapsed.
CYCLE_SHAPES = {
    "self copy": "a = &b\na = a",
    "self load": "a = &a\nb = &a\na = *a\nb = *b",
    "self store": "p = &p\n*p = p",
    "ring closed by a store": "a = &x\nb = a\nc = b\np = &a\n*p = c",
    "cycle after a merge": (
        "a = &x\nb = a\na = b\nc = b\np = &c\na = *p\nd = &y\n*b = d\nx = &d\ne = *x\nd = e"
    ),
    "plain copy ring": "a = &x\nb = a\nc = b\nd = c\na = d\nx = &a",
}


@pytest.mark.parametrize("name", sorted(CYCLE_SHAPES))
def test_cycle_shapes_reach_the_least_fixpoint(name):
    prog = parse_program(CYCLE_SHAPES[name])
    expected = helpers.least_fixpoint(prog)
    for policy in ("fifo", "lifo"):
        assert solve(prog, policy=policy) == expected, (name, policy)


@pytest.mark.parametrize("max_vars, max_stmts", [(20, 240), (15, 30)])
def test_cycle_heavy_programs_reach_the_least_fixpoint(max_vars, max_stmts):
    for trial in range(150):
        prog = rand_program(max_vars, max_stmts, seed=8000 + trial)
        expected = helpers.least_fixpoint(prog)
        for policy in ("fifo", "lifo"):
            assert solve(prog, policy=policy) == expected, (trial, policy)


def test_copy_ring_is_collapsed_and_counted():
    stats = {}
    solve(parse_program(CYCLE_SHAPES["plain copy ring"]), stats=stats)
    assert set(stats) == {"pops", "copy_edges", "cycle_checks", "merged"}
    assert stats["merged"] > 0 and stats["cycle_checks"] > 0
    stats = {}
    solve(parse_program("a = &x\nb = *a\nx = &y"), stats=stats)
    assert stats["copy_edges"] == 1 and stats["merged"] == 0
