import random

import pytest

from palab.andersen import _copy_sccs, solve
from palab.cfl import all_pairs, builtin_grammar
from palab.crosscheck import rand_matrix, rand_program, worked_program
from palab.model import Program, StatementProfile, UnknownVariableError, Variable
from palab.peg import ExprForm, build_peg
from palab.reductions import bmm_to_d1, d1_to_program
from palab.textio import parse_program

import helpers
from helpers import extract_constraints


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
    assert sol.query("c", "d")
    assert not sol.query("d", "d")  # no reflexivity without address-of
    assert not sol.query("a", "d")
    with pytest.raises(UnknownVariableError):
        sol.query("zz", "a")
    with pytest.raises(UnknownVariableError):
        sol.query("a", Variable("zz"))


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
        assert solve(prog) == helpers.solve_lifo(prog)


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
    for run in (solve, helpers.solve_lifo):
        assert run(prog) == expected, (name, run)


def test_lifo_helper_pops_last_in_first_out():
    # (pops, copy_edges, cycle_checks, merged) differ between the two orders,
    # so the helper cannot silently rerun the FIFO solver
    prog = parse_program(CYCLE_SHAPES["ring closed by a store"])
    for run, expected in ((solve, (4, 1, 2, 2)), (helpers.solve_lifo, (3, 1, 1, 2))):
        stats = {}
        run(prog, stats)
        counters = stats["pops"], stats["copy_edges"], stats["cycle_checks"], stats["merged"]
        assert counters == expected, run


@pytest.mark.parametrize("max_vars, max_stmts", [(20, 240), (15, 30)])
def test_cycle_heavy_programs_reach_the_least_fixpoint(max_vars, max_stmts):
    for trial in range(150):
        prog = rand_program(max_vars, max_stmts, seed=8000 + trial)
        expected = helpers.least_fixpoint(prog)
        for run in (solve, helpers.solve_lifo):
            assert run(prog) == expected, (trial, run)


def test_copy_ring_is_collapsed_and_counted():
    stats = {}
    solve(parse_program(CYCLE_SHAPES["plain copy ring"]), stats=stats)
    assert set(stats) == {"pops", "copy_edges", "cycle_checks", "merged"}
    assert stats["merged"] > 0 and stats["cycle_checks"] > 0
    stats = {}
    solve(parse_program("a = &x\nb = *a\nx = &y"), stats=stats)
    assert stats["copy_edges"] == 1 and stats["merged"] == 0


@pytest.mark.parametrize("max_vars, max_stmts", [(180, 360), (100, 500), (70, 840)])
def test_workload_sized_programs_reach_the_least_fixpoint(max_vars, max_stmts):
    for trial in range(12):
        prog = rand_program(max_vars, max_stmts, seed=12000 + trial)
        expected = helpers.least_fixpoint(prog)
        for run in (solve, helpers.solve_lifo):
            assert run(prog) == expected, (trial, run)


# Shapes around the copy-edge cycles that exist before the first pop and are
# collapsed by the offline pass.
OFFLINE_SHAPES = {
    "address-taken scc loaded and stored through": (
        "a = b\nb = c\nc = a\na = &x\np = &a\np = &w\nq = &b\ns = &c\n"
        "r = *p\n*q = y\ny = &z\nt = *s\n*s = t\nw = &a"
    ),
    "offline group grown by a lazy cycle": "a = b\nb = a\nc = a\np = &c\na = *p\na = &x",
    "self copy inside an scc": "a = b\nb = a\na = a\nb = &x\nc = *a\nx = &c\nc = b",
}


@pytest.mark.parametrize("name", sorted(OFFLINE_SHAPES))
def test_offline_shapes_reach_the_least_fixpoint(name):
    prog = parse_program(OFFLINE_SHAPES[name])
    expected = helpers.least_fixpoint(prog)
    for run in (solve, helpers.solve_lifo):
        assert run(prog) == expected, (name, run)


def test_offline_pass_counts_each_component_as_one_check():
    # the ring a -> b -> c -> d -> a exists before the first pop: one
    # component, three variables merged, and one pop each for the ring and x
    stats = {}
    solve(parse_program(CYCLE_SHAPES["plain copy ring"]), stats=stats)
    assert stats == {"pops": 2, "copy_edges": 0, "cycle_checks": 1, "merged": 3}
    # a ring with empty sets is never popped, so only the offline pass sees it
    stats = {}
    solve(parse_program("a = b\nb = a\nc = &a"), stats=stats)
    assert stats["merged"] == 1 and stats["cycle_checks"] == 1
    # c joins the offline group {a, b} once the load adds the edge c -> a
    stats = {}
    solve(parse_program(OFFLINE_SHAPES["offline group grown by a lazy cycle"]), stats=stats)
    assert stats["merged"] == 2 and stats["cycle_checks"] >= 2


# (pops, copy_edges, cycle_checks, merged) under fifo
PINNED_RANDOM_COUNTERS = {
    1: (1, 0, 1, 13),
    2: (38, 395, 14, 86),
    3: (2, 5, 2, 23),
    4: (35, 34, 10, 6),
    5: (7, 424, 4, 62),
}
PINNED_BMM_COUNTERS = {
    "case1": (120, 92, 22, 0),
    "case2": (78, 71, 15, 0),
    "case3": (99, 92, 15, 0),
    "case4": (56, 51, 14, 0),
    "case5": (50, 71, 3, 0),
    "case6": (28, 51, 0, 0),
}


def test_fifo_counters_are_pinned():
    def counters(program):
        stats = {}
        solve(program, stats=stats)
        return stats["pops"], stats["copy_edges"], stats["cycle_checks"], stats["merged"]

    for seed, expected in PINNED_RANDOM_COUNTERS.items():
        assert counters(rand_program(100, 500, seed)) == expected, seed
    instance = bmm_to_d1(rand_matrix(8, 0.3, 1), rand_matrix(8, 0.3, 2))
    for profile in StatementProfile:
        program, _ = d1_to_program(instance.graph, profile, prune_isolated=True)
        assert counters(program) == PINNED_BMM_COUNTERS[profile.value], profile


def test_copy_sccs_match_mutual_reachability():
    rng = random.Random(11)
    for trial in range(300):
        n = rng.randint(1, 12)
        succ = [set() for _ in range(n)]
        for _ in range(rng.randint(0, 3 * n)):
            succ[rng.randrange(n)].add(rng.randrange(n))
        reach = [{u} for u in range(n)]
        for _ in range(n):
            for u in range(n):
                reach[u] = reach[u].union(*(reach[w] for w in succ[u]))
        expected = {frozenset(w for w in reach[u] if u in reach[w]) for u in range(n)}
        found = [frozenset(c) for c in _copy_sccs(succ, range(n), range(n))]
        assert len(found) == len(set(found)), trial
        assert set(found) == {c for c in expected if len(c) > 1}, trial


def test_whole_copy_component_is_collapsed():
    # v0, v2 and v3 form one copy-edge component once the load and the store
    # add their edges, and v1 joins it later; the lazy check must merge the
    # whole component, not only the nodes on paths back to the source of the
    # edge it checks
    prog = parse_program("v0 = *v3\nv2 = &v1\n*v0 = v0\nv3 = &v2\nv3 = &v3")
    expected = helpers.least_fixpoint(prog)
    for run in (solve, helpers.solve_lifo):
        stats = {}
        assert run(prog, stats) == expected, run
        assert stats["merged"] == 3, (run, stats)


def test_rooted_copy_sccs_return_the_components_reachable_from_the_root():
    rng = random.Random(23)
    for trial in range(300):
        n = rng.randint(1, 12)
        succ = [set() for _ in range(n)]
        for _ in range(rng.randint(0, 3 * n)):
            succ[rng.randrange(n)].add(rng.randrange(n))
        rep = list(range(n))
        if trial % 2 and n > 2:
            # contract a group into r as the solver does: r takes over the
            # members' edges, a merged-away member keeps none, and edges into
            # members stay stale until read through rep
            group = rng.sample(range(n), rng.randint(2, n - 1))
            r = group[0]
            for o in group[1:]:
                rep[o] = r
                succ[r] |= succ[o]
                succ[o] = set()
        nodes = [u for u in range(n) if rep[u] == u]
        reach = {u: {u} for u in nodes}
        for _ in range(n):
            for u in nodes:
                reach[u] = reach[u].union(*(reach[rep[w]] for w in succ[u]))
        component = {u: frozenset(w for w in reach[u] if u in reach[w]) for u in nodes}
        z = rng.choice(nodes)
        expected = {component[u] for u in reach[z] if len(component[u]) > 1}
        found = [frozenset(c) for c in _copy_sccs(succ, rep, (z,))]
        assert len(found) == len(set(found)), trial
        assert set(found) == expected, trial
        if len(component[z]) > 1:
            assert found[-1] == component[z], trial
