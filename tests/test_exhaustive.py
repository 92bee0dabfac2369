"""Bounded-exhaustive checks of the three reductions: every instance up to a
small size, each against an oracle that shares no code with the engine."""

from itertools import combinations, permutations, product

import pytest

from palab.andersen import solve
from palab.cfl import all_pairs, builtin_grammar, st_query
from palab.crosscheck import bmm_oracle, multiply_via_d1, triangle_oracle
from palab.model import DYCK_LABELS, BooleanMatrix, LabeledDigraph, StatementProfile
from palab.reductions import d1_to_program, triangle_to_st_d1

import helpers

D1 = builtin_grammar("d1")


def _subgraphs(n: int, slots, label: str):
    """Every graph on n nodes whose edges are a subset of `slots`."""
    slots = list(slots)
    for mask in range(1 << len(slots)):
        yield LabeledDigraph(
            n, {label}, {(u, label, v) for i, (u, v) in enumerate(slots) if mask >> i & 1}
        )


def test_bmm_via_d1_on_every_pair_of_2x2_matrices():
    matrices = [BooleanMatrix([list(b[:2]), list(b[2:])]) for b in product((0, 1), repeat=4)]
    for a, b in product(matrices, repeat=2):
        assert multiply_via_d1(a, b) == bmm_oracle(a, b), (a.bits, b.bits)


def test_triangle_to_st_d1_on_every_undirected_graph_with_3_to_5_nodes():
    # 8 + 64 + 1024 graphs; the s-t counters are the all-pairs ones on each
    checked = 0
    for n in (3, 4, 5):
        for graph in _subgraphs(n, combinations(range(n), 2), "e"):
            inst = triangle_to_st_d1(graph)
            st_stats, full_stats = {}, {}
            got = st_query(inst.graph, D1, inst.s, inst.t, stats=st_stats)
            summaries = all_pairs(inst.graph, D1, stats=full_stats)
            expected = triangle_oracle(graph)
            assert got == summaries.holds(inst.s, "D1", inst.t) == expected, sorted(graph.edges)
            assert st_stats == full_stats, sorted(graph.edges)
            checked += 1
    assert checked == 1096


@pytest.mark.parametrize("n", [3, 4])
def test_triangle_to_st_d1_on_every_directed_graph(n):
    checked = 0
    for graph in _subgraphs(n, permutations(range(n), 2), "e"):
        inst = triangle_to_st_d1(graph, directed=True)
        got = st_query(inst.graph, D1, inst.s, inst.t)
        assert got == triangle_oracle(graph, directed=True), sorted(graph.edges)
        checked += 1
    assert checked == 1 << n * (n - 1)


def _check_d1_to_program(graph: LabeledDigraph):
    """d1_to_program under every profile answers the D1 pairs of `graph`."""
    nodes = range(graph.node_count)
    expected = helpers.reference_saturation(graph, D1)["D1"]
    for profile in StatementProfile:
        program, rmap = d1_to_program(graph, profile)
        solution = solve(program)
        got = {
            (u, v) for u in nodes for v in nodes
            if solution.query(rmap.forward[u][0], rmap.forward[v][1])
        }
        assert got == expected, (profile, sorted(graph.edges))


def test_d1_to_program_on_every_two_node_graph_under_every_profile():
    slots = [(u, label, v) for u in range(2) for label in sorted(DYCK_LABELS) for v in range(2)]
    checked = 0
    for mask in range(1 << len(slots)):
        _check_d1_to_program(
            LabeledDigraph(2, DYCK_LABELS, {e for i, e in enumerate(slots) if mask >> i & 1})
        )
        checked += 1
    assert checked == 256


def test_d1_to_program_on_every_three_node_graph_without_self_loops_under_every_profile():
    # one graph per isomorphism class, named by its least sorted edge list
    # over the six node permutations: 720 classes of the 4096 graphs
    slots = [(u, label, v) for u, v in permutations(range(3), 2) for label in sorted(DYCK_LABELS)]
    classes = set()
    for mask in range(1 << len(slots)):
        edges = [e for i, e in enumerate(slots) if mask >> i & 1]
        classes.add(min(
            tuple(sorted((p[u], label, p[v]) for u, label, v in edges))
            for p in permutations(range(3))
        ))
    assert len(classes) == 720
    for edges in sorted(classes):
        _check_d1_to_program(LabeledDigraph(3, DYCK_LABELS, set(edges)))
