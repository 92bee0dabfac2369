"""The reductions against their per-edge references
(`helpers.reference_d1_to_program`, `helpers.reference_triangle_to_st_d1`),
which take a fresh temp or hop node for every edge where the reductions
share one among a source's edges: the answers must be equal, and the sizes
linear in the node count."""

import random

import pytest

from palab.andersen import solve
from palab.cfl import all_pairs, builtin_grammar, st_query
from palab.crosscheck import bmm_to_d1, rand_dyck_graph, rand_simple_graph, triangle_oracle
from palab.model import DYCK_LABELS, BooleanMatrix, LabeledDigraph, StatementProfile
from palab.reductions import d1_to_program, triangle_to_st_d1

import helpers

D1 = builtin_grammar("d1")


def _readback(graph, reduce, profile):
    """Every q(u) -> a(v) answer of the reduced program, as a set of pairs."""
    program, rmap = reduce(graph, profile)
    solution = solve(program)
    nodes = range(graph.node_count)
    return {
        (u, v) for u in nodes for v in nodes
        if solution.query(rmap.forward[u][0], rmap.forward[v][1])
    }


def _fanned_dyck_graph(seed: int) -> LabeledDigraph:
    """A random Dyck-1 graph plus one node with a self loop and two more
    out-edges under each label, so that some temps are shared."""
    rng = random.Random(seed)
    n = 2 + rng.randrange(6)
    graph = rand_dyck_graph(n, rng.randrange(2 * n + 1), rng.randrange(1 << 32))
    u = rng.randrange(n)
    fan = {(u, label, v) for label in sorted(DYCK_LABELS) for v in rng.sample(range(n), 2)}
    return LabeledDigraph(n, DYCK_LABELS, graph.edges | fan | {(u, "[1", u), (u, "]1", u)})


@pytest.mark.parametrize("profile", list(StatementProfile))
def test_d1_to_program_answers_equal_the_per_edge_reference(profile):
    for seed in range(40):
        graph = _fanned_dyck_graph(seed)
        if helpers.edges_via_star_assign(profile):  # the fan shares temps
            ours = d1_to_program(graph, profile)[0].variables
            assert len(ours) < len(helpers.reference_d1_to_program(graph, profile)[0].variables)
        expected = _readback(graph, helpers.reference_d1_to_program, profile)
        assert _readback(graph, d1_to_program, profile) == expected, (profile, seed)
        assert expected == helpers.reference_saturation(graph, D1)["D1"], (profile, seed)


@pytest.mark.parametrize("directed", [False, True])
def test_triangle_to_st_d1_answers_equal_the_per_edge_reference(directed):
    """Equal s-t answers, and equal D1 rows between the nodes both graphs
    share: s, t and the layer copies keep their ids."""
    rng = random.Random(5)
    for trial in range(60):
        n = 3 + trial % 7
        graph = rand_simple_graph(n, rng.choice((0.2, 0.4, 0.7)), rng.randrange(1 << 32), directed)
        ours = triangle_to_st_d1(graph, directed)
        theirs = helpers.reference_triangle_to_st_d1(graph, directed)
        assert (ours.s, ours.t, ours.map) == (theirs.s, theirs.t, theirs.map)
        found = triangle_oracle(graph, directed)
        assert st_query(ours.graph, D1, ours.s, ours.t) == found, trial
        assert st_query(theirs.graph, D1, theirs.s, theirs.t) == found, trial
        shared = 4 * n + 2
        mask = (1 << shared) - 1
        our_rows = all_pairs(ours.graph, D1).rows("D1")[:shared]
        their_rows = all_pairs(theirs.graph, D1).rows("D1")[:shared]
        assert [row & mask for row in our_rows] == [row & mask for row in their_rows], trial


@pytest.mark.parametrize("n", [3, 10, 40])
def test_complete_graphs_give_7n_plus_2_nodes(n):
    for directed in (False, True):
        graph = rand_simple_graph(n, 1.0, 0, directed)
        m = len(graph.edges)
        inst = triangle_to_st_d1(graph, directed)
        assert inst.graph.node_count == 7 * n + 2
        assert len(inst.graph.edges) == 5 * n + (3 if directed else 6) * m


# variables per matrix dimension n of an all-ones product: 3n nodes of
# 2 + (node temps) variables, and one temp per source and label on the
# store-edge profiles (the x and y layers)
ALL_ONES_VARIABLES = {"case1": 17, "case2": 11, "case3": 14, "case4": 9, "case5": 8, "case6": 6}


@pytest.mark.parametrize("n", [4, 16, 64])
def test_all_ones_products_give_linear_variable_counts(n):
    ones = BooleanMatrix([[1] * n for _ in range(n)])
    graph = bmm_to_d1(ones, ones).graph
    for profile in StatementProfile:
        program, _ = d1_to_program(graph, profile, prune_isolated=True)
        assert len(program.variables) == ALL_ONES_VARIABLES[profile.value] * n, profile
