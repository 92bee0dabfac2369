"""palab's own builders store their graphs, matrices and s-t instances
without the public constructors' checks. Each result must be what the
public constructor builds from the same fields, with the same field types,
and every variable a reduction names must be an identifier."""

import pytest

from palab.crosscheck import (
    rand_dyck_graph,
    rand_matrix,
    rand_program,
    rand_simple_graph,
    worked_matrices,
    worked_program,
    worked_triangle_graph,
)
from palab.model import (
    DYCK_LABELS,
    LabeledDigraph,
    Program,
    Statement,
    StatementKind,
    StatementProfile,
    Variable,
    is_identifier,
)
from palab.peg import build_peg
from palab.reductions import bmm_to_d1, d1_to_program, triangle_to_st_d1
from palab.textio import parse_matrix, serialize_matrix

import helpers


def test_build_peg_graph_is_built_as_public():
    for program in [worked_program(), Program([]), *(rand_program(12, 30, k) for k in range(20))]:
        helpers.assert_built_as_public(build_peg(program).graph)


def test_bmm_to_d1_graph_is_built_as_public():
    helpers.assert_built_as_public(bmm_to_d1(*worked_matrices()).graph)
    for k in range(20):
        n = 1 + k % 6
        a, b = rand_matrix(n, 0.4, k), rand_matrix(n, 0.4, k + 100)
        helpers.assert_built_as_public(bmm_to_d1(a, b).graph)


# named and unnamed inputs, and names that force the n<u>_<j> fallback: "t"
# would give layer copies t0..t3, which hop nodes use; "-" would give "-0"
FALLBACK_NAMES = [("t", "x", "y", "z"), ("-", "x", "y", "z")]


@pytest.mark.parametrize("directed", [False, True])
def test_triangle_to_st_d1_is_built_as_public(directed):
    graphs = [worked_triangle_graph(), LabeledDigraph(0, {"e"}, ())]
    graphs += [rand_simple_graph(1 + k % 7, 0.5, k, directed) for k in range(20)]
    for graph in graphs:
        inst = triangle_to_st_d1(graph, directed)
        helpers.assert_built_as_public(inst)
    for names in FALLBACK_NAMES:
        graph = worked_triangle_graph()
        inst = triangle_to_st_d1(LabeledDigraph(4, graph.alphabet, graph.edges, names), directed)
        assert inst.graph.node_names[:4] == ("n0_0", "n0_1", "n0_2", "n0_3")
        helpers.assert_built_as_public(inst)


def test_parse_matrix_is_built_as_public():
    texts = ["1\n0\n", "1\n1\n", "3\n101\n010\n111\n", "2 # size\n01\n\n10 # row\n"]
    texts += [serialize_matrix(rand_matrix(1 + k % 5, 0.5, k)) for k in range(20)]
    for text in texts:
        helpers.assert_built_as_public(parse_matrix(text))


def test_generators_are_built_as_public():
    for k in range(20):
        helpers.assert_built_as_public(rand_matrix(1 + k % 6, 0.5, k))
        helpers.assert_built_as_public(rand_dyck_graph(k % 7, k % 7 * 2, k))
        for directed in (False, True):
            helpers.assert_built_as_public(rand_simple_graph(k % 7, 0.5, k, directed))


# named graphs whose names are not identifiers, read as temps, carry primes
# or clash once primed, beside an unnamed one
NAMED = [
    None,
    ("a", "b", "c", "d"),
    ("a b", "t3", "c'", "d"),
    ("x", "x'", "y", "z"),
    ("-", "é", "_u", "v''"),
]


@pytest.mark.parametrize("profile", list(StatementProfile))
def test_d1_to_program_names_only_identifiers(profile):
    for names in NAMED:
        for seed in range(6):
            graph = rand_dyck_graph(4, 2 + seed, seed)
            graph = LabeledDigraph(4, DYCK_LABELS, graph.edges, names)
            for prune in (False, True):
                program, rmap = d1_to_program(graph, profile, prune)
                for var in program.variables:
                    assert type(var) is Variable and is_identifier(var.name), var
                for st in program.statements:
                    assert type(st) is Statement and type(st.kind) is StatementKind
                    assert st == Statement(st.kind, Variable(st.lhs.name), Variable(st.rhs.name))
                for qvar, avar in rmap.forward.values():
                    assert is_identifier(qvar.name) and is_identifier(avar.name)
