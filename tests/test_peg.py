import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palab.crosscheck import rand_program, worked_program
from palab.model import LabeledDigraph, Program
from palab.peg import (
    ExprForm,
    PEG,
    PEG_ALPHABET,
    build_peg,
    inverse_label,
)
from palab.textio import parse_program

import helpers
from helpers import MalformedPegError, peg_statements


def edge_names(peg):
    return {
        (peg.graph.name_of(s), l, peg.graph.name_of(d)) for s, l, d in peg.graph.edges
    }


def test_single_address_of_statement():
    peg = build_peg(parse_program("a = &b"))
    assert peg.graph.node_count == 6
    assert edge_names(peg) == {
        ("a", "r", "&b"), ("&b", "-r", "a"),
        ("&a", "d", "a"), ("a", "-d", "&a"),
        ("a", "d", "*a"), ("*a", "-d", "a"),
        ("&b", "d", "b"), ("b", "-d", "&b"),
        ("b", "d", "*b"), ("*b", "-d", "b"),
    }


def test_empty_program_gives_empty_graph():
    peg = build_peg(Program([]))
    assert peg.graph.node_count == 0 and not peg.graph.edges


def test_worked_example_counts():
    peg = build_peg(worked_program())
    assert peg.graph.node_count == 12
    assert len(peg.graph.edges) == 22


def test_bidirected_everywhere_and_exact_size():
    for trial in range(40):
        prog = rand_program(8, 16, seed=300 + trial)
        peg = build_peg(prog)
        for src, label, dst in peg.graph.edges:
            assert (dst, inverse_label(label), src) in peg.graph.edges
        assert peg.graph.node_count == 3 * len(prog.variables)
        assert len(peg.graph.edges) == 2 * len(frozenset(prog.statements)) + 4 * len(prog.variables)


def test_repeated_statements_give_the_same_peg():
    for trial in range(20):
        prog = rand_program(8, 16, seed=500 + trial)
        repeated = Program(prog.statements + prog.statements[::-1])
        assert build_peg(repeated) == build_peg(prog)


def test_dereference_edges_for_every_variable():
    prog = parse_program("a = &b")
    peg = build_peg(prog)
    for v in prog.variables:
        assert (peg.node(v, ExprForm.ADDR), "d", peg.node(v, ExprForm.VAR)) in peg.graph.edges
        assert (peg.node(v, ExprForm.VAR), "d", peg.node(v, ExprForm.DEREF)) in peg.graph.edges


def test_node_layout_is_three_nodes_per_variable():
    for trial in range(40):
        peg = build_peg(rand_program(8, 16, seed=900 + trial))
        assert peg.graph.node_count == 3 * len(peg.variables)
        for n in range(peg.graph.node_count):
            var = peg.variables[n // 3]
            assert peg.node(var, ExprForm(n % 3)) == n
            assert peg.graph.name_of(n) == ("&", "", "*")[n % 3] + var.name


def test_round_trip_statements():
    for trial in range(40):
        prog = rand_program(8, 16, seed=800 + trial)
        assert frozenset(peg_statements(build_peg(prog)).statements) == frozenset(prog.statements)


def test_round_trip_reduced_walkthrough():
    prog = parse_program(helpers.REDUCED_PROGRAM_TEXT)
    assert frozenset(peg_statements(build_peg(prog)).statements) == frozenset(prog.statements)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_any_seed(seed):
    prog = rand_program(10, 20, seed)
    assert frozenset(peg_statements(build_peg(prog)).statements) == frozenset(prog.statements)


def test_malformed_peg_is_rejected():
    peg = build_peg(parse_program("a = &b"))
    # an s-edge into an address node has no statement reading
    bad_edges = set(peg.graph.edges) | {(1, "s", 0), (0, "-s", 1)}
    bad = PEG(
        LabeledDigraph(peg.graph.node_count, PEG_ALPHABET, bad_edges, peg.graph.node_names),
        peg.variables,
    )
    with pytest.raises(MalformedPegError):
        peg_statements(bad)
