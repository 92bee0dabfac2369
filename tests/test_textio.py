import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palab.andersen import solve
from palab.cfl import builtin_grammar
from palab.crosscheck import (
    rand_dyck_graph,
    rand_matrix,
    rand_program,
    worked_dyck_graph,
    worked_program,
)
from palab.model import (
    Grammar,
    GrammarError,
    InvalidParamsError,
    LabeledDigraph,
    ParseError,
    ReductionMap,
    Variable,
)
from palab.reductions import bmm_to_d1, d1_to_program
from palab.textio import (
    parse_graph,
    parse_grammar,
    parse_matrix,
    parse_program,
    serialize_graph,
    serialize_map,
    serialize_matrix,
    serialize_program,
    serialize_solution,
)

import helpers
from helpers import serialize_grammar


# ---------------------------------------------------------------------------
# programs

def test_parse_program_forms_and_sugar():
    prog = parse_program("a=&b; b = &d\nc   =  *a  # trailing comment\n\n*a = c;")
    assert [str(s) for s in prog.statements] == ["a = &b", "b = &d", "c = *a", "*a = c"]


def test_parse_program_worked_example():
    assert parse_program(helpers.EXAMPLE_PROGRAM_TEXT) == worked_program()


def test_parse_program_empty():
    assert parse_program("").statements == ()
    assert parse_program("# nothing\n\n").statements == ()


@pytest.mark.parametrize(
    "bad", ["*a = &b", "**a = b", "a = **b", "a == b", "a = &", "&a = b", "a b"]
)
def test_parse_program_rejects_unnormalized_forms(bad):
    with pytest.raises(ParseError):
        parse_program(bad)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_program("a = &b\n\n*x = &y\n")
    assert err.value.line == 3


def test_program_round_trip_seeded():
    for seed in range(30):
        prog = rand_program(8, 14, seed)
        assert parse_program(serialize_program(prog)) == prog


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_program_round_trip_any_seed(seed):
    prog = rand_program(10, 18, seed)
    text = serialize_program(prog)
    assert parse_program(text) == prog
    assert serialize_program(parse_program(text)) == text


def test_primed_names_round_trip():
    text = "v = &v'\n"
    assert serialize_program(parse_program(text)) == text


# ---------------------------------------------------------------------------
# graphs

def test_graph_round_trips():
    for graph in (
        worked_dyck_graph(),
        rand_dyck_graph(6, 8, seed=3),
        rand_dyck_graph(0, 0, seed=3),
    ):
        text = serialize_graph(graph)
        assert parse_graph(text) == graph
        assert serialize_graph(parse_graph(text)) == text


def test_graph_named_tokens_auto_assign_dense_ids():
    g = parse_graph("nodes 3\nw e x\nx e y\n")
    assert g.node_names == ("w", "x", "y")
    assert g.edges == frozenset({(0, "e", 1), (1, "e", 2)})


def test_graph_errors():
    with pytest.raises(ParseError):
        parse_graph("")
    with pytest.raises(ParseError):
        parse_graph("nodes 2\n0 e 5\n")
    with pytest.raises(ParseError):
        parse_graph("edges 2\n")
    with pytest.raises(ParseError):
        parse_graph("nodes 2\nalphabet x\n0 y 1\n")
    with pytest.raises(ParseError):
        parse_graph("nodes 1\nname 0 a\nname 0 b\n")


def test_serialize_graph_rejects_symbols_lg_cannot_carry():
    # not one `.lg` token: the text would drop a `#` tail or fail to parse
    for label, names in [
        ("e", ("a#", "b")),
        ("e", ("a b", "b")),
        ("e f", None),
        ("e#", None),
        ("", None),
    ]:
        graph = LabeledDigraph(2, {label}, {(0, label, 1)}, names)
        bad = label if names is None else names[0]
        with pytest.raises(InvalidParamsError, match=re.escape(repr(bad))):
            serialize_graph(graph)


def test_serialize_graph_names_the_first_bad_symbol():
    """Labels in sorted order, then names in node order: the error names
    the first symbol that is not one token, however many are bad."""
    for labels, names, first in [
        ({"b c", "a#", "ok"}, ("x y", ""), "a#"),
        ({"z z", "a"}, ("", "m n"), "z z"),
        ({"a", "b"}, ("ok", "p\tq", "", "r#"), "p\tq"),
        ({"a"}, ("ok", "x", "\x1c"), "\x1c"),
        ({"", "e"}, None, ""),
    ]:
        count = 3 if names is None else len(names)
        graph = LabeledDigraph(count, labels, (), names)
        with pytest.raises(InvalidParamsError, match=re.escape(repr(first))):
            serialize_graph(graph)


SYMBOLS = st.text(alphabet="ab# \t\x1c\xa0 ", max_size=3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.frozensets(SYMBOLS, max_size=4), st.lists(SYMBOLS, min_size=1, max_size=4, unique=True))
def test_serialize_graph_scan_agrees_with_per_symbol_check(labels, names):
    graph = LabeledDigraph(len(names), labels, (), names)
    bad = [sym for sym in (*sorted(labels), *names) if "#" in sym or sym.split() != [sym]]
    if bad:
        with pytest.raises(InvalidParamsError, match=re.escape(repr(bad[0]))):
            serialize_graph(graph)
    else:
        assert parse_graph(serialize_graph(graph)) == graph


def test_graph_duplicate_edges_collapse():
    g = parse_graph("nodes 2\n0 e 1\n0 e 1\n")
    assert len(g.edges) == 1


def test_empty_graph():
    assert parse_graph("nodes 0\n").node_count == 0


# ---------------------------------------------------------------------------
# matrices

def test_matrix_round_trips():
    for m in (rand_matrix(4, 0.5, seed=1), rand_matrix(1, 0.0, seed=1)):
        text = serialize_matrix(m)
        assert parse_matrix(text) == m
        assert serialize_matrix(parse_matrix(text)) == text


def test_matrix_worked_instance():
    m = parse_matrix("4\n0100\n0000\n0000\n0000\n")
    assert m.bits[0] == (0, 1, 0, 0) and m.nnz() == 1


def test_matrix_errors():
    with pytest.raises(ParseError):
        parse_matrix("2\n01\n0\n")
    with pytest.raises(ParseError):
        parse_matrix("2\n01\n0x\n")
    with pytest.raises(ParseError):
        parse_matrix("2\n01\n")
    with pytest.raises(ParseError):
        parse_matrix("x\n")
    with pytest.raises(ParseError, match="^line 1: matrix must be non-empty$"):
        parse_matrix("0\n")


# ---------------------------------------------------------------------------
# grammars

@pytest.mark.parametrize("name", ["d1", "dyck:3", "pt", "pt_prime"])
def test_grammar_round_trips(name):
    g = builtin_grammar(name)
    text = serialize_grammar(g)
    assert parse_grammar(text) == g
    assert serialize_grammar(parse_grammar(text)) == text


def test_grammar_eps_and_errors():
    g = parse_grammar("start S\nterminals a\nS -> a S\nS -> eps\n")
    assert ("S", ()) in g.productions
    with pytest.raises(ParseError):
        parse_grammar("terminals a\nS -> a\n")  # missing start
    from palab.model import GrammarError

    with pytest.raises(GrammarError):
        parse_grammar("start S\nterminals a\nS -> b\n")  # undeclared symbol


def test_grammar_text_round_trips_or_is_rejected():
    # nonterminals named like the keyword lines stay productions
    named_start = Grammar({"a"}, {"start"}, [("start", ("a",))], "start")
    named_terminals = Grammar(
        {"a"}, {"S", "terminals"}, [("S", ("terminals",)), ("terminals", ("a",))], "S"
    )
    for g in (named_start, named_terminals):
        assert parse_grammar(serialize_grammar(g)) == g
    for sym in ("eps", "#x", "->", "", "a b"):  # not one `.cfg` token
        with pytest.raises(GrammarError):
            serialize_grammar(Grammar({sym}, {"S"}, [("S", (sym,))], "S"))


def test_grammar_second_start_line_is_rejected():
    with pytest.raises(ParseError, match="line 2: second `start` line"):
        parse_grammar("start S\nstart T\nterminals a\nS -> a\nT -> a\n")


# ---------------------------------------------------------------------------
# solutions and maps

def test_solution_text_worked_example():
    text = serialize_solution(solve(worked_program()))
    assert text == "pt(a) = { b }\npt(b) = { d }\npt(c) = { d }\npt(d) = { }\n"


def test_solution_text_empty():
    from palab.model import Program

    assert serialize_solution(solve(Program([]))) == ""


def test_solution_text_reduced_walkthrough_line():
    sol = solve(parse_program(helpers.REDUCED_PROGRAM_TEXT))
    lines = serialize_solution(sol).splitlines()
    assert "pt(u0) = { u0', w2', w3' }" in lines


def test_map_serialization_is_tsv():
    inst = bmm_to_d1(rand_matrix(2, 1.0, seed=1), rand_matrix(2, 1.0, seed=2))
    text = serialize_map(inst.map)
    lines = text.splitlines()
    assert "meta\tn\t2" in lines
    assert "0\tx\t0" in lines and "1\tz\t5" in lines
    program, rmap = d1_to_program(inst.graph)
    text = serialize_map(rmap)
    assert "0\tquery_var\tx0" in text
    assert "0\taddr_var\tx0'" in text


@pytest.mark.parametrize("lines", [["0 y 1", "alphabet x"], ["alphabet x", "0 y 1"]])
def test_declared_alphabet_lists_every_label_in_any_line_order(lines):
    with pytest.raises(ParseError, match="label 'y' not in declared alphabet"):
        parse_graph("nodes 2\n" + "\n".join(lines) + "\n")
    for text in ("nodes 2\nalphabet a\n0 a 1\n", "nodes 2\n0 a 1\nalphabet a\n"):
        g = parse_graph(text)
        assert g.alphabet == frozenset({"a"}) and g.edges == frozenset({(0, "a", 1)})
    split = parse_graph("nodes 2\nalphabet x\n0 y 1\nalphabet y z\n")
    assert split.alphabet == frozenset({"x", "y", "z"})


def test_undeclared_label_error_names_the_first_bad_edge_line():
    with pytest.raises(ParseError, match=r"^line 4: label 'z' not in declared alphabet$"):
        parse_graph("nodes 2\nalphabet x\n0 x 1\n0 z 1\n0 y 1\n")


# ---------------------------------------------------------------------------
# module boundaries

# The palab modules that importing each module loads. The crosscheck suites
# compare two independent implementations only while neither engine imports
# the other.
LOADED = {
    "palab.textio": ["palab", "palab.model", "palab.textio"],
    "palab.andersen": ["palab", "palab.andersen", "palab.model"],
    "palab.cfl": ["palab", "palab.cfl", "palab.model", "palab.peg"],
    "palab.reductions": ["palab", "palab.model", "palab.reductions"],
    "palab.peg": ["palab", "palab.model", "palab.peg"],
}


@pytest.mark.parametrize("module", LOADED)
def test_importing_a_module_loads_only_its_dependencies(module):
    code = (
        f"import sys, {module}\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'palab'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == LOADED[module]


@pytest.mark.parametrize(
    "text, message",
    [
        ("nodes 2\nname 0\n", "line 2: expected `name <id> <name>`"),
        ("nodes 2\nname x a\n", "line 2: bad node id 'x'"),
    ],
)
def test_graph_name_line_errors(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_graph(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("start S T\nterminals a\nS -> a\n", "line 1: expected `start <symbol>`"),
        ("start S\nterminals a\nS a\n", "line 3: unrecognized grammar line: 'S a'"),
    ],
)
def test_grammar_line_errors(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_grammar(text)
