"""The one-scan program parser against the line-by-line reference parser
(`helpers.reference_parse_program`) on texts built from statement
fragments, separators, comments and every `str.splitlines` line end; and
the `.lg` graph parser against its reference (`helpers.reference_parse_graph`)
on texts built from graph lines and on mutated graph texts."""

import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from palab.model import AnalysisError, LabeledDigraph, ParseError, Program
from palab.textio import parse_graph, parse_program, serialize_graph

import helpers

STATEMENTS = ["a = &b", "b=&a", "*p = q", "c = *a", "x' = y''", "_v1=  *  _v1", "* a=b"]
PIECES = [
    "a", "b", "p", "x'", "_v1", "1a", "é", "=", "==", "&", "*", "**", "'",
    ";", ";;", "#", "# note", "\t", " ",
]
# line ends `str.splitlines` knows, and whitespace that is not a line end
SEPARATORS = [
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", " ",
    "\x1f", "　", "\xa0",
]
# weighted toward whole statements and separators, so that many texts parse
TOKENS = STATEMENTS * 3 + SEPARATORS * 2 + ["; ", " # c\n"] * 3 + PIECES
texts = st.lists(st.sampled_from(TOKENS), max_size=30).map("".join)


def _outcome(parse, text):
    try:
        program = parse(text)
    except ParseError as err:
        return "error", str(err), err.line
    return "ok", program, program.variables


@settings(max_examples=400, deadline=None, derandomize=True)
@given(texts)
@example("a=&b; b = &d\r\nc   =  *a  # trailing comment\r\n\r\n*a = c;")
@example("a = b\x0b\x0bc = d\x85*e = f\u2028g = &h\n")
@example("a = b\n\n  *x = &y  \n")
@example("a = b\xa0;\u3000c = *d\x1f")
@example("a = &b\nc = a\n*c = b\nd = *c\n")  # the four kinds on canonical lines
@example("x' = &y''\ny'' = x'\n*x' = y''\nx'' = *x'")  # primed names
def test_one_scan_parser_matches_reference(text):
    got = _outcome(parse_program, text)
    assert got == _outcome(helpers.reference_parse_program, text)
    if got[0] == "ok":
        assert got[2] == Program(got[1].statements).variables


# digit tokens past sys.maxsize's 19 digits, and past the 4300 digits that
# `int()` reads; the reference reads them with the digit limit lifted
LONG = ["1" * 20, "1" * 5000, "0" * 5000 + "2"]
GOOD_LINES = [
    "alphabet a b", "alphabet c", "alphabet a # declared", "name 0 x", "name 1 y", "name 2 z",
    "name 01 w", "0 a 1", "1 b 2", "2 a 2", "x a y", "y c 0", "z b x", "-0 a 1", "0 a 1 # note",
    "# comment", "   ", f"{LONG[2]} c 1",
]
BAD_LINES = [
    "nodes 3", "nodes", "alphabet", "name 3 v", "name 2 7", "name 2 -0", "name 1 ²", "name x y",
    "name 1", "name -1 u", "1 ² 2", "² a 0", "0 a", "0 a 1 2", "3 a 0", "-1 a 0",
    *(f"name {n} q" for n in LONG), *(f"0 a {n}" for n in LONG), *(f"-{n} b 1" for n in LONG),
]
HEADERS = [
    "nodes 3", "nodes 4", "nodes 03", f"nodes {LONG[2]}", "", "nodes 0", "nodes 3 4", "node 3",
    "nodes -1", "nodes ٣", "nodes 1_0", *(f"nodes {n}" for n in LONG[:2]),
]
# mostly plain newlines, so that many texts parse
LINE_ENDS = ["\n"] * 12 + SEPARATORS
graph_texts = st.lists(
    st.tuples(st.sampled_from(GOOD_LINES * 4 + BAD_LINES), st.sampled_from(LINE_ENDS)), max_size=12
).map(lambda pairs: "".join(line + sep for line, sep in pairs))


def _graph_outcome(parse, text):
    """A parsed graph with its field types (the reference builds through the
    public constructor), or the error."""
    try:
        graph = parse(text)
    except AnalysisError as err:
        return "error", type(err).__name__, str(err), getattr(err, "line", None)
    return "ok", graph, helpers.type_shape(graph)


def _reference_graph_outcome(text):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _graph_outcome(helpers.reference_parse_graph, text)
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(HEADERS[:4] * 4 + HEADERS[4:]).map(lambda h: h + "\n"), graph_texts)
@example("nodes 3\n", "alphabet a\r\nname 0 x\x85alphabet b\u2028x a 1\n1 b 2\r")
@example("nodes 3\n", "name 0 x\nname 1 y\nname 2 z\nx a y\nalphabet a b\n")
@example("nodes 3\n", "0 a 1\nalphabet b\n2 c 0\n")  # the first undeclared label
@example("nodes 2\n", "0 a " + "1" * 5000 + "\n")
@example("nodes " + "1" * 5000 + "\n", "")
def test_graph_parser_matches_reference(header, body):
    text = header + body
    got = _graph_outcome(parse_graph, text)
    assert got == _reference_graph_outcome(text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.lists(st.tuples(
        st.integers(0, 400), st.integers(0, 3),
        st.sampled_from(GOOD_LINES + BAD_LINES + HEADERS + SEPARATORS),
    )),
)
def test_mutated_graph_texts_parse_as_the_reference_does(seed, edits):
    """A serialized graph, named or not, with spans cut out and graph lines
    or separators spliced in."""
    graph = helpers.rand_labeled_graph(["a", "b", "c"], 1 + seed % 6, seed % 9, seed)
    if seed % 2:
        names = [f"n{v}" for v in range(graph.node_count)]
        graph = LabeledDigraph(graph.node_count, graph.alphabet, graph.edges, names)
    text = serialize_graph(graph)
    for at, cut, piece in edits:
        at %= len(text) + 1
        text = text[:at] + piece + text[at + cut:]
    got = _graph_outcome(parse_graph, text)
    assert got == _reference_graph_outcome(text)
    if not edits:
        assert got[:2] == ("ok", graph)
