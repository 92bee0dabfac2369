"""The one-scan program parser against the line-by-line reference parser
(`helpers.reference_parse_program`) on texts built from statement
fragments, separators, comments and every `str.splitlines` line end."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from palab.model import ParseError, Program
from palab.textio import parse_program

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

