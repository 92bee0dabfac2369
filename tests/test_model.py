import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palab.model import (
    BadEdgeLabelError,
    BooleanMatrix,
    DimensionMismatchError,
    InvalidNodeError,
    InvalidParamsError,
    GrammarError,
    Grammar,
    LabeledDigraph,
    ParseError,
    Program,
    Statement,
    StatementKind,
    StatementProfile,
    Variable,
    _ones,
    _select,
    to_int,
)
from palab.andersen import solve
from palab.textio import parse_program, serialize_program

import helpers


def test_variable_interning_by_value():
    assert Variable("a") == Variable("a")
    assert Variable("v'") == Variable("v'")
    assert Variable("a") != Variable("a'")
    assert len({Variable("x"), Variable("x"), Variable("y")}) == 2


def test_variable_is_a_value_ordered_by_name():
    assert hash(Variable("a")) == hash(Variable("a"))
    assert hash(Variable("v'")) == hash(Variable("v'"))
    names = ["b", "a'", "a"]
    assert [v.name for v in sorted(map(Variable, names))] == ["a", "a'", "b"]
    assert Variable("a") < Variable("a'") < Variable("b")
    assert repr(Variable("a")) == "Variable(name='a')"
    assert Variable(name="a") == Variable("a") and str(Variable(name="a")) == "a"
    for v in (Variable("x"), Variable("x''")):
        back = pickle.loads(pickle.dumps(v))
        assert type(back) is Variable and back == v and hash(back) == hash(v)


def test_parsed_variables_are_interned_variables():
    # two canonical lines (the one-scan path) and a `;` line (the chunk path)
    prog = parse_program("a = &b\nb' = *a\n*a = b'; c = b\n")
    assert [v.name for v in prog.variables] == ["a", "b", "b'", "c"]
    for v in prog.variables:
        assert type(v) is Variable and v == Variable(v.name)
        assert hash(v) == hash(Variable(v.name))
    assert all(type(st) is Statement for st in prog.statements)
    one_per_name = {v.name: v for v in prog.variables}
    for st in prog.statements:
        assert st.lhs is one_per_name[st.lhs.name] and st.rhs is one_per_name[st.rhs.name]


@pytest.mark.parametrize("bad", ["", "1a", "a-b", "a'b", "*a", "&a"])
def test_variable_rejects_non_identifiers(bad):
    with pytest.raises(ParseError):
        Variable(bad)
    with pytest.raises(ParseError):
        Variable("a")._replace(name=bad)
    with pytest.raises(ParseError):
        Variable._make([bad])


def test_variable_make_and_replace_give_variables():
    b = Variable("a")._replace(name="b'")
    assert type(b) is Variable and b == Variable("b'")
    assert type(Variable._make(["c"])) is Variable
    # the documented tuple semantics: a Variable equals the plain tuple of its name
    assert Variable("a") == ("a",) and hash(Variable("a")) == hash(("a",))


def _boundary_row(count, length):
    """A row of `count` set bits whose highest is bit `length - 1`."""
    return 1 << (length - 1) | (1 << (count - 1)) - 1


# rows with 8 * count == length, and one bit either side: `_select`'s crossover
BOUNDARY_ROWS = [
    _boundary_row(count, 8 * count + d) for count in (4, 8, 32) for d in (-1, 0, 1)
]


@pytest.mark.parametrize(
    "bits",
    [0, 1, 0b1011, 1 << 70, (1 << 130) - 1, 0x5A5A << 40, 1 << 2000 | 1 << 3 | 1]
    # CPython's 30-bit digit boundaries, and a wide row with 1 bit in 8 set
    + [1 << 29, 1 << 30, (1 << 30) - 1, 1 << 59 | 1 << 60, (1 << 90) - 1]
    + [sum(1 << v for v in range(0, 3000, 8))]
    + BOUNDARY_ROWS,
)
def test_bitset_walks_agree(bits):
    width = bits.bit_length() + 3
    expected = [v for v in range(width) if bits >> v & 1]
    assert _ones(bits) == expected
    assert list(_select(range(width), bits)) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**2048))
def test_bitset_walks_match_bit_tests(bits):
    width = bits.bit_length() + 3
    expected = [v for v in range(width) if bits >> v & 1]
    assert _ones(bits) == expected
    assert list(_select(range(width), bits)) == expected


@pytest.mark.parametrize("bits", BOUNDARY_ROWS)
def test_select_lists_rows_below_one_bit_in_eight(bits):
    # the list path runs below 1 set bit in 8, the `compress` walk from there up
    listed = isinstance(_select(range(bits.bit_length()), bits), list)
    assert listed == (8 * bits.bit_count() < bits.bit_length())


def test_statement_surface_forms():
    a, b = Variable("a"), Variable("b")
    assert str(Statement(StatementKind.ADDRESS_OF, a, b)) == "a = &b"
    assert str(Statement(StatementKind.ASSIGN, a, b)) == "a = b"
    assert str(Statement(StatementKind.ASSIGN_STAR, a, b)) == "a = *b"
    assert str(Statement(StatementKind.STAR_ASSIGN, a, b)) == "*a = b"


def test_program_variables_first_appearance_order():
    prog = parse_program("a = &b\nb = &d\nc = *a")
    assert [v.name for v in prog.variables] == ["a", "b", "d", "c"]


def test_program_round_trips_through_text():
    prog = parse_program(helpers.EXAMPLE_PROGRAM_TEXT)
    assert parse_program(serialize_program(prog)) == prog


def test_duplicate_statement_changes_no_analysis_result():
    prog = parse_program(helpers.EXAMPLE_PROGRAM_TEXT)
    doubled = Program(prog.statements + (prog.statements[0],))
    assert solve(prog) == solve(doubled)


def test_labeled_digraph_validation():
    with pytest.raises(InvalidNodeError):
        LabeledDigraph(2, {"e"}, {(0, "e", 2)})
    with pytest.raises(InvalidParamsError):
        LabeledDigraph(2, {"e"}, set(), ("a",))
    with pytest.raises(InvalidParamsError):
        LabeledDigraph(2, {"e"}, set(), ("a", "a"))
    g = LabeledDigraph(2, {"e"}, {(0, "e", 1)}, ("p", "q"))
    assert g.resolve("q") == 1 and g.resolve("0") == 0
    with pytest.raises(InvalidNodeError):
        g.resolve("nope")


def test_boolean_matrix_validation():
    with pytest.raises(DimensionMismatchError):
        BooleanMatrix([[0, 1], [0]])
    with pytest.raises(InvalidParamsError):
        BooleanMatrix([[2]])
    assert helpers.identity_matrix(3).nnz() == 3
    assert helpers.zero_matrix(2).nnz() == 0


def test_grammar_validation():
    with pytest.raises(GrammarError):
        Grammar({"a"}, {"a", "S"}, [], "S")  # symbol in both
    with pytest.raises(GrammarError):
        Grammar({"a"}, {"S"}, [], "T")  # start undeclared
    with pytest.raises(GrammarError):
        Grammar({"a"}, {"S"}, [("S", ("b",))], "S")  # undeclared rhs


def test_profiles_cover_the_statement_kind_lattice():
    allowed = {p: helpers.allowed_kinds(p) for p in StatementProfile}
    assert all(StatementKind.ADDRESS_OF in kinds for kinds in allowed.values())
    assert allowed[StatementProfile.CASE1] == frozenset(StatementKind)
    assert StatementKind.ASSIGN_STAR not in allowed[StatementProfile.CASE2]
    assert StatementKind.ASSIGN not in allowed[StatementProfile.CASE3]
    assert StatementKind.STAR_ASSIGN not in allowed[StatementProfile.CASE4]
    assert allowed[StatementProfile.CASE5] == frozenset(
        {StatementKind.ADDRESS_OF, StatementKind.STAR_ASSIGN}
    )
    assert allowed[StatementProfile.CASE6] == frozenset(
        {StatementKind.ADDRESS_OF, StatementKind.ASSIGN_STAR}
    )
    assert StatementProfile.from_name("CASE3") is StatementProfile.CASE3
    with pytest.raises(InvalidParamsError):
        StatementProfile.from_name("case9")


def test_node_names_and_id_tokens_follow_one_rule():
    with pytest.raises(InvalidParamsError):
        LabeledDigraph(2, {"e"}, set(), ("a", "7"))
    with pytest.raises(InvalidParamsError):
        LabeledDigraph(1, {"e"}, set(), ("-0",))
    g = LabeledDigraph(3, {"e"}, set(), ("p", "²", "+1"))
    assert g.resolve("²") == 1 and g.resolve("+1") == 2 and g.resolve("-0") == 0
    for token in ("١", "1_0", "--1"):
        with pytest.raises(InvalidNodeError):
            LabeledDigraph(2, {"e"}, set()).resolve(token)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: LabeledDigraph(-1, {"e"}, set()), InvalidParamsError, "non-negative"),
        (lambda: LabeledDigraph(2, {"e"}, {(0, "f", 1)}), BadEdgeLabelError, "'f' not in alphabet"),
        (lambda: LabeledDigraph(2, {"e"}, set()).resolve("2"), InvalidNodeError, "node 2 out of range"),
        (lambda: BooleanMatrix([]), InvalidParamsError, "non-empty"),
        (lambda: Grammar({"a"}, {"S"}, [("a", ("a",))], "S"), GrammarError, "lhs 'a' is not a nonterminal"),
    ],
    ids=["negative-nodes", "edge-label", "resolve-range", "empty-matrix", "terminal-head"],
)
def test_values_refuse_bad_parts(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_to_int_reads_tokens_of_any_length():
    limit = len(str(sys.maxsize))
    for digits in ("9" * limit, "0" * 5000 + "9" * limit, "0" * 5000):
        for sign in ("", "-"):
            assert to_int(sign + digits) == int(sign + (digits.lstrip("0") or "0"))
    # one digit more than sys.maxsize has: out of every range, printed unconverted
    for sign in ("", "-"):
        for token in (sign + "1" + "0" * limit, sign + "000" + "7" * 5000):
            value = to_int(token)
            assert abs(value) == sys.maxsize + 1 and (value < 0) == (sign == "-")
            assert str(value) == f"{value}" == repr(value) == sign + token.lstrip("-0")
