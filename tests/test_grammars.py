import random

import pytest

from palab.cfl import builtin_grammar, dyck_grammar, follow_sets, normalize
from palab.model import Grammar, InvalidParamsError
from palab.peg import PEG_ALPHABET

import helpers
from helpers import derives


def test_dyck1_grammar_shape():
    g = builtin_grammar("d1")
    assert g.terminals == frozenset({"[1", "]1"})
    assert g.start == "D1"
    assert len(g.productions) == 4


def test_dyck_k_generalizes_and_k1_matches():
    assert dyck_grammar(1) == builtin_grammar("d1")
    g3 = builtin_grammar("dyck:3")
    assert g3.terminals == frozenset({"[1", "]1", "[2", "]2", "[3", "]3"})
    assert derives(g3, g3.start, ("[2", "[3", "]3", "]2"))
    assert not derives(g3, g3.start, ("[2", "]3"))
    with pytest.raises(InvalidParamsError):
        dyck_grammar(0)
    with pytest.raises(InvalidParamsError):
        builtin_grammar("dyck:x")
    with pytest.raises(InvalidParamsError):
        builtin_grammar("mystery")


def test_points_to_grammar_shape():
    g = builtin_grammar("pt")
    assert g.terminals == PEG_ALPHABET
    assert g.nonterminals == frozenset({"Pt", "S", "-S"})
    assert len(g.productions) == 12
    assert g.start == "Pt"


def test_points_to_prime_grammar_shape():
    g = builtin_grammar("pt_prime")
    assert g.start == "Pt'"
    assert len(g.productions) == 7
    assert builtin_grammar("pt-prime") == g


def test_points_to_language_samples():
    g = builtin_grammar("pt")
    # a dereference gadget walk that lands on an address node
    assert derives(g, "Pt", ("as", "-d", "s", "r", "d", "r"))
    # subset constraint built from one open and one close bracket chain
    assert derives(g, "S", ("-d", "-r", "-sa", "-d", "r", "d", "d", "sa"))
    # reversed walk between two close-bracket targets is in neither language
    assert not derives(g, "S", ("-sa", "-d", "-d", "-r", "r", "d", "d", "sa"))
    assert not derives(g, "Pt", ("-sa", "-d", "-d", "-r", "r", "d", "d", "sa"))


def test_nullable_sets():
    assert normalize(builtin_grammar("d1")).nullable == frozenset({"S", "D1"})
    pt = normalize(builtin_grammar("pt"))
    assert pt.nullable == frozenset({"S", "-S"})
    assert "Pt" not in pt.nullable


def test_binarization_of_a_five_symbol_body():
    g = Grammar(
        {"as", "-d", "r", "d"},
        {"S"},
        [("S", ("as", "-d", "S", "r", "d"))],
        "S",
    )
    norm = normalize(g)
    assert len(norm.helper_map) == 3
    assert len(norm.binary_productions) == 4
    assert all(1 <= len(rhs) <= 2 for _, rhs in norm.binary_productions)
    origins = set(norm.helper_map.values())
    assert origins == {("S", ("as", "-d", "S", "r", "d"))}
    terminal_pairs = {
        rhs for lhs, rhs in norm.binary_productions
        if lhs in norm.helper_map and set(rhs) <= g.terminals
    }
    assert terminal_pairs == {("as", "-d"), ("r", "d")}


def test_dyck_binarization_has_no_terminal_run_to_fold():
    assert normalize(dyck_grammar(1)).binary_productions == (
        ("D1", ("S",)), ("S", ("[1", "@1")), ("@1", ("S", "]1")),
        ("S", ("S", "S")), ("@1", ("]1",)),
    )


def test_table_of_follow_sets_for_points_to_terminals():
    fs = follow_sets(builtin_grammar("pt"))
    assert fs["d"] == frozenset({"sa", "-as", "r", "d", "as", "-d", "s", "-sa", "-s"})
    assert fs["-d"] == frozenset({"as", "-d", "s", "r", "-r"})
    assert fs["r"] == frozenset({"d"})
    assert fs["-r"] == frozenset({"-d", "d", "-sa", "-s"})
    assert fs["as"] == frozenset({"-d"})
    assert fs["-as"] == frozenset({"-d", "d", "-sa", "-s"})
    assert fs["sa"] == frozenset({"r", "as", "-d", "s"})
    assert fs["-sa"] == frozenset({"-d"})
    assert fs["s"] == frozenset({"r", "as", "-d", "s"})
    assert fs["-s"] == frozenset({"-d", "d", "-sa", "-s"})


def test_follow_sets_on_a_toy_grammar():
    g = Grammar({"x", "y"}, {"S", "A"}, [("S", ("x", "A", "y")), ("A", ())], "S")
    fs = follow_sets(g)
    assert fs["x"] == frozenset({"y"})  # through the nullable middle
    assert fs["y"] == frozenset()


def _rand_grammar(seed: int, helper_names: bool = False) -> Grammar:
    """A small random grammar; about a third of the bodies are empty. With
    `helper_names` its symbols are `@1`..`@4`, the names that `normalize`
    would otherwise give its first helpers."""
    rng = random.Random(seed)
    if helper_names:
        names = ["@1", "@2", "@3", "@4"]
        rng.shuffle(names)
        cut = rng.randint(1, 3)
        terminals, nonterminals = names[:cut], names[cut:]
    else:
        terminals = ["a", "b", "c"][: rng.randint(1, 3)]
        nonterminals = ["S", "A", "B", "C"][: rng.randint(1, 4)]
    symbols = terminals + nonterminals
    productions = [
        (rng.choice(nonterminals), tuple(rng.choice(symbols) for _ in range(rng.choice([0, 0, 1, 2, 3, 4]))))
        for _ in range(rng.randint(1, 8))
    ]
    return Grammar(terminals, nonterminals, productions, nonterminals[0])


def test_follow_sets_match_the_two_pass_reference():
    for name in ("d1", "dyck:3", "pt", "pt_prime"):
        g = builtin_grammar(name)
        assert follow_sets(g) == helpers.reference_follow_sets(g), name
    for helper_names in (False, True):
        nullable_tails = with_helpers = 0
        for seed in range(1000):
            g = _rand_grammar(seed, helper_names)
            assert follow_sets(g) == helpers.reference_follow_sets(g), (seed, helper_names)
            norm = normalize(g)
            nullable_tails += any(rhs and rhs[-1] in norm.nullable for _, rhs in g.productions)
            with_helpers += bool(norm.helper_map)
        assert nullable_tails > 100  # the draws exercise Follow through nullable tails
        assert with_helpers > 100  # and through the rules of helpers
