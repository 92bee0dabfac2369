from types import MappingProxyType

import pytest

import palab.cfl
from palab.cfl import all_pairs, builtin_grammar, normalize, st_query
from palab.crosscheck import worked_dyck_graph, worked_program, worked_triangle_graph
from palab.model import (
    AlphabetMismatchError,
    DYCK_LABELS,
    Grammar,
    InvalidNodeError,
    InvalidParamsError,
    LabeledDigraph,
)
from palab.peg import PEG_ALPHABET, build_peg
from palab.reductions import triangle_to_st_d1

import helpers
from helpers import derives

D1 = builtin_grammar("d1")
PT = builtin_grammar("pt")


def test_worked_bracket_graph_start_pairs():
    summaries = all_pairs(worked_dyck_graph(), D1)
    non_self = {(u, v) for u, v in summaries.pairs("D1") if u != v}
    assert non_self == {(0, 10), (0, 11)}  # x0 -> z2 and x0 -> z3


def test_rows_are_the_bitsets_of_the_pairs():
    summaries = all_pairs(worked_dyck_graph(), D1)
    rows = summaries.rows("D1")
    assert {(u, v) for u, row in enumerate(rows) for v in range(row.bit_length()) if row >> v & 1} \
        == summaries.pairs("D1")
    assert summaries.rows("no such symbol") == ()


def test_every_node_reaches_itself_by_the_empty_path():
    g = worked_dyck_graph()
    summaries = all_pairs(g, D1)
    for v in range(g.node_count):
        assert summaries.holds(v, "D1", v)
        assert summaries.holds(v, "S", v)


def test_points_to_pairs_on_worked_program_graph():
    peg = build_peg(worked_program())
    summaries = all_pairs(peg.graph, PT)
    named = {
        (peg.graph.name_of(u), peg.graph.name_of(v)) for u, v in summaries.pairs("Pt")
    }
    assert named == {("a", "&b"), ("b", "&d"), ("c", "&d")}


def test_alphabet_mismatch_reports_offending_labels(monkeypatch):
    def refuse(grammar):
        raise AssertionError("normalize ran on a refused graph")

    # both entries refuse before they compile the grammar
    monkeypatch.setattr(palab.cfl, "normalize", refuse)
    g = LabeledDigraph(2, {"[1", "weird"}, {(0, "weird", 1)})
    for query in (lambda: all_pairs(g, D1), lambda: st_query(g, D1, 0, 1)):
        with pytest.raises(AlphabetMismatchError) as err:
            query()
        assert err.value.labels == ("weird",)
    # an out-of-range node is refused first
    with pytest.raises(InvalidNodeError):
        st_query(g, D1, 0, 2)


def test_st_query_basics():
    inst = triangle_to_st_d1(worked_triangle_graph())
    assert st_query(inst.graph, D1, inst.s, inst.t)
    path = LabeledDigraph(4, {"e"}, {(0, "e", 1), (1, "e", 2), (2, "e", 3)})
    pinst = triangle_to_st_d1(path)
    assert not st_query(pinst.graph, D1, pinst.s, pinst.t)
    # nullable start: every node reaches itself
    assert st_query(pinst.graph, D1, 3, 3)
    with pytest.raises(InvalidNodeError):
        st_query(pinst.graph, D1, 0, pinst.graph.node_count)


def test_saturation_matches_path_enumeration_on_dags():
    for trial in range(30):
        g = helpers.rand_acyclic_graph(sorted(DYCK_LABELS), max_nodes=6, max_edges=8, seed=trial)
        summaries = all_pairs(g, D1)
        for symbol in ("D1", "S"):
            assert summaries.pairs(symbol) == helpers.reachable_by_enumeration(
                g, D1, symbol
            ), (trial, symbol)


def test_saturation_matches_path_enumeration_with_points_to_labels():
    labels = sorted(PEG_ALPHABET)
    for trial in range(20):
        g = helpers.rand_acyclic_graph(labels, max_nodes=5, max_edges=7, seed=900 + trial)
        summaries = all_pairs(g, PT)
        for symbol in ("Pt", "S", "-S"):
            assert summaries.pairs(symbol) == helpers.reachable_by_enumeration(
                g, PT, symbol
            ), (trial, symbol)


def test_saturation_monotone_and_deterministic():
    g = worked_dyck_graph()
    base = all_pairs(g, D1)
    assert base == all_pairs(g, D1)
    bigger = LabeledDigraph(
        g.node_count, g.alphabet, set(g.edges) | {(4, "[1", 8)}, g.node_names
    )
    assert base.summaries <= all_pairs(bigger, D1).summaries


def test_all_bracket_walks_in_three_layer_graphs_have_two_edges():
    from palab.crosscheck import rand_matrix
    from palab.reductions import bmm_to_d1

    for trial in range(20):
        a = rand_matrix(5, 0.4, seed=50 + trial)
        b = rand_matrix(5, 0.4, seed=150 + trial)
        inst = bmm_to_d1(a, b)
        summaries = all_pairs(inst.graph, D1)
        n = a.n
        for u, v in summaries.pairs("D1"):
            if u == v:
                continue
            assert u < n and v >= 2 * n
            assert any(
                (u, "[1", n + k) in inst.graph.edges
                and (n + k, "]1", v) in inst.graph.edges
                for k in range(n)
            )


def test_membership_oracle_spot_checks():
    assert derives(D1, "D1", ())
    assert derives(D1, "D1", ("[1", "[1", "]1", "]1", "[1", "]1"))
    assert not derives(D1, "D1", ("[1",))
    assert not derives(D1, "D1", ("]1", "[1"))
    assert derives(D1, "[1", ("[1",))
    assert not derives(D1, "[1", ())


def test_st_query_agrees_with_all_pairs_on_every_pair():
    import random

    from palab.crosscheck import rand_dyck_graph, rand_program

    cases = []
    for seed in range(6):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        cases.append((rand_dyck_graph(n, rng.randint(0, 2 * n), seed), builtin_grammar("d1")))
        labels = ["[1", "]1", "[2", "]2"]
        edges = {(rng.randrange(n), rng.choice(labels), rng.randrange(n)) for _ in range(2 * n)}
        cases.append((LabeledDigraph(n, labels, edges), builtin_grammar("dyck:2")))
        peg = build_peg(rand_program(8, 16, seed))
        cases += [(peg.graph, PT), (peg.graph, builtin_grammar("pt_prime"))]
    for trial, (g, grammar) in enumerate(cases):
        summaries = all_pairs(g, grammar)
        assert summaries == all_pairs(g, grammar), trial
        for s in range(g.node_count):
            for t in range(g.node_count):
                assert st_query(g, grammar, s, t) == summaries.holds(s, grammar.start, t), (
                    trial, s, t,
                )


# hand-written grammars over a, b, c for the reference-saturation test
_HAND_GRAMMARS = {
    "nullable concatenation": ("X", [("X", ("X", "X")), ("X", ("a",)), ("X", ())]),
    "left recursion": ("A", [("A", ("A", "a")), ("A", ("b",)), ("A", ("A", "B")), ("B", ("b", "c"))]),
    "nullable middle": (
        "X",
        [("X", ("a", "N", "b")), ("X", ("a", "N", "N", "N")), ("X", ("c", "N", "N", "c")),
         ("N", ()), ("N", ("c",))],
    ),
    "unit cycle": ("A", [("A", ("B",)), ("B", ("A",)), ("A", ("a",)), ("B", ("b", "c", "A"))]),
    "helper-name clash": ("X", [("X", ("a", "c", "c", "b")), ("@1", ("b",))]),
    # runs of terminals at the start, middle and end of a body, the middle one
    # before the nullable N; `c a` starts N's body too, the all-terminal
    # `b c a` is chained unfolded through the span `c a`, and the run `c a b`
    # through `a b`
    "terminal runs": (
        "X",
        [("X", ("a", "b", "X", "c", "a", "N", "b", "c")), ("X", ("b", "c", "a")),
         ("X", ("N", "c", "a", "b")), ("N", ("c", "a", "N")), ("N", ()), ("N", ("b",))],
    ),
    # `X -> a X c` chained to the left, written out: the prefix P is a popping
    # left operand whose right partner c is static, and X pops as the right
    # operand of P -> a X
    "prefix operand": (
        "X",
        [("X", ("P", "c")), ("P", ("a", "X")), ("X", ("X", "X")), ("X", ("b",)), ("X", ())],
    ),
    # X is transitive and not nullable, and the popping Z reads its column
    # under W -> X Z, so a pop of X fills both in[X] and X's copy-edge list
    "transitive column": (
        "W",
        [("X", ("X", "X")), ("X", ("a",)), ("X", ("c", "X")), ("Z", ("b", "X")), ("W", ("X", "Z"))],
    ),
}


def _hand_grammar(name: str) -> Grammar:
    start, productions = _HAND_GRAMMARS[name]
    return Grammar({"a", "b", "c"}, {lhs for lhs, _ in productions} | {start}, productions, start)


def _reference_cases():
    from palab.crosscheck import rand_program

    cases = []
    for seed in range(8):
        cases.append(("d1", helpers.rand_labeled_graph(["[1", "]1"], 7, 12, seed), D1))
        cases.append((
            "dyck:2",
            helpers.rand_labeled_graph(["[1", "]1", "[2", "]2"], 7, 14, seed),
            builtin_grammar("dyck:2"),
        ))
        peg = build_peg(rand_program(5, 9, 70 + seed))
        cases += [("pt", peg.graph, PT), ("pt_prime", peg.graph, builtin_grammar("pt_prime"))]
        for name in _HAND_GRAMMARS:
            cases.append((name, helpers.rand_labeled_graph(["a", "b", "c"], 6, 10, seed), _hand_grammar(name)))
    return cases


def test_engine_matches_reference_saturation():
    for trial, (name, g, grammar) in enumerate(_reference_cases()):
        expected = helpers.reference_saturation(g, grammar)
        summaries = all_pairs(g, grammar)
        for sym, pairs in expected.items():
            assert summaries.pairs(sym) == pairs, (trial, name, sym)
        triples, symbols = helpers.saturate(g, grammar)
        names = {c: s for s, c in symbols.items()}
        got = {(u, names[c], v) for u, c, v in triples if names[c] in expected}
        assert got == {(u, s, v) for s, ps in expected.items() for u, v in ps}, (trial, name)
        start_pairs = expected[grammar.start]
        for s in range(g.node_count):
            for t in range(g.node_count):
                assert st_query(g, grammar, s, t) == ((s, t) in start_pairs), (trial, name, s, t)


def test_engine_matches_reference_saturation_on_cycle_dense_graphs():
    # Three edges per node close many cycles of each transitive symbol, so
    # base facts land on rows whose copy-edge lists are already in use and
    # a pop pulls targets that its delta did not carry.
    from palab.crosscheck import rand_program

    dyck2, pt_prime = builtin_grammar("dyck:2"), builtin_grammar("pt_prime")
    column = _hand_grammar("transitive column")
    cases = []
    for seed in range(40):
        cases.append((D1, helpers.rand_labeled_graph(["[1", "]1"], 6, 18, seed)))
        cases.append((dyck2, helpers.rand_labeled_graph(["[1", "]1", "[2", "]2"], 6, 20, seed)))
        peg = build_peg(rand_program(3, 12, 300 + seed)).graph
        cases += [(PT, peg), (pt_prime, peg)]
        cases += [(column, helpers.rand_labeled_graph(["a", "b", "c"], 6, 18, seed + k)) for k in (0, 100)]
    for trial, (grammar, g) in enumerate(cases):
        expected = helpers.reference_saturation(g, grammar)
        summaries = all_pairs(g, grammar)
        for sym, pairs in expected.items():
            assert summaries.pairs(sym) == pairs, (trial, grammar.start, sym)
        start_pairs = expected[grammar.start]
        for s in range(g.node_count):
            for t in range(g.node_count):
                assert st_query(g, grammar, s, t) == ((s, t) in start_pairs), (trial, s, t)


def test_answers_do_not_depend_on_node_numbering():
    # Relabeling reorders the sorted edges, hence the pops and every column list.
    import random

    from palab.crosscheck import rand_dyck_graph, rand_program

    cases = _reference_cases()
    cases.append(("d1", rand_dyck_graph(20, 40, 5), D1))
    peg = build_peg(rand_program(10, 20, 5))
    cases += [("pt", peg.graph, PT), ("pt_prime", peg.graph, builtin_grammar("pt_prime"))]
    for trial, (name, g, grammar) in enumerate(cases):
        n = g.node_count
        perm = list(range(n))
        random.Random(trial).shuffle(perm)
        moved = LabeledDigraph(n, g.alphabet, {(perm[u], a, perm[v]) for u, a, v in g.edges})
        triples, _ = helpers.saturate(g, grammar)
        assert helpers.saturate(moved, grammar)[0] == {
            (perm[u], c, perm[v]) for u, c, v in triples
        }, (trial, name)
        summaries, moved_summaries = all_pairs(g, grammar), all_pairs(moved, grammar)
        for sym in grammar.terminals | grammar.nonterminals:
            assert moved_summaries.pairs(sym) == {
                (perm[u], perm[v]) for u, v in summaries.pairs(sym)
            }, (trial, name, sym)
        # the original answer, as all_pairs gives it; the tests above tie
        # st_query to all_pairs on unmoved graphs
        for s in range(n):
            for t in range(n):
                assert st_query(moved, grammar, perm[s], perm[t]) == summaries.holds(
                    s, grammar.start, t
                ), (trial, name, s, t)


def test_a_pop_joins_with_its_own_column_entry():
    # X -> X X is saturated along copy edges: a pop of (X, u) whose base
    # facts include (u, X, u) enters u in X's copy-edge list at u before it
    # sends its delta along that list, so the send visits the pop's own
    # entry. The send adds nothing new to row u, so the summaries alone
    # cannot show the order: `joined_rows` does.
    loop = Grammar({"a"}, {"X"}, [("X", ("X", "X")), ("X", ("a",))], "X")
    g = LabeledDigraph(1, {"a"}, {(0, "a", 0)})
    stats = {}
    summaries = all_pairs(g, loop, stats=stats)
    assert summaries.pairs("X") == helpers.reference_saturation(g, loop)["X"] == {(0, 0)}
    # pops: X only (the static a never pops; X -> a is applied before the
    # loop and gives the base fact (0, X, 0)); the pop registers it and its
    # send visits X's copy-edge list at 0, [0]
    assert (stats["pops"], stats["joined_rows"]) == (1, 1)

    g = LabeledDigraph(1, DYCK_LABELS, {(0, "[1", 0), (0, "]1", 0)})
    stats = {}
    summaries = all_pairs(g, D1, stats=stats)
    expected = helpers.reference_saturation(g, D1)
    for sym in ("D1", "S", "[1", "]1"):
        assert summaries.pairs(sym) == expected[sym] == {(0, 0)}, sym
    # pops: @1 (from @1 -> ]1 before the loop; S -> [1 @1 visits the static
    # in[[1][0] == [0] and derives the base fact (0, S, 0)), then S, which
    # registers that fact and whose send visits S's copy-edge list at 0, [0];
    # the terminals and the unread D1 never pop
    assert (stats["pops"], stats["joined_rows"]) == (2, 2)


def _helpers_over_nonterminals(grammar: Grammar, norm) -> set[str]:
    """The helpers of `norm` that derive a string with a nonterminal of `grammar`."""
    found: set[str] = set()
    grown = True
    while grown:
        grown = False
        for lhs, rhs in norm.binary_productions:
            if lhs in norm.helper_map and lhs not in found and any(
                sym in grammar.nonterminals or sym in found for sym in rhs
            ):
                found.add(lhs)
                grown = True
    return found


def test_points_to_grammar_shares_helpers():
    norm = normalize(PT)
    assert len(norm.helper_map) == 9
    assert all(1 <= len(rhs) <= 2 for _, rhs in norm.binary_productions)
    # six helpers derive a terminal pair and three span S or -S: of the
    # four bodies with a nonterminal, two share such a helper
    assert len(_helpers_over_nonterminals(PT, norm)) == 3


def test_terminal_runs_fold_into_shared_helpers():
    runs = _hand_grammar("terminal runs")
    norm = normalize(runs)
    spans = {rhs for lhs, rhs in norm.binary_productions if lhs in norm.helper_map}
    # three pair helpers, `c a b`, and three that chain the first body
    assert {("a", "b"), ("c", "a"), ("b", "c")} <= spans
    assert len(norm.helper_map) == 7
    assert len(_helpers_over_nonterminals(runs, norm)) == 3


# (pops, joined_rows, summaries over every symbol) on the 111-node PEG of
# rand_program(40, 80, 2)
PINNED_PEG_COUNTERS = {
    "pt": (344, 405, 2710),
    "pt_prime": (52, 21, 795),
}


def test_points_to_counters_are_pinned():
    from palab.crosscheck import rand_program

    graph = build_peg(rand_program(40, 80, 2)).graph
    assert graph.node_count == 111
    for name, expected in PINNED_PEG_COUNTERS.items():
        stats = {}
        all_pairs(graph, builtin_grammar(name), stats=stats)
        got = (stats["pops"], stats["joined_rows"], sum(stats["summaries"].values()))
        assert got == expected, name


def test_counters_do_not_depend_on_edge_order():
    # A frozenset built from the sorted and from the reversed edge list
    # iterates in different orders; the engine fills its static rows from
    # that iteration without sorting it.
    from palab.crosscheck import rand_dyck_graph, rand_program

    peg = build_peg(rand_program(40, 80, 2)).graph
    cases = [(rand_dyck_graph(20, 40, 5), D1), (peg, PT), (peg, builtin_grammar("pt_prime"))]
    cases.append((
        helpers.rand_labeled_graph(["[1", "]1", "[2", "]2"], 12, 30, 4), builtin_grammar("dyck:2")
    ))
    reordered = 0
    for trial, (g, grammar) in enumerate(cases):
        edges = sorted(g.edges)
        forward = LabeledDigraph(g.node_count, g.alphabet, edges)
        backward = LabeledDigraph(g.node_count, g.alphabet, reversed(edges))
        reordered += list(forward.edges) != list(backward.edges)
        runs = []
        for graph in (forward, backward):
            stats, st_stats = {}, {}
            summaries = all_pairs(graph, grammar, stats=stats)
            st_query(graph, grammar, 0, g.node_count - 1, stats=st_stats)
            runs.append((summaries, stats, st_stats))
        assert runs[0] == runs[1], trial
    assert reordered


def test_st_query_reads_rows_that_never_pop():
    # X -> a b reads terminals only, so X is static: its rows are complete
    # before the first pop, and nothing is ever queued
    pair = Grammar({"a", "b"}, {"X"}, [("X", ("a", "b"))], "X")
    assert normalize(pair).queue_of == (None, None, None)
    g = LabeledDigraph(3, {"a", "b"}, {(0, "a", 1), (1, "b", 2), (2, "a", 0)})
    expected = helpers.reference_saturation(g, pair)["X"]
    assert expected == {(0, 2)}
    full = {}
    all_pairs(g, pair, stats=full)
    assert full["pops"] == 0
    for s in range(3):
        for t in range(3):
            stats = {}
            assert st_query(g, pair, s, t, stats=stats) == ((s, t) in expected), (s, t)
            assert stats == full, (s, t)

    # the last pop, of S at row 0, lands (0, D1, 2) in the row of D1, which
    # no rule reads and which is never queued
    g = LabeledDigraph(3, DYCK_LABELS, {(0, "[1", 1), (1, "]1", 2)})
    assert normalize(D1).queue_of[normalize(D1).codes["D1"]] is None
    expected = helpers.reference_saturation(g, D1)["D1"]
    assert (0, 2) in expected and (2, 0) not in expected
    full, found, missed = {}, {}, {}
    all_pairs(g, D1, stats=full)
    assert st_query(g, D1, 0, 2, stats=found)
    assert not st_query(g, D1, 2, 0, stats=missed)
    assert found == missed == full and full["pops"] == 2


def test_queue_table_keeps_static_and_unread_rows_off_the_worklist():
    # no queue: the terminals, the helpers of terminal pairs and the unread
    # start symbol; first queue: the helpers that span a nonterminal;
    # second queue: the other nonterminals
    pair_helpers = {"d1": 0, "dyck:2": 0, "pt": 6, "pt_prime": 4}
    for name, pairs in pair_helpers.items():
        grammar = builtin_grammar(name)
        norm = normalize(grammar)
        queues: dict = {None: set(), 0: set(), 1: set()}
        for sym, c in norm.codes.items():
            queues[norm.queue_of[c]].add(sym)
        static_helpers = queues[None] - grammar.terminals - {grammar.start}
        assert len(static_helpers) == pairs, name
        assert all(
            set(rhs) <= grammar.terminals
            for lhs, rhs in norm.binary_productions if lhs in static_helpers
        ), name
        assert static_helpers <= norm.helper_map.keys()
        assert grammar.start in queues[None]
        assert queues[0] == _helpers_over_nonterminals(grammar, norm), name
        assert queues[1] == grammar.nonterminals - {grammar.start}, name
        # the rules over static symbols only: the static heads' first
        static = queues[None] - {grammar.start}
        names = {c: sym for sym, c in norm.codes.items()}
        listed = [(names[lhs], tuple(names[x] for x in rhs)) for lhs, rhs in norm.static_rules]
        assert sorted(listed) == sorted(
            rule for rule in norm.binary_productions if static.issuperset(rule[1])
        ), name
        heads = [lhs in static for lhs, _ in listed]
        assert heads == sorted(heads, reverse=True), name

    # pt: six terminal-pair helpers, then Pt -> r, the unit
    # rules S -> s and -S -> -s, and the compensation rules of the helpers
    # whose body starts with the nullable S or -S
    norm = normalize(PT)
    names = {c: sym for sym, c in norm.codes.items()}
    assert [(names[lhs], tuple(names[x] for x in rhs)) for lhs, rhs in norm.static_rules][6:] == [
        ("Pt", ("r",)), ("S", ("s",)), ("-S", ("-s",)),
        ("@3", ("@2",)), ("@6", ("@5",)), ("@8", ("@7",)),
    ]


# the symbols that get a column index in[X]
INDEXED_COLUMNS = {
    "d1": {"[1"},
    "dyck:2": {"[1", "[2"},
    "pt": {"@1", "@4", "@9"},
    "pt_prime": {"@1", "@4"},
}


def test_column_table_indexes_only_left_operands_of_a_popping_partner():
    for name, columns in INDEXED_COLUMNS.items():
        norm = normalize(builtin_grammar(name))
        assert {sym for sym, c in norm.codes.items() if norm.indexed[c]} == columns, name
        assert norm.indexed == tuple(
            any(norm.queue_of[y] is not None for y, _ in left) for left in norm.left_of
        ), name
    # pt's terminal left operands meet only static partners: no column
    pt = normalize(PT)
    for sym in ("as", "d", "-d", "r", "-sa"):
        assert pt.left_of[pt.codes[sym]] and not pt.indexed[pt.codes[sym]], sym

    # A pops, but its right partners under A -> A a and A -> A B are static,
    # so its left joins read out[a] and out[B] and no pop reads in[A]
    grammar = _hand_grammar("left recursion")
    norm = normalize(grammar)
    a = norm.codes["A"]
    assert norm.queue_of[a] is not None and norm.left_of[a] and not any(norm.indexed)
    joined = 0  # A pairs that only a left join of A derives
    for seed in range(6):
        g = helpers.rand_labeled_graph(["a", "b", "c"], 7, 14, seed)
        summaries = all_pairs(g, grammar)
        expected = helpers.reference_saturation(g, grammar)
        for sym in ("A", "B"):
            assert summaries.pairs(sym) == expected[sym], (seed, sym)
        joined += len(expected["A"] - expected["b"])
        for s in range(g.node_count):
            for t in range(g.node_count):
                assert st_query(g, grammar, s, t) == summaries.holds(s, "A", t), (seed, s, t)
    assert joined


def test_helper_names_avoid_grammar_symbols():
    clash = _hand_grammar("helper-name clash")
    assert not derives(clash, "X", ("a", "b"))
    norm = normalize(clash)
    assert not set(norm.helper_map) & (clash.terminals | clash.nonterminals)
    g = LabeledDigraph(3, {"a", "b", "c"}, {(0, "a", 1), (1, "b", 2), (0, "c", 2)})
    summaries = all_pairs(g, clash)
    assert summaries.pairs("X") == frozenset()
    assert summaries.pairs("@1") == {(1, 2)}
    assert not st_query(g, clash, 0, 2)


def test_engine_counters_repeat_and_stay_opt_in():
    g = helpers.rand_labeled_graph(["[1", "]1"], 12, 24, 3)
    first, second = {}, {}
    summaries = all_pairs(g, D1, stats=first)
    assert all_pairs(g, D1, stats=second) == summaries == all_pairs(g, D1)
    assert first == second
    assert set(first) == {"pops", "joined_rows", "copy_edges", "summaries"}
    assert first["pops"] > 0
    for sym in ("D1", "S", "[1", "]1"):
        assert first["summaries"][sym] == len(summaries.pairs(sym))
    assert "@1" in first["summaries"]  # helpers are counted too

    pairs = summaries.pairs("D1")
    hit = next((u, v) for u, v in sorted(pairs) if u != v)
    miss = next((u, v) for u in range(g.node_count) for v in range(g.node_count) if (u, v) not in pairs)
    found, missed, empty = {}, {}, {}
    assert st_query(g, D1, *hit, stats=found)
    assert not st_query(g, D1, *miss, stats=missed)
    assert st_query(g, D1, 0, 0, stats=empty)
    assert found == missed == empty == first


def test_normalize_compiles_symbol_codes_and_rule_tables():
    nullable_middle = _hand_grammar("nullable middle")
    assert any(h in normalize(nullable_middle).nullable for h in normalize(nullable_middle).helper_map)
    grammars = [D1, builtin_grammar("dyck:2"), PT, builtin_grammar("pt_prime")]
    grammars += [nullable_middle, _hand_grammar("unit cycle")]
    for grammar in grammars:
        norm = normalize(grammar)
        assert norm is normalize(grammar)
        names = sorted(grammar.terminals | grammar.nonterminals | norm.helper_map.keys())
        assert isinstance(norm.codes, MappingProxyType)
        assert list(norm.codes.items()) == [(sym, c) for c, sym in enumerate(names)]
        rules = norm.binary_productions
        assert all(1 <= len(rhs) <= 2 for _, rhs in rules)
        for table in (norm.unit_by, norm.left_of, norm.right_of):
            assert isinstance(table, tuple) and len(table) == len(names)
            assert all(isinstance(row, tuple) for row in table)
        assert isinstance(norm.transitive, tuple) and len(norm.transitive) == len(names)
        # each X -> X X is decoded from `transitive` and is in no join table
        doubled = [rule for rule in rules if rule[1] == (rule[0], rule[0])]
        assert [(sym, (sym, sym)) for x, sym in enumerate(names) if norm.transitive[x]] == sorted(doubled)
        joins = [rule for rule in rules if len(rule[1]) == 2 and rule not in doubled]
        # decoded row by row, in binary_productions order
        for x, sym in enumerate(names):
            assert [(names[lhs], (sym,)) for lhs in norm.unit_by[x]] == [
                rule for rule in rules if rule[1] == (sym,)
            ], (grammar.start, sym)
            assert [(names[lhs], (sym, names[y])) for y, lhs in norm.left_of[x]] == [
                rule for rule in joins if rule[1][0] == sym
            ], (grammar.start, sym)
            assert [(names[lhs], (names[y], sym)) for y, lhs in norm.right_of[x]] == [
                rule for rule in joins if rule[1][1] == sym
            ], (grammar.start, sym)


def test_builtin_dyck_count_is_capped_by_max_kinds():
    assert builtin_grammar("dyck:2", max_kinds=2) == builtin_grammar("dyck:2")
    with pytest.raises(InvalidParamsError, match="3 bracket kinds exceed the 2 allowed"):
        builtin_grammar("dyck:3", max_kinds=2)
