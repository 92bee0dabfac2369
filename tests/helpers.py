"""Shared test fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's saturation and worklist
code paths: path enumeration + the Earley membership check `derives` checks
reachability, and a direct constraint sweep checks that a points-to solution
is closed.
"""

from __future__ import annotations

import random
import re
import sys
from collections import defaultdict, deque
from dataclasses import dataclass, fields, is_dataclass
from operator import attrgetter
from typing import Optional, Sequence
from unittest import mock

from palab import andersen
from palab.cfl import _closure
from palab.crosscheck import CheckReport, worked_dyck_graph
from palab.model import (
    AlphabetMismatchError,
    AnalysisError,
    BooleanMatrix,
    DYCK_CLOSE,
    DYCK_LABELS,
    DYCK_OPEN,
    Grammar,
    GrammarError,
    InvalidParamsError,
    LabeledDigraph,
    ParseError,
    PointsToSolution,
    Program,
    ReductionMap,
    Statement,
    StatementKind,
    StatementProfile,
    Variable,
    _ones,
    is_count,
    is_node_id,
)
from palab.peg import PEG, _EDGE_OF_KIND
from palab.reductions import StInstance, _edge_pairs, _node_base_names
from palab.textio import _is_token

EXAMPLE_PROGRAM_TEXT = "a = &b\nb = &d\nc = *a\n"

# the worked bracket graph rendered with the variable names used by the
# reduced-program walkthrough: u0 (=x0), v1 (=y1), w2 (=z2), w3 (=z3)
_RENAMES = {"x0": "u0", "y1": "v1", "z2": "w2", "z3": "w3"}

REDUCED_PROGRAM_TEXT = """\
t1 = &u0; *v1 = t1
v1 = &t2; *t2 = w2
v1 = &t3; *t3 = w3
u0 = *t4; t4 = t5; t5 = &t6; t6 = &u0'
v1 = *t7; t7 = t8; t8 = &t9; t9 = &v1'
w2 = *t10; t10 = t11; t11 = &t12; t12 = &w2'
w3 = *t13; t13 = t14; t14 = &t15; t15 = &w3'
"""


def renamed_worked_graph() -> LabeledDigraph:
    g = worked_dyck_graph()
    names = tuple(_RENAMES.get(n, n) for n in g.node_names)
    return LabeledDigraph(g.node_count, g.alphabet, g.edges, names)


def path_strings(graph: LabeledDigraph) -> dict[tuple[int, int], set[tuple[str, ...]]]:
    """All path label strings between every node pair; the graph must be
    acyclic. The empty path is included for every node."""
    adj: dict[int, list[tuple[str, int]]] = defaultdict(list)
    for src, label, dst in sorted(graph.edges):
        adj[src].append((label, dst))
    out: dict[tuple[int, int], set[tuple[str, ...]]] = defaultdict(set)

    def walk(start: int, node: int, labels: list[str]):
        out[(start, node)].add(tuple(labels))
        for label, nxt in adj[node]:
            labels.append(label)
            walk(start, nxt, labels)
            labels.pop()

    for v in range(graph.node_count):
        walk(v, v, [])
    return out


# The nullable and First fixpoints of `cfl`, copied so that `derives` and
# `reference_follow_sets` share no code with the engine they check.
def reference_nullable(productions: Sequence[tuple[str, tuple[str, ...]]]) -> set[str]:
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in productions:
            if lhs not in nullable and all(sym in nullable for sym in rhs):
                nullable.add(lhs)
                changed = True
    return nullable


def reference_first_sets(grammar: Grammar, nullable: set[str]) -> dict[str, set[str]]:
    first: dict[str, set[str]] = {t: {t} for t in grammar.terminals}
    for nt in grammar.nonterminals:
        first[nt] = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in grammar.productions:
            acc = first[lhs]
            before = len(acc)
            for sym in rhs:
                acc |= first[sym]
                if sym not in nullable:
                    break
            if len(acc) != before:
                changed = True
    return first


def derives(grammar: Grammar, symbol: str, word: Sequence[str]) -> bool:
    """Earley chart check: does `symbol` derive the given terminal string?

    Works directly on the declared productions, so it shares no code with
    the normalization/saturation pipeline.
    """
    if symbol in grammar.terminals:
        return len(word) == 1 and word[0] == symbol
    if symbol not in grammar.nonterminals:
        raise InvalidParamsError(f"unknown symbol {symbol!r}")
    for tok in word:
        if tok not in grammar.terminals:
            return False

    nullable = reference_nullable(grammar.productions)
    prods = list(grammar.productions)
    by_lhs: dict[str, list[int]] = {}
    for idx, (lhs, _) in enumerate(prods):
        by_lhs.setdefault(lhs, []).append(idx)
    if symbol not in by_lhs:
        return False

    n = len(word)
    # chart[k]: set of (prod_index, dot, origin)
    chart: list[set[tuple[int, int, int]]] = [set() for _ in range(n + 1)]
    for idx in by_lhs[symbol]:
        chart[0].add((idx, 0, 0))

    for k in range(n + 1):
        queue = deque(chart[k])

        def put(item: tuple[int, int, int]):
            if item not in chart[k]:
                chart[k].add(item)
                queue.append(item)

        while queue:
            idx, dot, origin = queue.popleft()
            lhs, rhs = prods[idx]
            if dot == len(rhs):
                # complete: advance every item waiting on lhs at `origin`;
                # same-position completions are covered by the nullable
                # pre-advance below
                for pidx, pdot, porigin in list(chart[origin]):
                    prhs = prods[pidx][1]
                    if pdot < len(prhs) and prhs[pdot] == lhs:
                        put((pidx, pdot + 1, porigin))
                continue
            nxt = rhs[dot]
            if nxt in grammar.terminals:
                if k < n and word[k] == nxt:
                    chart[k + 1].add((idx, dot + 1, origin))
            else:
                for nidx in by_lhs.get(nxt, ()):
                    put((nidx, 0, k))
                if nxt in nullable:
                    put((idx, dot + 1, origin))

    for idx, dot, origin in chart[n]:
        lhs, rhs = prods[idx]
        if lhs == symbol and origin == 0 and dot == len(rhs):
            return True
    return False


def reachable_by_enumeration(
    graph: LabeledDigraph, grammar: Grammar, symbol: str
) -> set[tuple[int, int]]:
    """Oracle: pairs joined by a path whose string the symbol derives."""
    pairs = set()
    for (u, v), words in path_strings(graph).items():
        if any(derives(grammar, symbol, w) for w in words):
            pairs.add((u, v))
    return pairs


def reference_saturation(graph: LabeledDigraph, grammar: Grammar) -> dict[str, set[tuple[int, int]]]:
    """Oracle: the (source, target) pairs of every grammar symbol, by whole
    rounds over the declared productions until nothing changes. A body of any
    length is a composition of relations, and the empty body is the identity
    relation; no binarization, nullability analysis or worklist is involved."""
    rel: dict[str, set[tuple[int, int]]] = {
        sym: set() for sym in grammar.terminals | grammar.nonterminals
    }
    for src, label, dst in graph.edges:
        rel[label].add((src, dst))
    identity = {(v, v) for v in range(graph.node_count)}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in grammar.productions:
            acc = identity
            for sym in rhs:
                succ: dict[int, set[int]] = defaultdict(set)
                for u, v in rel[sym]:
                    succ[u].add(v)
                acc = {(u, w) for u, v in acc for w in succ[v]}
            if not acc <= rel[lhs]:
                rel[lhs] |= acc
                changed = True
    return rel


# The two-pass Follow computation that the one-fixpoint `cfl.follow_sets`
# replaced, kept verbatim as the reference for the differential Follow test.
def reference_follow_sets(grammar: Grammar) -> dict[str, frozenset[str]]:
    """Follow(t) for each terminal t: the terminals that can appear
    immediately to the right of t in a sentential form derivable from any
    nonterminal of the grammar."""
    nullable = reference_nullable(grammar.productions)
    first = reference_first_sets(grammar, nullable)

    # Follow over nonterminals without end markers, every nonterminal a root.
    follow_nt: dict[str, set[str]] = {nt: set() for nt in grammar.nonterminals}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in grammar.productions:
            for i, sym in enumerate(rhs):
                if sym not in grammar.nonterminals:
                    continue
                acc = follow_nt[sym]
                before = len(acc)
                tail_nullable = True
                for nxt in rhs[i + 1 :]:
                    acc |= first[nxt]
                    if nxt not in nullable:
                        tail_nullable = False
                        break
                if tail_nullable:
                    acc |= follow_nt[lhs]
                if len(acc) != before:
                    changed = True

    result: dict[str, set[str]] = {t: set() for t in grammar.terminals}
    for lhs, rhs in grammar.productions:
        for i, sym in enumerate(rhs):
            if sym not in grammar.terminals:
                continue
            acc = result[sym]
            tail_nullable = True
            for nxt in rhs[i + 1 :]:
                acc |= first[nxt]
                if nxt not in nullable:
                    tail_nullable = False
                    break
            if tail_nullable:
                acc |= follow_nt[lhs]
    return {t: frozenset(ws) for t, ws in result.items()}


def saturate(graph: LabeledDigraph, grammar: Grammar):
    """The engine's raw output as (summary triples (u, symbol code, v),
    symbol codes), helpers included, for tests that read the engine below
    the `all_pairs` projection."""
    out, norm = _closure(graph, grammar)
    triples = {
        (u, c, v) for c, rows in enumerate(out) for u, row in enumerate(rows) for v in _ones(row)
    }
    return triples, norm.codes


# `.cfg` text for a grammar, which palab only reads: the tests write grammar
# files with it and check that `textio.parse_grammar` reads them back.
def serialize_grammar(grammar: Grammar) -> str:
    """Raises `GrammarError` for a symbol that `.cfg` text cannot carry:
    `eps` (the empty body), `->`, the empty name, and any name containing
    `#` or whitespace."""
    for sym in sorted(grammar.terminals | grammar.nonterminals):
        if sym in ("eps", "->") or not _is_token(sym):
            raise GrammarError(f"symbol {sym!r} cannot be written as .cfg text")
    lines = [
        "start " + grammar.start,
        "terminals " + " ".join(sorted(grammar.terminals)),
        "nonterminals " + " ".join(sorted(grammar.nonterminals)),
    ]
    for lhs, rhs in grammar.productions:
        lines.append(f"{lhs} -> {' '.join(rhs) if rhs else 'eps'}")
    return "".join(line + "\n" for line in lines)


def zero_matrix(n: int) -> BooleanMatrix:
    return BooleanMatrix([[0] * n for _ in range(n)])


def identity_matrix(n: int) -> BooleanMatrix:
    return BooleanMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


class MalformedPegError(AnalysisError):
    pass


def peg_statements(peg: PEG) -> Program:
    """Recover the statement set encoded by a PEG's program edges."""
    edge_of_label = {
        label: (kind, (soff, doff)) for kind, (label, _, soff, doff) in _EDGE_OF_KIND.items()
    }
    out: list[Statement] = []
    for src, label, dst in sorted(peg.graph.edges):
        if label not in edge_of_label:
            continue
        kind, offsets = edge_of_label[label]
        svar, sform = peg.expr_of[src]
        dvar, dform = peg.expr_of[dst]
        if (sform.value, dform.value) != offsets:
            raise MalformedPegError(
                f"{label}-edge joins {peg.graph.name_of(src)} and {peg.graph.name_of(dst)}, "
                "which reads back as no statement"
            )
        out.append(Statement(kind, svar, dvar))
    return Program(out)


def kv_dump(report: CheckReport) -> str:
    """A suite report's fields as tab-separated `key value` lines."""
    return (
        f"suite\t{report.suite}\ntrials\t{report.trials}\n"
        f"mismatches\t{len(report.mismatches)}\npassed\t{int(report.passed)}\n"
    )


# Views of a profile's `gadgets` table, for criterion 03's size formulas.

def allowed_kinds(profile: StatementProfile) -> frozenset[StatementKind]:
    return frozenset(kind for gadget in profile.gadgets for kind, _, _ in gadget)


def edges_via_star_assign(profile: StatementProfile) -> bool:
    """True if graph edges are encoded with star-assign gadgets; the
    remaining profiles encode them with assign-star/address-of pairs."""
    return any(kind is StatementKind.STAR_ASSIGN for kind, _, _ in profile.gadgets[1])


def _temp_count(gadget) -> int:
    return len({slot for _, lhs, rhs in gadget for slot in (lhs, rhs) if isinstance(slot, int)})


def temps_per_node(profile: StatementProfile) -> int:
    return _temp_count(profile.gadgets[0])


def temps_per_edge(profile: StatementProfile) -> int:
    return _temp_count(profile.gadgets[1])


VarPair = tuple[Variable, Variable]


@dataclass(frozen=True)
class ConstraintSet:
    """The program's statements bucketed by constraint kind."""

    address_of: frozenset[VarPair]   # (a, b) for a = &b
    assign: frozenset[VarPair]       # (a, b) for a = b
    assign_star: frozenset[VarPair]  # (a, b) for a = *b
    star_assign: frozenset[VarPair]  # (a, b) for *a = b


def extract_constraints(program: Program) -> ConstraintSet:
    """Classify each statement into exactly one constraint bucket."""
    buckets: dict[StatementKind, set[VarPair]] = {kind: set() for kind in StatementKind}
    for st in program.statements:
        buckets[st.kind].add((st.lhs, st.rhs))
    return ConstraintSet(
        address_of=frozenset(buckets[StatementKind.ADDRESS_OF]),
        assign=frozenset(buckets[StatementKind.ASSIGN]),
        assign_star=frozenset(buckets[StatementKind.ASSIGN_STAR]),
        star_assign=frozenset(buckets[StatementKind.STAR_ASSIGN]),
    )


def constraint_violations(program: Program, solution: PointsToSolution) -> list[str]:
    """One more resolution pass over the solved state; a closed (fixpoint)
    solution yields no violations."""
    pt = solution.pt
    bad = []
    for st in program.statements:
        if st.kind is StatementKind.ADDRESS_OF:
            if st.rhs not in pt[st.lhs]:
                bad.append(f"loc({st.rhs}) missing from pt({st.lhs})")
        elif st.kind is StatementKind.ASSIGN:
            if not pt[st.rhs] <= pt[st.lhs]:
                bad.append(f"pt({st.rhs}) not within pt({st.lhs})")
        elif st.kind is StatementKind.ASSIGN_STAR:
            for v in pt[st.rhs]:
                if not pt[v] <= pt[st.lhs]:
                    bad.append(f"pt({v}) not within pt({st.lhs})")
        else:
            for v in pt[st.lhs]:
                if not pt[st.rhs] <= pt[v]:
                    bad.append(f"pt({st.rhs}) not within pt({v})")
    return bad


def least_fixpoint(program: Program) -> PointsToSolution:
    """Oracle: the least solution by whole-set rounds. Every round applies
    every statement to the full current sets, with no worklist, difference
    sets or cycle collapse, until a round changes nothing."""
    pt = {v: set() for v in program.variables}
    changed = True
    while changed:
        changed = False
        for st in program.statements:
            a, b = st.lhs, st.rhs
            if st.kind is StatementKind.ADDRESS_OF:
                flows = [({b}, a)]
            elif st.kind is StatementKind.ASSIGN:
                flows = [(pt[b], a)]
            elif st.kind is StatementKind.ASSIGN_STAR:
                flows = [(pt[v], a) for v in pt[b]]
            else:
                flows = [(pt[b], v) for v in pt[a]]
            for src, dst in flows:
                if not src <= pt[dst]:
                    pt[dst] |= src
                    changed = True
    variables = program.variables
    bit = {v: 1 << i for i, v in enumerate(variables)}
    return PointsToSolution(variables, tuple(sum(map(bit.get, pt[v])) for v in variables))


class _LifoQueue(deque):
    popleft = deque.pop


def solve_lifo(program: Program, stats: Optional[dict] = None) -> PointsToSolution:
    """`andersen.solve` with its worklist popped last in, first out: the
    result must not depend on the pop order."""
    with mock.patch.object(andersen, "deque", _LifoQueue):
        return andersen.solve(program, stats)


def erased_statement_forms(program: Program) -> list[str]:
    """Statement multiset with every t<k> temporary replaced by `?`,
    for comparisons up to temp naming."""

    def erase(name: str) -> str:
        return "?" if name[0] == "t" and name[1:].isdigit() else name

    shapes = {
        StatementKind.ADDRESS_OF: "{} = &{}",
        StatementKind.ASSIGN: "{} = {}",
        StatementKind.ASSIGN_STAR: "{} = *{}",
        StatementKind.STAR_ASSIGN: "*{} = {}",
    }
    return sorted(
        shapes[st.kind].format(erase(st.lhs.name), erase(st.rhs.name))
        for st in program.statements
    )


def rand_labeled_graph(alphabet: list[str], n: int, m: int, seed: int) -> LabeledDigraph:
    """Random labeled digraph on n nodes with up to m edges; cycles and
    self loops allowed."""
    rng = random.Random(seed)
    edges = {(rng.randrange(n), rng.choice(alphabet), rng.randrange(n)) for _ in range(m)}
    return LabeledDigraph(n, alphabet, edges)


def rand_acyclic_graph(alphabet: list[str], max_nodes: int, max_edges: int, seed: int) -> LabeledDigraph:
    """Random DAG with labels from `alphabet`; edges respect node order."""
    rng = random.Random(seed)

    def pick(k: int) -> int:
        return min(int(rng.random() * k), k - 1)

    n = 2 + pick(max_nodes - 1)
    edges = set()
    for _ in range(pick(max_edges + 1)):
        u = pick(n - 1)
        v = u + 1 + pick(n - u - 1)
        edges.add((u, alphabet[pick(len(alphabet))], v))
    return LabeledDigraph(n, alphabet, edges)


def type_shape(value):
    """The type of `value`, with the type shapes of a dataclass's fields and
    of a plain tuple's, list's or set's elements. Two values of equal shape
    hold the same types at every level, which `==` does not show: a set
    equals a frozenset with the same members."""
    if is_dataclass(value):
        return type(value), tuple((f.name, type_shape(getattr(value, f.name))) for f in fields(value))
    if type(value) in (tuple, list, set, frozenset):
        return type(value), frozenset(map(type_shape, value))
    return type(value)


def rebuilt(value):
    """A graph, matrix or s-t instance built again through its public
    constructor, which checks and converts every field."""
    if isinstance(value, LabeledDigraph):
        return LabeledDigraph(value.node_count, value.alphabet, value.edges, value.node_names)
    if isinstance(value, BooleanMatrix):
        return BooleanMatrix(value.bits)
    if isinstance(value, StInstance):
        return StInstance(rebuilt(value.graph), value.s, value.t, value.map)
    raise TypeError(f"no public constructor for {type(value).__name__}")


def assert_built_as_public(value):
    """`value`, built by one of palab's own builders, is what its public
    constructor builds from the same fields: equal, passing every check,
    and with the same field types."""
    public = rebuilt(value)
    assert value == public
    assert type_shape(value) == type_shape(public)


# The line-by-line program parser that the one-scan `textio.parse_program`
# replaced, kept verbatim as the reference for the differential parse test.
_REF_IDENT = r"[A-Za-z_][A-Za-z0-9_]*'*"
_REF_STMT_RE = re.compile(
    rf"(?P<lstar>\*)?\s*(?P<lhs>{_REF_IDENT})\s*=\s*(?P<rop>[&*])?\s*(?P<rhs>{_REF_IDENT})\Z"
)


def _reference_content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def reference_parse_program(text: str) -> Program:
    """Statements separated by newlines and/or semicolons; trailing ';' ok."""
    statements = []
    interned: dict[str, Variable] = {}  # one Variable per name
    for lineno, line in _reference_content_lines(text):
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            m = _REF_STMT_RE.match(chunk)
            if not m:
                raise ParseError(f"not a normalized statement: {chunk!r}", lineno)
            lstar, lhs, rop, rhs = m.group("lstar", "lhs", "rop", "rhs")
            if lstar and rop:
                raise ParseError(f"not a normalized statement: {chunk!r}", lineno)
            if lstar:
                kind = StatementKind.STAR_ASSIGN
            elif rop == "&":
                kind = StatementKind.ADDRESS_OF
            elif rop == "*":
                kind = StatementKind.ASSIGN_STAR
            else:
                kind = StatementKind.ASSIGN
            a = interned.get(lhs) or interned.setdefault(lhs, Variable(lhs))
            b = interned.get(rhs) or interned.setdefault(rhs, Variable(rhs))
            statements.append(Statement(kind, a, b))
    return Program(statements)


# `textio.parse_graph` as it stood before long digit tokens were read without
# `int()`, kept verbatim as the reference for the differential `.lg` test.
# Run it with `sys.set_int_max_str_digits(0)` to read long tokens at all.
def reference_parse_graph(text: str) -> LabeledDigraph:
    """Header `nodes <n>`, optional `alphabet <labels...>` and
    `name <id> <name>` lines, then edges `<src> <label> <dst>` where node
    tokens are ids (`-?[0-9]+`) or names (fresh names take dense ids in
    appearance order; no name may look like an id). Duplicate edges
    collapse silently. The `alphabet` lines, wherever they sit, declare the
    alphabet together, and it must list every edge label; without them
    the alphabet is the set of edge labels."""
    lines = list(_reference_content_lines(text))
    if not lines:
        raise ParseError("empty graph file: missing `nodes <n>` header")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "nodes":
        raise ParseError("expected `nodes <n>` header", lineno)
    if not is_count(parts[1]):
        raise ParseError(f"bad node count {parts[1]!r}", lineno)
    node_count = int(parts[1])
    if node_count > sys.maxsize:
        raise ParseError(f"node count {node_count} exceeds {sys.maxsize}", lineno)

    alphabet: set[str] = set()
    alphabet_declared = False
    labels: dict[str, int] = {}  # each edge label -> line of its first edge
    names: dict[int, str] = {}
    node_of: dict[str, int] = {}  # each name and id token seen so far
    edges: set[tuple[int, str, int]] = set()
    next_auto = 0

    def resolve(token: str, lineno: int) -> int:
        nonlocal next_auto
        node = node_of.get(token)
        if node is not None:
            return node
        if is_node_id(token):
            node = int(token)
            if not 0 <= node < node_count:
                raise ParseError(f"node {node} out of range", lineno)
        else:
            while next_auto in names:
                next_auto += 1
            if next_auto >= node_count:
                raise ParseError(f"no free id for node name {token!r}", lineno)
            node = next_auto
            names[node] = token
        node_of[token] = node
        return node

    for lineno, line in lines[1:]:
        parts = line.split()
        if parts[0] == "alphabet":
            alphabet.update(parts[1:])
            alphabet_declared = True
            continue
        if parts[0] == "name":
            if len(parts) != 3:
                raise ParseError("expected `name <id> <name>`", lineno)
            if not is_node_id(parts[1]):
                raise ParseError(f"bad node id {parts[1]!r}", lineno)
            node = int(parts[1])
            if not 0 <= node < node_count:
                raise ParseError(f"node {node} out of range", lineno)
            if is_node_id(parts[2]):
                raise ParseError(f"node name {parts[2]!r} reads as a node id", lineno)
            if node in names or parts[2] in node_of:
                raise ParseError(f"duplicate name binding {parts[2]!r}", lineno)
            names[node] = parts[2]
            node_of[parts[2]] = node
            continue
        if len(parts) != 3:
            raise ParseError("expected `<src> <label> <dst>` edge", lineno)
        src, label, dst = parts
        labels.setdefault(label, lineno)
        edges.add((resolve(src, lineno), label, resolve(dst, lineno)))

    if not alphabet_declared:
        alphabet = set(labels)
    elif not labels.keys() <= alphabet:
        lineno, label = min((n, x) for x, n in labels.items() if x not in alphabet)
        raise ParseError(f"label {label!r} not in declared alphabet", lineno)

    node_names = None
    if names:
        if len(names) != node_count:
            raise ParseError(
                f"{len(names)} of {node_count} nodes named; name all or none"
            )
        node_names = tuple(names[i] for i in range(node_count))
    return LabeledDigraph(node_count, alphabet, edges, node_names)


# `textio.serialize_solution` as it stood before it read the solution's bitset
# rows, kept verbatim as the reference for the differential `.sol` test: it
# reads the `pt` view's frozensets.
def reference_serialize_solution(solution: PointsToSolution) -> str:
    lines = []
    rendered: dict[int, str] = {}  # id of a points-to set -> its member list
    name = attrgetter("name")
    for var in sorted(solution.pt, key=name):
        targets = solution.pt[var]
        members = rendered.get(id(targets))
        if members is None:
            members = rendered[id(targets)] = ", ".join(sorted(map(name, targets)))
        lines.append(f"pt({var.name}) = {{ {members} }}" if members else f"pt({var.name}) = {{ }}")
    return "".join(line + "\n" for line in lines)


# `reductions.d1_to_program` and `reductions.triangle_to_st_d1` as they stood
# before each per-edge auxiliary (a store-edge temp, a hop node) was shared
# among its source's edges, kept verbatim as the references for the
# differential reduction tests.
def reference_d1_to_program(
    graph: LabeledDigraph,
    profile: StatementProfile = StatementProfile.CASE1,
    prune_isolated: bool = False,
) -> tuple[Program, ReductionMap]:
    """Emit the pointer program whose points-to facts mirror Dyck-1
    reachability: u reaches v iff the query variable of u points to the
    primed address variable of v.

    One node gadget per node, then one open or close gadget per edge in
    sorted order, each instantiated from `profile.gadgets` (the table in
    `model`); temps are fresh per gadget. `prune_isolated` drops the node
    gadgets of degree-0 nodes.
    """
    if not graph.alphabet <= DYCK_LABELS:
        raise AlphabetMismatchError(graph.alphabet - DYCK_LABELS)

    node_gadget, open_gadget, close_gadget = profile.gadgets
    if prune_isolated:
        nodes = sorted({node for src, _, dst in graph.edges for node in (src, dst)})
    else:
        nodes = range(graph.node_count)
    base = _node_base_names(graph, nodes)
    qvars = {v: Variable(name) for v, name in base.items()}
    statements: list[Statement] = []
    forward: dict[int, tuple] = {}
    temps = 0

    def emit(gadget, slots: dict):
        nonlocal temps
        for kind, lhs, rhs in gadget:
            for slot in (lhs, rhs):
                if slot not in slots:  # a temp's first use
                    temps += 1
                    slots[slot] = Variable(f"t{temps}")
            statements.append(Statement(kind, slots[lhs], slots[rhs]))

    for v in nodes:
        qvar, avar = qvars[v], Variable(base[v] + "'")
        forward[v] = (qvar, avar)
        emit(node_gadget, {"q": qvar, "a": avar})
    for src, label, dst in sorted(graph.edges):
        gadget = open_gadget if label == DYCK_OPEN else close_gadget
        emit(gadget, {"u": qvars[src], "v": qvars[dst]})

    rmap = ReductionMap(
        roles=("query_var", "addr_var"),
        forward=forward,
        meta={"profile": profile.value, "prune_isolated": prune_isolated},
    )
    return Program(statements), rmap


def reference_triangle_to_st_d1(graph: LabeledDigraph, directed: bool = False) -> StInstance:
    """Four layer copies per node plus s and t.

    An open-bracket chain runs from s through layer 0 (ascending node
    order) and a close-bracket chain from layer 3 back into t, so the walk
    down to any u_0 and up from the matching u_3 is balanced. Each input
    edge (u, v) contributes, per layer j in 0..2, an auxiliary hop
    u_j -[1-> aux -]1-> v_{j+1}; undirected inputs also get the mirrored
    hop v_j -> u_{j+1}. A triangle through u is then exactly a balanced
    s-to-t walk via u_0 .. u_3.
    """
    pairs = _edge_pairs(graph, directed)
    n = graph.node_count

    def layer(u: int, j: int) -> int:
        return 4 * u + j

    s_node, t_node = 4 * n, 4 * n + 1
    edges: set[tuple[int, str, int]] = set()
    if n:
        edges.add((s_node, DYCK_OPEN, layer(0, 0)))
        edges.add((layer(0, 3), DYCK_CLOSE, t_node))
    for u in range(1, n):
        edges.add((layer(u - 1, 0), DYCK_OPEN, layer(u, 0)))
        edges.add((layer(u, 3), DYCK_CLOSE, layer(u - 1, 3)))

    aux = 4 * n + 2
    aux_names: list[str] = []
    i = 0
    for u, v in pairs:
        for j in range(3):
            edges.add((layer(u, j), DYCK_OPEN, aux))
            edges.add((aux, DYCK_CLOSE, layer(v, j + 1)))
            aux_names.append(f"t{i}")
            aux += 1
            if not directed:
                edges.add((layer(v, j), DYCK_OPEN, aux))
                edges.add((aux, DYCK_CLOSE, layer(u, j + 1)))
                aux_names.append(f"t{i}'")
                aux += 1
            i += 1

    base = graph.node_names or [f"n{v}" for v in range(n)]
    names = [f"{base[u]}{j}" for u in range(n) for j in range(4)] + ["s", "t"] + aux_names
    # a name "-" or "" would make its layer copies read as ids ("-0", "0")
    if len(set(names)) != len(names) or any(is_node_id(name + "0") for name in base):
        names = [f"n{u}_{j}" for u in range(n) for j in range(4)] + ["s", "t"] + aux_names

    out = LabeledDigraph(aux, DYCK_LABELS, edges, names)
    rmap = ReductionMap(
        roles=("layer0", "layer1", "layer2", "layer3"),
        forward={u: tuple(layer(u, j) for j in range(4)) for u in range(n)},
        meta={"s": s_node, "t": t_node, "directed": directed},
    )
    return StInstance(out, s_node, t_node, rmap)
