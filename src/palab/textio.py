"""Line-oriented ASCII formats: programs (.pa), labeled graphs (.lg),
matrices (.bm), grammars (.cfg), solutions (.sol), provenance maps (.map).

`#` starts a comment in every format, and a line ends at any
`str.splitlines` line end. Parsing a serialized value gives the value back;
serializing a parsed canonical text gives the text back.

In `.cfg` text a line whose second token is `->` is a production, even when
its first token is `start`, `terminals` or `nonterminals`. Each grammar
symbol is one token, so `serialize_grammar` rejects the symbols the text
cannot carry: `eps` (the empty body), `->`, the empty name, and any name
containing `#` or whitespace. Each `.lg` label and node name is one token
too, so `serialize_graph` rejects the empty one and any containing `#` or
whitespace.
"""

from __future__ import annotations

import re
import sys
from typing import Iterable

from .model import (
    IDENT,
    SPELLING,
    BooleanMatrix,
    Grammar,
    GrammarError,
    InvalidParamsError,
    LabeledDigraph,
    ParseError,
    PointsToSolution,
    Program,
    ReductionMap,
    Statement,
    Variable,
    _select,
    is_count,
    is_node_id,
    to_int,
)

_WS = r"[^\S\n]*"  # whitespace inside one line
# One normalized statement, groups (lstar, lhs, rop, rhs); a starred lhs
# admits no right operator, so `*a = &b` fails here and needs no other check.
_STMT = rf"(\*)?{_WS}({IDENT}){_WS}=(?(1)|{_WS}([&*])?){_WS}({IDENT})"
_STMT_RE = re.compile(_STMT + r"\Z")
# Per line of "\n"-joined text: exactly one statement, or the whole line as
# group 5 for the chunk splitter (blank, comment, `;`, or an error).
_LINE_RE = re.compile(rf"^(?:{_WS}{_STMT}{_WS}$|(.*))", re.M)
_KIND = {  # lstar -> rop -> kind: `SPELLING` read backwards
    lstar: {rop: kind for kind, (star, rop) in SPELLING.items() if star == lstar}
    for lstar, _ in SPELLING.values()
}


def _content_lines(text: str) -> Iterable[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


# ---------------------------------------------------------------------------
# programs

def _chunks(line: str, lineno: int) -> list[tuple[str, ...]]:
    """(lstar, lhs, rop, rhs) of each `;`-separated statement of one line."""
    found = []
    for chunk in line.split("#", 1)[0].split(";"):
        chunk = chunk.strip()
        if chunk:
            m = _STMT_RE.match(chunk)
            if not m:
                raise ParseError(f"not a normalized statement: {chunk!r}", lineno)
            found.append(m.groups(""))
    return found


def parse_program(text: str) -> Program:
    """Statements separated by newlines and/or semicolons; trailing ';' ok.

    One regex scan over the text's lines (any `str.splitlines` line end)
    matches the common line of exactly one statement; other lines go
    through the chunk splitter, which raises `ParseError` with the line
    number on the first chunk that is not a statement. Names on the scan
    path matched `IDENT`, so their `Variable`s skip the name check."""
    statements = []
    interned: dict[str, Variable] = {}  # one Variable per name
    new = tuple.__new__
    lines = _LINE_RE.findall("\n".join(text.splitlines()))
    for lineno, (lstar, lhs, rop, rhs, rest) in enumerate(lines, start=1):
        if lhs:
            a = interned.get(lhs) or interned.setdefault(lhs, new(Variable, (lhs,)))
            b = interned.get(rhs) or interned.setdefault(rhs, new(Variable, (rhs,)))
            statements.append(new(Statement, (_KIND[lstar][rop], a, b)))
        elif rest:
            for lstar, lhs, rop, rhs in _chunks(rest, lineno):
                a = interned.get(lhs) or interned.setdefault(lhs, Variable(lhs))
                b = interned.get(rhs) or interned.setdefault(rhs, Variable(rhs))
                statements.append(Statement(_KIND[lstar][rop], a, b))
    program = Program(statements)
    # the intern table is in first-appearance order already: seed the cache
    vars(program)["variables"] = tuple(interned.values())
    return program


def serialize_program(program: Program) -> str:
    return "".join(f"{st}\n" for st in program.statements)


# ---------------------------------------------------------------------------
# labeled graphs

def parse_graph(text: str) -> LabeledDigraph:
    """Header `nodes <n>`, optional `alphabet <labels...>` and
    `name <id> <name>` lines, then edges `<src> <label> <dst>` where node
    tokens are ids (`-?[0-9]+`) or names (fresh names take dense ids in
    appearance order; no name may look like an id). Duplicate edges
    collapse silently. The `alphabet` lines, wherever they sit, declare the
    alphabet together, and it must list every edge label; without them
    the alphabet is the set of edge labels."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty graph file: missing `nodes <n>` header")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "nodes":
        raise ParseError("expected `nodes <n>` header", lineno)
    if not is_count(parts[1]):
        raise ParseError(f"bad node count {parts[1]!r}", lineno)
    node_count = to_int(parts[1])
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
            node = to_int(token)
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
            node = to_int(parts[1])
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


def _is_token(sym: str) -> bool:
    """True if `sym` reads back as one token: not empty, no `#`, no whitespace."""
    return "#" not in sym and sym.split() == [sym]


def serialize_graph(graph: LabeledDigraph) -> str:
    """Raises `InvalidParamsError` for a label or node name that `.lg`
    text cannot carry."""
    labels = sorted(graph.alphabet)
    for sym in (*labels, *(graph.node_names or ())):
        if not _is_token(sym):
            raise InvalidParamsError(f"label or node name {sym!r} cannot be written as .lg text")
    lines = [f"nodes {graph.node_count}"]
    if labels:
        lines.append("alphabet " + " ".join(labels))
    if graph.node_names is not None:
        lines += [f"name {i} {name}" for i, name in enumerate(graph.node_names)]
    lines += [f"{src} {label} {dst}" for src, label, dst in sorted(graph.edges)]
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# matrices

def parse_matrix(text: str) -> BooleanMatrix:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty matrix file: missing size header")
    lineno, header = lines[0]
    if not is_count(header):
        raise ParseError(f"bad matrix size {header!r}", lineno)
    n = to_int(header)
    rows = lines[1:]
    if len(rows) != n:
        raise ParseError(f"expected {n} rows, got {len(rows)}")
    bits = []
    for lineno, row in rows:
        if len(row) != n:
            raise ParseError(f"ragged row of length {len(row)}, expected {n}", lineno)
        if set(row) - {"0", "1"}:
            raise ParseError(f"matrix rows must be 0/1 strings: {row!r}", lineno)
        bits.append([int(ch) for ch in row])
    return BooleanMatrix(bits)


def serialize_matrix(matrix: BooleanMatrix) -> str:
    lines = [str(matrix.n)] + ["".join(str(x) for x in row) for row in matrix.bits]
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# grammars

def parse_grammar(text: str) -> Grammar:
    """One `start <S>`, `terminals <t...>`, optional `nonterminals <N...>`,
    then productions `<LHS> -> <sym...>` with `eps` for the empty body."""
    start = None
    terminals: set[str] = set()
    nonterminals: set[str] = set()
    productions = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) >= 2 and parts[1] == "->":
            rhs = tuple(sym for sym in parts[2:] if sym != "eps")
            productions.append((parts[0], rhs))
            nonterminals.add(parts[0])
        elif parts[0] == "start":
            if len(parts) != 2:
                raise ParseError("expected `start <symbol>`", lineno)
            if start is not None:
                raise ParseError(f"second `start` line (start is {start!r})", lineno)
            start = parts[1]
        elif parts[0] == "terminals":
            terminals.update(parts[1:])
        elif parts[0] == "nonterminals":
            nonterminals.update(parts[1:])
        else:
            raise ParseError(f"unrecognized grammar line: {line!r}", lineno)
    if start is None:
        raise ParseError("grammar file missing `start` line")
    nonterminals.add(start)
    return Grammar(terminals, nonterminals, productions, start)


def serialize_grammar(grammar: Grammar) -> str:
    """Raises `GrammarError` for a symbol that `.cfg` text cannot carry."""
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


# ---------------------------------------------------------------------------
# solutions and maps

def serialize_solution(solution: PointsToSolution) -> str:
    """One `pt(v) = { ... }` line per variable, variables and members in name
    order, read straight from the bitset rows; each distinct row is rendered
    once."""
    names = [v.name for v in solution.variables]
    rows = solution.rows
    rendered = {0: "{ }\n"}  # row -> its member list
    lines = []
    for i in sorted(range(len(names)), key=names.__getitem__):
        row = rows[i]
        members = rendered.get(row)
        if members is None:
            members = rendered[row] = "{ " + ", ".join(sorted(_select(names, row))) + " }\n"
        lines.append(f"pt({names[i]}) = {members}")
    return "".join(lines)


def serialize_map(rmap: ReductionMap) -> str:
    """TSV provenance rows: `<source-entity>\\t<role>\\t<target-name>`."""
    lines = [f"meta\t{key}\t{rmap.meta[key]}" for key in sorted(rmap.meta)]
    for key in sorted(rmap.forward):
        for role, value in zip(rmap.roles, rmap.forward[key]):
            lines.append(f"{key}\t{role}\t{value}")
    return "".join(line + "\n" for line in lines)
