"""Line-oriented ASCII formats: programs (.pa), labeled graphs (.lg),
matrices (.bm), grammars (.cfg), solutions (.sol), provenance maps (.map).

`#` starts a comment in every format, and a line ends at any
`str.splitlines` line end. Parsing a serialized value gives the value back;
serializing a parsed canonical text gives the text back.

In `.cfg` text a line whose second token is `->` is a production, even when
its first token is `start`, `terminals` or `nonterminals`; `.cfg` text is
only read. Each `.lg` label and node name is one token, so `serialize_graph`
rejects the empty one and any containing `#` or whitespace.
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
    InvalidParamsError,
    LabeledDigraph,
    ParseError,
    PointsToSolution,
    Program,
    ReductionMap,
    Statement,
    Variable,
    _select,
    _trusted,
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
    the alphabet is the set of edge labels.

    One pass over the lines checks every field as it reads it; a token
    seen before resolves with one dict lookup."""
    lines = enumerate(text.splitlines(), start=1)
    for lineno, line in lines:
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if parts:
            break
    else:
        raise ParseError("empty graph file: missing `nodes <n>` header")
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
        """The node of a token not seen before."""
        nonlocal next_auto
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

    for lineno, line in lines:
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        head = parts[0]
        if head == "alphabet":
            alphabet.update(parts[1:])
            alphabet_declared = True
            continue
        if head == "name":
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
        if label not in labels:
            labels[label] = lineno
        u = node_of.get(src)
        if u is None:
            u = resolve(src, lineno)
        v = node_of.get(dst)
        if v is None:
            v = resolve(dst, lineno)
        edges.add((u, label, v))

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
    # each id was range-checked, each name bound once and not id-like, each label matched
    return _trusted(
        LabeledDigraph,
        node_count=node_count,
        alphabet=frozenset(alphabet),
        edges=frozenset(edges),
        node_names=node_names,
    )


def _is_token(sym: str) -> bool:
    """True if `sym` reads back as one token: not empty, no `#`, no whitespace."""
    return "#" not in sym and sym.split() == [sym]


def serialize_graph(graph: LabeledDigraph) -> str:
    """Raises `InvalidParamsError` for the first label (in sorted order),
    then node name, that `.lg` text cannot carry.

    One scan checks them all: joined by spaces, they split back into
    themselves iff each is non-empty and free of whitespace, and no `#`
    may occur in the joined text; only when that fails are they checked
    one by one, to name the first bad one."""
    labels = sorted(graph.alphabet)
    names = graph.node_names or ()
    symbols = [*labels, *names]
    joined = " ".join(symbols)
    if "#" in joined or joined.split() != symbols:
        bad = next(sym for sym in symbols if not _is_token(sym))
        raise InvalidParamsError(f"label or node name {bad!r} cannot be written as .lg text")
    lines = [f"nodes {graph.node_count}\n"]
    if labels:
        lines.append(f"alphabet {' '.join(labels)}\n")
    lines += [f"name {i} {name}\n" for i, name in enumerate(names)]
    lines += [f"{src} {label} {dst}\n" for src, label, dst in sorted(graph.edges)]
    return "".join(lines)


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
    if not n:
        raise ParseError("matrix must be non-empty", lineno)
    rows = lines[1:]
    if len(rows) != n:
        raise ParseError(f"expected {n} rows, got {len(rows)}")
    bits = []
    for lineno, row in rows:
        if len(row) != n:
            raise ParseError(f"ragged row of length {len(row)}, expected {n}", lineno)
        if row.strip("01"):
            raise ParseError(f"matrix rows must be 0/1 strings: {row!r}", lineno)
        bits.append(tuple(map(int, row)))
    # n >= 1 rows, each of n 0/1 digits read as ints
    return _trusted(BooleanMatrix, n=n, bits=tuple(bits))


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
    """TSV provenance rows `meta\\t<key>\\t<value>`, then `<source-entity>\\t<role>\\t<target>`."""
    lines = [f"meta\t{key}\t{rmap.meta[key]}" for key in sorted(rmap.meta)]
    for key in sorted(rmap.forward):
        for role, value in zip(rmap.roles, rmap.forward[key]):
            lines.append(f"{key}\t{role}\t{value}")
    return "".join(line + "\n" for line in lines)
