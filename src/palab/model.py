"""Shared domain types: programs, labeled graphs, matrices, grammars, maps.

Everything here is an immutable value object; the algorithms live in the
sibling modules (andersen, peg, cfl, reductions).
"""

from __future__ import annotations

import enum
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Union


# ---------------------------------------------------------------------------
# trusted construction


def _trusted(cls, **fields):
    """An instance of the frozen dataclass `cls` with `fields` stored as
    given: no conversion, no check. Only palab's own builders call it, with
    fields of the declared types (frozensets, tuples) that already satisfy
    every check of the public constructor; each call names its invariant."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


# ---------------------------------------------------------------------------
# errors


class AnalysisError(Exception):
    """Base class for all structured errors raised by this package."""


class ParseError(AnalysisError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownVariableError(AnalysisError):
    pass


class AlphabetMismatchError(AnalysisError):
    def __init__(self, labels: Iterable[str]):
        self.labels = tuple(sorted(labels))
        super().__init__(f"labels not in grammar terminals: {', '.join(self.labels)}")


class InvalidNodeError(AnalysisError):
    pass


class DimensionMismatchError(AnalysisError):
    pass


class BadEdgeLabelError(AnalysisError):
    pass


class SelfLoopError(AnalysisError):
    pass


class InvalidParamsError(AnalysisError):
    pass


class GrammarError(AnalysisError):
    pass


# ---------------------------------------------------------------------------
# bitsets

def _ones(bits: int) -> list[int]:
    """Indices of the set bits of a bitset, ascending."""
    found = []
    while bits:
        low = bits & -bits
        found.append(low.bit_length() - 1)
        bits ^= low
    return found


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # bitset digits -> `compress` selector


def _select(items: list, bits: int) -> Iterable:
    """The items at the set bits of a bitset, ascending. A `compress` walk,
    whose selector byte v is 1 iff bit v is set, costs time in the bitset's
    length, `_ones` in its set bits; they break even at 1 set bit in 6 to 50, by length."""
    if bits.bit_count() * 16 < bits.bit_length():
        return [items[v] for v in _ones(bits)]
    return compress(items, format(bits, "b").encode().translate(_BIT_BYTES)[::-1])


# ---------------------------------------------------------------------------
# variables and statements

# letters/digits/underscore, then optional trailing apostrophes (primed
# names); the `.pa` parser's regex uses it and trusts the names it matches
IDENT = r"[A-Za-z_][A-Za-z0-9_]*'*"
_IDENT_RE = re.compile(IDENT + r"\Z")


def is_identifier(name: str) -> bool:
    return bool(_IDENT_RE.match(name))


class Variable(NamedTuple("Variable", [("name", str)])):
    """A program variable. Equal names denote the same variable.

    A one-field named tuple: it compares, orders and hashes as the tuple
    `(name,)`, all in C, and `str` gives the name. So it also equals that
    plain tuple: keep the two apart as set or dict keys. The constructor,
    `_make` and `_replace` check the name; only the `.pa` parser builds
    instances with `tuple.__new__`, from names it matched with `IDENT`."""

    __slots__ = ()

    def __new__(cls, name: str):
        if not is_identifier(name):
            raise ParseError(f"invalid identifier {name!r}")
        return tuple.__new__(cls, (name,))

    @classmethod
    def _make(cls, iterable) -> Variable:  # `_replace` builds through this too
        return cls(*iterable)

    def __str__(self) -> str:
        return self.name


def as_variable(v: Union[Variable, str]) -> Variable:
    return v if isinstance(v, Variable) else Variable(v)


class StatementKind(enum.Enum):
    ADDRESS_OF = "address_of"   # a = &b
    ASSIGN = "assign"           # a = b
    ASSIGN_STAR = "assign_star" # a = *b
    STAR_ASSIGN = "star_assign" # *a = b

    __hash__ = object.__hash__  # members are singletons; skips Enum's Python-level hash


# kind -> (lhs prefix, rhs prefix): each kind's one spelling in the `.pa`
# syntax, `<lhs prefix><lhs> = <rhs prefix><rhs>`; the `.pa` parser reads it too
SPELLING = {
    StatementKind.ADDRESS_OF: ("", "&"),
    StatementKind.ASSIGN: ("", ""),
    StatementKind.ASSIGN_STAR: ("", "*"),
    StatementKind.STAR_ASSIGN: ("*", ""),
}


class Statement(NamedTuple):
    """One normalized pointer statement (single level of dereferencing).

    A named tuple: it compares and hashes as the plain tuple
    (kind, lhs, rhs), and `str` renders it in the `.pa` syntax."""

    kind: StatementKind
    lhs: Variable
    rhs: Variable

    def __str__(self) -> str:
        lstar, rop = SPELLING[self.kind]
        return f"{lstar}{self.lhs.name} = {rop}{self.rhs.name}"


@dataclass(frozen=True)
class Program:
    """An ordered list of normalized statements.

    Semantics are set-based: duplicates in the list are permitted but must
    not change any analysis result. The variable universe is the set of
    variables referenced by the statements, in first-appearance order.
    """

    statements: tuple[Statement, ...]

    def __init__(self, statements: Iterable[Statement]):
        object.__setattr__(self, "statements", tuple(statements))

    @cached_property
    def variables(self) -> tuple[Variable, ...]:
        seen: dict[str, Variable] = {}  # keyed by name: str hashing is cached
        for st in self.statements:
            seen.setdefault(st.lhs.name, st.lhs)
            seen.setdefault(st.rhs.name, st.rhs)
        return tuple(seen.values())


@dataclass(frozen=True, eq=False)
class PointsToSolution:
    """The points-to relation of a solved program, as one bitset row per
    variable: bit j of `rows[i]` is set iff loc(`variables[j]`) is in
    pt(`variables[i]`). `variables` is the solved universe.

    `pt` is a read-only mapping view of the same relation, built on first
    read with one frozenset per distinct row, shared by the variables that
    have that row. Two solutions are equal iff their `pt` views are, so the
    order of `variables` does not matter.
    """

    variables: tuple[Variable, ...]
    rows: tuple[int, ...]

    @cached_property
    def pt(self) -> Mapping[Variable, frozenset[Variable]]:
        shared: dict[int, frozenset[Variable]] = {}
        view = {}
        for var, row in zip(self.variables, self.rows):
            members = shared.get(row)
            if members is None:
                members = shared[row] = frozenset(_select(self.variables, row))
            view[var] = members
        return MappingProxyType(view)

    @cached_property
    def _index(self) -> dict[Variable, int]:
        return {v: i for i, v in enumerate(self.variables)}

    def query(self, p: Union[Variable, str], q: Union[Variable, str]) -> bool:
        """True iff loc(q) is in pt(p). Both must be in the solved universe."""
        p, q = as_variable(p), as_variable(q)
        i = self._index.get(p)
        if i is None:
            raise UnknownVariableError(f"unknown variable {p}")
        j = self._index.get(q)
        if j is None:
            raise UnknownVariableError(f"unknown variable {q}")
        return bool(self.rows[i] >> j & 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointsToSolution):
            return NotImplemented
        return self.pt == other.pt


# ---------------------------------------------------------------------------
# labeled digraphs and matrices

Edge = tuple[int, str, int]

# Node ids in graph text and on the command line are ASCII integer literals,
# and no node name may look like one. A bound method, so the test is a single
# C call on the graph parser's per-token path; it returns a match or None.
is_node_id = re.compile(r"-?[0-9]+").fullmatch
# Counts (graph and matrix sizes, `dyck:<k>`, `bench --sizes`) are ASCII
# digits only: `int()` alone would also take `٣`, `+3`, `1_0` and ` 3`.
is_count = re.compile(r"[0-9]+").fullmatch
# No count or node id exceeds sys.maxsize, so none has more digits than it.
_MAX_DIGITS = len(str(sys.maxsize))


class _Overlong(int):
    """An integer token with more digits than sys.maxsize, leading zeros
    aside. It compares as one past sys.maxsize, with the token's sign, so
    every range check rejects it, and it prints as the token's digits, so
    an error message reads as it would for any other value; the digits are
    never converted (`int()` refuses more than 4300 of them)."""

    def __new__(cls, text: str):
        self = super().__new__(cls, -sys.maxsize - 1 if text[0] == "-" else sys.maxsize + 1)
        self.text = text
        return self

    def __str__(self) -> str:
        return self.text

    __repr__ = __str__


def to_int(token: str) -> int:
    """The value of a token that `is_node_id` or `is_count` matched, at
    any length: an `_Overlong` when its digits, leading zeros aside,
    outnumber those of sys.maxsize."""
    if len(token) <= _MAX_DIGITS:
        return int(token)
    digits = token.lstrip("-").lstrip("0")
    negative = token[0] == "-"
    if len(digits) > _MAX_DIGITS:
        return _Overlong("-" + digits if negative else digits)
    value = int(digits or "0")
    return -value if negative else value


@dataclass(frozen=True)
class LabeledDigraph:
    """A digraph with terminal-labeled edges over a declared alphabet.

    Node ids are dense 0-based integers; names are optional metadata.
    The public constructor checks every field: node ids in range, labels
    in the alphabet, names unique, one per node and none reading as an id.
    palab's own builders (`parse_graph`, `build_peg`, the reductions and
    the generators) check as they build and store through `_trusted`.
    """

    node_count: int
    alphabet: frozenset[str]
    edges: frozenset[Edge]
    node_names: Optional[tuple[str, ...]] = None

    def __init__(
        self,
        node_count: int,
        alphabet: Iterable[str],
        edges: Iterable[Edge],
        node_names: Optional[Iterable[str]] = None,
    ):
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "alphabet", frozenset(alphabet))
        object.__setattr__(self, "edges", frozenset(edges))
        names = tuple(node_names) if node_names is not None else None
        object.__setattr__(self, "node_names", names)
        if node_count < 0:
            raise InvalidParamsError("node_count must be non-negative")
        for src, label, dst in self.edges:
            if not (0 <= src < node_count and 0 <= dst < node_count):
                raise InvalidNodeError(f"edge ({src}, {label}, {dst}) out of range")
            if label not in self.alphabet:
                raise BadEdgeLabelError(f"edge label {label!r} not in alphabet")
        if names is not None:
            if len(names) != node_count:
                raise InvalidParamsError("node_names length must equal node_count")
            if len(set(names)) != len(names):
                raise InvalidParamsError("node names must be unique")
            id_like = next(filter(is_node_id, names), None)
            if id_like is not None:
                raise InvalidParamsError(f"node name {id_like!r} reads as a node id")

    def name_of(self, node: int) -> str:
        if self.node_names is not None:
            return self.node_names[node]
        return str(node)

    @cached_property
    def _node_ids(self) -> dict[str, int]:
        return {name: node for node, name in enumerate(self.node_names or ())}

    def resolve(self, token: str) -> int:
        """Map a node name or integer token to a node id."""
        node = self._node_ids.get(token)
        if node is not None:
            return node
        if not is_node_id(token):
            raise InvalidNodeError(f"unknown node {token!r}")
        node = to_int(token)
        if not 0 <= node < self.node_count:
            raise InvalidNodeError(f"node {node} out of range")
        return node


DYCK_OPEN, DYCK_CLOSE = "[1", "]1"
DYCK_LABELS = frozenset({DYCK_OPEN, DYCK_CLOSE})


@dataclass(frozen=True)
class BooleanMatrix:
    """Square 0/1 matrix, stored as a tuple of row tuples.

    The public constructor checks every entry and the shape; `parse_matrix`
    and `rand_matrix` build their rows of 0/1 ints through `_trusted`."""

    n: int
    bits: tuple[tuple[int, ...], ...]

    def __init__(self, bits: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in bits)
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "bits", rows)
        if self.n == 0:
            raise InvalidParamsError("matrix must be non-empty")
        for row in rows:
            if len(row) != self.n:
                raise DimensionMismatchError("matrix must be square")
            for x in row:
                if x not in (0, 1):
                    raise InvalidParamsError(f"matrix entries must be 0/1, got {x}")

    def nnz(self) -> int:
        return sum(sum(row) for row in self.bits)


# ---------------------------------------------------------------------------
# grammars

Production = tuple[str, tuple[str, ...]]


@dataclass(frozen=True)
class Grammar:
    """A context-free grammar; productions may have empty right-hand sides."""

    terminals: frozenset[str]
    nonterminals: frozenset[str]
    productions: tuple[Production, ...]
    start: str

    def __init__(
        self,
        terminals: Iterable[str],
        nonterminals: Iterable[str],
        productions: Iterable[tuple[str, Iterable[str]]],
        start: str,
    ):
        object.__setattr__(self, "terminals", frozenset(terminals))
        object.__setattr__(self, "nonterminals", frozenset(nonterminals))
        object.__setattr__(
            self, "productions", tuple((lhs, tuple(rhs)) for lhs, rhs in productions)
        )
        object.__setattr__(self, "start", start)
        overlap = self.terminals & self.nonterminals
        if overlap:
            raise GrammarError(f"symbols both terminal and nonterminal: {sorted(overlap)}")
        if self.start not in self.nonterminals:
            raise GrammarError(f"start symbol {self.start!r} is not a nonterminal")
        declared = self.terminals | self.nonterminals
        for lhs, rhs in self.productions:
            if lhs not in self.nonterminals:
                raise GrammarError(f"production lhs {lhs!r} is not a nonterminal")
            for sym in rhs:
                if sym not in declared:
                    raise GrammarError(f"undeclared symbol {sym!r} in production for {lhs}")


# ---------------------------------------------------------------------------
# statement-type profiles

# Gadget templates: one (kind, lhs slot, rhs slot) per statement. Slots: "q"
# and "a" are a node's query variable and its primed address variable, "u"
# and "v" the two ends of an edge, and integers temps (numbered t1, t2, ...
# across the whole program in order of first use). A node gadget's temps are
# its own; an edge gadget's are shared by all edges with the same source and
# label, so its statements that do not name "v" are emitted once per source
# and label, and those that do once per edge.
_ADDR, _COPY, _LOAD, _STORE = StatementKind
_STORE_EDGES = (((_ADDR, 1, "u"), (_STORE, "v", 1)), ((_ADDR, "u", 1), (_STORE, 1, "v")))
_LOAD_EDGES = (((_LOAD, "u", "v"),), ((_ADDR, "u", "v"),))

# profile -> (node gadget, open-edge gadget, close-edge gadget)
_PROFILE_GADGETS = {
    "case1": (((_LOAD, "q", 1), (_COPY, 1, 2), (_ADDR, 2, 3), (_ADDR, 3, "a")), *_STORE_EDGES),
    "case2": (((_COPY, "q", 1), (_ADDR, 1, "a")), *_STORE_EDGES),
    "case3": (((_LOAD, "q", 1), (_ADDR, 1, 2), (_ADDR, 2, "a")), *_STORE_EDGES),
    "case4": (((_COPY, "q", 1), (_ADDR, 1, "a")), *_LOAD_EDGES),
    "case5": (((_ADDR, "q", "a"),), *_STORE_EDGES),
    "case6": (((_ADDR, "q", "a"),), *_LOAD_EDGES),
}


class StatementProfile(enum.Enum):
    """Which statement kinds (besides the mandatory address-of) a reduced
    program may use. A profile is its `gadgets` table: its kinds are the
    kinds of its gadgets' statements, and nothing else records them."""

    CASE1 = "case1"  # star-assign + assign-star + assign
    CASE2 = "case2"  # star-assign + assign
    CASE3 = "case3"  # star-assign + assign-star
    CASE4 = "case4"  # assign-star + assign
    CASE5 = "case5"  # star-assign
    CASE6 = "case6"  # assign-star

    @property
    def gadgets(self) -> tuple:
        """(node gadget, open-edge gadget, close-edge gadget) templates."""
        return _PROFILE_GADGETS[self.value]

    @staticmethod
    def from_name(name: str) -> "StatementProfile":
        try:
            return StatementProfile(name.lower())
        except ValueError:
            raise InvalidParamsError(f"unknown profile {name!r}") from None


# ---------------------------------------------------------------------------
# reduction provenance

@dataclass(frozen=True)
class ReductionMap:
    """Provenance from input-instance entities to output-instance entities.

    `forward` maps a source key (matrix index or node id) to a tuple of
    target entities; `roles` names the tuple slots; `meta` holds named
    distinguished entities such as the source/sink of an s-t instance.
    """

    roles: tuple[str, ...]
    forward: Mapping[int, tuple]
    meta: Mapping[str, object] = field(default_factory=dict)

    def entity(self, key: int, role: str):
        return self.forward[key][self.roles.index(role)]
