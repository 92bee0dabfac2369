"""Pointer expression graphs.

Every variable v contributes three nodes (&v, v, *v). Statements become
labeled program edges, pointer structure becomes dereference edges, and the
graph is bidirected: each edge u -t-> v has a reverse v -t̄-> u, with the
bar spelled as a leading "-" on the label.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from .model import (
    LabeledDigraph,
    Program,
    StatementKind,
    Variable,
    _trusted,
)


def inverse_label(label: str) -> str:
    return label[1:] if label.startswith("-") else "-" + label


class ExprForm(enum.Enum):
    ADDR = 0   # &v
    VAR = 1    # v
    DEREF = 2  # *v


# the forms and their spelled prefixes in node order (&v, v, *v); `build_peg`
# iterates a tuple, since iterating the enum class goes through `EnumMeta`
_FORMS = tuple(ExprForm)
_PREFIXES = ("&", "", "*")

# statement kind -> (label, barred label, source offset, target offset) of its
# program edge, an offset being a form's place in (&v, v, *v)
_EDGE_OF_KIND = {
    kind: (label, inverse_label(label), source.value, target.value)
    for kind, label, source, target in (
        (StatementKind.ADDRESS_OF, "r", ExprForm.VAR, ExprForm.ADDR),     # a -r-> &b
        (StatementKind.ASSIGN, "s", ExprForm.VAR, ExprForm.VAR),          # a -s-> b
        (StatementKind.ASSIGN_STAR, "as", ExprForm.VAR, ExprForm.DEREF),  # a -as-> *b
        (StatementKind.STAR_ASSIGN, "sa", ExprForm.DEREF, ExprForm.VAR),  # *a -sa-> b
    )
}
PEG_ALPHABET = frozenset({"d", "-d"}.union(*((label, bar) for label, bar, _, _ in _EDGE_OF_KIND.values())))


@dataclass(frozen=True)
class PEG:
    """Bidirected expression graph plus the node -> expression mapping."""

    graph: LabeledDigraph
    expr_of: tuple[tuple[Variable, ExprForm], ...]

    def node(self, var: Variable, form: ExprForm) -> int:
        """Node id of an expression; the layout is (&v, v, *v) per variable."""
        return 3 * self._var_index[var] + form.value

    @cached_property
    def _var_index(self) -> dict[Variable, int]:
        return {var: i for i, (var, _) in enumerate(self.expr_of[1::3])}


def build_peg(program: Program) -> PEG:
    """Construct the expression graph of a normalized program.

    Per statement, one program edge from `_EDGE_OF_KIND`. Per variable
    v, the dereference edges &v -d-> v and v -d-> *v are always present.
    Every edge also gets its reverse with the barred label. Repeated
    statements give the same edge, so the edge set holds it once.
    """
    variables = program.variables
    index = {v: 3 * i for i, v in enumerate(variables)}
    edges: set[tuple[int, str, int]] = set()
    add = edges.add
    for base in index.values():
        add((base, "d", base + 1))
        add((base + 1, "-d", base))
        add((base + 1, "d", base + 2))
        add((base + 2, "-d", base + 1))
    for kind, lhs, rhs in program.statements:
        label, bar, soff, doff = _EDGE_OF_KIND[kind]
        src = index[lhs] + soff
        dst = index[rhs] + doff
        add((src, label, dst))
        add((dst, bar, src))

    names = [prefix + v.name for v in variables for prefix in _PREFIXES]
    expr_of = tuple((v, form) for v in variables for form in _FORMS)
    # ids below 3|V|, PEG labels, and names as distinct as the variables' and never id-like
    graph = _trusted(
        LabeledDigraph,
        node_count=3 * len(variables),
        alphabet=PEG_ALPHABET,
        edges=frozenset(edges),
        node_names=tuple(names) if names else None,
    )
    return PEG(graph, expr_of)
