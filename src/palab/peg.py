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
    MalformedPegError,
    Program,
    Statement,
    StatementKind,
    Variable,
)

LABEL_R = "r"
LABEL_S = "s"
LABEL_AS = "as"
LABEL_SA = "sa"
LABEL_D = "d"

PEG_BASE_LABELS = (LABEL_R, LABEL_S, LABEL_AS, LABEL_SA, LABEL_D)
PEG_ALPHABET = frozenset(PEG_BASE_LABELS) | frozenset("-" + t for t in PEG_BASE_LABELS)


def inverse_label(label: str) -> str:
    return label[1:] if label.startswith("-") else "-" + label


class ExprForm(enum.Enum):
    ADDR = 0   # &v
    VAR = 1    # v
    DEREF = 2  # *v

    def render(self, var: Variable) -> str:
        return _FORM_PREFIXES[self.value][1] + var.name


# each form with its spelled prefix, in node order (&v, v, *v)
_FORM_PREFIXES = ((ExprForm.ADDR, "&"), (ExprForm.VAR, ""), (ExprForm.DEREF, "*"))


# statement kind -> (label, source form, target form) of its program edge
_STATEMENT_EDGE = {
    StatementKind.ADDRESS_OF: (LABEL_R, ExprForm.VAR, ExprForm.ADDR),    # a -r-> &b
    StatementKind.ASSIGN: (LABEL_S, ExprForm.VAR, ExprForm.VAR),         # a -s-> b
    StatementKind.ASSIGN_STAR: (LABEL_AS, ExprForm.VAR, ExprForm.DEREF), # a -as-> *b
    StatementKind.STAR_ASSIGN: (LABEL_SA, ExprForm.DEREF, ExprForm.VAR), # *a -sa-> b
}
# `_STATEMENT_EDGE` as `build_peg` reads it: kind -> (label, barred label,
# source offset, target offset), an offset being a form's place in (&v, v, *v)
_EDGE_OF_KIND = {
    kind: (label, inverse_label(label), sform.value, dform.value)
    for kind, (label, sform, dform) in _STATEMENT_EDGE.items()
}
_LABEL_D_BAR = inverse_label(LABEL_D)


@dataclass(frozen=True)
class PEG:
    """Bidirected expression graph plus the node -> expression mapping."""

    graph: LabeledDigraph
    expr_of: tuple[tuple[Variable, ExprForm], ...]

    def node(self, var: Variable, form: ExprForm) -> int:
        """Node id of an expression; the layout is (&v, v, *v) per variable."""
        base = 3 * self._var_index[var]
        return base + form.value

    @cached_property
    def _var_index(self) -> dict[Variable, int]:
        return {var: i // 3 for i, (var, form) in enumerate(self.expr_of) if form is ExprForm.VAR}


def build_peg(program: Program) -> PEG:
    """Construct the expression graph of a normalized program.

    Per statement, one program edge from `_STATEMENT_EDGE`. Per variable
    v, the dereference edges &v -d-> v and v -d-> *v are always present.
    Every edge also gets its reverse with the barred label. Repeated
    statements give the same edge, so the edge set holds it once.
    """
    variables = program.variables
    index = {v: 3 * i for i, v in enumerate(variables)}
    edges: set[tuple[int, str, int]] = set()
    add = edges.add
    for base in index.values():
        add((base, LABEL_D, base + 1))
        add((base + 1, _LABEL_D_BAR, base))
        add((base + 1, LABEL_D, base + 2))
        add((base + 2, _LABEL_D_BAR, base + 1))
    for kind, lhs, rhs in program.statements:
        label, bar, soff, doff = _EDGE_OF_KIND[kind]
        src = index[lhs] + soff
        dst = index[rhs] + doff
        add((src, label, dst))
        add((dst, bar, src))

    expr_of = []
    names = []
    for v in variables:
        for form, prefix in _FORM_PREFIXES:
            expr_of.append((v, form))
            names.append(prefix + v.name)
    graph = LabeledDigraph(3 * len(variables), PEG_ALPHABET, edges, names or None)
    return PEG(graph, tuple(expr_of))


def peg_statements(peg: PEG) -> Program:
    """Recover the statement set encoded by a PEG's program edges."""
    kind_of = {label: kind for kind, (label, _, _) in _STATEMENT_EDGE.items()}
    out: list[Statement] = []
    for src, label, dst in sorted(peg.graph.edges):
        if label not in kind_of:
            continue
        svar, sform = peg.expr_of[src]
        dvar, dform = peg.expr_of[dst]
        kind = kind_of[label]
        if (label, sform, dform) != _STATEMENT_EDGE[kind]:
            raise MalformedPegError(
                f"{label}-edge joins {sform.render(svar)} and {dform.render(dvar)}, "
                "which reads back as no statement"
            )
        out.append(Statement(kind, svar, dvar))
    return Program(out)
