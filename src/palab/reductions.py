"""Constructive reductions with exact size bookkeeping.

* Boolean matrix product -> Dyck-1 reachability on a 3-layer graph
  (3n nodes, one edge per non-zero entry).
* Dyck-1 reachability -> a normalized pointer program, for any of the six
  statement-type profiles (node gadgets make each query variable point to
  its primed address variable; edge gadgets, with temps shared per source
  and label, encode the bracket labels).
* Triangle detection -> single-source/single-target Dyck-1 reachability on
  a 4-layer graph with bracket chains through s and t and one hop node per
  layer copy.

All outputs are byte-deterministic for a given input, and every reduction
returns a provenance map from input entities to output entities. The module
only constructs, and it imports nothing but `model`; the routes that saturate
or solve a reduced instance and read the answer back are in `crosscheck`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable

from .model import (
    AlphabetMismatchError,
    BooleanMatrix,
    DimensionMismatchError,
    DYCK_CLOSE,
    DYCK_LABELS,
    DYCK_OPEN,
    InvalidParamsError,
    LabeledDigraph,
    Program,
    ReductionMap,
    SelfLoopError,
    Statement,
    StatementProfile,
    Variable,
    _trusted,
    is_identifier,
    is_node_id,
)


@dataclass(frozen=True)
class D1Instance:
    """A Dyck-1 reachability instance plus provenance for its layers."""

    graph: LabeledDigraph
    map: ReductionMap


@dataclass(frozen=True)
class StInstance:
    """A Dyck-1 instance with distinguished source and sink nodes.

    The public constructor checks that no edge enters s and none leaves t;
    `triangle_to_st_d1` builds its instances through `_trusted`."""

    graph: LabeledDigraph
    s: int
    t: int
    map: ReductionMap

    def __post_init__(self):
        for src, _, dst in self.graph.edges:
            if dst == self.s:
                raise InvalidParamsError("source node must have no incoming edges")
            if src == self.t:
                raise InvalidParamsError("sink node must have no outgoing edges")


# ---------------------------------------------------------------------------
# Boolean matrix product -> Dyck-1 reachability

def bmm_to_d1(a: BooleanMatrix, b: BooleanMatrix) -> D1Instance:
    """Three layers x/y/z of n nodes each; a[i][j]=1 adds x_i -[1-> y_j and
    b[i][j]=1 adds y_i -]1-> z_j."""
    if a.n != b.n:
        raise DimensionMismatchError(f"matrix sizes differ: {a.n} vs {b.n}")
    n = a.n
    names = [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)] + [f"z{i}" for i in range(n)]
    edges = set()
    for i in range(n):
        for j in range(n):
            if a.bits[i][j]:
                edges.add((i, DYCK_OPEN, n + j))
            if b.bits[i][j]:
                edges.add((n + i, DYCK_CLOSE, 2 * n + j))
    # ids below 3n, Dyck labels, and the x/y/z names are distinct and not id-like
    graph = _trusted(
        LabeledDigraph,
        node_count=3 * n,
        alphabet=DYCK_LABELS,
        edges=frozenset(edges),
        node_names=tuple(names),
    )
    rmap = ReductionMap(
        roles=("x", "y", "z"),
        forward={i: (i, n + i, 2 * n + i) for i in range(n)},
        meta={"n": n, "x_base": 0, "y_base": n, "z_base": 2 * n},
    )
    return D1Instance(graph, rmap)


# ---------------------------------------------------------------------------
# Dyck-1 reachability -> pointer program

def _node_base_names(graph: LabeledDigraph, nodes: Iterable[int]) -> dict[int, str]:
    """The base name of each of `nodes`. Node v of an unnamed graph is
    `n<v>`. A named graph falls back to `n<v>` for a name that is not an
    identifier or is a temp's, and for every node if two names would then
    clash; only a named graph, whose names are in memory already, is read
    whole for that check."""
    if graph.node_names is None:
        return {v: f"n{v}" for v in nodes}
    names = []
    for v, name in enumerate(graph.node_names):
        # temps are reserved; fall back rather than collide with t<i>
        if not is_identifier(name) or (name[0] == "t" and name[1:].isdigit()):
            name = f"n{v}"
        names.append(name)
    taken = set(names)
    if len(taken) != len(names) or any(name + "'" in taken for name in names):
        return {v: f"n{v}" for v in nodes}
    return {v: names[v] for v in nodes}


def d1_to_program(
    graph: LabeledDigraph,
    profile: StatementProfile = StatementProfile.CASE1,
    prune_isolated: bool = False,
) -> tuple[Program, ReductionMap]:
    """Emit the pointer program whose points-to facts mirror Dyck-1
    reachability: u reaches v iff the query variable of u points to the
    primed address variable of v.

    One node gadget per node, then the edge gadgets in sorted edge order,
    each instantiated from `profile.gadgets` (the table in `model`). A node
    gadget's temps are its own. An edge gadget's temps are shared by every
    edge with the same source u and label: the first such edge emits the
    whole gadget, and each later one only the statements that name its
    target `v`, so the program has O(n) variables for n nodes. This is
    exact by location equivalence (Hardekopf & Lin, SAS 2007): an open
    temp points to u alone, and the close temps of u would enter points-to
    sets only together, through `u = &t`, with equal sets of their own.
    `prune_isolated` drops the node gadgets of degree-0 nodes.
    """
    if not graph.alphabet <= DYCK_LABELS:
        raise AlphabetMismatchError(graph.alphabet - DYCK_LABELS)

    node_gadget, open_gadget, close_gadget = profile.gadgets
    if prune_isolated:
        nodes = sorted({node for src, _, dst in graph.edges for node in (src, dst)})
    else:
        nodes = range(graph.node_count)
    base = _node_base_names(graph, nodes)
    # base names, their primes and t<i> are identifiers: no check, as in `parse_program`
    new = tuple.__new__
    qvars = {v: new(Variable, (name,)) for v, name in base.items()}
    statements: list[Statement] = []
    forward: dict[int, tuple] = {}
    temps = 0

    def emit(gadget, slots: dict):
        nonlocal temps
        for kind, lhs, rhs in gadget:
            for slot in (lhs, rhs):
                if slot not in slots:  # a temp's first use
                    temps += 1
                    slots[slot] = new(Variable, (f"t{temps}",))
            statements.append(new(Statement, (kind, slots[lhs], slots[rhs])))

    for v in nodes:
        qvar, avar = qvars[v], new(Variable, (base[v] + "'",))
        forward[v] = (qvar, avar)
        emit(node_gadget, {"q": qvar, "a": avar})
    edge_gadgets = {DYCK_OPEN: open_gadget, DYCK_CLOSE: close_gadget}
    # a later edge of one source and label repeats only what names its target
    repeats = {label: tuple(st for st in g if "v" in st[1:]) for label, g in edge_gadgets.items()}
    for (src, label), group in groupby(sorted(graph.edges), key=itemgetter(0, 1)):
        gadget, slots = edge_gadgets[label], {"u": qvars[src]}
        for _, _, dst in group:
            slots["v"] = qvars[dst]
            emit(gadget, slots)
            gadget = repeats[label]

    rmap = ReductionMap(
        roles=("query_var", "addr_var"),
        forward=forward,
        meta={"profile": profile.value, "prune_isolated": prune_isolated},
    )
    return Program(statements), rmap


# ---------------------------------------------------------------------------
# triangle detection -> s-t Dyck-1 reachability

def _edge_pairs(graph: LabeledDigraph, directed: bool) -> list[tuple[int, int]]:
    """Sorted distinct edge endpoints; undirected pairs as (low, high)."""
    pairs = set()
    for src, _, dst in graph.edges:
        if src == dst:
            raise SelfLoopError(f"self-loop at node {src}")
        pairs.add((src, dst) if directed or src < dst else (dst, src))
    return sorted(pairs)


def triangle_to_st_d1(graph: LabeledDigraph, directed: bool = False) -> StInstance:
    """Four layer copies per node, u_j = 4u + j (j in 0..3), plus s = 4n
    and t = 4n + 1, and, if the input has an edge, three hop nodes per node.

    An open-bracket chain runs from s through layer 0 (ascending node
    order) and a close-bracket chain from layer 3 back into t, so the walk
    down to any u_0 and up from the matching u_3 is balanced. Layer copy
    u_j (j in 0..2) opens into its hop node aux(u, j) = 4n + 2 + 3u + j, and
    each input edge (u, v) closes aux(u, j) into v_{j+1}; undirected inputs
    also close aux(v, j) into u_{j+1}. A triangle through u is then exactly
    a balanced s-to-t walk via u_0 .. u_3. Sharing the hop is exact: aux(u,
    j) is entered only from u_j, so a walk through it is a walk through a
    per-edge hop with the same labels. With m >= 1 input edges the graph
    has 7n + 2 nodes and 5n + 6m edges (5n + 3m directed).
    """
    pairs = _edge_pairs(graph, directed)
    n = graph.node_count
    s_node, t_node = 4 * n, 4 * n + 1
    edges: set[tuple[int, str, int]] = set()
    if n:
        edges.add((s_node, DYCK_OPEN, 0))
        edges.add((3, DYCK_CLOSE, t_node))
    for u in range(1, n):
        edges.add((4 * u - 4, DYCK_OPEN, 4 * u))
        edges.add((4 * u + 3, DYCK_CLOSE, 4 * u - 1))

    hops = range(n if pairs else 0)
    for u in hops:
        for j in range(3):
            edges.add((4 * u + j, DYCK_OPEN, 4 * n + 2 + 3 * u + j))
    for u, v in pairs:
        for j in range(3):
            edges.add((4 * n + 2 + 3 * u + j, DYCK_CLOSE, 4 * v + j + 1))
            if not directed:
                edges.add((4 * n + 2 + 3 * v + j, DYCK_CLOSE, 4 * u + j + 1))

    aux_names = [f"t{3 * u + j}" for u in hops for j in range(3)]
    base = graph.node_names or [f"n{v}" for v in range(n)]
    names = [f"{base[u]}{j}" for u in range(n) for j in range(4)] + ["s", "t"] + aux_names
    # a name "-" or "" would make its layer copies read as ids ("-0", "0")
    if len(set(names)) != len(names) or any(is_node_id(name + "0") for name in base):
        names = [f"n{u}_{j}" for u in range(n) for j in range(4)] + ["s", "t"] + aux_names

    # ids below len(names) = 7n + 2; the check above made the names distinct, not id-like
    out = _trusted(
        LabeledDigraph,
        node_count=len(names),
        alphabet=DYCK_LABELS,
        edges=frozenset(edges),
        node_names=tuple(names),
    )
    rmap = ReductionMap(
        roles=("layer0", "layer1", "layer2", "layer3"),
        forward={u: tuple(range(4 * u, 4 * u + 4)) for u in range(n)},
        meta={"s": s_node, "t": t_node, "directed": directed},
    )
    # s has one edge, out to 0_0, and t one edge, in from 0_3
    return _trusted(StInstance, graph=out, s=s_node, t=t_node, map=rmap)
