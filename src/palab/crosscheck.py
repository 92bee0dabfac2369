"""Brute-force oracles, the BMM-via-D1 route (`multiply_via_d1`) and
randomized equivalence suites.

Each check_* suite compares two independently computed answers on the
instances of one trial loop, `_run`: trial k has seed
`tseed = seed * 1000003 + k`, trial 0 runs the suite's worked instance, and
every later trial draws its instance sizes and the seeds it hands to the
generators from `random.Random(tseed)`, so no two trials share a stream. A
mismatch is data, not an exception. The stdlib Mersenne Twister draws the
same instances on every machine, and a report carries no wall time, so
equal arguments give equal reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .andersen import solve
from .cfl import all_pairs, builtin_grammar, st_query
from .model import (
    BooleanMatrix,
    DimensionMismatchError,
    DYCK_CLOSE,
    DYCK_LABELS,
    DYCK_OPEN,
    InvalidParamsError,
    LabeledDigraph,
    Program,
    SelfLoopError,
    Statement,
    StatementKind,
    StatementProfile,
    Variable,
    _trusted,
)
from .peg import ExprForm, build_peg
from .reductions import D1Instance, bmm_to_d1, d1_to_program, triangle_to_st_d1

_SEED_STRIDE = 1000003


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one randomized suite; empty mismatches means it passed."""

    suite: str
    trials: int
    mismatches: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def summary_text(self) -> str:
        lines = [f"suite={self.suite} trials={self.trials} mismatches={len(self.mismatches)}"]
        for seed, instance, expected, got in self.mismatches:
            lines.append(f"MISMATCH seed={seed} instance={instance} expected={expected} got={got}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# oracles

def bmm_oracle(a: BooleanMatrix, b: BooleanMatrix) -> BooleanMatrix:
    """Triple-loop Boolean matrix product."""
    if a.n != b.n:
        raise DimensionMismatchError(f"matrix sizes differ: {a.n} vs {b.n}")
    n = a.n
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if a.bits[i][k] and b.bits[k][j]:
                    out[i][j] = 1
                    break
    return BooleanMatrix(out)


def triangle_oracle(graph: LabeledDigraph, directed: bool = False) -> bool:
    """Exhaustive triple enumeration for a triangle / directed 3-cycle."""
    n = graph.node_count
    adj = [[False] * n for _ in range(n)]
    for src, _, dst in graph.edges:
        if src == dst:
            raise SelfLoopError(f"self-loop at node {src}")
        adj[src][dst] = True
        if not directed:
            adj[dst][src] = True
    for u in range(n):
        for v in range(n):
            if v == u or not adj[u][v]:
                continue
            for w in range(n):
                if w in (u, v):
                    continue
                if adj[v][w] and adj[w][u]:
                    return True
    return False


# ---------------------------------------------------------------------------
# seeded random instances

def _pick(rng: random.Random, k: int) -> int:
    """A uniform draw from range(k); the min guards against float rounding."""
    return min(int(rng.random() * k), k - 1)


def rand_matrix(n: int, density: float, seed: int) -> BooleanMatrix:
    if n < 1 or not 0.0 <= density <= 1.0:
        raise InvalidParamsError("need n >= 1 and density in [0, 1]")
    rng = random.Random(seed)
    bits = tuple(tuple(1 if rng.random() < density else 0 for _ in range(n)) for _ in range(n))
    return _trusted(BooleanMatrix, n=n, bits=bits)  # n >= 1 rows of n 0/1 ints


def rand_program(max_vars: int, max_stmts: int, seed: int) -> Program:
    """Random normalized program over all four statement kinds, with at
    least one address-of statement so the points-to sets are non-trivial."""
    if max_vars < 1 or max_stmts < 1:
        raise InvalidParamsError("need max_vars >= 1 and max_stmts >= 1")
    rng = random.Random(seed)

    nvars = 1 + _pick(rng, max_vars)
    nstmts = 1 + _pick(rng, max_stmts)
    variables = [Variable(f"v{i}") for i in range(nvars)]
    kinds = list(StatementKind)
    statements = []
    for _ in range(nstmts):
        kind = kinds[_pick(rng, 4)]
        lhs, rhs = variables[_pick(rng, nvars)], variables[_pick(rng, nvars)]
        statements.append(Statement(kind, lhs, rhs))
    if all(st.kind is not StatementKind.ADDRESS_OF for st in statements):
        first = statements[0]
        statements[0] = Statement(StatementKind.ADDRESS_OF, first.lhs, first.rhs)
    return Program(statements)


def rand_dyck_graph(n: int, m: int, seed: int) -> LabeledDigraph:
    """n nodes and m distinct Dyck-1-labeled edges."""
    if n < 0 or m < 0:
        raise InvalidParamsError("need n >= 0 and m >= 0")
    if m > 2 * n * n:
        raise InvalidParamsError(f"cannot place {m} distinct edges on {n} nodes")
    rng = random.Random(seed)

    edges: set[tuple[int, str, int]] = set()
    while len(edges) < m:
        label = DYCK_OPEN if rng.random() < 0.5 else DYCK_CLOSE
        edges.add((_pick(rng, n), label, _pick(rng, n)))
    # `_pick` draws ids below n, and both labels are Dyck labels
    return _trusted(LabeledDigraph, node_count=n, alphabet=DYCK_LABELS,
                    edges=frozenset(edges), node_names=None)


def rand_simple_graph(
    n: int, density: float, seed: int, directed: bool = False
) -> LabeledDigraph:
    """Loop-free graph with label "e"; undirected edges stored once (u < v)."""
    if n < 0 or not 0.0 <= density <= 1.0:
        raise InvalidParamsError("need n >= 0 and density in [0, 1]")
    rng = random.Random(seed)
    edges = set()
    for u in range(n):
        for v in range(n):
            if u == v or (not directed and u > v):
                continue
            if rng.random() < density:
                edges.add((u, "e", v))
    # ids below n, and the one label "e"
    return _trusted(LabeledDigraph, node_count=n, alphabet=frozenset({"e"}),
                    edges=frozenset(edges), node_names=None)


# ---------------------------------------------------------------------------
# worked instances injected as trial 0

def worked_matrices() -> tuple[BooleanMatrix, BooleanMatrix]:
    a = BooleanMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    b = BooleanMatrix([[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]])
    return a, b


def worked_program() -> Program:
    a, b, c, d = (Variable(x) for x in "abcd")
    return Program(
        [
            Statement(StatementKind.ADDRESS_OF, a, b),
            Statement(StatementKind.ADDRESS_OF, b, d),
            Statement(StatementKind.ASSIGN_STAR, c, a),
        ]
    )


def worked_dyck_graph() -> LabeledDigraph:
    return bmm_to_d1(*worked_matrices()).graph


def worked_triangle_graph() -> LabeledDigraph:
    # w-x, x-y, y-z, x-z: one triangle through x, y, z
    edges = {(0, "e", 1), (1, "e", 2), (2, "e", 3), (1, "e", 3)}
    return LabeledDigraph(4, {"e"}, edges, ("w", "x", "y", "z"))


# ---------------------------------------------------------------------------
# suites

def _run(suite: str, trials: int, seed: int, trial) -> CheckReport:
    """The trial loop: `trial(tseed, rng)` returns one instance's
    mismatches, with rng None on trial 0 (the worked instance) and
    `random.Random(tseed)` on every later trial."""
    if trials < 1:
        raise InvalidParamsError("need trials >= 1")
    mismatches = []
    for k in range(trials):
        tseed = seed * _SEED_STRIDE + k
        mismatches += trial(tseed, random.Random(tseed) if k else None)
    return CheckReport(suite, trials, tuple(mismatches))


def multiply_via_d1(a: BooleanMatrix, b: BooleanMatrix) -> BooleanMatrix:
    """The BMM-via-D1 route: the Boolean product of `a` and `b` read off
    their `bmm_to_d1` instance by `_product_via_d1`."""
    return _product_via_d1(bmm_to_d1(a, b), a.n)


def _product_via_d1(inst: D1Instance, n: int) -> BooleanMatrix:
    """The Boolean product read off the Dyck-1 reachability of a `bmm_to_d1`
    instance of n x n matrices, from x_i to z_j through its map."""
    grammar = builtin_grammar("d1")
    summaries = all_pairs(inst.graph, grammar)
    xs = [inst.map.entity(i, "x") for i in range(n)]
    zs = [inst.map.entity(j, "z") for j in range(n)]
    return BooleanMatrix([[int(summaries.holds(x, grammar.start, z)) for z in zs] for x in xs])


def check_bmm_chain(
    n_max: int,
    trials: int,
    seed: int,
    profile: StatementProfile = StatementProfile.CASE1,
) -> CheckReport:
    """bmm_oracle == the BMM-via-D1 route == points-to readback, per trial;
    both routes read one `bmm_to_d1` instance."""
    if n_max < 1:
        raise InvalidParamsError("need n_max >= 1")

    def trial(tseed, rng):
        if rng is None:
            a, b = worked_matrices()
        else:
            n = 1 + _pick(rng, n_max)
            a = rand_matrix(n, 0.3, _pick(rng, 1 << 32))
            b = rand_matrix(n, 0.3, _pick(rng, 1 << 32))
        n = a.n
        expected = bmm_oracle(a, b)
        inst = bmm_to_d1(a, b)
        via_graph = _product_via_d1(inst, n)
        program, pmap = d1_to_program(inst.graph, profile)
        solution = solve(program)
        xs = [pmap.forward[inst.map.entity(i, "x")][0] for i in range(n)]
        zs = [pmap.forward[inst.map.entity(j, "z")][1] for j in range(n)]
        readback = BooleanMatrix([[int(solution.query(x, z)) for z in zs] for x in xs])
        return [
            (tseed, f"n={n} stage={stage}", expected.bits, got.bits)
            for stage, got in (("graph", via_graph), ("readback", readback))
            if got != expected
        ]

    return _run("bmm", trials, seed, trial)


def check_peg_equivalence(trials: int, seed: int) -> CheckReport:
    """Solver points-to facts == Pt-reachability facts on the program's PEG."""
    pt_grammar = builtin_grammar("pt")

    def trial(tseed, rng):
        program = worked_program() if rng is None else rand_program(12, 25, _pick(rng, 1 << 32))
        solution = solve(program)
        peg = build_peg(program)
        summaries = all_pairs(peg.graph, pt_grammar)
        mismatches = []
        for p in program.variables:
            src = peg.node(p, ExprForm.VAR)
            for q in program.variables:
                expected = solution.query(p, q)
                got = summaries.holds(src, pt_grammar.start, peg.node(q, ExprForm.ADDR))
                if expected != got:
                    mismatches.append((tseed, f"pair=({p},{q})", expected, got))
        return mismatches

    return _run("peg", trials, seed, trial)


def check_pt_prime(trials: int, seed: int) -> CheckReport:
    """On reduction-built PEGs, points-to facts into primed address nodes
    coincide with the subset-only reachability between query nodes."""
    pt_grammar = builtin_grammar("pt")
    prime_grammar = builtin_grammar("pt_prime")

    def trial(tseed, rng):
        if rng is None:
            graph = worked_dyck_graph()
        else:
            n = 1 + _pick(rng, 10)
            m = _pick(rng, 16)
            graph = rand_dyck_graph(n, min(m, 2 * n * n), _pick(rng, 1 << 32))
        program, pmap = d1_to_program(graph, StatementProfile.CASE1)
        peg = build_peg(program)
        full = all_pairs(peg.graph, pt_grammar)
        pruned = all_pairs(peg.graph, prime_grammar)
        mismatches = []
        for u in range(graph.node_count):
            u_node = peg.node(pmap.forward[u][0], ExprForm.VAR)
            for v in range(graph.node_count):
                black_gray = full.holds(
                    u_node, pt_grammar.start, peg.node(pmap.forward[v][1], ExprForm.ADDR)
                )
                black_black = pruned.holds(
                    u_node, prime_grammar.start, peg.node(pmap.forward[v][0], ExprForm.VAR)
                )
                if black_gray != black_black:
                    mismatches.append((tseed, f"pair=({u},{v})", black_gray, black_black))
        return mismatches

    return _run("pt-prime", trials, seed, trial)


def check_triangle_chain(
    n_max: int,
    trials: int,
    seed: int,
    directed: bool = False,
    profile: StatementProfile = StatementProfile.CASE1,
) -> CheckReport:
    """triangle_oracle == s-t Dyck-1 reachability of the reduced graph ==
    points-to readback q(s) -> a(t) of that graph's reduced program."""
    if n_max < 3:
        raise InvalidParamsError("need n_max >= 3")
    d1 = builtin_grammar("d1")

    def trial(tseed, rng):
        if rng is None:
            graph = worked_triangle_graph()
        else:
            n = 3 + _pick(rng, n_max - 2)
            graph = rand_simple_graph(n, 0.3, _pick(rng, 1 << 32), directed)
        expected = triangle_oracle(graph, directed)
        inst = triangle_to_st_d1(graph, directed)
        via_graph = st_query(inst.graph, d1, inst.s, inst.t)
        program, pmap = d1_to_program(inst.graph, profile)
        readback = solve(program).query(pmap.forward[inst.s][0], pmap.forward[inst.t][1])
        return [
            (tseed, f"n={graph.node_count} m={len(graph.edges)} stage={stage}", expected, got)
            for stage, got in (("graph", via_graph), ("readback", readback))
            if got != expected
        ]

    return _run("triangle", trials, seed, trial)
