"""Brute-force oracles and randomized equivalence suites.

Each check_* suite runs a known worked instance as trial 0 and seeded random
instances afterwards, comparing two independently computed answers; a
mismatch is data, not an exception. Instance generation uses the stdlib
Mersenne Twister (random.Random) seeded with `seed * 1000003 + trial`, so
reports reproduce across machines.
"""

from __future__ import annotations

import random
import time
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
)
from .peg import ExprForm, build_peg
from .reductions import bmm_to_d1, d1_to_program, multiply_via_d1, triangle_to_st_d1

_SEED_STRIDE = 1000003


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one randomized suite; empty mismatches means it passed."""

    suite: str
    trials: int
    mismatches: tuple[tuple, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def summary_text(self) -> str:
        lines = [
            f"suite={self.suite} trials={self.trials} "
            f"mismatches={len(self.mismatches)} elapsed={self.elapsed:.2f}s"
        ]
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
    return BooleanMatrix(
        [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    )


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
    return LabeledDigraph(n, DYCK_LABELS, edges)


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
    return LabeledDigraph(n, {"e"}, edges)


def rand_instance(kind: str, params: dict, seed: int):
    """Dispatch by kind: matrix, program, dyck_graph, or simple_graph."""
    try:
        if kind == "matrix":
            return rand_matrix(params["n"], params.get("density", 0.3), seed)
        if kind == "program":
            return rand_program(params["max_vars"], params["max_stmts"], seed)
        if kind == "dyck_graph":
            return rand_dyck_graph(params["n"], params["m"], seed)
        if kind == "simple_graph":
            return rand_simple_graph(
                params["n"], params.get("density", 0.3), seed, params.get("directed", False)
            )
    except KeyError as missing:
        raise InvalidParamsError(f"missing parameter {missing} for {kind}") from None
    raise InvalidParamsError(f"unknown instance kind {kind!r}")


def _trial_seed(seed: int, trial: int) -> int:
    return seed * _SEED_STRIDE + trial


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

def check_bmm_chain(
    n_max: int,
    trials: int,
    seed: int,
    profile: StatementProfile = StatementProfile.CASE1,
) -> CheckReport:
    """bmm_oracle == multiply_via_d1 == points-to readback, per trial."""
    if n_max < 1 or trials < 1:
        raise InvalidParamsError("need n_max >= 1 and trials >= 1")
    started = time.perf_counter()
    mismatches = []
    for trial in range(trials):
        tseed = _trial_seed(seed, trial)
        if trial == 0:
            a, b = worked_matrices()
        else:
            rng = random.Random(tseed)
            n = 1 + _pick(rng, n_max)
            a = rand_matrix(n, 0.3, tseed + 1)
            b = rand_matrix(n, 0.3, tseed + 2)
        expected = bmm_oracle(a, b)
        via_graph = multiply_via_d1(a, b)
        inst = bmm_to_d1(a, b)
        program, pmap = d1_to_program(inst.graph, profile)
        solution = solve(program)
        n = a.n
        readback = BooleanMatrix(
            [
                [
                    1
                    if solution.query(
                        pmap.forward[inst.map.entity(i, "x")][0],
                        pmap.forward[inst.map.entity(j, "z")][1],
                    )
                    else 0
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        if via_graph != expected:
            mismatches.append((tseed, f"n={n} stage=graph", expected.bits, via_graph.bits))
        if readback != expected:
            mismatches.append((tseed, f"n={n} stage=readback", expected.bits, readback.bits))
    return CheckReport(
        "bmm", trials, tuple(mismatches), time.perf_counter() - started
    )


def check_peg_equivalence(trials: int, seed: int) -> CheckReport:
    """Solver points-to facts == Pt-reachability facts on the program's PEG."""
    if trials < 1:
        raise InvalidParamsError("need trials >= 1")
    started = time.perf_counter()
    pt_grammar = builtin_grammar("pt")
    mismatches = []
    for trial in range(trials):
        tseed = _trial_seed(seed, trial)
        program = worked_program() if trial == 0 else rand_program(12, 25, tseed)
        solution = solve(program)
        peg = build_peg(program)
        summaries = all_pairs(peg.graph, pt_grammar)
        for p in program.variables:
            src = peg.node(p, ExprForm.VAR)
            for q in program.variables:
                expected = solution.query(p, q)
                got = summaries.holds(src, "Pt", peg.node(q, ExprForm.ADDR))
                if expected != got:
                    mismatches.append((tseed, f"pair=({p},{q})", expected, got))
    return CheckReport("peg", trials, tuple(mismatches), time.perf_counter() - started)


def check_pt_prime(trials: int, seed: int) -> CheckReport:
    """On reduction-built PEGs, points-to facts into primed address nodes
    coincide with the subset-only reachability between query nodes."""
    if trials < 1:
        raise InvalidParamsError("need trials >= 1")
    started = time.perf_counter()
    pt_grammar = builtin_grammar("pt")
    prime_grammar = builtin_grammar("pt_prime")
    mismatches = []
    for trial in range(trials):
        tseed = _trial_seed(seed, trial)
        if trial == 0:
            graph = worked_dyck_graph()
        else:
            rng = random.Random(tseed)
            n = 1 + _pick(rng, 10)
            m = _pick(rng, 16)
            graph = rand_dyck_graph(n, min(m, 2 * n * n), tseed + 1)
        program, pmap = d1_to_program(graph, StatementProfile.CASE1)
        peg = build_peg(program)
        full = all_pairs(peg.graph, pt_grammar)
        pruned = all_pairs(peg.graph, prime_grammar)
        for u in range(graph.node_count):
            u_node = peg.node(pmap.forward[u][0], ExprForm.VAR)
            for v in range(graph.node_count):
                black_gray = full.holds(
                    u_node, "Pt", peg.node(pmap.forward[v][1], ExprForm.ADDR)
                )
                black_black = pruned.holds(
                    u_node, "Pt'", peg.node(pmap.forward[v][0], ExprForm.VAR)
                )
                if black_gray != black_black:
                    mismatches.append((tseed, f"pair=({u},{v})", black_gray, black_black))
    return CheckReport("pt-prime", trials, tuple(mismatches), time.perf_counter() - started)


def check_triangle_chain(
    n_max: int, trials: int, seed: int, directed: bool = False
) -> CheckReport:
    """triangle_oracle == s-t Dyck-1 reachability of the reduced graph."""
    if n_max < 3 or trials < 1:
        raise InvalidParamsError("need n_max >= 3 and trials >= 1")
    started = time.perf_counter()
    d1 = builtin_grammar("d1")
    mismatches = []
    for trial in range(trials):
        tseed = _trial_seed(seed, trial)
        if trial == 0:
            graph = worked_triangle_graph()
        else:
            rng = random.Random(tseed)
            n = 3 + _pick(rng, n_max - 2)
            graph = rand_simple_graph(n, 0.3, tseed + 1, directed)
        expected = triangle_oracle(graph, directed)
        inst = triangle_to_st_d1(graph, directed)
        got = st_query(inst.graph, d1, inst.s, inst.t)
        if expected != got:
            mismatches.append(
                (tseed, f"n={graph.node_count} m={len(graph.edges)}", expected, got)
            )
    return CheckReport("triangle", trials, tuple(mismatches), time.perf_counter() - started)
