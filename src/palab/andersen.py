"""Inclusion-based points-to solver: difference propagation with lazy
cycle collapse.

The solver resolves the four constraint kinds over a constraint graph whose
copy edges grow during resolution:

    a = &b   loc(b) in pt(a)
    a = b    pt(b) subset-of pt(a)            (copy edge b -> a)
    a = *b   for v in pt(b): pt(v) subset-of pt(a)   (copy edge v -> a)
    *a = b   for v in pt(a): pt(b) subset-of pt(v)   (copy edge b -> v)

Points-to sets are bitsets indexed by variable id. Every node keeps a
difference set `delta` of the bits it gained since it was last processed.
A worklist pop snapshots and clears that delta and works on the snapshot
alone; bits that arrive meanwhile re-queue the node.

* Difference-driven complex constraints: `a = *n` and `*n = b` add copy
  edges for the snapshot's pointees only. A new edge carries its source's
  whole set once; later growth travels along it as deltas.
* Copy edges move the snapshot, not the whole set, to each successor.
* Lazy cycle detection (Hardekopf & Lin, PLDI 2007): when propagation along
  x -> z leaves pt(z) == pt(x) and that edge was never checked, a
  depth-first search from z looks for a way back to x. The nodes found on
  such paths lie on a copy-edge cycle, so their sets are equal at the fixed
  point; they collapse into one representative that takes over their sets,
  edges, loads and stores and is re-queued with delta = pt. `rep` is a flat
  list rewritten for every member of a merged group (smaller member list
  into larger), so finding a representative is one index.

The output builds one frozenset per distinct bitset and shares it between
variables. The result is the least fixed point of whole-set iteration,
whatever the worklist policy or statement order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Union

from .model import (
    PointsToSolution,
    Program,
    StatementKind,
    Variable,
    _ones,
)

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


def _cycle_through(x: int, z: int, succ: list[set[int]], rep: list[int]):
    """Nodes on copy-edge paths z ->* x that one depth-first search from z
    finds, x included; empty when x is not reached. Every such node shares
    a cycle with x through the edge x -> z."""
    reach = {x}
    seen = {x, z}
    stack = [(z, iter(succ[z]))]
    while stack:
        u, edges = stack[-1]
        for w in edges:
            w = rep[w]
            if w not in seen:
                seen.add(w)
                stack.append((w, iter(succ[w])))
                break
            if w in reach:
                reach.add(u)
        else:
            stack.pop()
            if u in reach and stack:
                reach.add(stack[-1][0])
    return reach if z in reach else ()


def solve(
    program: Program, policy: str = "fifo", stats: Optional[dict] = None
) -> PointsToSolution:
    """Least fixed point of the inclusion constraints; deterministic.

    `policy` picks the worklist discipline ("fifo" or "lifo"); both yield
    the identical solution, which the test suite pins. When `stats` is a
    dict, it receives the counters `pops` (nonempty deltas processed),
    `copy_edges` (edges added by complex constraints), `cycle_checks` and
    `merged` (variables collapsed into another representative).
    """
    if policy not in ("fifo", "lifo"):
        raise ValueError(f"unknown worklist policy {policy!r}")

    variables = program.variables
    nvars = len(variables)
    index = {v.name: i for i, v in enumerate(variables)}

    pt = [0] * nvars                                        # points-to bitset
    succ: list[set[int]] = [set() for _ in range(nvars)]    # copy edges n -> z
    loads: list[set[int]] = [set() for _ in range(nvars)]   # a for each "a = *n"
    stores: list[set[int]] = [set() for _ in range(nvars)]  # b for each "*n = b"
    address_of, assign, assign_star = (
        StatementKind.ADDRESS_OF, StatementKind.ASSIGN, StatementKind.ASSIGN_STAR
    )
    for kind, lhs, rhs in program.statements:
        a = index[lhs.name]
        b = index[rhs.name]
        if kind is address_of:
            pt[a] |= 1 << b
        elif kind is assign:
            if a != b:
                succ[b].add(a)
        elif kind is assign_star:
            loads[b].add(a)
        else:
            stores[a].add(b)

    # rep[i] is the node that stands for variable i, members[r] the variables
    # r stands for; merged-away nodes keep no state. The ids in succ, loads
    # and stores may name merged-away nodes until their owner is next popped:
    # clean[n] is the merge count when n's three sets were last rewritten.
    rep = list(range(nvars))
    members = [[i] for i in range(nvars)]
    clean = [0] * nvars
    delta = pt[:]
    work = deque(i for i in range(nvars) if pt[i])
    queued = bytearray(nvars)
    for i in work:
        queued[i] = 1
    pop = work.popleft if policy == "fifo" else work.pop
    push = work.append
    checked: set[int] = set()  # x * nvars + z for every edge x -> z searched from
    candidates: list[int] = []
    pops = new_edges = checks = merged = merges = 0

    def flow(bits: int, dst: int) -> int:
        """Merge bits into pt[dst], queueing dst when something new arrived;
        returns the new pt[dst]."""
        new = bits & ~pt[dst]
        if new:
            pt[dst] |= new
            delta[dst] |= new
            if not queued[dst]:
                queued[dst] = 1
                push(dst)
        return pt[dst]

    while work:
        n = pop()
        queued[n] = 0
        d = delta[n]
        if not d:  # nothing new, or n was merged away
            continue
        delta[n] = 0
        pops += 1

        if clean[n] != merges:
            succ[n] = {rep[z] for z in succ[n]}
            succ[n].discard(n)
            loads[n] = {rep[a] for a in loads[n]}
            stores[n] = {rep[b] for b in stores[n]}
            clean[n] = merges

        ld, sr = loads[n], stores[n]
        if ld or sr:
            pointees = {rep[v] for v in _ones(d)}
            for v in pointees if ld else ():  # a = *n: edges v -> a
                out = succ[v]
                fresh = ld - out
                fresh.discard(v)
                if fresh:
                    out |= fresh
                    new_edges += len(fresh)
                    for a in fresh:
                        flow(pt[v], a)
            for b in sr:  # *n = b: edges b -> v
                out = succ[b]
                fresh = pointees - out
                fresh.discard(b)
                if fresh:
                    out |= fresh
                    new_edges += len(fresh)
                    for v in fresh:
                        flow(pt[b], v)

        ptn = pt[n]
        for z in succ[n]:
            if flow(d, z) == ptn:
                key = n * nvars + z
                if key not in checked:
                    checked.add(key)
                    candidates.append(z)

        for z in candidates:
            x, z = rep[n], rep[z]
            if x == z:
                continue
            checks += 1
            cycle = _cycle_through(x, z, succ, rep)
            if not cycle:
                continue
            r = max(cycle, key=lambda u: len(members[u]))
            for o in cycle:
                if o != r:
                    for m in members[o]:
                        rep[m] = r
                    members[r] += members[o]
                    pt[r] |= pt[o]
                    succ[r] |= succ[o]
                    loads[r] |= loads[o]
                    stores[r] |= stores[o]
                    members[o], succ[o], loads[o], stores[o] = [], set(), set(), set()
                    pt[o] = delta[o] = 0
            merged += len(cycle) - 1
            merges += 1
            delta[r] = pt[r]
            if not queued[r]:
                queued[r] = 1
                push(r)
        candidates.clear()

    if stats is not None:
        stats.update(pops=pops, copy_edges=new_edges, cycle_checks=checks, merged=merged)

    shared: dict[int, frozenset[Variable]] = {}
    solution = {}
    for i, var in enumerate(variables):
        bits = pt[rep[i]]
        members_of = shared.get(bits)
        if members_of is None:
            members_of = shared[bits] = frozenset([variables[j] for j in _ones(bits)])
        solution[var] = members_of
    return PointsToSolution(pt=solution)


def query(
    solution: PointsToSolution, p: Union[Variable, str], q: Union[Variable, str]
) -> bool:
    """True iff loc(q) is in pt(p)."""
    return solution.query(p, q)
