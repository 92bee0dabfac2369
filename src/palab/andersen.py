"""Inclusion-based points-to solver: offline and lazy cycle collapse,
difference propagation, set-at-a-time joins.

The solver resolves the four constraint kinds over a constraint graph whose
copy edges grow during resolution:

    a = &b   loc(b) in pt(a)
    a = b    pt(b) subset-of pt(a)            (copy edge b -> a)
    a = *b   for v in pt(b): pt(v) subset-of pt(a)   (copy edge v -> a)
    *a = b   for v in pt(a): pt(b) subset-of pt(v)   (copy edge b -> v)

Points-to sets are bitsets indexed by variable id.

1. Offline phase: one iterative Tarjan pass collapses every cycle of the
   `a = b` edges before the first pop.
2. Worklist phase: every node keeps a difference set `delta` of the bits it
   gained since it was last processed, and a live node is on the worklist
   iff its delta is non-zero. A pop snapshots and clears it and works on
   the snapshot alone; bits that arrive meanwhile re-queue it.
   * Pointees: the snapshot's bits outside any merged group, plus one
     representative per group that it meets (one AND per group).
   * `a = *n` and `*n = b` add copy edges for those pointees. Every edge
     between the two sides is a constraint, so one OR of the sources that
     gained an edge flows into every target; later growth travels as deltas.
   * Copy edges move the snapshot, not the whole set, to each successor.
   * Lazy cycle detection (Hardekopf & Lin, PLDI 2007): when propagation
     along x -> z leaves pt(z) == pt(x) and that edge was never checked, the
     offline phase's Tarjan pass, rooted at z, finds z's copy-edge component;
     it is a cycle through x -> z when it holds x.

Both phases merge a cycle the same way: its nodes' sets are equal at the
fixed point, so the one that stands for the most variables takes over the
others' sets, edges, loads and stores and gets delta = pt; so does every
other node with a non-empty set once the offline phase ends.
`rep` is a flat list, so finding a representative is one index. The output
is the bitsets themselves, each variable's row being its representative's
set; no frozenset is built unless `PointsToSolution.pt` is read.
The worklist is first in, first out. The result is the least fixed point of
whole-set iteration, whatever the pop order or statement order.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from .model import PointsToSolution, Program, StatementKind, _ones


def _copy_sccs(
    succ: list[set[int]], rep: Sequence[int], roots: Iterable[int]
) -> list[list[int]]:
    """Copy-edge cycles (components of more than one node) reachable from
    `roots`, by one iterative Tarjan pass that reads edge targets through
    `rep`. Each component comes after every one that it reaches. low[u] is 0
    until u is visited, then its 1-based stack depth lowered to the least one
    it reaches, then len(succ) + 1 once closed."""
    done = len(succ) + 1
    low = [0] * len(succ)
    step = rep.__getitem__
    found = []
    for root in roots:
        if low[root] or not succ[root]:
            continue
        stack = [root]  # every earlier component is closed
        low[root] = 1
        calls = [(root, 1, map(step, succ[root]))]
        while calls:
            u, mark, edges = calls[-1]
            for w in edges:
                if not low[w]:
                    stack.append(w)
                    low[w] = len(stack)
                    calls.append((w, len(stack), map(step, succ[w])))
                    break
                if low[w] < low[u]:
                    low[u] = low[w]
            else:
                calls.pop()
                if low[u] == mark == len(stack):  # a component of one node
                    low[u] = done
                    stack.pop()
                elif low[u] == mark:
                    component = stack[mark - 1:]
                    del stack[mark - 1:]
                    for w in component:
                        low[w] = done
                    found.append(component)
                elif low[u] < low[calls[-1][0]]:
                    low[calls[-1][0]] = low[u]
    return found


def solve(program: Program, stats: Optional[dict] = None) -> PointsToSolution:
    """Least fixed point of the inclusion constraints; deterministic.

    When `stats` is a dict, it receives the counters `pops` (nonempty deltas
    processed), `copy_edges` (edges added by complex constraints),
    `cycle_checks` (initial copy-edge SCCs collapsed, plus Tarjan passes
    rooted at z for a lazily found cycle) and `merged` (variables collapsed
    into another representative, by either phase).
    """
    variables = program.variables
    nvars = len(variables)
    index = {v: i for i, v in enumerate(variables)}

    pt = [0] * nvars                                        # points-to bitset
    succ: list[set[int]] = [set() for _ in range(nvars)]    # copy edges n -> z
    loads: list[set[int]] = [set() for _ in range(nvars)]   # a for each "a = *n"
    stores: list[set[int]] = [set() for _ in range(nvars)]  # b for each "*n = b"
    address_of, assign, assign_star = (
        StatementKind.ADDRESS_OF, StatementKind.ASSIGN, StatementKind.ASSIGN_STAR
    )
    for kind, lhs, rhs in program.statements:
        a = index[lhs]
        b = index[rhs]
        if kind is address_of:
            pt[a] |= 1 << b
        elif kind is assign:
            if a != b:
                succ[b].add(a)
        elif kind is assign_star:
            loads[b].add(a)
        else:
            stores[a].add(b)

    # rep[i] stands for variable i; merged-away nodes keep no state. groups[r]
    # is the bitset of the variables that r stands for, if more than itself;
    # a variable outside their union `grouped` is its own representative.
    # Ids in succ, loads and stores may be stale until their owner is next
    # popped: clean[n] is `merged` when n's sets were last rewritten.
    rep = list(range(nvars))
    groups: dict[int, int] = {}
    grouped = 0
    clean = [0] * nvars
    delta = [0] * nvars
    work: deque[int] = deque()
    pop = work.popleft
    push = work.append
    checked: set[int] = set()  # x * nvars + z for every edge x -> z searched from
    candidates: list[int] = []
    pops = new_edges = checks = merged = 0

    def collapse(cycle) -> None:
        """Merge the nodes of one copy-edge cycle into the one that stands
        for the most variables, and give it delta = pt."""
        nonlocal grouped, merged
        r = max(cycle, key=lambda u: groups.get(u, 1 << u).bit_count())
        mask = 0
        for o in cycle:
            own = groups.pop(o, 1 << o)
            mask |= own
            if o != r:
                for m in _ones(own):
                    rep[m] = r
                for table in (succ, loads, stores):
                    table[r] |= table[o]
                    table[o] = set()
                pt[r] |= pt[o]
                pt[o] = delta[o] = 0
        groups[r] = mask
        grouped |= mask
        merged += len(cycle) - 1
        if pt[r] and not delta[r]:
            push(r)
        delta[r] = pt[r]

    def join(sources, targets: set[int]) -> None:
        """Add the copy edges from every source to every target, then flow
        one OR of the sources that gained an edge into every target."""
        nonlocal new_edges
        gained = 0
        for u in sources:
            fresh = targets - succ[u]
            fresh.discard(u)
            if fresh:
                succ[u] |= fresh
                new_edges += len(fresh)
                gained |= pt[u]
        if gained:
            for t in targets:
                new = gained & ~pt[t]
                if new:
                    pt[t] |= new
                    if not delta[t]:
                        push(t)
                    delta[t] |= new

    for component in _copy_sccs(succ, rep, range(nvars)):  # the offline phase
        checks += 1
        collapse(component)
    for i in range(nvars):
        if pt[i] and not delta[i]:
            delta[i] = pt[i]
            push(i)

    while work:
        n = pop()
        d = delta[n]
        if not d:  # n was merged away
            continue
        delta[n] = 0
        pops += 1

        if clean[n] != merged:
            succ[n] = {rep[z] for z in succ[n]}
            succ[n].discard(n)
            loads[n] = {rep[a] for a in loads[n]}
            stores[n] = {rep[b] for b in stores[n]}
            clean[n] = merged

        ld, sr = loads[n], stores[n]
        if ld or sr:
            pointees = _ones(d & ~grouped)
            if d & grouped:
                pointees += [r for r, mask in groups.items() if d & mask]
            if ld:
                join(pointees, ld)  # a = *n: edges v -> a
            if sr:
                join(sr, set(pointees))  # *n = b: edges b -> v

        ptn = pt[n]
        for z in succ[n]:  # copy edges move the snapshot
            ptz = pt[z]
            new = d & ~ptz
            if new:
                pt[z] = ptz = ptz | new
                if not delta[z]:
                    push(z)
                delta[z] |= new
            if ptz == ptn:
                key = n * nvars + z
                if key not in checked:
                    checked.add(key)
                    candidates.append(z)

        for z in candidates:
            x, z = rep[n], rep[z]
            if x != z:
                checks += 1
                found = _copy_sccs(succ, rep, (z,))
                if found and x in found[-1]:  # x can only share z's component
                    collapse(found[-1])
        candidates.clear()

    if stats is not None:
        stats.update(pops=pops, copy_edges=new_edges, cycle_checks=checks, merged=merged)

    return PointsToSolution(variables, tuple([pt[r] for r in rep]))
