"""Expected answers for the benchmark's instances, computed off the timed path.

Each oracle renders the exact answer text the timed route must print, and
shares no code with the layer that route times:

* `analyze`: a naive whole-set least fixpoint kept here (no worklist, no
  difference sets), rendered in the `.sol` text format.
* `reach-d1`: the paper's Dyck-1 -> pointer-program equivalence, i.e.
  `d1_to_program(case5)` followed by `andersen.solve` (no CFL code).
* `reach-pt`: `andersen.solve` on the program (no PEG or CFL code).
* `reduce-chain`: `crosscheck.bmm_oracle` read back as pt(x_i) contains
  z_j', and `crosscheck.triangle_oracle`.
"""

from __future__ import annotations

ADDRESS_OF, ASSIGN, ASSIGN_STAR, STAR_ASSIGN = "address_of", "assign", "assign_star", "star_assign"


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def first_appearance(statements) -> list[str]:
    """Variable names in order of first appearance (lhs before rhs)."""
    seen: dict[str, None] = {}
    for _, lhs, rhs in statements:
        seen.setdefault(lhs)
        seen.setdefault(rhs)
    return list(seen)


def naive_points_to(statements) -> dict[str, set[str]]:
    """Least fixpoint of the inclusion constraints by whole-set rounds.

    `statements` are (kind, lhs, rhs) name triples. Every round applies every
    statement to the full current sets until a round changes nothing.
    """
    names = first_appearance(statements)
    index = {name: i for i, name in enumerate(names)}
    coded = [(kind, index[a], index[b]) for kind, a, b in statements]
    pt = [0] * len(names)
    changed = True
    while changed:
        changed = False
        for kind, a, b in coded:
            if kind == STAR_ASSIGN:
                for v in _bits(pt[a]):
                    if pt[b] & ~pt[v]:
                        pt[v] |= pt[b]
                        changed = True
                continue
            if kind == ADDRESS_OF:
                new = pt[a] | (1 << b)
            elif kind == ASSIGN:
                new = pt[a] | pt[b]
            else:  # ASSIGN_STAR: a = *b
                new = pt[a]
                for v in _bits(pt[b]):
                    new |= pt[v]
            if new != pt[a]:
                pt[a] = new
                changed = True
    return {name: {names[j] for j in _bits(pt[i])} for i, name in enumerate(names)}


def render_solution(pt: dict[str, set[str]]) -> str:
    """The `.sol` text: one `pt(v) = { ... }` line per variable, sorted."""
    lines = []
    for var in sorted(pt):
        members = ", ".join(sorted(pt[var]))
        lines.append(f"pt({var}) = {{ {members} }}" if members else f"pt({var}) = {{ }}")
    return "".join(line + "\n" for line in lines)


def parse_solution(text: str) -> dict[str, set[str]]:
    """Read `.sol` text back into name sets."""
    pt = {}
    for line in text.splitlines():
        head, _, body = line.partition(" = ")
        members = body.strip("{} ")
        pt[head[3:-1]] = set(members.split(", ")) if members else set()
    return pt


def statement_triples(program) -> list[tuple[str, str, str]]:
    return [(st.kind.value, st.lhs.name, st.rhs.name) for st in program.statements]


def expected_analyze(program) -> str:
    return render_solution(naive_points_to(statement_triples(program)))


def expected_reach_d1(lab, graph) -> str:
    """All-pairs Dyck-1 reachability (self pairs omitted) via case5 + solve."""
    program, pmap = lab.reductions.d1_to_program(graph, lab.model.StatementProfile.CASE5)
    pt = lab.andersen.solve(program).pt
    pairs = []
    for u, (qvar, _) in pmap.forward.items():
        for v, (_, avar) in pmap.forward.items():
            if u != v and avar in pt[qvar]:
                pairs.append((u, v))
    return "".join(f"{u} -> {v}\n" for u, v in sorted(pairs))


def expected_reach_pt(lab, program) -> str:
    """`p -> &q` for every q in pt(p), ordered by PEG node id (variables
    in first-appearance order, three nodes each)."""
    pt = lab.andersen.solve(program).pt
    names = first_appearance(statement_triples(program))
    index = {name: i for i, name in enumerate(names)}
    lines = []
    for p in names:
        members = sorted((w.name for w in pt[lab.model.Variable(p)]), key=index.__getitem__)
        lines += [f"{p} -> &{q}\n" for q in members]
    return "".join(lines)


def bmm_readback(solution_text: str, n: int) -> list[list[int]]:
    """Product matrix read off the reduced program: c[i][j] = 1 iff
    pt(x_i) contains z_j'. Pruned (absent) variables read as empty."""
    pt = parse_solution(solution_text)
    return [[int(f"z{j}'" in pt.get(f"x{i}", ())) for j in range(n)] for i in range(n)]
