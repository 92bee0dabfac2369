"""Generic CFL/Dyck reachability over labeled digraphs.

`normalize` compiles a grammar once (cached per grammar value) into the
tables of a `NormalizedGrammar`. `_closure`, the engine's only entry,
refuses a graph label outside the grammar's terminals, compiles, and
saturates the summary edges over those tables with a semi-naive worklist,
one bitset row of targets per (symbol, source). `all_pairs` projects the
saturation onto the grammar's own symbols, and `st_query` reads one pair
of it. The built-in grammars (Dyck-1, generalized Dyck, and the two
points-to-analysis reachability grammars over PEG labels) live here too,
and `follow_sets` reads terminal Follow sets off `normalize`'s binary rules.

Each invariant is argued in one docstring: binarization, the terminal-run
fold and epsilon by compensation in `normalize`; static, unread,
transitive and indexed symbols and the two queues in `NormalizedGrammar`;
pop-time indexing, copy edges and why every pair of facts is joined in
`_closure`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress, groupby
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .model import (
    AlphabetMismatchError,
    Grammar,
    InvalidNodeError,
    InvalidParamsError,
    LabeledDigraph,
    _ones,
    is_count,
    to_int,
)
from .peg import PEG_ALPHABET

# ---------------------------------------------------------------------------
# built-in grammars

PT_START = "Pt"
PT_PRIME_START = "Pt'"
_S, _SBAR = "S", "-S"


def dyck_grammar(k: int) -> Grammar:
    """Properly matched parentheses of k kinds; start symbol D<k>."""
    if k < 1:
        raise InvalidParamsError(f"dyck grammar needs k >= 1, got {k}")
    terminals = [f"[{i}" for i in range(1, k + 1)] + [f"]{i}" for i in range(1, k + 1)]
    start = f"D{k}"
    productions = [(start, (_S,))]
    productions += [(_S, (f"[{i}", _S, f"]{i}")) for i in range(1, k + 1)]
    productions += [(_S, (_S, _S)), (_S, ())]
    return Grammar(terminals, {start, _S}, productions, start)


# Summary reading: an S edge is a points-to subset constraint, a Pt edge
# is a points-to fact, and -S mirrors S along reversed paths.
_PT = Grammar(PEG_ALPHABET, {PT_START, _S, _SBAR}, [
    (PT_START, (_S, "r")),
    (PT_START, ("r",)),
    (_S, ("as", "-d", _S, "r", "d")),
    (_S, ("-d", "-r", _SBAR, "d", "sa")),
    (_SBAR, ("-d", "-r", _SBAR, "d", "-as")),
    (_SBAR, ("-sa", "-d", _S, "r", "d")),
    (_S, (_S, _S)),
    (_SBAR, (_SBAR, _SBAR)),
    (_S, ("s",)),
    (_S, ()),
    (_SBAR, ("-s",)),
    (_SBAR, ()),
], PT_START)

# The subset-only fragment that survives on reduction-built PEGs.
_PT_PRIME = Grammar(PEG_ALPHABET, {PT_PRIME_START, _S, _SBAR}, [
    (PT_PRIME_START, (_S,)),
    (_S, ("-d", "-r", _SBAR, "d", "sa")),
    (_SBAR, ("-sa", "-d", _S, "r", "d")),
    (_S, (_S, _S)),
    (_SBAR, (_SBAR, _SBAR)),
    (_S, ()),
    (_SBAR, ()),
], PT_PRIME_START)

# The fixed built-in grammars, built once; only dyck:<k> is built per call.
_FIXED = {"d1": dyck_grammar(1), "pt": _PT, "pt_prime": _PT_PRIME}


def builtin_grammar(name: str, max_kinds: Optional[int] = None) -> Grammar:
    """Look up a built-in grammar: d1, dyck:<k>, pt, or pt_prime. A dyck:<k>
    with k above `max_kinds` is refused before its 2k terminals are built."""
    key = name.replace("-", "_").lower()
    if key in _FIXED:
        return _FIXED[key]
    if key.startswith("dyck:"):
        count = key[len("dyck:"):]
        if not is_count(count):
            raise InvalidParamsError(f"bad dyck grammar name {name!r}")
        kinds = to_int(count)
        if max_kinds is not None and kinds > max_kinds:
            raise InvalidParamsError(f"{name}: {kinds} bracket kinds exceed the {max_kinds} allowed")
        return dyck_grammar(kinds)
    raise InvalidParamsError(f"unknown builtin grammar {name!r}")


# ---------------------------------------------------------------------------
# normalization

def _nullable_closure(productions: Sequence[tuple[str, tuple[str, ...]]]) -> set[str]:
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in productions:
            if lhs not in nullable and all(sym in nullable for sym in rhs):
                nullable.add(lhs)
                changed = True
    return nullable


@dataclass(frozen=True)
class NormalizedGrammar:
    """Binarized grammar compiled into the saturation engine's tables.

    `binary_productions` have right-hand sides of length 1 or 2 with no
    epsilon; `follow_sets` reads them, `_closure` the tables below. Each
    helper of `helper_map` derives exactly one span of symbols: a run of
    terminals folded out of a body, or a suffix of a folded body.
    `nullable` names every symbol that derives epsilon, helpers included.
    Epsilon is carried by compensation: each L -> X Y gains L -> Y when X
    is nullable and L -> X when Y is, which keeps every summary over a
    nonempty path; the empty-path summaries (v, X, v) of the nullable
    symbols are added once the saturation is complete.

    `codes` numbers every symbol (terminals, nonterminals and helpers) in
    sorted-name order. The rule tables are indexed by code and list, in
    `binary_productions` order: L for each L -> X in `unit_by[X]`, (Y, L)
    for each L -> X Y in `left_of[X]`, and (Y, L) for each L -> Y X in
    `right_of[X]`, save the rules X -> X X. `transitive[X]` is True iff
    X -> X X is a rule; `_closure` saturates that rule along copy edges, so
    it is in neither `left_of[X]` nor `right_of[X]`, but it still counts
    below as a rule of X that reads X.

    A symbol is static if it is a terminal or if every rule with it as
    head reads static symbols only (least fixpoint), and unread if no rule
    reads it. `queue_of[X]` names the worklist that X's rows enter: None
    for a static or unread symbol, whose rows never pop; 0 for a helper,
    whose rows pop first, so the targets that helpers derive for a
    nonterminal row coalesce into its pending delta rather than into a
    later pop; 1 for a grammar nonterminal. `indexed[X]` is
    True iff some rule L -> X Y of `left_of` has a Y with a queue: only a
    pop of such a Y reads the column index of X, so no other symbol gets
    one.
    `static_rules` lists, as (L, operand codes), every rule that reads
    static symbols only: first the rules of the static heads in the order
    they became static, then the others in `binary_productions` order.
    Every field is read-only.
    """

    binary_productions: tuple[tuple[str, tuple[str, ...]], ...]
    nullable: frozenset[str]
    helper_map: Mapping[str, tuple[str, tuple[str, ...]]]
    codes: Mapping[str, int]
    unit_by: tuple[tuple[int, ...], ...]
    left_of: tuple[tuple[tuple[int, int], ...], ...]
    right_of: tuple[tuple[tuple[int, int], ...], ...]
    queue_of: tuple[Optional[int], ...]
    transitive: tuple[bool, ...]
    indexed: tuple[bool, ...]
    static_rules: tuple[tuple[int, tuple[int, ...]], ...]


@lru_cache(maxsize=32)
def normalize(grammar: Grammar) -> NormalizedGrammar:
    """Split long productions with fresh helpers, pre-compute nullability,
    and compile the symbol codes and rule tables that `_closure` reads.

    A body longer than two first has each maximal run of two or more
    terminals, short of the whole body, replaced by a helper that derives
    the run. Such a helper has at most one fact per graph path that spells
    the run. Every run in the built-in grammars holds `d` or `-d`, and a
    PEG node has at most one `d` successor and one `d` predecessor, so the
    run's helper has at most as many facts as its other label has edges;
    a helper that spans a nonterminal can have as many as the nonterminal.
    Right-chained, `S -> as -d S r d` becomes `S -> @a @x`, `@x -> S @b`,
    `@a -> as -d`, `@b -> r d`, and `-S -> -sa -d S r d` reuses `@x`.

    The folded body is then chained to the right: X -> s0 s1 s2 becomes
    X -> s0 H, H -> s1 s2. A helper derives exactly the run or suffix that
    it spans, so productions whose bodies share that span share the helper;
    `helper_map` records the first production that needed it. Helper
    names are `@<k>` names that the grammar does not use. No other
    function codes symbols.

    Last, the static symbols are found by least fixpoint from the
    terminals, each symbol gets the worklist its rows enter (`queue_of`,
    see `NormalizedGrammar`), each X -> X X marks X `transitive` instead of
    entering the join tables, and the left operands that a popping right
    operand joins get a column index (`indexed`). In `pt` the six
    terminal-pair helpers are static; `D1`, `Pt` and `Pt'` are unread; `S`
    and `-S` are transitive and have no column index.

    Results are cached per grammar value; every caller shares the one
    read-only value.
    """
    nullable = _nullable_closure(grammar.productions)
    taken = grammar.terminals | grammar.nonterminals

    helper_map: dict[str, tuple[str, tuple[str, ...]]] = {}
    helper_of: dict[tuple[str, ...], str] = {}   # span -> helper
    rules: list[tuple[str, tuple[str, ...]]] = []
    counter = 0

    def helper(span: tuple[str, ...], origin) -> tuple[str, bool]:
        """The helper that derives exactly `span`, and whether it existed."""
        nonlocal counter
        name = helper_of.get(span)
        if name is not None:
            return name, True
        counter += 1
        while f"@{counter}" in taken:
            counter += 1
        name = helper_of[span] = f"@{counter}"
        helper_map[name] = origin
        if all(s in nullable for s in span):
            nullable.add(name)
        return name, False

    def chain(head: str, body: tuple[str, ...], origin):
        # head -> s0 H(s1..), H(s1..) -> s1 H(s2..), ..., H -> s_{k-2} s_{k-1}
        while len(body) > 2:
            name, known = helper(body[1:], origin)
            rules.append((head, (body[0], name)))
            if known:  # the rules below a shared helper exist already
                return
            head, body = name, body[1:]
        rules.append((head, body))

    def fold(body: tuple[str, ...], origin) -> tuple[str, ...]:
        """`body` with each maximal run of two or more terminals, short of
        the whole body, replaced by the helper that derives the run."""
        folded: list[str] = []
        for is_terminal, group in groupby(body, grammar.terminals.__contains__):
            run = tuple(group)
            if is_terminal and 1 < len(run) < len(body):
                name, known = helper(run, origin)
                if not known:
                    chain(name, run, origin)
                run = (name,)
            folded += run
        return tuple(folded)

    for origin in grammar.productions:
        head, body = origin
        if len(body) > 2:
            body = fold(body, origin)
        if body:  # an empty body is carried by `nullable`
            chain(head, body, origin)

    # compensation for nullable operands of binary rules
    extra: list[tuple[str, tuple[str, ...]]] = []
    for lhs, rhs in rules:
        if len(rhs) == 2:
            x, y = rhs
            if x in nullable:
                extra.append((lhs, (y,)))
            if y in nullable:
                extra.append((lhs, (x,)))
    # first occurrences, without X -> X self loops
    deduped = [rule for rule in dict.fromkeys(rules + extra) if rule[1] != (rule[0],)]

    codes = {sym: c for c, sym in enumerate(sorted(taken | helper_map.keys()))}
    unit_by: list[list[int]] = [[] for _ in codes]
    left_of: list[list[tuple[int, int]]] = [[] for _ in codes]
    right_of: list[list[tuple[int, int]]] = [[] for _ in codes]
    transitive = [False] * len(codes)
    for lhs, rhs in deduped:
        if len(rhs) == 1:
            unit_by[codes[rhs[0]]].append(codes[lhs])
        elif rhs == (lhs, lhs):
            transitive[codes[lhs]] = True
        else:
            x, y = codes[rhs[0]], codes[rhs[1]]
            left_of[x].append((y, codes[lhs]))
            right_of[y].append((x, codes[lhs]))

    rules_of: dict[str, list[tuple[str, tuple[str, ...]]]] = {sym: [] for sym in codes}
    for rule in deduped:
        rules_of[rule[0]].append(rule)
    static = set(grammar.terminals)
    static_rules: list[tuple[str, tuple[str, ...]]] = []
    grown = True
    while grown:
        grown = False
        for sym, own in rules_of.items():
            if sym not in static and all(s in static for _, rhs in own for s in rhs):
                static.add(sym)
                static_rules += own
                grown = True
    static_rules += [rule for rule in deduped if rule[0] not in static and static.issuperset(rule[1])]
    read = {sym for _, rhs in deduped for sym in rhs}
    queue_of = tuple(
        None if sym in static or sym not in read else 0 if sym in helper_map else 1
        for sym in codes
    )
    return NormalizedGrammar(
        binary_productions=tuple(deduped),
        nullable=frozenset(nullable),
        helper_map=MappingProxyType(helper_map),
        codes=MappingProxyType(codes),
        unit_by=tuple(map(tuple, unit_by)),
        left_of=tuple(map(tuple, left_of)),
        right_of=tuple(map(tuple, right_of)),
        queue_of=queue_of,
        transitive=tuple(transitive),
        indexed=tuple(any(queue_of[y] is not None for y, _ in left) for left in left_of),
        static_rules=tuple(
            (codes[lhs], tuple(codes[sym] for sym in rhs)) for lhs, rhs in static_rules
        ),
    )


# ---------------------------------------------------------------------------
# saturation

@dataclass(frozen=True)
class SummarySet:
    """All derived (source, symbol, target) summary edges of a saturation.

    `by_symbol` holds, in symbol order, one tuple of bitset rows for each
    symbol with a summary: bit v of row u is set iff (u, symbol, v) holds.
    Trailing empty rows are dropped, so equal summary sets are equal values.
    """

    by_symbol: tuple[tuple[str, tuple[int, ...]], ...]

    @cached_property
    def _rows(self) -> dict[str, tuple[int, ...]]:
        return dict(self.by_symbol)

    @property
    def summaries(self) -> frozenset[tuple[int, str, int]]:
        return frozenset(
            (u, sym, v) for sym, rows in self.by_symbol
            for u, row in enumerate(rows) for v in _ones(row)
        )

    def rows(self, symbol: str) -> tuple[int, ...]:
        """The bitset rows of one symbol, indexed by source."""
        return self._rows.get(symbol, ())

    def holds(self, src: int, symbol: str, dst: int) -> bool:
        rows = self.rows(symbol)
        return 0 <= src < len(rows) and dst >= 0 and bool(rows[src] >> dst & 1)

    def pairs(self, symbol: str) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, row in enumerate(self.rows(symbol)) for v in _ones(row))


def _closure(graph: LabeledDigraph, grammar: Grammar, stats: Optional[dict] = None):
    """The engine's only entry: semi-naive saturation over bitset rows.
    Returns (out, norm) at the fixpoint, norm = normalize(grammar).

    A label that the graph declares outside `grammar.terminals` is refused
    with AlphabetMismatchError before the grammar is compiled.

    out[X][u] is the bitset of the targets v of the summaries (u, X, v), X a
    symbol code of `norm.codes`; the rule tables are `norm`'s. Before the
    loop, the terminal rows are filled from the edges, the rules of
    `norm.static_rules` are applied once in their order, so each static row is
    complete before a later rule reads it, and the columns of every static
    symbol of `norm.indexed` are indexed in row order; both walk only the
    non-empty rows. New targets of a row with a queue in `norm.queue_of` wait
    as one coalesced delta per (X, u) in that queue, and delta[X] exists only
    for such an X; helper rows pop before nonterminal rows. Popping a delta D
    of X at row u first indexes it in the column index in[X], if X has one,
    then joins L -> X Y by OR-ing the out[Y] rows over the bits of D into
    out[L][u], and L -> Y X by OR-ing D into out[L][w] for each w in in[Y][u],
    so a right join walks no bits. The index is kept only for the symbols of
    `norm.indexed`, the left operands X of a rule L -> X Y whose Y pops, since
    only such a pop reads in[X]: in[X][v] is the list of the sources w of the
    facts (w, X, v), in pop order (row order for a static X), created on the
    column's first fact (None before it). An add carries only targets not yet
    in `out`, so each fact pops at most once and each source is listed once.

    A symbol X of `norm.transitive` saturates X -> X X along copy edges, not
    by joins, which would derive each fact of X again through every
    intermediate node of the path it spans; the points-to solver moves a delta
    along `pt(b) ⊆ pt(a)` the same way. After its joins, a pop of X at u sends
    its delta along copies[X][u]: each w listed there gains the targets it
    lacks, and they are also OR-ed into the pending sent[X][w]. Every other
    add to X comes from another rule, so the bits of a popped delta D outside
    sent[X][u] are base facts. The pop walks those bits once: for each v it
    appends u to copies[X][v], the copy-edge list of v, and it ORs out[X][v]
    into out[X][u] and into D, before D is indexed and joined. When every bit
    of D is a base bit, the joins reuse that walk. This is exact because
    X = B+ for the base facts B: every fact of X is a chain of base facts, and
    for each registered (u, X, v) all of out[X][v] reaches out[X][u], since
    the registering pop pulls the row and every later target of v pops in a
    delta that is sent along copies[X][v]. A base fact already in out[X][u]
    when it is derived is not registered: it is the end of a chain of base
    facts that are registered or pending, whose copy edges carry its targets
    to u. Each fact of X pops once, in the delta that adds or pulls it, so the
    argument below covers X's other rules too.

    Each pair of facts A = (w, Y, u), B = (u, X, v) of a rule L -> Y X is
    joined. If Y is static, B's right join reads the complete in[Y]. If X is
    static, A's left join reads the complete out[X], and no join reads in[Y]
    for this rule. If both are, the rule is one of `norm.static_rules`. If
    neither is, whatever the pop order: if A pops first, B's right join finds
    it in in[Y]; if B is known first, A's left join reads it in out[X]. A unit
    rule L -> X is applied by X's pops, or before the loop for a static X.
    Rows of a static or unread symbol never pop: no rule joins an unread one.
    Nullable operands are carried by normalize's unit rules, so no empty-path
    fact enters the worklist; at the fixpoint the diagonal is OR-ed into the
    rows of the nullable symbols.

    When `stats` is a dict it receives `pops`, `joined_rows` (list entries
    that pops visit: column lists read by right joins and copy-edge lists
    read by sends), `copy_edges` (base facts registered) and `summaries`
    (set bits per symbol of `norm.codes`, helpers included).
    """
    offending = graph.alphabet - grammar.terminals
    if offending:
        raise AlphabetMismatchError(offending)
    norm = normalize(grammar)
    codes, unit_by, left_of, right_of = norm.codes, norm.unit_by, norm.left_of, norm.right_of
    n = graph.node_count
    out = [[0] * n for _ in codes]
    inn = [[None] * n if kept else None for kept in norm.indexed]
    copies = [[None] * n if kept else None for kept in norm.transitive]
    sent = [[0] * n if kept else None for kept in norm.transitive]
    delta = [None if q is None else [0] * n for q in norm.queue_of]
    first: deque[tuple[int, int]] = deque()
    later: deque[tuple[int, int]] = deque()
    queue = [None if q is None else (first, later)[q] for q in norm.queue_of]

    def add(c: int, u: int, new: int):
        """Record the new targets `new` (none known yet) of row u of c."""
        out[c][u] |= new
        q = queue[c]
        if q is not None:
            pending = delta[c]
            if not pending[u]:
                q.append((c, u))
            pending[u] |= new

    for src, label, dst in graph.edges:
        out[codes[label]][src] |= 1 << dst
    nodes = range(n)
    for lhs, rhs in norm.static_rules:
        head, rows, right = out[lhs], out[rhs[0]], out[rhs[-1]]
        for u in compress(nodes, rows):
            row = rows[u]
            if len(rhs) == 2:
                acc = 0
                for v in _ones(row):
                    acc |= right[v]
                row = acc
            new = row & ~head[u]
            if new:
                add(lhs, u, new)
    for c, col in enumerate(inn):
        if col is not None and queue[c] is None:
            rows = out[c]
            for u in compress(nodes, rows):
                for v in _ones(rows[u]):
                    ws = col[v]
                    if ws is None:
                        col[v] = [u]
                    else:
                        ws.append(u)

    pops = joined = registered = 0
    while first or later:
        c, u = (first or later).popleft()
        pops += 1
        d = delta[c][u]
        delta[c][u] = 0
        vs = None
        edges = copies[c]
        if edges is not None:
            own, by_edge = out[c], sent[c]
            b = d & ~by_edge[u]
            by_edge[u] = 0
            if b:
                bs = _ones(b)
                registered += len(bs)
                acc = 0
                for v in bs:
                    acc |= own[v]
                    ws = edges[v]
                    if ws is None:
                        edges[v] = [u]
                    else:
                        ws.append(u)
                if b == d:
                    vs = bs
                new = acc & ~own[u]
                if new:
                    own[u] |= new
                    d |= new
                    if vs is not None:
                        vs += _ones(new)
        left = left_of[c]
        if left:
            if vs is None:
                vs = _ones(d)
            col = inn[c]
            if col is not None:
                for v in vs:
                    ws = col[v]
                    if ws is None:
                        col[v] = [u]
                    else:
                        ws.append(u)
            for y, lhs in left:
                rows = out[y]
                acc = 0
                for v in vs:
                    acc |= rows[v]
                new = acc & ~out[lhs][u]
                if new:
                    add(lhs, u, new)
        for lhs in unit_by[c]:
            new = d & ~out[lhs][u]
            if new:
                add(lhs, u, new)
        for y, lhs in right_of[c]:
            ws = inn[y][u]
            if ws is None:
                continue
            joined += len(ws)
            row = out[lhs]
            for w in ws:
                new = d & ~row[w]
                if new:
                    add(lhs, w, new)
        if edges is not None:
            ws = edges[u]
            if ws is not None:
                joined += len(ws)
                for w in ws:
                    new = d & ~own[w]
                    if new:
                        add(c, w, new)
                        by_edge[w] |= new
    for sym in norm.nullable:
        rows = out[codes[sym]]
        for v in range(n):
            rows[v] |= 1 << v
    if stats is not None:
        stats.update(
            pops=pops,
            joined_rows=joined,
            copy_edges=registered,
            summaries={sym: sum(row.bit_count() for row in out[c]) for sym, c in codes.items()},
        )
    return out, norm


def all_pairs(
    graph: LabeledDigraph, grammar: Grammar, stats: Optional[dict] = None
) -> SummarySet:
    """Every summary (u, X, v) over the grammar's own symbols; nullable
    symbols contribute (v, X, v) for every node. `stats`: see `_closure`."""
    out, norm = _closure(graph, grammar, stats)
    by_symbol = []
    for sym, c in norm.codes.items():
        rows = out[c]
        end = len(rows)
        while end and not rows[end - 1]:
            end -= 1
        if end and sym not in norm.helper_map:
            by_symbol.append((sym, tuple(rows[:end])))
    return SummarySet(tuple(by_symbol))


def st_query(
    graph: LabeledDigraph, grammar: Grammar, s: int, t: int, stats: Optional[dict] = None
) -> bool:
    """True iff t is start-symbol-reachable from s: bit t of row s of the
    start symbol in the full saturation, so `stats` (see `_closure`) equals
    that of `all_pairs` on the same graph."""
    for node in (s, t):
        if not 0 <= node < graph.node_count:
            raise InvalidNodeError(f"node {node} out of range")
    out, norm = _closure(graph, grammar, stats)
    return bool(out[norm.codes[grammar.start]][s] >> t & 1)


# ---------------------------------------------------------------------------
# terminal Follow sets

def follow_sets(grammar: Grammar) -> dict[str, frozenset[str]]:
    """Follow(t) for each terminal t: the terminals that can appear
    immediately to the right of t in a sentential form derivable from any
    nonterminal of the grammar.

    Read off `normalize`'s binary rules. Two adjacent terminals of a
    derivation meet at exactly one rule L -> X Y, the first at the end of
    X and the second at the start of Y, and the compensation rules carry
    the nullable symbols between them. So one least fixpoint finds First
    and Last, the terminals that can begin and end a nonempty derivation of
    each symbol, and Follow(t) is the union of First(Y) over the rules
    L -> X Y with t in Last(X)."""
    norm = normalize(grammar)
    first = {sym: {sym} if sym in grammar.terminals else set() for sym in norm.codes}
    last = {sym: set(ends) for sym, ends in first.items()}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in norm.binary_productions:
            for ends, sym in ((first, rhs[0]), (last, rhs[-1])):
                changed |= not ends[sym] <= ends[lhs]
                ends[lhs] |= ends[sym]
    follow: dict[str, set[str]] = {t: set() for t in grammar.terminals}
    for _, rhs in norm.binary_productions:
        if len(rhs) == 2:
            for t in last[rhs[0]]:
                follow[t] |= first[rhs[1]]
    return {t: frozenset(ends) for t, ends in follow.items()}
