"""Command-line front end.

Subcommands: analyze, reach, reduce, crosscheck, gen, bench. Exit codes:
0 success / positive answer, 1 negative answer (query "no", unreachable,
mismatches), 2 usage or parse errors. Every command but `bench`, which
prints wall-clock times, is a deterministic function of its argv and input
files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
import time

from . import crosscheck as cc
from . import textio
from .andersen import solve
from .cfl import all_pairs, builtin_grammar, st_query
from .model import AnalysisError, ParseError, StatementProfile, _select, is_count, to_int
from .reductions import bmm_to_d1, d1_to_program, triangle_to_st_d1


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as err:
            raise ParseError(f"{path}: {err}") from None


def _count(text: str) -> int:
    """argparse type for a count: ASCII digits, at most sys.maxsize (the
    bound of a `.lg` node count)."""
    if not is_count(text):
        raise argparse.ArgumentTypeError(f"not a count: {text!r}")
    count = to_int(text)
    if count > sys.maxsize:
        raise argparse.ArgumentTypeError(f"count {count} exceeds {sys.maxsize}")
    return count


def _sizes(text: str) -> list[int]:
    """argparse type for --sizes: a comma-separated list of `_count`s."""
    tokens = [tok for tok in text.split(",") if tok]
    if not tokens:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of sizes: {text!r}")
    return [_count(tok) for tok in tokens]


def _write(path: str, text: str):
    """Rewrite `path` in place: open without truncating, write, then cut a
    regular file at the end of the new text. Truncating a non-empty file on
    open makes ext4 start writing its data back at close (`auto_da_alloc`),
    which a pipeline that rewrites its files pays on every step. A device
    such as /dev/null refuses `ftruncate`, so only regular files are cut."""
    data = text.encode("utf-8")
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        handle.write(data)
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate()


def _load_grammar(name_or_path: str, graph):
    """A `.cfg` file, or a built-in one with at most max(1, label count) Dyck kinds."""
    if name_or_path.endswith(".cfg"):
        return textio.parse_grammar(_read(name_or_path))
    return builtin_grammar(name_or_path, max_kinds=max(1, len(graph.alphabet)))


def _print_stats(stats):
    """An engine's counters as one JSON line on stderr (`--stats`)."""
    if stats is not None:
        print(json.dumps(stats, sort_keys=True), file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> int:
    program = textio.parse_program(_read(args.program))
    stats = {} if args.stats else None
    solution = solve(program, stats=stats)
    _print_stats(stats)
    if args.query:
        p, q = args.query
        answer = solution.query(p, q)
        print("yes" if answer else "no")
        return 0 if answer else 1
    sys.stdout.write(textio.serialize_solution(solution))
    return 0


def cmd_reach(args) -> int:
    graph = textio.parse_graph(_read(args.graph))
    grammar = _load_grammar(args.grammar, graph)
    if (args.source is None) != (args.target is None):
        raise AnalysisError("--source and --target must be given together")
    stats = {} if args.stats else None
    if args.source is not None:
        s = graph.resolve(args.source)
        t = graph.resolve(args.target)
        reachable = st_query(graph, grammar, s, t, stats=stats)
        _print_stats(stats)
        print("reachable" if reachable else "unreachable")
        return 0 if reachable else 1
    summaries = all_pairs(graph, grammar, stats=stats)
    _print_stats(stats)
    names = [graph.name_of(v) for v in range(graph.node_count)]
    ends = [f"{name}\n" for name in names]
    text = []
    for u, row in enumerate(summaries.rows(grammar.start)):
        if not args.include_self:
            row &= ~(1 << u)
        if row:  # one line per set bit v: "<u> -> <v>"
            head = f"{names[u]} -> "
            text.append(head + head.join(_select(ends, row)))
    sys.stdout.write("".join(text))
    return 0


def cmd_reduce(args) -> int:
    if args.variant == "bmm-to-d1":
        if len(args.inputs) != 2:
            raise AnalysisError("bmm-to-d1 needs two matrix files")
        a = textio.parse_matrix(_read(args.inputs[0]))
        b = textio.parse_matrix(_read(args.inputs[1]))
        inst = bmm_to_d1(a, b)
        _write(args.output, textio.serialize_graph(inst.graph))
        rmap = inst.map
    elif args.variant == "d1-to-pa":
        if len(args.inputs) != 1:
            raise AnalysisError("d1-to-pa needs one graph file")
        graph = textio.parse_graph(_read(args.inputs[0]))
        program, rmap = d1_to_program(
            graph, StatementProfile.from_name(args.profile), args.prune_isolated
        )
        _write(args.output, textio.serialize_program(program))
    else:  # triangle-to-d1; argparse's `choices` screens the variant
        if len(args.inputs) != 1:
            raise AnalysisError("triangle-to-d1 needs one graph file")
        graph = textio.parse_graph(_read(args.inputs[0]))
        inst = triangle_to_st_d1(graph, args.directed)
        _write(args.output, textio.serialize_graph(inst.graph))
        rmap = inst.map
    if args.map:
        _write(args.map, textio.serialize_map(rmap))
    return 0


def cmd_crosscheck(args) -> int:
    if args.suite == "bmm":
        report = cc.check_bmm_chain(
            args.max_n, args.trials, args.seed, StatementProfile.from_name(args.profile)
        )
    elif args.suite == "peg":
        report = cc.check_peg_equivalence(args.trials, args.seed)
    elif args.suite == "pt-prime":
        report = cc.check_pt_prime(args.trials, args.seed)
    else:
        report = cc.check_triangle_chain(
            args.max_n, args.trials, args.seed, args.directed,
            StatementProfile.from_name(args.profile),
        )
    print(report.summary_text())
    return 0 if report.passed else 1


def cmd_gen(args) -> int:
    if args.kind == "matrix":
        text = textio.serialize_matrix(cc.rand_matrix(args.n, args.density, args.seed))
    elif args.kind == "program":
        text = textio.serialize_program(cc.rand_program(args.n, args.stmts, args.seed))
    elif args.kind == "dyck-graph":
        text = textio.serialize_graph(cc.rand_dyck_graph(args.n, args.m, args.seed))
    else:  # simple-graph; argparse's `choices` screens the kind
        graph = cc.rand_simple_graph(args.n, args.density, args.seed, args.directed)
        text = textio.serialize_graph(graph)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    """One row per size, labelled with the generated instance's own sizes
    (rand_program draws fewer variables and statements than its caps)."""
    for n in args.sizes:
        if args.suite == "reach-d1":
            graph = cc.rand_dyck_graph(n, 2 * n, args.seed)
            started = time.perf_counter()
            all_pairs(graph, builtin_grammar("d1"))
            elapsed = time.perf_counter() - started
            sizes = f"nodes={graph.node_count} edges={len(graph.edges)}"
        else:  # solve
            program = cc.rand_program(n, 2 * n, args.seed)
            started = time.perf_counter()
            solve(program)
            elapsed = time.perf_counter() - started
            sizes = f"vars={len(program.variables)} stmts={len(program.statements)}"
        print(f"{sizes} suite={args.suite} seconds={elapsed:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="palab",
        description="points-to analysis, Dyck/CFL reachability, and cross-checked reductions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="solve a pointer program")
    p.add_argument("program", help="program file (.pa)")
    p.add_argument("--query", nargs=2, metavar=("P", "Q"), help="ask whether p points to q")
    p.add_argument(
        "--stats", action="store_true", help="print the solver's counters as one JSON line to stderr"
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reach", help="CFL reachability over a labeled graph")
    p.add_argument("graph", help="graph file (.lg)")
    p.add_argument("--grammar", required=True, help="d1 | dyck:<k> | pt | pt-prime | file.cfg")
    p.add_argument("--source", help="source node (name or id) for an s-t query")
    p.add_argument("--target", help="target node (name or id) for an s-t query")
    p.add_argument("--include-self", action="store_true", help="also print self pairs")
    p.add_argument(
        "--stats", action="store_true", help="print the engine's counters as one JSON line to stderr"
    )
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("reduce", help="run one of the reductions")
    p.add_argument("variant", choices=["bmm-to-d1", "d1-to-pa", "triangle-to-d1"])
    p.add_argument("inputs", nargs="+", help="input file(s)")
    p.add_argument("-o", "--output", required=True, help="output instance file")
    p.add_argument("--map", help="also write the provenance map (TSV)")
    p.add_argument("--profile", default="case1", help="statement profile case1..case6")
    p.add_argument("--prune-isolated", action="store_true", help="skip degree-0 node gadgets")
    p.add_argument("--directed", action="store_true", help="treat triangle input as directed")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("crosscheck", help="randomized oracle equivalence suites")
    p.add_argument("--suite", required=True, choices=["bmm", "peg", "pt-prime", "triangle"])
    p.add_argument("--trials", type=_count, default=100)
    p.add_argument("--max-n", type=_count, default=8, help="instance size cap (bmm, triangle)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", default="case1", help="statement profile (bmm, triangle)")
    p.add_argument("--directed", action="store_true", help="directed triangle mode")
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("gen", help="write a seeded random instance")
    p.add_argument("kind", choices=["matrix", "program", "dyck-graph", "simple-graph"])
    p.add_argument("-n", type=_count, required=True, help="size (nodes / variables / dimension)")
    p.add_argument("-m", type=_count, default=0, help="edge count (dyck-graph)")
    p.add_argument("--stmts", type=_count, default=10, help="statement count cap (program)")
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--directed", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="informational size-vs-time rows")
    p.add_argument(
        "--sizes", required=True, type=_sizes, help="comma-separated sizes, e.g. 50,100,200"
    )
    p.add_argument("--suite", default="reach-d1", choices=["reach-d1", "solve"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AnalysisError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
