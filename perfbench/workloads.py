"""The four workloads: seeded instance pools, each instance's timed route from
input file to answer text, and its oracle check.

A pool interleaves a fixed list of shapes (size classes), so any prefix of
the closed loop covers the shapes evenly. The seed picks every instance's
contents; the shapes themselves do not depend on it, so runs at different
seeds do comparable work. Sizes recorded per instance are read off the
generated input, never the generator's caps.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

SEED_STRIDE = 1000003


@dataclass
class Instance:
    shape: str
    sizes: dict[str, int]
    run: Callable[[], tuple[int, str]]      # timed: input file(s) -> (exit code, answer text)
    check: Callable[[int, str], bool]       # untimed oracle verdict on that answer


def cli(lab, argv: list[str]) -> tuple[int, str]:
    """`palab.cli.main(argv)` in-process, with stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = lab.cli.main(argv)
        except SystemExit as stop:  # argparse rejections
            code = stop.code
    return code, out.getvalue()


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _program(lab, max_vars: int, max_stmts: int, seed: int):
    """A `rand_program` whose drawn sizes lie within 10% below both caps.

    `rand_program` draws its variable and statement counts first, so trial
    seeds are screened on those two draws alone before the program is built;
    the built program's own sizes are then checked against the screen.
    """
    for trial in range(100_000):
        tseed = seed * 10007 + trial
        rng = random.Random(tseed)
        nvars = 1 + min(int(rng.random() * max_vars), max_vars - 1)
        nstmts = 1 + min(int(rng.random() * max_stmts), max_stmts - 1)
        if nvars >= 0.9 * max_vars and nstmts >= 0.9 * max_stmts:
            program = lab.crosscheck.rand_program(max_vars, max_stmts, tseed)
            if len(program.statements) != nstmts or len(program.variables) > nvars:
                raise RuntimeError("rand_program no longer draws its sizes first")
            return program
    raise RuntimeError(f"no seed gives rand_program({max_vars}, {max_stmts}) near its caps")


def _program_sizes(program) -> dict[str, int]:
    return {"vars": len(program.variables), "stmts": len(program.statements)}


def _graph_sizes(graph) -> dict[str, int]:
    return {"nodes": graph.node_count, "edges": len(graph.edges)}


# ---------------------------------------------------------------------------
# analyze: `palab analyze prog.pa`

def _analyze(lab, shape, seed, path):
    _, max_vars, ratio = shape
    program = _program(lab, max_vars, ratio * max_vars, seed)
    src = _write(path.with_suffix(".pa"), lab.textio.serialize_program(program))
    return Instance(
        shape=f"{shape[0]}-{max_vars}",
        sizes=_program_sizes(program),
        run=lambda: cli(lab, ["analyze", src]),
        check=lambda code, text: code == 0 and text == oracles.expected_analyze(program),
    )


# ---------------------------------------------------------------------------
# reach-d1: `palab reach g.lg --grammar d1`

def _reach_d1(lab, shape, seed, path):
    n, m = shape
    graph = lab.crosscheck.rand_dyck_graph(n, m, seed)
    src = _write(path.with_suffix(".lg"), lab.textio.serialize_graph(graph))
    return Instance(
        shape=f"n{n}-m{m}",
        sizes=_graph_sizes(graph),
        run=lambda: cli(lab, ["reach", src, "--grammar", "d1"]),
        check=lambda code, text: code == 0 and text == oracles.expected_reach_d1(lab, graph),
    )


# ---------------------------------------------------------------------------
# reach-pt: parse_program -> build_peg -> all_pairs(pt) -> Pt pairs as text

def pt_route(lab, src: str) -> tuple[int, str]:
    with open(src, encoding="utf-8") as handle:
        program = lab.textio.parse_program(handle.read())
    peg = lab.peg.build_peg(program)
    grammar = lab.cfl.builtin_grammar("pt")
    summaries = lab.cfl.all_pairs(peg.graph, grammar)
    name = peg.graph.name_of
    pairs = sorted(summaries.pairs(grammar.start))
    return 0, "".join(f"{name(u)} -> {name(v)}\n" for u, v in pairs)


def _reach_pt(lab, shape, seed, path):
    max_vars, ratio = shape
    program = _program(lab, max_vars, ratio * max_vars, seed)
    src = _write(path.with_suffix(".pa"), lab.textio.serialize_program(program))
    return Instance(
        shape=f"v{max_vars}",
        sizes=_program_sizes(program),
        run=lambda: pt_route(lab, src),
        check=lambda code, text: code == 0 and text == oracles.expected_reach_pt(lab, program),
    )


# ---------------------------------------------------------------------------
# reduce-chain: bmm-to-d1 -> d1-to-pa -> analyze, or triangle-to-d1 -> reach s-t

def _bmm_chain(lab, n, profile, seed, path):
    a = lab.crosscheck.rand_matrix(n, 0.3, seed)
    b = lab.crosscheck.rand_matrix(n, 0.3, seed + 1)
    files = [_write(path.with_name(path.name + suffix), lab.textio.serialize_matrix(m))
             for suffix, m in (("A.bm", a), ("B.bm", b))]
    graph, program = str(path.with_suffix(".d1.lg")), str(path.with_suffix(".red.pa"))

    def run():
        code, _ = cli(lab, ["reduce", "bmm-to-d1", *files, "-o", graph])
        if code == 0:
            code, _ = cli(lab, ["reduce", "d1-to-pa", graph, "--profile", profile,
                                "--prune-isolated", "-o", program])
        return cli(lab, ["analyze", program]) if code == 0 else (code, "")

    def check(code, text):
        return code == 0 and oracles.bmm_readback(text, n) == [list(r) for r in lab.crosscheck.bmm_oracle(a, b).bits]

    return Instance(
        shape=f"bmm-n{n}-{profile}",
        sizes={"matrix_n": n, "nnz": a.nnz() + b.nnz()},
        run=run,
        check=check,
    )


def _triangle_chain(lab, n, bipartite, seed, path):
    graph = lab.crosscheck.rand_simple_graph(n, 0.6 if bipartite else 0.3, seed)
    if bipartite:  # keep the edges across the halves: triangle-free
        half = n // 2
        edges = {(u, e, v) for u, e, v in graph.edges if (u < half) != (v < half)}
        graph = lab.model.LabeledDigraph(n, graph.alphabet, edges)
    src = _write(path.with_suffix(".lg"), lab.textio.serialize_graph(graph))
    reduced = str(path.with_suffix(".st.lg"))

    def run():
        code, _ = cli(lab, ["reduce", "triangle-to-d1", src, "-o", reduced])
        if code:
            return code, ""
        return cli(lab, ["reach", reduced, "--grammar", "d1", "--source", "s", "--target", "t"])

    def check(code, text):
        found = lab.crosscheck.triangle_oracle(graph)
        return (code, text) == ((0, "reachable\n") if found else (1, "unreachable\n"))

    return Instance(
        shape=f"tri-n{n}-{'bipartite' if bipartite else 'random'}",
        sizes=_graph_sizes(graph),
        run=run,
        check=check,
    )


PROFILES = [f"case{k}" for k in range(1, 7)]


def _reduce_chain(lab, shape, seed, path):
    kind, n, variant = shape
    if kind == "bmm":
        return _bmm_chain(lab, n, variant, seed, path)
    return _triangle_chain(lab, n, variant == "bipartite", seed, path)


def _chain_shapes(bmm_n: int, tri_n: int):
    """Every profile at one matrix size, interleaved with random and
    bipartite (triangle-free) graphs at one size."""
    bmm = [("bmm", bmm_n, p) for p in PROFILES]
    tri = [("tri", tri_n, v) for v in ("random", "bipartite")] * (len(bmm) // 2)
    return [shape for pair in zip(bmm, tri) for shape in pair]


# name -> (instance maker, shapes, pool size, smoke-test shapes, smoke-test pool size).
# The shapes of one workload are sized to cost about the same, so that the
# latency quantiles sit inside one narrow distribution rather than between
# size classes, and the pool is large enough (>= 100) that its 90th
# percentile has at least ten instances beyond it.
WORKLOADS = {
    "analyze": (
        _analyze,
        [("sparse", 180, 2), ("dense", 70, 12), ("mid", 100, 5)], 204,
        [("sparse", 20, 2), ("dense", 8, 12)], 8,
    ),
    "reach-d1": (
        _reach_d1,
        [(66, 132), (70, 140), (40, 160)], 360,
        [(8, 16), (8, 32)], 8,
    ),
    "reach-pt": (
        _reach_pt,
        [(30, 3), (40, 2), (45, 2)], 360,
        [(6, 2), (10, 2)], 8,
    ),
    "reduce-chain": (
        _reduce_chain,
        _chain_shapes(16, 18), 144,
        _chain_shapes(4, 6), 12,
    ),
}


def build_pool(lab, workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Instance]:
    """Generate the seeded pool, shapes interleaved, and write its input
    files under `workdir`."""
    make, shapes, size, tiny_shapes, tiny_size = WORKLOADS[workload]
    if tiny:
        shapes, size = tiny_shapes, tiny_size
    return [
        make(lab, shapes[slot % len(shapes)], seed * SEED_STRIDE + slot, workdir / f"i{slot}")
        for slot in range(size)
    ]
