"""Closed-loop benchmark of palab, end to end and per layer.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 22 --trace 0

Run from the repository root; it imports palab from `src/` of the same
tree. One process, one thread: the next instance starts only when the
previous one has finished. Set-up imports palab, generates the seeded pool
of instances, writes their input files and warms up. The timed loop then
makes passes over the pool until `--seconds` have passed.

With `--trace 0` each instance is timed from its input file to its answer
text, untraced. Its latency is the median of its runs; p50, p90 and
throughput (pool instances per second of those latencies) are taken over
the pool. Set-up is repeated between passes and `setup_s` is the median.
These figures are scaled to a reference speed of the machine, measured
after every instance (see reference.py). With `--trace 1` each instance
runs once untraced and once traced per pass (alternating which goes first)
and the per-layer metrics are reported. Every answer is checked against
an oracle after the loop, and every repeated answer must match the first
one's sha256.

Prints one line per metric (name, value, unit, sample count), then, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics. Writes a result file (and, traced, the spans) under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from collections import defaultdict
from pathlib import Path

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
REFERENCE_WINDOW = 10  # reference times on each side of a run that scale it

END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_palab():
    """A fresh import of the package under test from `src/`."""
    for name in [m for m in sys.modules if m == "palab" or m.startswith("palab.")]:
        del sys.modules[name]
    modules = ("cli", "crosscheck", "textio", "andersen", "peg", "cfl", "reductions", "model")
    lab = types.SimpleNamespace(**{m: importlib.import_module(f"palab.{m}") for m in modules})
    origin = Path(lab.cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise RuntimeError(f"palab imported from {origin}, not from this tree")
    return lab


def git_head() -> str:
    """The commit at HEAD, read from `.git` directly; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Outcomes:
    """Per-instance answers. The first answer of each pool slot is kept on
    disk for the oracle; every later answer must repeat its sha256."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.digests: dict[int, str] = {}
        self.runs: dict[int, int] = defaultdict(int)
        self.bad_runs: dict[int, int] = defaultdict(int)  # raised, or answered differently
        self.wrong: set[int] = set()  # slots whose first answer the oracle rejected

    def record(self, slot: int, answer):
        self.runs[slot] += 1
        if answer is None:  # raised
            self.bad_runs[slot] += 1
            return
        code, text = answer
        digest = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
        first = self.digests.get(slot)
        if first is None:
            self.digests[slot] = digest
            (self.outdir / f"i{slot}.out").write_text(f"{code}\n{text}", encoding="utf-8")
        elif first != digest:
            self.bad_runs[slot] += 1

    def verify(self, pool):
        """Oracle check of each slot's first answer."""
        for slot in sorted(self.digests):
            code, _, text = (self.outdir / f"i{slot}.out").read_text(encoding="utf-8").partition("\n")
            try:
                ok = pool[slot].check(int(code), text)
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                print(f"WRONG ANSWER: instance {slot} ({pool[slot].shape})", file=sys.stderr)
                self.wrong.add(slot)

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def failed(self) -> int:
        """Runs that raised or changed their answer; every run of a slot
        whose first answer was wrong."""
        return sum(self.runs[s] if s in self.wrong else self.bad_runs[s] for s in self.runs)

    def digest(self) -> str:
        """One sha256 over the per-instance answer digests, in pool order."""
        return hashlib.sha256("".join(self.digests[s] for s in sorted(self.digests)).encode()).hexdigest()


def attempt(instance):
    """Run one instance; None if it raised."""
    try:
        return instance.run()
    except Exception:
        traceback.print_exc()
        return None


def timed(instance):
    start = time.perf_counter()
    answer = attempt(instance)
    return answer, time.perf_counter() - start


def closed_loop(pool, seconds: float, outcomes: Outcomes, between_passes) -> list[tuple[int, float, float]]:
    """Untraced: passes over the pool, calling `between_passes()` after each
    whole one, until `seconds` of instance time have passed. The first pass
    is always whole; the last one may stop part-way. `reference.work()` is
    timed after every instance. Returns (slot, latency, reference time) per
    instance run, in the order they ran."""
    runs = []
    spent = 0.0
    while True:
        for slot, instance in enumerate(pool):
            answer, elapsed = timed(instance)
            outcomes.record(slot, answer)
            start = time.perf_counter()
            reference.work()
            runs.append((slot, elapsed, time.perf_counter() - start))
            spent += elapsed
            if spent >= seconds and len(runs) >= len(pool):
                return runs
        between_passes()


def traced_loop(pool, seconds: float, outcomes: Outcomes, tracer: tracing.Tracer):
    """Whole passes over the pool, each instance once untraced and once
    traced, until `seconds` have passed. Returns per-pass counters, traced
    run count and the median traced-minus-untraced time per instance."""
    pass_counts, overheads = [], []
    started = time.perf_counter()
    while not pass_counts or time.perf_counter() - started < seconds:
        tracer.counts = defaultdict(int)
        for slot, instance in enumerate(pool):
            run_id = len(overheads)
            traced_first = (slot + len(pass_counts)) % 2 == 1
            if traced_first:
                with tracer.instance(run_id):
                    traced_answer, traced_s = timed(instance)
            plain_answer, plain_s = timed(instance)
            if not traced_first:
                with tracer.instance(run_id):
                    traced_answer, traced_s = timed(instance)
            tracer.time_normalize()
            outcomes.record(slot, plain_answer)
            outcomes.record(slot, traced_answer)
            overheads.append(traced_s - plain_s)
        pass_counts.append(dict(tracer.counts))
    return pass_counts, len(overheads), statistics.median(overheads)


def set_up(args, workdir: Path):
    """A fresh import of palab, the seeded pool written under `workdir`, and
    one warm-up run of each shape. Returns the lab, the pool and the time."""
    started = time.perf_counter()
    lab = import_palab()
    pool = workloads.build_pool(lab, args.workload, args.seed, workdir, args.tiny)
    for instance in pool[: len({i.shape for i in pool})]:
        attempt(instance)
    return lab, pool, time.perf_counter() - started


def percentile(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(args, pool, outcomes: Outcomes, first_setup_s: float, scratch: Path):
    """Untraced run; returns metric values, sample counts and raw data.

    Set-up is repeated between the first passes, into `scratch`, and after
    the loop if there were too few passes; `setup_s` is the median. Spread
    over the run, the repeats do not all fall into one slow spell of the
    machine. The pool in use stays the first set-up's.
    """
    setup_times = [first_setup_s]

    def set_up_again():
        if len(setup_times) < SETUP_REPEATS:
            setup_times.append(set_up(args, scratch)[2])
            gc.collect()

    for _ in range(20):
        reference.work()
    runs = closed_loop(pool, args.seconds, outcomes, set_up_again)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_times) < SETUP_REPEATS:
        set_up_again()
    # Each run is scaled to the reference speed by the reference times
    # around it (see reference.py), then an instance's latency is the median
    # of its runs, so a slow spell the scaling missed weighs by how long it
    # lasts.
    reference_times = [ref for _, _, ref in runs]
    latencies = [[] for _ in pool]
    scaled = [[] for _ in pool]
    for i, (slot, latency, _) in enumerate(runs):
        nearby = reference_times[max(0, i - REFERENCE_WINDOW): i + REFERENCE_WINDOW + 1]
        latencies[slot].append(latency)
        scaled[slot].append(latency * reference.NOMINAL_S / statistics.median(nearby))
    setup_scale = reference.NOMINAL_S / statistics.median(reference_times)
    values, wall = {}, {}
    for out, per_slot, setup in ((values, scaled, setup_scale), (wall, latencies, 1.0)):
        typical = [statistics.median(times) for times in per_slot]
        out.update({
            "throughput_per_s": len(typical) / sum(typical),
            "latency_ms.p50": 1e3 * statistics.median(typical),
            "latency_ms.p90": 1e3 * percentile(typical, 90),
            "setup_s": setup * statistics.median(setup_times),
        })
    values["peak_rss_mb"] = peak_rss_mb
    counts = sorted({len(times) for times in latencies})
    timed_n = f"{len(pool)} instances, median of {'-'.join(map(str, counts))} scaled runs each"
    samples = {"throughput_per_s": timed_n, "latency_ms.p50": timed_n, "latency_ms.p90": timed_n,
               "setup_s": f"{SETUP_REPEATS} set-ups, scaled by {setup_scale:.3f}", "peak_rss_mb": "1 process"}
    raw = {"wall_metrics": wall, "runs": runs, "setup_s": setup_times}
    return values, samples, raw


def per_layer(pool, seconds: float, outcomes: Outcomes, tracer: tracing.Tracer):
    """Traced run; returns metric values, sample counts and raw data. The
    counters must repeat exactly in every pass."""
    pass_counts, runs, overhead = traced_loop(pool, seconds, outcomes, tracer)
    values = tracing.per_layer_metrics(tracer, pass_counts[0], len(pass_counts), runs, overhead)
    samples = {name: f"{len(pass_counts)} passes" if unit in ("count", "ratio", "bytes")
               else f"{runs} traced instances" for name, unit in tracing.PER_LAYER.items()}
    samples["cfl.normalize.s"] = f"{len(tracer.normalize_s)} calls"
    raw = {"counts_per_pass": pass_counts[0],
           "counts_repeat": all(counts == pass_counts[0] for counts in pass_counts)}
    return values, samples, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test instance sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "palab" / "__init__.py").is_file():
        print(f"error: no palab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    base = ROOT / ".perfbench"
    workdir = base / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    (base / "results").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    lab, pool, setup_s = set_up(args, workdir)
    outcomes = Outcomes(workdir / "out")
    if args.trace:
        tracer = tracing.Tracer(lab)
        values, samples, raw = per_layer(pool, args.seconds, outcomes, tracer)
        tracer.dump(base / "results" / f"{tag}.spans.jsonl")
        units = tracing.PER_LAYER
    else:
        scratch = base / "work" / f"{args.workload}.setup"
        scratch.mkdir(exist_ok=True)
        values, samples, raw = end_to_end(args, pool, outcomes, setup_s, scratch)
        units = END_TO_END
    outcomes.verify(pool)
    correct = outcomes.failed == 0 and raw.get("counts_repeat", True)
    failed_ratio = outcomes.failed / outcomes.attempted

    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit} (n={samples[name]})")
    for name, value in raw.get("wall_metrics", {}).items():
        print(f"unscaled {name} = {value:.6g} {units[name]}")
    print(f"failed_ratio = {failed_ratio:.6g} ratio (n={outcomes.attempted} runs)")
    print(f"output_digest = {outcomes.digest()}")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "git_head": git_head(),
        "nproc": len(os.sched_getaffinity(0)),
        "metrics": {n: {"value": values[n], "unit": u, "samples": samples[n]} for n, u in units.items()},
        "correct": correct,
        "failed_ratio": failed_ratio,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "output_digest": outcomes.digest(),
        "instances": [
            {"slot": slot, "shape": inst.shape, "sizes": inst.sizes, "sha256": outcomes.digests.get(slot)}
            for slot, inst in enumerate(pool)
        ],
        **raw,
    }
    (base / "results" / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
