"""The CLI contract on malformed input: every run of `analyze`, `reach` and
the three `reduce` variants exits 0, 1 or 2 with no traceback, and a rerun
prints the same stdout and stderr and writes the same output file."""

import io
import os
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from palab.cli import main

# Near misses: a valid text of the format with up to two lines dropped or
# wrong lines inserted, joined by one line end (or `;`, `#`, NUL) per text.
PROGRAM = (
    [["a = &b", "b = &c", "c = *a", "*a = c"], ["p = &q", "p = p", "q = *p"]],
    ["*a = &b", "a = **b", "a b", "1a = b", "x' = y", "é = a", "a = b; c = &d", ""],
)
GRAPH = (
    [["nodes 4", "0 [1 1", "1 ]1 2", "2 [1 3", "3 ]1 0"],
     ["nodes 3", "name 0 x", "name 1 y", "name 2 z", "x [1 y", "y ]1 z"],
     ["nodes 4", "0 e 1", "1 e 2", "2 e 0", "2 e 3"],
     ["nodes 2", "0 a 1", "1 -a 0", "1 d 0", "0 -d 1"]],
    ["nodes 3", "nodes -1", "nodes ٣", "alphabet [1 ]1", "name 0 1", "name 5 b",
     "a [1 b", "0 e 0", "0 [1 7", "x [1", "0 e 1", ""],
)
MATRIX = ([["2", "01", "10"], ["2", "11", "00"], ["3", "010", "001", "100"]],
          ["012", "1", "2", "٢", "-1", ""])
ENDS = ["\n", "\r\n", "\r", "\x85", "\x0c", ";", "#", "\x00"]


def _edit(lines, edits, end):
    lines = list(lines)
    for pos, line in edits:
        pos %= len(lines) + 1
        if line is not None:
            lines.insert(pos, line)
        elif pos < len(lines):
            del lines[pos]
    return end.join(lines).encode()


def _inputs(fmt):
    valid, wrong = fmt
    edits = st.lists(st.tuples(st.integers(0, 7), st.sampled_from([None, *wrong])), max_size=2)
    near_miss = st.builds(_edit, st.sampled_from(valid), edits, st.sampled_from(ENDS))
    return st.one_of(st.binary(max_size=48), near_miss)


def _run(argv):
    """(exit code, stdout, stderr) of one in-process run; an uncaught
    exception leaves its traceback on stderr, as the installed script would."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def _check_contract(inputs, argv_of):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, data in enumerate(inputs):
            path = os.path.join(tmp, f"in{i}")
            with open(path, "wb") as handle:
                handle.write(data)
            paths.append(path)
        output = os.path.join(tmp, "out")
        argv = argv_of(paths, output)
        runs = []
        for _ in range(2):
            code, out, err = _run(argv)
            written = None
            if os.path.exists(output):
                with open(output, "rb") as handle:
                    written = handle.read()
                os.remove(output)
            runs.append((code, out, err, written))
    code, _, err, _ = runs[0]
    assert "Traceback" not in err, err
    assert code in (0, 1, 2), (code, err)
    assert runs[0] == runs[1]


FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


@FUZZ
@given(_inputs(PROGRAM), st.sampled_from([[], ["--stats"], ["--query", "a", "b"]]))
def test_analyze_contract(data, extra):
    _check_contract([data], lambda paths, _: ["analyze", paths[0], *extra])


@FUZZ
@given(
    _inputs(GRAPH),
    st.sampled_from([["--grammar", "d1"], ["--grammar", "pt"], ["--grammar", "dyck:2", "--stats"],
                     ["--grammar", "d1", "--source", "0", "--target", "1"]]),
)
def test_reach_contract(data, extra):
    _check_contract([data], lambda paths, _: ["reach", paths[0], *extra])


@FUZZ
@given(_inputs(MATRIX), _inputs(MATRIX))
def test_reduce_bmm_to_d1_contract(a, b):
    _check_contract([a, b], lambda paths, out: ["reduce", "bmm-to-d1", *paths, "-o", out])


@FUZZ
@given(_inputs(GRAPH), st.sampled_from(["case1", "case4", "case7"]))
def test_reduce_d1_to_pa_contract(data, profile):
    _check_contract(
        [data],
        lambda paths, out: ["reduce", "d1-to-pa", paths[0], "-o", out,
                            "--profile", profile, "--prune-isolated"],
    )


@FUZZ
@given(_inputs(GRAPH), st.sampled_from([[], ["--directed"]]))
def test_reduce_triangle_to_d1_contract(data, extra):
    _check_contract([data], lambda paths, out: ["reduce", "triangle-to-d1", paths[0], "-o", out, *extra])
