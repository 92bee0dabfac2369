"""The row-reading `.sol` serializer against the reference that reads the
`pt` view's frozensets (`helpers.reference_serialize_solution`), byte for
byte, and `query`'s bit test against membership in the `pt` view, on random
programs of the `analyze` benchmark's shapes and on hand-picked edge cases."""

import pytest

from palab.andersen import solve
from palab.crosscheck import rand_program
from palab.model import Program
from palab.textio import parse_program, serialize_solution

import helpers

# (max_vars, max_stmts): sparse, mid and dense, as `analyze` runs them
SHAPES = [(180, 360), (100, 500), (70, 840)]
EDGE_CASES = {
    "empty": "",
    "an empty set": "a = &b\nc = a\n",
    "one shared set": "a = &c\nb = a\nc = b\na = c\n",
    "collapsed cycle": "p = &a\nq = p\np = q\nr = *q\n*p = r\na = &b\n",
    "numbered names": "v9 = &v10\nv10 = &v9\nv2 = v9\nv10 = &v2\n",
    "primed names": "x' = &x\nx = &x'\nx0 = *x'\nx_ = &x0\n*x = x_\n",
}


def _check(program: Program):
    solution = solve(program)
    assert serialize_solution(solution) == helpers.reference_serialize_solution(solution)
    pt = solution.pt
    for p in solution.variables:
        for q in solution.variables:
            assert solution.query(p, q) == (q in pt[p]), (p, q)


@pytest.mark.parametrize("max_vars, max_stmts", SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_rows_render_as_the_reference_on_analyze_shapes(max_vars, max_stmts, seed):
    _check(rand_program(max_vars, max_stmts, seed))


@pytest.mark.parametrize("name", EDGE_CASES)
def test_rows_render_as_the_reference_on_edge_cases(name):
    program = parse_program(EDGE_CASES[name])
    _check(program)
    # a reordered program lists its variables in another order: the rows
    # differ, the solutions and their text do not
    reordered = Program(reversed(program.statements))
    assert solve(reordered) == solve(program)
    assert serialize_solution(solve(reordered)) == serialize_solution(solve(program))


def test_edge_cases_cover_what_they_name():
    sol = {name: solve(parse_program(text)) for name, text in EDGE_CASES.items()}
    assert sol["empty"].variables == () and serialize_solution(sol["empty"]) == ""
    assert 0 in sol["an empty set"].rows
    assert len(set(sol["one shared set"].rows)) == 1
    stats = {}
    solve(parse_program(EDGE_CASES["collapsed cycle"]), stats=stats)
    assert stats["merged"] > 0
    for name in ("numbered names", "primed names"):
        names = [v.name for v in sol[name].variables]
        assert names != sorted(names), name
    assert sol["an empty set"] != sol["one shared set"]
    assert sol["empty"] != {}
