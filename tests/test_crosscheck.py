import pytest

import palab.crosscheck as cc
from palab.cfl import PT_PRIME_START
from palab.cli import main
from palab.crosscheck import (
    CheckReport,
    bmm_oracle,
    check_bmm_chain,
    check_peg_equivalence,
    check_pt_prime,
    check_triangle_chain,
    rand_dyck_graph,
    rand_matrix,
    rand_program,
    rand_simple_graph,
    triangle_oracle,
    worked_matrices,
    worked_triangle_graph,
)
from palab.model import (
    BooleanMatrix,
    DimensionMismatchError,
    InvalidParamsError,
    LabeledDigraph,
    SelfLoopError,
    StatementProfile,
)
from palab.reductions import bmm_to_d1
from palab.textio import serialize_graph, serialize_matrix, serialize_program

import helpers


def test_bmm_oracle_worked_and_trivial_cases():
    a, b = worked_matrices()
    c = bmm_oracle(a, b)
    assert c.bits[0] == (0, 0, 1, 1)
    assert all(sum(row) == 0 for row in c.bits[1:])
    m = BooleanMatrix([[0, 1], [1, 1]])
    assert bmm_oracle(helpers.identity_matrix(2), m) == m
    ones = BooleanMatrix([[1] * 3 for _ in range(3)])
    assert bmm_oracle(ones, ones) == ones


def test_triangle_oracle_cases():
    assert triangle_oracle(worked_triangle_graph())
    path = LabeledDigraph(4, {"e"}, {(0, "e", 1), (1, "e", 2), (2, "e", 3)})
    assert not triangle_oracle(path)
    k4 = LabeledDigraph(4, {"e"}, {(u, "e", v) for u in range(4) for v in range(u + 1, 4)})
    assert triangle_oracle(k4)
    with pytest.raises(SelfLoopError):
        triangle_oracle(LabeledDigraph(2, {"e"}, {(0, "e", 0)}))


def test_rand_instance_dispatch_and_determinism():
    zero = rand_matrix(4, 0.0, 5)
    assert zero == helpers.zero_matrix(4)
    sparse = rand_dyck_graph(5, 0, 9)
    assert sparse.node_count == 5 and not sparse.edges
    p1 = rand_program(6, 12, 9)
    p2 = rand_program(6, 12, 9)
    assert serialize_program(p1) == serialize_program(p2)
    g1 = rand_dyck_graph(6, 8, 2)
    g2 = rand_dyck_graph(6, 8, 2)
    assert serialize_graph(g1) == serialize_graph(g2)
    with pytest.raises(InvalidParamsError):
        rand_dyck_graph(1, 99, 0)


def test_programs_always_initialize_points_to_sets():
    from palab.model import StatementKind

    for seed in range(80):
        prog = rand_program(8, 10, seed)
        assert any(st.kind is StatementKind.ADDRESS_OF for st in prog.statements)


def test_suite_reports_are_deterministic():
    r1 = check_bmm_chain(n_max=4, trials=10, seed=3)
    r2 = check_bmm_chain(n_max=4, trials=10, seed=3)
    assert r1 == r2
    assert helpers.kv_dump(r1) == helpers.kv_dump(r2)


def test_small_suite_runs_pass():
    assert check_bmm_chain(n_max=4, trials=5, seed=1).passed
    assert check_bmm_chain(n_max=1, trials=5, seed=1).passed  # 1x1 products
    assert check_peg_equivalence(trials=5, seed=7).passed
    assert check_pt_prime(trials=5, seed=11).passed
    assert check_triangle_chain(n_max=3, trials=1, seed=0).passed
    assert check_triangle_chain(n_max=5, trials=5, seed=0, directed=True).passed


def test_bmm_suite_builds_one_instance_per_trial(monkeypatch):
    """The graph stage and the points-to readback read the same instance."""
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return bmm_to_d1(a, b)

    monkeypatch.setattr(cc, "bmm_to_d1", counting)
    assert check_bmm_chain(n_max=4, trials=7, seed=2).passed
    assert len(calls) == 7


def test_suite_parameter_validation():
    with pytest.raises(InvalidParamsError):
        check_bmm_chain(n_max=0, trials=1, seed=0)
    with pytest.raises(InvalidParamsError):
        check_triangle_chain(n_max=2, trials=1, seed=0)
    with pytest.raises(InvalidParamsError):
        check_peg_equivalence(trials=0, seed=0)


def test_report_text_shape():
    report = CheckReport("demo", 3, ((12, "n=2", True, False),))
    text = report.summary_text()
    assert text.splitlines()[0] == "suite=demo trials=3 mismatches=1"
    assert "MISMATCH seed=12" in text
    assert not report.passed
    assert "passed\t0" in helpers.kv_dump(report)


def test_equal_runs_give_equal_reports(capsys):
    assert check_bmm_chain(4, 10, 3) == check_bmm_chain(4, 10, 3)
    assert check_triangle_chain(5, 10, 3) == check_triangle_chain(5, 10, 3)
    outputs = []
    for _ in range(2):
        assert main(["crosscheck", "--suite", "bmm", "--trials", "10", "--seed", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "suite",
    [
        lambda seed: check_bmm_chain(4, 200, seed),
        lambda seed: check_peg_equivalence(200, seed),
        lambda seed: check_pt_prime(200, seed),
        lambda seed: check_triangle_chain(5, 200, seed, directed=True),
    ],
    ids=["bmm", "peg", "pt-prime", "triangle"],
)
def test_trials_hand_the_generators_fresh_seeds(suite, monkeypatch):
    """Each trial draws its generators' seeds from its own stream, so no
    seed reaches a generator twice and none is another trial's seed."""
    drawn: list[int] = []

    def logged(gen):
        def wrapper(*args):
            drawn.append(args[2])
            return gen(*args)

        return wrapper

    for name in ("rand_matrix", "rand_program", "rand_dyck_graph", "rand_simple_graph"):
        monkeypatch.setattr(cc, name, logged(getattr(cc, name)))
    seed = 3
    assert suite(seed).passed
    assert drawn and len(set(drawn)) == len(drawn)
    assert not set(drawn) & {seed * 1000003 + k for k in range(200)}


def test_oracle_refuses_matrices_of_two_sizes():
    with pytest.raises(DimensionMismatchError, match="2 vs 3"):
        bmm_oracle(helpers.identity_matrix(2), helpers.identity_matrix(3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: rand_matrix(0, 0.3, 0),
        lambda: rand_matrix(2, 1.5, 0),
        lambda: rand_program(0, 1, 0),
        lambda: rand_program(1, 0, 0),
        lambda: rand_dyck_graph(-1, 0, 0),
        lambda: rand_dyck_graph(2, -1, 0),
        lambda: rand_simple_graph(-1, 0.3, 0),
        lambda: rand_simple_graph(3, -0.1, 0),
    ],
)
def test_generators_refuse_bad_parameters(call):
    with pytest.raises(InvalidParamsError, match="need "):
        call()


class _Negated:
    """A summary set whose every `holds` answer is flipped."""

    def __init__(self, summaries):
        self.summaries = summaries

    def holds(self, *args):
        return not self.summaries.holds(*args)


class _Flipped:
    """A points-to solution whose every `query` answer is flipped."""

    def __init__(self, solution):
        self.solution = solution

    def query(self, *args):
        return not self.solution.query(*args)


def _negate_matrix(product):
    return lambda a, b: BooleanMatrix([[1 - bit for bit in row] for row in product(a, b).bits])


def _negate_prime(all_pairs):
    def wrapper(graph, grammar):
        summaries = all_pairs(graph, grammar)
        return _Negated(summaries) if grammar.start == PT_PRIME_START else summaries

    return wrapper


@pytest.mark.parametrize(
    "suite, run, engine, negate",
    [
        ("bmm", lambda s: check_bmm_chain(8, 3, s), "_product_via_d1", _negate_matrix),
        ("peg", lambda s: check_peg_equivalence(3, s), "all_pairs", lambda f: lambda *a: _Negated(f(*a))),
        ("pt-prime", lambda s: check_pt_prime(3, s), "all_pairs", _negate_prime),
        ("triangle", lambda s: check_triangle_chain(8, 3, s), "st_query", lambda f: lambda *a: not f(*a)),
        ("triangle", lambda s: check_triangle_chain(8, 3, s), "solve", lambda f: lambda *a: _Flipped(f(*a))),
    ],
)
def test_a_flipped_engine_answer_fails_the_suite(suite, run, engine, negate, monkeypatch, capsys):
    """Every trial of a suite whose engine answers wrong is a mismatch that
    names its trial seed, and `palab crosscheck` (default --max-n 8) prints
    the same report and exits 1."""
    monkeypatch.setattr(cc, engine, negate(getattr(cc, engine)))
    seed = 3
    trial_seeds = [seed * 1000003 + k for k in range(3)]
    report = run(seed)
    assert not report.passed
    assert sorted({mismatch[0] for mismatch in report.mismatches}) == trial_seeds
    assert main(["crosscheck", "--suite", suite, "--trials", "3", "--seed", str(seed)]) == 1
    out = capsys.readouterr().out
    assert out == report.summary_text() + "\n"
    assert all(f"MISMATCH seed={tseed} " in out for tseed in trial_seeds)
