import pytest

from palab.andersen import solve
from palab.cfl import all_pairs, builtin_grammar, st_query
from palab.crosscheck import (
    bmm_oracle,
    multiply_via_d1,
    rand_dyck_graph,
    rand_matrix,
    rand_simple_graph,
    triangle_oracle,
    worked_dyck_graph,
    worked_matrices,
    worked_triangle_graph,
)
from palab.model import (
    AlphabetMismatchError,
    BooleanMatrix,
    DimensionMismatchError,
    DYCK_LABELS,
    InvalidParamsError,
    LabeledDigraph,
    ReductionMap,
    SelfLoopError,
    StatementKind,
    StatementProfile,
)
from palab.peg import ExprForm, build_peg
from palab.reductions import (
    StInstance,
    bmm_to_d1,
    d1_to_program,
    triangle_to_st_d1,
)
from palab.textio import parse_program, serialize_program

import helpers

D1 = builtin_grammar("d1")


# ---------------------------------------------------------------------------
# matrix product -> bracket graph

def test_worked_matrices_produce_three_edges():
    inst = bmm_to_d1(*worked_matrices())
    assert inst.graph.node_count == 12
    named = {
        (inst.graph.name_of(s), l, inst.graph.name_of(d)) for s, l, d in inst.graph.edges
    }
    assert named == {("x0", "[1", "y1"), ("y1", "]1", "z2"), ("y1", "]1", "z3")}


def test_zero_matrices_give_edgeless_graph():
    z = helpers.zero_matrix(4)
    inst = bmm_to_d1(z, z)
    assert inst.graph.node_count == 12 and not inst.graph.edges


def test_identity_product_via_reachability():
    eye = helpers.identity_matrix(2)
    inst = bmm_to_d1(eye, eye)
    named = {
        (inst.graph.name_of(s), l, inst.graph.name_of(d)) for s, l, d in inst.graph.edges
    }
    assert named == {
        ("x0", "[1", "y0"), ("x1", "[1", "y1"),
        ("y0", "]1", "z0"), ("y1", "]1", "z1"),
    }
    assert multiply_via_d1(eye, eye) == eye


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        bmm_to_d1(helpers.zero_matrix(2), helpers.zero_matrix(3))
    with pytest.raises(DimensionMismatchError):
        multiply_via_d1(helpers.zero_matrix(2), helpers.zero_matrix(3))


def test_worked_product_and_seeded_products_match_oracle():
    a, b = worked_matrices()
    assert multiply_via_d1(a, b) == bmm_oracle(a, b)
    for trial in range(50):
        n = 1 + trial % 10
        a = rand_matrix(n, 0.3, seed=2 * trial)
        b = rand_matrix(n, 0.3, seed=2 * trial + 1)
        assert multiply_via_d1(a, b) == bmm_oracle(a, b), trial


def test_size_formula_three_layers():
    for trial in range(50):
        n = 1 + trial % 9
        a = rand_matrix(n, 0.4, seed=400 + trial)
        b = rand_matrix(n, 0.4, seed=500 + trial)
        inst = bmm_to_d1(a, b)
        assert inst.graph.node_count == 3 * n
        assert len(inst.graph.edges) == a.nnz() + b.nnz()


# ---------------------------------------------------------------------------
# bracket graph -> pointer program

def test_pruned_reduction_matches_walkthrough_program():
    program, rmap = d1_to_program(
        helpers.renamed_worked_graph(), StatementProfile.CASE1, prune_isolated=True
    )
    assert len(program.statements) == 21
    assert len(program.variables) == 22
    # the walkthrough takes a temp per edge; v1's two close edges share one,
    # so its `v1 = &t` is emitted once
    reference = parse_program(helpers.REDUCED_PROGRAM_TEXT)
    expected = helpers.erased_statement_forms(reference)
    expected.remove("v1 = &?")
    assert helpers.erased_statement_forms(program) == expected
    ours, theirs = solve(program), solve(reference)
    for v in ("u0", "v1", "w2", "w3", "u0'", "v1'", "w2'", "w3'"):
        for w in ("u0'", "v1'", "w2'", "w3'"):
            assert ours.query(v, w) == theirs.query(v, w)


def test_unpruned_sizes_for_the_full_statement_profile():
    graph = worked_dyck_graph()  # 12 nodes, 3 edges from 2 (source, label) pairs
    program, _ = d1_to_program(graph, StatementProfile.CASE1)
    assert len(program.variables) == 5 * 12 + 2
    assert len(program.statements) == 4 * 12 + 2 + 3


def test_pruning_walks_the_edges_not_the_node_count():
    # 10**9 unnamed nodes, one edge: the pruned program names only the two
    # touched nodes, so it is built without a pass over every node
    for profile in StatementProfile:
        small = d1_to_program(LabeledDigraph(2, DYCK_LABELS, {(0, "[1", 1)}), profile, True)
        huge = d1_to_program(LabeledDigraph(10**9, DYCK_LABELS, {(0, "[1", 1)}), profile, True)
        assert serialize_program(huge[0]) == serialize_program(small[0]), profile
        assert huge[1] == small[1], profile


def test_single_node_smallest_profile():
    graph = LabeledDigraph(1, DYCK_LABELS, set(), ("v",))
    program, rmap = d1_to_program(graph, StatementProfile.CASE5)
    assert serialize_program(program) == "v = &v'\n"
    assert len(program.variables) == 2
    assert rmap.forward[0][0].name == "v" and rmap.forward[0][1].name == "v'"


def test_non_bracket_labels_are_rejected():
    g = LabeledDigraph(2, {"e"}, {(0, "e", 1)})
    with pytest.raises(AlphabetMismatchError) as err:
        d1_to_program(g, StatementProfile.CASE1)
    assert err.value.labels == ("e",)


def test_profile_purity_and_size_accounting():
    for trial, profile in enumerate(StatementProfile):
        graph = rand_dyck_graph(6, 9, seed=700 + trial)
        program, _ = d1_to_program(graph, profile)
        used = {st.kind for st in program.statements}
        assert used <= helpers.allowed_kinds(profile)
        nv, ne = graph.node_count, len(graph.edges)
        sources = len({(u, label) for u, label, _ in graph.edges})
        expected_vars = (
            (2 + helpers.temps_per_node(profile)) * nv
            + helpers.temps_per_edge(profile) * sources
        )
        expected_stmts = (1 + helpers.temps_per_node(profile)) * nv + (
            sources + ne if helpers.edges_via_star_assign(profile) else ne
        )
        assert len(program.variables) == expected_vars
        assert len(program.statements) == expected_stmts


def test_reduction_is_deterministic_bytes():
    graph = rand_dyck_graph(7, 11, seed=31)
    first, _ = d1_to_program(graph, StatementProfile.CASE2)
    second, _ = d1_to_program(graph, StatementProfile.CASE2)
    assert serialize_program(first) == serialize_program(second)


@pytest.mark.parametrize("profile", list(StatementProfile))
def test_reachability_transfers_to_points_to_for_every_profile(profile):
    for trial in range(12):
        n = 1 + trial % 10
        graph = rand_dyck_graph(n, min((3 * trial) % 16, 2 * n * n), seed=40 + trial)
        summaries = all_pairs(graph, D1)
        program, rmap = d1_to_program(graph, profile)
        solution = solve(program)
        for u in range(graph.node_count):
            for v in range(graph.node_count):
                expected = summaries.holds(u, "D1", v)
                got = solution.query(rmap.forward[u][0], rmap.forward[v][1])
                assert expected == got, (profile, trial, u, v)


def test_gadget_chain_structure_of_the_full_profile():
    """Every program edge in the reduced PEG belongs to exactly one gadget;
    edge gadgets carry the full four-edge open/close chains."""
    graph = rand_dyck_graph(5, 8, seed=77)
    program, rmap = d1_to_program(graph, StatementProfile.CASE1)
    peg = build_peg(program)
    edges = peg.graph.edges

    def var_node(name, form):
        from palab.model import Variable

        return peg.node(Variable(name), form)

    covered = set()
    # node gadgets: v = *t1; t1 = t2; t2 = &t3; t3 = &v'
    by_kind = {}
    for st in program.statements:
        by_kind.setdefault((st.kind, st.lhs.name), st)
    for v in range(graph.node_count):
        qvar, avar = rmap.forward[v]
        star = by_kind[(StatementKind.ASSIGN_STAR, qvar.name)]
        t1 = star.rhs
        copy = by_kind[(StatementKind.ASSIGN, t1.name)]
        t2 = copy.rhs
        addr = by_kind[(StatementKind.ADDRESS_OF, t2.name)]
        t3 = addr.rhs
        last = by_kind[(StatementKind.ADDRESS_OF, t3.name)]
        assert last.rhs == avar
        covered |= {
            (var_node(qvar.name, ExprForm.VAR), "as", var_node(t1.name, ExprForm.DEREF)),
            (var_node(t1.name, ExprForm.VAR), "s", var_node(t2.name, ExprForm.VAR)),
            (var_node(t2.name, ExprForm.VAR), "r", var_node(t3.name, ExprForm.ADDR)),
            (var_node(t3.name, ExprForm.VAR), "r", var_node(avar.name, ExprForm.ADDR)),
        }
    # edge gadgets: open u->v becomes t = &u; *v = t, so the graph walk
    # u -(-d)-> &u -(-r)-> t -(-sa)-> *v -(-d)-> v exists; close u->v becomes
    # u = &t; *t = v with walk u -r-> &t -d-> t -d-> *t -sa-> v
    for src, label, dst in graph.edges:
        uq, vq = rmap.forward[src][0], rmap.forward[dst][0]
        u_var, v_var = var_node(uq.name, ExprForm.VAR), var_node(vq.name, ExprForm.VAR)
        if label == "[1":
            hops = [
                e
                for e in edges
                if e[0] == var_node(uq.name, ExprForm.ADDR) and e[1] == "-r"
            ]
            assert hops, (src, dst)
            for _, _, t_node in hops:
                t_name = peg.expr_of[t_node][0].name
                chain = [
                    (u_var, "-d", var_node(uq.name, ExprForm.ADDR)),
                    (var_node(uq.name, ExprForm.ADDR), "-r", t_node),
                    (t_node, "-sa", var_node(vq.name, ExprForm.DEREF)),
                    (var_node(vq.name, ExprForm.DEREF), "-d", v_var),
                ]
                if all(e in edges for e in chain):
                    covered |= {
                        (t_node, "r", var_node(uq.name, ExprForm.ADDR)),
                        (var_node(vq.name, ExprForm.DEREF), "sa", t_node),
                    }
        else:
            hops = [e for e in edges if e[0] == u_var and e[1] == "r"]
            assert hops
            for _, _, taddr in hops:
                t_name = peg.expr_of[taddr][0].name
                chain = [
                    (u_var, "r", taddr),
                    (taddr, "d", var_node(t_name, ExprForm.VAR)),
                    (var_node(t_name, ExprForm.VAR), "d", var_node(t_name, ExprForm.DEREF)),
                    (var_node(t_name, ExprForm.DEREF), "sa", v_var),
                ]
                if all(e in edges for e in chain):
                    covered |= {
                        (u_var, "r", taddr),
                        (var_node(t_name, ExprForm.DEREF), "sa", v_var),
                    }
    program_edges = {
        e for e in edges if e[1] in ("r", "s", "as", "sa")
    }
    assert covered == program_edges


# ---------------------------------------------------------------------------
# triangle detection -> s-t bracket reachability

def test_worked_triangle_sizes_and_answer():
    inst = triangle_to_st_d1(worked_triangle_graph())
    assert inst.graph.node_count == 7 * 4 + 2
    assert len(inst.graph.edges) == 5 * 4 + 6 * 4
    assert st_query(inst.graph, D1, inst.s, inst.t)


def test_path_graph_has_no_triangle():
    path = LabeledDigraph(4, {"e"}, {(0, "e", 1), (1, "e", 2), (2, "e", 3)})
    inst = triangle_to_st_d1(path)
    assert not st_query(inst.graph, D1, inst.s, inst.t)


def test_single_node_instance():
    g = LabeledDigraph(1, {"e"}, set())
    inst = triangle_to_st_d1(g)
    assert inst.graph.node_count == 6
    assert len(inst.graph.edges) == 2
    assert not st_query(inst.graph, D1, inst.s, inst.t)


def test_self_loops_are_rejected():
    g = LabeledDigraph(2, {"e"}, {(1, "e", 1)})
    with pytest.raises(SelfLoopError):
        triangle_to_st_d1(g)


def test_size_formulas_both_modes():
    for trial in range(50):
        n = 3 + trial % 8
        und = rand_simple_graph(n, 0.4, seed=600 + trial)
        m = len(und.edges)
        inst = triangle_to_st_d1(und)
        hops = 3 * n if m else 0  # one hop node per layer copy 0..2
        assert inst.graph.node_count == 4 * n + 2 + hops
        assert len(inst.graph.edges) == 2 * n + hops + 6 * m
        dg = rand_simple_graph(n, 0.4, seed=960 + trial, directed=True)
        md = len(dg.edges)
        dinst = triangle_to_st_d1(dg, directed=True)
        hops = 3 * n if md else 0
        assert dinst.graph.node_count == 4 * n + 2 + hops
        assert len(dinst.graph.edges) == 2 * n + hops + 3 * md


def test_source_and_sink_are_terminal():
    inst = triangle_to_st_d1(worked_triangle_graph())
    for src, _, dst in inst.graph.edges:
        assert dst != inst.s
        assert src != inst.t


def test_directed_mode_tracks_cycle_orientation():
    # u -> v -> w -> u is a directed triangle; reversing one arc breaks it
    cyc = LabeledDigraph(3, {"e"}, {(0, "e", 1), (1, "e", 2), (2, "e", 0)})
    inst = triangle_to_st_d1(cyc, directed=True)
    assert triangle_oracle(cyc, directed=True)
    assert st_query(inst.graph, D1, inst.s, inst.t)
    broken = LabeledDigraph(3, {"e"}, {(0, "e", 1), (1, "e", 2), (0, "e", 2)})
    binst = triangle_to_st_d1(broken, directed=True)
    assert not triangle_oracle(broken, directed=True)
    assert not st_query(binst.graph, D1, binst.s, binst.t)


def test_zero_times_anything_is_zero():
    zero = helpers.zero_matrix(3)
    ones = BooleanMatrix([[1] * 3 for _ in range(3)])
    assert multiply_via_d1(zero, ones) == zero
    assert multiply_via_d1(ones, zero) == zero


def test_reserved_or_clashing_node_names_fall_back():
    g = LabeledDigraph(3, DYCK_LABELS, {(0, "[1", 1), (1, "]1", 2)}, ("t1", "b", "b'"))
    program, rmap = d1_to_program(g, StatementProfile.CASE1)
    assert [rmap.forward[i][0].name for i in range(3)] == ["n0", "n1", "n2"]
    solution = solve(program)
    summaries = all_pairs(g, D1)
    for u in range(3):
        for v in range(3):
            assert solution.query(rmap.forward[u][0], rmap.forward[v][1]) == summaries.holds(
                u, "D1", v
            )


def test_triangle_layer_names_avoid_auxiliary_clashes():
    g = LabeledDigraph(3, {"e"}, {(0, "e", 1), (1, "e", 2), (0, "e", 2)}, ("t", "u", "v"))
    inst = triangle_to_st_d1(g)
    assert len(set(inst.graph.node_names)) == inst.graph.node_count


def test_triangle_layer_names_never_read_as_node_ids():
    # layer copies are named <name><layer>; "-" would give "-0", an id token
    g = LabeledDigraph(3, {"e"}, {(0, "e", 1), (1, "e", 2), (0, "e", 2)}, ("-", "a", "b"))
    inst = triangle_to_st_d1(g)
    assert inst.graph.node_names[:4] == ("n0_0", "n0_1", "n0_2", "n0_3")
    assert st_query(inst.graph, D1, inst.s, inst.t)


def test_instances_check_their_own_shape():
    rmap = ReductionMap((), {})
    path = LabeledDigraph(3, DYCK_LABELS, {(0, "[1", 1), (1, "]1", 2)})
    assert StInstance(path, 0, 2, rmap).t == 2
    with pytest.raises(InvalidParamsError, match="source node must have no incoming edges"):
        StInstance(path, 1, 2, rmap)
    with pytest.raises(InvalidParamsError, match="sink node must have no outgoing edges"):
        StInstance(path, 0, 1, rmap)
