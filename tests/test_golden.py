"""Pinned output bytes of the reductions, `palab gen`, the crosscheck
suites and the answers that `palab reach` and `palab analyze` print.

Each entry is the sha256 of a deterministic text; a refactor of the
reductions, the generators, the check_* suites or the CLI's rendering must
leave every digest as it is. After an intended output change, re-pin the
entries the failing assertion lists.
"""

import hashlib

import palab.crosscheck as cc
from palab.cli import main
from palab.crosscheck import (
    check_bmm_chain,
    check_peg_equivalence,
    check_pt_prime,
    check_triangle_chain,
    rand_dyck_graph,
    rand_program,
    rand_simple_graph,
    worked_dyck_graph,
    worked_triangle_graph,
)
from palab.model import StatementProfile
from palab.peg import build_peg
from palab.reductions import d1_to_program, triangle_to_st_d1
from palab.textio import serialize_graph, serialize_map, serialize_program

GEN_ARGV = {
    "matrix": ["-n", "5", "--density", "0.4"],
    "program": ["-n", "6", "--stmts", "14"],
    "dyck-graph": ["-n", "7", "-m", "12"],
    "simple-graph": ["-n", "6", "--density", "0.5", "--directed"],
}

GOLDEN = {
    "d1_to_program/rand1/case1/prune=0": "279b03b0fe0efe888a047115a74a36e51b0db0b51a9a5bcfc688960c5ceabb4f",
    "d1_to_program/rand1/case1/prune=1": "17da1874fd16b0e941806aebfaaf0669ef4c05265bb80217121fbc49f412584e",
    "d1_to_program/rand1/case2/prune=0": "4efc95eca277b18f18158d02cd24a1d1dc8e1bc79b96cb0ab4cf6359d2d2c052",
    "d1_to_program/rand1/case2/prune=1": "3cc741e67b53bc418f8539edfb7b1bed5efdae5e4cf5892f4cc9ef71d692caeb",
    "d1_to_program/rand1/case3/prune=0": "03b93db086875f1fa7cfd722fdd27d13a23ec59e88065b982421cdc09f0d3406",
    "d1_to_program/rand1/case3/prune=1": "4397cafac41e29072fc16bd2470d96cb68802afe1b5127d32bbdd3f2ce27535d",
    "d1_to_program/rand1/case4/prune=0": "357647e619a656b32566d9dce7d711dd480150654d6087ef42ea819a868bfb4b",
    "d1_to_program/rand1/case4/prune=1": "218629d39ee0fda918f5221c500fd1d50e5fa67765e776f4fff66d971586f537",
    "d1_to_program/rand1/case5/prune=0": "52cb36f5ad08e7ceed682edc769ad30bb4b1032177028ffcf5f45c2cb1ff31cb",
    "d1_to_program/rand1/case5/prune=1": "f534611461173a604bcb220f99b3e94cebda505acb971e98b64e0a4ba4e6e400",
    "d1_to_program/rand1/case6/prune=0": "7ba924e647be9ff4f1e60a628cbfc90ccfa0f2e74fa860280255dbf585328220",
    "d1_to_program/rand1/case6/prune=1": "c358f231c17e0af14c33b6372cfeed56c242558f978823d66601426aea99f5f2",
    "d1_to_program/rand2/case1/prune=0": "c82019ee481c7283c185b80817c1efbee835c3211bba091fe16997b559d518d1",
    "d1_to_program/rand2/case1/prune=1": "883f6e8e4ef331cb6d714e1b702e5d580d37b6563fc68b0898a86dc148094b09",
    "d1_to_program/rand2/case2/prune=0": "38df62f4a2e28f448b5c901c8dc21dd097fe283187ea18be404cf3020f149ad6",
    "d1_to_program/rand2/case2/prune=1": "2b847a16a85eb1c8e5e547c57d3a031cf68a13b0b69782bb3bd758dbc42212d1",
    "d1_to_program/rand2/case3/prune=0": "7bdba088a3e6895540fabb34d7016ebcad7e60241ffb3e32d6d7658a8aeb4343",
    "d1_to_program/rand2/case3/prune=1": "4d7af69d7e75f2274771c78088d6338f9f6c491c255958270d198b0ed9828b6c",
    "d1_to_program/rand2/case4/prune=0": "2d2e657b40e3862baf15a8f9b2e1333f712b84c2082d90e9482856948baef0a1",
    "d1_to_program/rand2/case4/prune=1": "2062649896793f569663561ea8927c24820076e5bbae747c3dd8ebfdea356ff0",
    "d1_to_program/rand2/case5/prune=0": "05301631eedf604cae86696f8ada90e3a96c7f187cfaf809b6e4b5ef8a75a46c",
    "d1_to_program/rand2/case5/prune=1": "da45da9a9d0cfcd974dd8703d0281b864d899eb11ee6a192625644d728504cc8",
    "d1_to_program/rand2/case6/prune=0": "ae3ff3f0073c96c7423dccb0ad6cc40f5c6b1dbbb9c465af6f6886f347126444",
    "d1_to_program/rand2/case6/prune=1": "198afc8ba5ccc2bae510847f37e01b4200b3a3b675605a42a8872f27bf49346c",
    "d1_to_program/rand3/case1/prune=0": "51c19e956db37e50ed13bd029f869921d7780ac0f6954271e1242edee5c4cc15",
    "d1_to_program/rand3/case1/prune=1": "b529e9c60ad70b09c528f0b82ed44b497f2e41112bdc5c75b8c24198f2431f93",
    "d1_to_program/rand3/case2/prune=0": "00abea5bb96d8e63a383188fcde7b3514ada63afdf46408ef281d90d766c30cc",
    "d1_to_program/rand3/case2/prune=1": "23ddff9a50f9eee4fd1126e2891a8eae57d762622583690ebc5fb9a9ad8f01b1",
    "d1_to_program/rand3/case3/prune=0": "35255dbc52c980c82f58bc025def8146e272188364239c2967348f9db6990c31",
    "d1_to_program/rand3/case3/prune=1": "960d2d2506d8905f53becc33b1fb661da7d98975f16c6a1b62cf8acb247566a5",
    "d1_to_program/rand3/case4/prune=0": "777c4e385cdb41e6dbe37fdc6ddaada6aa4d4496bee86966019d66de59e82092",
    "d1_to_program/rand3/case4/prune=1": "8622fed5f79b7c498dcd8f56ed9468db9574837c152b17eba11e98910fed8df9",
    "d1_to_program/rand3/case5/prune=0": "ef7d0fa53e1f29ee1b3543a47f1659fdaa6a3a5e371a871b791024a01ceb0c14",
    "d1_to_program/rand3/case5/prune=1": "5f0c6c9ec82b3c0cc4d31311a0bbef79adca10b95b79ea32bda91f3d94b5f94e",
    "d1_to_program/rand3/case6/prune=0": "dda02928e9304df36ca2e7d236e71170fa6301b332835734cc912bf65ccb5bd7",
    "d1_to_program/rand3/case6/prune=1": "4a5fea6699c71c68c1940f14a46a2c9e4da5936f05c53615e3e16f8a4fcb14d3",
    "d1_to_program/worked/case1/prune=0": "033b639c4928adfc32887fac0d0ac4c22ff88d1246d445be6a0f5411e1e975db",
    "d1_to_program/worked/case1/prune=1": "64c27d5ff73b37e2210f7391c37a9121b4efbf81b835e5cf1594543f715cb9b1",
    "d1_to_program/worked/case2/prune=0": "b563eb7cec411a2eb2c21fe0879e04859f9c70d04c13ece5ba72f90e223f2f1b",
    "d1_to_program/worked/case2/prune=1": "00fd330d20d46ef7c0d5393bf8ac6ca794206f9ce6404126d76d1ebb36f899cf",
    "d1_to_program/worked/case3/prune=0": "e169291697751bc5e8dc9961471d71077359884dcb0540b175c386364758841d",
    "d1_to_program/worked/case3/prune=1": "364ae519fb8615846a98a0570099906a0f9ac4ce144f36fcac9668a5e35c595c",
    "d1_to_program/worked/case4/prune=0": "b3cb9ae72909380f0a8d2257be537f64ad5943067bdc937058a98948ca95b6ea",
    "d1_to_program/worked/case4/prune=1": "9eaa1ca6c08471ae1ca8108861abbbb5b03160ea8458efc523918e3493bea7ed",
    "d1_to_program/worked/case5/prune=0": "61c29d6ee42426e9f41d7bcdc89bd504d180aa3a6b9d7e52e378a239e43ac95b",
    "d1_to_program/worked/case5/prune=1": "4e41104f491ec7e63b1b51b053095ca49fbf0a193edc77edcf656f33b9ed8665",
    "d1_to_program/worked/case6/prune=0": "5b9febd91a8227da83c57eb31ede0727cdb3347fcb556729e5b3adfe463c8f1a",
    "d1_to_program/worked/case6/prune=1": "8736e24415358ecde792994168f28101a4583e0a652404c57d1cfe03e6df0c03",
    "triangle_to_st_d1/rand/directed=0": "615ae12ba81a0df21820f8c0a41cc27e8ef8413eff6b2814b0296b9d370def43",
    "triangle_to_st_d1/rand/directed=1": "7cac68bf2ebc500efda88cd3a86f35a08c40373a2eb32967aca93b70c0a89e4a",
    "triangle_to_st_d1/worked/directed=0": "dee8878d3606ef9b44fff948aab30ab9f7f95accdddc1e4ca05c0fda09f57614",
    "triangle_to_st_d1/worked/directed=1": "1a3be8b47e2315e43a9fac74ee62f58d5064951a43bc49efb5343d7c7c1e2b70",
    "gen/matrix": "a4e7ab81a5542c8e9272ca22a360972558f5117784a9fd17720eea0a42b4c6b2",
    "gen/program": "eeefd296b9778c26a8048969c43e33b322422f4e2cc5f3edf7acdb447911cb7b",
    "gen/dyck-graph": "0aea90ed3566e66dca7ee5e893e420c1f42a5275bb7f29d7e753d06d6f41dccf",
    "gen/simple-graph": "a247570157e8388f411b4e0d54720523cd200e9a6c24c4ee71de85b08775d464",
    "crosscheck/summaries": "9ff334231eb6f2ef43c154216f53820ecde31804043c7e5c06242ddde55ec59b",
    "crosscheck/inputs": "7ee896078dd908da043135195c9067899a4138492a153209e6d8d45e3b3e119c",
}

# stdout of `palab reach` and `palab analyze`, the answers as printed
CLI_GOLDEN = {
    "reach/g/d1": "593b13aa121b4d73bda931abe0f76c5fb91066fb97b063cbdbb552278923b3c6",
    "reach/g/d1--include-self": "0092f8234568655458952025d179015924cc67830145a6f32f4218c368fcf853",
    "reach/t/d1": "deaf78557bef82f4d3370f76f4378dd183b0735c9637972dc73a8bd4421a8da5",
    "reach/t/d1--include-self": "9e3b703e310d4298927044c3ec3a4375794f254225e2cb3ceea2661b26164d1b",
    "reach/peg/pt": "9fb57e3f127266880ab5674408cce10e6326510e2f428fa1ebf926b63b1670bf",
    "analyze/p1": "c99b8e0907eecdeee3eee57b1a5e3a59bd936779841e131cd55eacb005e91f02",
    "analyze/p3": "71cc52115f943d68b00f388c4e20e2653d29bd5a035efdeda83df227f09ea955",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _record_suite_inputs(monkeypatch) -> list[str]:
    """Route the suites' `solve`, `build_peg` and `triangle_oracle` through
    wrappers that log each drawn instance, so the pinned text also shows
    which instances the seeds produced."""
    drawn: list[str] = []

    def logged(func, serialize):
        def wrapper(instance, *rest):
            drawn.append(serialize(instance))
            return func(instance, *rest)

        return wrapper

    monkeypatch.setattr(cc, "solve", logged(cc.solve, serialize_program))
    monkeypatch.setattr(cc, "build_peg", logged(cc.build_peg, serialize_program))
    monkeypatch.setattr(cc, "triangle_oracle", logged(cc.triangle_oracle, serialize_graph))
    return drawn


def _digests(capsys, monkeypatch) -> dict[str, str]:
    out = {}
    graphs = {f"rand{seed}": rand_dyck_graph(9, 10, seed) for seed in (1, 2, 3)}
    graphs["worked"] = worked_dyck_graph()
    for gname, graph in graphs.items():
        for profile in StatementProfile:
            for prune in (False, True):
                program, rmap = d1_to_program(graph, profile, prune)
                key = f"d1_to_program/{gname}/{profile.value}/prune={int(prune)}"
                out[key] = _sha(serialize_program(program) + serialize_map(rmap))
    triangles = {"rand": rand_simple_graph(6, 0.4, 5), "worked": worked_triangle_graph()}
    for gname, graph in triangles.items():
        for directed in (False, True):
            inst = triangle_to_st_d1(graph, directed)
            key = f"triangle_to_st_d1/{gname}/directed={int(directed)}"
            out[key] = _sha(serialize_graph(inst.graph) + serialize_map(inst.map))
    for kind, argv in GEN_ARGV.items():
        assert main(["gen", kind, *argv, "--seed", "11"]) == 0
        out[f"gen/{kind}"] = _sha(capsys.readouterr().out)
    drawn = _record_suite_inputs(monkeypatch)
    reports = [check_bmm_chain(4, 6, 13, profile) for profile in StatementProfile]
    reports += [
        check_peg_equivalence(4, 13),
        check_pt_prime(4, 13),
        check_triangle_chain(5, 6, 13),
        check_triangle_chain(5, 6, 13, directed=True),
    ]
    text = "\n".join(r.summary_text() for r in reports)
    out["crosscheck/summaries"] = _sha(text)
    out["crosscheck/inputs"] = _sha("".join(drawn))
    return out


def test_golden_bytes(capsys, monkeypatch):
    assert _digests(capsys, monkeypatch) == GOLDEN


def test_golden_cli_stdout(tmp_path, capsys):
    """`reach` on an unnamed and a named graph, each with and without
    `--include-self`, `reach --grammar pt` on a PEG, and `analyze`."""

    def run(*argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def path(name: str) -> str:
        return str(tmp_path / name)

    run("gen", "dyck-graph", "-n", "40", "-m", "80", "--seed", "1", "-o", path("g.lg"))
    run("gen", "simple-graph", "-n", "8", "--seed", "2", "-o", path("s.lg"))
    run("reduce", "triangle-to-d1", path("s.lg"), "-o", path("t.lg"))
    peg = build_peg(rand_program(30, 90, 5)).graph
    (tmp_path / "peg.lg").write_text(serialize_graph(peg))
    run("gen", "program", "-n", "60", "--stmts", "600", "--seed", "1", "-o", path("p1.pa"))
    run("gen", "program", "-n", "70", "--stmts", "840", "--seed", "3", "-o", path("p3.pa"))
    out = {}
    for graph in ("g", "t"):
        for flags in ((), ("--include-self",)):
            key = f"reach/{graph}/d1{''.join(flags)}"
            out[key] = _sha(run("reach", path(f"{graph}.lg"), "--grammar", "d1", *flags))
    out["reach/peg/pt"] = _sha(run("reach", path("peg.lg"), "--grammar", "pt"))
    for prog in ("p1", "p3"):
        out[f"analyze/{prog}"] = _sha(run("analyze", path(f"{prog}.pa")))
    assert out == CLI_GOLDEN
