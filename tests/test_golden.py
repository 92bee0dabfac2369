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
    "d1_to_program/rand1/case1/prune=0": "570690544e52a136f0310b17666fb1ae48a0d4e2242934bde16953d645e98dbd",
    "d1_to_program/rand1/case1/prune=1": "3d5c639c343d210666a82196fc18b7e82cec8a74731b0c55c579bc8915b56cc9",
    "d1_to_program/rand1/case2/prune=0": "c3526c290aa8f76d631ef61c33a1788faf306e04cfd6297837bf04f2a7c21f33",
    "d1_to_program/rand1/case2/prune=1": "7af03533048dfe6ecc9ecc4631e6df2d51a182906a174f1b082c688b53a3dbb4",
    "d1_to_program/rand1/case3/prune=0": "2b9fbce1df0d1664a1404fd8c87f8db063cde31646c0588735ea564fbe8c1d89",
    "d1_to_program/rand1/case3/prune=1": "75ea993010773031c04ead41f8509864062aa67588bd66a7081f815570ec8056",
    "d1_to_program/rand1/case4/prune=0": "357647e619a656b32566d9dce7d711dd480150654d6087ef42ea819a868bfb4b",
    "d1_to_program/rand1/case4/prune=1": "218629d39ee0fda918f5221c500fd1d50e5fa67765e776f4fff66d971586f537",
    "d1_to_program/rand1/case5/prune=0": "f9e398588a83f3209adc795cb3d77e36ae8b86381252c0a2887e79baf7c95aba",
    "d1_to_program/rand1/case5/prune=1": "eb66fdf1dcc795c4ab36f89eedcc2776adb353d21475db0c43677f4ef405de47",
    "d1_to_program/rand1/case6/prune=0": "7ba924e647be9ff4f1e60a628cbfc90ccfa0f2e74fa860280255dbf585328220",
    "d1_to_program/rand1/case6/prune=1": "c358f231c17e0af14c33b6372cfeed56c242558f978823d66601426aea99f5f2",
    "d1_to_program/rand2/case1/prune=0": "b1f977831d58e9e18ada00355d5f2ef4a3f96dd057838ef13cc34b778f6be788",
    "d1_to_program/rand2/case1/prune=1": "e614affe8d22d4485935359757e476ed23b8b731ead96615a0bfef9adb8d2ae5",
    "d1_to_program/rand2/case2/prune=0": "f2ea1cf9411a95163f45b3296291dad491292d559910cb8f8b6cfbe464b69262",
    "d1_to_program/rand2/case2/prune=1": "956ecbf180310b64604b60c927a9dd14ef6ffa9c149032b1210abab15d770eec",
    "d1_to_program/rand2/case3/prune=0": "e47c84ca369150b1eaf774f61d297425c9e11f0ae11576d04adf50962d4362f6",
    "d1_to_program/rand2/case3/prune=1": "6d623d4808e7e5ad2278e2de1e285e89a617e1bf74b714cfca47f30498e5aead",
    "d1_to_program/rand2/case4/prune=0": "2d2e657b40e3862baf15a8f9b2e1333f712b84c2082d90e9482856948baef0a1",
    "d1_to_program/rand2/case4/prune=1": "2062649896793f569663561ea8927c24820076e5bbae747c3dd8ebfdea356ff0",
    "d1_to_program/rand2/case5/prune=0": "f265a0f568f458ce6e90dfcbf62b27b60c89212c1913ff6d799fcf6dcf816127",
    "d1_to_program/rand2/case5/prune=1": "15770001d94c149f756e0477a720a59867a43618e270a3e1c125d4124c85f39a",
    "d1_to_program/rand2/case6/prune=0": "ae3ff3f0073c96c7423dccb0ad6cc40f5c6b1dbbb9c465af6f6886f347126444",
    "d1_to_program/rand2/case6/prune=1": "198afc8ba5ccc2bae510847f37e01b4200b3a3b675605a42a8872f27bf49346c",
    "d1_to_program/rand3/case1/prune=0": "7a912412bebd5a4f9b88820ab84e674aee3554911c64a8259d4803a8516029e0",
    "d1_to_program/rand3/case1/prune=1": "741b390d11e4d3f23a10d2d99afc4d9d8965f052f0ffe86d1763e58cf71cbbec",
    "d1_to_program/rand3/case2/prune=0": "64c726fc8dae7fb6c7c998ff9e0caa22758f1f85916ce3ae91f53b242875ce73",
    "d1_to_program/rand3/case2/prune=1": "313d4a978b0585156813a59810ee06ad06fa880a148d8781d09a0695bf474121",
    "d1_to_program/rand3/case3/prune=0": "eabae6a7b7dd0d0ec78ffdc708ed07affb36da58fcd48ee36c3c7c84587274d7",
    "d1_to_program/rand3/case3/prune=1": "5af4ea4705be48b60e9a41961f6b40d68de0ed2e9df12baf3c6f05dd557dd8ea",
    "d1_to_program/rand3/case4/prune=0": "777c4e385cdb41e6dbe37fdc6ddaada6aa4d4496bee86966019d66de59e82092",
    "d1_to_program/rand3/case4/prune=1": "8622fed5f79b7c498dcd8f56ed9468db9574837c152b17eba11e98910fed8df9",
    "d1_to_program/rand3/case5/prune=0": "798b0286bb7c72b7ee7851f3df370afd9738ceb66d8c707563866ed511011562",
    "d1_to_program/rand3/case5/prune=1": "d4c7d78388f467c3c916b338256b278def1f9796e8ec6480782824bfed8f91cc",
    "d1_to_program/rand3/case6/prune=0": "dda02928e9304df36ca2e7d236e71170fa6301b332835734cc912bf65ccb5bd7",
    "d1_to_program/rand3/case6/prune=1": "4a5fea6699c71c68c1940f14a46a2c9e4da5936f05c53615e3e16f8a4fcb14d3",
    "d1_to_program/worked/case1/prune=0": "ad250dfc03cfca75a816309fd30c93ecb1e87f92fbd19922e43f83ac346b66da",
    "d1_to_program/worked/case1/prune=1": "ed119c1070aa22122f4c18b9ce559d9de58fd19419240766aa980946dc983729",
    "d1_to_program/worked/case2/prune=0": "3e9e9738f88a758a56f9571ee3ddeaea38b4402eb5ce5bd3d77213c79094e00c",
    "d1_to_program/worked/case2/prune=1": "8aac290b29998468b45b8c9a0c7bc1cd589ebe232b9bbdd5bdfda05f17d731b6",
    "d1_to_program/worked/case3/prune=0": "631f939738d99f21a94d23854ad1304d85d3da34ba1d2df8180473f5434b1f17",
    "d1_to_program/worked/case3/prune=1": "008392e05bf9157e862b593a856d48d775a6fe8cec82ce024cdce973db7ec4e1",
    "d1_to_program/worked/case4/prune=0": "b3cb9ae72909380f0a8d2257be537f64ad5943067bdc937058a98948ca95b6ea",
    "d1_to_program/worked/case4/prune=1": "9eaa1ca6c08471ae1ca8108861abbbb5b03160ea8458efc523918e3493bea7ed",
    "d1_to_program/worked/case5/prune=0": "05dc343cba2245231d6f44bd2e59ca01208b160480f1a11099663c0e89e408f4",
    "d1_to_program/worked/case5/prune=1": "62d55f8bfaca5e132d38d9ef54c86b0e10361c81fa7a40cde435b808b16eed29",
    "d1_to_program/worked/case6/prune=0": "5b9febd91a8227da83c57eb31ede0727cdb3347fcb556729e5b3adfe463c8f1a",
    "d1_to_program/worked/case6/prune=1": "8736e24415358ecde792994168f28101a4583e0a652404c57d1cfe03e6df0c03",
    "triangle_to_st_d1/rand/directed=0": "86da356b3cf35421a4c6815355c4dfe60e77075a978b93512dc5495e5443ec93",
    "triangle_to_st_d1/rand/directed=1": "cce1fe063de4a57c96b886e029ebb1a75d77c32b57ec26096acbed47d0b60736",
    "triangle_to_st_d1/worked/directed=0": "9f00eb7ff294506c07ba7d9e8c90b5c741c92333b175322b19ced51eb3913644",
    "triangle_to_st_d1/worked/directed=1": "fada9e21643ca0ab49332aee97215acf00441db44fb4a8881db729da43df89d8",
    "gen/matrix": "a4e7ab81a5542c8e9272ca22a360972558f5117784a9fd17720eea0a42b4c6b2",
    "gen/program": "eeefd296b9778c26a8048969c43e33b322422f4e2cc5f3edf7acdb447911cb7b",
    "gen/dyck-graph": "0aea90ed3566e66dca7ee5e893e420c1f42a5275bb7f29d7e753d06d6f41dccf",
    "gen/simple-graph": "a247570157e8388f411b4e0d54720523cd200e9a6c24c4ee71de85b08775d464",
    "crosscheck/summaries": "9ff334231eb6f2ef43c154216f53820ecde31804043c7e5c06242ddde55ec59b",
    "crosscheck/inputs": "ccfed507f5c6f24403bbc56b0f2adfd4bc7a836766bee364ebcada4f80b3b3a3",
}

# stdout of `palab reach` and `palab analyze`, the answers as printed
CLI_GOLDEN = {
    "reach/g/d1": "593b13aa121b4d73bda931abe0f76c5fb91066fb97b063cbdbb552278923b3c6",
    "reach/g/d1--include-self": "0092f8234568655458952025d179015924cc67830145a6f32f4218c368fcf853",
    "reach/t/d1": "deaf78557bef82f4d3370f76f4378dd183b0735c9637972dc73a8bd4421a8da5",
    "reach/t/d1--include-self": "f9ba8a74b39fed533c5c844269a9a893e53e911e7d0963359d75d66bbb88a538",
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
