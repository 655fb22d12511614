"""End-to-end command-line behavior: exit codes, formats, determinism."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rturan
from rturan import constructions
from rturan.cli import SUITES, _SEARCH_SUITE_ROWS, _build_parser, main
from rturan import Collection, certification_grid, codec_read, codec_write, meshulam_collection


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_detect_found_and_not_found(tmp_path, capsys):
    path = str(tmp_path / "c.rcol")
    codec_write(meshulam_collection(6, 2, 3), path)
    code, out, _ = run(capsys, "detect", "--collection", path, "--pattern", "M2")
    assert code == 0 and out.startswith("vmap")
    code, out, _ = run(capsys, "detect", "--collection", path, "--pattern", "M3")
    assert code == 1 and out.strip() == "none"
    code, out, _ = run(capsys, "detect", "--collection", path, "--pattern", "K7")
    assert code == 1 and out.strip() == "none"


def test_compute_prints_value(capsys, tmp_path):
    code, out, _ = run(
        capsys, "compute", "--mode", "prod", "--n", "4", "--t", "2", "--forbid", "{M2}"
    )
    assert code == 0 and out.strip() == "9"
    witness = str(tmp_path / "w.rcol")
    code, out, _ = run(
        capsys,
        "compute", "--mode", "min", "--n", "4", "--t", "2", "--forbid", "{M2}",
        "--out", witness,
    )
    assert code == 0 and out.strip() == "3"
    col = codec_read(witness)
    assert min(col.edge_counts()) == 3


def test_compute_budget_exit_code(capsys):
    code, out, _ = run(
        capsys,
        "compute", "--mode", "sum", "--n", "5", "--t", "3", "--forbid", "{K3}",
        "--budget", "50",
    )
    assert code == 3
    assert int(out.strip()) <= 20


def test_nonpositive_budget_is_a_usage_error(capsys):
    for budget in ("0", "-3"):
        code, out, err = run(
            capsys,
            "compute", "--mode", "min", "--n", "5", "--t", "3", "--forbid", "{K3}",
            "--budget", budget,
        )
        assert code == 2 and out == "" and err.startswith("usage error: ")
    for suite in SUITES:
        code, out, err = run(capsys, "verify", "--suite", suite, "--budget", "0")
        assert code == 2 and out == "" and err.startswith("usage error: "), suite


@pytest.mark.parametrize("raw", ["junk", "0"])
def test_malformed_env_budget_is_a_usage_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("RTURAN_BUDGET", raw)
    code, out, err = run(capsys, "compute", "--mode", "min", "--n", "5", "--t", "3", "--forbid", "{K3}")
    assert code == 2 and out == "" and err.startswith("usage error: RTURAN_BUDGET ")


def test_constructions_suite_honours_budget(capsys):
    # the budget reaches the inner searches of the constructions
    code, out, err = run(capsys, "verify", "--suite", "constructions", "--budget", "5")
    assert code == 3 and out == "" and err.startswith("budget exhausted: ")
    # a searched suite prints its rows, each stopped search as BUDGET
    code, out, err = run(capsys, "verify", "--suite", "meshulam", "--budget", "1")
    statuses = [ln.split()[-1] for ln in out.splitlines()]
    assert code == 3 and err == ""
    assert statuses == ["boundary", "BUDGET", "BUDGET", "BUDGET", "boundary"]


def test_budget_exhausted_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RTURAN_BUDGET", "100")
    out_path = tmp_path / "x.rcol"
    code, _, err = run(
        capsys, "construct", "--id", "sum.monochrome-extremal", "--params", "n=10,t=2,f=K2,2",
        "--out", str(out_path),
    )
    assert code == 3 and "budget" in err
    assert not out_path.exists()
    monkeypatch.setenv("RTURAN_BUDGET", "30")
    code, _, err = run(capsys, "verify", "--suite", "constructions")
    assert code == 3 and "budget" in err


def test_inner_search_budget_exit_code(tmp_path, capsys, monkeypatch):
    # the inner extremal search of min.i, not the outer command, runs out here
    monkeypatch.setenv("RTURAN_BUDGET", "5")
    out_path = tmp_path / "x.rcol"
    code, _, err = run(
        capsys, "construct", "--id", "min.i", "--params", "n=12,t=5,s=3,f=K3",
        "--out", str(out_path),
    )
    assert code == 3 and err.startswith("budget exhausted: inner")
    assert not out_path.exists()
    code, _, err = run(capsys, "verify", "--suite", "constructions")
    assert code == 3 and err.startswith("budget exhausted: ")


# sha256 of the .rcol bytes that `construct` writes for each certification_grid row
PINNED_GRID_RCOL_SHA256 = [
    ("min.i", "n=6,t=3,s=1,f=K3", "ed622338973f37ced90d1299fdc3bd6710d8a333cb3f4122834fe122b12212b8"),
    ("min.i", "n=9,t=4,s=2,f=K3", "a03816d940f08d7129474716fc58aec4d5fc1264e9e0fea56ffafa3d6030d068"),
    ("min.i", "n=12,t=5,s=3,f=K3", "4fd32210a5aae3ee91c5efdebb462a25ed10d7968b0fbefa9c601127c2bddab5"),
    ("min.ii", "n=6,t=4,s=1,f=K2,2", "6809e919b521d2a552d3d5bcd76c37165d3f61509b16ba4d87674da74b21f217"),
    ("min.ii", "n=10,t=5,s=1,f=K2,2", "fae1e838c2e4456461e76cbf575b18a7170e94502a187bcb9f4d10fe80a2ff3a"),
    ("min.ii", "n=10,t=3,s=1,f=P4", "d237b1a1644bc61d5103f64d3c831b5a138a35b261a5c16f76281f15b0eb2b56"),
    ("min.iii", "n=8,t=4,p=2,f=K2,2,s=2", "5d09ddb6cbdd47b11c68878954155137e24b7f807af35b1b70d156265cbc1ad5"),
    ("min.iii", "n=12,t=5,p=2,f=P4,s=3", "bd353dbcec1669aaf12a580dd74e1827c7ddc6a4a968a3530e675580f867aa69"),
    ("min.iii", "n=10,t=3,p=2,f=P4,s=2", "d237b1a1644bc61d5103f64d3c831b5a138a35b261a5c16f76281f15b0eb2b56"),
    ("min.iv", "n=8,t=3,f=P4,s=2", "94576fbe099a21c8ca5d93002307fb755869faaa9b9828d949580bbc9a337394"),
    ("min.iv", "n=12,t=5,f=P6,s=3", "93c663af51580369721be28acaa3fcb80ef04b0686330fb92e557e9b1de14c76"),
    ("min.kpp-remark", "n=10,t=4,s=2,p=2", "e1913e79d09d2c36c53b5abab749c30a35b9e6b4f76f0757b614b6cb81232974"),
    ("min.kpp-remark", "n=10,t=4,s=3,p=2", "275dda4e9ea4099f924b26cebe8116fe3959691402fbf2ee35711b337a4cd27d"),
    ("min.kpp-remark", "n=12,t=5,s=3,p=2", "53b9ddcfa06f2227191b53a3c9ca4b33f4b5bcfdef3ea276c11e7065ff0d791a"),
    ("sum.cliques", "n=8,t=3,f=K3", "1d4abb030776ceff0e4b477db4ab6e496636cd0e20afeefa0d59e3a05b71d01d"),
    ("sum.cliques", "n=7,t=4,f=K2,2", "62f58aca43326187753dff30596a277d8926ce7480541fa0f2a92373f18f51b4"),
    ("sum.cliques", "n=6,t=3,f=M2", "d0f8aa9f8b5d436ba58bd1f8427551fbe53add4425709b8bc7bcc557fc19aa92"),
    ("sum.monochrome-extremal", "n=7,t=3,f=K3", "ecc664fcefb39384a97ce64ae7bf1c464fbc9235e347c3d2964e6bc33018e92a"),
    ("sum.monochrome-extremal", "n=6,t=2,f=M2", "d931a6e46f17b97e1a0c773a05ae89989ec3081023062e334235ea810ce02b17"),
    ("sum.monochrome-extremal", "n=6,t=3,f=S2", "681bd1cdd37a46c84aaf3d00247044de39346df6adbfba1bcdaad55867418ab3"),
    ("prod.matching", "n=5,t=3,s=2", "13951da2af3b9ee5b7e4fc3eb7145c49f37579e6b4dde4d3856a73f4db2c99b9"),
    ("prod.matching", "n=9,t=4,s=2", "17a10a2d981e84dad7263185410c121e35e671aa4013299d8cd0cff3740125a4"),
    ("prod.matching", "n=12,t=5,s=3", "53ce12102448a95d6fc401f96ad1c3ebc008f0903c95cc815ba19f40366e118c"),
    ("prod.clique-star", "n=8,t=3,s=2,f=P4", "f6bedb1cae01e87a35e05a2f594cb4799670efb14b0f4ef5bea91c65fee72386"),
    ("prod.clique-star", "n=12,t=5,s=3,f=K3", "5a19a36318b61b3d6f174ed6c3d4f720b6d36136db1e868d42905e9c4d6d516c"),
    ("prod.star.gt", "n=12,t=3,s=1,r=3", "9bb5af702b8368ffeeaa8ab2904c2fd6826788eb9c6a312bb76136c2e1932ce9"),
    ("prod.star.gt", "n=12,t=5,s=2,r=3", "b2130c61c125e1a5f71eb6f748525eb1b76a4e19ab472507d8e246d4ad21cacd"),
    ("prod.star.gt", "n=12,t=4,s=1,r=4", "1a82427573aea468a1f71918043c041c939c6daf5d6d7d7afa5010abf90637af"),
    ("prod.star.eq", "n=12,t=4,s=2,r=3", "0c35def87fea01e618f06c50b148b3ccd806994d2eaa282ee98fc794d636aacc"),
    ("prod.star.eq", "n=8,t=4,s=2,r=3", "f061d716cfd06abedd56f90e86838038b18adda8d2675040d1860fe2a4ef0241"),
    ("prod.star.lt", "n=12,t=5,s=2,r=4", "ed3a7124edd5c8b418286ff6f9b6f59a08a32ff21fbf84e41a571e512da3abbe"),
    ("prod.star.lt", "n=12,t=4,s=3,r=3", "35606a1fdf175c334b3a98acb3e2f3eff60cff3d85a96949df96b0c65624e04d"),
    ("prod.star.lt", "n=12,t=5,s=3,r=4", "49e528d3be78298dee7b16f548c22701f5d8363cdfe3f138dbfe598e9a6833b9"),
    ("prod.star2", "n=12,t=3,s=2", "92140c1ee8d688fa3fc4768d8b95525be66fbcb80e6bcd65c375174e63ddeb48"),
    ("prod.star2", "n=12,t=4,s=3", "4802d7d9c87c9e6cb7b95b84294ea3c790b61e2a78b31a3acf87950b8bb95e0f"),
    ("prod.sm.bigstar", "n=12,t=5,s=3,r=4,m=1", "6dc393a2e6e710e4f444802be10bf805dbfad18b6f9e54ee48309cecb16ff6dc"),
    ("prod.sm.bigstar", "n=9,t=5,s=3,r=4,m=1", "f50ed7a1f3c8c14f63c4a3daac1f77dd569383161086e657bbfbe0bf7f304dd7"),
    ("prod.sm.star-clique", "n=12,t=4,s=2,r=3,m=1", "6ccbd013f9d71f6dbfdbf4d2206416faeed52b84333d6039a42a0781a2fbef99"),
    ("prod.sm.star-clique", "n=12,t=5,s=2,r=4,m=1", "bdd6288ea4dcdd5601a092698268ccd6864abde45041712e72a9d5b8ca0bed9d"),
    ("prod.sm.star-clique", "n=12,t=5,s=3,r=3,m=2", "49e528d3be78298dee7b16f548c22701f5d8363cdfe3f138dbfe598e9a6833b9"),
    ("prod.sm.mixed", "n=12,t=5,s=3,r=3,m=1", "c6dbac7b33005ae8a742b530381fa3e4e37b2a7539be8275900c5f637c385ee3"),
    ("prod.sm.mixed", "n=9,t=5,s=3,r=3,m=1", "d9352e717c6ed77597a0d51c3b7e2f18a86827172e32d075195cd9eab0765aad"),
]


def test_monochrome_extremal_rcol_bytes_are_pinned(tmp_path, capsys):
    # every grid row, the searched sum.monochrome-extremal graphs among them
    rows = [
        (cid, ",".join(f"{k}={v}" for k, v in params.items()))
        for cid, params in certification_grid()
    ]
    assert rows == [(cid, spec) for cid, spec, _ in PINNED_GRID_RCOL_SHA256]
    for cid, spec, digest in PINNED_GRID_RCOL_SHA256:
        out_path = tmp_path / "m.rcol"
        code, _, _ = run(
            capsys, "construct", "--id", cid, "--params", spec, "--out", str(out_path)
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest, (cid, spec)


def test_construct_then_detect_pipeline(tmp_path, capsys):
    out_path = str(tmp_path / "built.rcol")
    code, out, _ = run(
        capsys, "construct", "--id", "min.iii", "--params", "n=8,t=3,p=2",
        "--out", out_path,
    )
    assert code == 0
    code, out, _ = run(capsys, "detect", "--collection", out_path, "--pattern", "M2")
    assert code == 1 and out.strip() == "none"
    code, out, _ = run(capsys, "detect", "--collection", out_path, "--pattern", "K2")
    assert code == 0


def test_construct_pattern_value_with_comma(tmp_path, capsys):
    out_path = str(tmp_path / "biclique.rcol")
    code, out, _ = run(
        capsys, "construct", "--id", "min.ii", "--params", "n=6,t=4,s=1,f=K2,2",
        "--out", out_path,
    )
    assert code == 0
    code, out, _ = run(capsys, "detect", "--collection", out_path, "--pattern", "K2,2")
    assert code == 1 and out.strip() == "none"


@pytest.mark.parametrize(
    "cid, spec",
    [("prod.star2", "n=12,t=x,s=2"), ("min.iii", "n=5,t=2,p=2,f=P4,s=y"), ("min.iii", "n=\u0668,t=3,p=2")],
)
def test_non_integer_construction_parameter_is_a_usage_error(tmp_path, capsys, cid, spec):
    out_path = tmp_path / "x.rcol"
    code, out, err = run(capsys, "construct", "--id", cid, "--params", spec, "--out", str(out_path))
    assert code == 2 and out == "" and err.startswith("usage error: parameter ")
    assert not out_path.exists()


def test_oversized_vertex_counts_are_usage_errors(tmp_path, capsys):
    # refused before any edge list is built, whose size grows with the numeral or n
    path = str(tmp_path / "c.rcol")
    codec_write(meshulam_collection(6, 2, 3), path)
    code, out, err = run(capsys, "detect", "--collection", path, "--pattern", "M" + "9" * 20)
    assert code == 2 and out == "" and err.startswith("usage error: ")
    out_path = tmp_path / "x.rcol"
    spec = "n=1000000000,t=3,s=2"
    code, out, err = run(capsys, "construct", "--id", "prod.matching", "--params", spec, "--out", str(out_path))
    assert code == 2 and out == "" and err.startswith("usage error: ")
    assert not out_path.exists()


def test_oversized_color_counts_are_usage_errors(tmp_path, capsys):
    # each color repeats its block, so t is refused before anything is built
    out_path = tmp_path / "x.rcol"
    spec = "n=5,t=1000000000,s=2"
    code, out, err = run(capsys, "construct", "--id", "prod.matching", "--params", spec, "--out", str(out_path))
    assert code == 2 and out == "" and err == "usage error: color count 1000000000 above 1000\n"
    assert not out_path.exists()


@pytest.mark.parametrize("cid, params", [("sum.cliques", "t=4,f=K3"), ("prod.clique-star", "t=4,s=2,f=P4")])
@pytest.mark.parametrize("n", [0, -1])
def test_nonpositive_vertex_counts_are_usage_errors(tmp_path, capsys, cid, params, n):
    out_path = tmp_path / "x.rcol"
    code, out, err = run(capsys, "construct", "--id", cid, "--params", f"n={n},{params}", "--out", str(out_path))
    assert code == 2 and out == "" and err == f"usage error: vertex count {n} outside 1..30\n"
    assert not out_path.exists()


@pytest.mark.parametrize("cid, spec", [("prod.star2", "n=12,t=3,s=0"), ("prod.star.gt", "n=12,t=3,s=0,r=3")])
def test_star_construction_without_matching_edges_is_a_usage_error(tmp_path, capsys, cid, spec):
    out_path = tmp_path / "x.rcol"
    code, out, err = run(capsys, "construct", "--id", cid, "--params", spec, "--out", str(out_path))
    assert code == 2 and out == "" and err == "usage error: need s >= 1\n"
    assert not out_path.exists()


@pytest.mark.parametrize("cid, spec", [("min.i", "n=6,t=3,s=1,f=K3,inner=foo"), ("min.iv", "n=8,t=3,f=P4,inner=3")])
def test_inner_parameter_that_is_not_a_collection_is_a_usage_error(tmp_path, capsys, cid, spec):
    # exit 1 would read as "detect found nothing"; an inner collection comes from --inner PATH
    out_path = tmp_path / "x.rcol"
    code, out, err = run(capsys, "construct", "--id", cid, "--params", spec, "--out", str(out_path))
    assert code == 2 and out == "" and err.startswith("usage error: ") and "--inner PATH" in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "cid, spec, with_inner",
    [
        ("prod.matching", "n=4,t=2,s=1,inner=foo,bogus=7", False),
        ("min.iii", "n=5,t=2,p=2,f=P4,inner=foo", False),
        ("min.iv", "n=8,t=3,f=P4,S=2", False),  # a misspelt optional s
        ("prod.matching", "n=4,t=2,s=1", True),  # prod.matching has no inner part
    ],
)
def test_unknown_construction_parameter_is_a_usage_error(tmp_path, capsys, cid, spec, with_inner):
    out_path = tmp_path / "x.rcol"
    inner = []
    if with_inner:
        codec_write(meshulam_collection(4, 1, 2), str(tmp_path / "inner.rcol"))
        inner = ["--inner", str(tmp_path / "inner.rcol")]
    code, out, err = run(
        capsys, "construct", "--id", cid, "--params", spec, *inner, "--out", str(out_path)
    )
    assert code == 2 and out == "" and err.startswith("usage error: unknown parameters")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "cid, spec, message",
    [
        ("min.iii", "n=5,t=2,p=2,f=K3", "min.iii takes f and s together"),
        ("min.iii", "n=5,t=2,p=2,s=9", "min.iii takes f and s together"),
        ("prod.matching", "n=4,t=2,s=1,n=9", "parameter n given twice"),
    ],
)
def test_half_given_or_repeated_construction_parameter_is_a_usage_error(tmp_path, capsys, cid, spec, message):
    out_path = tmp_path / "x.rcol"
    code, out, err = run(capsys, "construct", "--id", cid, "--params", spec, "--out", str(out_path))
    assert code == 2 and out == "" and err == f"usage error: {message}\n"
    assert not out_path.exists()


def test_inner_given_in_params_and_as_a_file_is_a_usage_error(tmp_path, capsys):
    codec_write(meshulam_collection(1, 0, 3), str(tmp_path / "inner.rcol"))
    out_path = tmp_path / "y.rcol"
    code, out, err = run(
        capsys, "construct", "--id", "min.i", "--params", "n=6,t=3,s=1,f=K3,inner=foo",
        "--inner", str(tmp_path / "inner.rcol"), "--out", str(out_path),
    )
    assert code == 2 and out == "" and err == "usage error: parameter inner given twice\n"
    assert not out_path.exists()


def test_min_iv_host_below_its_inner_part_is_a_usage_error(tmp_path, capsys):
    out_path = tmp_path / "x.rcol"
    code, out, err = run(
        capsys, "construct", "--id", "min.iv", "--params", "n=1,t=5,f=P6", "--out", str(out_path)
    )
    assert code == 2 and out == "" and err == "usage error: need n >= p(f) - 1 = 2\n"
    assert not out_path.exists()


def test_lemma_subcommands(tmp_path, capsys):
    path = str(tmp_path / "c.rcol")
    codec_write(Collection.from_edge_lists(4, [[(0, 1), (0, 2)], [(0, 3)]]), path)
    code, out, _ = run(capsys, "lemma", "m2", "--collection", path)
    assert code == 0 and out.strip() == "common-vertex 0"
    code, out, _ = run(
        capsys, "lemma", "strong", "--collection", path, "--color", "1", "--s", "1"
    )
    assert code == 0 and out.strip() == "not-strong"
    code, out, _ = run(
        capsys, "lemma", "strong", "--collection", path, "--color", "1", "--s", "1",
        "--sufficient",
    )
    assert code == 0 and out.strip() == "Unknown"
    for extra in ([], ["--sufficient"]):
        code, out, err = run(
            capsys, "lemma", "strong", "--collection", path, "--color", "1", "--s", "-1", *extra
        )
        assert code == 2 and out == "" and err.startswith("usage error: "), extra
    code, out, _ = run(
        capsys, "lemma", "starcover", "--collection", path, "--vertex", "0", "--p", "2"
    )
    assert code == 0 and out.startswith("star")
    # three leaves need three colors: the Konig cover of the two edges that take one
    code, out, _ = run(
        capsys, "lemma", "starcover", "--collection", path, "--vertex", "0", "--p", "3"
    )
    assert (code, out) == (0, "cover (0,3); exempt 1\n")
    code, out, _ = run(capsys, "lemma", "greedy", "--collection", path, "--q", "1")
    assert code == 0 and "#1" in out
    code, out, _ = run(capsys, "lemma", "greedy", "--collection", path, "--q", "3")
    assert (code, out) == (0, "precondition-violated: size 3 outside 0..t=2\n")
    codec_write(Collection.from_edge_lists(4, [[(0, 1)], [(2, 3)]]), path)
    code, out, _ = run(capsys, "lemma", "m2", "--collection", path)
    assert (code, out) == (0, "rainbow-m2 vmap 0->0 1->1 2->2 3->3; cmap (0,1)->1 (2,3)->2\n")
    codec_write(Collection.from_edge_lists(4, [[(0, 1), (0, 2), (1, 2)], []]), path)
    code, out, _ = run(capsys, "lemma", "m2", "--collection", path)
    assert (code, out) == (0, "all-but-one-small exempt=1\n")
    code, out, _ = run(
        capsys, "lemma", "verystrong", "--collection", path, "--color", "1",
        "--r", "2", "--m", "1",
    )
    assert code == 0 and out.strip() in ("very-strong", "not-very-strong")


K_ON = lambda k: [(u, v) for u in range(k) for v in range(u + 1, k)]  # K_k on vertices 0..k-1

# (vertex count, color edge lists, lemma check and its options, exit code, stdout),
# recorded when each check printed and returned on its own; together they reach
# every branch of `lemma`
LEMMA_RUNS = [
    (5, [K_ON(5), [(0, 1)]], ("strong", "--color", "1", "--s", "1"), 0, "strong\n"),
    (4, [[(0, 1), (0, 2)], [(0, 3)]], ("strong", "--color", "1", "--s", "1"), 0, "not-strong\n"),
    (5, [K_ON(5), [(0, 1)]], ("strong", "--color", "1", "--s", "1", "--sufficient"), 0, "ByEdgeCount\n"),
    (6, [[(0, 1), (2, 3), (4, 5)]], ("strong", "--color", "1", "--s", "1", "--sufficient"), 0, "ByBigMatching\n"),
    (9, [K_ON(5)], ("strong", "--color", "1", "--s", "1", "--sufficient"), 0, "ByLowDegree\n"),
    (4, [[(0, 1), (0, 2)], [(0, 3)]], ("strong", "--color", "1", "--s", "1", "--sufficient"), 0, "Unknown\n"),
    (6, [K_ON(6), [(0, 1)], [(0, 2)]], ("verystrong", "--color", "1", "--r", "2", "--m", "1"), 0, "very-strong\n"),
    (4, [[(2, 3)], [(0, 1)], [(0, 2)]], ("verystrong", "--color", "1", "--r", "2", "--m", "1"), 0, "not-very-strong\n"),
    (4, [[(0, 1)], [(2, 3)]], ("m2",), 0, "rainbow-m2 vmap 0->0 1->1 2->2 3->3; cmap (0,1)->1 (2,3)->2\n"),
    (4, [[(0, 1), (0, 2)], [(0, 3)]], ("m2",), 0, "common-vertex 0\n"),
    (4, [[(0, 1), (0, 2), (1, 2)], []], ("m2",), 0, "all-but-one-small exempt=1\n"),
    (3, [[(0, 1)]], ("m2",), 2, ""),
    (4, [[(0, 1), (0, 2)], [(0, 3)]], ("starcover", "--vertex", "0", "--p", "2"), 0, "star vmap 0->0 1->1 2->3; cmap (0,1)->1 (0,2)->2\n"),
    (4, [[(0, 1), (0, 2)], [(0, 3)]], ("starcover", "--vertex", "0", "--p", "3"), 0, "cover (0,3); exempt 1\n"),
    (4, [[(0, 1), (0, 2)], [(0, 3)]], ("greedy", "--q", "1"), 0, "(0,1)#1\n"),
    (6, [K_ON(6), K_ON(6), []], ("greedy", "--q", "2"), 0, "(0,2)#1 (1,3)#2\n"),
    (4, [[(0, 1), (0, 2)], [(0, 3)]], ("greedy", "--q", "3"), 0, "precondition-violated: size 3 outside 0..t=2\n"),
]


@pytest.mark.parametrize("n, lists, check, code, out", LEMMA_RUNS)
def test_lemma_output_is_pinned(tmp_path, capsys, n, lists, check, code, out):
    path = str(tmp_path / "c.rcol")
    codec_write(Collection.from_edge_lists(n, lists), path)
    got_code, got_out, _ = run(capsys, "lemma", check[0], "--collection", path, *check[1:])
    assert (got_code, got_out) == (code, out)


def test_lemma_greedy_of_size_zero_prints_empty(tmp_path, capsys):
    path = str(tmp_path / "c.rcol")
    codec_write(Collection.from_edge_lists(4, [[(0, 1)], []]), path)
    assert run(capsys, "lemma", "greedy", "--collection", path, "--q", "0") == (0, "empty\n", "")


def test_construction_parameter_without_a_value_is_a_usage_error(tmp_path, capsys):
    out_path = tmp_path / "x.rcol"
    code, out, err = run(
        capsys, "construct", "--id", "prod.matching", "--params", "n5,t=2,s=1", "--out", str(out_path)
    )
    assert (code, out, err) == (2, "", "usage error: malformed parameter 'n5' (expected k=v)\n")
    assert not out_path.exists()


def test_construct_without_params_is_a_usage_error(tmp_path, capsys):
    out_path = tmp_path / "x.rcol"
    code, out, err = run(capsys, "construct", "--id", "sum.cliques", "--out", str(out_path))
    assert (code, out, err) == (2, "", "usage error: missing parameters: n, t, f\n")
    assert not out_path.exists()


def test_module_runs_as_a_program():
    src = str(Path(rturan.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "rturan.cli", "compute", "--mode", "prod", "--n", "4", "--t", "2", "--forbid", "{M2}"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "9\n", "")


def test_lemma_strong_sufficient_agrees_when_2s_exceeds_n(tmp_path, capsys):
    path = str(tmp_path / "c.rcol")
    codec_write(
        Collection.from_edge_lists(4, [[(0, 1), (0, 2), (1, 3), (2, 3)], [(0, 1)], [(2, 3)]]), path
    )
    args = ("lemma", "strong", "--collection", path, "--color", "1", "--s", "3")
    assert run(capsys, *args) == (0, "not-strong\n", "")
    assert run(capsys, *args, "--sufficient") == (0, "Unknown\n", "")


def test_verify_meshulam_records_boundary_rows(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "meshulam")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert sum("boundary" in ln for ln in lines) == 2
    assert sum(ln.endswith("match") for ln in lines) == 3
    assert not any("MISMATCH" in ln for ln in lines)


def test_verify_row_whose_claim_disagrees_is_a_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(constructions, "claimed_value", lambda fid, params: 10**6)
    code, out, _ = run(capsys, "verify", "--suite", "prod-matching")
    assert code == 1
    assert [ln.split()[-1] for ln in out.strip().splitlines()] == ["MISMATCH", "MISMATCH"]


def test_verify_small_suites(capsys):
    for suite in ("min-theorem", "sum-k3", "prod-matching", "sum-bipartite"):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0, (suite, out)
        assert all(ln.endswith("match") for ln in out.strip().splitlines())


# exit code and SHA-256 of `verify --suite X` stdout, which has no millis column
PINNED_VERIFY = {
    "meshulam": (0, "d1808333414db365b596ea97e6407afc11957e60bd778fd0ecc83607acf05f19"),
    "min-theorem": (0, "9878dbd96f1ed1f8fd74c87189fabd873cdd27c16da66b8f1fa7c9c7e58574de"),
    "sum-k3": (0, "d59bb19f17eb632b593c77bc820c8ed00978dae5f7d0a91b6bcb5dab6e89c4bb"),
    "prod-matching": (0, "05c681b349f0ff71b3c00873f2dc8e69d86676dbc080d426ef611ae7cf84ace6"),
    "sum-bipartite": (0, "6d3158b9299481a13cb2c8c7c5e88baecb40378e88adfdbe450a1c9a0365a2a8"),
    "constructions": (0, "b3a4920bf1edc515b11348986e35bbfe82f6af65a5417cd61b107d8a2f9a8f5e"),
}


def test_verify_output_is_pinned(capsys):
    assert set(PINNED_VERIFY) == set(SUITES)
    for suite in SUITES:
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED_VERIFY[suite], (suite, out)


# `report` rows without the nodes and millis columns.  A search row's nodes
# are the count of its own search, which tests/work_ledger.json pins; a
# construction row runs no search and reads 0.
PINNED_REPORT_ROWS = [
    ("suite", "params", "claimed", "computed", "match"),
    ("meshulam", "n=3,s=1,t=2", "2", "3", "boundary"),
    ("meshulam", "n=4,s=1,t=2", "3", "3", "match"),
    ("meshulam", "n=4,s=1,t=3", "3", "3", "match"),
    ("meshulam", "n=5,s=1,t=2", "4", "4", "match"),
    ("meshulam", "n=5,s=2,t=3", "7", "10", "boundary"),
    ("min-theorem", "n=4,t=3,s=1,f=K3", "3", "3", "match"),
    ("sum-k3", "n=4,t=3", "12", "12", "match"),
    ("sum-k3", "n=5,t=3", "20", "20", "match"),
    ("prod-matching", "n=4,t=2,s=1", "9", "9", "match"),
    ("prod-matching", "n=4,t=3,s=1", "27", "27", "match"),
    ("sum-bipartite", "n=5,t=2,f=P3", "10", "10", "match"),
    ("constructions", "min.i[n=6,t=3,s=1,f=K3]", "5,5,5", "5,5,5/free", "match"),
    ("constructions", "min.i[n=9,t=4,s=2,f=K3]", "14,14,14,14", "14,14,14,14/free", "match"),
    ("constructions", "min.i[n=12,t=5,s=3,f=K3]", "27,27,27,27,27", "27,27,27,27,27/free", "match"),
    ("constructions", "min.ii[n=6,t=4,s=1,f=K2,2]", "5,5,5,5", "5,5,5,5/free", "match"),
    ("constructions", "min.ii[n=10,t=5,s=1,f=K2,2]", "9,9,9,9,9", "9,9,9,9,9/free", "match"),
    ("constructions", "min.ii[n=10,t=3,s=1,f=P4]", "9,9,9", "9,9,9/free", "match"),
    ("constructions", "min.iii[n=8,t=4,p=2,f=K2,2,s=2]", "7,7,7,7", "7,7,7,7/free", "match"),
    ("constructions", "min.iii[n=12,t=5,p=2,f=P4,s=3]", "11,11,11,11,11", "11,11,11,11,11/free", "match"),
    ("constructions", "min.iii[n=10,t=3,p=2,f=P4,s=2]", "9,9,9", "9,9,9/free", "match"),
    ("constructions", "min.iv[n=8,t=3,f=P4,s=2]", "7,7,7", "7,7,7/free", "match"),
    ("constructions", "min.iv[n=12,t=5,f=P6,s=3]", "21,21,21,21,21", "21,21,21,21,21/free", "match"),
    ("constructions", "min.kpp-remark[n=10,t=4,s=2,p=2]", "16,8,8,8", "16,8,8,8/free", "match"),
    ("constructions", "min.kpp-remark[n=10,t=4,s=3,p=2]", "14,14,7,7", "14,14,7,7/free", "match"),
    ("constructions", "min.kpp-remark[n=12,t=5,s=3,p=2]", "18,18,9,9,9", "18,18,9,9,9/free", "match"),
    ("constructions", "sum.cliques[n=8,t=3,f=K3]", "28,28,0", "28,28,0/free", "match"),
    ("constructions", "sum.cliques[n=7,t=4,f=K2,2]", "21,21,21,0", "21,21,21,0/free", "match"),
    ("constructions", "sum.cliques[n=6,t=3,f=M2]", "15,0,0", "15,0,0/free", "match"),
    ("constructions", "sum.monochrome-extremal[n=7,t=3,f=K3]", "12,12,12", "12,12,12/free", "match"),
    ("constructions", "sum.monochrome-extremal[n=6,t=2,f=M2]", "5,5", "5,5/free", "match"),
    ("constructions", "sum.monochrome-extremal[n=6,t=3,f=S2]", "3,3,3", "3,3,3/free", "match"),
    ("constructions", "prod.matching[n=5,t=3,s=2]", "10,4,4", "10,4,4/free", "match"),
    ("constructions", "prod.matching[n=9,t=4,s=2]", "36,8,8,8", "36,8,8,8/free", "match"),
    ("constructions", "prod.matching[n=12,t=5,s=3]", "66,66,11,11,11", "66,66,11,11,11/free", "match"),
    ("constructions", "prod.clique-star[n=8,t=3,s=2,f=P4]", "6,5,5", "6,5,5/free", "match"),
    ("constructions", "prod.clique-star[n=12,t=5,s=3,f=K3]", "8,8,7,7,7", "8,8,7,7,7/free", "match"),
    ("constructions", "prod.star.gt[n=12,t=3,s=1,r=3]", "4,1,1", "4,1,1/free", "match"),
    ("constructions", "prod.star.gt[n=12,t=5,s=2,r=3]", "1,1,1,1,1", "1,1,1,1,1/free", "match"),
    ("constructions", "prod.star.gt[n=12,t=4,s=1,r=4]", "3,3,1,1", "3,3,1,1/free", "match"),
    ("constructions", "prod.star.eq[n=12,t=4,s=2,r=3]", "1,1,1,1", "1,1,1,1/free", "match"),
    ("constructions", "prod.star.eq[n=8,t=4,s=2,r=3]", "1,1,1,1", "1,1,1,1/free", "match"),
    ("constructions", "prod.star.lt[n=12,t=5,s=2,r=4]", "1,1,1,1,1", "1,1,1,1,1/free", "match"),
    ("constructions", "prod.star.lt[n=12,t=4,s=3,r=3]", "1,1,1,1", "1,1,1,1/free", "match"),
    ("constructions", "prod.star.lt[n=12,t=5,s=3,r=4]", "0,0,0,0,0", "0,0,0,0,0/free", "match"),
    ("constructions", "prod.star2[n=12,t=3,s=2]", "1,1,1", "1,1,1/free", "match"),
    ("constructions", "prod.star2[n=12,t=4,s=3]", "0,0,1,1", "0,0,1,1/free", "match"),
    ("constructions", "prod.sm.bigstar[n=12,t=5,s=3,r=4,m=1]", "11,11,11,10,10", "11,11,11,10,10/free", "match"),
    ("constructions", "prod.sm.bigstar[n=9,t=5,s=3,r=4,m=1]", "8,8,8,6,6", "8,8,8,6,6/free", "match"),
    ("constructions", "prod.sm.star-clique[n=12,t=4,s=2,r=3,m=1]", "1,1,1,1", "1,1,1,1/free", "match"),
    ("constructions", "prod.sm.star-clique[n=12,t=5,s=2,r=4,m=1]", "1,1,1,1,1", "1,1,1,1,1/free", "match"),
    ("constructions", "prod.sm.star-clique[n=12,t=5,s=3,r=3,m=2]", "0,0,0,0,0", "0,0,0,0,0/free", "match"),
    ("constructions", "prod.sm.mixed[n=12,t=5,s=3,r=3,m=1]", "0,1,1,1,1", "0,1,1,1,1/free", "match"),
    ("constructions", "prod.sm.mixed[n=9,t=5,s=3,r=3,m=1]", "0,1,1,1,1", "0,1,1,1,1/free", "match"),
]


def _with_nodes(rows) -> list[tuple]:
    """The rows with the nodes column the report must print: each search
    row's search count, run here through the library, and 0 elsewhere."""
    searches = {(suite, label): query for suite, label, _, _, *query in _SEARCH_SUITE_ROWS}
    out = [(*rows[0], "nodes")]
    for row in rows[1:]:
        nodes = 0
        if row[0] != "constructions":
            mode, n, t, forbid = searches[row[:2]]
            nodes = getattr(rturan, f"extremal_{mode}")(rturan.ExtremalQuery(mode, n, t, rturan.parse_family(forbid))).nodes
        out.append((*row, str(nodes)))
    return out


def test_report_tsv_is_deterministic(tmp_path, capsys):
    # the default budget and a larger one give the same table, in a file or on stdout
    pinned = _with_nodes(PINNED_REPORT_ROWS)
    for extra in ([], ["--budget", "1000000"]):
        path = tmp_path / "report.tsv"
        code, _, _ = run(capsys, "report", "--out", str(path), *extra)
        assert code == 0
        rows = [tuple(ln.split("\t")[:-1]) for ln in path.read_text().splitlines()]
        assert rows == pinned, extra
    code, out, _ = run(capsys, "report")
    assert code == 0
    assert [tuple(ln.split("\t")[:-1]) for ln in out.splitlines()] == pinned


def test_io_and_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "detect", "--collection", "/nonexistent.rcol", "--pattern", "K3")
    assert code == 4
    bad = tmp_path / "bad.rcol"
    bad.write_text("rcol 1\nn 3\nt 1\ncolor 1\n4 4\nend\n")
    code, _, err = run(capsys, "detect", "--collection", str(bad), "--pattern", "K3")
    assert code == 4
    bad.write_text("rcol 1\nn \u00b2\nt 1\ncolor 1\nend\n")  # int() would accept the numeral
    code, _, err = run(capsys, "detect", "--collection", str(bad), "--pattern", "K3")
    assert code == 4
    path = str(tmp_path / "ok.rcol")
    codec_write(meshulam_collection(4, 1, 2), path)
    code, _, err = run(capsys, "detect", "--collection", path, "--pattern", "Q7")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--mode", "nope", "--n", "4", "--t", "2", "--forbid", "{M2}"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "meshulam", "--workers", "2"])  # the flag is gone
    assert exc.value.code == 2


def test_parser_is_built_once_and_parses_each_call_afresh(capsys):
    assert _build_parser() is _build_parser()
    for bad in (
        ["compute", "--mode", "nope", "--n", "4", "--t", "2", "--forbid", "{M2}"],
        ["compute", "--mode", "sum", "--n", "4", "--t", "2"],  # --forbid missing
        ["nope"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2, bad
        capsys.readouterr()
    # an option given to one call is not left standing for the next
    code, out, _ = run(capsys, "compute", "--mode", "sum", "--n", "5", "--t", "3", "--forbid", "{K3}", "--budget", "50")
    assert (code, out) == (3, "20\n")  # the sum.cliques incumbent: the search needs 61 nodes
    code, out, err = run(capsys, "compute", "--mode", "prod", "--n", "4", "--t", "2", "--forbid", "{M2}")
    assert (code, out, err) == (0, "9\n", "")
    code, out, _ = run(capsys, "compute", "--mode", "sum", "--n", "5", "--t", "3", "--forbid", "{K3}")
    assert (code, out) == (0, "20\n")
