"""End-to-end command-line behavior: exit codes, formats, determinism."""

import pytest

from rturan.cli import SUITES, main
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


def test_constructions_suite_honours_budget(capsys):
    # the budget reaches the inner searches of the constructions
    code, out, err = run(capsys, "verify", "--suite", "constructions", "--budget", "5")
    assert code == 3 and out == "" and err.startswith("budget exhausted: ")


def test_budget_exhausted_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RTURAN_BUDGET", "100")
    out_path = tmp_path / "x.rcol"
    code, _, err = run(
        capsys, "construct", "--id", "sum.monochrome-extremal", "--params", "n=8,t=2,f=K3",
        "--out", str(out_path),
    )
    assert code == 3 and "budget" in err
    assert not out_path.exists()
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


PINNED_MONOCHROME_RCOL = {
    "n=7,t=3,f=K3": b"rcol 1\nn 7\nt 3\n" + b"".join(
        b"color %d\n" % c
        + b"".join(b"%d %d\n" % (u, v) for u in range(4) for v in range(4, 7))
        for c in (1, 2, 3)
    ) + b"end\n",
    "n=6,t=2,f=M2": b"rcol 1\nn 6\nt 2\n" + b"".join(
        b"color %d\n0 5\n1 5\n2 5\n3 5\n4 5\n" % c for c in (1, 2)
    ) + b"end\n",
    "n=6,t=3,f=S2": b"rcol 1\nn 6\nt 3\n" + b"".join(
        b"color %d\n0 3\n1 4\n2 5\n" % c for c in (1, 2, 3)
    ) + b"end\n",
}


def test_monochrome_extremal_rcol_bytes_are_pinned(tmp_path, capsys):
    grid = [p for cid, p in certification_grid() if cid == "sum.monochrome-extremal"]
    assert len(grid) == len(PINNED_MONOCHROME_RCOL)
    for params in grid:
        spec = ",".join(f"{k}={v}" for k, v in params.items())
        out_path = tmp_path / "m.rcol"
        code, _, _ = run(
            capsys, "construct", "--id", "sum.monochrome-extremal", "--params", spec,
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_bytes() == PINNED_MONOCHROME_RCOL[spec], spec


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
    code, out, _ = run(
        capsys, "lemma", "starcover", "--collection", path, "--vertex", "0", "--p", "2"
    )
    assert code == 0 and out.startswith("star")
    code, out, _ = run(capsys, "lemma", "greedy", "--collection", path, "--q", "1")
    assert code == 0 and "#1" in out
    code, out, _ = run(
        capsys, "lemma", "verystrong", "--collection", path, "--color", "1",
        "--r", "2", "--m", "1",
    )
    assert code == 0 and out.strip() in ("very-strong", "not-very-strong")


def test_verify_meshulam_records_boundary_rows(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "meshulam")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert sum("boundary" in ln for ln in lines) == 2
    assert sum(ln.endswith("match") for ln in lines) == 3
    assert not any("MISMATCH" in ln for ln in lines)


def test_verify_small_suites(capsys):
    for suite in ("min-theorem", "sum-k3", "prod-matching", "sum-bipartite"):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0, (suite, out)
        assert all(ln.endswith("match") for ln in out.strip().splitlines())


def test_report_tsv_is_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
    code, _, _ = run(capsys, "report", "--out", a)
    assert code == 0
    code, _, _ = run(capsys, "report", "--out", b)
    assert code == 0

    def strip_millis(path):
        rows = [ln.split("\t") for ln in open(path).read().strip().splitlines()]
        return [r[:-1] for r in rows]

    ra, rb = strip_millis(a), strip_millis(b)
    assert ra == rb
    assert ra[0] == ["suite", "params", "claimed", "computed", "match", "nodes"]
    assert not any(r[4] == "MISMATCH" for r in ra[1:])


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
