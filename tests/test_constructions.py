"""Construction registry outputs, guards, and claimed closed-form values."""

import hashlib
import inspect
import itertools
import re

import pytest

from rturan import cli, constructions
from rturan import (
    CONSTRUCTION_IDS,
    FORMULA_IDS,
    Collection,
    Graph,
    GuardViolated,
    InnerInfeasible,
    InnerTooLarge,
    ExtremalQuery,
    PatternFamily,
    build,
    canonical_form,
    certification_grid,
    claimed_value,
    codec_write,
    describe,
    extremal_min,
    family_deleted_independent,
    is_rainbow_free,
    meshulam_collection,
    parse_pattern,
)


def test_registry_covers_all_ids():
    assert {cid for cid, _ in certification_grid()} == set(CONSTRUCTION_IDS)


def test_min_iii_example():
    info = describe("min.iii", {"n": 8, "t": 3, "p": 2})
    assert info.collection.edge_counts() == (7, 7, 7)
    # every color is the star K_{1,7}
    for i in range(1, 4):
        assert info.collection.graph(i).degree(0) == 7


def test_prod_matching_example():
    info = describe("prod.matching", {"n": 5, "t": 3, "s": 2})
    assert info.collection.edge_counts() == (10, 4, 4)
    value = 1
    for c in info.collection.edge_counts():
        value *= c
    assert value == 160 == claimed_value("prod.matching", {"n": 5, "t": 3, "s": 2})


def test_kpp_remark_example():
    info = describe("min.kpp-remark", {"n": 10, "t": 4, "s": 3, "p": 2})
    counts = info.collection.edge_counts()
    assert counts == info.expected_counts
    # advertised floor bound: (p-1 + floor((s-p+1)(p-1)/t)) (n-s)
    assert all(c >= 7 for c in counts)
    assert is_rainbow_free(info.collection, info.family)


def test_kpp_remark_certification_fails_on_wrong_edges(monkeypatch, capsys):
    # the documented counts come from the closed form, not from the edge
    # lists, so a vertex that joins one color too few is a MISMATCH
    params = {"n": 12, "t": 5, "s": 3, "p": 2}
    info = describe("min.kpp-remark", params)
    assert info.collection.edge_counts() == info.expected_counts == (18, 18, 9, 9, 9)
    real = constructions._kpp_colors
    monkeypatch.setattr(constructions, "_kpp_colors", lambda v, t, p: real(v, t, p)[v == p - 1 :])
    broken = describe("min.kpp-remark", params)
    assert broken.expected_counts == info.expected_counts
    assert broken.collection.edge_counts() == (9, 18, 9, 9, 9)
    assert cli.main(["verify", "--suite", "constructions"]) == 1
    mismatched = [line.split()[0] for line in capsys.readouterr().out.splitlines() if "MISMATCH" in line]
    assert mismatched and all(label.startswith("min.kpp-remark[") for label in mismatched)


def test_split_construction_uses_searched_inner():
    info = describe("min.i", {"n": 6, "t": 3, "s": 2, "f": "K3"})
    # deleting an independent set from a triangle leaves an edge, so the
    # inner collection on 2 vertices must stay empty
    assert info.collection.edge_counts() == (8, 8, 8)
    assert is_rainbow_free(info.collection, info.family)


def test_supplied_inner_is_validated():
    bad = Collection.from_edge_lists(3, [[(0, 1)], [], []])
    with pytest.raises(InnerTooLarge):
        describe("min.i", {"n": 6, "t": 3, "s": 2, "f": "K3", "inner": bad})
    good_shape = Collection.from_edge_lists(2, [[(0, 1)], [], []])
    with pytest.raises(GuardViolated):
        # a single edge on the 2-set is a rainbow copy of the inner K2 member
        describe("min.i", {"n": 6, "t": 3, "s": 2, "f": "K3", "inner": good_shape})


def test_supplied_inner_with_the_wrong_color_count_is_refused():
    with pytest.raises(InnerTooLarge, match="inner collection has 2 colors, needs 3"):
        describe("min.i", {"n": 6, "t": 3, "s": 2, "f": "K3", "inner": Collection.from_edge_lists(2, [[], []])})


def test_supplied_inner_equal_to_the_searched_one_gives_the_searched_build(tmp_path, capsys):
    params = {"n": 6, "t": 6, "s": 3, "f": "K4"}
    inner = extremal_min(ExtremalQuery("min", 3, 6, family_deleted_independent(parse_pattern("K4")))).witness
    assert inner.edge_counts() == (2,) * 6  # no rainbow K3 on 3 vertices: one path in every color
    searched = describe("min.i", params).collection
    assert describe("min.i", {**params, "inner": inner}).collection == searched
    codec_write(inner, str(tmp_path / "inner.rcol"))
    spec = "n=6,t=6,s=3,f=K4"
    for name, extra in (("searched", []), ("supplied", ["--inner", str(tmp_path / "inner.rcol")])):
        argv = ["construct", "--id", "min.i", "--params", spec, *extra, "--out", str(tmp_path / f"{name}.rcol")]
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert (tmp_path / "searched.rcol").read_bytes() == (tmp_path / "supplied.rcol").read_bytes()


# inputs the inner search refuses; each used to build the inner family first,
# which takes seconds from v(f) = 18 on and grows about 3x per two vertices
REFUSED_INNER = [
    ("min.iv", {"n": 22, "t": 21, "f": "P22"}, InnerTooLarge, "inner part has 10 > 4 vertices"),
    ("min.iv", {"n": 30, "t": 29, "f": "P30"}, InnerTooLarge, "inner part has 14 > 4 vertices"),
    ("min.i", {"n": 23, "t": 231, "s": 1, "f": "K22"}, ValueError, "t must be in 1..6, got 231"),
    ("min.ii", {"n": 6, "t": 7, "s": 1, "f": "P4"}, ValueError, "t must be in 1..6, got 7"),
]


@pytest.mark.parametrize("cid, params, error, message", REFUSED_INNER)
def test_inner_search_limits_are_checked_before_its_family_is_built(
    monkeypatch, tmp_path, capsys, cid, params, error, message
):
    def refuse(*args):
        raise AssertionError("inner family built before the inner search's limits were checked")

    monkeypatch.setattr(constructions, "family_deleted_independent", refuse)
    monkeypatch.setattr(constructions, "family_covering", refuse)
    for call in (describe, claimed_value):
        with pytest.raises(error, match=re.escape(message)) as info:
            call(cid, params)
        assert info.type is error
    spec = ",".join(f"{k}={v}" for k, v in params.items())
    out_path = tmp_path / "x.rcol"
    assert cli.main(["construct", "--id", cid, "--params", spec, "--out", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith(f"usage error: {message}")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "cid, params, message",
    [
        ("sum.cliques", {"n": 5, "t": 3, "f": "E2"}, "pattern needs at least one edge"),
        ("sum.monochrome-extremal", {"n": 11, "t": 2, "f": "K3"}, "searched up to n = 10"),
        ("sum.monochrome-extremal", {"n": 4, "t": 2, "f": "E3"}, "no f-free graph exists on this vertex count"),
    ],
)
def test_sum_construction_guards(cid, params, message):
    with pytest.raises(GuardViolated, match=message):
        describe(cid, params)


def test_supplied_inner_must_be_a_collection():
    for inner in ("foo", 3):
        with pytest.raises(GuardViolated):
            describe("min.i", {"n": 6, "t": 3, "s": 1, "f": "K3", "inner": inner})
        with pytest.raises(GuardViolated):
            describe("min.iv", {"n": 8, "t": 3, "f": "P4", "inner": inner})


def test_guard_violations():
    with pytest.raises(GuardViolated):
        describe("min.i", {"n": 6, "t": 3, "s": 1, "f": "P4"})  # bipartite pattern
    with pytest.raises(GuardViolated):
        describe("min.ii", {"n": 6, "t": 4, "s": 2, "f": "K2,2"})  # p(f) <= s
    with pytest.raises(GuardViolated):
        describe("min.iv", {"n": 8, "t": 3, "f": "S3"})  # not balanced
    with pytest.raises(GuardViolated):
        describe("prod.star.gt", {"n": 12, "t": 4, "s": 2, "r": 3})  # t = s(r-1)
    with pytest.raises(GuardViolated):
        describe("prod.star.gt", {"n": 12, "t": 3, "s": 0, "r": 3})  # s = 0
    with pytest.raises(GuardViolated):
        describe("prod.star2", {"n": 12, "t": 3, "s": 0})
    with pytest.raises(GuardViolated):
        describe("prod.star.eq", {"n": 12, "t": 5, "s": 2, "r": 3})
    with pytest.raises(GuardViolated):
        describe("prod.star.lt", {"n": 12, "t": 5, "s": 2, "r": 3})  # t > s(r-1)
    with pytest.raises(GuardViolated):
        describe("prod.sm.bigstar", {"n": 12, "t": 5, "s": 2, "r": 4, "m": 2})  # m > s-1
    with pytest.raises(GuardViolated):
        describe("prod.sm.mixed", {"n": 12, "t": 5, "s": 3, "r": 3, "m": 2})  # m too big
    with pytest.raises(GuardViolated):
        describe("min.kpp-remark", {"n": 10, "t": 3, "s": 3, "p": 2})  # t < p*p
    # three star blocks on one vertex: the star branches share one fit check
    for cid, t in (("prod.star.lt", 4), ("prod.star.eq", 6), ("prod.star.gt", 7)):
        with pytest.raises(GuardViolated, match="star blocks do not fit"):
            describe(cid, {"n": 1, "t": t, "s": 3, "r": 3})
    # two blocks on one vertex: the last block would end one vertex past the host
    with pytest.raises(GuardViolated, match="star blocks do not fit"):
        describe("prod.star.eq", {"n": 1, "t": 4, "s": 2, "r": 3})
    with pytest.raises(KeyError):
        describe("nope", {})


def test_clique_star_rejects_star_patterns():
    for bad in ("S3", "P3", "M2", "K2"):
        with pytest.raises(GuardViolated):
            describe("prod.clique-star", {"n": 8, "t": 3, "s": 2, "f": bad})
    info = describe("prod.clique-star", {"n": 8, "t": 3, "s": 2, "f": "P4"})
    assert info.family is not None


def test_build_returns_collection():
    col = build("prod.star2", {"n": 12, "t": 3, "s": 2})
    assert isinstance(col, Collection)
    assert col.n == 12 and col.t == 3


def test_meshulam_collection_counts_and_freeness():
    for n, s, t in ((4, 1, 2), (6, 2, 3), (8, 3, 4)):
        col = meshulam_collection(n, s, t)
        expected = s * (n - s) + s * (s - 1) // 2
        assert all(c == expected for c in col.edge_counts())
        fam = PatternFamily.from_graphs([Graph.matching(s + 1)])
        assert is_rainbow_free(col, fam)
        assert expected == claimed_value("meshulam", {"n": n, "s": s})
    with pytest.raises(GuardViolated, match="need 0 <= s <= n"):
        meshulam_collection(4, 5, 2)


def test_claimed_value_examples():
    assert claimed_value("meshulam", {"n": 5, "s": 2}) == 7
    assert claimed_value("prod.matching", {"n": 6, "t": 4, "s": 2}) == 1875
    assert claimed_value("sum.k3", {"n": 5, "s": 3}) == 20
    assert claimed_value("sum.k3", {"n": 5, "s": 2}) == 20  # 2 C(5,2)
    assert claimed_value("sum.k3", {"n": 6, "s": 4}) == 36  # 4 floor(36/4)
    assert claimed_value("sum.bipartite", {"n": 5, "f": "P3"}) == 10
    assert claimed_value("min.i", {"n": 4, "t": 3, "s": 1, "f": "K3"}) == 3
    assert claimed_value("min.ii", {"n": 6, "t": 4, "s": 1, "f": "K2,2"}) == 5
    assert claimed_value("min.iv", {"n": 8, "t": 3, "f": "P4"}) == 7
    with pytest.raises(GuardViolated):
        claimed_value("sum.bipartite", {"n": 5, "f": "K3"})
    with pytest.raises(KeyError):
        claimed_value("nope", {})
    # an inner term above desk scale is a usage error (CLI exit 2), not a budget stop
    with pytest.raises(InnerTooLarge):
        claimed_value("min.i", {"n": 12, "t": 6, "s": 5, "f": "K3"})


# one row per case: the value, or the exception type on the guard cases
CLAIMED_VALUES = [
    ("meshulam", {"n": 5, "s": 2}, 7),
    ("meshulam", {"n": 8, "s": 3}, 18),
    ("meshulam", {"n": 5}, GuardViolated),
    ("min.i", {"n": 4, "t": 3, "s": 1, "f": "K3"}, 3),
    ("min.i", {"n": 6, "t": 3, "s": 2, "f": "K3"}, 8),
    ("min.i", {"n": 9, "t": 6, "s": 2, "f": "K4"}, 15),
    ("min.i", {"n": 6, "t": 3, "s": 1, "f": "P4"}, GuardViolated),
    ("min.i", {"n": 12, "t": 6, "s": 5, "f": "K3"}, InnerTooLarge),
    ("min.ii", {"n": 6, "t": 4, "s": 1, "f": "K2,2"}, 5),
    ("min.ii", {"n": 10, "t": 3, "s": 1, "f": "P4"}, 9),
    ("min.ii", {"n": 6, "t": 4, "s": 2, "f": "K2,2"}, GuardViolated),
    ("min.ii", {"n": 6, "t": 4, "s": 1, "f": "K3"}, GuardViolated),
    ("min.iv", {"n": 8, "t": 3, "f": "P4"}, 7),
    ("min.iv", {"n": 12, "t": 5, "f": "P6"}, 21),
    ("min.iv", {"n": 8, "t": 3, "f": "S3"}, GuardViolated),
    ("min.iv", {"n": 8, "t": 3, "f": "K3"}, GuardViolated),
    ("min.iv", {"n": 8, "t": 3, "f": "P2"}, GuardViolated),
    ("prod.matching", {"n": 6, "t": 4, "s": 2}, 1875),
    ("prod.matching", {"n": 4, "t": 3, "s": 1}, 27),
    ("prod.matching", {"n": 4, "t": 3}, GuardViolated),
    ("sum.k3", {"n": 5, "s": 2}, 20),
    ("sum.k3", {"n": 5, "s": 3}, 20),
    ("sum.k3", {"n": 6, "s": 4}, 36),
    ("sum.bipartite", {"n": 5, "f": "P3"}, 10),
    ("sum.bipartite", {"n": 6, "f": "K2,2"}, 45),
    ("sum.bipartite", {"n": 5, "f": "K3"}, GuardViolated),
    ("sum.general-upper", {"n": 4, "t": 3, "f1": "K3", "rest": ["M2"]}, 10),
    ("sum.general-upper", {"n": 5, "t": 3, "f1": "P3", "rest": "K3"}, 14),
    ("sum.general-upper", {"n": 4, "t": 2, "f1": "K3", "rest": ["M2"]}, GuardViolated),
    ("sum.general-upper", {"n": 4, "t": 3, "f1": "K3"}, GuardViolated),
    ("nope", {}, KeyError),
    # the builders' guards on t and s
    ("min.i", {"n": 9, "t": 4, "s": 2, "f": "K4"}, GuardViolated),  # t < |E(K4)|
    ("min.i", {"n": 6, "t": 2, "s": 1, "f": "K3"}, GuardViolated),  # t < |E(K3)|
    ("min.i", {"n": 6, "t": 3, "s": 0, "f": "K3"}, GuardViolated),
    ("min.ii", {"n": 6, "t": 4, "s": 6, "f": "K2,2"}, GuardViolated),  # s >= n
    # the guards a formula shares with the collection it counts
    ("meshulam", {"n": 3, "s": 5}, GuardViolated),  # s > n, as meshulam_collection
    ("min.iv", {"n": 2, "t": 5, "f": "P6"}, 1),  # the host is just the inner part
    ("min.iv", {"n": 1, "t": 5, "f": "P6"}, GuardViolated),  # n < p(f) - 1
    ("min.iv", {"n": 8, "t": 2, "f": "P4"}, GuardViolated),  # t < |E(P4)|
    ("prod.matching", {"n": 4, "t": 1, "s": 3}, GuardViolated),  # t < s+1
    ("prod.matching", {"n": 4, "t": 3, "s": 0}, GuardViolated),  # s < 1
    ("prod.matching", {"n": 1, "t": 3, "s": 1}, GuardViolated),  # n < 2
    # the sum formulas' own domain
    ("sum.k3", {"n": -3, "s": 4}, GuardViolated),  # n < 1
    ("sum.k3", {"n": 0, "s": 2}, GuardViolated),
    ("sum.k3", {"n": 5, "s": -2}, GuardViolated),  # s < 1
    ("sum.k3", {"n": 5, "s": 0}, GuardViolated),
    ("sum.bipartite", {"n": -2, "f": "P3"}, GuardViolated),  # n < 1
    ("sum.bipartite", {"n": 0, "f": "P3"}, GuardViolated),
]


@pytest.mark.parametrize("fid, params, expected", CLAIMED_VALUES)
def test_claimed_value_by_formula(fid, params, expected):
    if isinstance(expected, int):
        assert claimed_value(fid, params) == expected
    else:
        with pytest.raises(expected):
            claimed_value(fid, params)


def test_claimed_values_cover_every_formula():
    assert {fid for fid, _, _ in CLAIMED_VALUES} == set(FORMULA_IDS) | {"nope"}


@pytest.mark.parametrize(
    "fid, params, expected",
    [row for row in CLAIMED_VALUES if row[0] in CONSTRUCTION_IDS and not isinstance(row[2], int)],
)
def test_formula_and_builder_share_guards(fid, params, expected):
    # a formula rejects exactly what the construction it counts rejects
    def raised(fn):
        with pytest.raises(Exception) as info:
            fn(fid, params)
        return info.type

    assert raised(claimed_value) is raised(describe) is expected


@pytest.mark.parametrize("key", ["n", "t", "s", "p", "r", "m"])
@pytest.mark.parametrize("bad", ["x", 2.0, None, True])
def test_non_integer_parameter_is_a_guard_violation(key, bad):
    # each callee gets only its own parameters, so no unknown name can raise first
    calls = [
        (describe, "prod.sm.bigstar", {"n": 12, "t": 5, "s": 3, "r": 4, "m": 1}),
        (claimed_value, "prod.matching", {"n": 12, "t": 5, "s": 3}),
        (describe, "min.iii", {"n": 8, "t": 4, "p": 2, "f": "K2,2", "s": 2}),
    ]
    calls = [(fn, cid, params) for fn, cid, params in calls if key in params]
    assert calls
    for fn, cid, params in calls:
        with pytest.raises(GuardViolated, match=f"parameter {key} must be an integer"):
            fn(cid, {**params, key: bad})


@pytest.mark.parametrize("extra", ["bogus", "budget"])
def test_unknown_parameter_is_a_guard_violation(extra):
    # budget is describe's argument, never a construction parameter
    first_rows = {}
    for cid, params in certification_grid():
        first_rows.setdefault(cid, params)
    for cid, params in first_rows.items():
        with pytest.raises(GuardViolated, match=f"unknown parameters: {extra}"):
            describe(cid, {**params, extra: 1})
    int_rows = {fid: params for fid, params, expected in CLAIMED_VALUES if isinstance(expected, int)}
    assert set(int_rows) == set(FORMULA_IDS)
    for fid, params in int_rows.items():
        with pytest.raises(GuardViolated, match=f"unknown parameters: {extra}"):
            claimed_value(fid, {**params, extra: 1})


def test_module_docstring_lists_each_builders_parameters():
    # "(n, t, p[, f, s])": required names, then the optional ones in brackets
    listed = dict(re.findall(r"^  (\S+)\s+\(([^)]*)\)", constructions.__doc__, re.M))
    assert set(listed) == set(CONSTRUCTION_IDS)
    for cid, names in listed.items():
        required, _, optional = names.partition("[")
        sig = inspect.signature(constructions._BUILDERS[cid]).parameters
        own = [k for k, p in sig.items() if p.kind is p.POSITIONAL_OR_KEYWORD]
        without_default = [k for k in own if sig[k].default is sig[k].empty]
        assert re.findall(r"\w+", required) == without_default, cid
        assert re.findall(r"\w+", optional) == own[len(without_default):], cid


def test_general_sum_upper_formula():
    v = claimed_value(
        "sum.general-upper", {"n": 4, "t": 3, "f1": "K3", "rest": ["M2"]}
    )
    # inner two-color M2-free max sum is 6; ex(4, K3) = 4
    assert v == 6 + 1 * 4


def test_general_sum_upper_formula_stops_on_its_inner_budget(monkeypatch):
    monkeypatch.setenv("RTURAN_BUDGET", "3")
    with pytest.raises(InnerInfeasible, match="inner sum search hit its node budget"):
        claimed_value("sum.general-upper", {"n": 4, "t": 3, "f1": "K3", "rest": ["M2"]})


def test_constructions_beat_nothing_silently():
    # spot-check that documented counts match built counts on a few rows
    for cid, params in certification_grid()[:8]:
        info = describe(cid, params)
        assert info.collection.edge_counts() == info.expected_counts, (cid, params)


# every construction parameter but inner swept over a small range; the
# optional ones are always given, so each built collection has a family
PARAMETER_GRID = {
    "n": range(1, 10),
    "t": range(1, 6),
    "s": range(0, 4),
    "p": range(0, 4),
    "r": range(1, 5),
    "m": range(0, 3),
    "f": ("K3", "P4", "K2,2", "S3", "M2", "P6"),
}

# sha256 over the outcome of every PARAMETER_GRID case: the exception
# class, or the rows, documented counts and family canonical forms
PINNED_PARAMETER_GRID_SHA256 = "0515672b0012bf2eb65d8d8f878b40ae62aadfbcb80851aad5e64d3a52a855af"


def test_parameter_grid_guards_and_outcomes_are_pinned():
    digest = hashlib.sha256()
    cases = 0
    for cid in CONSTRUCTION_IDS:
        sig = inspect.signature(constructions._BUILDERS[cid]).parameters
        names = [k for k, p in sig.items() if p.kind is p.POSITIONAL_OR_KEYWORD and k != "inner"]
        for values in itertools.product(*(PARAMETER_GRID[k] for k in names)):
            params = dict(zip(names, values))
            cases += 1
            try:
                info = describe(cid, params)
            except (GuardViolated, InnerTooLarge, InnerInfeasible) as exc:
                outcome = type(exc).__name__
            else:
                col = info.collection
                assert col.edge_counts() == info.expected_counts, (cid, params)
                assert info.family is not None and is_rainbow_free(col, info.family), (cid, params)
                rows = [g.adj for g in col.graphs]
                forms = [canonical_form(g).hex() for g in info.family]
                outcome = f"{rows} {list(info.expected_counts)} {forms}"
            digest.update(f"{cid} {params} {outcome}\n".encode())
    assert cases == 18900
    assert digest.hexdigest() == PINNED_PARAMETER_GRID_SHA256
