"""Command-line driver: detection, lemma checks, constructions, search, verify.

Exit codes: 0 success (detect: copy found), 1 detect: no copy,
2 usage errors, 3 node budget exhausted, 4 I/O or file-format errors.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from math import comb

from .graphcore import ParseError, SizeError, parse_pattern, parse_family
from .collection import (
    FormatError,
    RangeError,
    RainbowWitness,
    codec_read,
    codec_write,
    find_rainbow_copy,
    is_rainbow_free,
)
from . import lemmas
from .search import (
    BudgetExceeded,
    ExtremalQuery,
    ExtremalResult,
    extremal_min,
    extremal_sum,
    extremal_prod,
)
from . import constructions as cons

SUITES = ("meshulam", "min-theorem", "sum-k3", "prod-matching", "sum-bipartite", "constructions")


def _fmt_witness(w: RainbowWitness) -> str:
    vm = " ".join(f"{p}->{h}" for p, h in enumerate(w.vmap))
    cm = " ".join(f"({a},{b})->{c}" for (a, b), c in zip(w.pattern.edges(), w.cmap))
    return f"vmap {vm}; cmap {cm}" if cm else f"vmap {vm}; cmap -"


def _fmt_matching(m) -> str:
    if m.size == 0:
        return "empty"
    return " ".join(f"({u},{v})#{c}" for (u, v), c in zip(m.edges, m.colors))


def _parse_params(spec: str) -> dict:
    # split only on commas that start a new k= item, so pattern values
    # with their own commas (K2,2) survive
    out: dict = {}
    if not spec:
        return out
    for item in re.split(r",(?=[A-Za-z_][A-Za-z_0-9]*=)", spec):
        if "=" not in item:
            raise ParseError(f"malformed parameter {item!r} (expected k=v)")
        k, v = item.split("=", 1)
        k = k.strip()
        v = v.strip()
        if k in out:
            raise ParseError(f"parameter {k} given twice")
        out[k] = int(v) if re.fullmatch(r"-?[0-9]+", v) else v  # ASCII digits only, as in .rcol
    return out


# ---------------------------------------------------------------------
# subcommands


def _cmd_detect(args) -> int:
    col = codec_read(args.collection)
    pattern = parse_pattern(args.pattern)
    w = find_rainbow_copy(col, pattern)
    if w is None:
        print("none")
        return 1
    print(_fmt_witness(w))
    return 0


def _cmd_lemma(args) -> int:
    col = codec_read(args.collection)
    if args.check == "strong":
        if args.sufficient:
            ev = lemmas.strong_color_sufficient(col, args.color, args.s)
            print(ev.verdict.value)
        else:
            print("strong" if lemmas.strong_color_exact(col, args.color, args.s) else "not-strong")
        return 0
    if args.check == "verystrong":
        ok = lemmas.very_strong_color(col, args.color, args.r, args.m)
        print("very-strong" if ok else "not-very-strong")
        return 0
    if args.check == "m2":
        st = lemmas.m2_structure(col)
        if st.kind == "has_rainbow_m2":
            print(f"rainbow-m2 {_fmt_witness(st.witness)}")
        elif st.kind == "common_vertex":
            print(f"common-vertex {st.vertex}")
        else:
            print(f"all-but-one-small exempt={st.exempt}")
        return 0
    if args.check == "starcover":
        sc = lemmas.star_cover(col, args.vertex, args.p)
        if sc.witness is not None:
            print(f"star {_fmt_witness(sc.witness)}")
        else:
            edges = " ".join(f"({u},{v})" for u, v in sc.cover) or "-"
            exempt = " ".join(str(c) for c in sc.exempt) or "-"
            print(f"cover {edges}; exempt {exempt}")
        return 0
    if args.check == "greedy":
        try:
            m = lemmas.greedy_from_degrees(col, args.q)
        except lemmas.PreconditionViolated as exc:
            print(f"precondition-violated: {exc}")
            return 0
        print(_fmt_matching(m))
        return 0
    raise AssertionError(args.check)


def _cmd_construct(args) -> int:
    params = _parse_params(args.params)
    if args.inner:
        if "inner" in params:
            raise ParseError("parameter inner given twice")
        params["inner"] = codec_read(args.inner)
    col = cons.build(args.id, params)
    codec_write(col, args.out)
    print(f"wrote {args.out} (n={col.n}, t={col.t}, edges={list(col.edge_counts())})")
    return 0


def _search(mode: str):
    # looked up at call time, so a wrapper installed on this module's
    # extremal_* bindings sees every search
    return {"min": extremal_min, "sum": extremal_sum, "prod": extremal_prod}[mode]


def _run_query(args) -> ExtremalResult:
    query = ExtremalQuery(args.mode, args.n, args.t, parse_family(args.forbid), args.budget)
    return _search(args.mode)(query)


def _cmd_compute(args) -> int:
    res = _run_query(args)
    print(res.value)
    if args.out and res.witness is not None:
        codec_write(res.witness, args.out)
    return 0 if res.exact else 3


# ---------------------------------------------------------------------
# verify suites


def _row(suite: str, params: str, claimed, computed, status: str, nodes: int, millis: int) -> dict:
    return {
        "suite": suite,
        "params": params,
        "claimed": str(claimed),
        "computed": str(computed),
        "match": status,
        "nodes": str(nodes),
        "millis": str(millis),
    }


# The search-backed suites: each row compares a claimed closed form with an
# exact search.  Columns: suite, params label, formula id and its params,
# search mode, n, t, forbidden family, boundary floor.  The floor of a
# meshulam row is C(min(n, 2s+1), 2): that complete graph carries no matching
# of s+1 disjoint edges in any coloring, so a claimed value below it cannot be
# the optimum (small-host boundary).  Every other row has floor 0.
_SEARCH_SUITE_ROWS = (
    ("meshulam", "n=3,s=1,t=2", "meshulam", {"n": 3, "s": 1}, "min", 3, 2, "{M2}", comb(3, 2)),
    ("meshulam", "n=4,s=1,t=2", "meshulam", {"n": 4, "s": 1}, "min", 4, 2, "{M2}", comb(3, 2)),
    ("meshulam", "n=4,s=1,t=3", "meshulam", {"n": 4, "s": 1}, "min", 4, 3, "{M2}", comb(3, 2)),
    ("meshulam", "n=5,s=1,t=2", "meshulam", {"n": 5, "s": 1}, "min", 5, 2, "{M2}", comb(3, 2)),
    ("meshulam", "n=5,s=2,t=3", "meshulam", {"n": 5, "s": 2}, "min", 5, 3, "{M3}", comb(5, 2)),
    ("min-theorem", "n=4,t=3,s=1,f=K3", "min.i", {"n": 4, "t": 3, "s": 1, "f": "K3"},
     "min", 4, 3, "{K3,M2}", 0),
    ("sum-k3", "n=4,t=3", "sum.k3", {"n": 4, "s": 3}, "sum", 4, 3, "{K3}", 0),
    ("sum-k3", "n=5,t=3", "sum.k3", {"n": 5, "s": 3}, "sum", 5, 3, "{K3}", 0),
    ("prod-matching", "n=4,t=2,s=1", "prod.matching", {"n": 4, "t": 2, "s": 1}, "prod", 4, 2, "{M2}", 0),
    ("prod-matching", "n=4,t=3,s=1", "prod.matching", {"n": 4, "t": 3, "s": 1}, "prod", 4, 3, "{M2}", 0),
    ("sum-bipartite", "n=5,t=2,f=P3", "sum.bipartite", {"n": 5, "f": "P3"}, "sum", 5, 2, "{P3}", 0),
)


def _suite_searched(suite: str, budget) -> list[dict]:
    rows = []
    for row_suite, label, fid, params, mode, n, t, forbid, floor in _SEARCH_SUITE_ROWS:
        if row_suite != suite:
            continue
        t0 = time.monotonic()
        claimed = cons.claimed_value(fid, params)
        res = _search(mode)(ExtremalQuery(mode, n, t, parse_family(forbid), budget))
        ms = int((time.monotonic() - t0) * 1000)
        if not res.exact:
            status = "BUDGET"
        elif res.value == claimed:
            status = "match"
        elif claimed < floor:
            status = "boundary"
        else:
            status = "MISMATCH"
        rows.append(_row(suite, label, claimed, res.value, status, res.nodes, ms))
    return rows


def _suite_constructions(budget) -> list[dict]:
    rows = []
    for cid, params in cons.certification_grid():
        t0 = time.monotonic()
        info = cons.describe(cid, params, budget)
        got = info.collection.edge_counts()
        free = is_rainbow_free(info.collection, info.family)
        ms = int((time.monotonic() - t0) * 1000)
        ok = free and got == info.expected_counts
        pstr = ",".join(f"{k}={v}" for k, v in params.items())
        rows.append(
            _row(
                "constructions",
                f"{cid}[{pstr}]",
                ",".join(map(str, info.expected_counts)),
                ",".join(map(str, got)) + ("/free" if free else "/NOT-FREE"),
                "match" if ok else "MISMATCH",
                0,
                ms,
            )
        )
    return rows


def _suite(suite: str, budget) -> list[dict]:
    if suite == "constructions":
        return _suite_constructions(budget)
    return _suite_searched(suite, budget)


def _exit_for(rows) -> int:
    if any(r["match"] == "BUDGET" for r in rows):
        return 3
    return 1 if any(r["match"] == "MISMATCH" for r in rows) else 0


def _cmd_verify(args) -> int:
    rows = _suite(args.suite, args.budget)
    width = max(len(r["params"]) for r in rows)
    for r in rows:
        print(f"{r['params']:<{width}}  claimed={r['claimed']:<12} computed={r['computed']:<16} {r['match']}")
    return _exit_for(rows)


def _cmd_report(args) -> int:
    rows = []
    for suite in SUITES:
        rows.extend(_suite(suite, args.budget))
    cols = ("suite", "params", "claimed", "computed", "match", "nodes", "millis")
    lines = ["\t".join(cols)]
    lines.extend("\t".join(r[c] for c in cols) for r in rows)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    return _exit_for(rows)


# ---------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rturan", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="find a rainbow copy of a pattern in a collection")
    p.add_argument("--collection", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("lemma", help="run one of the matching-lemma checks")
    lsub = p.add_subparsers(dest="check", required=True)
    q = lsub.add_parser("strong")
    q.add_argument("--collection", required=True)
    q.add_argument("--color", type=int, required=True)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--sufficient", action="store_true")
    q.set_defaults(fn=_cmd_lemma)
    q = lsub.add_parser("verystrong")
    q.add_argument("--collection", required=True)
    q.add_argument("--color", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.set_defaults(fn=_cmd_lemma)
    q = lsub.add_parser("m2")
    q.add_argument("--collection", required=True)
    q.set_defaults(fn=_cmd_lemma)
    q = lsub.add_parser("starcover")
    q.add_argument("--collection", required=True)
    q.add_argument("--vertex", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.set_defaults(fn=_cmd_lemma)
    q = lsub.add_parser("greedy")
    q.add_argument("--collection", required=True)
    q.add_argument("--q", type=int, required=True)
    q.set_defaults(fn=_cmd_lemma)

    p = sub.add_parser("construct", help="emit a registered construction as .rcol")
    p.add_argument("--id", required=True, choices=sorted(cons.CONSTRUCTION_IDS))
    p.add_argument("--params", default="")
    p.add_argument("--inner", help="optional .rcol with the inner collection")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("compute", help="exact extremal value by exhaustive search")
    p.add_argument("--mode", required=True, choices=("min", "sum", "prod"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--forbid", required=True, help='forbidden family, e.g. "{K3,M2}"')
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", help="write the witness collection here")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("report", help="run all suites and emit TSV")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=_cmd_report)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, SizeError, ValueError) as exc:
        if isinstance(exc, (FormatError, RangeError)):
            print(f"error: {exc}", file=sys.stderr)
            return 4
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
