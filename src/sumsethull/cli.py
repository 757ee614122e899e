"""Command-line front end.

Subcommands: sumset (A + kB to a file), decompose (simplicial
decomposition with optional verification), verify (one bound or chain
check on explicit sets), explore (seeded campaigns).  Point sets travel
as JSON {"dim": d, "points": [[x1,...,xd], ...]} with integer entries;
all outputs are byte-deterministic given identical inputs and flags.

Exit codes: 0 success or satisfied, 1 violation found, 2 usage or
input error (including inputs too large to enumerate), 3 internal
error (any other exception, such as a broken invariant like the LP
pivot limit, reported as ``internal error: <command>: ...``).  Errors
name the violated hypothesis or flag.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import THEOREM_TAGS, HypothesisError, verify_theorem
from .decomposition import (
    Decomposition,
    decompose,
    verify_adjacency_chain,
    verify_cover,
)
from .explorer import GeneratorConfig, run_campaign
from .geometry import PointSet, barycentric
from .subsums import SubsumInstance, subsum_report
from .sumsets import a_plus_kb


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc.msg}")
    except RecursionError:
        raise ValueError(f"invalid JSON in {path}: nested too deeply")


def load_point_set(path: str) -> PointSet:
    data = _load_json(path)
    if not isinstance(data, dict) or "dim" not in data or "points" not in data:
        raise ValueError(f"{path}: expected an object with 'dim' and 'points'")
    dim = data["dim"]
    points = data["points"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError(f"{path}: 'dim' must be an integer")
    if not isinstance(points, list) or not points:
        raise ValueError(f"{path}: 'points' must be a nonempty list")
    rows = []
    for p in points:
        if not isinstance(p, list) or len(p) != dim:
            raise ValueError(f"{path}: every point must be a length-{dim} array")
        for v in p:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{path}: points must be integers")
        rows.append(tuple(p))
    return PointSet(dim, tuple(rows))


def load_subsum_instance(path: str) -> SubsumInstance:
    data = _load_json(path)
    if not isinstance(data, dict) or "sets" not in data:
        raise ValueError(f"{path}: expected an object with 'sets'")
    sets = data["sets"]
    if not isinstance(sets, list):
        raise ValueError(f"{path}: 'sets' must be a list")
    for s in sets:
        if not isinstance(s, list) or not s:
            raise ValueError(f"{path}: every set must be a nonempty list")
        for v in s:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{path}: set elements must be integers")
    return SubsumInstance(tuple(tuple(s) for s in sets))


def _write_json(path: str, payload: dict) -> None:
    # The one-shot json.dumps runs the C encoder; json.dump never does.
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def write_point_set(path: str, P: PointSet) -> None:
    # tuples encode as JSON arrays, so the points need no copy
    _write_json(path, {"dim": P.dim, "points": P.points})


def cmd_sumset(args) -> int:
    if args.k < 1:
        raise ValueError("k must be >= 1")
    A = load_point_set(args.a)
    B = load_point_set(args.b)
    result = a_plus_kb(A, B, args.k)
    write_point_set(args.out, result.points)
    print(result.cardinality)
    return 0


def _property_b_holds(D: Decomposition) -> bool:
    for i in range(len(D.simplices)):
        S = D.simplex_points(i)
        for p in D.ground.points:
            if p not in S.points and barycentric(S, p) is not None:
                return False
    return True


def cmd_decompose(args) -> int:
    B = load_point_set(args.b)
    D = decompose(B)
    _write_json(args.out, D.to_json_dict())
    print(f"simplices={len(D.simplices)}")
    if not args.check:
        return 0
    # verify_cover runs verify_regular_position (facet gluing) and adds
    # the volume equation; only the two together prove either the cover
    # or that the simplices pairwise meet in common faces.
    cover = verify_cover(D)
    chain = verify_adjacency_chain(D)
    prop_b = _property_b_holds(D)
    verdicts = {
        "cover": cover.passed,
        "regular_position": cover.passed,
        "adjacency_chain": chain.passed,
        "vertex_membership": prop_b,
    }
    for name, ok in verdicts.items():
        print(f"{name}={'pass' if ok else 'fail'}")
    return 0 if all(verdicts.values()) else 1


def cmd_verify(args) -> int:
    if args.theorem == "subsum":
        rep = subsum_report(load_subsum_instance(args.a))
        if args.json:
            print(json.dumps(rep.to_dict(), sort_keys=True, separators=(",", ":")))
        else:
            print(
                f"subsum |S|={rep.s_size} |S'|={rep.s_prime_size} "
                f"bound={rep.bound} satisfied={rep.chain_satisfied}"
            )
        return 0 if rep.chain_satisfied else 1

    A = load_point_set(args.a)
    B = None
    if args.theorem in ("two_sets", "k_fold", "simplex_exact"):
        if args.b is None:
            raise ValueError(f"flag --b is required for theorem {args.theorem}")
        B = load_point_set(args.b)
    elif args.b is not None:
        raise ValueError(f"theorem {args.theorem} takes no second set")
    k = args.k if args.k is not None else 1
    if k < 1:
        raise ValueError("k must be >= 1")
    rec = verify_theorem(args.theorem, A, B, k=k, instance="cli")
    if args.json:
        print(json.dumps(rec.to_dict(), sort_keys=True, separators=(",", ":")))
    else:
        print(
            f"{rec.theorem} bound={rec.bound} actual={rec.actual} "
            f"satisfied={rec.satisfied}"
        )
    return 0 if rec.satisfied else 1


def cmd_explore(args) -> int:
    if args.question is not None:
        tag = f"question{args.question}"
    else:
        tag = args.theorem
    dim = args.dim
    k = args.k if args.k is not None else 2
    cfg = GeneratorConfig(
        dim=dim,
        a_size=(1, 6),
        b_size=(dim + 1, dim + 3),
        coord_range=5,
        k=k,
        seed=args.seed,
        instances=args.instances,
    )
    report = run_campaign(cfg, tag)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            if args.report.endswith(".csv"):
                fh.write(report.to_csv())
            else:
                fh.write(report.to_json())
                fh.write("\n")
    label = "exploratory" if report.summary.get("exploratory") else "asserted"
    print(
        f"tag={tag} instances={cfg.instances} violations={report.violations} "
        f"({label})"
    )
    if "min_slack" in report.summary:
        print(f"min_slack={report.summary['min_slack']}")
    if "observed_min_ratio" in report.summary:
        print(
            f"observed_min_ratio={report.summary['observed_min_ratio']} "
            f"conjectured={report.summary['conjectured_ratio']}"
        )
    return 1 if (report.assertable and report.violations > 0) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumsethull",
        description="Exact sumsets of lattice point sets, hull bounds, decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sumset", help="compute A + kB and write it as JSON")
    p.add_argument("--a", required=True, help="point-set file for A")
    p.add_argument("--b", required=True, help="point-set file for B")
    p.add_argument("-k", type=int, default=1, help="number of B summands (default 1)")
    p.add_argument("--out", required=True, help="output point-set file")
    p.set_defaults(func=cmd_sumset)

    p = sub.add_parser("decompose", help="simplicial decomposition of conv B")
    p.add_argument("--b", required=True, help="point-set file for B")
    p.add_argument("--out", required=True, help="output decomposition file")
    p.add_argument("--check", action="store_true", help="run all verifiers")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="check one bound on explicit input sets")
    p.add_argument(
        "--theorem",
        required=True,
        choices=THEOREM_TAGS + ("subsum",),
        help="which bound to check",
    )
    p.add_argument("--a", required=True, help="point-set file (or subsum instance file)")
    p.add_argument("--b", help="point-set file for B where required")
    p.add_argument("-k", type=int, default=None, help="number of B summands")
    p.add_argument("--json", action="store_true", help="print the record as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("explore", help="run a seeded campaign")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--question", type=int, choices=(1, 2), help="open question to probe")
    group.add_argument(
        "--theorem",
        choices=THEOREM_TAGS + ("subsum",),
        help="bound to sweep",
    )
    p.add_argument("--dim", type=int, default=2, help="ambient dimension (default 2)")
    p.add_argument("-k", type=int, default=None, help="summand count (default 2)")
    p.add_argument("--instances", type=int, default=100, help="instance count (default 100)")
    p.add_argument("--seed", default="42", help="master seed (default 42)")
    p.add_argument(
        "--report",
        help="write the campaign report here (.csv extension switches to CSV)",
    )
    p.set_defaults(func=cmd_explore)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, HypothesisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
