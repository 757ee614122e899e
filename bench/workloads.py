"""The four benchmark workloads: inputs made from the seed, items, checks.

An item is one top-level call a user would make: a ``sumsethull.cli.main``
call with the arguments a user would pass, or a library call where the
command line has no path.  ``Item.run`` is the only timed part.
``Item.collect`` gathers what the call produced (exit code, standard
output, written file) as plain bytes, and ``Item.check`` compares that to
the references in ``oracle``.  Both run outside the timed span.
``Item.call`` is the same call as plain data, for ``child.py`` to run in
a fresh process; ``Item.out`` is the file the call writes, removed before
every run so that a call that stops writing it cannot pass on an old copy.

A round is one group of items, one per stratum.  Strata are chosen so
their costs interleave and the number of items per round is odd, which
puts the per-item median inside a stratum rather than between two.
``campaigns`` and ``decompose_check`` draw fresh inputs every round;
``sumset_count`` and ``sumset_write``, whose reference checks cost as
much as the calls, cycle through a small pool of groups, so each
distinct output is checked once.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import oracle
from oracle import require


@dataclass(frozen=True)
class Result:
    """What one call produced: exit code, standard output, file contents."""

    rc: int
    stdout: str
    data: bytes

    def blob(self) -> bytes:
        return f"{self.rc}\n{len(self.stdout)}\n{self.stdout}".encode() + self.data


@dataclass
class Item:
    key: str                             # equal keys mean identical inputs
    run: Callable[[], object]            # timed
    collect: Callable[[object], Result]  # untimed
    check: Callable[[Result], None]      # untimed, raises CheckError
    call: list                           # the call for child.py
    out: Path | None = None              # the file the call writes


def write_points(path: Path, points) -> None:
    payload = {"dim": len(points[0]), "points": [list(p) for p in points]}
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def cli_item(prog, key: str, argv: list[str], out: Path | None, check) -> Item:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = prog.cli.main(argv)
        return rc, buf.getvalue()

    def collect(raw) -> Result:
        rc, stdout = raw
        return Result(rc, stdout, out.read_bytes() if out is not None else b"")

    return Item(key, run, collect, check, ["cli", *argv], out)


def draw(rng: random.Random, d: int, n: int, c: int, volume=None, boundary=None) -> list[tuple]:
    """n distinct points of [-c, c]^d spanning the space, sorted.

    Redrawn until the hull volume lies in the closed interval ``volume``
    and exactly ``boundary`` points lie on the hull boundary, when given.
    Those two properties set the cost of every call on the set, so fixing
    them keeps the work per item level across seeds.
    """
    while True:
        pts = set()
        while len(pts) < n:
            pts.add(tuple(rng.randint(-c, c) for _ in range(d)))
        pts = sorted(pts)
        if oracle.affine_rank(pts) != d:
            continue
        if volume is not None and not volume[0] <= oracle.hull_volume(pts) <= volume[1]:
            continue
        if boundary is not None and len(oracle.boundary_points(pts)) != boundary:
            continue
        return pts


def _parse_lines(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


class Workload:
    """Items of one workload; ``group(r)`` is round r's items, one per stratum.

    With ``pool`` unset every round draws fresh inputs.  With ``pool = G``
    rounds cycle through G groups, each made on first use, so a later
    round repeats an earlier one's inputs and its outputs are checked by
    digest only.
    """

    name = ""
    pool: int | None = None

    def __init__(self, prog, seed: int, work: Path):
        self.prog, self.seed, self.work = prog, seed, work
        work.mkdir(parents=True, exist_ok=True)
        self._groups: dict[int, list[Item]] = {}

    def group(self, r: int) -> list[Item]:
        if self.pool is None:
            return self.make_group(r)
        g = r % self.pool
        if g not in self._groups:
            self._groups[g] = self.make_group(g)
        return self._groups[g]

    def make_group(self, g: int) -> list[Item]:
        raise NotImplementedError


# ---------------------------------------------------------------- campaigns

# (theorem tag, dimension, instances per call).  Instance counts level the
# cost of the twelve calls at about 60 ms each on a 2-core x86 machine, so
# the per-call times form one cluster.
CAMPAIGN_KINDS = (
    ("freiman", 2, 45), ("vertex_sum", 2, 18), ("two_sets", 2, 17),
    ("k_fold", 2, 16), ("simplex_exact", 2, 24), ("subsum", 2, 200),
    ("freiman", 3, 14), ("vertex_sum", 3, 9), ("two_sets", 3, 11),
    ("k_fold", 3, 10), ("simplex_exact", 3, 16), ("subsum", 3, 300),
)


def check_campaign(res: Result, tag: str, instances: int, seed: str) -> None:
    require(res.rc == 0, f"explore exit code {res.rc}")
    head = res.stdout.splitlines()[0] if res.stdout else ""
    require(
        head == f"tag={tag} instances={instances} violations=0 (asserted)",
        f"explore printed {head!r}",
    )
    report = json.loads(res.data)
    summary = report["summary"]
    require(report["tag"] == tag, "report tag differs")
    require(report["config"]["seed"] == seed, f"report is of seed {report['config']['seed']}, not {seed}")
    require(summary["assertable"] and summary["violations"] == 0, "asserted campaign has violations")
    records = report["records"]
    require(len(records) == instances, f"{len(records)} records for {instances} instances")
    for rec in records:
        if tag == "subsum":
            sets = rec["instance"]["sets"]
            s_size, s_prime = oracle.leave_one_out_sums(sets)
            require(rec["s_size"] == s_size, f"subsum |S| {rec['s_size']} != {s_size}")
            require(rec["actual"] == s_prime, f"subsum |S'| {rec['actual']} != {s_prime}")
            continue
        w = rec["witness"]
        A = [tuple(p) for p in w["a"]]
        m, d, k = len(A), len(A[0]), w["k"]
        if tag == "freiman":
            actual, bound = len(oracle.add_sets(A, A)), oracle.freiman_bound(m, d)
        elif tag == "vertex_sum":
            vertices = oracle.hull_vertices(A)
            require({tuple(p) for p in w["a_vertices"]} == vertices, "vertex set differs")
            actual, bound = len(oracle.add_sets(A, vertices)), oracle.freiman_bound(m, d)
        else:
            B = [tuple(p) for p in w["b"]]
            if tag == "two_sets":
                actual, bound = len(oracle.add_sets(A, B)), oracle.freiman_bound(m, d)
            elif tag == "k_fold":
                actual, bound = len(oracle.iterated_sum(A, B, k)), oracle.kfold_bound(m, d, k)
            else:
                actual = len(oracle.iterated_sum(A, B, k))
                bound = oracle.simplex_count(m, len(set(A) & set(B)), d, k)
        require(rec["actual"] == actual, f"{tag} record {rec['index']}: actual {rec['actual']} != {actual}")
        require(rec["bound"] == bound, f"{tag} record {rec['index']}: bound {rec['bound']} != {bound}")
        exact = tag == "simplex_exact"
        require(rec["satisfied"] == (actual == bound if exact else actual >= bound), "satisfied flag wrong")


class Campaigns(Workload):
    name = "campaigns"

    def make_group(self, r: int) -> list[Item]:
        items = []
        for j, (tag, d, n) in enumerate(CAMPAIGN_KINDS):
            out = self.work / f"report{j}.json"
            argv = ["explore", "--theorem", tag, "--dim", str(d), "--instances", str(n),
                    "--seed", f"{self.seed}-{r}", "--report", str(out)]
            items.append(cli_item(
                self.prog, f"{r}:{j}", argv, out,
                lambda res, tag=tag, n=n, s=f"{self.seed}-{r}": check_campaign(res, tag, n, s),
            ))
        return items


# ---------------------------------------------------------- decompose_check

# (dimension, points, points on the hull boundary, coordinate bound).  In
# the plane a triangulation using every point has 2n - b - 2 triangles, so
# fixing b fixes the work; in space b = n (convex position) narrows it.
DECOMPOSE_STRATA = (
    (2, 10, 6, 6), (2, 12, 7, 6), (2, 14, 9, 6), (2, 16, 8, 6),
    (3, 6, 6, 3), (3, 7, 7, 3), (3, 8, 8, 3),
)


def check_decomposition(res: Result, ground: list[tuple]) -> None:
    require(res.rc == 0, f"decompose exit code {res.rc}")
    lines = _parse_lines(res.stdout)
    for verifier in ("cover", "regular_position", "adjacency_chain", "vertex_membership"):
        require(lines.get(verifier) == "pass", f"{verifier}={lines.get(verifier)}")
    dec = json.loads(res.data)
    require([tuple(p) for p in dec["ground"]] == ground, "ground set differs from input")
    n, d = len(ground), len(ground[0])
    simplices = [tuple(s) for s in dec["simplices"]]
    require(lines.get("simplices") == str(len(simplices)), "printed simplex count differs from file")
    require(len(set(simplices)) == len(simplices), "a simplex is listed twice")
    for s in simplices:
        require(len(set(s)) == d + 1 and all(0 <= i < n for i in s), f"bad simplex {s}")
    verts = [[ground[i] for i in s] for s in simplices]
    volume = sum((oracle.simplex_volume(v) for v in verts), 0)
    require(volume == oracle.hull_volume(ground), f"simplex volumes sum to {volume}, hull differs")
    b = len(oracle.boundary_points(ground))
    faces: dict[tuple, int] = {}
    for s in simplices:
        for face in combinations(sorted(s), d):
            faces[face] = faces.get(face, 0) + 1
    require(max(faces.values()) <= 2, "a facet is shared by three simplices")
    if d == 2:
        require(len(simplices) == 2 * n - b - 2, f"{len(simplices)} triangles, expected {2 * n - b - 2}")
    else:
        outer = sum(1 for v in faces.values() if v == 1)
        require(outer == 2 * b - 4, f"{outer} boundary triangles, expected {2 * b - 4}")
    for s, v in zip(simplices, verts):
        for i, p in enumerate(ground):
            require(i in s or not oracle.in_simplex(v, p), f"point {p} lies in simplex {s}")
    adjacency = sorted(
        (i, j) for i, j in combinations(range(len(simplices)), 2)
        if len(set(simplices[i]) & set(simplices[j])) == d
    )
    require([tuple(p) for p in dec["adjacency"]] == adjacency, "adjacency list differs")


class DecomposeCheck(Workload):
    name = "decompose_check"

    def make_group(self, r: int) -> list[Item]:
        items = []
        for j, (d, n, b, c) in enumerate(DECOMPOSE_STRATA):
            ground = draw(random.Random(f"{self.seed}:decompose:{r}:{j}"), d, n, c, boundary=b)
            src, out = self.work / f"b{r}_{j}.json", self.work / f"dec{j}.json"
            write_points(src, ground)
            argv = ["decompose", "--b", str(src), "--out", str(out), "--check"]
            items.append(cli_item(
                self.prog, f"{r}:{j}", argv, out,
                lambda res, g=ground: check_decomposition(res, g),
            ))
        return items


# ------------------------------------------------------------- sumset_count

def inside(rng, B, size) -> list[tuple]:
    """A sorted sample of lattice points of conv B."""
    lattice = oracle.lattice_points_in_hull(B)
    return sorted(rng.sample(lattice, min(size, len(lattice))))


def check_verify(res: Result, tag: str, A, B, k: int) -> None:
    require(res.rc == 0, f"verify exit code {res.rc}")
    rec = json.loads(res.stdout)
    actual = len(oracle.iterated_sum(A, B, k))
    m, d = len(A), len(A[0])
    if tag == "k_fold":
        bound = oracle.kfold_bound(m, d, k)
        require(actual >= bound, "own count below the bound")
    else:
        bound = oracle.simplex_count(m, len(set(A) & set(B)), d, k)
        require(actual == bound, f"own count {actual} differs from the closed form {bound}")
    require(rec["theorem"] == tag and rec["satisfied"] is True, "record not satisfied")
    require(rec["actual"] == actual, f"actual {rec['actual']} != {actual}")
    require(rec["bound"] == bound, f"bound {rec['bound']} != {bound}")


def check_partition(res: Result, A, simplices, ground, k: int) -> None:
    got = json.loads(res.data)
    cells = [[tuple(p) for p in cell] for cell in got["cells"]]
    rep = got["report"]
    require(len(cells) == len(simplices), "cell count differs from simplex count")
    require(sorted(p for cell in cells for p in cell) == sorted(A), "cells do not partition A")
    sums = []
    for i, (cell, s) in enumerate(zip(cells, simplices)):
        verts = [ground[v] for v in s]
        for p in cell:
            require(oracle.in_simplex(verts, p), f"{p} is not in simplex {i}")
            require(
                not any(oracle.in_simplex([ground[v] for v in t], p) for t in simplices[:i]),
                f"{p} lies in an earlier simplex than {i}",
            )
        sums.append(oracle.iterated_sum(cell, verts, k) if cell else set())
    sizes = [len(s) for s in sums]
    require(rep["cell_sum_sizes"] == sizes, f"cell sizes {rep['cell_sum_sizes']} != {sizes}")
    require(sum(sizes) == len(set().union(*sums)), "own cell sums overlap")
    whole = len(oracle.iterated_sum(A, ground, k))
    require(rep["whole_sum_size"] == whole, f"|A+kB| {rep['whole_sum_size']} != {whole}")
    require(rep["passed"] and rep["pairwise_disjoint"] and rep["sum_of_cells"] == sum(sizes), "report fails")


def partition_item(prog, key, A, B, k, fa: Path, fb: Path) -> Item:
    PointSet = prog.geometry.PointSet
    A_set, D = PointSet(len(A[0]), tuple(A)), prog.decomposition.decompose(PointSet(len(B[0]), tuple(B)))
    simplices = [s.vertex_indices for s in D.simplices]

    def run():
        P = prog.partition.induce_partition(A_set, D)
        return P, prog.partition.check_disjoint_sums(P, k)

    def collect(raw) -> Result:
        P, rep = raw
        cells = [[list(p) for p in cell.points] for cell in P.cells]
        return Result(0, "", json.dumps({"cells": cells, "report": rep.to_dict()}).encode())

    return Item(key, run, collect, lambda res: check_partition(res, A, simplices, B, k),
                ["partition", str(fa), str(fb), k])


# (kind, dimension, |B|, coordinate bound, hull volume window, points on
# the hull boundary, |A|, k).  The windows sit at the median volume of
# such draws.  Three strata cost less and three more than the k_fold one
# at d = 3, whose narrow cost spread then holds the per-item median.
SUMSET_COUNT_STRATA = (
    ("k_fold", 2, 10, 5, (50, 58), None, 4, 8),
    ("k_fold", 3, 9, 3, (38, 46), None, 4, 5),
    ("k_fold", 2, 12, 4, (38, 44), None, 3, 6),
    ("simplex_exact", 2, 3, 12, (30, 40), None, 12, 8),
    ("simplex_exact", 3, 4, 6, (20, 27), None, 10, 7),
    ("partition", 2, 10, 5, (50, 58), 6, 5, 2),
    ("partition", 3, 9, 3, (38, 46), 8, 8, 3),
)


class SumsetCount(Workload):
    name = "sumset_count"
    pool = 8

    def make_group(self, g: int) -> list[Item]:
        items = []
        for j, (kind, d, nb, c, vol, b, na, k) in enumerate(SUMSET_COUNT_STRATA):
            rng = random.Random(f"{self.seed}:count:{g}:{j}")
            B = draw(rng, d, nb, c, volume=vol, boundary=b)
            A = inside(rng, B, na)
            if kind == "simplex_exact":
                A = sorted(set(A[: na - 2]) | set(rng.sample(B, 2)))
            key = f"{g}:{j}"
            fa, fb = self.work / f"a{g}_{j}.json", self.work / f"b{g}_{j}.json"
            write_points(fa, A)
            write_points(fb, B)
            if kind == "partition":
                items.append(partition_item(self.prog, key, A, B, k, fa, fb))
                continue
            argv = ["verify", "--theorem", kind, "--a", str(fa), "--b", str(fb), "-k", str(k), "--json"]
            items.append(cli_item(
                self.prog, key, argv, None,
                lambda res, kind=kind, A=A, B=B, k=k: check_verify(res, kind, A, B, k),
            ))
        return items


# ------------------------------------------------------------- sumset_write

def check_sumset_file(res: Result, A, B, k: int) -> None:
    require(res.rc == 0, f"sumset exit code {res.rc}")
    got = json.loads(res.data)
    pts = [tuple(p) for p in got["points"]]
    require(got["dim"] == len(A[0]), "dimension differs")
    require(all(p < q for p, q in zip(pts, pts[1:])), "output not strictly sorted")
    require(res.stdout.strip() == str(len(pts)), f"printed {res.stdout.strip()}, file holds {len(pts)}")
    require(set(pts) == oracle.iterated_sum(A, B, k), "output differs from A + kB")


# (dimension, |B|, coordinate bound, volume window; the same for A; k).
# The volume windows hold |A + kB| at about 1.1-3 x 10^4 points across seeds.
SUMSET_WRITE_STRATA = (
    (2, 12, 10, (250, 300), 8, 4, (27, 32), 7),
    (3, 9, 4, (82, 96), 5, 2, (3, 4), 8),
    (3, 12, 5, (225, 265), 6, 2, (5.5, 7.5), 5),
)


class SumsetWrite(Workload):
    name = "sumset_write"
    pool = 5

    def make_group(self, g: int) -> list[Item]:
        items = []
        for j, (d, nb, cb, vb, na, ca, va, k) in enumerate(SUMSET_WRITE_STRATA):
            rng = random.Random(f"{self.seed}:write:{g}:{j}")
            B = draw(rng, d, nb, cb, volume=vb)
            A = draw(rng, d, na, ca, volume=va)
            fa, fb, out = (self.work / f"{x}{g}_{j}.json" for x in ("a", "b", "out"))
            write_points(fa, A)
            write_points(fb, B)
            argv = ["sumset", "--a", str(fa), "--b", str(fb), "-k", str(k), "--out", str(out)]
            items.append(cli_item(
                self.prog, f"{g}:{j}", argv, out,
                lambda res, A=A, B=B, k=k: check_sumset_file(res, A, B, k),
            ))
        return items


WORKLOADS = {w.name: w for w in (Campaigns, DecomposeCheck, SumsetCount, SumsetWrite)}
