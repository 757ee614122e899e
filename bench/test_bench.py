"""Tests of the benchmark itself: negative controls and tracer self-checks.

Run from the root of the checkout:

    python3 -m pytest bench/test_bench.py -q

Each checker must pass the program's real output and reject a corrupted
copy of it.  The tracer must record every layer function a workload is
known to reach and must not change what the program writes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on the path)
import tracer as tracing  # noqa: E402
from oracle import CheckError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def fresh(name: str, tmp_path: Path, seed: int = 3):
    modules = run.load_program()
    return modules, WORKLOADS[name](run.as_program(modules), seed, tmp_path)


def outputs(wl, r: int = 0, tr=None):
    """(item, result) for every item of round r, each passing its check.

    With a tracer, each call is traced as one item.
    """
    pairs = []
    for i, item in enumerate(wl.group(r)):
        if tr is not None:
            tr.item = i
        raw = item.run()
        if tr is not None:
            tr.item = None
        res = item.collect(raw)
        item.check(res)
        pairs.append((item, res))
    return pairs


def rejects(item, res) -> None:
    with pytest.raises(CheckError):
        item.check(res)


def edit_json(res, field: str, fn):
    """A copy of res whose JSON (in data or stdout) has ``fn`` applied."""
    text = getattr(res, field)
    obj = json.loads(text)
    fn(obj)
    new = json.dumps(obj)
    return replace(res, **{field: new.encode() if field == "data" else new})


# ---------------------------------------------------------- negative controls

def test_sumset_write_checker_rejects_corruption(tmp_path):
    _, wl = fresh("sumset_write", tmp_path)
    item, res = outputs(wl)[0]
    rejects(item, edit_json(res, "data", lambda o: o["points"].pop(len(o["points"]) // 2)))
    rejects(item, edit_json(res, "data", lambda o: o["points"].reverse()))
    rejects(item, replace(res, stdout=f"{int(res.stdout) + 1}\n"))
    rejects(item, replace(res, rc=1))


def test_decompose_checker_rejects_corruption(tmp_path):
    _, wl = fresh("decompose_check", tmp_path)
    for item, res in outputs(wl):
        rejects(item, edit_json(res, "data", lambda o: o["simplices"].pop()))
        rejects(item, replace(res, stdout=res.stdout.replace("cover=pass", "cover=fail")))
        rejects(item, replace(res, stdout=res.stdout.replace("simplices=", "simplices=1")))


def test_decompose_checker_rejects_overlap(tmp_path):
    """Swapping a vertex of one triangle for a ground point breaks the tiling."""
    _, wl = fresh("decompose_check", tmp_path)
    item, res = next((i, r) for i, r in outputs(wl) if len(json.loads(r.data)["ground"][0]) == 2)

    def swap(o):
        first = o["simplices"][0]
        spare = next(i for i in range(len(o["ground"])) if i not in first)
        o["simplices"][0] = sorted(first[:2] + [spare])

    rejects(item, edit_json(res, "data", swap))


def test_campaign_checker_rejects_corruption(tmp_path):
    _, wl = fresh("campaigns", tmp_path)
    for item, res in outputs(wl):
        def bump(o):
            o["records"][0]["actual"] += 1

        def violate(o):
            o["summary"]["violations"] = 1

        def stale(o):  # the report an earlier round left behind
            o["config"]["seed"] = o["config"]["seed"].replace("-0", "-1")

        rejects(item, edit_json(res, "data", bump))
        rejects(item, edit_json(res, "data", violate))
        rejects(item, edit_json(res, "data", stale))
        rejects(item, replace(res, rc=1))


def test_sumset_count_checkers_reject_corruption(tmp_path):
    _, wl = fresh("sumset_count", tmp_path)
    for item, res in outputs(wl):
        if res.data:  # a partition item
            def grow(o):
                o["report"]["cell_sum_sizes"][0] += 1

            def move(o):
                cells = [c for c in o["cells"] if c]
                if len(cells) > 1:
                    cells[1].append(cells[0].pop())
                else:
                    cells[0].pop()

            rejects(item, edit_json(res, "data", grow))
            rejects(item, edit_json(res, "data", move))
        else:
            def wrong(o):
                o["actual"] -= 1

            def loose(o):
                o["bound"] -= 1

            rejects(item, edit_json(res, "stdout", wrong))
            rejects(item, edit_json(res, "stdout", loose))


# ------------------------------------------------------- fresh-process calls

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_set_up_process_output_passes_the_check(name, tmp_path):
    _, wl = fresh(name, tmp_path)
    item = wl.group(0)[0]
    _, _, proc = run.set_up(item, tmp_path)
    assert proc.stderr.splitlines()[-1].startswith("vmhwm_kib=")
    item.check(item.collect((proc.returncode, proc.stdout)))


def test_child_runs_partition_calls(tmp_path):
    _, wl = fresh("sumset_count", tmp_path)
    calls = [item.call for item in wl.group(0) if item.call[0] == "partition"]
    assert calls
    _, proc = run.run_child(calls, tmp_path / "spec.json", None)
    assert proc.returncode == 0
    assert int(proc.stderr.splitlines()[-1].removeprefix("vmhwm_kib=")) > 0


# ------------------------------------------------------------ tracer checks

# Metrics that must be nonzero on each workload: the layers whose work the
# workload exists to measure.
NONZERO = {
    "campaigns": (
        "exactlp.feasible_nonneg.calls", "geometry.conv_contains.calls",
        "geometry.vertex_set.calls", "geometry.affine_rank.calls",
        "hull.lattice_points.calls", "hull.lattice_points.cells_scanned",
        "hull.lattice_points.points_kept", "hull.hull_facets.calls",
        "sumsets.sumset.calls", "sumsets.k_fold.calls", "sumsets.a_plus_kb.calls",
        "bounds.verify_theorem.calls", "subsums.subsum_report.calls",
        "explorer.generate_instance.calls", "explorer.run_campaign.self_ms",
        "cli.main.self_ms",
    ),
    "decompose_check": (
        "geometry.barycentric.calls", "geometry.affine_rank.calls",
        "geometry.intrinsic_integer_coords.calls", "hull.hull_facets.calls",
        "hull.hull_volume.calls", "hull.int_det.calls",
        "decomposition.decompose.calls", "decomposition.verify_cover.self_ms",
        "decomposition.verify_regular_position.self_ms",
        "decomposition.verify_adjacency_chain.self_ms", "decomposition.simplex_pairs",
        "cli.main.self_ms",
    ),
    "sumset_count": (
        "exactlp.feasible_nonneg.calls", "geometry.barycentric.calls",
        "sumsets.sumset.calls", "sumsets.k_fold.calls", "sumsets.k_fold.multisets",
        "sumsets.k_fold.distinct_sums", "sumsets.a_plus_kb.calls",
        "bounds.verify_theorem.calls", "partition.induce_partition.calls",
        "partition.check_disjoint_sums.calls", "cli.main.self_ms",
    ),
    "sumset_write": (
        "sumsets.sumset.calls", "sumsets.k_fold.calls", "sumsets.k_fold.multisets",
        "sumsets.k_fold.distinct_sums", "sumsets.a_plus_kb.calls", "cli.main.self_ms",
    ),
}


@pytest.mark.parametrize("name", sorted(NONZERO))
def test_tracer_reaches_every_layer_the_workload_uses(name, tmp_path):
    modules, wl = fresh(name, tmp_path)
    tr = tracing.Tracer()
    tracing.install(tr, modules)
    pairs = outputs(wl, tr=tr)
    metrics = tr.metrics(len(pairs))
    assert set(metrics) == {m["name"] for m in tracing.per_layer_metrics()}
    missing = [m for m in NONZERO[name] if not metrics[m]["value"] > 0]
    assert not missing
    # every self time is a part of its span, so none can be negative
    assert all(v["value"] >= 0 for v in metrics.values())


def test_tracer_binds_from_imports():
    modules = run.load_program()
    tracing.install(tracing.Tracer(), modules)
    for mod, attr in (("decomposition", "int_det"), ("bounds", "conv_contains"),
                      ("cli", "a_plus_kb"), ("explorer", "lattice_points"), ("", "decompose")):
        assert hasattr(getattr(modules[mod], attr), "__wrapped__"), (mod, attr)


def test_traced_campaign_report_is_byte_identical(tmp_path):
    untraced = [res for _, res in outputs(fresh("campaigns", tmp_path / "a")[1])]
    modules, wl = fresh("campaigns", tmp_path / "b")
    tr = tracing.Tracer()
    tracing.install(tr, modules)
    traced = [res for _, res in outputs(wl, tr=tr)]
    assert tr.calls["cli.main"] == len(traced)
    assert [r.data for r in traced] == [r.data for r in untraced]
    assert [r.stdout for r in traced] == [r.stdout for r in untraced]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == tracing.per_layer_metrics()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "items_per_ref", "item_p50_ref", "setup_s", "peak_rss_mib"}
