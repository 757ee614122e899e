"""Span tracing of the program's public layer functions, from outside.

``install`` wraps each function named in ``LAYERS`` and rebinds every
module attribute of the package that refers to it, so names a
from-import bound elsewhere (``decomposition.int_det``,
``bounds.conv_contains``, ...) are traced too.  Each call made while an
item runs records a span (id, item, parent, name, start, end); calls
between items, which make inputs, are not recorded.  Self time is a span's duration
minus the time its child spans cover.  Totals are kept for every call;
span records are kept in memory up to ``MAX_SPANS`` and written out when
the run ends.  Work counters are computed here from each call's
arguments and result, never by the program.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from math import comb, prod

# Span records kept in memory; totals still cover every call beyond them.
MAX_SPANS = 200_000

# layer -> (public functions, per-function metric suffixes)
LAYERS = {
    "exactlp": (("feasible_nonneg", ("calls", "self_ms")),),
    "geometry": tuple(
        (fn, ("calls", "self_ms"))
        for fn in ("conv_contains", "vertex_set", "barycentric", "affine_rank", "intrinsic_integer_coords")
    ),
    "hull": (
        ("lattice_points", ("calls", "self_ms", "cells_scanned", "points_kept")),
        ("hull_facets", ("calls", "self_ms")),
        ("hull_volume", ("calls", "self_ms")),
        ("int_det", ("calls", "self_ms")),
    ),
    "sumsets": (
        ("sumset", ("calls", "self_ms")),
        ("k_fold", ("calls", "self_ms", "multisets", "distinct_sums")),
        ("a_plus_kb", ("calls", "self_ms")),
    ),
    "bounds": (("verify_theorem", ("calls", "self_ms")),),
    "decomposition": (
        ("decompose", ("calls", "self_ms")),
        ("verify_cover", ("self_ms",)),
        ("verify_regular_position", ("self_ms",)),
        ("verify_adjacency_chain", ("self_ms",)),
    ),
    "partition": (
        ("induce_partition", ("calls", "self_ms")),
        ("check_disjoint_sums", ("calls", "self_ms")),
    ),
    "subsums": (("subsum_report", ("calls", "self_ms")),),
    "explorer": (
        ("generate_instance", ("calls", "self_ms")),
        ("run_campaign", ("self_ms",)),
    ),
    "cli": (("main", ("self_ms",)),),
}

_BETTER_HIGHER = {"points_kept", "distinct_sums"}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _lattice_counts(args, kwargs, result):
    P = _arg(args, kwargs, 0, "P")
    box = prod(max(p[c] for p in P.points) - min(p[c] for p in P.points) + 1 for c in range(P.dim))
    return {"hull.lattice_points.cells_scanned": box, "hull.lattice_points.points_kept": len(result)}


def _k_fold_counts(args, kwargs, result):
    B, k = _arg(args, kwargs, 0, "B"), _arg(args, kwargs, 1, "k")
    return {"sumsets.k_fold.multisets": comb(len(B) + k - 1, k), "sumsets.k_fold.distinct_sums": len(result.points)}


def _decompose_counts(args, kwargs, result):
    return {"decomposition.simplex_pairs": comb(len(result.simplices), 2)}


COUNTERS = {
    "hull.lattice_points": _lattice_counts,
    "sumsets.k_fold": _k_fold_counts,
    "decomposition.decompose": _decompose_counts,
}


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric as BENCHMARK.json lists it."""
    out = []
    for layer, fns in LAYERS.items():
        for fn, suffixes in fns:
            for suffix in suffixes:
                unit = "ms" if suffix == "self_ms" else "count"
                better = "higher" if suffix in _BETTER_HIGHER else "lower"
                out.append({"name": f"{layer}.{fn}.{suffix}", "unit": unit, "better": better})
    out.append({"name": "decomposition.simplex_pairs", "unit": "count", "better": "lower"})
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, ns covered by children]
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.item: int | None = None  # the item running, None between items
        self._next = 0

    def wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        counter = COUNTERS.get(name)
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.item is None:  # between items: making inputs, not measured
                return fn(*args, **kwargs)
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.self_ns[name] += dur - frame[1]
                self.calls[name] += 1
                if parent is not None:
                    parent[1] += dur
                if len(spans) < MAX_SPANS:
                    spans.append((sid, self.item, parent[0] if parent else None, name, start, end))
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def metrics(self, items: int) -> dict:
        """Per-layer totals divided by the number of items run."""
        out = {}
        for m in per_layer_metrics():
            name = m["name"]
            base, _, suffix = name.rpartition(".")
            if suffix == "calls":
                value = self.calls[base]
            elif suffix == "self_ms":
                value = self.self_ns[base] / 1e6
            else:
                value = self.counts[name]
            out[name] = {"value": value / items, "unit": m["unit"]}
        return out

    def write(self, path) -> None:
        keys = ("id", "item", "parent", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": keys, "dropped": self._next - len(self.spans), "spans": self.spans}, fh)
            fh.write("\n")


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every function in LAYERS and rebind it wherever the package holds it.

    ``modules`` maps each module name (and "" for the package) to the
    module object.
    """
    wrapped = {}
    for layer, fns in LAYERS.items():
        for fn, _ in fns:
            original = getattr(modules[layer], fn)
            wrapped[id(original)] = (original, tracer.wrap(f"{layer}.{fn}", original))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
