"""Benchmark of sumsethull: four workloads, timed end to end or traced by layer.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload campaigns --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout; nothing is
installed.  One process and one thread run the timed items, in a closed
loop.  A run makes its inputs from the seed, then measures:

- the program's peak memory: one fresh process (``child.py``) runs every
  call of the first round, or of the whole pool, and reports its own peak
  resident memory;
- set-up: a fresh process starts, imports the package, loads the inputs
  and runs the first item once.  This is done ``SETUP_REPEATS`` times, the
  later ones spread between rounds, and the median is reported;
- items: whole rounds of items in this process until the items' own time
  reaches ``--seconds``, each output checked outside the timed span.

A fixed pure-Python reference loop is timed before the first round,
after every round and around every set-up.  Item times are reported in
units of the mean of the two reference times around their round
(``items_per_ref``, ``item_p50_ref``), and ``setup_s`` is the median
set-up in reference-loop times scaled by ``REFERENCE_S``, because the
host's speed drifts by up to half over seconds and both drift together.
The times as measured in seconds are printed as diagnostics.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the layer functions are
wrapped (see ``tracer.py``), the per-layer metrics are printed instead,
and the spans are written to ``.bench_out/``.  Lines before the last are
diagnostics.  ``attempted`` counts the timed items, the set-ups and the
memory pass; ``failed`` counts those that raised, timed out, exited
nonzero or whose output failed its check; ``correct`` is false when any
output failed its check.  The exit code is 0 whenever the run completed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
CHILD = BENCH_DIR / "child.py"
CHILD_TIMEOUT_S = 60
SETUP_REPEATS = 7
# setup_s is given in seconds at this reference-loop time: the loop's
# median time on the 2-vCPU host the bounds in BENCHMARK.json were set on.
REFERENCE_S = 0.0125
MODULES = ("exactlp", "geometry", "hull", "sumsets", "bounds", "decomposition",
           "partition", "subsums", "explorer", "cli")

sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_program():
    """Import the package afresh from ``src/``; returns its modules by name."""
    for name in [m for m in sys.modules if m == "sumsethull" or m.startswith("sumsethull.")]:
        del sys.modules[name]
    modules = {"": importlib.import_module("sumsethull")}
    for name in MODULES:
        modules[name] = importlib.import_module(f"sumsethull.{name}")
    return modules


def as_program(modules: dict) -> SimpleNamespace:
    """The package's modules as attributes, as workloads call them (``prog.cli.main``)."""
    return SimpleNamespace(**{name: modules[name] for name in MODULES})


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop of integer, tuple and set work."""
    t0 = perf_counter()
    acc, seen = 0, set()
    for i in range(40_000):
        acc = (acc * 31 + i) % 1_000_003
        seen.add((acc % 257, i % 13))
    sorted(seen)
    return perf_counter() - t0


def verify(item, raw, verified: set) -> str | None:
    """Check one output; identical outputs of identical inputs are checked once.

    Returns None when the output is right, else what is wrong with it.
    """
    try:
        res = item.collect(raw)
        sig = (item.key, hashlib.sha256(res.blob()).digest())
        if sig in verified:
            return None
        item.check(res)
    except Exception as exc:  # a checker that cannot read the output rejects it
        return f"{type(exc).__name__}: {exc}"
    verified.add(sig)
    return None


def tail(times: list[float]) -> str:
    """The highest of a few percentiles with at least ten samples beyond it."""
    n = len(times)
    if n < 40:
        return f"n={n} (too few items for a tail)"
    qs = statistics.quantiles(times, n=1000, method="inclusive")
    best = None
    for p in (75, 90, 95, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    value = qs[int(best * 10) - 1]
    return f"p{best:g}={value * 1e3:.3f} ms n={n}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sumsethull" / "__init__.py").is_file():
        print(f"error: no sumsethull sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_child(calls: list, spec: Path, stdout) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``calls`` in a fresh process (``child.py``); its wall time from spawn to exit."""
    spec.write_text(json.dumps(calls), encoding="utf-8")
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, str(CHILD), str(spec)], cwd=ROOT, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0, proc


def set_up(item, work: Path) -> tuple[float, float, subprocess.CompletedProcess]:
    """One set-up: a fresh process starts, imports the package, loads the
    inputs the workload wrote, and runs ``item`` once.

    Returns the wall time, the same in reference-loop times (loops timed
    just before and after) and the finished process.
    """
    if item.out is not None:
        item.out.unlink(missing_ok=True)
    before = reference_loop()
    dt, proc = run_child([item.call], work / "setup.json", subprocess.PIPE)
    return dt, dt / ((before + reference_loop()) / 2), proc


def child_failed(what: str, proc: subprocess.CompletedProcess) -> None:
    print(f"{what} exited with code {proc.returncode}:\n{proc.stderr}", file=sys.stderr)


def measure(args, work: Path) -> int:
    wall0 = perf_counter()
    modules = load_program()
    wl = WORKLOADS[args.workload](as_program(modules), args.seed, work / "items")
    verified: set = set()
    attempted = failed = wrong = 0

    # The program's own peak memory: one fresh process runs every call of
    # the first round, or of the whole pool, with no benchmark code in it.
    calls = [item.call for g in range(wl.pool or 1) for item in wl.group(g)]
    attempted += 1
    try:
        _, proc = run_child(calls, work / "memory.json", subprocess.DEVNULL)
        peak = proc.stderr.splitlines()[-1] if proc.stderr else ""
        peak_kib = int(peak.removeprefix("vmhwm_kib=")) if peak.startswith("vmhwm_kib=") else None
        if proc.returncode != 0 or peak_kib is None:
            failed += 1
            peak_kib = None
            child_failed("memory pass", proc)
    except subprocess.TimeoutExpired:
        failed += 1
        peak_kib = None
        print("memory pass timed out", file=sys.stderr)

    first = wl.group(0)[0]
    setup: list[float] = []      # seconds per set-up
    setup_ref: list[float] = []  # the same, in reference-loop times

    def one_set_up() -> None:
        nonlocal attempted, failed, wrong
        attempted += 1
        try:
            dt, dt_ref, proc = set_up(first, work)
        except subprocess.TimeoutExpired:
            failed += 1
            print("set-up timed out", file=sys.stderr)
            return
        setup.append(dt)
        setup_ref.append(dt_ref)
        problem = verify(first, (proc.returncode, proc.stdout), verified)
        if problem is not None:
            failed += 1
            wrong += 1
            child_failed(f"set-up of item {first.key} failed its check: {problem}; the process", proc)

    one_set_up()

    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr, modules)

    times: list[float] = []   # seconds per item
    scaled: list[float] = []  # the same, in reference-loop times
    refs = [reference_loop()]
    rounds = 0
    timed = 0.0
    while timed < args.seconds:
        round_times = []
        for item in wl.group(rounds):
            attempted += 1
            if item.out is not None:
                item.out.unlink(missing_ok=True)
            if tr is not None:
                tr.item = attempted
            t0 = perf_counter()
            try:
                raw = item.run()
            except Exception:  # an operation that raised counts as failed
                timed += perf_counter() - t0
                failed += 1
                print(f"item {item.key} raised:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            finally:
                if tr is not None:
                    tr.item = None
            dt = perf_counter() - t0
            timed += dt
            round_times.append(dt)
            problem = verify(item, raw, verified)
            if problem is not None:
                failed += 1
                wrong += 1
                print(f"item {item.key} failed its check: {problem}", file=sys.stderr)
        refs.append(reference_loop())
        # The host's speed drifts by up to half over seconds; the reference
        # loops timed just before and after a round measure it there.
        local = (refs[-2] + refs[-1]) / 2
        times.extend(round_times)
        scaled.extend(t / local for t in round_times)
        rounds += 1
        # Further set-ups are spread over the run, so their median sees the
        # same machine as the items do.
        while len(setup) < SETUP_REPEATS and timed >= args.seconds * len(setup) / SETUP_REPEATS:
            one_set_up()

    done = len(times)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"items={done} timed_s={timed:.3f} wall_s={perf_counter() - wall0:.3f}")
    if done:
        print(f"as timed: items_per_s={done / timed:.4f} "
              f"item_ms_p50={statistics.median(times) * 1e3:.4f} tail {tail(times)}")
        print(f"in reference loops: items_per_ref={done / sum(scaled):.4f} "
              f"item_p50_ref={statistics.median(scaled):.4f}")
    print(f"reference_loop_per_s={1 / statistics.median(refs):.3f} "
          f"(min {1 / max(refs):.3f}, max {1 / min(refs):.3f}, {len(refs)} loops)")
    print(f"set-ups as timed: median {statistics.median(setup) if setup else float('nan'):.4f} s, "
          f"runs {[round(s, 4) for s in setup]}")
    print(f"benchmark process ru_maxrss_mib="
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.2f}")
    metrics = {}
    if tr is not None:
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tr.write(trace_path)
        print(f"spans_kept={len(tr.spans)} written to {trace_path.relative_to(ROOT)}")
        metrics = tr.metrics(max(done, 1))
    else:
        # A metric that could not be measured is left out; the counts
        # above say which operations failed.
        if done:
            metrics["items_per_ref"] = {"value": done / sum(scaled), "unit": "1/ref"}
            metrics["item_p50_ref"] = {"value": statistics.median(scaled), "unit": "ref"}
        if setup:
            metrics["setup_s"] = {"value": statistics.median(setup_ref) * REFERENCE_S, "unit": "s"}
        if peak_kib is not None:
            metrics["peak_rss_mib"] = {"value": peak_kib / 1024, "unit": "MiB"}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
