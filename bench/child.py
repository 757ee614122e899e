"""Run sumsethull calls in a fresh process, as a user's own process would.

    python3 bench/child.py SPEC

SPEC is a JSON file holding a list of calls, each either ``["cli", arg,
...]``, ``sumsethull.cli.main`` with those arguments, or ``["partition",
a.json, b.json, k]``, ``induce_partition`` of A over ``decompose(B)`` and
then ``check_disjoint_sums`` at k.  What the calls print goes to standard
output.  The exit code is the first nonzero code a call returned, 1 for a
partition whose report fails, else 0.  The last line of standard error is
``vmhwm_kib=N``, the peak resident memory of this process.

Only the package is imported from ``src/``, nothing of the benchmark, so
the process holds what the program needs and no more.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def peak_kib() -> int:
    """Peak resident memory of this process since it started, in KiB.

    ``VmHWM`` counts this program's pages only; ``ru_maxrss`` also counts
    the parent's pages the process held between fork and exec, so it is
    the fallback where ``/proc`` is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_call(call: list) -> int:
    from sumsethull import cli
    if call[0] == "cli":
        return cli.main(call[1:])
    from sumsethull.decomposition import decompose
    from sumsethull.partition import check_disjoint_sums, induce_partition
    _, fa, fb, k = call
    cells = induce_partition(cli.load_point_set(fa), decompose(cli.load_point_set(fb)))
    return 0 if check_disjoint_sums(cells, k).passed else 1


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        calls = json.load(fh)
    rc = 0
    for call in calls:
        rc = rc or run_call(call)
    sys.stdout.flush()
    print(f"vmhwm_kib={peak_kib()}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
