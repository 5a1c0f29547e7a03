"""Count the minor page faults and the wall time of a benchmark round, in-process.

Builds the ``grid`` or ``probes`` round of ``perfbench/workloads.py`` at
seed 7 (read as it is, unchanged), runs it once to warm up, then runs it
three times more, reading ``resource.getrusage`` and ``time.perf_counter``
around each op.  Run from the root of a checkout:

    python tools/fault_count.py probes [--preload-scipy]

It prints, per op kind, the minor faults per round and the median wall ms
of one op, then the per-round totals: the mean faults and the median wall
ms of a round.  ``--preload-scipy`` imports ``scipy.linalg`` before the
round is built, as a process that has run a ``mat_exp`` has; the grid round
alone never loads it.  Set ``OPENBLAS_NUM_THREADS=1`` to match the
benchmark.  Op results are checked as the benchmark checks them, outside
the counted region, and failures are reported.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys
from collections import defaultdict
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
SEED, ROUNDS = 7, 3


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run(ops, rounds: int):
    """Per op kind, the faults and wall seconds of each call; per round, its
    faults and wall seconds; and the failed checks."""
    faults, wall, totals, failed = defaultdict(list), defaultdict(list), [], []
    for _ in range(rounds):
        round_faults = round_wall = 0
        for op in ops:
            f0, t0 = _minflt(), perf_counter()
            result = op.run()
            t, f = perf_counter() - t0, _minflt() - f0
            faults[op.kind].append(f)
            wall[op.kind].append(t)
            round_faults += f
            round_wall += t
            reason = op.check(result)
            if reason is not None:
                failed.append(f"{op.kind}: {reason}")
        totals.append((round_faults, round_wall))
    return faults, wall, totals, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("grid", "probes"))
    parser.add_argument("--preload-scipy", action="store_true")
    args = parser.parse_args(argv)
    if args.preload_scipy:
        import scipy.linalg  # noqa: F401
    import workloads

    ops = workloads.build_round(args.workload, SEED, "").ops
    run(ops, 1)
    faults, wall, totals, failed = run(ops, ROUNDS)
    print(f"{'op kind':28} {'faults/round':>12} {'median ms':>10}")
    for kind in sorted(faults):
        per_round = sum(faults[kind]) / ROUNDS
        print(f"{kind:28} {per_round:12.0f} {1e3 * statistics.median(wall[kind]):10.2f}")
    mean_faults = sum(f for f, _ in totals) / ROUNDS
    median_ms = 1e3 * statistics.median(t for _, t in totals)
    print(f"round ({args.workload}, seed {SEED}, {len(ops)} ops, {ROUNDS} rounds): "
          f"{mean_faults:.0f} faults, {median_ms:.1f} ms")
    for reason in failed:
        print(f"FAILED {reason}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
