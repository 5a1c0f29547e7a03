"""Time the library's heavy ops at desk scale, per cycle layout, and print the table.

    python tools/scale_table.py [--layouts 4x4 4x6 ...] [--calls 3]

A layout "4x6" is four cycles of length 6 (n = 24), "1x16" one 16-cycle.  The
default layouts are 4x4, 4x6, 4x8, 1x16, 1x24 and 4x12 (n = 48).  Each
layout runs in one fresh child process, one after the other, with
``OPENBLAS_NUM_THREADS=1``: it builds perfbench's ``_balanced_spec`` at seed
3 with every block entangled (``perfbench/workloads.py``, read as it is,
unchanged), makes one warm call of each op, then times ``--calls`` calls of
each in-process with ``time.perf_counter``, and reports its peak RSS
(``ru_maxrss``) at the end.  ``is_balanced`` runs on a fresh ``Coupling``
at every call, so it pays for the scan of the coupling's factor; every
other op reuses the triple, whose held patterns the warm call made.

The table has one row per op and one column per layout, each cell the best
and the worst call in ms, a row with the peak RSS of the layout's process
in MB, and a last row with the peak RSS of one more fresh process per
layout that builds the triple and makes one ``convergence_probe`` call
over ``MANY_TIMES`` (200 times), where the exponentials of many times
meet.  Run from the root of a checkout; it times the package in that
checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYOUTS = ("4x4", "4x6", "4x8", "1x16", "1x24", "4x12")
SEED = 3
OPS = (
    "scenario_build", "is_balanced", "dual_order_check", "is_orthogonal (w, w)",
    "compose (w, w)", "disjointness_probe", "validate_coupling", "check_theta_sqdb",
    "extract_channel", "semigroup (t = 1)", "sampled_balance (3 times)",
    "convergence_probe (t = 1, 1000)",
)
MANY_TIMES = tuple(0.05 * i for i in range(1, 201))


def cycles_of(layout: str) -> tuple:
    count, length = map(int, layout.split("x"))
    return (length,) * count


def layout_triple(layout: str):
    """perfbench's balanced triple of one layout, and the package."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import numpy as np
    import workloads

    import balance_lab as bl

    cycles = cycles_of(layout)
    spec = workloads._balanced_spec(np.random.default_rng(SEED), cycles, ("entangled",) * len(cycles))
    return bl, spec, bl.scenario_build(spec)


def layout_ops(layout: str) -> dict:
    """The ops of one layout, each a function of no arguments."""
    bl, spec, triple = layout_triple(layout)
    a, b, w = triple.system_a, triple.system_b, triple.coupling
    th = bl.ReversingOperation(dim=spec.dim)

    def fresh():
        return bl.Coupling(kappa=w.kappa, state_a=w.state_a, state_b=w.state_b)

    return dict(zip(OPS, (
        lambda: bl.scenario_build(spec),
        lambda: bl.is_balanced(a, b, fresh()),
        lambda: bl.dual_order_check(a, b, w),
        lambda: bl.is_orthogonal(w, w),
        lambda: bl.compose(w, w),
        lambda: bl.disjointness_probe(b),
        lambda: bl.validate_coupling(w),
        lambda: bl.check_theta_sqdb(b, th),
        lambda: bl.extract_channel(w),
        lambda: bl.semigroup(a.dynamics, 1.0),
        lambda: bl.sampled_balance(a, b, w, (0.1, 1.0, 5.0)),
        lambda: bl.convergence_probe(a, b, w, (1.0, 1000.0)),
    )))


def time_layout(layout: str, calls: int) -> dict:
    """Per op, the ms of ``calls`` timed calls after one warm call, and the
    peak RSS of this process in MB."""
    times = {}
    for name, op in layout_ops(layout).items():
        op()
        ms = []
        for _ in range(calls):
            start = time.perf_counter()
            op()
            ms.append(1000.0 * (time.perf_counter() - start))
        times[name] = ms
    # ru_maxrss is in KiB on Linux
    return {"ms": times, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def many_times_peak(layout: str) -> dict:
    """The peak RSS in MB of this process after one ``convergence_probe``
    call over ``MANY_TIMES`` on the layout's triple."""
    bl, _, triple = layout_triple(layout)
    bl.convergence_probe(triple.system_a, triple.system_b, triple.coupling, MANY_TIMES)
    return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_child(layout: str, calls: int, *flags: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, os.path.abspath(__file__), "--child", layout, "--calls", str(calls), *flags]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_layout(layout: str, calls: int) -> dict:
    """The layout's timings and peak RSS, and the peak RSS of its
    many-times probe, each from a fresh child process."""
    res = run_child(layout, calls)
    res["many_times_rss_mb"] = run_child(layout, calls, "--many-times")["peak_rss_mb"]
    return res


def _ms(x: float) -> str:
    return f"{x:.0f}" if x >= 10 else f"{x:.2g}"


def table(results: dict) -> str:
    """The per-op table of the layouts' results, in markdown."""
    heads = [f"n = {sum(cycles_of(lay))} ({lay.replace('x', '×')})" for lay in results]
    lines = ["| op | " + " | ".join(heads) + " |", "|---" * (len(heads) + 1) + "|"]
    for name in OPS:
        cells = []
        for res in results.values():
            lo, hi = _ms(min(res["ms"][name])), _ms(max(res["ms"][name]))
            cells.append(lo if lo == hi else f"{lo}–{hi}")
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    lines.append("| peak RSS, MB | " + " | ".join(f"{r['peak_rss_mb']:.0f}" for r in results.values()) + " |")
    lines.append(f"| peak RSS of `convergence_probe` ({len(MANY_TIMES)} times), MB | "
                 + " | ".join(f"{r['many_times_rss_mb']:.0f}" for r in results.values()) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layouts", nargs="+", default=list(LAYOUTS))
    parser.add_argument("--calls", type=int, default=3)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--many-times", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(many_times_peak(args.child) if args.many_times else time_layout(args.child, args.calls)))
        return 0
    print(table({lay: run_layout(lay, args.calls) for lay in args.layouts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
