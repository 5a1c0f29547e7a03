"""Time two source trees in one process, alternating whole rounds of one workload.

    python tools/ab_rounds.py A_SRC B_SRC [--workload probes] [--rounds 40] [--seed 5861]

A_SRC and B_SRC are two source trees, each a directory holding a
``balance_lab`` package, such as this checkout's ``src/`` and the ``src/`` of
a parent commit unpacked by ``git archive``.  Each tree's package is imported
into this one process on its own, and each side builds its round from this
checkout's ``perfbench/workloads.py``, read as it is, unchanged (as
``tools/report_digest.py`` does), loaded once per side with its
``balance_lab`` bound to that side's package.  ``--workload`` is ``grid`` or
``probes``, the two workloads that run in-process; ``cli`` starts a process
per command and is left to ``tools/paired_bench.py``.

After one untimed warm round per side, round i runs the whole round of each
side, A first in even rounds and B first in odd ones, timing each op with
``time.perf_counter``; a failed check is counted.  The output gives, per op
kind and per side, the median over rounds of the kind's ms in a round; the
median ms of a whole round per side; and the share of rounds each side won
(took less time in).  BLAS runs on one thread: the tool sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1
before numpy is imported.

Two trees timed in separate processes drift apart with the machine: on a
shared 2-core VM, unchanged code read 67-111 ms a ``probes`` round from run
to run.  Alternating rounds in one process puts that drift on both sides.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
import time

# before numpy loads its BLAS, which reads them once
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = os.path.join(ROOT, "perfbench", "workloads.py")
IN_PROCESS = ("grid", "probes")


def _package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "balance_lab" or name.startswith("balance_lab.")}


def load_workloads(src: str, tag: str):
    """This checkout's ``perfbench/workloads.py`` as a module of its own,
    named ``workloads_<tag>``, whose ``balance_lab`` (``.bl``) is the package
    of the tree ``src``.  The package's modules are taken out of
    ``sys.modules`` again, so that the next tree imports its own."""
    outer = _package_modules()
    for name in outer:
        del sys.modules[name]
    sys.path.insert(0, os.path.abspath(src))
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{tag}", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        # a dataclass reads its module off sys.modules as it is made
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(os.path.abspath(src))
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(outer)
    return module


def time_round(ops) -> tuple[dict, int]:
    """The ms of each op kind over one pass of ``ops``, and the number of
    failed checks."""
    ms, failed = {}, 0
    for op in ops:
        start = time.perf_counter()
        result = op.run()
        ms[op.kind] = ms.get(op.kind, 0.0) + 1000.0 * (time.perf_counter() - start)
        failed += op.check(result) is not None
    return ms, failed


def ab_rounds(srcs: tuple[str, str], workload: str, rounds: int, seed: int) -> dict:
    """Alternate ``rounds`` whole rounds of the two trees (A first in even
    rounds) after one warm round each; per side the ms per op kind and per
    round, and the failed checks."""
    sides = [load_workloads(src, tag).build_round(workload, seed, "").ops
             for src, tag in zip(srcs, "ab")]
    for ops in sides:
        time_round(ops)
    runs = [{"kinds": [], "rounds": [], "failed": 0} for _ in sides]
    for i in range(rounds):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            ms, failed = time_round(sides[side])
            runs[side]["kinds"].append(ms)
            runs[side]["rounds"].append(sum(ms.values()))
            runs[side]["failed"] += failed
    return {"workload": workload, "seed": seed, "rounds": rounds, "src": list(srcs), "runs": runs}


def summary(result: dict) -> dict:
    """Per side, the median ms per op kind and per round, and the share of
    rounds it won (ties count for neither)."""
    a, b = (r["rounds"] for r in result["runs"])
    won = (sum(x < y for x, y in zip(a, b)) / len(a), sum(y < x for x, y in zip(a, b)) / len(a))
    out = {}
    for name, run, share in zip("AB", result["runs"], won):
        kinds = run["kinds"][0]
        out[name] = {
            "kinds": {k: statistics.median(r[k] for r in run["kinds"]) for k in kinds},
            "round": statistics.median(run["rounds"]),
            "won": share,
            "failed": run["failed"],
        }
    return out


def table(result: dict) -> str:
    """The summary as a markdown table, one row per op kind and one for the
    whole round."""
    s = summary(result)
    lines = ["| median ms | A | B | B / A |", "|---|---|---|---|"]
    for kind in s["A"]["kinds"]:
        x, y = s["A"]["kinds"][kind], s["B"]["kinds"][kind]
        lines.append(f"| `{kind}` | {x:.3f} | {y:.3f} | {y / x:.3f} |")
    x, y = s["A"]["round"], s["B"]["round"]
    lines.append(f"| round | {x:.2f} | {y:.2f} | {y / x:.3f} |")
    lines.append(f"| rounds won | {s['A']['won']:.0%} | {s['B']['won']:.0%} | |")
    lines.append(f"| failed checks | {s['A']['failed']} | {s['B']['failed']} | |")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a_src", help="the first source tree (a directory holding balance_lab)")
    p.add_argument("b_src", help="the second source tree")
    p.add_argument("--workload", choices=IN_PROCESS, default="probes")
    p.add_argument("--rounds", type=int, default=40)
    p.add_argument("--seed", type=int, default=5861)
    p.add_argument("--json", action="store_true", help="print the summary as JSON")
    args = p.parse_args(argv)
    result = ab_rounds((args.a_src, args.b_src), args.workload, args.rounds, args.seed)
    print(json.dumps(summary(result), indent=1) if args.json else table(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
