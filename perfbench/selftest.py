"""Self-test of the benchmark at a tiny run length (a few minutes in all).

    python3 perfbench/selftest.py

Checks that every metric in BENCHMARK.json is emitted with its unit, in both
modes and on every workload; that one seed generates identical inputs and
another seed different ones; that the per-layer ``.calls`` counts repeat
exactly for one seed; and that a wrong expectation shows up as a failed op.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import balance_lab as bl  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SECONDS = "0.1"  # every run still completes one whole round
FAILED = []


def check(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILED.append(name)


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec):
    """Every named metric, with its unit, and nothing else; counts repeat."""
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in workloads.WORKLOADS:
            res = bench(w, 1, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(f"{w} trace={trace} emits every {key} metric with its unit", got == want,
                  f"missing {sorted(set(want) - set(got))[:5]}, extra "
                  f"{sorted(set(got) - set(want))[:5]}, units "
                  f"{[k for k in want if k in got and got[k] != want[k]][:5]}")
            check(f"{w} trace={trace} is correct", res["correct"] and res["attempted"] >= 1)
            if trace:
                again = bench(w, 1, trace)
                calls = {k: v["value"] for k, v in res["metrics"].items() if k.endswith(".calls")}
                calls2 = {k: v["value"] for k, v in again["metrics"].items()
                          if k.endswith(".calls")}
                check(f"{w} .calls repeat for one seed", calls == calls2,
                      str({k: (calls[k], calls2.get(k)) for k in calls
                           if calls[k] != calls2.get(k)}))


def check_seeding():
    tmp = os.path.join(ROOT, ".perfbench_out", "selftest")
    try:
        for w in workloads.WORKLOADS:
            d = [workloads.build_round(w, s, os.path.join(tmp, f"{w}{i}")).digest
                 for i, s in enumerate((5, 5, 6))]
            check(f"{w} inputs repeat for one seed and differ for another",
                  d[0] == d[1] and d[0] != d[2])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_injected_failure():
    spec = bl.lindblad.standard_grid()[0]
    predicted = bl.lindblad.scenario_predict(spec)
    ops = [workloads._grid_op(spec, 1.0, predicted)]
    base = worker.summary(worker.run_rounds(ops, 0.0)[0])
    ops.append(workloads._grid_op(spec, 1.0, not predicted))
    bad = worker.summary(worker.run_rounds(ops, 0.0)[0])
    check("a wrong expectation is counted as a failed op",
          base["failed"] == 0 and base["correct"] and bad["failed"] == 1 and not bad["correct"],
          f"{base} / {bad}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_injected_failure()
    check_seeding()
    check_metrics(spec)
    print(f"{len(FAILED)} failed" if FAILED else "all passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
