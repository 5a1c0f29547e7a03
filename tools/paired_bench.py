"""Run the benchmark on two checkouts in alternating pairs and tabulate it.

    python tools/paired_bench.py PARENT CHANGE --workload W --pairs N --seed S \
        [--out BENCH.json]

PARENT and CHANGE are the roots of two source checkouts (clean copies of the
two commits, not worktrees of this one).  Pair i runs

    python3 perfbench/run.py --workload W --seed S+i --seconds 20 --trace 0

once in each checkout, one after the other, the parent first in even pairs
and the change first in odd ones, so that a drift of the machine over the
session falls on both sides alike.  Each run's last stdout line (the
scaled end-to-end metrics) and its ``.perfbench_out/result-W-<seed>-trace0.json``
(``info.machine_speed``, the calibration factor the metrics were scaled by,
and ``info.raw_verdict_p50_ms``, the unscaled p50) are kept per run.

The output has the layout of ``BENCH_22.json``: per workload the seeds, the
side that ran first in each pair, per side the median and quartiles
(``statistics.quantiles``, n = 4, exclusive) of each end-to-end metric that
``BENCHMARK.json`` names, over all runs, with the runs themselves, and per
metric the pairs the change won (ties count for neither).  Each metric also
gets the verdict that :func:`verdict` reads off the runs against its bound
in ``BENCHMARK.json``, and every run that was not correct or failed an op
is flagged; both are printed to stderr as well.  With ``--out``,
an existing file keeps its other workloads, so one file collects several
invocations; without it the JSON goes to stdout.  Run one invocation at a
time, with nothing else loading the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_SECONDS = 20
PROVENANCE_KEYS = ("nproc", "cpu", "python", "numpy", "scipy", "blas", "blas_threads")


def run_once(root: str, workload: str, seed: int) -> dict:
    """One benchmark run in a checkout: its scaled metrics, its counts and
    the calibration it was scaled by."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(root, ".perfbench_out", f"result-{workload}-{seed}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    return {
        "seed": seed,
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: m["value"] for k, m in summary["metrics"].items()},
        "machine_speed": result["info"]["machine_speed"],
        "raw_verdict_p50_ms": result["info"]["raw_verdict_p50_ms"],
        "provenance": {k: result["provenance"].get(k) for k in PROVENANCE_KEYS},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else tuple(values * 3)


def spread(values: list[float]) -> dict:
    q1, _, q3 = quartiles(values)
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "values": [round(v, 4) for v in values]}


def side(runs: list[dict], metrics: list[str]) -> dict:
    out = {
        "runs": len(runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
    }
    for name in metrics:
        out[name] = spread([r["metrics"][name] for r in runs])
    out["per_run"] = [
        {"seed": r["seed"], "correct": r["correct"], "machine_speed": r["machine_speed"],
         "raw_verdict_p50_ms": r["raw_verdict_p50_ms"], "metrics": r["metrics"]}
        for r in runs
    ]
    return out


def verdict(parent: list[float], change: list[float], wins: int, higher: bool, bound: float) -> str:
    """The reading of one metric over the pairs, as the benchmark's gate reads it.

    ``gain``: the change won at least 9 of 10 pairs and its median beats the
    parent's by more than the parent's q3 - q1.  ``unresolved``: the parent's
    q3 - q1 is wider than ``bound`` (relative to its median) and the two
    sides' runs interleave, so no bound can be read off them.  ``no_worse``:
    the change's median is within ``bound`` of the parent's, relative to it.
    ``worse``: none of these."""
    q1, median, q3 = quartiles(parent)
    better_by = statistics.median(change) - median
    if not higher:
        better_by = -better_by
    if 10 * wins >= 9 * len(parent) and better_by > q3 - q1:
        return "gain"
    separate = max(change) < min(parent) or min(change) > max(parent)
    if q3 - q1 > bound * abs(median) and not separate:
        return "unresolved"
    if -better_by <= bound * abs(median):
        return "no_worse"
    return "worse"


def tabulate(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    """Both sides' spreads, the pairs the change won and the verdict of each
    end-to-end metric (``BENCHMARK.json`` entries: name, better, bound), and
    a flag for every run that was not correct or failed an op.  ``parent``
    and ``change`` are run dicts of :func:`run_once`, pair i at index i."""
    metrics = [m["name"] for m in end_to_end]
    wins, verdicts = {}, {}
    for m in end_to_end:
        name, higher = m["name"], m["better"] == "higher"
        xs = [r["metrics"][name] for r in parent]
        ys = [r["metrics"][name] for r in change]
        wins[name] = sum((y > x) if higher else (y < x) for x, y in zip(xs, ys))
        verdicts[name] = verdict(xs, ys, wins[name], higher, m["bound"])
    flags = [
        f"{label} seed {r['seed']}: correct {r['correct']}, failed {r['failed']}"
        for label, runs in (("parent", parent), ("change", change))
        for r in runs
        if not r["correct"] or r["failed"] > 0
    ]
    return {
        "parent": side(parent, metrics),
        "change": side(change, metrics),
        "pair_wins": wins,
        "verdicts": verdicts,
        "flags": flags,
    }


def git_head(root: str) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True, choices=("grid", "probes", "cli"))
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]

    roots = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    seeds, first = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            run = run_once(roots[name], args.workload, seed)
            runs[name].append(run)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {name}: "
                  f"verdicts_per_s {run['metrics']['verdicts_per_s']:.4g}, "
                  f"machine_speed {run['machine_speed']:.3f}", file=sys.stderr)
        seeds.append(seed)
        first.append(order[0])

    table = {"seeds": seeds, "first_in_pair": first, **tabulate(runs["parent"], runs["change"], end_to_end)}
    for name, reading in table["verdicts"].items():
        print(f"{args.workload} {name}: {reading}", file=sys.stderr)
    for flag in table["flags"]:
        print(f"{args.workload} FLAG {flag}", file=sys.stderr)

    doc = {}
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.setdefault("description", "")
    doc["command"] = (f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                      f"--seconds {RUN_SECONDS} --trace 0")
    doc["method"] = ("tools/paired_bench.py: per workload, pairs of one run in each checkout "
                     "with one seed, the parent first in even pairs and the change first in "
                     "odd ones; median and quartiles (statistics.quantiles, n=4, exclusive) "
                     "over the runs of each side; pair_wins counts the pairs in which the "
                     "change's value is better (ties count for neither); verdicts reads each "
                     "metric as gain, no_worse, unresolved or worse against its "
                     "BENCHMARK.json bound (tools/paired_bench.py verdict); flags names every "
                     "run that was not correct or failed an op.")
    doc["parent_commit"] = git_head(args.parent)
    doc["change_commit"] = git_head(args.change)
    doc["provenance"] = runs["change"][0]["provenance"]
    doc.setdefault("workloads", {})[args.workload] = table
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
