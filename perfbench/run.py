"""balance-lab benchmark: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Each metric is printed on its own line with
its unit, then the last line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With ``--workload all`` every workload runs in turn and the last line maps
workload names to those objects.  Run files (spans, full results with
provenance) go to ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# as in workloads.py, which this file does not import: it stays free of numpy
# and the package, so that it starts fast and fails fast without a checkout
WORKLOADS = ("grid", "probes", "cli")
# Set-up is timed this many times a run (fresh processes), and the median is
# reported as setup_s.
SETUP_SAMPLES = 3
# One process drives the load; single-threaded BLAS keeps it to one core
# (<= nproc) and makes runs steadier on a shared machine.
BLAS_THREADS = "1"
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv, deadline):
    """Run a child in its own process group; kill the group if it outlives
    the deadline.  Returns its stdout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(argv[:4])}")
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(argv[:4])}")
    return out


def worker(args, workload, out_dir, deadline, setup_only=False):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out-dir", out_dir]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--t0", repr(perf_counter())]
    lines = run_child(argv, deadline).strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: worker printed nothing")
    return json.loads(lines[-1])


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(args, workload, out_dir):
    deadline = perf_counter() + DEADLINE_S
    # warm-up: byte-code caches and the page cache, which users do not pay per run
    run_child([sys.executable, "-c", "import balance_lab"], deadline)
    setups = []
    if not args.trace:
        digests = set()
        for _ in range(SETUP_SAMPLES - 1):
            s = worker(args, workload, out_dir, deadline, setup_only=True)
            setups.append(s["setup_s"])
            digests.add(s["digest"])
    res = worker(args, workload, out_dir, deadline)
    metrics = res["metrics"]
    correct = res["correct"]
    if not args.trace:
        setups.append(metrics["setup_s"][0])
        # Each set-up is too short for calibration points of its own (see
        # calib.py), so the median is scaled by the machine speed measured
        # over the run that follows the set-ups.
        metrics["setup_s"] = [statistics.median(setups) * res["info"]["machine_speed"], "s"]
        if digests != {res["digest"]}:
            correct = False
            res["failures"].append("inputs differ between set-ups with one seed")
    nproc = len(os.sched_getaffinity(0))
    prov = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        **res["provenance"],
        "blas_threads": res["blas_threads"],
        "git_commit": git_commit(),
    }
    if res["blas_threads"] is not None and res["blas_threads"] > nproc:
        correct = False
        res["failures"].append(f"BLAS threads {res['blas_threads']} > nproc {nproc}")
    result = {
        "correct": bool(correct),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"[{workload}] provenance {json.dumps(prov)}")
    for key, value in res["info"].items():
        print(f"[{workload}] {key} = {value}")
    if not args.trace:
        print(f"[{workload}] raw setup_s samples = {[round(s, 4) for s in setups]}")
    for name, m in result["metrics"].items():
        print(f"[{workload}] {name} = {m['value']:.6g} {m['unit']}")
    for f in res["failures"]:
        print(f"[{workload}] failure: {f}")
    path = os.path.join(out_dir, f"result-{workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "info": res["info"], "raw_setup_samples": setups,
                   "failures": res["failures"], **result}, fh, indent=1)
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "balance_lab", "__init__.py")):
        sys.stderr.write(f"no balance_lab sources under {ROOT}/src; run from a checkout\n")
        return 2
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        if args.workload == "all":
            results = {w: run_workload(args, w, out_dir) for w in WORKLOADS}
            print(json.dumps(results))
        else:
            print(json.dumps(run_workload(args, args.workload, out_dir)))
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
