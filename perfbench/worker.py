"""One workload run in a fresh process: set up, then loop closed, single-client.

Started by run.py, which passes the perf_counter value it read just before
starting this process (``--t0``; perf_counter is CLOCK_MONOTONIC on Linux, so
it is shared between processes).  Prints one JSON object as its last line.

Untraced (``--trace 0``): repeat the workload's round while another one
still fits in ``--seconds`` (see run_rounds), and report the end-to-end
metrics.  Every timing is scaled to the nominal machine speed of calib.py.

Traced (``--trace 1``): rounds untraced for half the time, then rounds with
tracing wrappers installed for the other half, then one coverage pass, and
report the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import balance_lab  # noqa: E402
import calib  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Latency percentile reported as verdict_tail_ms, per workload: the highest
# that leaves at least ten of the round's ops beyond it (grid: 420 ops,
# probes: 44, cli: 24).  Fixed, so that it is the same on every commit.
TAIL_PCT = {"grid": 97.5, "probes": 75.0, "cli": 55.0}
# Whole rounds an untraced run makes at least.  A probes round takes 11-16 s
# and a cli round 17-22 s of wall time, so in 20 s either might run only once.
# Each op's time is scaled by calibration points taken only before and after
# it (calib.py), so the 1-2 s probes ops carry the speed swings within them;
# three rounds average those out of the probes rate.
MIN_ROUNDS = {"grid": 1, "probes": 3, "cli": 2}


def run_op(op):
    t = perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an op that raises is a failed op; keep measuring
        return perf_counter() - t, f"{type(exc).__name__}: {exc}", False
    latency = perf_counter() - t
    return latency, op.check(result), True


def run_rounds(ops, seconds, tracer=None, phase=None, min_rounds=1, local=True):
    """Repeat the round while another one, as long as the last, still ends
    within ``seconds`` (whole rounds, at least ``min_rounds``).  Returns a
    list of (kind, latency_s, failure, known_defect, returned, scaled_s) and
    the number of rounds, with calibration points between the ops (see
    calib.py; ``local`` is false when the ops run in child processes);
    scaled_s is latency_s at the nominal speed.  With a tracer, spans carry
    the op id (phase, round, index, kind)."""
    records, rounds = [], 0
    cal = calib.Calibrator(local)
    start = last = perf_counter()
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = (phase, rounds, i, op.kind)
            latency, failure, returned = run_op(op)
            records.append((op.kind, latency, failure, op.known_defect, returned))
            cal.after_op(latency)
        rounds += 1
        now = perf_counter()
        if rounds >= min_rounds and 2 * now - last - start > seconds:
            break
        last = now
    records = [r + (r[1] * f,) for r, f in zip(records, cal.factors())]
    return records, rounds, cal.speed()


def rate(records, col=5):
    """Ops that returned a result, per second of op time (scaled by default,
    raw with ``col=1``)."""
    return sum(1 for r in records if r[4]) / sum(r[col] for r in records)


def peak_rss_mb(with_children: bool) -> float:
    """Peak RSS of this process, plus that of its largest descendant (ru_maxrss
    is in KiB on Linux); cli ops run one child at a time."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def summary(records):
    failures = [r for r in records if r[2] is not None]
    return {
        "attempted": len(records),
        "failed": len(failures),
        "correct": all(r[3] for r in failures),
        "failures": sorted({f"{r[0]}: {r[2]}"[:200] for r in failures})[:20],
    }


def import_op(tracer):
    """``import balance_lab`` in a fresh interpreter: the fixed start-up cost
    of every CLI call."""

    def run():
        with tracer.span("cli.import", "cli"):
            proc = subprocess.run([sys.executable, "-c", "import balance_lab"],
                                  capture_output=True, timeout=120)
        return proc.returncode

    return workloads.Op("cli.import", run, lambda code: None if code == 0 else f"exit {code}")


def traced_round(workload, seed, workdir, tracer):
    """The round that trace mode runs, with and without the tracer installed.
    For cli it is the same commands through cli.main in this process, plus
    one import in a fresh process."""
    if workload == "cli":
        rnd = workloads.cli_round(seed, workdir, inprocess=True, tracer=tracer)
        rnd.ops.append(import_op(tracer))
        return rnd
    return workloads.build_round(workload, seed, workdir)


def coverage_ops(seed, workdir, tracer):
    """One small pass over every op type (a probe triple and the CLI commands
    at n = 7, plus an import), so that functions a workload never calls still
    get a measured p50."""
    rng = np.random.default_rng(seed)
    ops = workloads.probes_round(seed, workloads.COVERAGE_PROBE_SLOTS).ops
    cdir = os.path.join(workdir, "coverage")
    commands, _ = workloads.cli_commands(rng, cdir, workloads.COVERAGE_CLI_SLOTS, with_grid=False)
    commands.append(("scenario-grid", ["scenario", "grid", "--builtin"], {"mismatches": 0}))
    ops += [workloads.inprocess_op(n, a, e, tracer) for n, a, e in commands]
    ops.append(import_op(tracer))
    return ops


def untraced(args, rnd, setup_s):
    records, rounds, speed = run_rounds(rnd.ops, args.seconds,
                                        min_rounds=MIN_ROUNDS[args.workload],
                                        local=args.workload != "cli")
    rss = peak_rss_mb(with_children=args.workload == "cli")
    # imported only now, so that neither set-up time nor memory counts it
    from scipy.stats.mstats import hdquantiles

    summ = summary(records)
    failed_frac = summ["failed"] / len(records)
    # Each op of the round runs once a round; its latency is its mean over
    # the run.  Machine speed drifts in phases of seconds, and a percentile
    # over single samples jumps between phases; over per-op means it does not.
    # Percentiles are Harrell-Davis estimates, a weighted mean of the order
    # statistics around them, so that they do not jump between op types
    # whose latencies are close.
    pct = TAIL_PCT[args.workload]

    def quantiles(col):
        lat = np.array([r[col] for r in records]).reshape(rounds, len(rnd.ops)).mean(axis=0)
        p50, tail = (float(q) for q in hdquantiles(lat, prob=[0.5, pct / 100.0]))
        return p50, tail, int(np.sum(lat > tail))

    p50, tail, beyond = quantiles(5)
    raw_p50, raw_tail, _ = quantiles(1)
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (rate(records), "1/s"),
        "verdict_p50_ms": (p50 * 1e3, "ms"),
        "verdict_tail_ms": (tail * 1e3, "ms"),
        "verdict_ok_frac": (1.0 - failed_frac, "frac"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {
        "rounds": rounds,
        "ops_per_round": len(rnd.ops),
        "tail_pct": pct,
        "tail_beyond": beyond,
        "failed_frac": failed_frac,
        "machine_speed": speed,
        "raw_verdicts_per_s": rate(records, col=1),
        "raw_verdict_p50_ms": raw_p50 * 1e3,
        "raw_verdict_tail_ms": raw_tail * 1e3,
    }
    return metrics, summ, info


def traced(args, rnd, tracer, workdir):
    half = args.seconds / 2.0
    base, base_rounds, _ = run_rounds(rnd.ops, half)
    cover = coverage_ops(args.seed, workdir, tracer)
    tracer.install()
    try:
        recs, rounds, _ = run_rounds(rnd.ops, half, tracer, "traced")
        cover_recs, _, _ = run_rounds(cover, 0.0, tracer, "coverage")
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, rounds, sum(r[1] for r in recs))
    u, t = rate(base), rate(recs)
    metrics["trace.untraced_verdicts_per_s"] = (u, "1/s")
    metrics["trace.traced_verdicts_per_s"] = (t, "1/s")
    metrics["trace.overhead_frac"] = (1.0 - t / u, "frac")
    tracer.dump(os.path.join(args.out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    info = {"untraced_rounds": base_rounds, "traced_rounds": rounds,
            "spans": len(tracer.spans), "coverage_ops": len(cover)}
    return metrics, summary(base + recs + cover_recs), info


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(balance_lab.__file__).startswith(src + os.sep):
        raise SystemExit(f"balance_lab imported from {balance_lab.__file__}, not {src}")
    workdir = os.path.join(args.out_dir, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        tracer = tracing.Tracer()
        if args.trace:
            rnd = traced_round(args.workload, args.seed, workdir, tracer)
        else:
            rnd = workloads.build_round(args.workload, args.seed, workdir)
        for op in workloads.warmup_ops(args.workload, args.seed):
            run_op(op)
        setup_s = perf_counter() - args.t0
        if args.setup_only:
            out = {"setup_s": setup_s, "digest": rnd.digest}
        elif args.trace:
            metrics, summ, info = traced(args, rnd, tracer, workdir)
            out = {"metrics": metrics, **summ, "info": info, "digest": rnd.digest}
        else:
            metrics, summ, info = untraced(args, rnd, setup_s)
            out = {"metrics": metrics, **summ, "info": info, "digest": rnd.digest}
        out["blas_threads"] = blas_threads()
        out["provenance"] = provenance()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))


def provenance():
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": vendor}


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked through its own API;
    None when it cannot be found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    main()
