"""Seeded inputs, operations and oracles of the three workloads.

A workload is a *round*: a fixed list of ops built from the seed.  The loop
in ``worker.py`` repeats the round, so every run sees the same op mix.  Each
op calls the public balance_lab functions through their defining module
(``bl.balance.is_balanced`` and so on), looked up at call time, so that the
wrappers installed by ``tracing.Tracer`` see every call.  Each op's result is
checked against an expectation fixed by how the input was built.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from typing import Callable

import numpy as np

import balance_lab as bl
import balance_lab.balance
import balance_lab.channels
import balance_lab.cli
import balance_lab.couplings
import balance_lab.lindblad
import balance_lab.states

WORKLOADS = ("grid", "probes", "cli")

# Rate scales of the grid.  Both generators are multiplied by c, which leaves
# the arithmetic verdict unchanged.  At the two slow scales the package's
# `1 + ||S||` tolerance normalization misjudges some scenarios (ROADMAP
# Baseline); those failures are measured, not filtered.
GRID_SCALES = (1e8, 1.0, 1e-3, 1e-9, 1e-12)
DEFECT_SCALES = (1e-9, 1e-12)

# Cycle structure of the seeded cyclic-shift grid specs, one per dimension.
# Fixed, so that the cost of a round does not depend on the seed.
GRID_CYCLES = {7: (3, 4), 8: (4, 4), 9: (4, 5), 10: (3, 3, 4), 11: (5, 6), 12: (4, 4, 4)}

# Probe triples: (dim, cycles, block types of the coupling, block types of the
# second coupling used by is_orthogonal).  Single-cycle triples with a generic
# Hamiltonian are ergodic; multi-cycle ones are not (the block projections
# are fixed points), which covers both branches of disjointness_probe and
# convergence_probe.
PROBE_SLOTS = (
    (12, (12,), ("entangled",), ("mixed",)),
    (12, (4, 4, 4), ("entangled", "mixed", "product"), ("mixed", "product", "entangled")),
    (16, (16,), ("entangled",), ("mixed",)),
    (16, (4, 4, 4, 4), ("entangled", "mixed", "product", "entangled"),
     ("mixed", "product", "entangled", "mixed")),
)
SEMIGROUP_T = 1.0
SAMPLED_TIMES = (0.1, 1.0, 5.0)
CONVERGENCE_TIMES = (1.0, 1000.0)

# CLI inputs: (dim, cycles, block types, second coupling's block types).
CLI_SLOTS = (
    (7, (7,), ("entangled",), ("mixed",)),
    (12, (4, 4, 4), ("entangled", "mixed", "product"), ("mixed", "product", "entangled")),
)
# Small slots for the coverage pass (worker.coverage_ops) and the warm-up.
COVERAGE_CLI_SLOTS = CLI_SLOTS[:1]
COVERAGE_PROBE_SLOTS = ((7, (3, 4), ("entangled", "mixed"), ("mixed", "entangled")),)

INVOLUTION_TOL = 1e-8
ROUNDTRIP_TOL = 1e-8


@dataclasses.dataclass
class Op:
    """One checked call.  ``run`` is timed; ``check`` maps its result to None
    (pass) or a failure reason.  ``known_defect`` marks ops whose failure is
    the documented tolerance defect: counted in ``failed``, but it does not
    make a run incorrect."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    known_defect: bool = False


@dataclasses.dataclass
class Round:
    ops: list
    digest: str  # of the generated inputs, to check that a seed repeats them


# ---------------------------------------------------------------------------
# seeded construction


def _balanced_spec(rng, cycles, types):
    """A scenario that scenario_predict calls balanced: equal shift weights
    on entangled and mixed cycles, g - h constant on entangled cycles, and a
    generic Hamiltonian (distinct entries)."""
    nc = len(cycles)
    n = sum(cycles)
    probs = 0.5 + rng.random(nc)
    probs = probs / probs.sum()
    # renormalize exactly: ScenarioSpec demands |sum - 1| <= 1e-12
    probs[-1] = 1.0 - probs[:-1].sum()
    k = rng.uniform(0.15, 0.85, nc)
    l = rng.uniform(0.15, 0.85, nc)
    g = rng.uniform(-1.0, 1.0, n)
    h = rng.uniform(-1.0, 1.0, n)
    off = 0
    for c, (r, t) in enumerate(zip(cycles, types)):
        if t in ("entangled", "mixed"):
            l[c] = k[c]
        if t == "entangled":
            h[off:off + r] = g[off:off + r] + rng.uniform(-0.5, 0.5)
        off += r
    return bl.ScenarioSpec(
        cycle_lengths=tuple(cycles),
        block_probs=tuple(probs),
        partition=tuple((c,) for c in range(nc)),
        block_types=tuple(types),
        k=tuple(k),
        l=tuple(l),
        g=tuple(g),
        h=tuple(h),
    )


def _unbalanced_spec(rng, cycles, types):
    """Like _balanced_spec, but the shift weights differ on the first
    (entangled) cycle by 0.1-0.25, so scenario_predict calls it unbalanced."""
    spec = _balanced_spec(rng, cycles, types)
    l = list(spec.l)
    step = rng.uniform(0.1, 0.25)
    l[0] = l[0] + step if l[0] < 0.5 else l[0] - step
    return dataclasses.replace(spec, l=tuple(l))


def _digest(objs) -> str:
    return hashlib.sha256(json.dumps(objs, sort_keys=True).encode()).hexdigest()


def _close(a, b, tol) -> bool:
    return float(np.linalg.norm(a - b)) <= tol * max(1.0, float(np.linalg.norm(b)))


# ---------------------------------------------------------------------------
# grid


def _rescaled(gen, c: float):
    return bl.LindbladGenerator(
        dim=gen.dim,
        superoperator=c * gen.superoperator,
        jumps=tuple(np.sqrt(c) * v for v in gen.jumps),
        hamiltonian=c * gen.hamiltonian,
    )


def _grid_op(spec, c: float, predicted: bool) -> Op:
    def run():
        triple = bl.lindblad.scenario_build(spec)
        sys_a = bl.states.System(
            state=triple.system_a.state, dynamics=_rescaled(triple.system_a.dynamics, c)
        )
        sys_b = bl.states.System(
            state=triple.system_b.state, dynamics=_rescaled(triple.system_b.dynamics, c)
        )
        rep = bl.balance.is_balanced(sys_a, sys_b, triple.coupling)
        return rep, bl.lindblad.balance_sub_residuals(spec)

    def check(result):
        rep, (shift, comm) = result
        if rep.balanced != predicted:
            return f"balanced={rep.balanced}, predicted {predicted}"
        if not rep.method_agreement:
            return "method_agreement=False"
        if (max(shift, comm) <= 1e-9) != predicted:
            return f"sub-residuals {shift:.3e}/{comm:.3e} disagree with prediction"
        return None

    return Op(f"grid.n{spec.dim}", run, check, known_defect=c in DEFECT_SCALES)


def grid_round(seed: int) -> Round:
    """The 72 built-in specs plus one balanced and one unbalanced cyclic-shift
    spec per n = 7..12, each at every rate scale, in seeded order."""
    rng = np.random.default_rng(seed)
    specs = list(bl.lindblad.standard_grid())
    for n, cycles in GRID_CYCLES.items():
        types = ("entangled",) + tuple(
            rng.choice(bl.lindblad.VALID_BLOCK_TYPES, len(cycles) - 1)
        )
        specs.append(_balanced_spec(rng, cycles, types))
        specs.append(_unbalanced_spec(rng, cycles, types))
    pairs = [(s, c) for s in specs for c in GRID_SCALES]
    order = rng.permutation(len(pairs))
    pairs = [pairs[i] for i in order]
    ops = [_grid_op(s, c, bl.lindblad.scenario_predict(s)) for s, c in pairs]
    return Round(ops, _digest([[s.to_json(), c] for s, c in pairs]))


# ---------------------------------------------------------------------------
# probes


def _triple_ops(rng, slot) -> tuple[list, dict]:
    n, cycles, types, psi_types = slot
    spec = _balanced_spec(rng, cycles, types)
    # the second coupling must sit on the same middle state
    psi_spec = dataclasses.replace(
        _balanced_spec(rng, cycles, psi_types), block_probs=spec.block_probs
    )
    triple = bl.lindblad.scenario_build(spec)
    psi = bl.lindblad.scenario_coupling(psi_spec)
    sys_a, sys_b, w = triple.system_a, triple.system_b, triple.coupling
    s = sys_a.state
    gen = sys_a.dynamics
    th = bl.ReversingOperation(dim=n)
    ergodic = len(cycles) == 1
    tag = f"n{n}.{'single' if ergodic else 'multi'}"
    ch = bl.couplings
    cn = bl.channels
    li = bl.lindblad
    ba = bl.balance

    def roundtrip():
        e = ch.extract_channel(w)
        ucp = cn.validate_ucp(e)
        return ucp, ch.coupling_from_channel(e, w.state_a, w.state_b)

    def check_roundtrip(r):
        ucp, back = r
        if not ucp.ucp:
            return "extracted channel not u.c.p."
        if not _close(back.kappa, w.kappa, ROUNDTRIP_TOL):
            return "coupling_from_channel(extract_channel(w)) != w"
        return None

    def channel_duals():
        sg = li.semigroup(gen, SEMIGROUP_T)
        d = cn.dual(sg, s, s)
        k = cn.kms_dual(sg, s, s)
        t = cn.theta_kms_dual(sg, s, th)
        return sg.superoperator, [
            cn.dual(d, s, s).superoperator,
            cn.kms_dual(k, s, s).superoperator,
            cn.theta_kms_dual(t, s, th).superoperator,
        ]

    def generator_duals():
        d = li.dual_generator(gen, s)
        k = li.kms_dual_generator(gen, s)
        t = li.theta_kms_dual_generator(gen, s, th)
        return gen.superoperator, [
            li.dual_generator(d, s).superoperator,
            li.kms_dual_generator(k, s).superoperator,
            li.theta_kms_dual_generator(t, s, th).superoperator,
        ]

    def check_involutions(r):
        base, twice = r
        for name, x in zip(("dual", "kms_dual", "theta_kms_dual"), twice):
            if not _close(x, base, INVOLUTION_TOL):
                return f"{name} is not an involution"
        return None

    def check_sampled(r):
        for t, rep in r:
            if not (rep.balanced and rep.method_agreement):
                return f"sampled balance at t={t}: {rep.to_json()}"
        return None

    def check_convergence(r):
        if r.certified != ergodic:
            return f"certified={r.certified}, expected {ergodic}"
        if r.certified and r.passed is False:
            return "certified but the deviations do not decay"
        return None

    def check_disjointness(r):
        if r.ergodic != ergodic or r.witness_found == ergodic:
            return f"ergodic={r.ergodic} witness={r.witness_found}, expected ergodic {ergodic}"
        return None

    ops = [
        Op(f"roundtrip.{tag}", roundtrip, check_roundtrip),
        Op(f"channel_duals.{tag}", channel_duals, check_involutions),
        Op(f"generator_duals.{tag}", generator_duals, check_involutions),
        Op(f"sqdb.{tag}", lambda: ba.check_theta_sqdb(sys_b, th),
           lambda r: None if r.methods_agree else "sqdb methods disagree"),
        Op(f"reversing_validate.{tag}", lambda: th.validate(),
           lambda r: None if r else "transposition failed ReversingOperation.validate"),
        Op(f"dual_order.{tag}", lambda: ba.dual_order_check(sys_a, sys_b, w),
           lambda r: None if (r.consistent and r.primal) else f"dual order {r.to_json()}"),
        Op(f"orthogonal.{tag}", lambda: ch.is_orthogonal(w, psi),
           lambda r: None if r.methods_agree else "orthogonality methods disagree"),
        Op(f"ergodic.{tag}", lambda: ba.is_ergodic(sys_b),
           lambda r: None if r == ergodic else f"is_ergodic={r}, expected {ergodic}"),
        Op(f"disjointness.{tag}", lambda: ba.disjointness_probe(sys_b), check_disjointness),
        Op(f"sampled.{tag}", lambda: ba.sampled_balance(sys_a, sys_b, w, SAMPLED_TIMES),
           check_sampled),
        Op(f"convergence.{tag}", lambda: ba.convergence_probe(sys_a, sys_b, w, CONVERGENCE_TIMES),
           check_convergence),
    ]
    return ops, {"spec": spec.to_json(), "psi": psi_spec.to_json()}


def probes_round(seed: int, slots=PROBE_SLOTS) -> Round:
    rng = np.random.default_rng(seed)
    ops, record = [], []
    for slot in slots:
        slot_ops, rec = _triple_ops(rng, slot)
        ops += slot_ops
        record.append(rec)
    return Round(ops, _digest(record))


# ---------------------------------------------------------------------------
# cli


def _random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _write(path, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _report_check(expect: dict):
    """Check a CLI result (exit code, stdout) against expected report fields,
    given as dotted paths into the report, e.g. "verdicts.valid"."""

    def check(result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return "report is not JSON"
        for path, want in expect.items():
            value = report
            for key in path.split("."):
                value = value.get(key) if isinstance(value, dict) else None
            if callable(want):
                if not want(value):
                    return f"{path}={value!r}"
            elif value != want:
                return f"{path}={value!r}, expected {want!r}"
        return None

    return check


def cli_commands(rng, workdir: str, slots=CLI_SLOTS, with_grid=True) -> tuple[list, list]:
    """Write the input files and return (commands, record), where each command
    is (name, argv, expected report fields)."""
    commands, record = [], []
    for n, cycles, types, psi_types in slots:
        d = os.path.join(workdir, f"n{n}")
        os.makedirs(d, exist_ok=True)
        spec = _balanced_spec(rng, cycles, types)
        psi_spec = dataclasses.replace(
            _balanced_spec(rng, cycles, psi_types), block_probs=spec.block_probs
        )
        w = bl.lindblad.scenario_coupling(spec)
        psi = bl.lindblad.scenario_coupling(psi_spec)
        e = bl.couplings.extract_channel(w)
        # a non-diagonal density matrix with a non-degenerate spectrum (the
        # single-cycle scenario state is maximally mixed, so it cannot serve)
        p = np.sort(0.5 + rng.random(n))[::-1]
        u = _random_unitary(rng, n)
        rho = u @ np.diag(p / p.sum()) @ u.conj().T
        f = {
            "spec": _write(os.path.join(d, "spec.json"), spec.to_json()),
            "w": _write(os.path.join(d, "w.json"), w.to_json()),
            "psi": _write(os.path.join(d, "psi.json"), psi.to_json()),
            "channel": _write(os.path.join(d, "channel.json"), e.to_json()),
            "state": _write(os.path.join(d, "state.json"), w.state_a.to_json()),
            "rho": _write(os.path.join(d, "rho.json"), {"rho": bl.matrix_to_json(rho)}),
        }
        out = lambda name: os.path.join(d, name)  # noqa: E731
        ergodic = len(cycles) == 1
        record.append({"spec": spec.to_json(), "psi": psi_spec.to_json(), "u": u.real.tolist()})
        commands += [
            ("validate", ["validate", f["w"]], {"verdicts.valid": True}),
            ("validate", ["validate", f["rho"]],
             {"verdicts.valid": True, "canonicalization.applied": True}),
            ("extract-channel", ["extract-channel", f["w"], "--out", out("e.json")],
             {"verdicts.extracted_ucp": True}),
            ("coupling-from-channel",
             ["coupling-from-channel", f["channel"], "--state-a", f["state"],
              "--state-b", f["state"], "--out", out("w_back.json")],
             {"verdicts.ucp": True, "verdicts.state_preserving": True}),
            ("check-balance",
             ["check-balance", "--scenario", f["spec"], "--sampled-times",
              *map(str, SAMPLED_TIMES)],
             {"verdicts.balanced": True, "verdicts.method_agreement": True,
              "sampled": lambda s: bool(s) and all(x["balanced"] for x in s)}),
            ("compose", ["compose", f["w"], f["psi"], "--out", out("composed.json")],
             {"verdicts.composable": True}),
            ("check-orthogonal", ["check-orthogonal", f["w"], f["psi"]],
             {"verdicts.methods_agree": True}),
            ("sqdb", ["sqdb", "--scenario", f["spec"]], {"verdicts.methods_agree": True}),
            ("ergodic", ["ergodic", "--scenario", f["spec"]],
             {"verdicts.ergodic": ergodic, "verdicts.witness_found": not ergodic}),
            ("convergence",
             ["convergence", "--scenario", f["spec"], "--times", *map(str, CONVERGENCE_TIMES)],
             {"verdicts.certified": ergodic,
              "verdicts.passed": (lambda v: v is not False) if ergodic else None}),
            ("scenario-run", ["scenario", "run", f["spec"]], {"agrees": True}),
        ]
    if with_grid:
        commands += [
            ("scenario-grid", ["scenario", "grid", "--builtin"], {"mismatches": 0}),
            ("scenario-grid", ["scenario", "grid", "--builtin", "--jobs", "2"], {"mismatches": 0}),
        ]
    return commands, record


def cli_argv_prefix() -> list:
    """What the installed ``balance-lab`` console script runs."""
    return [sys.executable, "-c", "import sys; from balance_lab.cli import main; sys.exit(main())"]


def subprocess_op(name, argv, expect) -> Op:
    def run():
        proc = subprocess.run(
            cli_argv_prefix() + argv, capture_output=True, text=True, timeout=120
        )
        return proc.returncode, proc.stdout

    return Op(f"cli.{name}", run, _report_check(expect))


def inprocess_op(name, argv, expect, tracer) -> Op:
    """The same command through cli.main in this process, recorded as the
    span cli.<name> while the tracer is installed."""

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), tracer.span(f"cli.{name}", "cli"):
            code = bl.cli.main(list(argv))
        return code, buf.getvalue()

    return Op(f"cli.{name}", run, _report_check(expect))


def cli_round(seed: int, workdir: str, inprocess=False, tracer=None) -> Round:
    rng = np.random.default_rng(seed)
    commands, record = cli_commands(rng, workdir)
    if inprocess:
        ops = [inprocess_op(n, a, e, tracer) for n, a, e in commands]
    else:
        ops = [subprocess_op(n, a, e) for n, a, e in commands]
    return Round(ops, _digest(record))


def warmup_ops(workload: str, seed: int) -> list:
    """A small pass over the workload's op types, run before the first timed
    op so that lazy imports and first-call costs are not timed.  None for
    cli, where every op is a fresh process."""
    if workload == "grid":
        spec = bl.lindblad.standard_grid()[0]
        return [_grid_op(spec, c, bl.lindblad.scenario_predict(spec)) for c in GRID_SCALES]
    if workload == "probes":
        return probes_round(seed, COVERAGE_PROBE_SLOTS).ops
    return []


def build_round(workload: str, seed: int, workdir: str) -> Round:
    if workload == "grid":
        return grid_round(seed)
    if workload == "probes":
        return probes_round(seed)
    if workload == "cli":
        return cli_round(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
