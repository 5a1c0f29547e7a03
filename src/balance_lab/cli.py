"""Command line front end.

All inputs and outputs are JSON files in the wire formats of the library
modules (matrix, state, channel, coupling, scenario).  Reports are printed,
and optionally written, as canonical JSON: keys in a fixed order, floats with
17 significant digits, so identical inputs produce identical bytes.

Exit codes: 0 success, 1 malformed input (a malformed numeric flag among
it) or an unreadable or unwritable file, 2 validation failure, 3 scenario
prediction disagrees with the numeric verdict.

Dynamics files are either a channel ({"dim_in", "dim_out", "superoperator"}
or {"kraus": [...]}) or a semigroup generator ({"kraus": [...],
"hamiltonian": <matrix>} or {"jumps": [...], "hamiltonian": <matrix>?}); the
presence of a Hamiltonian (or the "jumps" key) marks a generator.

Every file is read by :func:`load`, every coupling that a command acts on
also checked by :func:`load_coupling`, and every system built by
:func:`resolve_systems`; each command returns (report, exit code) and
:func:`main` prints the report.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys

import numpy as np

from .balance import (
    check_theta_sqdb,
    convergence_probe,
    disjointness_probe,
    is_balanced,
    sampled_balance,
)
from .channels import ReversingOperation, change_frame, channel_from_json, validate_ucp
from .couplings import (
    compose,
    coupling_from_channel,
    coupling_from_json,
    extract_channel,
    is_orthogonal,
    is_trivial,
    validate_coupling,
)
from .kernel import DEFAULT_TOL, matrix_from_json, matrix_to_json
from .lindblad import (
    balance_sub_residuals,
    build_generator,
    scenario_build,
    scenario_from_json,
    scenario_predict,
    standard_grid,
)
from .states import (
    System,
    canonicalize_density_matrix,
    preserves_state,
    state_from_json,
    state_preservation_residual,
)


class InputError(ValueError):
    """Malformed or unreadable input (exit code 1)."""


# ---------------------------------------------------------------------------
# canonical JSON output


_FLAT = (int, float, str, np.integer, np.floating)


def _scalar(x) -> str:
    """One JSON scalar: floats to 17 significant digits, a whole float
    below 1e16 with ``.0``, and NaN and infinities as strings."""
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if not math.isfinite(x):
            return json.dumps(str(x))
        return format(x, ".1f" if x.is_integer() and abs(x) < 1e16 else ".17g")
    if x is None or isinstance(x, (bool, str)):
        return json.dumps(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    raise TypeError(f"cannot serialize {type(x)!r}")


def dumps_canonical(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dumps_canonical(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if len(obj) <= 8 and all(isinstance(v, _FLAT) for v in obj):
            return "[" + ", ".join(map(_scalar, obj)) + "]"
        items = [f"{pad}  {dumps_canonical(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _scalar(obj)


# ---------------------------------------------------------------------------
# files


@contextlib.contextmanager
def _input_errors(path: str):
    """Report an unusable file or object at ``path`` as an InputError."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def load(path: str, parse=lambda obj: obj):
    """Read the JSON object in ``path``; returns (parse(object), digest entry)."""
    with _input_errors(path):
        with open(path, "rb") as fh:
            raw = fh.read()
        obj = json.loads(raw.decode("utf-8"))
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, not {type(obj).__name__}")
        return parse(obj), {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}


def _write(path: str, text: str) -> None:
    with _input_errors(path), open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_output(report: dict, path: str | None, obj) -> None:
    """Write ``obj`` to the ``--out`` path, if one was given, and record it."""
    if path:
        _write(path, dumps_canonical(obj.to_json()) + "\n")
        report["outputs"] = [path]


def load_coupling(path: str, tol: float):
    """Read the coupling in ``path`` (:func:`load`) and check that it is one:
    a file that parses but fails a check of :func:`validate_coupling` is a
    validation failure (exit 2) that names the file and the failed checks."""
    w, dig = load(path, coupling_from_json)
    cr = validate_coupling(w, tol)
    if not cr.valid:
        failed = [check for check in ("psd", "trace_ok", "marginals_ok") if not getattr(cr, check)]
        raise ValueError(f"{path}: not a coupling: fails {', '.join(failed)}")
    return w, dig


def parse_state(obj):
    """State: {"dim", "spectrum"} or a general density matrix {"rho"}.

    Returns (state, unitary); the unitary is None unless a non-diagonal
    density matrix was diagonalized, in which case supplied operators must be
    brought into its eigenbasis with :func:`channels.change_frame`.
    """
    if "rho" in obj:
        return canonicalize_density_matrix(matrix_from_json(obj["rho"]))
    return state_from_json(obj), None


def parse_dynamics(obj):
    """Channel or generator, detected by the presence of a Hamiltonian/jumps."""
    if "jumps" in obj or ("kraus" in obj and obj.get("hamiltonian") is not None):
        ops = obj.get("jumps", obj.get("kraus"))
        if not isinstance(ops, list):
            raise ValueError("malformed generator object: 'jumps' or 'kraus' is not a list")
        ops = [matrix_from_json(v) for v in ops]
        ham = obj.get("hamiltonian")
        return build_generator(ops, matrix_from_json(ham) if ham is not None else None)
    return channel_from_json(obj)


def parse_grid(obj):
    if not isinstance(obj.get("scenarios"), list):
        raise ValueError("expected an object with a 'scenarios' list")
    return [scenario_from_json(s) for s in obj["scenarios"]]


def resolve_systems(args):
    """The systems of a command: (systems, coupling, unitary, inputs).

    From ``--scenario``, or from explicit files: ``--dynamics-a``,
    ``--dynamics-b`` and ``--coupling`` give two systems and their coupling;
    ``--dynamics`` and ``--state`` (commands with ``--system``) give one
    system, brought into the eigenbasis of a ``rho`` state, whose unitary is
    returned.
    """
    single = "system" in args
    if args.scenario:
        spec, dig = load(args.scenario, scenario_from_json)
        t = scenario_build(spec)
        if single:
            return [t.system_a if args.system == "a" else t.system_b], None, None, [dig]
        return [t.system_a, t.system_b], t.coupling, None, [dig]
    w = unitary = None
    if single:
        if not (args.dynamics and args.state):
            raise InputError("need --scenario or both --dynamics and --state")
        dyn, d1 = load(args.dynamics, parse_dynamics)
        (state, unitary), d2 = load(args.state, parse_state)
        pairs, inputs = [(state, change_frame(dyn, unitary, unitary))], [d1, d2]
    else:
        if not (args.dynamics_a and args.dynamics_b and args.coupling):
            raise InputError("need --scenario or all of --dynamics-a/--dynamics-b/--coupling")
        dyn_a, d1 = load(args.dynamics_a, parse_dynamics)
        dyn_b, d2 = load(args.dynamics_b, parse_dynamics)
        w, d3 = load_coupling(args.coupling, args.tol)
        pairs, inputs = [(w.state_a, dyn_a), (w.state_b, dyn_b)], [d1, d2, d3]
    try:
        systems = [System(state=s, dynamics=dyn) for s, dyn in pairs]
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return systems, w, unitary, inputs


# ---------------------------------------------------------------------------
# reports


def canonicalization_record(report: dict, **unitaries) -> None:
    applied = {k: u for k, u in unitaries.items() if u is not None}
    if applied:
        report["canonicalization"] = {
            "applied": True,
            "unitaries": {k: matrix_to_json(u) for k, u in applied.items()},
        }
    else:
        report["canonicalization"] = {"applied": False}


def base_report(command: str, args, inputs: list[dict]) -> dict:
    return {
        "command": command,
        "tolerance": float(args.tol),
        "inputs": inputs,
    }


# ---------------------------------------------------------------------------
# commands: each returns (report, exit code)


def cmd_validate(args):
    obj, dig = load(args.file)
    report = base_report("validate", args, [dig])
    tol = args.tol
    if "spectrum" in obj or "rho" in obj:
        report["object_type"] = "state"
        try:
            state, unitary = parse_state(obj)
        except ValueError as exc:
            if str(exc).startswith("malformed"):
                raise InputError(f"{args.file}: {exc}") from exc
            report["verdicts"] = {"valid": False}
            report["error"] = str(exc)
            return report, 2
        report["verdicts"] = {"valid": True}
        report["spectrum"] = [float(p) for p in state.spectrum]
        canonicalization_record(report, state=unitary)
        return report, 0
    if "kappa" in obj:
        report["object_type"] = "coupling"
        with _input_errors(args.file):
            w = coupling_from_json(obj)
        cr = validate_coupling(w, tol)
        report["verdicts"] = {
            "psd": cr.psd,
            "marginals_ok": cr.marginals_ok,
            "trace_ok": cr.trace_ok,
            "valid": cr.valid,
        }
        report["residuals"] = {
            "trace_defect": cr.trace_defect,
            "marginal_a_distance": cr.marginal_a_distance,
            "marginal_b_distance": cr.marginal_b_distance,
        }
        return report, 0 if cr.valid else 2
    if "superoperator" in obj or "kraus" in obj or "jumps" in obj:
        with _input_errors(args.file):
            dyn = parse_dynamics(obj)
        report["object_type"] = dyn.kind
        if dyn.kind == "generator":
            # unitality was enforced at construction
            report["verdicts"] = {"unital_generator": True, "valid": True}
            return report, 0
        ur = validate_ucp(dyn, tol)
        report["verdicts"] = ur.to_json()
        report["verdicts"]["valid"] = ur.ucp
        return report, 0 if ur.ucp else 2
    raise InputError(f"{args.file}: unrecognized object (no spectrum/kappa/superoperator/kraus)")


def cmd_extract_channel(args):
    w, dig = load(args.coupling, coupling_from_json)
    report = base_report("extract-channel", args, [dig])
    cr = validate_coupling(w, args.tol)
    report["verdicts"] = {"coupling_valid": cr.valid}
    if not cr.valid:
        report["residuals"] = cr.to_json()
        return report, 2
    ch = extract_channel(w)
    ur = validate_ucp(ch, args.tol)
    report["verdicts"]["extracted_ucp"] = ur.ucp
    report["residuals"] = {
        "state_preservation": state_preservation_residual(ch, w.state_a, w.state_b)
    }
    write_output(report, args.out, ch)
    return report, 0


def cmd_coupling_from_channel(args):
    ch, dig = load(args.channel, parse_dynamics)
    (sa, u_a), dig_a = load(args.state_a, parse_state)
    (sb, u_b), dig_b = load(args.state_b, parse_state)
    report = base_report("coupling-from-channel", args, [dig, dig_a, dig_b])
    if ch.kind != "channel":
        raise InputError("coupling-from-channel requires a channel, not a generator")
    ch = change_frame(ch, u_a, u_b)
    canonicalization_record(report, state_a=u_a, state_b=u_b)
    ur = validate_ucp(ch, args.tol)
    preserve, preserving = preserves_state(ch, sa, sb, args.tol)
    report["verdicts"] = {"ucp": ur.ucp, "state_preserving": preserving}
    report["residuals"] = {"state_preservation": preserve}
    if not (ur.ucp and preserving):
        report["error"] = "channel does not define a coupling"
        return report, 2
    write_output(report, args.out, coupling_from_channel(ch, sa, sb, tol=args.tol))
    return report, 0


def cmd_check_balance(args):
    (sys_a, sys_b), w, _, inputs = resolve_systems(args)
    report = base_report("check-balance", args, inputs)
    rep = is_balanced(sys_a, sys_b, w, args.tol)
    report["verdicts"] = {
        "balanced": rep.balanced,
        "method_agreement": rep.method_agreement,
    }
    report["residuals"] = {
        "intertwining": rep.residual,
        "definition": rep.definition_residual,
    }
    if args.sampled_times and sys_a.kind == "generator":
        samples = sampled_balance(sys_a, sys_b, w, args.sampled_times, args.tol)
        report["sampled"] = [
            {"t": t, "balanced": r.balanced, "residual": r.residual} for t, r in samples
        ]
    return report, 0


def cmd_compose(args):
    w1, d1 = load_coupling(args.first, args.tol)
    w2, d2 = load_coupling(args.second, args.tol)
    report = base_report("compose", args, [d1, d2])
    try:
        composed = compose(w1, w2)
    except ValueError as exc:
        report["error"] = str(exc)
        return report, 2
    report["verdicts"] = {"composable": True, "trivial": is_trivial(composed, args.tol)}
    write_output(report, args.out, composed)
    return report, 0


def cmd_check_orthogonal(args):
    w1, d1 = load_coupling(args.first, args.tol)
    w2, d2 = load_coupling(args.second, args.tol)
    report = base_report("check-orthogonal", args, [d1, d2])
    rep = is_orthogonal(w1, w2, args.tol)
    report["verdicts"] = {
        "orthogonal": rep.orthogonal,
        "hilbert_criterion": rep.hilbert_criterion,
        "methods_agree": rep.methods_agree,
    }
    report["residuals"] = {
        "composition_vs_product": rep.residual,
        "cross_gram_norm": rep.cross_gram_norm,
    }
    return report, 0


def cmd_sqdb(args):
    (sys_x,), _, unitary, inputs = resolve_systems(args)
    report = base_report("sqdb", args, inputs)
    canonicalization_record(report, state=unitary)
    th_unitary = None
    if args.theta_unitary:
        th_unitary, dig = load(args.theta_unitary, matrix_from_json)
        inputs.append(dig)
        # Theta(a) = u a^T u* in the eigenbasis of a rho state, as the
        # dynamics are, has the unitary U* u conj(U); a wrong shape is left
        # to the constructor's check
        if unitary is not None and th_unitary.shape == unitary.shape:
            th_unitary = unitary.conj().T @ th_unitary @ unitary.conj()
    rep = check_theta_sqdb(sys_x, ReversingOperation(dim=sys_x.dim, unitary=th_unitary), args.tol)
    report["verdicts"] = {
        "sqdb": rep.sqdb,
        "via_balance": rep.via_balance,
        "methods_agree": rep.methods_agree,
    }
    report["residuals"] = {"theta_dual_distance": rep.residual}
    return report, 0


def cmd_ergodic(args):
    (sys_x,), _, unitary, inputs = resolve_systems(args)
    report = base_report("ergodic", args, inputs)
    canonicalization_record(report, state=unitary)
    probe = disjointness_probe(sys_x, args.tol)
    report["verdicts"] = {
        "ergodic": probe.ergodic,
        "witness_found": probe.witness_found,
    }
    report["fixed_space_dim"] = probe.fixed_space_dim
    report["residuals"] = {
        "witness_balance": probe.balance_residual,
        "nontriviality_gap": probe.nontriviality_gap,
    }
    if probe.witness_basis is not None:
        report["witnesses"] = [matrix_to_json(b) for b in probe.witness_basis]
    report["message"] = probe.message
    return report, 0


def cmd_convergence(args):
    (sys_a, sys_b), w, _, inputs = resolve_systems(args)
    report = base_report("convergence", args, inputs)
    times = args.times or [0.1, 1.0, 5.0]
    rep = convergence_probe(sys_a, sys_b, w, times, args.tol, args.deviation_tol)
    report["verdicts"] = {
        "certified": rep.certified,
        "vacuous": rep.vacuous,
        "passed": rep.passed,
    }
    report["gap"] = rep.gap
    report["threshold_time"] = rep.threshold_time
    report["deviations"] = [{"t": t, "sup_deviation": d} for t, d in rep.deviations]
    report["message"] = rep.message
    return report, 0


def _scenario_result(spec, tol: float) -> dict:
    triple = scenario_build(spec)
    predicted = scenario_predict(spec)
    rep = is_balanced(triple.system_a, triple.system_b, triple.coupling, tol)
    jump_res, comm_res = balance_sub_residuals(spec)
    return {
        "predicted_balanced": predicted,
        "balanced": rep.balanced,
        "agrees": predicted == rep.balanced,
        "method_agreement": rep.method_agreement,
        "residuals": {
            "intertwining": rep.residual,
            "definition": rep.definition_residual,
            "shift_part": jump_res,
            "commutator_part": comm_res,
        },
    }


def cmd_scenario_run(args):
    spec, dig = load(args.spec, scenario_from_json)
    report = base_report("scenario run", args, [dig])
    result = _scenario_result(spec, args.tol)
    report.update(result)
    return report, 0 if result["agrees"] else 3


def cmd_scenario_grid(args):
    if args.builtin:
        specs, inputs = standard_grid(), []
    elif args.spec:
        specs, dig = load(args.spec, parse_grid)
        inputs = [dig]
    else:
        raise InputError("scenario grid needs a spec file or --builtin")
    report = base_report("scenario grid", args, inputs)
    results = [_scenario_result(s, args.tol) for s in specs]
    mismatches = sum(0 if r["agrees"] else 1 for r in results)
    report["grid_size"] = len(results)
    report["mismatches"] = mismatches
    report["results"] = [
        {"scenario": s.to_json(), **r} for s, r in zip(specs, results)
    ]
    return report, 0 if mismatches == 0 else 3


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    # parent parsers: each shared option is defined once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL)
    common.add_argument("--json-out")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    pair = argparse.ArgumentParser(add_help=False)
    for flag in ("--scenario", "--dynamics-a", "--dynamics-b", "--coupling"):
        pair.add_argument(flag)
    single = argparse.ArgumentParser(add_help=False)
    single.add_argument("--scenario")
    single.add_argument("--system", choices=("a", "b"), default="b")
    single.add_argument("--dynamics")
    single.add_argument("--state")

    parser = argparse.ArgumentParser(
        prog="balance-lab",
        description="couplings, duals and balance checks for quantum Markov semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, func, help, *parents):
        p = subparsers.add_parser(name, help=help, parents=[*parents, common])
        p.set_defaults(func=func)
        return p

    p = command(sub, "validate", cmd_validate, "validate a state/channel/coupling file")
    p.add_argument("file")

    p = command(sub, "extract-channel", cmd_extract_channel,
                "extract the channel of a coupling", out)
    p.add_argument("coupling")

    p = command(sub, "coupling-from-channel", cmd_coupling_from_channel,
                "build the coupling of a u.c.p. channel", out)
    p.add_argument("channel")
    p.add_argument("--state-a", required=True)
    p.add_argument("--state-b", required=True)

    p = command(sub, "check-balance", cmd_check_balance,
                "check balance of two systems through a coupling", pair)
    p.add_argument("--sampled-times", type=float, nargs="*", default=None)

    p = command(sub, "compose", cmd_compose, "compose two couplings along the middle state", out)
    p.add_argument("first")
    p.add_argument("second")

    p = command(sub, "check-orthogonal", cmd_check_orthogonal,
                "decide whether two couplings compose to the product")
    p.add_argument("first")
    p.add_argument("second")

    p = command(sub, "sqdb", cmd_sqdb,
                "standard quantum detailed balance wrt a reversing operation", single)
    p.add_argument("--theta-unitary", default=None)

    command(sub, "ergodic", cmd_ergodic, "ergodicity and the identity-system witness probe",
            single)

    p = command(sub, "convergence", cmd_convergence,
                "convergence transfer through a balanced coupling", pair)
    p.add_argument("--times", type=float, nargs="*", default=None)
    p.add_argument("--deviation-tol", type=float, default=1e-6)

    p = sub.add_parser("scenario", help="scenario tools")
    ssub = p.add_subparsers(dest="scenario_command", required=True)
    p = command(ssub, "run", cmd_scenario_run, "build a scenario, predict and verify balance")
    p.add_argument("spec")
    p = command(ssub, "grid", cmd_scenario_grid, "run a grid of scenarios")
    p.add_argument("spec", nargs="?", default=None)
    p.add_argument("--builtin", action="store_true", help="use the built-in characterization grid")
    # kept: the perfbench cli workload passes --jobs 2
    p.add_argument(
        "--jobs", type=int, default=1, help="accepted and ignored; the grid runs serially"
    )

    return parser


def check_numeric_flags(args) -> None:
    """``--tol`` and ``--deviation-tol`` must be finite and positive, every
    ``--times`` and ``--sampled-times`` value finite and non-negative; an
    InputError names the flag.  argparse's float() reads nan, inf and 1e400
    (as inf), and the checks compare with ``>``, which NaN fails."""
    for flag in ("tol", "deviation_tol"):
        value = getattr(args, flag, None)
        if value is not None and not (math.isfinite(value) and value > 0):
            name = flag.replace("_", "-")
            raise InputError(f"--{name}: must be finite and positive, got {value!r}")
    for flag in ("times", "sampled_times"):
        for t in getattr(args, flag, None) or ():
            if not (math.isfinite(t) and t >= 0):
                name = flag.replace("_", "-")
                raise InputError(f"--{name}: must be finite and non-negative, got {t!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_numeric_flags(args)
        report, code = args.func(args)
        text = dumps_canonical(report) + "\n"
        sys.stdout.write(text)
        if args.json_out:
            _write(args.json_out, text)
        return code
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"validation failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
