"""Command line front end.

All inputs and outputs are JSON files in the wire formats of the library
modules (matrix, state, channel, coupling, scenario).  Reports are printed,
and optionally written, as canonical JSON: keys in a fixed order, floats with
17 significant digits, so identical inputs produce identical bytes.

Exit codes: 0 success, 1 malformed input, 2 validation failure,
3 scenario prediction disagrees with the numeric verdict.

Dynamics files are either a channel ({"dim_in", "dim_out", "superoperator"}
or {"kraus": [...]}) or a semigroup generator ({"kraus": [...],
"hamiltonian": <matrix>} or {"jumps": [...], "hamiltonian": <matrix>?}); the
presence of a Hamiltonian (or the "jumps" key) marks a generator.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from .balance import (
    check_theta_sqdb,
    convergence_probe,
    disjointness_probe,
    is_balanced,
    is_ergodic,
    sampled_balance,
)
from .channels import (
    ReversingOperation,
    channel_from_json,
    channel_from_superoperator,
    validate_ucp,
)
from .couplings import (
    compose,
    coupling_from_channel,
    coupling_from_json,
    extract_channel,
    is_orthogonal,
    is_trivial,
    validate_coupling,
)
from .kernel import DEFAULT_TOL, ad_superop, matrix_from_json, matrix_to_json
from .lindblad import (
    balance_sub_residuals,
    build_generator,
    generator_from_superoperator,
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


def _format_float(x: float) -> str:
    if np.isnan(x) or np.isinf(x):
        return json.dumps(str(x))
    if x == int(x) and abs(x) < 1e16:
        return format(x, ".1f")
    return format(x, ".17g")


def dumps_canonical(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dumps_canonical(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, bool, str, np.floating, np.integer)) for v in seq)
        if flat and len(seq) <= 8:
            return "[" + ", ".join(dumps_canonical(v) for v in seq) + "]"
        items = [f"{pad}  {dumps_canonical(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def emit_report(report: dict, json_out: str | None) -> None:
    text = dumps_canonical(report) + "\n"
    sys.stdout.write(text)
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# input loading


def load_json(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def digest_entry(path: str, sha: str) -> dict:
    return {"path": path, "sha256": sha}


def load_state(path: str):
    """State file: {"dim", "spectrum"} or a general density matrix {"rho"}.

    Returns (state, unitary, digest); the unitary is None unless a
    non-diagonal density matrix was diagonalized at ingestion, in which case
    supplied operators must be conjugated into the eigenbasis.
    """
    obj, sha = load_json(path)
    try:
        if "rho" in obj:
            state, unitary = canonicalize_density_matrix(matrix_from_json(obj["rho"]))
            return state, unitary, digest_entry(path, sha)
        return state_from_json(obj), None, digest_entry(path, sha)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def conjugate_dynamics(dyn, unitary):
    """Express dynamics in the eigenbasis of a diagonalized state: the
    superoperator of a -> U* a U, then the dynamics, then a -> U a U*."""
    if unitary is None:
        return dyn
    s = ad_superop(unitary.conj().T) @ dyn.superoperator @ ad_superop(unitary)
    if dyn.kind == "generator":
        return generator_from_superoperator(s, dyn.dim)
    return channel_from_superoperator(s, dyn.dim_in, dyn.dim_out)


def canonicalization_record(report: dict, **unitaries) -> None:
    applied = {k: u for k, u in unitaries.items() if u is not None}
    if applied:
        report["canonicalization"] = {
            "applied": True,
            "unitaries": {k: matrix_to_json(u) for k, u in applied.items()},
        }
    else:
        report["canonicalization"] = {"applied": False}


def load_coupling(path: str):
    obj, sha = load_json(path)
    try:
        return coupling_from_json(obj), digest_entry(path, sha)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_dynamics(path: str):
    """Channel or generator, detected by the presence of a Hamiltonian/jumps."""
    obj, sha = load_json(path)
    try:
        if "jumps" in obj or ("kraus" in obj and obj.get("hamiltonian") is not None):
            ops = [matrix_from_json(v) for v in obj.get("jumps", obj.get("kraus", []))]
            ham = obj.get("hamiltonian")
            ham = matrix_from_json(ham) if ham is not None else None
            return build_generator(ops, ham), digest_entry(path, sha)
        return channel_from_json(obj), digest_entry(path, sha)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_scenario(path: str):
    obj, sha = load_json(path)
    try:
        return scenario_from_json(obj), digest_entry(path, sha)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def write_json_file(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj) + "\n")


def base_report(command: str, args, inputs: list[dict]) -> dict:
    return {
        "command": command,
        "tolerance": float(args.tol),
        "inputs": inputs,
    }


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    obj, sha = load_json(args.file)
    report = base_report("validate", args, [digest_entry(args.file, sha)])
    tol = args.tol
    if "spectrum" in obj or "rho" in obj:
        report["object_type"] = "state"
        try:
            if "rho" in obj:
                state, unitary = canonicalize_density_matrix(
                    matrix_from_json(obj["rho"])
                )
            else:
                state, unitary = state_from_json(obj), None
        except ValueError as exc:
            if str(exc).startswith("malformed"):
                raise InputError(f"{args.file}: {exc}") from exc
            report["verdicts"] = {"valid": False}
            report["error"] = str(exc)
            emit_report(report, args.json_out)
            return 2
        report["verdicts"] = {"valid": True}
        report["spectrum"] = [float(p) for p in state.spectrum]
        canonicalization_record(report, state=unitary)
        emit_report(report, args.json_out)
        return 0
    if "kappa" in obj:
        report["object_type"] = "coupling"
        try:
            w = coupling_from_json(obj)
        except ValueError as exc:
            raise InputError(f"{args.file}: {exc}") from exc
        cr = validate_coupling(w, tol)
        report["verdicts"] = {
            "psd": cr.psd,
            "marginals_ok": cr.marginal_a_distance <= tol and cr.marginal_b_distance <= tol,
            "trace_ok": cr.trace_defect <= tol,
            "valid": cr.valid,
        }
        report["residuals"] = {
            "trace_defect": cr.trace_defect,
            "marginal_a_distance": cr.marginal_a_distance,
            "marginal_b_distance": cr.marginal_b_distance,
        }
        emit_report(report, args.json_out)
        return 0 if cr.valid else 2
    if "superoperator" in obj or "kraus" in obj or "jumps" in obj:
        dyn, _ = load_dynamics(args.file)
        report["object_type"] = dyn.kind
        if dyn.kind == "generator":
            # unitality was enforced at construction
            report["verdicts"] = {"unital_generator": True, "valid": True}
            emit_report(report, args.json_out)
            return 0
        ur = validate_ucp(dyn, tol)
        report["verdicts"] = ur.to_json()
        report["verdicts"]["valid"] = ur.ucp
        emit_report(report, args.json_out)
        return 0 if ur.ucp else 2
    raise InputError(f"{args.file}: unrecognized object (no spectrum/kappa/superoperator/kraus)")


def cmd_extract_channel(args) -> int:
    w, dig = load_coupling(args.coupling)
    report = base_report("extract-channel", args, [dig])
    cr = validate_coupling(w, args.tol)
    report["verdicts"] = {"coupling_valid": cr.valid}
    if not cr.valid:
        report["residuals"] = cr.to_json()
        emit_report(report, args.json_out)
        return 2
    ch = extract_channel(w)
    ur = validate_ucp(ch, args.tol)
    report["verdicts"]["extracted_ucp"] = ur.ucp
    report["residuals"] = {
        "state_preservation": state_preservation_residual(ch, w.state_a, w.state_b)
    }
    if args.out:
        write_json_file(args.out, ch.to_json())
        report["outputs"] = [args.out]
    emit_report(report, args.json_out)
    return 0


def cmd_coupling_from_channel(args) -> int:
    ch, dig = load_dynamics(args.channel)
    sa, u_a, dig_a = load_state(args.state_a)
    sb, u_b, dig_b = load_state(args.state_b)
    report = base_report("coupling-from-channel", args, [dig, dig_a, dig_b])
    if ch.kind != "channel":
        raise InputError("coupling-from-channel requires a channel, not a generator")
    if u_a is not None or u_b is not None:
        w_out = ad_superop(u_b.conj().T) if u_b is not None else np.eye(ch.dim_out**2)
        w_in_inv = ad_superop(u_a) if u_a is not None else np.eye(ch.dim_in**2)
        ch = channel_from_superoperator(
            w_out @ ch.superoperator @ w_in_inv, ch.dim_in, ch.dim_out
        )
    canonicalization_record(report, state_a=u_a, state_b=u_b)
    ur = validate_ucp(ch, args.tol)
    preserve, preserving = preserves_state(ch, sa, sb, args.tol)
    report["verdicts"] = {"ucp": ur.ucp, "state_preserving": preserving}
    report["residuals"] = {"state_preservation": preserve}
    if not (report["verdicts"]["ucp"] and report["verdicts"]["state_preserving"]):
        report["error"] = "channel does not define a coupling"
        emit_report(report, args.json_out)
        return 2
    w = coupling_from_channel(ch, sa, sb, tol=args.tol)
    if args.out:
        write_json_file(args.out, w.to_json())
        report["outputs"] = [args.out]
    emit_report(report, args.json_out)
    return 0


def _load_triple(args):
    """Systems and coupling, from a scenario file or from explicit files."""
    inputs = []
    if args.scenario:
        spec, dig = load_scenario(args.scenario)
        inputs.append(dig)
        triple = scenario_build(spec)
        return triple.system_a, triple.system_b, triple.coupling, spec, inputs
    if not (args.dynamics_a and args.dynamics_b and args.coupling):
        raise InputError("need --scenario or all of --dynamics-a/--dynamics-b/--coupling")
    dyn_a, d1 = load_dynamics(args.dynamics_a)
    dyn_b, d2 = load_dynamics(args.dynamics_b)
    w, d3 = load_coupling(args.coupling)
    inputs += [d1, d2, d3]
    try:
        sys_a = System(state=w.state_a, dynamics=dyn_a)
        sys_b = System(state=w.state_b, dynamics=dyn_b)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return sys_a, sys_b, w, None, inputs


def cmd_check_balance(args) -> int:
    sys_a, sys_b, w, _, inputs = _load_triple(args)
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
    emit_report(report, args.json_out)
    return 0


def cmd_compose(args) -> int:
    w1, d1 = load_coupling(args.first)
    w2, d2 = load_coupling(args.second)
    report = base_report("compose", args, [d1, d2])
    try:
        composed = compose(w1, w2, tol=args.tol)
    except ValueError as exc:
        report["error"] = str(exc)
        emit_report(report, args.json_out)
        return 2
    report["verdicts"] = {"composable": True, "trivial": is_trivial(composed, args.tol)}
    if args.out:
        write_json_file(args.out, composed.to_json())
        report["outputs"] = [args.out]
    emit_report(report, args.json_out)
    return 0


def cmd_check_orthogonal(args) -> int:
    w1, d1 = load_coupling(args.first)
    w2, d2 = load_coupling(args.second)
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
    emit_report(report, args.json_out)
    return 0


def _load_single_system(args):
    inputs = []
    if args.scenario:
        spec, dig = load_scenario(args.scenario)
        inputs.append(dig)
        triple = scenario_build(spec)
        sys = triple.system_a if args.system == "a" else triple.system_b
        return sys, None, inputs
    if not (args.dynamics and args.state):
        raise InputError("need --scenario or both --dynamics and --state")
    dyn, d1 = load_dynamics(args.dynamics)
    st, unitary, d2 = load_state(args.state)
    dyn = conjugate_dynamics(dyn, unitary)
    inputs += [d1, d2]
    try:
        return System(state=st, dynamics=dyn), unitary, inputs
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cmd_sqdb(args) -> int:
    sys_x, unitary, inputs = _load_single_system(args)
    report = base_report("sqdb", args, inputs)
    canonicalization_record(report, state=unitary)
    if args.theta_unitary:
        obj, sha = load_json(args.theta_unitary)
        inputs.append(digest_entry(args.theta_unitary, sha))
        try:
            unitary = matrix_from_json(obj)
        except ValueError as exc:
            raise InputError(f"{args.theta_unitary}: {exc}") from exc
        th = ReversingOperation(dim=sys_x.dim, unitary=unitary)
    else:
        th = ReversingOperation(dim=sys_x.dim)
    rep = check_theta_sqdb(sys_x, th, args.tol)
    report["verdicts"] = {
        "sqdb": rep.sqdb,
        "via_balance": rep.via_balance,
        "methods_agree": rep.methods_agree,
    }
    report["residuals"] = {"theta_dual_distance": rep.residual}
    emit_report(report, args.json_out)
    return 0


def cmd_ergodic(args) -> int:
    sys_x, unitary, inputs = _load_single_system(args)
    report = base_report("ergodic", args, inputs)
    canonicalization_record(report, state=unitary)
    ergodic = is_ergodic(sys_x, args.tol)
    probe = disjointness_probe(sys_x, args.tol)
    report["verdicts"] = {
        "ergodic": ergodic,
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
    emit_report(report, args.json_out)
    return 0


def cmd_convergence(args) -> int:
    sys_a, sys_b, w, _, inputs = _load_triple(args)
    report = base_report("convergence", args, inputs)
    times = args.times or [0.1, 1.0, 5.0]
    rep = convergence_probe(sys_a, sys_b, w, times, args.tol, args.deviation_tol)
    if rep.certified and rep.threshold_time is not None:
        if not any(t >= rep.threshold_time for t, _ in rep.deviations):
            times = sorted(set(times) | {rep.threshold_time})
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
    emit_report(report, args.json_out)
    return 0


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


def cmd_scenario_run(args) -> int:
    spec, dig = load_scenario(args.spec)
    report = base_report("scenario run", args, [dig])
    result = _scenario_result(spec, args.tol)
    report.update(result)
    emit_report(report, args.json_out)
    return 0 if result["agrees"] else 3


def cmd_scenario_grid(args) -> int:
    if args.builtin:
        specs = standard_grid()
        inputs = []
    else:
        if not args.spec:
            raise InputError("scenario grid needs a spec file or --builtin")
        obj, sha = load_json(args.spec)
        if not isinstance(obj, dict) or not isinstance(obj.get("scenarios"), list):
            raise InputError(f"{args.spec}: expected an object with a 'scenarios' list")
        try:
            specs = [scenario_from_json(s) for s in obj["scenarios"]]
        except ValueError as exc:
            raise InputError(f"{args.spec}: {exc}") from exc
        inputs = [digest_entry(args.spec, sha)]
    report = base_report("scenario grid", args, inputs)
    results = [_scenario_result(s, args.tol) for s in specs]
    mismatches = sum(0 if r["agrees"] else 1 for r in results)
    report["grid_size"] = len(results)
    report["mismatches"] = mismatches
    report["results"] = [
        {"scenario": s.to_json(), **r} for s, r in zip(specs, results)
    ]
    emit_report(report, args.json_out)
    return 0 if mismatches == 0 else 3


# ---------------------------------------------------------------------------
# parser


def _add_common(p):
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--json-out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balance-lab",
        description="couplings, duals and balance checks for quantum Markov semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a state/channel/coupling file")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("extract-channel", help="extract the channel of a coupling")
    p.add_argument("coupling")
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_extract_channel)

    p = sub.add_parser("coupling-from-channel", help="build the coupling of a u.c.p. channel")
    p.add_argument("channel")
    p.add_argument("--state-a", required=True)
    p.add_argument("--state-b", required=True)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_coupling_from_channel)

    p = sub.add_parser("check-balance", help="check balance of two systems through a coupling")
    p.add_argument("--scenario", default=None)
    p.add_argument("--dynamics-a", default=None)
    p.add_argument("--dynamics-b", default=None)
    p.add_argument("--coupling", default=None)
    p.add_argument("--sampled-times", type=float, nargs="*", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_check_balance)

    p = sub.add_parser("compose", help="compose two couplings along the middle state")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("check-orthogonal", help="decide whether two couplings compose to the product")
    p.add_argument("first")
    p.add_argument("second")
    _add_common(p)
    p.set_defaults(func=cmd_check_orthogonal)

    p = sub.add_parser("sqdb", help="standard quantum detailed balance wrt a reversing operation")
    p.add_argument("--scenario", default=None)
    p.add_argument("--system", choices=("a", "b"), default="b")
    p.add_argument("--dynamics", default=None)
    p.add_argument("--state", default=None)
    p.add_argument("--theta-unitary", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_sqdb)

    p = sub.add_parser("ergodic", help="ergodicity and the identity-system witness probe")
    p.add_argument("--scenario", default=None)
    p.add_argument("--system", choices=("a", "b"), default="b")
    p.add_argument("--dynamics", default=None)
    p.add_argument("--state", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_ergodic)

    p = sub.add_parser("convergence", help="convergence transfer through a balanced coupling")
    p.add_argument("--scenario", default=None)
    p.add_argument("--dynamics-a", default=None)
    p.add_argument("--dynamics-b", default=None)
    p.add_argument("--coupling", default=None)
    p.add_argument("--times", type=float, nargs="*", default=None)
    p.add_argument("--deviation-tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("scenario", help="scenario tools")
    ssub = p.add_subparsers(dest="scenario_command", required=True)
    pr = ssub.add_parser("run", help="build a scenario, predict and verify balance")
    pr.add_argument("spec")
    _add_common(pr)
    pr.set_defaults(func=cmd_scenario_run)
    pg = ssub.add_parser("grid", help="run a grid of scenarios")
    pg.add_argument("spec", nargs="?", default=None)
    pg.add_argument("--builtin", action="store_true", help="use the built-in characterization grid")
    pg.add_argument(
        "--jobs", type=int, default=1, help="accepted and ignored; the grid runs serially"
    )
    _add_common(pg)
    pg.set_defaults(func=cmd_scenario_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"validation failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
