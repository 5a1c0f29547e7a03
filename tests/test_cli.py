"""Command line: exit codes, report determinism, file round trips."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import balance_lab.balance as balance
import balance_lab.cli as cli
import balance_lab.lindblad as lindblad
from balance_lab.channels import constant_channel, identity_channel
from balance_lab.cli import dumps_canonical, main
from balance_lab.couplings import (
    diagonal_coupling,
    extract_channel,
    product_coupling,
)
from balance_lab.kernel import _invariant_blocks, ad_superop, matrix_from_json, matrix_to_json
from balance_lab.lindblad import scenario_build, scenario_coupling, semigroup
from balance_lab.states import canonicalize_density_matrix, new_faithful_state

from conftest import (
    channel_from_function,
    dumps_canonical_reference,
    make_spec,
    random_matrix,
    taylor_exp_oracle,
)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(path, obj):
    path.write_text(dumps_canonical(obj) + "\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_err(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


class TestValidate:
    def test_state_valid(self, workdir, capsys):
        f = write(workdir / "state.json", new_faithful_state([0.5, 0.5]).to_json())
        code, out = run(capsys, "validate", f)
        assert code == 0
        assert json.loads(out)["verdicts"]["valid"] is True

    def test_state_invalid(self, workdir, capsys):
        f = write(workdir / "state.json", {"dim": 2, "spectrum": [0.7, 0.2]})
        code, out = run(capsys, "validate", f)
        assert code == 2
        assert json.loads(out)["verdicts"]["valid"] is False

    def test_malformed_json(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _ = run(capsys, "validate", str(bad))
        assert code == 1

    @pytest.mark.parametrize(
        "obj",
        [
            {"rho": {"rows": 1, "cols": 1, "data": 5}},
            {"dim": 1, "spectrum": 5},
            {
                "dim_in": 1,
                "dim_out": 1,
                "superoperator": {"rows": 1, "cols": 1, "data": [["x", 0]]},
            },
            {
                "dim_in": 1,
                "dim_out": 1,
                "superoperator": {"rows": 1, "cols": 1, "data": [["1", 0]]},
            },
            {"kraus": 5},
            {"jumps": 5},
            {"rho": {"rows": 2, "cols": 2, "data": [[1, 0]]}},
            {"rho": {"rows": 0, "cols": 0, "data": []}},
            {"dim": 2.7, "spectrum": [0.5, 0.5]},
            {"rho": {"rows": "2", "cols": 2, "data": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}},
            {"rho": {"rows": 2, "cols": 2.9, "data": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}},
            {
                "dim_in": True,
                "dim_out": 1,
                "superoperator": {"rows": 1, "cols": 1, "data": [[1, 0]]},
            },
        ],
        ids=[
            "rho-data-scalar",
            "spectrum-scalar",
            "entry-string",
            "entry-numeric-string",
            "kraus-scalar",
            "jumps-scalar",
            "rho-data-short",
            "rho-dims-zero",
            "dim-float",
            "rows-string",
            "cols-float",
            "dim-in-bool",
        ],
    )
    def test_malformed_object_is_input_error(self, workdir, capsys, obj):
        f = write(workdir / "bad.json", obj)
        code, err = run_err(capsys, "validate", f)
        assert code == 1
        assert err.startswith("input error:") and "malformed" in err

    def test_coupling_trace_defect(self, workdir, capsys):
        s = new_faithful_state([0.5, 0.5])
        w = product_coupling(s, s)
        obj = w.to_json()
        obj["kappa"] = matrix_to_json(0.9 * np.kron(s.rho, s.rho))
        f = write(workdir / "w.json", obj)
        code, out = run(capsys, "validate", f)
        assert code == 2
        rep = json.loads(out)
        assert rep["residuals"]["trace_defect"] == pytest.approx(0.1)

    def test_coupling_bad_marginal(self, workdir, capsys):
        s = new_faithful_state([0.5, 0.5])
        other = new_faithful_state([0.2, 0.8])
        w = product_coupling(other, s)
        obj = w.to_json()
        obj["state_a"] = s.to_json()  # lie about the first marginal
        f = write(workdir / "w.json", obj)
        code, out = run(capsys, "validate", f)
        assert code == 2
        rep = json.loads(out)
        assert rep["residuals"]["marginal_a_distance"] > 0.1

    def test_channel_valid(self, workdir, capsys):
        f = write(workdir / "ch.json", identity_channel(2).to_json())
        code, out = run(capsys, "validate", f)
        assert code == 0
        assert json.loads(out)["verdicts"]["ucp"] is True

    def test_channel_not_cp(self, workdir, capsys):
        ch = channel_from_function(lambda a: a.T, 2, 2)
        f = write(workdir / "ch.json", ch.to_json())
        code, out = run(capsys, "validate", f)
        assert code == 2
        assert json.loads(out)["verdicts"]["cp"] is False

    def test_determinism(self, workdir, capsys):
        f = write(workdir / "state.json", new_faithful_state([0.25, 0.75]).to_json())
        _, out1 = run(capsys, "validate", f)
        _, out2 = run(capsys, "validate", f)
        assert out1 == out2

    def test_golden_report(self, workdir, capsys):
        f = write(workdir / "state.json", {"dim": 2, "spectrum": [0.5, 0.5]})
        _, out = run(capsys, "validate", "state.json")
        golden = {
            "command": "validate",
            "tolerance": 1e-9,
            "inputs": [
                {
                    "path": "state.json",
                    "sha256": __import__("hashlib")
                    .sha256((workdir / "state.json").read_bytes())
                    .hexdigest(),
                }
            ],
            "object_type": "state",
            "verdicts": {"valid": True},
            "spectrum": [0.5, 0.5],
            "canonicalization": {"applied": False},
        }
        assert out == dumps_canonical(golden) + "\n"


def rotated_frame(seed=5):
    """A fixed unitary and a distinct-spectrum state expressed in its frame."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    p = np.array([0.5, 0.3, 0.2])
    rho = q @ np.diag(p) @ q.conj().T
    return q, p, rho


class TestCanonicalization:
    def test_validate_density_matrix(self, workdir, capsys):
        _, p, rho = rotated_frame()
        f = write(workdir / "rho.json", {"rho": matrix_to_json(rho)})
        code, out = run(capsys, "validate", f)
        assert code == 0
        rep = json.loads(out)
        assert rep["canonicalization"]["applied"] is True
        assert np.allclose(rep["spectrum"], sorted(p, reverse=True), atol=1e-12)

    def test_validate_diagonal_density_matrix_keeps_order(self, workdir, capsys):
        f = write(
            workdir / "rho.json",
            {"rho": matrix_to_json(np.diag([0.2, 0.5, 0.3]).astype(complex))},
        )
        code, out = run(capsys, "validate", f)
        assert code == 0
        rep = json.loads(out)
        assert rep["canonicalization"]["applied"] is False
        assert rep["spectrum"] == [0.2, 0.5, 0.3]

    def test_validate_unfaithful_density_matrix(self, workdir, capsys):
        f = write(
            workdir / "rho.json",
            {"rho": matrix_to_json(np.diag([1.0, 0.0, 0.0]).astype(complex))},
        )
        code, _ = run(capsys, "validate", f)
        assert code == 2

    def test_ergodic_in_rotated_frame(self, workdir, capsys):
        # a constant channel expressed in a rotated frame is recognized as
        # ergodic once the state file carrying the rotated density matrix is
        # diagonalized and the dynamics is conjugated along
        q, p, rho = rotated_frame()
        n = 3
        one = np.eye(n, dtype=complex).reshape(-1, order="F")
        s_const = np.outer(one, np.conj(rho.reshape(-1, order="F")))
        dyn = {"dim_in": n, "dim_out": n, "superoperator": matrix_to_json(s_const)}
        d = write(workdir / "dyn.json", dyn)
        f = write(workdir / "rho.json", {"rho": matrix_to_json(rho)})
        code, out = run(capsys, "ergodic", "--dynamics", d, "--state", f)
        assert code == 0
        rep = json.loads(out)
        assert rep["canonicalization"]["applied"] is True
        assert rep["verdicts"]["ergodic"] is True
        assert rep["verdicts"]["witness_found"] is False


    @pytest.mark.parametrize("rotated", ["both", "a", "b"])
    def test_coupling_from_channel_in_rotated_frame(self, workdir, capsys, rotated):
        # E = 0.6 id + 0.4 const preserves diag(p); handed over in the frames
        # of rotated density matrices with spectrum p, on both sides or on
        # one, it must give the same kappa as in the diagonal frame
        q_a, p, rho_a = rotated_frame(seed=5)
        q_b, _, _ = rotated_frame(seed=6)
        rho_b = q_b @ np.diag(p) @ q_b.conj().T
        s, v_a = canonicalize_density_matrix(rho_a)
        _, v_b = canonicalize_density_matrix(rho_b)
        s0 = 0.6 * np.eye(9) + 0.4 * constant_channel(s).superoperator
        diag = write(workdir / "diag.json", s.to_json())
        state_a, state_b, s_rot = diag, diag, s0
        if rotated in ("both", "a"):
            state_a = write(workdir / "rho_a.json", {"rho": matrix_to_json(rho_a)})
            s_rot = s_rot @ ad_superop(v_a.conj().T)
        if rotated in ("both", "b"):
            state_b = write(workdir / "rho_b.json", {"rho": matrix_to_json(rho_b)})
            s_rot = ad_superop(v_b) @ s_rot

        def kappa(name, superop, state_a, state_b):
            ch = {"dim_in": 3, "dim_out": 3, "superoperator": matrix_to_json(superop)}
            out = workdir / f"{name}_w.json"
            code, report = run(
                capsys, "coupling-from-channel", write(workdir / f"{name}.json", ch),
                "--state-a", state_a, "--state-b", state_b, "--out", str(out),
            )
            assert code == 0
            applied = json.loads(report)["canonicalization"]["applied"]
            assert applied is (name == "rotated")
            return np.array(json.loads(out.read_text())["kappa"]["data"])

        expected = kappa("diagonal", s0, diag, diag)
        assert np.abs(expected).max() > 0.1
        assert np.abs(kappa("rotated", s_rot, state_a, state_b) - expected).max() <= 1e-12


class TestExtractionRoundtrip:
    def test_extract_and_rebuild(self, workdir, capsys):
        s = new_faithful_state([0.5, 0.5])
        w_file = write(workdir / "diag.json", diagonal_coupling(s).to_json())
        s_file = write(workdir / "state.json", s.to_json())
        code, _ = run(
            capsys, "extract-channel", w_file, "--out", str(workdir / "ch.json")
        )
        assert code == 0
        code, _ = run(
            capsys,
            "coupling-from-channel",
            str(workdir / "ch.json"),
            "--state-a",
            s_file,
            "--state-b",
            s_file,
            "--out",
            str(workdir / "back.json"),
        )
        assert code == 0
        original = json.loads((workdir / "diag.json").read_text())
        rebuilt = json.loads((workdir / "back.json").read_text())
        a = np.array(original["kappa"]["data"])
        b = np.array(rebuilt["kappa"]["data"])
        assert np.abs(a - b).max() <= 1e-10

    def test_rebuild_rejects_non_ucp(self, workdir, capsys):
        s = new_faithful_state([0.5, 0.5])
        ch = channel_from_function(lambda a: a.T, 2, 2)
        ch_file = write(workdir / "t.json", ch.to_json())
        s_file = write(workdir / "state.json", s.to_json())
        code, out = run(
            capsys,
            "coupling-from-channel",
            ch_file,
            "--state-a",
            s_file,
            "--state-b",
            s_file,
        )
        assert code == 2
        assert json.loads(out)["verdicts"]["ucp"] is False


class TestBalanceCommands:
    def test_scenario_balanced(self, workdir, capsys):
        f = write(workdir / "spec.json", make_spec().to_json())
        code, out = run(capsys, "check-balance", "--scenario", f, "--sampled-times", "0.5")
        assert code == 0
        rep = json.loads(out)
        assert rep["verdicts"]["balanced"] is True
        assert rep["sampled"][0]["balanced"] is True

    def test_explicit_files(self, workdir, capsys):
        triple = scenario_build(make_spec())
        gen = triple.system_a.dynamics
        dyn_obj = {
            "kraus": [matrix_to_json(v) for v in gen.jumps],
            "hamiltonian": matrix_to_json(gen.hamiltonian),
        }
        da = write(workdir / "a.json", dyn_obj)
        genb = triple.system_b.dynamics
        db = write(
            workdir / "b.json",
            {
                "kraus": [matrix_to_json(v) for v in genb.jumps],
                "hamiltonian": matrix_to_json(genb.hamiltonian),
            },
        )
        w = write(workdir / "w.json", triple.coupling.to_json())
        code, out = run(
            capsys,
            "check-balance",
            "--dynamics-a",
            da,
            "--dynamics-b",
            db,
            "--coupling",
            w,
        )
        assert code == 0
        assert json.loads(out)["verdicts"]["balanced"] is True

    def test_compose_and_orthogonal(self, workdir, capsys):
        s = new_faithful_state([0.5, 0.5])
        d = write(workdir / "d.json", diagonal_coupling(s).to_json())
        p = write(workdir / "p.json", product_coupling(s, s).to_json())
        code, _ = run(capsys, "compose", d, p, "--out", str(workdir / "c.json"))
        assert code == 0
        composed = json.loads((workdir / "c.json").read_text())
        target = product_coupling(s, s).to_json()
        assert np.abs(
            np.array(composed["kappa"]["data"]) - np.array(target["kappa"]["data"])
        ).max() <= 1e-12

        code, out = run(capsys, "check-orthogonal", p, d)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdicts"]["orthogonal"] is True
        assert rep["verdicts"]["methods_agree"] is True

    def test_compose_middle_mismatch(self, workdir, capsys):
        s2 = new_faithful_state([0.5, 0.5])
        s3 = new_faithful_state([0.2, 0.3, 0.5])
        a = write(workdir / "a.json", product_coupling(s2, s2).to_json())
        b = write(workdir / "b.json", product_coupling(s3, s3).to_json())
        code, out = run(capsys, "compose", a, b)
        assert code == 2
        assert "not composable" in json.loads(out)["error"]


class TestSqdbErgodicConvergence:
    def test_sqdb_scenario(self, workdir, capsys):
        for l, expected in ((0.5, True), (0.3, False)):
            spec = make_spec(k=(l, l), l=(l, l))
            f = write(workdir / f"spec{l}.json", spec.to_json())
            code, out = run(capsys, "sqdb", "--scenario", f)
            assert code == 0
            rep = json.loads(out)
            assert rep["verdicts"]["sqdb"] is expected
            assert rep["verdicts"]["methods_agree"] is True

    def test_sqdb_theta_unitary_exit_codes(self, workdir, capsys):
        spec = make_spec(k=(0.5, 0.5), l=(0.5, 0.5))
        f = write(workdir / "spec.json", spec.to_json())
        phase = np.diag(np.exp(1j * np.linspace(0.2, 1.7, 7)))
        cases = (
            (matrix_to_json(phase), 0, None),
            (matrix_to_json(2.0 * np.eye(7)), 2, "validation failure:"),
            ({"rows": 7, "cols": 7, "data": 5}, 1, "input error:"),
            ({"rows": 7, "cols": 7}, 1, "input error:"),
        )
        for i, (theta, expected, prefix) in enumerate(cases):
            t = write(workdir / f"theta{i}.json", theta)
            code, err = run_err(capsys, "sqdb", "--scenario", f, "--theta-unitary", t)
            assert code == expected
            if prefix is not None:
                assert err.startswith(prefix)

    def test_ergodic_scenario(self, workdir, capsys):
        f = write(workdir / "spec.json", make_spec().to_json())
        code, out = run(capsys, "ergodic", "--scenario", f)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdicts"]["ergodic"] is False
        assert rep["verdicts"]["witness_found"] is True

    def test_convergence_scenario(self, workdir, capsys):
        spec = make_spec(
            cycles=(3,),
            block_probs=(1.0,),
            partition=((0,),),
            types=("entangled",),
            k=(0.4,),
            l=(0.4,),
            g=(0.05, 0.21, 0.47),
            h=(0.05, 0.21, 0.47),
        )
        f = write(workdir / "spec.json", spec.to_json())
        code, out = run(capsys, "convergence", "--scenario", f, "--times", "1.0")
        assert code == 0
        rep = json.loads(out)
        assert rep["verdicts"]["certified"] is True
        assert rep["verdicts"]["passed"] is True

    def test_convergence_default_times_probe_once(self, workdir, capsys, monkeypatch):
        # the default grid (0.1, 1, 5) ends before the threshold time 50 / gap;
        # the probe adds that time itself, so nothing is computed twice
        g = (0.11, -0.52, 0.37, 0.93, -0.08, 0.64, -0.71)
        spec = make_spec(
            cycles=(7,), block_probs=(1.0,), partition=((0,),), types=("entangled",),
            k=(0.4,), l=(0.4,), g=g, h=g,
        )
        f = write(workdir / "spec.json", spec.to_json())
        calls = {}
        for name, home in (("convergence_probe", balance), ("is_balanced", balance),
                           ("semigroup", lindblad)):
            orig = getattr(home, name)

            def counted(*args, _name=name, _orig=orig, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _orig(*args, **kwargs)

            for module in (cli, balance, lindblad):
                if getattr(module, name, None) is orig:
                    monkeypatch.setattr(module, name, counted)
        code, out = run(capsys, "convergence", "--scenario", f)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdicts"]["certified"] is True and rep["verdicts"]["passed"] is True
        assert [d["t"] for d in rep["deviations"]] == [0.1, 1.0, 5.0, rep["threshold_time"]]
        assert calls == {"convergence_probe": 1, "is_balanced": 1, "semigroup": 4}

    @pytest.mark.parametrize("bad", ["nan", "inf", "1e400"])
    def test_non_finite_times_rejected(self, workdir, capsys, bad):
        # a malformed flag is malformed input (TestNumericFlags)
        f = write(workdir / "spec.json", make_spec().to_json())
        for flag, argv in (
            ("--sampled-times", ("check-balance", "--scenario", f, "--sampled-times", "1", bad)),
            ("--times", ("convergence", "--scenario", f, "--times", "1", bad)),
        ):
            code, err = run_err(capsys, *argv)
            assert code == 1
            value = "nan" if bad == "nan" else "inf"
            assert err == f"input error: {flag}: must be finite and non-negative, got {value}\n"


class TestScenarioCommands:
    def test_run_balanced(self, workdir, capsys):
        f = write(workdir / "spec.json", make_spec().to_json())
        code, out = run(capsys, "scenario", "run", f)
        assert code == 0
        rep = json.loads(out)
        assert rep["agrees"] is True
        assert rep["residuals"]["shift_part"] <= 1e-9

    def test_run_unbalanced_agrees(self, workdir, capsys):
        spec = make_spec(types=("entangled", "entangled"), l=(0.3, 0.5))
        f = write(workdir / "spec.json", spec.to_json())
        code, out = run(capsys, "scenario", "run", f)
        assert code == 0
        rep = json.loads(out)
        assert rep["predicted_balanced"] is False and rep["balanced"] is False

    def test_run_mismatch_exit_code(self, workdir, capsys, monkeypatch):
        f = write(workdir / "spec.json", make_spec().to_json())
        monkeypatch.setattr(
            cli,
            "_scenario_result",
            lambda spec, tol: {"predicted_balanced": True, "balanced": False, "agrees": False},
        )
        code, _ = run(capsys, "scenario", "run", f)
        assert code == 3

    def test_grid_file(self, workdir, capsys):
        grid = {
            "scenarios": [
                make_spec().to_json(),
                make_spec(types=("mixed", "product"), l=(0.4, 0.6)).to_json(),
            ]
        }
        f = write(workdir / "grid.json", grid)
        code, out = run(capsys, "scenario", "grid", f)
        assert code == 0
        rep = json.loads(out)
        assert rep["grid_size"] == 2
        assert rep["mismatches"] == 0

    def test_grid_scenarios_not_a_list(self, workdir, capsys):
        f = write(workdir / "grid.json", {"scenarios": 3})
        code, err = run_err(capsys, "scenario", "grid", f)
        assert code == 1
        assert err.startswith("input error:")

    def test_grid_entry_missing_keys_matches_run(self, workdir, capsys):
        entry = {k: v for k, v in make_spec().to_json().items() if k != "types"}
        grid = write(workdir / "grid.json", {"scenarios": [make_spec().to_json(), entry]})
        single = write(workdir / "spec.json", entry)
        for argv in (("scenario", "grid", grid), ("scenario", "run", single)):
            code, err = run_err(capsys, *argv)
            assert code == 1
            assert err.startswith("input error:") and "malformed scenario" in err

    @pytest.mark.parametrize(
        "key, value",
        [("cycles", [3.9, 4]), ("cycles", [3, "4"]), ("partition", [[0], [1.7]]),
         ("partition", [[0], [True]])],
    )
    def test_non_integer_wire_values(self, workdir, capsys, key, value):
        # int() would truncate 3.9 to 3 and 1.7 to 1, and accept "4" and True
        spec = write(workdir / "spec.json", {**make_spec().to_json(), key: value})
        code, err = run_err(capsys, "scenario", "run", spec)
        assert code == 1
        assert err.startswith("input error:")
        assert f"malformed scenario object: {key}[" in err and "must be an integer" in err

    @pytest.mark.parametrize(
        "key, value",
        [("block_probs", ["0.45", 0.55]), ("block_probs", [0.45, True]), ("k", ["0.3", 0.6]),
         ("l", [0.3, "0.6"]), ("g", "0123456"), ("g", ["0"] + [0.0] * 6), ("h", [0.0] * 6 + ["0"])],
    )
    def test_string_float_wire_values(self, workdir, capsys, key, value):
        # float() would read "0123456" as the seven numbers 0, 1, ..., 6
        spec = write(workdir / "spec.json", {**make_spec().to_json(), key: value})
        code, err = run_err(capsys, "scenario", "run", spec)
        assert code == 1
        assert err.startswith("input error:")
        assert f"malformed scenario object: {key}[" in err and "must be a number" in err

    def test_integer_float_values_accepted(self, workdir, capsys):
        # a JSON integer is a JSON number: g = 0 and block probs 0/1 are fine
        spec = make_spec(types=("entangled",), partition=((0,),), k=(0.3,), l=(0.3,), cycles=(7,),
                         block_probs=(1.0,))
        obj = {**spec.to_json(), "g": [0] * 7, "h": [0] * 7, "block_probs": [1]}
        code, out = run(capsys, "scenario", "run", write(workdir / "spec.json", obj))
        assert code == 0 and json.loads(out)["agrees"]

    def test_grid_builtin(self, workdir, capsys):
        code, out = run(capsys, "scenario", "grid", "--builtin")
        assert code == 0
        rep = json.loads(out)
        assert rep["grid_size"] >= 48
        assert rep["mismatches"] == 0

    def test_grid_jobs_deterministic(self, workdir, capsys):
        grid = {
            "scenarios": [
                make_spec().to_json(),
                make_spec(types=("product", "product")).to_json(),
            ]
        }
        f = write(workdir / "grid.json", grid)
        _, out1 = run(capsys, "scenario", "grid", f, "--jobs", "1")
        _, out2 = run(capsys, "scenario", "grid", f, "--jobs", "2")
        assert out1 == out2


class TestInputPaths:
    """Every file goes through one loader; every failure to read or write a
    file is an input error (exit 1), never a traceback."""

    @pytest.fixture
    def files(self, workdir):
        s = new_faithful_state([0.5, 0.5])
        return {
            "dyn": write(workdir / "dyn.json", identity_channel(2).to_json()),
            "state": write(workdir / "state.json", s.to_json()),
            "w": write(workdir / "w.json", product_coupling(s, s).to_json()),
        }

    @pytest.mark.parametrize("top", [5, [1, 2], "kraus", None], ids=["int", "list", "str", "null"])
    @pytest.mark.parametrize("role", ["validate", "--dynamics", "--state", "--dynamics-a"])
    def test_non_object(self, workdir, capsys, files, top, role):
        bad = str(workdir / "bad.json")
        (workdir / "bad.json").write_text(json.dumps(top), encoding="utf-8")
        argv = {
            "validate": ["validate", bad],
            "--dynamics": ["ergodic", "--dynamics", bad, "--state", files["state"]],
            "--state": ["ergodic", "--dynamics", files["dyn"], "--state", bad],
            "--dynamics-a": [
                "check-balance", "--dynamics-a", bad, "--dynamics-b", files["dyn"],
                "--coupling", files["w"],
            ],
        }[role]
        code, err = run_err(capsys, *argv)
        assert code == 1
        assert err.startswith(f"input error: {bad}:")

    @pytest.mark.parametrize("flag", ["--out", "--json-out"])
    def test_unwritable_output(self, workdir, capsys, files, flag):
        path = str(workdir / "missing" / "r.json")
        code, err = run_err(capsys, "extract-channel", files["w"], flag, path)
        assert code == 1
        assert err.startswith(f"input error: {path}:")


def key_paths(obj, prefix=""):
    """The ordered dotted key paths of a report; a list of objects
    contributes the paths of its first entry under "[]"."""
    if isinstance(obj, dict):
        paths = []
        for k, v in obj.items():
            paths += [prefix + k] + key_paths(v, f"{prefix}{k}.")
        return paths
    if isinstance(obj, list) and obj and isinstance(obj[0], dict):
        return key_paths(obj[0], prefix + "[].")
    return []


def schema_commands(workdir):
    """One command of each kind on scenario-built n = 7 inputs."""
    spec = make_spec()
    psi_spec = make_spec(types=("product", "entangled"))
    w = scenario_coupling(spec)
    f = {
        "spec": write(workdir / "spec.json", spec.to_json()),
        "grid": write(workdir / "grid.json", {"scenarios": [spec.to_json(), psi_spec.to_json()]}),
        "w": write(workdir / "w.json", w.to_json()),
        "psi": write(workdir / "psi.json", scenario_coupling(psi_spec).to_json()),
        "channel": write(workdir / "channel.json", extract_channel(w).to_json()),
        "state": write(workdir / "state.json", w.state_a.to_json()),
    }
    return {
        "validate": ["validate", f["w"]],
        "extract-channel": ["extract-channel", f["w"], "--out", "e.json"],
        "coupling-from-channel": [
            "coupling-from-channel", f["channel"], "--state-a", f["state"],
            "--state-b", f["state"], "--out", "w_back.json",
        ],
        "check-balance": ["check-balance", "--scenario", f["spec"], "--sampled-times", "0.5"],
        "compose": ["compose", f["w"], f["psi"], "--out", "composed.json"],
        "check-orthogonal": ["check-orthogonal", f["w"], f["psi"]],
        "sqdb": ["sqdb", "--scenario", f["spec"]],
        "ergodic": ["ergodic", "--scenario", f["spec"]],
        "convergence": ["convergence", "--scenario", f["spec"], "--times", "1.0"],
        "scenario-run": ["scenario", "run", f["spec"]],
        "scenario-grid": ["scenario", "grid", f["grid"]],
    }


HEAD = ["command", "tolerance", "inputs", "inputs.[].path", "inputs.[].sha256"]
CANON = ["canonicalization", "canonicalization.applied"]
SCENARIO = ["cycles", "block_probs", "partition", "types", "k", "l", "g", "h"]
RESULT = ["predicted_balanced", "balanced", "agrees", "method_agreement", "residuals"] + [
    f"residuals.{k}" for k in ("intertwining", "definition", "shift_part", "commutator_part")
]

# command -> (exit code, verdicts, key paths after HEAD); floats are not
# pinned, since their last digits vary with the platform
SCHEMA = {
    "validate": (
        0,
        {"psd": True, "marginals_ok": True, "trace_ok": True, "valid": True},
        ["object_type", "verdicts", "verdicts.psd", "verdicts.marginals_ok",
         "verdicts.trace_ok", "verdicts.valid", "residuals", "residuals.trace_defect",
         "residuals.marginal_a_distance", "residuals.marginal_b_distance"],
    ),
    "extract-channel": (
        0,
        {"coupling_valid": True, "extracted_ucp": True},
        ["verdicts", "verdicts.coupling_valid", "verdicts.extracted_ucp", "residuals",
         "residuals.state_preservation", "outputs"],
    ),
    "coupling-from-channel": (
        0,
        {"ucp": True, "state_preserving": True},
        CANON + ["verdicts", "verdicts.ucp", "verdicts.state_preserving", "residuals",
                 "residuals.state_preservation", "outputs"],
    ),
    "check-balance": (
        0,
        {"balanced": True, "method_agreement": True},
        ["verdicts", "verdicts.balanced", "verdicts.method_agreement", "residuals",
         "residuals.intertwining", "residuals.definition", "sampled", "sampled.[].t",
         "sampled.[].balanced", "sampled.[].residual"],
    ),
    "compose": (
        0,
        {"composable": True, "trivial": False},
        ["verdicts", "verdicts.composable", "verdicts.trivial", "outputs"],
    ),
    "check-orthogonal": (
        0,
        {"orthogonal": False, "hilbert_criterion": False, "methods_agree": True},
        ["verdicts", "verdicts.orthogonal", "verdicts.hilbert_criterion",
         "verdicts.methods_agree", "residuals", "residuals.composition_vs_product",
         "residuals.cross_gram_norm"],
    ),
    "sqdb": (
        0,
        {"sqdb": False, "via_balance": False, "methods_agree": True},
        CANON + ["verdicts", "verdicts.sqdb", "verdicts.via_balance", "verdicts.methods_agree",
                 "residuals", "residuals.theta_dual_distance"],
    ),
    "ergodic": (
        0,
        {"ergodic": False, "witness_found": True},
        CANON + ["verdicts", "verdicts.ergodic", "verdicts.witness_found", "fixed_space_dim",
                 "residuals", "residuals.witness_balance", "residuals.nontriviality_gap",
                 "witnesses", "witnesses.[].rows", "witnesses.[].cols", "witnesses.[].data",
                 "message"],
    ),
    "convergence": (
        0,
        {"certified": False, "vacuous": False, "passed": None},
        ["verdicts", "verdicts.certified", "verdicts.vacuous", "verdicts.passed", "gap",
         "threshold_time", "deviations", "deviations.[].t", "deviations.[].sup_deviation",
         "message"],
    ),
    "scenario-run": (
        0,
        {"predicted_balanced": True, "balanced": True, "agrees": True, "method_agreement": True},
        RESULT,
    ),
    "scenario-grid": (
        0,
        {},
        ["grid_size", "mismatches", "results", "results.[].scenario"]
        + [f"results.[].scenario.{k}" for k in SCENARIO]
        + [f"results.[].{k}" for k in RESULT],
    ),
}


class TestReportSchema:
    """Exit code, verdicts and the ordered key paths of every command's report."""

    @pytest.mark.parametrize("command", sorted(SCHEMA))
    def test_schema(self, workdir, capsys, command):
        code, out = run(capsys, *schema_commands(workdir)[command])
        report = json.loads(out)
        verdicts = report.get("verdicts", {k: v for k, v in report.items() if isinstance(v, bool)})
        assert (code, verdicts, key_paths(report)) == (
            SCHEMA[command][0],
            SCHEMA[command][1],
            HEAD + SCHEMA[command][2],
        )


class TestCanonicalJson:
    def test_float_formatting(self):
        assert dumps_canonical(0.5) == "0.5"
        assert dumps_canonical(1e-9) == "1.0000000000000001e-09"
        assert dumps_canonical(1.0) == "1.0"
        assert dumps_canonical(3) == "3"

    def test_report_parses_back(self):
        obj = {"a": [1.0, 2.5e-17], "b": {"c": True, "d": None}}
        assert json.loads(dumps_canonical(obj)) == obj

    @pytest.mark.parametrize(
        "value",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            -0.0,
            1e16,
            1e17,
            2.0,
            np.float64(0.1),
            np.float64(-3.0),
            np.int64(7),
            True,
            None,
            "a \"quoted\" string",
            (1, 2.5, "x"),
            {},
            [],
            [0.1 * k for k in range(9)],
            [None, 1.0],
        ],
        ids=repr,
    )
    def test_scalars_and_containers_match_reference(self, value):
        assert dumps_canonical(value) == dumps_canonical_reference(value)

    def test_nested_report_matches_reference(self):
        report = {
            "command": "check-balance",
            "verdicts": {"balanced": True, "methods_agree": False},
            "residuals": {"definition": 2.5e-17, "nan": float("nan"), "zero": -0.0},
            "times": (0.1, 1.0, 5.0),
            "results": [{"n": np.int64(12), "ok": None}, {"x": [[1.0, -0.0], [1e17, 3]]}],
            "empty": {"list": [], "dict": {}},
        }
        assert dumps_canonical(report) == dumps_canonical_reference(report)

    def test_n12_coupling_and_channel_match_reference(self):
        spec = make_spec(
            types=("entangled", "mixed", "product"),
            partition=((0,), (1,), (2,)),
            cycles=(4, 4, 4),
            k=(0.3, 0.6, 0.45),
            l=(0.3, 0.6, 0.7),
            g=tuple(0.1 * q for q in range(12)),
            h=tuple(0.05 * q for q in range(12)),
            block_probs=(0.2, 0.3, 0.5),
        )
        triple = scenario_build(spec)
        for obj in (triple.coupling, semigroup(triple.system_a.dynamics, 1.0)):
            data = obj.to_json()
            assert dumps_canonical(data) == dumps_canonical_reference(data)

    def test_matrix_to_json_keeps_signed_zeros_and_views(self):
        m = random_matrix(5, seed=3)
        m[0, 0], m[0, 1], m[1, 1] = -0.0, complex(0.0, -0.0), complex(np.nan, -np.inf)
        for view in (m, m.T, m[:, 1:2], m[0:1, ::2], m[::-2, ::3]):
            data = matrix_to_json(view)["data"]
            entries = [[float(z.real), float(z.imag)] for z in view.reshape(-1)]
            assert dumps_canonical(data) == dumps_canonical_reference(entries)
            # the wire reads finite entries back, and rejects the NaN entry
            if np.isfinite(view).all():
                assert np.array_equal(matrix_from_json(matrix_to_json(view)), view)
            else:
                with pytest.raises(ValueError, match="must be finite"):
                    matrix_from_json(matrix_to_json(view))


class TestImport:
    """The CLI loads scipy only when a command exponentiates a generator."""

    SCRIPT = (
        "import json, sys\n"
        "import balance_lab.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "from balance_lab.kernel import mat_exp, matrix_from_json, matrix_to_json\n"
        "x = mat_exp(matrix_from_json(json.load(sys.stdin)))\n"
        "print(json.dumps({'loaded': loaded, 'exp': matrix_to_json(x)}))\n"
    )

    def test_cli_import_leaves_scipy_unloaded_until_mat_exp(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        m = 0.7 * random_matrix(6, seed=5)
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            input=json.dumps(matrix_to_json(m)),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        out = json.loads(proc.stdout)
        assert out["loaded"] == []
        y = taylor_exp_oracle(m)
        x = matrix_from_json(out["exp"])
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)


def assert_leaves_close(x, y):
    """Equal structure and non-float leaves; floats agree to 1e-12 relative,
    or to 1e-14 absolute where both are below 1e-12: a deviation that has
    decayed to rounding noise (about 2e-14 at t = 1000) keeps no digits."""
    if isinstance(x, dict):
        assert isinstance(y, dict) and x.keys() == y.keys()
        for key in x:
            assert_leaves_close(x[key], y[key])
    elif isinstance(x, list):
        assert isinstance(y, list) and len(x) == len(y)
        for a, b in zip(x, y):
            assert_leaves_close(a, b)
    elif isinstance(x, float) and isinstance(y, float):
        size = max(abs(x), abs(y))
        assert abs(x - y) <= (1e-12 * size if size >= 1e-12 else 1e-14)
    else:
        assert x == y


class TestBlockwiseMatchesDense:
    """check-balance --sampled-times and convergence exponentiate and
    diagonalize block by block; the dense scipy expm and numpy eigvals give
    the same verdicts and the same floats to rounding."""

    G7 = (0.11, -0.52, 0.37, 0.93, -0.08, 0.64, -0.71)
    G12 = (0.2, -0.4, 0.9, 0.1, -0.6, 0.3, 0.75, -0.15, 0.5, -0.9, 0.05, 0.45)
    SPECS = {
        "one 7-cycle": make_spec(
            cycles=(7,),
            block_probs=(1.0,),
            partition=((0,),),
            types=("entangled",),
            k=(0.4,),
            l=(0.4,),
            g=G7,
            h=tuple(x + 0.3 for x in G7),
        ),
        "three 4-cycles": make_spec(
            cycles=(4, 4, 4),
            block_probs=(0.3, 0.3, 0.4),
            partition=((0,), (1,), (2,)),
            types=("entangled", "mixed", "product"),
            k=(0.3, 0.6, 0.45),
            l=(0.3, 0.6, 0.2),
            g=G12,
            h=tuple(x + 0.2 for x in G12[:4]) + (0.1,) * 8,
        ),
    }

    def reports(self, capsys, f):
        out = []
        for argv in (
            ("check-balance", "--scenario", f, "--sampled-times", "0.1", "1", "5"),
            ("convergence", "--scenario", f, "--times", "1", "1000"),
        ):
            code, text = run(capsys, *argv)
            assert code == 0
            out.append(json.loads(text))
        return out

    @pytest.mark.parametrize("name", SPECS)
    def test_reports_match_dense(self, workdir, capsys, monkeypatch, name):
        spec = self.SPECS[name]
        triple = scenario_build(spec)
        for sys_x in (triple.system_a, triple.system_b):
            assert sum(idx.shape[0] for idx in _invariant_blocks(sys_x.dynamics.superoperator)) > 1
        f = write(workdir / "spec.json", spec.to_json())
        blockwise = self.reports(capsys, f)
        # semigroup hands mat_exp the generator's split, and convergence_probe
        # hands it to eigenvalues; the dense expm and eigvals ignore it
        monkeypatch.setattr(lindblad, "mat_exp", lambda m, blocks=None: scipy.linalg.expm(m))
        monkeypatch.setattr(balance, "eigenvalues", lambda m, blocks=None: np.linalg.eigvals(m))
        dense = self.reports(capsys, f)
        for x, y in zip(blockwise, dense):
            assert x["verdicts"] == y["verdicts"]
            assert_leaves_close(x, y)


class TestNonFiniteScenario:
    """Python's json reads NaN and Infinity; such an entry in any float field
    of a scenario exits 1 with an input error that names the field, for a
    single spec and inside a grid file alike, before any arithmetic runs."""

    CASES = [
        ("k", [math.nan, 0.6]),
        ("l", [0.3, math.inf]),
        ("block_probs", [math.nan, 0.55]),
        ("g", [math.inf] + [0.0] * 6),
        ("h", [0.0] * 6 + [-math.inf]),
    ]

    @staticmethod
    def write_raw(path, obj):
        text = json.dumps(obj)
        assert "NaN" in text or "Infinity" in text
        path.write_text(text, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("key, value", CASES)
    def test_scenario_run(self, workdir, capsys, key, value):
        f = self.write_raw(workdir / "spec.json", {**make_spec().to_json(), key: value})
        code, err = run_err(capsys, "scenario", "run", f)
        assert code == 1
        assert err.startswith("input error:") and f": {key} must " in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key, value", CASES)
    def test_grid_file(self, workdir, capsys, key, value):
        good = make_spec().to_json()
        f = self.write_raw(workdir / "grid.json", {"scenarios": [good, {**good, key: value}]})
        code, err = run_err(capsys, "scenario", "grid", f)
        assert code == 1
        assert err.startswith("input error:") and f": {key} must " in err
        assert err.count("\n") == 1

    def test_check_balance_scenario_flag(self, workdir, capsys):
        f = self.write_raw(workdir / "spec.json", {**make_spec().to_json(), "k": [math.nan, 0.6]})
        code, err = run_err(capsys, "check-balance", "--scenario", f)
        assert code == 1
        assert err.startswith("input error:") and ": k must " in err


class TestNumericFlags:
    """argparse reads nan, inf and 1e400 (as inf) as floats: a tolerance
    that is not finite and positive, or a time that is not finite and
    non-negative, exits 1 with an input error that names the flag, before
    any arithmetic runs."""

    # the non-finite times are TestSqdbErgodicConvergence's
    TOLS = ["nan", "-1", "inf", "0", "1e400"]
    CASES = (
        [(("check-balance", "--scenario", "{f}", "--sampled-times", "0"), "--sampled-times", "-1"),
         (("convergence", "--scenario", "{f}", "--times", "1"), "--times", "-1")]
        + [(("scenario", "run", "{f}"), "--tol", v) for v in TOLS]
        + [(("convergence", "--scenario", "{f}"), "--deviation-tol", v) for v in TOLS]
    )

    @pytest.mark.parametrize("argv, flag, value", CASES)
    def test_rejected(self, workdir, capsys, argv, flag, value):
        f = write(workdir / "spec.json", make_spec().to_json())
        code, err = run_err(capsys, *(a.format(f=f) for a in argv), flag, value)
        assert code == 1
        assert err.startswith(f"input error: {flag}: must be finite and ")
        assert err.count("\n") == 1

    def test_valid_values_accepted(self, workdir, capsys):
        f = write(workdir / "spec.json", make_spec().to_json())
        for argv in (
            ("check-balance", "--scenario", f, "--sampled-times", "0", "0.5", "--tol", "1e-6"),
            ("convergence", "--scenario", f, "--times", "0", "2", "--deviation-tol", "1e-3"),
        ):
            code, _ = run(capsys, *argv)
            assert code == 0


class TestMalformedState:
    """A state file whose spectrum holds NaN, an infinity, a string or a bool
    exits 1 with an input error that names the entry, in validate and
    inside a coupling file alike; a finite spectrum that is not a state
    stays a verdict (exit 2)."""

    CASES = [
        ([math.nan, 0.5], "spectrum[0] must be finite"),
        ([0.5, math.inf], "spectrum[1] must be finite"),
        (["0.25", "0.75"], "spectrum[0] must be a number"),
        ([0.25, True], "spectrum[1] must be a number"),
    ]

    @pytest.mark.parametrize("spectrum, message", CASES)
    def test_validate(self, workdir, capsys, spectrum, message):
        f = workdir / "state.json"
        f.write_text(json.dumps({"dim": 2, "spectrum": spectrum}), encoding="utf-8")
        code, err = run_err(capsys, "validate", str(f))
        assert code == 1
        assert err.startswith("input error:") and f"malformed state object: {message}" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("spectrum, message", CASES)
    def test_coupling_file(self, workdir, capsys, spectrum, message):
        obj = diagonal_coupling(new_faithful_state([0.25, 0.75])).to_json()
        obj["state_b"]["spectrum"] = spectrum
        f = workdir / "w.json"
        f.write_text(json.dumps(obj), encoding="utf-8")
        code, err = run_err(capsys, "extract-channel", str(f))
        assert code == 1
        assert err.startswith("input error:") and message in err

    def test_negative_entry_is_a_verdict(self, workdir, capsys):
        f = write(workdir / "state.json", {"dim": 2, "spectrum": [-0.25, 1.25]})
        code, out = run(capsys, "validate", f)
        report = json.loads(out)
        assert code == 2 and report["verdicts"] == {"valid": False}
        assert report["error"] == "state not faithful: spectrum has a non-positive entry"


class TestNonFiniteMatrix:
    """A NaN or infinite entry in a wire matrix is malformed input (exit 1),
    named by its index in ``data``, wherever the matrix sits: a state's rho,
    a coupling's kappa, a channel's superoperator."""

    @staticmethod
    def check(workdir, capsys, obj, index, *argv):
        f = workdir / "in.json"
        # json writes NaN and Infinity as Python's json reads them
        f.write_text(json.dumps(obj), encoding="utf-8")
        code, err = run_err(capsys, *argv, str(f))
        assert code == 1
        assert err.startswith("input error:")
        assert f"malformed matrix object: data[{index}] must be finite" in err

    def test_validate_rho(self, workdir, capsys):
        rho = {"rows": 2, "cols": 2, "data": [[math.nan, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}
        self.check(workdir, capsys, {"rho": rho}, 0, "validate")

    def test_coupling_kappa(self, workdir, capsys):
        obj = diagonal_coupling(new_faithful_state([0.25, 0.75])).to_json()
        obj["kappa"]["data"][5] = [0.0, math.inf]
        self.check(workdir, capsys, obj, 5, "validate")
        self.check(workdir, capsys, obj, 5, "extract-channel")

    def test_channel_superoperator(self, workdir, capsys):
        obj = identity_channel(2).to_json()
        obj["superoperator"]["data"][3] = [math.nan, 0.0]
        self.check(workdir, capsys, obj, 3, "validate")
