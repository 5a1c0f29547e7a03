"""Command line: exit codes, report determinism, file round trips."""

import json

import numpy as np
import pytest

import balance_lab.cli as cli
from balance_lab.channels import channel_from_function, identity_channel
from balance_lab.cli import dumps_canonical, main
from balance_lab.couplings import diagonal_coupling, product_coupling
from balance_lab.kernel import matrix_to_json
from balance_lab.lindblad import scenario_build
from balance_lab.states import new_faithful_state

from conftest import make_spec


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


class TestCanonicalJson:
    def test_float_formatting(self):
        assert dumps_canonical(0.5) == "0.5"
        assert dumps_canonical(1e-9) == "1.0000000000000001e-09"
        assert dumps_canonical(1.0) == "1.0"
        assert dumps_canonical(3) == "3"

    def test_report_parses_back(self):
        obj = {"a": [1.0, 2.5e-17], "b": {"c": True, "d": None}}
        assert json.loads(dumps_canonical(obj)) == obj
