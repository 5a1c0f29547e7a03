"""Every verdict report serializes by one rule: its fields in declaration
order, leaving out fields declared repr=False.  The JSON strings below were
written by the hand-made to_json methods that rule replaced, one per report
type and branch, and must stay byte for byte.  Seven values were re-pinned
since, each with the change that moved it: ucp's choi_min_eig, rounding noise
that went from -2.45e-16 to -1.15e-18 when the PSD spectrum became
block-wise; orthogonal's residual, rounding noise that went from 1.14e-16 to
0.0, its exact value (the diagonal coupling composed with the product
coupling is the product coupling), when a composition became the one
product P_psi S_w of pairing matrices instead of a channel weighed back; and
orthogonal's cross_gram_norm, rounding noise that went from 5.89e-17 to 0.0,
its exact value (the dual of the product coupling's channel is constant, so
every centered image of the second family is 0), when the cross-Gram became
that same product with S_w weighed for the GNS inner product instead of a
dense Gram of the two centered families; and balanced's definition_residual,
rounding noise that went from 7.71e-17 to 2.78e-17 when it became the
componentwise cut of the intertwining defect S_E S_alpha - S_beta S_E
instead of P S_alpha - S_beta'^T P with the dual beta' formed; and the
witness's nontriviality_gap, which went from sqrt(3)/4 to sqrt(5)/2 (both
to an ulp) when it became ||B - mu(f) vec(1)^T||_2 on the fixed-point basis
B, a definition change: the old matrix was this one times the KMS weights
diag(r_k r_l) on the right, r = sqrt(p), which weighed each matrix unit by
its state's mass.  The first deviation of convergence_certified and of
convergence_uncertified each moved by one ulp (0.23917718445462666 to
0.2391771844546267, and 0.23993052225476957 to 0.23993052225476963) when the
traces of the spanning states were read off at most four rows of the evolved
images, with an exact 1/2, instead of a dense product with rows that carried
(1/sqrt2)^2 = 0.4999999999999999."""

import dataclasses
import json

import numpy as np
import pytest

from balance_lab.balance import (
    check_theta_sqdb,
    convergence_probe,
    disjointness_probe,
    dual_order_check,
    is_balanced,
    kms_symmetry_flip_check,
)
from balance_lab.channels import (
    ReversingOperation,
    constant_channel,
    identity_channel,
    validate_ucp,
)
from balance_lab.couplings import (
    Coupling,
    diagonal_coupling,
    extract_channel,
    is_orthogonal,
    product_coupling,
    validate_coupling,
)
from balance_lab.kernel import Report
from balance_lab.lindblad import scenario_build
from balance_lab.states import System, new_faithful_state

from conftest import make_spec


def single_cycle(types=("entangled",), g=(0.05, 0.21, 0.47)):
    spec = make_spec(
        cycles=(3,), block_probs=(1.0,), partition=((0,),), types=types,
        k=(0.4,), l=(0.4,), g=g, h=g,
    )
    return scenario_build(spec)


def build_reports() -> dict:
    sym = scenario_build(make_spec(types=("entangled", "entangled"), k=(0.5, 0.5), l=(0.5, 0.5)))
    plain = scenario_build(make_spec())
    th = ReversingOperation(dim=7)
    s3 = new_faithful_state([0.2, 0.3, 0.5])
    s2 = new_faithful_state([0.25, 0.75])
    certified = single_cycle()
    flat = single_cycle(g=(0.0, 0.0, 0.0))
    vacuous = single_cycle(types=("product",))
    short = 0.9 * np.kron(s2.rho, s2.rho)
    return {
        "sqdb": check_theta_sqdb(sym.system_b, th),
        "flip_met": kms_symmetry_flip_check(sym.system_a, sym.system_b, sym.coupling),
        "flip_not_met": kms_symmetry_flip_check(plain.system_a, plain.system_b, plain.coupling),
        "flip_theta": kms_symmetry_flip_check(sym.system_a, sym.system_a, sym.coupling, th=th),
        "dual_order": dual_order_check(plain.system_a, plain.system_b, plain.coupling),
        "disjointness_ergodic": disjointness_probe(System(state=s3, dynamics=constant_channel(s3))),
        "disjointness_witness": disjointness_probe(System(state=s2, dynamics=identity_channel(2))),
        "convergence_certified": convergence_probe(
            certified.system_a, certified.system_b, certified.coupling, (1.0,)
        ),
        "convergence_uncertified": convergence_probe(
            flat.system_a, flat.system_b, flat.coupling, (1.0,)
        ),
        "convergence_vacuous": convergence_probe(
            vacuous.system_a, vacuous.system_b, vacuous.coupling, (1.0, 100.0)
        ),
        "ucp": validate_ucp(extract_channel(plain.coupling)),
        "coupling_valid": validate_coupling(plain.coupling),
        "coupling_invalid": validate_coupling(Coupling(kappa=short, state_a=s2, state_b=s2)),
        "orthogonal": is_orthogonal(diagonal_coupling(s2), product_coupling(s2, s2)),
        "balanced": is_balanced(plain.system_a, plain.system_b, plain.coupling),
    }


PINNED = {
    'sqdb': (
        '{"sqdb": true, "residual": 0.0, "via_balance": true, "methods_agree": true'
        ', "tol": 1e-09}'
    ),
    'flip_met': (
        '{"hypothesis_met": true, "forward_balanced": true, "backward_balanced": true'
        ', "equivalent": true, "theta_forward": null, "theta_backward": null'
        ', "theta_equivalent": null, "message": "kms-symmetric flip equivalence evaluated"}'
    ),
    'flip_not_met': (
        '{"hypothesis_met": false, "forward_balanced": null, "backward_balanced": null'
        ', "equivalent": null, "theta_forward": null, "theta_backward": null'
        ', "theta_equivalent": null'
        ', "message": "hypothesis not met: dynamics are not KMS-symmetric"}'
    ),
    'flip_theta': (
        '{"hypothesis_met": true, "forward_balanced": true, "backward_balanced": true'
        ', "equivalent": true, "theta_forward": true, "theta_backward": true'
        ', "theta_equivalent": true'
        ', "message": "kms-symmetric flip equivalence evaluated; theta variant evaluated"}'
    ),
    'dual_order': (
        '{"primal": true, "dual_pair": true, "kms_pair": true, "consistent": true}'
    ),
    'disjointness_ergodic': (
        '{"ergodic": true, "fixed_space_dim": 1, "witness_found": false'
        ', "balance_residual": null, "nontriviality_gap": null'
        ', "message": "no non-trivial identity-system balance found (consistent with disjointness)"}'
    ),
    'disjointness_witness': (
        '{"ergodic": false, "fixed_space_dim": 4, "witness_found": true'
        ', "balance_residual": 0.0, "nontriviality_gap": 1.1180339887498951'
        ', "message": "identity system on the fixed-point algebra balances the dynamics through the restricted diagonal coupling"}'
    ),
    'convergence_certified': (
        '{"certified": true, "gap": 0.06014240589387371, "vacuous": false'
        ', "deviations": [[1.0, 0.2391771844546267], [831.3601568954386'
        ', 3.5083047578154947e-14]], "threshold_time": 831.3601568954386, "passed": true'
        ', "message": "hypothesis certified spectrally"}'
    ),
    'convergence_uncertified': (
        '{"certified": false, "gap": 1.4999999999999993, "vacuous": false'
        ', "deviations": [[1.0, 0.23993052225476963]], "threshold_time": null, "passed": null'
        ', "message": "spectral condition fails; convergence transfer inapplicable"}'
    ),
    'convergence_vacuous': (
        '{"certified": true, "gap": 0.06014240589387371, "vacuous": true, "deviations": [[1.0'
        ', 5.551115123125783e-17], [100.0, 2.275957200481571e-15], [831.3601568954386'
        ', 3.502753642692369e-14]], "threshold_time": 831.3601568954386, "passed": true'
        ', "message": "hypothesis certified spectrally; extracted channel has scalar range'
        ', statement vacuous"}'
    ),
    'ucp': (
        '{"cp": true, "unital": true, "ucp": true, "choi_min_eig": -1.1505209098589085e-18'
        ', "unital_residual": 3.8459253727671276e-16}'
    ),
    'coupling_valid': (
        '{"psd": true, "trace_defect": 0.0, "marginal_a_distance": 4.8074067159589095e-17'
        ', "marginal_b_distance": 4.8074067159589095e-17, "valid": true, "tol": 1e-09}'
    ),
    'coupling_invalid': (
        '{"psd": true, "trace_defect": 0.09999999999999998'
        ', "marginal_a_distance": 0.07905694150420944'
        ', "marginal_b_distance": 0.07905694150420944, "valid": false, "tol": 1e-09}'
    ),
    'orthogonal': (
        '{"orthogonal": true, "residual": 0.0, "hilbert_criterion": true'
        ', "cross_gram_norm": 0.0, "methods_agree": true, "tol": 1e-09}'
    ),
    'balanced': (
        '{"balanced": true, "residual": 3.9629261228519884e-18'
        ', "definition_residual": 2.7755575615628914e-17, "method_agreement": true'
        ', "tol": 1e-09}'
    ),
}


@pytest.fixture(scope="module")
def reports():
    return build_reports()


@pytest.mark.parametrize("name", list(PINNED))
def test_report_json_is_pinned(reports, name):
    assert json.dumps(reports[name].to_json()) == PINNED[name]


def test_json_is_the_fields_in_order(reports):
    for rep in reports.values():
        assert isinstance(rep, Report)
        shown = [f.name for f in dataclasses.fields(rep) if f.repr]
        assert list(rep.to_json()) == shown


def test_witness_basis_is_not_serialized(reports):
    rep = reports["disjointness_witness"]
    assert len(rep.witness_basis) == 4
    assert "witness_basis" not in rep.to_json()
    assert "witness_basis" not in repr(rep)
