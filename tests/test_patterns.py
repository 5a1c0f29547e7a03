"""Every dynamics holds its exact nonzero pattern as a kernel._Factor, and
is_balanced forms its defect on the patterns of its operands.

A maker that knows the pattern leaves a recipe for it (cycle_generator,
semigroup, dual, the KMS conjugate); any other dynamics is scanned once, on
first use.  Either way the pattern is the one kernel._factor scans off the
dense superoperator, to the bit.  is_balanced sums D = S_E S_alpha -
S_beta S_E term by term on the union of the two patterns, unless the cost
rule sends it to the dense products, and gives the dense reference's
verdicts (conftest.is_balanced_dense) with floats that differ by rounding
only."""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

import balance_lab.channels as channels
import balance_lab.kernel as kernel
import balance_lab.lindblad as lindblad
from balance_lab.balance import dual_order_check, is_balanced, sampled_balance
from balance_lab.channels import _kms_conjugate, change_frame, dual, kms_dual
from balance_lab.couplings import (
    _weigh_rows,
    diagonal_coupling,
    flip_coupling,
    has_scalar_range,
    kms_flip,
    product_coupling,
)
from balance_lab.kernel import _defect_on_pattern, _factor, _invariant_blocks, close, kron
from balance_lab.lindblad import (
    build_generator,
    scenario_build,
    scenario_coupling,
    scenario_predict,
    semigroup,
    standard_grid,
)
from balance_lab.states import System, new_faithful_state
from conftest import (
    assert_same_factor,
    is_balanced_dense,
    kraus_coupling,
    make_spec,
    preserving_generator,
    probe_like_triples,
    random_matrix,
    rescaled_triple,
)

GRID = standard_grid()
TIMES = (0.0, 5e-324, 1.0, 1000.0)


def rotated_triple():
    """A one-cycle scenario whose two generators are conjugated by one
    random unitary: each superoperator is one dense 49 x 49 block, built by
    build_generator and scanned; the state of one cycle is maximally mixed,
    so it is kept."""
    spec = make_spec(types=("entangled",), partition=((0,),), k=(0.4,), l=(0.4,),
                     g=tuple(np.linspace(-0.6, 0.9, 7)), h=tuple(np.linspace(-0.5, 1.0, 7)),
                     cycles=(7,), block_probs=(1.0,))
    t = scenario_build(spec)
    u, _ = np.linalg.qr(random_matrix(7, seed=31))
    systems = []
    for s in (t.system_a, t.system_b):
        gen = s.dynamics
        rotated = build_generator([u @ v @ u.conj().T for v in gen.jumps],
                                  u @ gen.hamiltonian @ u.conj().T)
        systems.append(System(state=s.state, dynamics=rotated))
    w = product_coupling(t.coupling.state_a, t.coupling.state_b)
    return systems[0], systems[1], w


def families():
    """(name, system) for both systems of every grid triple, the four
    probe-like triples and the rotated triple."""
    out = []
    for i, spec in enumerate(GRID):
        t = scenario_build(spec)
        out += [(f"grid{i}-a", t.system_a), (f"grid{i}-b", t.system_b)]
    for i, t in enumerate(probe_like_triples()):
        out += [(f"probe{i}-a", t.system_a), (f"probe{i}-b", t.system_b)]
    a, b, _ = rotated_triple()
    return out + [("rotated-a", a), ("rotated-b", b)]


FAMILIES = families()


def derived(system):
    """(name, dynamics) of every maker that derives a pattern, from the
    generator of ``system``, and of change_frame, which scans."""
    gen, s = system.dynamics, system.state
    out = [("generator", gen), ("dual", dual(gen, s, s)), ("kms_dual", kms_dual(gen, s, s))]
    out.append(("kms_conjugate", _kms_conjugate(gen)))
    u, _ = np.linalg.qr(random_matrix(s.dim, seed=s.dim))
    out.append(("change_frame", change_frame(gen, u, u.conj().T)))
    for t in TIMES:
        channel = semigroup(gen, t)
        out += [(f"semigroup-{t}", channel), (f"semigroup-{t}-dual", dual(channel, s, s)),
                (f"semigroup-{t}-kms", kms_dual(channel, s, s))]
    return out


class TestHeldPatterns:
    @pytest.mark.parametrize("index", range(0, len(FAMILIES), 1))
    def test_pattern_is_the_scanned_factor(self, index):
        name, system = FAMILIES[index]
        for kind, dyn in derived(system):
            assert_same_factor(dyn.pattern, _factor(dyn.superoperator))
            assert dyn.pattern is dyn.pattern, (name, kind)

    def test_build_generator_is_scanned_on_first_use(self):
        a, _, _ = rotated_triple()
        gen = build_generator(a.dynamics.jumps, a.dynamics.hamiltonian)
        assert "pattern" not in vars(gen)
        assert_same_factor(gen.pattern, _factor(gen.superoperator))
        assert gen.pattern.block is not None and len(gen.invariant_blocks) == 1

    def test_makers_do_not_scan(self, monkeypatch):
        """cycle_generator, semigroup, dual and the KMS conjugate give their
        patterns and the generator's split with no scan of a superoperator."""
        triples = probe_like_triples() + [scenario_build(spec) for spec in GRID[::7]]

        def no_scan(*args):
            raise AssertionError("a held pattern was scanned")

        for module, name in ((channels, "_factor"), (lindblad, "_factor"),
                             (kernel, "_invariant_blocks"), (kernel, "_factor")):
            monkeypatch.setattr(module, name, no_scan)
        for t in triples:
            gen, s = t.system_a.dynamics, t.system_a.state
            assert len(gen.invariant_blocks) >= 1
            for dyn in (gen, dual(gen, s, s), kms_dual(gen, s, s), semigroup(gen, 1.0),
                        dual(semigroup(gen, 0.5), s, s), kms_dual(semigroup(gen, 2.0), s, s)):
                assert dyn.pattern.form(0)[0].size > 0

    @pytest.mark.parametrize("index", range(0, len(FAMILIES), 5))
    def test_split_is_read_off_the_pattern(self, index):
        _, system = FAMILIES[index]
        gen = system.dynamics
        got, want = gen.invariant_blocks, _invariant_blocks(gen.superoperator)
        assert [x.tolist() for x in got] == [x.tolist() for x in want]

    def test_derived_pattern_keeps_the_parent(self):
        """A dual's pattern is its parent's transposed, reweighed: the
        index arrays of the parent's two forms, swapped."""
        t = probe_like_triples()[2]
        gen, s = t.system_a.dynamics, t.system_a.state
        d = dual(gen, s, s)
        assert d.pattern.form(0)[0] is gen.pattern.form(1)[0]
        assert d.pattern.form(1)[0] is gen.pattern.form(0)[0]


def assert_same_report(got, want):
    """The verdicts of two balance reports equal, their floats equal to
    rounding: 1e-12 relative, or 1e-14 absolute below 1e-12."""
    got, want = got.to_json(), want.to_json()
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            size = max(abs(value), abs(got[key]))
            assert abs(got[key] - value) <= (1e-12 * size if size >= 1e-12 else 1e-14), key
        else:
            assert got[key] == value, key


class TestDefectOnPattern:
    def test_probes_take_the_pattern(self):
        for t in probe_like_triples():
            a, b, w = t.system_a, t.system_b, t.coupling
            s_e = _weigh_rows(w.factor, w.state_b.inv_sqrt_spectrum)
            assert _defect_on_pattern(s_e, a.dynamics, b.dynamics) is not None
            rep = is_balanced(a, b, w)
            assert_same_report(rep, is_balanced_dense(a, b, w))
            assert rep.balanced == scenario_predict(t.spec) and rep.method_agreement

    def test_grid_stays_dense_with_no_scan(self):
        """At n = 7 the inner dimension n^2 = 49 is below GATHER_COST: the
        products stay on the support of S_E, as before patterns, and no
        pattern of a scanned generator is built."""
        for spec in GRID:
            a, b, w = rescaled_triple(spec, 1.0)
            rep = is_balanced(a, b, w)
            assert_same_report(rep, is_balanced_dense(a, b, w))
            assert rep.balanced == scenario_predict(spec) and rep.method_agreement
            assert "pattern" not in vars(a.dynamics) and "pattern" not in vars(b.dynamics)

    def test_semigroups_duals_and_flips(self):
        """The operands of sampled_balance and dual_order_check: e^{tK},
        e^{tL} at t in TIMES, the duals with the flipped coupling and the
        KMS-duals with the KMS-flipped one."""
        for t in probe_like_triples() + [scenario_build(spec) for spec in GRID[::5]]:
            a, b, w = t.system_a, t.system_b, t.coupling
            cases = []
            for time in TIMES:
                cases.append([System(state=x.state, dynamics=semigroup(x.dynamics, time))
                              for x in (a, b)] + [w])
            d_a, d_b = (System(state=x.state, dynamics=dual(x.dynamics, x.state, x.state))
                        for x in (a, b))
            cases.append([d_b, d_a, flip_coupling(w)])
            k_a, k_b = (System(state=x.state, dynamics=_kms_conjugate(x.dynamics))
                        for x in (d_a, d_b))
            cases.append([k_b, k_a, kms_flip(w)])
            for x, y, v in cases:
                assert_same_report(is_balanced(x, y, v), is_balanced_dense(x, y, v))
            for time, rep in sampled_balance(a, b, w, TIMES[2:]):
                x, y = (System(state=z.state, dynamics=semigroup(z.dynamics, time)) for z in (a, b))
                assert_same_report(rep, is_balanced_dense(x, y, w))
            rep = dual_order_check(a, b, w)
            assert rep.consistent and rep.primal == scenario_predict(t.spec)

    @pytest.mark.parametrize("c", [1e8, 1.0, 1e-3, 1e-9, 1e-12])
    def test_verdict_under_rescaling(self, c):
        for spec in GRID + [t.spec for t in probe_like_triples()]:
            a, b, w = rescaled_triple(spec, c)
            rep = is_balanced(a, b, w)
            assert rep.balanced == scenario_predict(spec) and rep.method_agreement
            assert_same_report(rep, is_balanced_dense(a, b, w))

    def test_rotated_generators(self):
        a, b, w = rotated_triple()
        assert_same_report(is_balanced(a, b, w), is_balanced_dense(a, b, w))

    @pytest.mark.parametrize("kind", ["generator", "channel"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dense_pair_takes_the_fallback(self, n, kind):
        """A random channel pair has dense superoperators and a dense S_E: the
        terms are n^6 against n^4 entries of D, so the cost rule sends the
        defect to the dense products, whose report has the dense bytes."""
        state_b = new_faithful_state(np.arange(1, n + 1) / (n * (n + 1) / 2))
        w = kraus_coupling(n, state_b, seed=n)
        systems = []
        for k, state in enumerate((w.state_a, w.state_b)):
            gen = preserving_generator(state, 3 * n + k)
            systems.append(System(state=state, dynamics=gen if kind == "generator" else semigroup(gen, 0.7)))
        a, b = systems
        s_e = _weigh_rows(w.factor, w.state_b.inv_sqrt_spectrum)
        assert _defect_on_pattern(s_e, a.dynamics, b.dynamics) is None
        assert json.dumps(is_balanced(a, b, w).to_json()) == json.dumps(is_balanced_dense(a, b, w).to_json())

    @pytest.mark.parametrize("k", [1, 3])
    def test_cost_rule_boundary(self, k, monkeypatch):
        """The pattern is taken exactly while the term count, the nonzeros
        of X times the widths of the two forms, is below the size of D:
        X with M nonzeros in its first column, A (q x q) with k in its first
        row, B = 1 (one in each column) make M (k + 1) terms and M q
        entries.  Where it is taken, it gives |D| and its size on D's
        nonzeros.  GATHER_COST is 1 here, so that no size is too small."""
        monkeypatch.setattr(kernel, "GATHER_COST", 1)
        rows = 5
        for q in (k + 1, k + 2):
            x = np.zeros((rows, q), dtype=complex)
            x[:, 0] = np.arange(1, rows + 1)
            a = np.zeros((q, q), dtype=complex)
            a[0, :k] = 1j + np.arange(k)
            b = np.eye(rows, dtype=complex)
            got = _defect_on_pattern(_factor(x), *(SimpleNamespace(pattern=_factor(m)) for m in (a, b)))
            if q == k + 1:
                assert got is None
                continue
            d = x @ a - b @ x
            size = np.abs(x) @ np.abs(a) + np.abs(b) @ np.abs(x)
            hit = size != 0
            magnitude, sizes = got
            np.testing.assert_allclose(np.sort(magnitude), np.sort(np.abs(d[hit])), rtol=1e-15)
            np.testing.assert_allclose(np.sort(sizes), np.sort(size[hit]), rtol=1e-15)


def test_small_defect_reads_no_pattern():
    """Below GATHER_COST in either inner dimension the defect stays dense,
    and the operands' patterns are not read."""
    x = _factor(np.eye(kernel.GATHER_COST - 1, dtype=complex))
    assert _defect_on_pattern(x, object(), object()) is None


def has_scalar_range_dense(w, tol: float = kernel.DEFAULT_TOL) -> bool:
    """couplings.has_scalar_range as kappa's dense form: kappa with its
    second factor weighed by rho_B^-1/2 on both sides, against rho_A (x) 1."""
    n, m = w.dims
    r = np.tile(w.state_b.inv_sqrt_spectrum, n)
    return close(w.kappa * np.outer(r, r), kron(w.state_a.rho, np.eye(m)), tol)


class TestScalarRange:
    def test_matches_dense(self):
        couplings = []
        for spec in GRID:
            for probs in ((0.45, 0.55), (3e-2, 1 - 3e-2), (3e-9, 1 - 3e-9), (3e-12, 1 - 3e-12)):
                couplings.append(scenario_coupling(dataclasses.replace(spec, block_probs=probs)))
        for t in probe_like_triples():
            s = t.coupling.state_a
            couplings += [t.coupling, product_coupling(s, s), diagonal_coupling(s),
                          flip_coupling(t.coupling), kms_flip(t.coupling)]
        for n in (2, 3):
            state_b = new_faithful_state(np.arange(1, n + 2) / ((n + 1) * (n + 2) / 2))
            w = kraus_coupling(n, state_b, seed=n)
            couplings += [w, product_coupling(w.state_a, w.state_b)]
        verdicts = [has_scalar_range(w) for w in couplings]
        assert verdicts == [has_scalar_range_dense(w) for w in couplings]
        assert any(verdicts) and not all(verdicts)


def test_nonzero_mask_is_the_comparison():
    """kernel._nonzero reads a complex matrix as pairs of doubles; it is
    m != 0 on every layout, with -0.0 parts zero and NaN parts nonzero."""
    g = np.random.default_rng(5)
    m = np.where(g.random((9, 7)) < 0.4, g.normal(size=(9, 7)) + 1j * g.normal(size=(9, 7)), 0)
    m[0, :4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(np.nan, 0.0), complex(0.0, 2.0)]
    for x in (m, m.T, np.asfortranarray(m), m[::2], m.real, m.astype(np.complex64)):
        assert np.array_equal(kernel._nonzero(x), x != 0)
