"""Generators, cyclic shifts, duals with jump form, the scenario family."""

import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from balance_lab.balance import is_balanced
from balance_lab.channels import apply, validate_ucp
from balance_lab.couplings import diagonal_coupling, validate_coupling
from balance_lab import kernel
from balance_lab.kernel import _invariant_blocks, frob_distance, matrix_unit, vec
from balance_lab.lindblad import (
    VALID_BLOCK_TYPES,
    _coupling_entries,
    balance_sub_residuals,
    build_generator,
    cycle_generator,
    dual_generator,
    scenario_build,
    scenario_coupling,
    scenario_from_json,
    scenario_predict,
    scenario_state,
    semigroup,
    standard_grid,
)
from balance_lab.states import System, new_faithful_state, state_preservation_residual

from conftest import (
    balance_sub_residuals_kron,
    cycle_shift,
    make_spec,
    random_matrix,
    scenario_coupling_kron,
    semigroup_reference,
)


class TestCycleShift:
    def test_single_cycle_permutation(self):
        r = cycle_shift((3,), [1.0 - 1e-12])
        e1, e2, e3 = np.eye(3)
        assert_allclose(r @ e1, e2, atol=1e-6)
        assert_allclose(r @ e2, e3, atol=1e-6)
        assert_allclose(r @ e3, e1, atol=1e-6)

    def test_column_scaling(self):
        r = cycle_shift((3,), [0.25])
        assert_allclose(np.linalg.norm(r, axis=0), [0.5] * 3)

    def test_normalization_identity(self):
        k = np.array([0.3, 0.7])
        r_k = cycle_shift((3, 4), k)
        r_1k = cycle_shift((3, 4), 1 - k)
        assert_allclose(
            r_k.conj().T @ r_k + r_1k @ r_1k.conj().T, np.eye(7), atol=1e-14
        )

    def test_cycle_too_short(self):
        with pytest.raises(ValueError, match="cycle too short"):
            cycle_shift((2,), [0.5])


class TestBuildGenerator:
    def test_pure_commutator_is_unitary_semigroup(self):
        h = np.diag([0.5, -0.2, 0.1]).astype(complex)
        gen = build_generator([], h)
        ch = semigroup(gen, 1.3)
        u = np.diag(np.exp(1.3j * np.array([0.5, -0.2, 0.1])))
        a = random_matrix(3, seed=1)
        assert_allclose(apply(ch, a), u @ a @ u.conj().T, atol=1e-12)

    def test_applies_to_identity_as_zero(self):
        gen = cycle_generator((3, 4), [0.3, 0.6], [0.1] * 7)
        assert np.linalg.norm(gen.superoperator @ vec(np.eye(7))) <= 1e-12

    def test_block_constant_state_invariant(self):
        gen = cycle_generator((3,), [0.3])
        s = new_faithful_state([1 / 3] * 3)
        assert state_preservation_residual(gen, s) <= 1e-13

    def test_non_hermitian_hamiltonian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            build_generator([], np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "jumps, spectrum",
        [
            ([(0.3 + 0.2j) * np.eye(3)], [0.5, 0.3, 0.2]),
            ([np.array([[0.3 + 0.2j]])], [1.0]),
            ([(0.7 - 0.1j) * np.eye(4), 2j * np.eye(4)], [0.4, 0.3, 0.2, 0.1]),
        ],
        ids=["jump-prop-to-1", "1x1", "two-jumps"],
    )
    def test_zero_generator(self, jumps, spectrum):
        """L = 0 up to rounding: unitality and state preservation are judged
        against sum ||V_j||^2 + ||H||, not against ||L||, which cancels; L is
        balanced with itself under the diagonal coupling, and so is its dual."""
        gen = build_generator(jumps)
        assert np.linalg.norm(gen.superoperator) <= 1e-15
        assert gen.scale == pytest.approx(sum(np.linalg.norm(v) ** 2 for v in jumps))
        s = new_faithful_state(spectrum)
        sys = System(state=s, dynamics=gen)
        rep = is_balanced(sys, sys, diagonal_coupling(s))
        assert rep.balanced and rep.method_agreement
        dual_sys = System(state=s, dynamics=dual_generator(gen, s))
        assert is_balanced(dual_sys, sys, diagonal_coupling(s)).balanced

    def test_scale_is_homogeneous(self):
        """Scaling the jumps by sqrt(c) and H by c scales the generator's
        scale by c, as it scales L."""
        jumps, h = [random_matrix(3, seed=2)], np.diag([0.5, -0.2, 0.1]).astype(complex)
        gen = build_generator(jumps, h)
        for c in (1e8, 1e-12):
            scaled = build_generator([np.sqrt(c) * v for v in jumps], c * h)
            assert scaled.scale == pytest.approx(c * gen.scale, rel=1e-14)


class TestSemigroup:
    def test_time_zero(self):
        gen = cycle_generator((3,), [0.4])
        assert_allclose(semigroup(gen, 0.0).superoperator, np.eye(9))

    def test_semigroup_law(self):
        gen = cycle_generator((3, 4), [0.3, 0.6], [0.2] * 7)
        lhs = semigroup(gen, 0.7).superoperator @ semigroup(gen, 1.1).superoperator
        rhs = semigroup(gen, 1.8).superoperator
        assert frob_distance(lhs, rhs) <= 1e-9

    def test_state_preserved_under_evolution(self):
        spec = make_spec()
        s = scenario_state(spec)
        gen = cycle_generator(spec.cycle_lengths, spec.k, spec.g)
        ch = semigroup(gen, 1.0)
        for i in range(7):
            for j in range(7):
                u = matrix_unit(7, i, j)
                lhs = complex(np.trace(s.rho @ apply(ch, u)))
                rhs = complex(np.trace(s.rho @ u))
                assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_negative_time(self):
        with pytest.raises(ValueError, match="non-negative"):
            semigroup(cycle_generator((3,), [0.4]), -0.1)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
    def test_time_must_be_finite_and_non_negative(self, t):
        with pytest.raises(ValueError, match="^semigroup time must be finite and non-negative$"):
            semigroup(cycle_generator((3,), [0.4]), t)


def split_cases():
    """Generators whose split has many blocks (a two-cycle scenario, a
    16-cycle), one block (a dense generator) and blocks held together by
    weak links only (a diagonal jump and a shift weighted 0.3, whose
    entries in L are 0.09 and 0.045)."""
    g = np.linspace(-0.9, 0.8, 16)
    v = random_matrix(4, seed=31)
    ham = np.diag([0.1, 0.7, -0.4, 0.9]).astype(complex)
    weak = [np.diag([1.0, 1.5, 2.0, 2.5]).astype(complex), 0.3 * np.eye(4, k=-1)]
    return {
        "3+4": cycle_generator((3, 4), [0.3, 0.6], [0.1, 0.2, 0.3, -0.1, -0.2, -0.3, 0.4]),
        "16-cycle": cycle_generator((16,), [0.4], g),
        "dense-4": build_generator([v, v @ v], ham),
        "weak-links-4": build_generator(weak, ham),
    }


class TestSemigroupSplit:
    """semigroup hands mat_exp the exact-zero split that the generator
    scanned once; every t gives the bits of the split scanned on t L
    (conftest.semigroup_reference): at t = 0, where t L is zero, at
    t = 5e-324, where every entry of L below 0.5 in size underflows, and at
    ordinary times."""

    @pytest.mark.parametrize("case", sorted(split_cases()))
    def test_bits_against_the_per_call_split(self, case):
        gen = split_cases()[case]
        for t in (0.0, 5e-324, 1e-300, 0.1, 1.0, 1000.0):
            got = semigroup(gen, t).superoperator
            assert got.tobytes() == semigroup_reference(gen, t).tobytes(), t

    def test_underflow_splits_finer(self):
        # so that the case above runs a split coarser than that of t L
        gen = split_cases()["weak-links-4"]
        tiny = 5e-324 * gen.superoperator
        assert 0 < np.count_nonzero(tiny) < np.count_nonzero(gen.superoperator)
        count = lambda blocks: sum(idx.shape[0] for idx in blocks)  # noqa: E731
        assert count(_invariant_blocks(tiny)) == 16 > count(gen.invariant_blocks) == 7

    def test_split_is_scanned_once(self, monkeypatch):
        gen = split_cases()["16-cycle"]
        want = [idx.copy() for idx in _invariant_blocks(gen.superoperator)]
        semigroup(gen, 1.0)
        monkeypatch.setattr(kernel, "_invariant_blocks", None)
        for t in (0.5, 2.0):
            semigroup(gen, t)
        assert len(gen.invariant_blocks) == len(want)
        assert all(np.array_equal(x, y) for x, y in zip(gen.invariant_blocks, want))


class TestDualGenerator:
    def test_commutator_self_dual(self):
        h = np.diag([0.5, -0.2, 0.1]).astype(complex)
        gen = build_generator([], h)
        s = new_faithful_state([0.2, 0.3, 0.5])
        d = dual_generator(gen, s)
        assert frob_distance(d.superoperator, gen.superoperator) <= 1e-12

    def test_cycle_closed_form(self):
        # dual of the cycle generator swaps the shift weights for their complements
        l = np.array([0.3, 0.8])
        h = [0.1, 0.2, 0.3, -0.1, -0.2, -0.3, 0.4]
        gen = cycle_generator((3, 4), l, h)
        s = scenario_state(make_spec())
        d = dual_generator(gen, s)
        expected = build_generator(
            (cycle_shift((3, 4), 1 - l), cycle_shift((3, 4), l).conj().T),
            np.diag(h).astype(complex),
        )
        assert frob_distance(d.superoperator, expected.superoperator) <= 1e-12

    def test_involution(self):
        gen = cycle_generator((3, 4), [0.3, 0.6], [0.5] * 3 + [0.1] * 4)
        s = scenario_state(make_spec())
        dd = dual_generator(dual_generator(gen, s), s)
        assert frob_distance(dd.superoperator, gen.superoperator) <= 1e-9

    def test_state_not_invariant(self):
        gen = cycle_generator((3,), [0.4])
        s = new_faithful_state([0.5, 0.3, 0.2])
        with pytest.raises(ValueError, match="dual generator undefined"):
            dual_generator(gen, s)


class TestScenarioSpec:
    def test_validation_errors(self):
        with pytest.raises(ValueError, match="cycle too short"):
            make_spec(cycles=(2, 4))
        with pytest.raises(ValueError, match="block_probs"):
            make_spec(block_probs=(0.5, 0.6))
        with pytest.raises(ValueError, match="partition"):
            make_spec(partition=((0,), (0, 1)))
        with pytest.raises(ValueError, match="block types"):
            make_spec(types=("entangled", "squeezed"))
        with pytest.raises(ValueError, match="one entry per cycle"):
            make_spec(k=(0.5,))
        with pytest.raises(ValueError, match="per basis index"):
            make_spec(g=(0.0,) * 6)

    def test_empty_block_allowed(self):
        spec = make_spec(partition=((0, 1), ()), types=("entangled", "product"))
        w = scenario_coupling(spec)
        assert validate_coupling(w).valid

    def test_json_roundtrip(self):
        spec = make_spec()
        back = scenario_from_json(spec.to_json())
        assert back.to_json() == spec.to_json()


class TestScenarioBuild:
    def test_couplings_valid_for_all_types(self):
        for types in (
            ("entangled", "product"),
            ("mixed", "mixed"),
            ("product", "entangled"),
        ):
            w = scenario_coupling(make_spec(types=types))
            assert validate_coupling(w).valid

    def test_block_mass(self):
        spec = make_spec(types=("entangled", "mixed"))
        w = scenario_coupling(spec)
        # each block contributes its state mass to the trace
        assert complex(np.trace(w.kappa)) == pytest.approx(1.0)

    def test_semigroup_members_ucp(self):
        triple = scenario_build(make_spec())
        for t in (0.1, 1.0):
            assert validate_ucp(semigroup(triple.system_a.dynamics, t)).ucp


class TestScenarioPredict:
    def test_entangled_balanced(self):
        spec = make_spec(
            types=("entangled",),
            partition=((0, 1),),
            k=(0.3, 0.6),
            l=(0.3, 0.6),
            g=(0.2,) * 7,
            h=(0.0,) * 7,
        )
        # g - h is constant on the single block
        assert scenario_predict(spec)

    def test_mixed_weights_differ(self):
        spec = make_spec(types=("mixed", "product"), l=(0.4, 0.6))
        assert not scenario_predict(spec)

    def test_product_blocks_anything_goes(self):
        spec = make_spec(
            types=("product", "product"),
            k=(0.3, 0.6),
            l=(0.9, 0.1),
            g=(0.5,) * 7,
            h=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
        )
        assert scenario_predict(spec)

    def test_entangled_hamiltonian_difference(self):
        spec = make_spec(
            types=("entangled", "product"),
            g=(0.1, 0.2, 0.3, 0.0, 0.0, 0.0, 0.0),
            h=(0.0,) * 7,
        )
        assert not scenario_predict(spec)
        # same difference pattern on a product block is harmless
        spec2 = make_spec(
            types=("product", "entangled"),
            g=(0.1, 0.2, 0.3, 0.0, 0.0, 0.0, 0.0),
            h=(0.0,) * 7,
        )
        assert scenario_predict(spec2)


class TestSubResiduals:
    def test_balanced_both_vanish(self):
        jump, comm = balance_sub_residuals(make_spec())
        assert jump <= 1e-12 and comm <= 1e-12

    def test_weight_violation_hits_shift_part(self):
        jump, comm = balance_sub_residuals(
            make_spec(types=("entangled", "entangled"), l=(0.3, 0.5))
        )
        assert jump > 1e-6 and comm <= 1e-12

    def test_hamiltonian_violation_hits_commutator_part(self):
        jump, comm = balance_sub_residuals(
            make_spec(
                types=("entangled", "product"),
                g=(0.1, 0.2, 0.3, 0.0, 0.0, 0.0, 0.0),
            )
        )
        assert jump <= 1e-12 and comm > 1e-6


# layouts whose first coupling block spans several cycles
MULTI_CYCLE_LAYOUTS = (
    ((3, 4, 5), ((0, 2), (1,))),
    ((4, 3, 5, 4), ((1, 3), (0, 2))),
    ((6, 6, 6, 6), ((0, 1, 2), (3,))),
)


def random_layout_spec(seed, cycles, partition=None, types=None):
    """A seeded spec on a layout, one block per cycle unless ``partition`` is
    given, of random types unless ``types`` is.  Each block is drawn to meet
    both balance conditions (l = k on its cycles, g - h constant on its
    indices), to break only the shift weights, or to break only the
    Hamiltonian, at odds 3 : 1 : 1; so balanced and unbalanced specs both
    occur, and so do Hamiltonian breaks on a mixed or product block, which
    leave it balanced."""
    g = np.random.default_rng(seed)
    nc, n = len(cycles), sum(cycles)
    partition = tuple((c,) for c in range(nc)) if partition is None else partition
    if types is None:
        types = tuple(g.choice(VALID_BLOCK_TYPES, len(partition)))
    bp = g.random(nc) + 0.1
    k, l = g.uniform(0.05, 0.95, nc), g.uniform(0.05, 0.95, nc)
    gh, h = g.normal(size=n), g.normal(size=n)
    ends = np.cumsum(cycles)
    for blk in partition:
        cyc = list(blk)
        idx = [q for c in blk for q in range(ends[c] - cycles[c], ends[c])]
        kind = g.choice(("both", "both", "both", "shift", "hamiltonian"))
        if kind != "shift":
            l[cyc] = k[cyc]
        if kind != "hamiltonian":
            h[idx] = gh[idx] + g.normal()
    return make_spec(
        cycles=tuple(cycles),
        block_probs=tuple(bp / bp.sum()),
        partition=partition,
        types=types,
        k=tuple(k),
        l=tuple(l),
        g=tuple(gh),
        h=tuple(h),
    )


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    return workloads


def layout_specs(workloads):
    """Four seeded specs on each layout of the grid workload's GRID_CYCLES,
    and a balanced and an unbalanced one on an 18-cycle and on a 24-cycle,
    drawn as the grid workload draws them."""
    specs = [
        random_layout_spec(100 * n + seed, cycles)
        for n, cycles in workloads.GRID_CYCLES.items()
        for seed in range(4)
    ]
    g = np.random.default_rng(31)
    for cycles in ((18,), (24,)):
        specs += [workloads._balanced_spec(g, cycles, ("entangled",)),
                  workloads._unbalanced_spec(g, cycles, ("entangled",))]
    return specs


def multi_cycle_specs(layout: int, btype: str):
    """Two seeded specs on a MULTI_CYCLE_LAYOUTS layout, its first block of
    type ``btype`` and its second of each other type."""
    cycles, partition = MULTI_CYCLE_LAYOUTS[layout]
    others = [t for t in VALID_BLOCK_TYPES if t != btype]
    return [random_layout_spec(10 * layout + seed, cycles, partition, (btype, other))
            for seed, other in enumerate(others)]


def all_multi_cycle_specs():
    return [spec for layout in range(len(MULTI_CYCLE_LAYOUTS)) for btype in VALID_BLOCK_TYPES
            for spec in multi_cycle_specs(layout, btype)]


class TestScenarioByIndex:
    """scenario_coupling scatters kappa's nonzeros (_coupling_entries) and
    balance_sub_residuals moves them by the shifts on one tensor factor;
    both keep the bits of the Kronecker forms in conftest, signed zeros
    included."""

    @staticmethod
    def assert_same_bits(spec):
        assert scenario_coupling(spec).kappa.tobytes() == scenario_coupling_kron(spec).tobytes()
        assert balance_sub_residuals(spec) == balance_sub_residuals_kron(spec)

    def test_builtin_grid(self):
        for spec in standard_grid():
            self.assert_same_bits(spec)

    @pytest.mark.parametrize("layout", range(len(MULTI_CYCLE_LAYOUTS)))
    @pytest.mark.parametrize("btype", VALID_BLOCK_TYPES)
    def test_multi_cycle_blocks(self, layout, btype):
        for spec in multi_cycle_specs(layout, btype):
            self.assert_same_bits(spec)

    def test_random_layouts(self, workloads):
        for spec in layout_specs(workloads):
            self.assert_same_bits(spec)

    def test_entries_are_the_nonzeros(self, workloads):
        """No position repeats and no value is zero, and their scatter is the
        Kronecker kappa: so the entries are exactly kappa's nonzeros, and a
        reader of them misses no entry."""
        for spec in standard_grid() + layout_specs(workloads) + all_multi_cycle_specs():
            n = spec.dim
            x, y, x2, y2, v = _coupling_entries(spec, scenario_state(spec).spectrum)
            rows, cols = x * n + y, x2 * n + y2
            assert np.unique(rows * n * n + cols).size == v.size
            assert np.all(v != 0)
            kappa = np.zeros((n * n, n * n), dtype=complex)
            kappa[rows, cols] = v
            expected = scenario_coupling_kron(spec)
            assert kappa.tobytes() == expected.tobytes()
            assert np.count_nonzero(expected) == v.size

    def test_residuals_vanish_iff_predicted(self, workloads):
        """The arithmetic oracle: both sub-residuals are at most 1e-9 exactly
        when scenario_predict calls the spec balanced."""
        verdicts = []
        for spec in standard_grid() + layout_specs(workloads) + all_multi_cycle_specs():
            predicted = scenario_predict(spec)
            assert (max(balance_sub_residuals(spec)) <= 1e-9) == predicted, spec
            verdicts.append(predicted)
        assert set(verdicts) == {True, False}


class TestStandardGrid:
    def test_size_and_variety(self):
        grid = standard_grid()
        assert len(grid) >= 48
        verdicts = {scenario_predict(s) for s in grid}
        assert verdicts == {True, False}


class TestNonFiniteParameters:
    """A comparison with NaN is false, so a range check alone lets NaN
    through; every float field of a scenario, and every shift weight, must
    be finite."""

    @pytest.mark.parametrize(
        "key, value",
        [("block_probs", (math.nan, 0.55)), ("k", (math.nan, 0.6)), ("l", (0.3, math.inf)),
         ("g", (math.inf,) + (0.0,) * 6), ("h", (0.0,) * 6 + (-math.inf,))],
    )
    def test_scenario_spec_names_the_field(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must "):
            make_spec(**{key: value})

    @pytest.mark.parametrize("weights", [(math.nan, 0.5), (0.5, math.inf), (-math.inf, 0.5)])
    def test_cycle_generator(self, weights):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            cycle_generator((3, 4), weights)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_cycle_generator_hamiltonian(self, entry):
        with pytest.raises(ValueError, match="^hamiltonian diagonal must be finite$"):
            cycle_generator((3, 4), (0.3, 0.6), (0.1, 0.2, entry, 0.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("weights", [(math.nan, 0.5), (0.5, math.inf), (-math.inf, 0.5), (0.5, -1e-300)])
    def test_cycle_shift(self, weights):
        with pytest.raises(ValueError, match="^shift weights must be finite and non-negative$"):
            cycle_shift((3, 4), weights)
