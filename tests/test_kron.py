"""The one Kronecker product: ``kernel.kron`` forms the entry products of
``np.kron`` by one broadcast, so every superoperator built through it keeps
the bits of its ``np.kron`` form in conftest (compared by ``tobytes``, signed
zeros included).  The scenario generators form no Kronecker product at all:
``lindblad.cycle_generator`` writes its 3 n^2 nonzeros by index, and still
keeps the bits of the Kronecker form of ``build_generator`` on its jumps."""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balance_lab import lindblad
from balance_lab.channels import ReversingOperation, channel_from_kraus
from balance_lab.couplings import product_coupling
from balance_lab.kernel import ad_superop, kron
from balance_lab.lindblad import (
    VALID_BLOCK_TYPES,
    build_generator,
    cycle_generator,
    scenario_build,
    standard_grid,
)
from balance_lab.states import new_faithful_state

from conftest import (
    build_generator_kron,
    channel_from_kraus_kron,
    cycle_shift,
    random_matrix,
    rng,
)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    return workloads


def grid_workload_specs(workloads):
    """One balanced and one unbalanced spec per GRID_CYCLES layout, drawn as
    the grid workload draws them."""
    g = np.random.default_rng(15)
    specs = []
    for cycles in workloads.GRID_CYCLES.values():
        types = ("entangled",) + tuple(g.choice(VALID_BLOCK_TYPES, len(cycles) - 1))
        specs += [workloads._balanced_spec(g, cycles, types), workloads._unbalanced_spec(g, cycles, types)]
    return specs


def probe_specs(workloads):
    """A balanced spec on each of the four probe layouts."""
    g = np.random.default_rng(16)
    return [workloads._balanced_spec(g, cycles, types) for _, cycles, types, _ in workloads.PROBE_SLOTS]


def scenario_generators(specs):
    for spec in specs:
        triple = scenario_build(spec)
        yield triple.system_a.dynamics
        yield triple.system_b.dynamics


def random_hermitian(n: int, seed: int) -> np.ndarray:
    a = random_matrix(n, seed=seed)
    return (a + a.conj().T) / 2


def random_unitary(n: int, seed: int) -> np.ndarray:
    return np.linalg.qr(random_matrix(n, seed=seed))[0]


# ---------------------------------------------------------------------------
# kernel.kron against np.kron

# every finite double, -0.0 and both infinities (an inf times a zero is a
# NaN in both forms alike)
ENTRIES = st.floats(allow_nan=False)


@st.composite
def matrices(draw):
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = [
        np.array(draw(st.lists(ENTRIES, min_size=p * q, max_size=p * q))).reshape(p, q)
        for _ in range(1 + draw(st.booleans()))
    ]
    if len(parts) == 1:
        return parts[0]
    # set both parts: re + 1j * im would turn an infinite im into a NaN real part
    out = np.empty((p, q), dtype=complex)
    out.real, out.imag = parts
    return out


class TestKron:
    @settings(max_examples=300, deadline=None)
    @given(matrices(), matrices())
    @example(np.array([[-0.0]]), np.array([[2.0 + 0j]]))
    @example(np.array([[np.inf, -0.0]]), np.array([[0.0 - 0.0j], [-np.inf + 1j]]))
    # a real factor against a complex one whose product underflows: made
    # complex first, the real factor gave -0 where np.kron gives +0
    @example(np.array([[-1.8027714184364592e-182]]),
             np.array([[complex(1.4738325276227952e-165, -0.0)]]))
    @example(np.array([[complex(1.4738325276227952e-165, -0.0)]]),
             np.array([[-1.8027714184364592e-182]]))
    def test_np_kron_bits(self, a, b):
        if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
            # kernel matrices are complex: a real pair is compared as complex
            a, b = a.astype(complex), b.astype(complex)
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(kron(a, b), np.kron(a, b))

    def test_real_times_complex(self):
        a, b = random_matrix(3, 2, seed=1).real, random_matrix(2, 5, seed=2)
        assert same_bits(kron(a, b), np.kron(a, b))
        assert same_bits(kron(b, a), np.kron(b, a))

    def test_strided_operands(self):
        a, b = random_matrix(6, 4, seed=3), random_matrix(4, 6, seed=4)
        for x, y in ((a.T, b), (a[::2, 1:], b.T), (a[:, ::3], b[1::2, ::-1])):
            assert same_bits(kron(x, y), np.kron(x, y))


# ---------------------------------------------------------------------------
# the superoperators built through kernel.kron


class TestBuildGenerator:
    @staticmethod
    def assert_kron_bits(gen):
        expected = build_generator_kron(gen.jumps, gen.hamiltonian)
        assert same_bits(gen.superoperator, expected)
        assert same_bits(build_generator(gen.jumps, gen.hamiltonian).superoperator, expected)

    def test_builtin_grid(self):
        for gen in scenario_generators(standard_grid()):
            self.assert_kron_bits(gen)

    def test_grid_workload_layouts(self, workloads):
        specs = grid_workload_specs(workloads)
        assert len(specs) == 2 * len(workloads.GRID_CYCLES)
        for gen in scenario_generators(specs):
            self.assert_kron_bits(gen)

    def test_probe_layouts(self, workloads):
        for gen in scenario_generators(probe_specs(workloads)):
            self.assert_kron_bits(gen)

    @pytest.mark.parametrize("n, count", [(2, 1), (2, 3), (5, 2), (6, 1)])
    def test_random_dense(self, n, count):
        jumps = [random_matrix(n, seed=10 * n + j) for j in range(count)]
        h = random_hermitian(n, seed=n)
        gen = build_generator(jumps, h)
        assert same_bits(gen.superoperator, build_generator_kron(jumps, h))

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_hamiltonian_only(self, n):
        h = random_hermitian(n, seed=20 + n)
        assert same_bits(build_generator([], h).superoperator, build_generator_kron([], h))

    # a 1 x 1 generator is zero up to rounding
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_jumps_only(self, n):
        jumps = [random_matrix(n, seed=30 + n), random_matrix(n, seed=40 + n)]
        assert same_bits(build_generator(jumps).superoperator, build_generator_kron(jumps))


def cycle_shift_loop(cycle_lengths, weights) -> np.ndarray:
    """The weighted cyclic shift written entry by entry."""
    n = sum(cycle_lengths)
    out = np.zeros((n, n), dtype=complex)
    off = 0
    for r, w in zip(cycle_lengths, weights):
        for i in range(r):
            out[off + (i + 1) % r, off + i] = np.sqrt(w)
        off += r
    return out


# inside (0, 1), with draws within 1e-12 of either end
SHIFT_WEIGHTS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 1e-12, exclude_min=True),
    st.floats(1.0 - 1e-12, 1.0, exclude_max=True),
)
# mixed signs, with both signed zeros
HAM_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0))


@st.composite
def cycle_layouts(draw):
    cycles = draw(st.lists(st.integers(3, 9), min_size=1, max_size=4))
    weights = draw(st.lists(SHIFT_WEIGHTS, min_size=len(cycles), max_size=len(cycles)))
    n = sum(cycles)
    ham = draw(st.none() | st.lists(HAM_ENTRIES, min_size=n, max_size=n))
    return tuple(cycles), weights, ham


class TestCycleGeneratorByIndex:
    @settings(max_examples=100, deadline=None)
    @given(cycle_layouts())
    @example(((3,), [1e-13], [-0.0, 0.0, -0.0]))
    @example(((9, 9, 9, 9), [0.5, 1.0 - 1e-13, 1e-13, 0.3], None))
    def test_kron_bits(self, layout):
        cycles, weights, ham = layout
        gen = cycle_generator(cycles, weights, ham)
        w = np.asarray(weights)
        jumps = (cycle_shift_loop(cycles, w), cycle_shift_loop(cycles, 1.0 - w).conj().T)
        g = np.zeros(sum(cycles)) if ham is None else np.asarray(ham, dtype=float)
        h = np.diag(g).astype(complex)
        assert same_bits(gen.superoperator, build_generator_kron(jumps, h))
        assert len(gen.jumps) == 2
        assert all(same_bits(a, b) for a, b in zip(gen.jumps, jumps))
        assert same_bits(gen.hamiltonian, h)
        assert gen.scale == build_generator(jumps, h).scale

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(3, 9), min_size=1, max_size=4).flatmap(
        lambda cycles: st.tuples(st.just(cycles), st.lists(
            st.floats(0.0, 1e6), min_size=len(cycles), max_size=len(cycles)))))
    def test_cycle_shift_loop(self, layout):
        cycles, weights = layout
        assert same_bits(cycle_shift(cycles, weights), cycle_shift_loop(cycles, weights))

    def test_forms_no_kron(self, workloads, monkeypatch):
        """The scenario triples of the built-in grid and the probe layouts
        are those of a run in which lindblad's Kronecker product and Kraus
        superoperator refuse to be called."""
        specs = standard_grid() + probe_specs(workloads)
        assert len(specs) == 72 + 4
        expected = [gen.superoperator for gen in scenario_generators(specs)]

        def refused(*args, **kwargs):
            raise AssertionError("scenario_build formed a Kronecker product")

        monkeypatch.setattr(lindblad, "kron", refused)
        monkeypatch.setattr(lindblad, "kraus_superop", refused)
        got = [gen.superoperator for gen in scenario_generators(specs)]
        assert len(got) == len(expected)
        assert all(same_bits(a, b) for a, b in zip(got, expected))


class TestChannelFromKraus:
    def test_scenario_jumps(self, workloads):
        specs = standard_grid() + grid_workload_specs(workloads) + probe_specs(workloads)
        for gen in scenario_generators(specs):
            got = channel_from_kraus(gen.jumps).superoperator
            assert same_bits(got, channel_from_kraus_kron(gen.jumps))

    @pytest.mark.parametrize("n, m, count", [(1, 1, 1), (2, 3, 2), (3, 2, 3), (1, 4, 1), (4, 1, 2), (5, 5, 4)])
    def test_random_kraus(self, n, m, count):
        kraus = [random_matrix(n, m, seed=50 + 7 * j + n) for j in range(count)]
        got = channel_from_kraus(kraus).superoperator
        assert got.shape == (m * m, n * n)
        assert same_bits(got, channel_from_kraus_kron(kraus))


class TestAdSuperopAndProductCoupling:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_ad_superop_random_unitary(self, n):
        u = random_unitary(n, seed=60 + n)
        assert same_bits(ad_superop(u), np.kron(u.conj(), u))

    def test_ad_superop_reversing_frames(self):
        th = ReversingOperation(dim=7, unitary=np.diag(np.exp(1j * np.linspace(-0.6, 0.9, 7))))
        for u in (th.unitary, *th.frame):
            assert same_bits(ad_superop(u), np.kron(u.conj(), u))

    def test_product_coupling_scenario_states(self, workloads):
        specs = standard_grid()[:3] + grid_workload_specs(workloads) + probe_specs(workloads)
        for spec in specs:
            s = scenario_build(spec).system_a.state
            assert same_bits(product_coupling(s, s).kappa, np.kron(s.rho, s.rho))

    @pytest.mark.parametrize("n, m", [(1, 3), (2, 3), (4, 2), (7, 7)])
    def test_product_coupling_random_states(self, n, m):
        g = rng(70 + n + m)
        sa, sb = new_faithful_state(g.dirichlet(np.ones(n))), new_faithful_state(g.dirichlet(np.ones(m)))
        assert same_bits(product_coupling(sa, sb).kappa, np.kron(sa.rho, sb.rho))

