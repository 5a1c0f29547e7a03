"""Duals, KMS conjugates and semigroups are held as their nonzeros
(``kernel._Dynamics``).  The dense superoperator each forms on its first
read has the bits of the dense computation it replaced; the batched
exponentials have the bits of one ``semigroup`` call per time; and the
probes that read patterns only form no dense superoperator, while a grid
op at n <= 11 reads no pattern at all."""

import gc
import json
import weakref

import numpy as np
import pytest

import balance_lab.channels as channels
import balance_lab.couplings as couplings
import balance_lab.kernel as kernel
import balance_lab.lindblad as lindblad
from balance_lab.balance import _balance, dual_order_check, is_balanced, sampled_balance
from balance_lab.channels import (
    ReversingOperation,
    _kms_conjugate,
    _kms_flip,
    _like,
    change_frame,
    dual,
    kms_dual,
    theta_kms_dual,
)
from balance_lab.kernel import _block_entries, _listed, _stacks, check_psd
from balance_lab.lindblad import (
    LindbladGenerator,
    _exponentials,
    _semigroup,
    balance_sub_residuals,
    scenario_build,
    semigroup,
    standard_grid,
)
from balance_lab.states import System

from conftest import (
    assert_same_factor,
    make_spec,
    probe_like_triples,
    semigroup_reference,
    weighted_transpose_reference,
)

TIMES = (0.0, 5e-324, 0.1, 1.0, 5.0, 1000.0)
TRIPLES = [("grid", i) for i in range(len(standard_grid()))] + [("probe", i) for i in range(4)]


def triple_of(case):
    kind, i = case
    return scenario_build(standard_grid()[i]) if kind == "grid" else probe_like_triples()[i]


def assert_dense_bits(got: np.ndarray, want: np.ndarray) -> None:
    """got has the bits and the layout of want."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def check_duals(dyn, dense: np.ndarray, s) -> None:
    """Every dual-path maker on ``dyn``, whose dense superoperator in the
    dense computation is ``dense``, against the references: the weighted
    transpose, the index flip and the change of frame of the dense dual."""
    w = s.kms_weights
    ref = weighted_transpose_reference(dense, w, w)
    phases = ReversingOperation(dim=s.dim, unitary=np.diag(np.exp(1j * np.linspace(0.2, 2.9, s.dim))))
    made = {
        "dual": (dual(dyn, s, s), ref),
        "dual of the dual": (dual(dual(dyn, s, s), s, s), weighted_transpose_reference(ref, w, w)),
        "kms_dual": (kms_dual(dyn, s, s), _kms_flip(ref)),
        "theta_kms_dual": (theta_kms_dual(dyn, s, ReversingOperation(dim=s.dim)), ref),
        "kms conjugate": (_kms_conjugate(dyn), _kms_flip(dense)),
    }
    for name, (got, want) in made.items():
        assert got.nonzeros is not None, name
        assert_dense_bits(got.superoperator, want)
    got = theta_kms_dual(dyn, s, phases).superoperator
    want = change_frame(_like(dyn, ref), *phases.frame).superoperator
    assert_dense_bits(got, want)


class TestDenseOnRead:
    """On the 72 grid triples and the four probe-like triples, each dense
    superoperator formed on read is the one the dense computation made, to
    the bit.  One place could differ, in the sign of a zero: where e^{tL}
    holds -0.0 inside its blocks, its dual and its conjugate, scattered
    from their nonzeros, hold +0.  No such zero occurs on these triples at
    these times, so every array is compared whole."""

    @pytest.mark.parametrize("case", TRIPLES)
    def test_generators(self, case):
        triple = triple_of(case)
        for sys in (triple.system_a, triple.system_b):
            check_duals(sys.dynamics, sys.dynamics.superoperator, sys.state)

    @pytest.mark.parametrize("case", TRIPLES)
    def test_semigroups(self, case):
        triple = triple_of(case)
        for sys in (triple.system_a, triple.system_b):
            for t in TIMES:
                sg, ref = semigroup(sys.dynamics, t), semigroup_reference(sys.dynamics, t)
                assert sg.nonzeros is not None
                assert_dense_bits(sg.superoperator, ref)
                check_duals(sg, ref, sys.state)


@pytest.mark.parametrize("case", TRIPLES[::9] + TRIPLES[-4:])
def test_batched_exponentials_keep_their_bits(case):
    """One pass over all times and both generators gives each e^{tL} the
    bits and the pattern of its own semigroup call, and sampled_balance
    the reports of one balance check per time."""
    triple = triple_of(case)
    gens = (triple.system_a.dynamics, triple.system_b.dynamics)
    pairs = [(gen, t) for t in TIMES for gen in gens]
    for (gen, t), stacks in zip(pairs, _exponentials(pairs)):
        blocks, one = gen.invariant_blocks, semigroup(gen, t)
        dense = one.superoperator
        assert all(x.tobytes() == _stacks(dense, idx, idx).tobytes() for idx, x in zip(blocks, stacks))
        assert_same_factor(_semigroup(gen, stacks).pattern, one.pattern)
        cut = _listed(*_block_entries(blocks, [_stacks(dense, idx, idx) for idx in blocks], gen.dim**2))
        assert_same_factor(one.pattern, cut)
    a, b, w = triple.system_a, triple.system_b, triple.coupling
    got = sampled_balance(a, b, w, TIMES)
    want = [(t, _balance(semigroup(a.dynamics, t), semigroup(b.dynamics, t), w, 1e-9)) for t in TIMES]
    assert json.dumps([(t, r.to_json()) for t, r in got]) == json.dumps(
        [(t, r.to_json()) for t, r in want])


def test_exponential_times_checked():
    gen = triple_of(("grid", 0)).system_a.dynamics
    for t in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and non-negative"):
            list(_exponentials([(gen, 1.0), (gen, t)]))


def record_reads(monkeypatch) -> dict:
    """Patch every module's _made, which runs each recipe and scan of a
    pattern and each first read of a superoperator held as nonzeros, to
    count them by name, and make a scatter of nonzeros into a dense array
    (``_Factor.dense``) fail."""
    counts = {}
    made = kernel._made

    def counted(obj, name, scan):
        counts[name] = counts.get(name, 0) + 1
        return made(obj, name, scan)

    def refused(self):
        raise AssertionError("a dense array was scattered from nonzeros")

    for module in (kernel, channels, couplings, lindblad):
        monkeypatch.setattr(module, "_made", counted)
    monkeypatch.setattr(kernel._Factor, "dense", refused)
    return counts


@pytest.mark.parametrize("index", range(4))
def test_probes_form_no_dense_superoperator(index, monkeypatch):
    """dual_order_check and sampled_balance on the n = 12 and 16 triples read
    the patterns of the duals, of the conjugates and of e^{tL}, and never
    their dense superoperators."""
    triple = probe_like_triples()[index]
    a, b, w = triple.system_a, triple.system_b, triple.coupling
    counts = record_reads(monkeypatch)
    assert dual_order_check(a, b, w).consistent
    assert all(r.balanced for _, r in sampled_balance(a, b, w, (0.1, 1.0, 5.0)))
    assert "superoperator" not in counts and counts["pattern"] > 0


def test_grid_op_reads_no_pattern(monkeypatch):
    """A grid op (scenario_build, rescaled generators, is_balanced and the
    sub-residuals) at n = 7 and 11 runs no pattern recipe and no scan of a
    superoperator, and holds no dynamics as nonzeros."""
    specs = [standard_grid()[i] for i in (0, 17, 40, 71)]
    specs.append(make_spec(types=("entangled", "mixed"), cycles=(5, 6), k=(0.3, 0.6), l=(0.3, 0.6),
                           g=(0.0,) * 11, h=(0.0,) * 11))
    counts = record_reads(monkeypatch)

    def refused(m):
        raise AssertionError("a superoperator was scanned")

    for module in (channels, lindblad):
        monkeypatch.setattr(module, "_factor", refused)
    for spec in specs:
        for c in (1e8, 1.0, 1e-12):
            triple = scenario_build(spec)
            systems = [
                System(state=sys.state, dynamics=LindbladGenerator(
                    dim=sys.dim, superoperator=c * sys.dynamics.superoperator,
                    jumps=tuple(np.sqrt(c) * v for v in sys.dynamics.jumps),
                    hamiltonian=c * sys.dynamics.hamiltonian))
                for sys in (triple.system_a, triple.system_b)
            ]
            is_balanced(*systems, triple.coupling)
            balance_sub_residuals(spec)
            assert all(sys.dynamics.nonzeros is None for sys in systems)
    assert set(counts) <= {"factor"}


def test_check_psd_scale_does_not_overflow():
    """The Hermitian residual and its scale are Frobenius norms that
    survive an overflow of the sum of squares (kernel.frob_norm): at
    entries of 1e160 the scale was inf, and a matrix 1e153 off Hermitian
    passed the gate; it is judged as the same matrix divided by 1e150."""
    m = np.full((3, 3), 1e160, dtype=complex)
    m[0, 1] += 1e153
    with np.errstate(over="ignore"):
        assert check_psd(m) == check_psd(m / 1e150) == (False, -np.inf)
        assert check_psd(np.full((3, 3), 1e160, dtype=complex))[0]


def test_held_dynamics_are_freed_by_reference_counts():
    """No held factor refers back to itself (as a bound method of its own
    scatter, kept as the builder of a block never read, once did), so
    duals, conjugates and semigroups, read as the probes read them, are
    freed as their last reference goes, with the cyclic collector off: a
    cycle kept each one's forms alive until a collection and raised the
    benchmark's peak RSS."""
    triple = probe_like_triples()[2]
    a, b, w = triple.system_a, triple.system_b, triple.coupling
    s = a.state
    gc.collect()
    gc.disable()
    try:
        for dyn in (a.dynamics, semigroup(a.dynamics, 1.0)):
            for made in (dual(dyn, s, s), kms_dual(dyn, s, s), _kms_conjugate(dyn)):
                made.superoperator, made.pattern.form(0), made.pattern.form(1)
        sampled_balance(a, b, w, (0.1, 1.0))
        dual_order_check(a, b, w)
        del dyn, made
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_gathering_factor_keeps_no_block_builder():
    """A factor whose two sides gather never builds its dense block, so it
    keeps no builder of one, which would hold the dense matrix the factor
    was scanned from: kept, it held a coupling's n^2 x n^2 pairing matrix
    alive beside kappa, one such array more at the peak of a n = 48
    layout."""
    m = np.eye(256, dtype=complex)
    f, gone = kernel._factor(m), weakref.ref(m)
    del m
    assert all(f.gathers) and gone() is None and f.block is None


def test_runs_of_exponentials_are_bounded(monkeypatch):
    """Over many times, each mat_exp pass of the batched exponentials
    holds at most n^4 / 4 entries, and the passes
    are taken as the exponentials are consumed, with the bits of one
    semigroup call per time."""
    gen = probe_like_triples()[0].system_a.dynamics
    times = [0.05 * i for i in range(1, 41)]
    passes = []
    real = lindblad.mat_exp

    def recorded(m, blocks=None):
        passes.append(np.shape(m))
        return real(m, blocks)

    monkeypatch.setattr(lindblad, "mat_exp", recorded)
    made = _exponentials([(gen, t) for t in times])
    first = next(made)
    assert 0 < len(passes) < 40
    rest = list(made)
    assert len(passes) > 1 and all(np.prod(shape) <= gen.dim**4 // 4 for shape in passes)
    monkeypatch.setattr(lindblad, "mat_exp", real)
    for t, stacks in zip(times, [first, *rest]):
        (one,) = _exponentials([(gen, t)])
        assert all(x.tobytes() == y.tobytes() for x, y in zip(stacks, one))


def test_only_held_dynamics_form_their_superoperator_on_read():
    """Dynamics built dense keep their class, which has no descriptor for
    the superoperator, so its reads stay plain attribute reads; held
    dynamics take a subclass of the same name that forms it on read."""
    sys = probe_like_triples()[0].system_a
    gen, s = sys.dynamics, sys.state
    assert "superoperator" not in vars(LindbladGenerator) and "superoperator" not in vars(channels.QuantumChannel)
    assert type(gen) is LindbladGenerator and "superoperator" in vars(gen)
    for held in (dual(gen, s, s), semigroup(gen, 1.0), _kms_conjugate(dual(gen, s, s))):
        cls = type(held)
        assert cls.__bases__[0] in (LindbladGenerator, channels.QuantumChannel)
        assert cls.__name__ == cls.__bases__[0].__name__ and "superoperator" not in vars(held)
        assert isinstance(held.superoperator, np.ndarray) and "superoperator" in vars(held)
