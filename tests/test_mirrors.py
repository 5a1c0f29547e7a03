"""The mirror plan of a split (kernel._mirrors): tau(i + n j) = j + n i carries
a block of a *-preserving generator onto its mirror block, on which e^{tL},
the spectrum and the kernel are the image block's, conjugated and permuted.
mat_exp, eigenvalues and nullspace factor one block of each pair; these
tests hold them to the plan-free per-block computation, and check that the
plan keeps only exact pairs."""

import numpy as np
import pytest
import scipy.optimize
from conftest import probe_like_triples
from hypothesis import given, settings
from hypothesis import strategies as st

from balance_lab import kernel
from balance_lab.channels import change_frame, fixed_point_space
from balance_lab.kernel import _invariant_blocks, _mirrors, _stacks, eigenvalues, mat_exp, vec
from balance_lab.lindblad import (
    LindbladGenerator,
    _exponentials,
    build_generator,
    cycle_generator,
    scenario_build,
    semigroup,
    standard_grid,
)

TIMES = (0.0, 5e-324, 0.1, 1.0, 1000.0)
RTOL = 1e-13


def no_plan(blocks, stacks):
    return [None] * len(blocks)


def diagonal(x: np.ndarray) -> bool:
    """Whether the matrix x has no nonzero off its diagonal."""
    return np.count_nonzero(x) == np.count_nonzero(np.diag(x))


def grid_makers() -> dict:
    """Every generator of the standard grid and of the probe-like triples,
    as functions that build it afresh, so that a plan-free build holds no
    plan made before."""
    makers = {}
    for i, spec in enumerate(standard_grid()):
        for side in ("a", "b"):
            makers[f"grid{i}{side}"] = lambda spec=spec, side=side: getattr(
                scenario_build(spec), f"system_{side}").dynamics
    for i in range(len(probe_like_triples())):
        for side in ("a", "b"):
            makers[f"probe{i}{side}"] = lambda i=i, side=side: getattr(
                probe_like_triples()[i], f"system_{side}").dynamics
    return makers


GRID = grid_makers()


def random_generator(seed: int) -> LindbladGenerator:
    """A *-preserving generator from ``build_generator`` with n = 2-4: a
    real weighted permutation and a real diagonal jump, and a Hermitian
    Hamiltonian, diagonal or with one off-diagonal pair, so that its split
    has several blocks.  Real jumps keep L's symmetry exact: a complex V
    rounds the imaginary parts of V* V apart where BLAS fuses its products,
    and such a generator gets no plan."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    shift = np.zeros((n, n))
    shift[rng.permutation(n), np.arange(n)] = rng.normal(size=n)
    h = np.diag(rng.normal(size=n)).astype(complex)
    if rng.random() < 0.5:
        i, j = rng.choice(n, 2, replace=False)
        h[i, j] = complex(*rng.normal(size=2))
        h[j, i] = np.conj(h[i, j])
    return build_generator([shift, np.diag(rng.normal(size=n))], h)


def tau_pairs(blocks, stacks) -> set:
    """The (group, mirror, image) rows of every pair of blocks that tau
    swaps, found by search: the image is the earlier row and its slice is
    not diagonal."""
    n = int(round(np.sqrt(sum(idx.size for idx in blocks))))
    pairs = set()
    for g, (idx, x) in enumerate(zip(blocks, stacks)):
        for r, row in enumerate(idx):
            image = sorted(j % n * n + j // n for j in row)
            for s in range(r + 1, len(idx)):
                if list(idx[s]) == image and not diagonal(x[r]):
                    pairs.add((g, s, r))
    return pairs


def planned(plan) -> set:
    return {(g, int(m), int(i)) for g, p in enumerate(plan) if p is not None for m, i in zip(*p[:2])}


def results(gen) -> tuple:
    """e^{tL} at TIMES, the spectrum and the projector onto the fixed points."""
    exps = [semigroup(gen, t).superoperator for t in TIMES]
    basis = np.array([vec(b) for b in fixed_point_space(gen)])
    return exps, eigenvalues(gen.superoperator, gen.invariant_blocks), basis.T @ basis.conj()


def plan_free(make) -> tuple:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_mirrors", no_plan)
        return results(make())


def assert_close(got: tuple, want: tuple) -> None:
    for x, y in zip(got[0], want[0]):
        assert np.linalg.norm(x - y) <= RTOL * np.linalg.norm(y)
    a, b = got[1], want[1]
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    assert a.size == b.size and cost[rows, cols].max() <= RTOL * np.abs(b).max()
    assert got[2].shape == want[2].shape
    assert np.linalg.norm(got[2] - want[2]) <= RTOL * np.linalg.norm(want[2])


def assert_mirrors_are_conjugates(gen) -> None:
    """Each mirror slice of e^{tL}, at every t where its image is not
    diagonal, is bitwise the conjugate of its permuted image, with +0 for
    a zero imaginary part."""
    plan = gen.invariant_blocks.mirrors
    for (_, t), stacks in zip([(gen, t) for t in TIMES], _exponentials([(gen, t) for t in TIMES])):
        for x, p, l_x in zip(stacks, plan, kernel._block_stacks(gen.pattern, gen.invariant_blocks)):
            for m, i, perm, _ in zip(*p) if p is not None else ():
                if diagonal(t * l_x[i]):
                    continue
                want = np.conj(x[i][np.ix_(perm, perm)])
                assert x[m].real.tobytes() == want.real.tobytes()
                assert np.array_equal(x[m].imag, want.imag) and not np.signbit(x[m].imag[x[m].imag == 0]).any()


class TestPositive:
    @pytest.mark.parametrize("name", sorted(GRID))
    def test_grid_and_probe_generators(self, name):
        gen = GRID[name]()
        split = gen.invariant_blocks
        stacks = kernel._block_stacks(gen.pattern, split)
        assert planned(split.mirrors) == tau_pairs(split, stacks)
        assert_close(results(gen), plan_free(GRID[name]))
        assert_mirrors_are_conjugates(gen)

    def test_probe_layouts_mirror_their_share(self):
        # a 16-cycle: 7 pairs and 2 self-mirrored blocks; four 4-cycles: 28 of 64
        counts = []
        for i in (2, 3):
            split = probe_like_triples()[i].system_a.dynamics.invariant_blocks
            counts.append((len(planned(split.mirrors)), sum(len(idx) for idx in split)))
        assert counts == [(7, 16), (28, 64)]

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_generators(self, seed):
        gen = random_generator(seed)
        split = gen.invariant_blocks
        assert planned(split.mirrors) == tau_pairs(split, kernel._block_stacks(gen.pattern, split))
        assert_close(results(gen), plan_free(lambda: random_generator(seed)))
        assert_mirrors_are_conjugates(gen)

    def test_scanned_and_held_plans_agree(self):
        for name in ("grid0a", "probe2a", "probe3b"):
            gen = GRID[name]()
            for t in TIMES:
                assert semigroup(gen, t).superoperator.tobytes() == mat_exp(t * gen.superoperator).tobytes()
            assert eigenvalues(gen.superoperator).tobytes() == \
                eigenvalues(gen.superoperator, gen.invariant_blocks).tobytes()


def three_cycle() -> LindbladGenerator:
    """A 3-cycle: blocks {(i, i)}, self-mirrored, and one pair."""
    return cycle_generator((3,), [0.3], [0.2, -0.5, 0.4])


def assert_parent_bytes(make) -> None:
    """No pair in the plan, and e^{tL}, the spectrum and the fixed points
    with the bytes of the plan-free computation."""
    gen = make()
    assert planned(gen.invariant_blocks.mirrors) == set()
    got, want = results(gen), plan_free(make)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got[0], want[0]))
    assert got[1].tobytes() == want[1].tobytes() and got[2].tobytes() == want[2].tobytes()


class TestFallback:
    def test_three_cycle_has_one_pair(self):
        split = three_cycle().invariant_blocks
        assert planned(split.mirrors) == {(0, 2, 1)}

    def test_one_ulp_off(self):
        s = three_cycle().superoperator.copy()
        (idx,) = three_cycle().invariant_blocks
        a, b = idx[2][0], idx[2][1]
        assert s[a, b] != 0
        s[a, b] = complex(np.nextafter(s[a, b].real, np.inf), s[a, b].imag)
        assert_parent_bytes(lambda: LindbladGenerator(dim=3, superoperator=s.copy()))

    def test_nan_entry(self):
        s = three_cycle().superoperator.copy()
        (idx,) = _invariant_blocks(s)
        # NaN at an entry of the image block and at its mirror: no NaN
        # equals the conjugate of a NaN
        a, b = idx[1][:2]
        s[a, b] = s[a % 3 * 3 + a // 3, b % 3 * 3 + b // 3] = complex(np.nan, 0.0)
        assert _mirrors(_invariant_blocks(s), lambda: [_stacks(s, i, i) for i in _invariant_blocks(s)]) == [None]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "_mirrors", no_plan)
            want = mat_exp(s)
        assert mat_exp(s).tobytes() == want.tobytes()

    def test_diagonal_slices(self):
        # i[h, .] for a diagonal h is diagonal: every block is 1 x 1, and
        # tau pairs them exactly, but each keeps np.exp of its own entry
        h = np.diag([0.3, -0.7, 1.1]).astype(complex)
        assert_parent_bytes(lambda: build_generator([], h))

    def test_rotated_frame(self):
        rng = np.random.default_rng(23)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        make = lambda: change_frame(cycle_generator((4,), [0.4], [0.1, 0.5, -0.3, 0.2]), q, q)  # noqa: E731
        assert len(_invariant_blocks(make().superoperator)) == 1
        assert_parent_bytes(make)

    def test_split_not_carried_onto_itself(self):
        gen = three_cycle()
        (idx,) = gen.invariant_blocks
        # blocks 0 and 1 as one: tau maps the union onto blocks 0 and 2
        split = [np.sort(np.concatenate(idx[:2]))[None], idx[2:]]
        stacks = [_stacks(gen.superoperator, i, i) for i in split]
        assert _mirrors(split, lambda: stacks) == [None, None]
        got = (mat_exp(gen.superoperator, split), eigenvalues(gen.superoperator, split))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "_mirrors", no_plan)
            want = (mat_exp(gen.superoperator, split), eigenvalues(gen.superoperator, split))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
