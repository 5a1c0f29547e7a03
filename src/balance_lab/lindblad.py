"""Semigroup generators in GKS form and the weighted-cyclic-shift scenario family.

A generator acts on observables as

    L(a) = sum_j V_j* a V_j - 1/2 {sum_j V_j* V_j, a} + i [h, a],

so L(1) = 0 and e^{tL} is a unital completely positive semigroup.

The scenario family lives on a direct sum of cycles of lengths r_j >= 3 with a
state that is constant on each cycle.  Its dynamics use weighted cyclic shifts

    R_k = blockdiag(sqrt(k_j) O_{r_j}),   O e_1 = e_2, ..., O e_r = e_1,

with the normalization R_k* R_k + R_{1-k} R_{1-k}* = 1, giving the generator

    K(a) = R_k* a R_k + R_{1-k} a R_{1-k}* - a + i [g, a],

whose dual with respect to the block-constant state swaps k for 1-k.  Its
superoperator has 3 n^2 nonzeros of n^4, and :func:`cycle_generator` writes
them by index from the cycle-successor permutation succ: s_p s_q at
(p n + q, succ[p] n + succ[q]) for s = sqrt(k), t_p t_q at the transposed
positions for t = sqrt(1 - k), and -(acc_p + acc_q) / 2 + i (g_q - g_p) on
the diagonal, acc = s^2 + t^2.  These are the bits that
:func:`build_generator` forms from the Kronecker products of the jumps
(R_k, R_{1-k}*), signed zeros included.  A
scenario pairs two such systems with a block coupling built per partition
block from one of three kinds: an entangled pure state on the block, the
matching classical mixture, or the blockwise product state.  Balance of the
pair is decided by pure arithmetic on the parameters: the shift weights must
agree on every entangled or mixed block, and the Hamiltonian difference g - h
must be constant on every entangled block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channels import QuantumChannel, ReversingOperation, dual, kms_dual, theta_kms_dual
from .couplings import Coupling
from .kernel import (
    DEFAULT_TOL,
    _block_columns,
    _blocks,
    _Factor,
    _factor,
    _held,
    _json_int,
    _made,
    _json_list,
    _json_number,
    as_matrix,
    frob_norm,
    is_hermitian,
    kraus_superop,
    kron,
    _listed,
    mat_exp,
    relative_residual,
    vec,
)
from .states import _NORMALIZATION_TOL, FaithfulState, System, new_faithful_state

# how far apart two scenario parameters may be and still count as equal
_PREDICT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """GKS generator; ``jumps`` may be None when only the superoperator is known.

    ``scale`` is the a-priori size of L that its verdicts are relative to:
    sum_j ||V_j||^2 + ||H|| when the jumps are known, ||L|| otherwise, unless
    the maker of L passes it.  The norm of L itself cancels exactly when
    L = 0, as for a jump proportional to 1 or any 1 x 1 generator."""

    dim: int
    superoperator: np.ndarray
    jumps: tuple | None = None
    hamiltonian: np.ndarray | None = None
    scale: float | None = field(default=None, repr=False)

    def __post_init__(self):
        s = as_matrix(self.superoperator)
        if s.shape != (self.dim**2, self.dim**2):
            raise ValueError("generator superoperator has wrong shape")
        object.__setattr__(self, "superoperator", s)
        if self.scale is None:
            if self.jumps is None:
                scale = frob_norm(s)
            else:
                # ||V||^2 and ||H|| as vdot(V, V), which costs a third of a norm call
                h = 0.0 if self.hamiltonian is None else math.sqrt(np.vdot(self.hamiltonian, self.hamiltonian).real)
                scale = sum(np.vdot(v, v).real for v in self.jumps) + h
            object.__setattr__(self, "scale", float(scale))
        one = vec(np.eye(self.dim, dtype=complex))
        if relative_residual(frob_norm(s @ one), self.scale) > DEFAULT_TOL:
            raise ValueError("generator is not unital: L(1) != 0")

    @cached_property
    def pattern(self) -> _Factor:
        """The exact nonzero pattern of L as a ``kernel._Factor``: held from
        the maker where it knows it (:func:`cycle_generator`, the duals),
        scanned once, on first use, otherwise."""
        return _made(self, "pattern", lambda: _factor(self.superoperator))

    @cached_property
    def invariant_blocks(self) -> list[np.ndarray]:
        """The exact-zero split of L (``kernel._invariant_blocks``), read off
        its :attr:`pattern`, so that L has one pattern.  For finite t >= 0
        the pattern of t L is that of L or, where an entry underflows or
        t = 0, part of it, so this is a valid split of every t L."""
        return _blocks(self.dim**2, *self.pattern.entries()[:2])

    @property
    def kind(self) -> str:
        return "generator"

    @property
    def dim_in(self) -> int:
        return self.dim

    @property
    def dim_out(self) -> int:
        return self.dim


def build_generator(jumps, hamiltonian=None) -> LindbladGenerator:
    """Assemble L from jump operators and an optional Hermitian Hamiltonian,
    vectorized as in :func:`kernel.kraus_superop`."""
    ops = tuple(as_matrix(v) for v in jumps)
    if ops:
        n = ops[0].shape[0]
    elif hamiltonian is not None:
        n = as_matrix(hamiltonian).shape[0]
    else:
        raise ValueError("need at least one jump operator or a hamiltonian")
    for v in ops:
        if v.shape != (n, n):
            raise ValueError("jump operators must be square and share one dimension")
    if hamiltonian is not None:
        h = as_matrix(hamiltonian)
        if h.shape != (n, n) or not is_hermitian(h):
            raise ValueError("non-Hermitian hamiltonian")
    else:
        h = np.zeros((n, n), dtype=complex)

    s = kraus_superop(ops, n, n)
    acc = sum((v.conj().T @ v for v in ops), np.zeros((n, n), dtype=complex))
    s -= 0.5 * (kron(acc.T, np.eye(n)) + kron(np.eye(n), acc))
    s += 1j * (kron(np.eye(n), h) - kron(h.T, np.eye(n)))
    return LindbladGenerator(dim=n, superoperator=s, jumps=ops, hamiltonian=h)


def semigroup(gen: LindbladGenerator, t: float) -> QuantumChannel:
    """The channel e^{tL}, with its pattern read off the blocks of the split
    it was taken on: e^{tL} is zero outside them."""
    if not math.isfinite(t) or t < 0:
        raise ValueError("semigroup time must be finite and non-negative")
    blocks = gen.invariant_blocks
    s = mat_exp(t * gen.superoperator, blocks)
    channel = QuantumChannel(dim_in=gen.dim, dim_out=gen.dim, superoperator=s)
    return _held(channel, pattern=lambda: _listed(s, _block_columns(blocks, s.shape[0])))


def dual_generator(
    gen: LindbladGenerator, s: FaithfulState, tol: float = DEFAULT_TOL
) -> LindbladGenerator:
    """Generator of the dual semigroup with respect to an invariant state.

    Solves Tr(r a r L'(b)^T) = Tr(r L(a) r b^T) for all a, b (r = rho^1/2),
    i.e. the weight-transformed transpose of the superoperator.
    """
    return dual(gen, s, s, tol)


def kms_dual_generator(
    gen: LindbladGenerator, s: FaithfulState, tol: float = DEFAULT_TOL
) -> LindbladGenerator:
    return kms_dual(gen, s, s, tol)


def theta_kms_dual_generator(
    gen: LindbladGenerator,
    s: FaithfulState,
    th: ReversingOperation,
    tol: float = DEFAULT_TOL,
) -> LindbladGenerator:
    return theta_kms_dual(gen, s, th, tol)


def _cycle_successor(cycle_lengths) -> np.ndarray:
    """The cycle-successor permutation: succ[i] is the index after i on its
    cycle, so the shift O of each cycle maps e_i to e_succ[i]."""
    lengths = [int(r) for r in cycle_lengths]
    for r in lengths:
        if r < 3:
            raise ValueError(f"cycle too short: length {r} < 3")
    ends = np.cumsum(lengths, dtype=int)
    succ = np.arange(1, sum(lengths) + 1)
    succ[ends - 1] = ends - lengths
    return succ


def _shift(succ: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The weighted shift with roots[i] at (succ[i], i)."""
    n = succ.size
    out = np.zeros((n, n), dtype=complex)
    out[succ, np.arange(n)] = roots
    return out


def _roots(cycle_lengths, weights) -> np.ndarray:
    """sqrt(w_j) on each basis index of cycle j."""
    if len(cycle_lengths) != weights.shape[0]:
        raise ValueError("one weight per cycle required")
    return np.sqrt(np.repeat(weights, [int(r) for r in cycle_lengths]))


def cycle_generator(cycle_lengths, weights, ham_diag=None) -> LindbladGenerator:
    """K(a) = R_k* a R_k + R_{1-k} a R_{1-k}* - a + i[diag(g), a], written by
    index from the cycle-successor permutation succ.

    Under the column stacking of :func:`kernel.kraus_superop`, with k_p the
    weight of the cycle of p, s = sqrt(k), t = sqrt(1 - k) and
    acc = s^2 + t^2 (R_k* R_k + R_{1-k} R_{1-k}*, summed in that order),
    the superoperator holds

        s_p s_q                             at (p n + q, succ[p] n + succ[q]),
        t_p t_q                             at (succ[p] n + succ[q], p n + q),
        -(0.5 (acc_p + acc_q)) + i (g_q - g_p)  at (p n + q, p n + q),

    and +0 everywhere else: the 3 n^2 nonzeros of
    :func:`build_generator` on the jumps (R_k, R_{1-k}*), to the bit,
    signed zeros included.  A cycle has length >= 3, so the three patterns
    never meet."""
    weights = np.asarray(weights, dtype=float)
    # a comparison with NaN is false, so ask each weight to be inside
    if not np.all((weights > 0.0) & (weights < 1.0)):
        raise ValueError("shift weights must lie strictly between 0 and 1")
    succ = _cycle_successor(cycle_lengths)
    s, t = _roots(cycle_lengths, weights), _roots(cycle_lengths, 1.0 - weights)
    n = succ.size
    if ham_diag is None:
        g = np.zeros(n)
    else:
        g = np.asarray(ham_diag, dtype=float)
        if g.shape != (n,):
            raise ValueError("hamiltonian diagonal has wrong length")
        if not np.all(np.isfinite(g)):
            raise ValueError("hamiltonian diagonal must be finite")
    acc = s * s + t * t
    # p n + q for p, q in row-major order, and its image under succ (x) succ
    here = np.arange(n * n)
    there = (succ[:, None] * n + succ).ravel()
    sup = np.zeros((n * n, n * n), dtype=complex)
    sup[here, there] = np.outer(s, s).ravel()
    sup[there, here] = np.outer(t, t).ravel()
    sup[here, here] = (-(0.5 * (acc[:, None] + acc)) + 1j * (g - g[:, None])).ravel()
    jumps = (_shift(succ, s), _shift(succ, t).conj().T)
    gen = LindbladGenerator(dim=n, superoperator=sup, jumps=jumps, hamiltonian=np.diag(g).astype(complex))

    def pattern():
        # row p n + q holds its diagonal, (succ p, succ q) and (pred p, pred q)
        back = np.empty_like(there)
        back[there] = here
        return _listed(sup, np.sort(np.stack((here, there, back), axis=1)))

    return _held(gen, pattern=pattern)


VALID_BLOCK_TYPES = ("entangled", "mixed", "product")


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """Parameters of a two-system scenario with a block coupling.

    ``block_probs`` are per-cycle total weights (the state spectrum is
    block_probs[j] / r_j on cycle j); ``partition`` groups cycle indices into
    coupling blocks typed by ``block_types``; ``k``/``l`` are per-cycle shift
    weights of the two systems; ``g``/``h`` their diagonal Hamiltonians, one
    entry per basis index.
    """

    cycle_lengths: tuple
    block_probs: tuple
    partition: tuple
    block_types: tuple
    k: tuple
    l: tuple
    g: tuple
    h: tuple

    def __post_init__(self):
        cl = tuple(int(r) for r in self.cycle_lengths)
        object.__setattr__(self, "cycle_lengths", cl)
        for r in cl:
            if r < 3:
                raise ValueError(f"cycle too short: length {r} < 3")
        nc = len(cl)
        # a scenario file may hold NaN or Infinity, and a comparison with NaN
        # is false: so each range check asks for the inside, entry by entry
        # (an infinite weight fails the sum)
        bp = tuple(float(x) for x in self.block_probs)
        if len(bp) != nc or not all(x > 0 for x in bp) or abs(sum(bp) - 1.0) > _NORMALIZATION_TOL:
            raise ValueError("block_probs must be positive per-cycle weights summing to 1")
        part = tuple(tuple(int(c) for c in blk) for blk in self.partition)
        flat = [c for blk in part for c in blk]
        if sorted(flat) != list(range(nc)):
            raise ValueError("partition must cover each cycle exactly once")
        types = tuple(str(t) for t in self.block_types)
        if len(types) != len(part) or any(t not in VALID_BLOCK_TYPES for t in types):
            raise ValueError(f"block types must be drawn from {VALID_BLOCK_TYPES}")
        for name, w in (("k", self.k), ("l", self.l)):
            w = tuple(float(x) for x in w)
            if len(w) != nc or not all(0.0 < x < 1.0 for x in w):
                raise ValueError(f"{name} must have one entry per cycle in (0, 1)")
            object.__setattr__(self, name, w)
        n = sum(cl)
        for name, v in (("g", self.g), ("h", self.h)):
            v = tuple(float(x) for x in v)
            if len(v) != n or not all(map(math.isfinite, v)):
                raise ValueError(f"{name} must have one finite real entry per basis index")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "block_probs", bp)
        object.__setattr__(self, "partition", part)
        object.__setattr__(self, "block_types", types)

    @property
    def dim(self) -> int:
        return sum(self.cycle_lengths)

    def cycle_ranges(self) -> list[range]:
        out, off = [], 0
        for r in self.cycle_lengths:
            out.append(range(off, off + r))
            off += r
        return out

    def block_indices(self) -> list[list[int]]:
        ranges = self.cycle_ranges()
        return [[q for c in blk for q in ranges[c]] for blk in self.partition]

    def to_json(self) -> dict:
        return {
            "cycles": list(self.cycle_lengths),
            "block_probs": list(self.block_probs),
            "partition": [list(b) for b in self.partition],
            "types": list(self.block_types),
            "k": list(self.k),
            "l": list(self.l),
            "g": list(self.g),
            "h": list(self.h),
        }


def scenario_from_json(obj) -> ScenarioSpec:
    try:
        # ScenarioSpec coerces with int() and float(), which would truncate a
        # wire integer and read a string of digits as numbers
        return ScenarioSpec(
            cycle_lengths=_json_list(obj["cycles"], "cycles", _json_int),
            block_probs=_json_list(obj["block_probs"], "block_probs", _json_number),
            partition=tuple(
                _json_list(blk, f"partition[{i}]", _json_int)
                for i, blk in enumerate(obj["partition"])
            ),
            block_types=tuple(obj["types"]),
            **{key: _json_list(obj[key], key, _json_number) for key in ("k", "l", "g", "h")},
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed scenario object: {exc}") from exc


def scenario_state(spec: ScenarioSpec) -> FaithfulState:
    p = np.concatenate(
        [np.full(r, w / r) for r, w in zip(spec.cycle_lengths, spec.block_probs)]
    )
    return new_faithful_state(p)


def _coupling_entries(spec: ScenarioSpec, p: np.ndarray) -> tuple[np.ndarray, ...]:
    """kappa's nonzeros as (x, y, x2, y2, v), kappa[x n + y, x2 n + y2] = v,
    for the spectrum p of :func:`scenario_state`, one segment per block
    with indices q:

        entangled  (q_i, q_i, q_j, q_j), sqrt(p_i) sqrt(p_j),
        mixed      (q_i, q_i, q_i, q_i), p_i,
        product    (q_i, q_j, q_i, q_j), d_i d_j,  d = p_q / sqrt(p(q)),

    every pair (i, j) in row-major order.  The blocks sit on disjoint index
    sets, so no position repeats, and no value is zero unless a product of
    two weights underflows.  The complex quotient and the sum in index
    order round as the Kronecker form (diag(p_q) / sqrt(mass)) (x) itself
    did, so a scatter of the entries into zeros is kappa to the bit."""
    parts = []
    for indices, btype in zip(spec.block_indices(), spec.block_types):
        q = np.asarray(indices, dtype=int)
        if btype == "mixed":
            parts.append((q, q, q, q, p[q]))
            continue
        # a = q_i and b = q_j over the pairs (i, j) in row-major order
        a = q.repeat(q.size)
        b = a.reshape(q.size, q.size).T.ravel()
        if btype == "entangled":
            r = np.sqrt(p[q])
            parts.append((a, a, b, b, np.outer(r, r).ravel()))
        else:
            d = p[q].astype(complex) / np.sqrt(sum(p[i] for i in indices))
            parts.append((a, b, a, b, np.outer(d, d).ravel()))
    x, y, x2, y2, v = (np.concatenate(c) for c in zip(*parts))
    return x, y, x2, y2, v.astype(complex, copy=False)


def scenario_coupling(spec: ScenarioSpec) -> Coupling:
    """kappa = sum over blocks of an entangled, mixed or product block state,
    scattered from its nonzeros (:func:`_coupling_entries`)."""
    s = scenario_state(spec)
    n = s.dim
    x, y, x2, y2, v = _coupling_entries(spec, s.spectrum)
    kappa = np.zeros((n * n, n * n), dtype=complex)
    kappa[x * n + y, x2 * n + y2] = v
    return Coupling(kappa=kappa, state_a=s, state_b=s)


@dataclass(frozen=True, eq=False)
class ScenarioTriple:
    system_a: System
    system_b: System
    coupling: Coupling
    spec: ScenarioSpec


def scenario_build(spec: ScenarioSpec) -> ScenarioTriple:
    # the systems share the coupling's state, so one triple builds one state
    w = scenario_coupling(spec)
    gen_a = cycle_generator(spec.cycle_lengths, spec.k, spec.g)
    gen_b = cycle_generator(spec.cycle_lengths, spec.l, spec.h)
    return ScenarioTriple(
        system_a=System(state=w.state_a, dynamics=gen_a),
        system_b=System(state=w.state_b, dynamics=gen_b),
        coupling=w,
        spec=spec,
    )


def scenario_predict(spec: ScenarioSpec) -> bool:
    """Arithmetic balance verdict: equal shift weights on every entangled or
    mixed block, and g - h constant on every entangled block."""
    for blk, btype in zip(spec.partition, spec.block_types):
        if btype in ("entangled", "mixed"):
            for c in blk:
                if abs(spec.k[c] - spec.l[c]) > _PREDICT_TOL:
                    return False
    for indices, btype in zip(spec.block_indices(), spec.block_types):
        if btype == "entangled" and indices:
            diffs = [spec.g[q] - spec.h[q] for q in indices]
            if max(diffs) - min(diffs) > _PREDICT_TOL:
                return False
    return True


def standard_grid() -> list[ScenarioSpec]:
    """Characterization grid on two cycles (3, 4): every arrangement of block
    types over the partitions {0}{1} and {0 1}, crossed with equal vs unequal
    shift weights and three Hamiltonian patterns (zero difference, difference
    constant per cycle, difference non-constant on the first cycle)."""
    r = (3, 4)
    bp = (0.45, 0.55)
    n = sum(r)
    layouts = [(((0,), (1,)), (ta, tb)) for ta in VALID_BLOCK_TYPES for tb in VALID_BLOCK_TYPES]
    layouts += [(((0, 1),), (t,)) for t in VALID_BLOCK_TYPES]
    k = (0.3, 0.6)
    l_options = ((0.3, 0.6), (0.45, 0.25))
    zero = (0.0,) * n
    g_options = (
        (zero, zero),
        ((0.4, 0.4, 0.4, -0.3, -0.3, -0.3, -0.3), zero),
        ((0.1, 0.2, 0.3, 0.0, 0.0, 0.0, 0.0), zero),
    )
    specs = []
    for partition, types in layouts:
        for l_weights in l_options:
            for g, h in g_options:
                specs.append(
                    ScenarioSpec(
                        cycle_lengths=r,
                        block_probs=bp,
                        partition=partition,
                        block_types=types,
                        k=k,
                        l=l_weights,
                        g=g,
                        h=h,
                    )
                )
    return specs


def balance_sub_residuals(spec: ScenarioSpec) -> tuple[float, float]:
    """Split the generator-level balance defect of a real kappa into the
    shift part and the Hamiltonian-commutator part; both vanish iff balanced.

    The shift part is ||J||_F for

        J = A1 kappa A1* + A2* kappa A2 - B1 kappa B1* - B2* kappa B2,

    A1 = R_k (x) 1, A2 = R_{1-k} (x) 1, B1 = 1 (x) R_{1-l}, B2 = 1 (x) R_l,
    and the commutator part is ||[g (x) 1 - 1 (x) h, kappa]||_F.  Both are
    read off kappa's nonzeros (x, y, x2, y2, v) of :func:`_coupling_entries`,
    with no dense kappa.  R_w has sqrt(w) at (succ[i], i), so each sandwich
    is kappa's nonzeros moved by succ or its inverse pred on one tensor
    factor: A1 moves (x, y) to (succ x, y) with value
    rk[succ x] v conj(rk[succ x2]), rk = sqrt(k) per basis index, A2* moves
    it to (pred x, y), and B1 and B2* do the same on y.  The commutator sits
    at kappa's own nonzeros, (g_x v - v g_x2) - (h_y v - v h_y2).

    Each part is summed into a zero n^2 x n^2 array, the four sandwiches in
    the order of J.  Every term is zero off the positions written, so the
    array holds the values of the dense products (up to the sign of a zero),
    and ``frob_norm`` sums their squares in the same memory order: the two
    numbers keep the bits of the Kronecker form,
    ``conftest.balance_sub_residuals_kron`` in the tests."""
    n = spec.dim
    x, y, x2, y2, v = _coupling_entries(spec, scenario_state(spec).spectrum)
    succ = _cycle_successor(spec.cycle_lengths)
    pred = np.argsort(succ)

    def root(w) -> np.ndarray:
        return _roots(spec.cycle_lengths, w).astype(complex)

    k, l = np.asarray(spec.k), np.asarray(spec.l)
    # (move, weights, tensor factor): the moved index i weighs w[i] on the
    # left and conj(w[i]) on the right
    terms = (
        (succ, root(k), 0),
        (pred, root(1.0 - k).conj(), 0),
        (succ, root(1.0 - l), 1),
        (pred, root(l).conj(), 1),
    )
    jump = np.zeros((n * n, n * n), dtype=complex)
    for move, w, factor in terms:
        if factor == 0:
            i, i2 = move[x], move[x2]
            jump[i * n + y, i2 * n + y2] += w[i] * v * w[i2].conj()
        else:
            i, i2 = move[y], move[y2]
            jump[x * n + i, x2 * n + i2] -= w[i] * v * w[i2].conj()
    g, h = np.asarray(spec.g), np.asarray(spec.h)
    comm = np.zeros((n * n, n * n), dtype=complex)
    comm[x * n + y, x2 * n + y2] = (g[x] * v - v * g[x2]) - (h[y] * v - v * h[y2])
    return frob_norm(jump), frob_norm(comm)
