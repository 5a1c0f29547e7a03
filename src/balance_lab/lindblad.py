"""Semigroup generators in GKS form and the weighted-cyclic-shift scenario family.

A generator acts on observables as

    L(a) = sum_j V_j* a V_j - 1/2 {sum_j V_j* V_j, a} + i [h, a],

so L(1) = 0 and e^{tL} is a unital completely positive semigroup.

The scenario family lives on a direct sum of cycles of lengths r_j >= 3 with a
state that is constant on each cycle.  Its dynamics use weighted cyclic shifts

    R_k = blockdiag(sqrt(k_j) O_{r_j}),   O e_1 = e_2, ..., O e_r = e_1,

with the normalization R_k* R_k + R_{1-k} R_{1-k}* = 1, giving the generator

    K(a) = R_k* a R_k + R_{1-k} a R_{1-k}* - a + i [g, a],

whose dual with respect to the block-constant state swaps k for 1-k.  A
scenario pairs two such systems with a block coupling built per partition
block from one of three kinds: an entangled pure state on the block, the
matching classical mixture, or the blockwise product state.  Balance of the
pair is decided by pure arithmetic on the parameters: the shift weights must
agree on every entangled or mixed block, and the Hamiltonian difference g - h
must be constant on every entangled block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .channels import QuantumChannel, ReversingOperation, dual, kms_dual, theta_kms_dual
from .couplings import Coupling
from .kernel import (
    DEFAULT_TOL,
    as_matrix,
    frob_norm,
    is_hermitian,
    mat_exp,
    relative_residual,
    vec,
)
from .states import _NORMALIZATION_TOL, FaithfulState, System, new_faithful_state

# how far apart two scenario parameters may be and still count as equal
_PREDICT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """GKS generator; ``jumps`` may be None when only the superoperator is known."""

    dim: int
    superoperator: np.ndarray
    jumps: tuple | None = None
    hamiltonian: np.ndarray | None = None

    def __post_init__(self):
        s = as_matrix(self.superoperator)
        if s.shape != (self.dim**2, self.dim**2):
            raise ValueError("generator superoperator has wrong shape")
        object.__setattr__(self, "superoperator", s)
        one = vec(np.eye(self.dim, dtype=complex))
        if relative_residual(frob_norm(s @ one), frob_norm(s)) > DEFAULT_TOL:
            raise ValueError("generator is not unital: L(1) != 0")

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
    """Assemble L from jump operators and an optional Hermitian Hamiltonian."""
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

    s = np.zeros((n * n, n * n), dtype=complex)
    acc = np.zeros((n, n), dtype=complex)
    for v in ops:
        s += np.kron(v.T, v.conj().T)
        acc += v.conj().T @ v
    s -= 0.5 * (np.kron(acc.T, np.eye(n)) + np.kron(np.eye(n), acc))
    s += 1j * (np.kron(np.eye(n), h) - np.kron(h.T, np.eye(n)))
    return LindbladGenerator(dim=n, superoperator=s, jumps=ops, hamiltonian=h)


def semigroup(gen: LindbladGenerator, t: float) -> QuantumChannel:
    """The channel e^{tL}."""
    if not math.isfinite(t) or t < 0:
        raise ValueError("semigroup time must be finite and non-negative")
    return QuantumChannel(
        dim_in=gen.dim, dim_out=gen.dim, superoperator=mat_exp(t * gen.superoperator)
    )


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


def cycle_shift(cycle_lengths, weights) -> np.ndarray:
    """Block-diagonal weighted cyclic shift, block j = sqrt(w_j) O_{r_j}."""
    cycle_lengths = [int(r) for r in cycle_lengths]
    weights = np.asarray(weights, dtype=float)
    if len(cycle_lengths) != weights.shape[0]:
        raise ValueError("one weight per cycle required")
    for r in cycle_lengths:
        if r < 3:
            raise ValueError(f"cycle too short: length {r} < 3")
    n = sum(cycle_lengths)
    out = np.zeros((n, n), dtype=complex)
    off = 0
    for r, w in zip(cycle_lengths, weights):
        for i in range(r):
            out[off + (i + 1) % r, off + i] = np.sqrt(w)
        off += r
    return out


def cycle_generator(cycle_lengths, weights, ham_diag=None) -> LindbladGenerator:
    """K(a) = R_k* a R_k + R_{1-k} a R_{1-k}* - a + i[diag(g), a]."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights <= 0.0) or np.any(weights >= 1.0):
        raise ValueError("shift weights must lie strictly between 0 and 1")
    r_k = cycle_shift(cycle_lengths, weights)
    r_1k = cycle_shift(cycle_lengths, 1.0 - weights)
    n = r_k.shape[0]
    ham = None
    if ham_diag is not None:
        ham = np.diag(np.asarray(ham_diag, dtype=float)).astype(complex)
        if ham.shape != (n, n):
            raise ValueError("hamiltonian diagonal has wrong length")
    return build_generator((r_k, r_1k.conj().T), ham)


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
        bp = tuple(float(x) for x in self.block_probs)
        if len(bp) != nc or min(bp) <= 0 or abs(sum(bp) - 1.0) > _NORMALIZATION_TOL:
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
            if len(w) != nc or min(w) <= 0.0 or max(w) >= 1.0:
                raise ValueError(f"{name} must have one entry per cycle in (0, 1)")
            object.__setattr__(self, name, w)
        n = sum(cl)
        for name, v in (("g", self.g), ("h", self.h)):
            v = tuple(float(x) for x in v)
            if len(v) != n:
                raise ValueError(f"{name} must have one real entry per basis index")
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
        return ScenarioSpec(
            cycle_lengths=tuple(obj["cycles"]),
            block_probs=tuple(obj["block_probs"]),
            partition=tuple(tuple(b) for b in obj["partition"]),
            block_types=tuple(obj["types"]),
            k=tuple(obj["k"]),
            l=tuple(obj["l"]),
            g=tuple(obj["g"]),
            h=tuple(obj["h"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed scenario object: {exc}") from exc


def scenario_state(spec: ScenarioSpec) -> FaithfulState:
    p = np.concatenate(
        [np.full(r, w / r) for r, w in zip(spec.cycle_lengths, spec.block_probs)]
    )
    return new_faithful_state(p)


def scenario_coupling(spec: ScenarioSpec) -> Coupling:
    """kappa = sum over blocks of an entangled, mixed or product block state."""
    s = scenario_state(spec)
    p, n = s.spectrum, s.dim
    kappa = np.zeros((n * n, n * n), dtype=complex)
    # the blocks sit on disjoint index sets, so each entry is written once;
    # e_q (x) e_r has index q n + r
    for indices, btype in zip(spec.block_indices(), spec.block_types):
        q = np.asarray(indices, dtype=int)
        if btype == "entangled":
            r = np.sqrt(p[q])
            kappa[np.ix_(q * (n + 1), q * (n + 1))] = np.outer(r, r)
        elif btype == "mixed":
            kappa[q * (n + 1), q * (n + 1)] = p[q]
        else:
            # the complex quotient and the sum in index order round as the
            # Kronecker form (diag(p_q) / sqrt(mass)) (x) itself did
            d = p[q].astype(complex) / np.sqrt(sum(p[i] for i in indices))
            qr = (q[:, None] * n + q[None, :]).ravel()
            kappa[qr, qr] = np.outer(d, d).ravel()
    return Coupling(kappa=kappa, state_a=s, state_b=s)


@dataclass(frozen=True, eq=False)
class ScenarioTriple:
    system_a: System
    system_b: System
    coupling: Coupling
    spec: ScenarioSpec


def scenario_build(spec: ScenarioSpec) -> ScenarioTriple:
    s = scenario_state(spec)
    gen_a = cycle_generator(spec.cycle_lengths, spec.k, spec.g)
    gen_b = cycle_generator(spec.cycle_lengths, spec.l, spec.h)
    return ScenarioTriple(
        system_a=System(state=s, dynamics=gen_a),
        system_b=System(state=s, dynamics=gen_b),
        coupling=scenario_coupling(spec),
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
    shift part and the Hamiltonian-commutator part; both vanish iff balanced."""
    n = spec.dim
    kappa = scenario_coupling(spec).kappa
    k4 = kappa.reshape(n, n, n, n)  # [i, k, j, l] = kappa[i n + k, j n + l]

    def sandwich(x: np.ndarray, factor: int) -> np.ndarray:
        """(x on one tensor factor) kappa (its adjoint), the left product
        first, as the two n^2 x n^2 matmuls rounded it."""
        left = np.moveaxis(np.tensordot(x, k4, axes=(1, factor)), 0, factor)
        right = np.tensordot(left, x.conj(), axes=(factor + 2, 1))
        return np.moveaxis(right, -1, factor + 2)

    r_k = cycle_shift(spec.cycle_lengths, np.asarray(spec.k))
    r_1k = cycle_shift(spec.cycle_lengths, 1.0 - np.asarray(spec.k))
    r_l = cycle_shift(spec.cycle_lengths, np.asarray(spec.l))
    r_1l = cycle_shift(spec.cycle_lengths, 1.0 - np.asarray(spec.l))
    jump = (
        sandwich(r_k, 0)
        + sandwich(r_1k.conj().T, 0)
        - sandwich(r_1l, 1)
        - sandwich(r_l.conj().T, 1)
    )
    # diag(g) (x) 1 and 1 (x) diag(h) on kappa's rows and columns
    g = np.repeat(np.asarray(spec.g), n)
    h = np.tile(np.asarray(spec.h), n)
    comm = (g[:, None] * kappa - kappa * g) - (h[:, None] * kappa - kappa * h)
    # the norm sums in memory order; row-major order sums as it did on the
    # n^2 x n^2 matrix
    return frob_norm(np.ascontiguousarray(jump)), frob_norm(comm)
