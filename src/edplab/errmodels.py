"""Error models: indicator-vector machinery, depolarization states, and
the fidelity-model witness.

Three model families describe the imperfect inputs a protocol must
tolerate:

* measure-r: an explicit finite set of pure "error states", one per
  degree-r binary indicator vector (worst case = minimum over the set);
* depolarization: the single mixed state obtained by passing Bob's
  half of each pair through a depolarizing channel, a mixture of 4^n
  sparse Bell patterns (``depolarization_stack``);
* fidelity: every state whose overlap with the perfect pair block is at
  least 1 - epsilon, represented here by its canonical worst-case
  witness plus optional random members.

A model hands the runner its inputs as ``Stack``s (``stacks``), the
witness as a sparse and a product component, never as the dense matrices
``states`` returns for reference.  Other exact mixtures are weighted
state lists, collapsed to a dense matrix only on demand.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .frontier import Frontier, Sparse, frontier_of
from .qcore import (
    BOB,
    DensityMatrix,
    ProductState,
    PureState,
    Qubit,
    State,
    as_density,
    bell_state,
    epr_state,
    tensor_all,
    PAULI,
    apply_unitary,
    _check_capacity,
)
from . import rng as rngmod

WeightedStates = list[tuple[float, State | ProductState]]


class Stack(NamedTuple):
    """Runner input rows of one representation: ``roots`` holds a frontier
    row per component, ``weights`` its weight and ``inputs`` the model
    input it adds to, non-decreasing.  The runner is linear, so an input's
    outputs are its rows' outputs summed with their weights."""

    roots: Frontier
    weights: np.ndarray
    inputs: np.ndarray


def weighted_stacks(states: WeightedStates, index: int = 0) -> list[Stack]:
    """A weighted state list as model input ``index``: a one-row stack per
    component, in the form its type picks (``frontier_of``).  The weights
    must be finite and non-negative, and sum to 1."""
    weights = [w for w, _ in states]
    if not all(math.isfinite(w) and w >= 0.0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError(f"input weights must be finite and non-negative, and sum to 1, got {weights}")
    return [Stack(frontier_of(st), np.array([w]), np.array([index])) for w, st in states]


INDICATOR_ENTRIES = ("0", "1", "*")
EXTENDED_ENTRIES = ("00", "01", "10", "11", "*")


@dataclass(frozen=True)
class IndicatorVector:
    """Length-n pattern over {0, 1, *}; * marks an intact pair."""

    entries: tuple[str, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("indicator vector must have at least one entry")
        for e in entries:
            if e not in INDICATOR_ENTRIES:
                raise ValueError(f"invalid indicator entry {e!r}")
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def from_string(text: str) -> "IndicatorVector":
        return IndicatorVector(tuple(text))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def degree(self) -> int:
        return sum(1 for e in self.entries if e != "*")

    def __str__(self) -> str:
        return "".join(self.entries)


@dataclass(frozen=True)
class ExtendedIndicatorVector:
    """Length-n pattern over {00, 01, 10, 11, *} for corrupted pairs."""

    entries: tuple[str, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("extended indicator vector must have at least one entry")
        for e in entries:
            if e not in EXTENDED_ENTRIES:
                raise ValueError(f"invalid extended indicator entry {e!r}")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def degree(self) -> int:
        return sum(1 for e in self.entries if e != "*")


def enumerate_indicators(n: int, r: int) -> list[IndicatorVector]:
    """All degree-r binary indicator vectors; exactly 2^r * C(n, r)."""
    if not 0 <= r <= n or n > 12:
        raise ValueError(f"need 0 <= r <= n <= 12, got n={n}, r={r}")
    out = []
    for positions in itertools.combinations(range(n), r):
        for bits in itertools.product("01", repeat=r):
            entries = ["*"] * n
            for pos, bit in zip(positions, bits):
                entries[pos] = bit
            out.append(IndicatorVector(tuple(entries)))
    return out


def enumerate_extended(n: int, r: int) -> list[ExtendedIndicatorVector]:
    """All degree-r extended indicator vectors; exactly 4^r * C(n, r)."""
    if not 0 <= r <= n or n > 8:
        raise ValueError(f"need 0 <= r <= n <= 8, got n={n}, r={r}")
    out = []
    for positions in itertools.combinations(range(n), r):
        for values in itertools.product(("00", "01", "10", "11"), repeat=r):
            entries = ["*"] * n
            for pos, val in zip(positions, values):
                entries[pos] = val
            out.append(ExtendedIndicatorVector(tuple(entries)))
    return out


def _coerce_bits(x, n: int) -> tuple[int, ...]:
    if isinstance(x, str):
        bits = tuple(int(c) for c in x)
    else:
        bits = tuple(int(b) for b in x)
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise ValueError(f"expected {n} bits, got {x!r}")
    return bits


def consistent(x, v: IndicatorVector) -> bool:
    """True iff x agrees with v on every non-* position."""
    bits = _coerce_bits(x, v.n)
    return all(e == "*" or int(e) == b for e, b in zip(v.entries, bits))


def consistent_extended(x, u: ExtendedIndicatorVector) -> bool:
    """Consistency of a 2n-bit vector (left half; right half) with u."""
    bits = _coerce_bits(x, 2 * u.n)
    n = u.n
    for j, e in enumerate(u.entries):
        left, right = bits[j], bits[n + j]
        if e == "*":
            if left != right:
                return False
        elif (int(e[0]), int(e[1])) != (left, right):
            return False
    return True


def error_state(v: IndicatorVector) -> PureState:
    """Pure error state generated by a binary indicator vector.

    Pair j is |00> for entry 0, |11> for entry 1, and a perfect pair for
    entry *; equivalently the uniform superposition of |x>^A |x>^B over
    all x consistent with v.
    """
    n = v.n
    _check_capacity(2 * n)
    amps = np.zeros(1 << (2 * n), dtype=np.complex128)
    free = [j for j, e in enumerate(v.entries) if e == "*"]
    base = 0
    for j, e in enumerate(v.entries):
        if e == "1":
            base |= 1 << (n - 1 - j)
    scale = 2.0 ** (-(len(free)) / 2.0)
    for assign in itertools.product((0, 1), repeat=len(free)):
        x = base
        for j, bit in zip(free, assign):
            x |= bit << (n - 1 - j)
        amps[(x << n) | x] = scale
    return PureState(n, n, amps)


def extended_error_state(u: ExtendedIndicatorVector) -> PureState:
    """Pure error state for an extended indicator vector.

    Pair j carries |ab> for entry "ab" and a perfect pair for *; the
    superposition runs over 2n-bit vectors consistent with u, left half
    on Alice and right half on Bob.
    """
    n = u.n
    _check_capacity(2 * n)
    parts: list[State] = []
    for e in u.entries:
        if e == "*":
            parts.append(bell_state("phi+"))
        else:
            amps = np.zeros(4, dtype=np.complex128)
            amps[(int(e[0]) << 1) | int(e[1])] = 1.0
            parts.append(PureState(1, 1, amps))
    out = tensor_all(parts)
    assert isinstance(out, PureState)
    return out


def discrepancy(x) -> tuple[int, ...]:
    """Bitwise XOR of the two halves of a 2n-bit vector."""
    bits = tuple(int(b) for b in x)
    if len(bits) % 2 or any(b not in (0, 1) for b in bits):
        raise ValueError("discrepancy needs an even-length bit vector")
    n = len(bits) // 2
    return tuple(bits[j] ^ bits[n + j] for j in range(n))


def count_consistent_extended(d: int, n: int, r: int) -> int:
    """Number of degree-r extended vectors consistent with a 2n-bit
    vector of discrepancy degree d."""
    if d < 0 or n < 0 or r < 0:
        raise ValueError("arguments must be non-negative")
    if d > r or r - d > n - d:
        return 0
    return math.comb(n - d, r - d)


# ---------------------------------------------------------------------------
# depolarization


def depolarize(rho: State, p: float, qubit: Qubit) -> DensityMatrix:
    """Depolarizing channel on one qubit: (1-p) rho + p * I/2.

    Applied through the equivalent four-operator form
    (1 - 3p/4) rho + (p/4)(X rho X + Y rho Y + Z rho Z).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    dm = as_density(rho)
    out = (1.0 - 0.75 * p) * dm.matrix
    for label in ("X", "Y", "Z"):
        moved = apply_unitary(dm, PAULI[label], [qubit])
        out = out + 0.25 * p * moved.matrix
    return DensityMatrix(dm.n_alice, dm.n_bob, out, validate=False)


def depolarization_pair(p: float) -> DensityMatrix:
    """Single pair after Bob's qubit passes the depolarizing channel."""
    return depolarize(bell_state("phi+"), p, (BOB, 0))


def depolarization_state(n: int, p: float) -> DensityMatrix:
    """The n-pair depolarization-model state (one pair state per pair)."""
    if n < 1:
        raise ValueError("need at least one pair")
    _check_capacity(2 * n)
    pair = depolarization_pair(p)
    out = tensor_all([pair] * n)
    assert isinstance(out, DensityMatrix)
    return out


def depolarization_stack(n: int, p: float) -> Stack:
    """The depolarization-model state as one model input: its Bell
    patterns as sparse rows, each weighted by its probability.

    Pair j of a pattern is the Bell state with bit flip a_j and phase
    flip b_j: phi+ (0, 0) of weight 1 - 3p/4, and phi- (0, 1), psi+ (1, 0)
    and psi- (1, 1) of p/4 each.  Patterns run in ``itertools.product``
    order of those four, first pair first, and weigh the product of their
    pairs' weights, taken first pair first.  Row x of a pattern's
    amplitude matrix holds (-1)^|x AND phase mask| 2^(-n/2), as
    ``epr_state`` builds the perfect block, in column x XOR its bit-flip
    mask.  Zero-weight patterns are dropped.
    """
    if n < 1:
        raise ValueError(f"need at least one pair, got n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    _check_capacity(2 * n)
    pair_weights = np.array([1.0 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p])
    shifts = np.arange(n - 1, -1, -1)  # pair j is bit n-1-j of a register index
    bell = (np.arange(4**n)[:, None] >> 2 * shifts) & 3  # each pattern's 2a + b per pair
    weights = pair_weights[bell].prod(axis=1)  # first pair first, as a left-to-right product
    bell, weights = bell[weights > 0.0], weights[weights > 0.0]
    x = np.arange(1 << n)
    odd = ((bell & 1) @ ((x[:, None] >> shifts) & 1).T) & 1  # the parity of x AND the phase mask
    amps = np.where(odd == 1, -1.0, 1.0) * 2.0 ** (-n / 2.0)
    roots = Sparse(amps.astype(np.complex128), x ^ ((bell >> 1) @ (1 << shifts))[:, None], 1 << n)
    return Stack(roots, weights, np.zeros(len(weights), dtype=np.intp))


def pair_bell_mixture_ensemble(n: int, p: float) -> WeightedStates:
    """Pure-state ensemble of the depolarization-model state: the rows
    of ``depolarization_stack`` as states, with their weights."""
    stack = depolarization_stack(n, p)
    return [(w, PureState(n, n, psi.reshape(-1))) for w, psi in zip(stack.weights.tolist(), stack.roots.to_pure().psi)]


def random_corrupt_ensemble(n: int, r: int) -> WeightedStates:
    """Uniform mixture over the C(n, r) ways to replace r pairs with the
    completely mixed pair state."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got n={n}, r={r}")
    _check_capacity(2 * n)
    patterns = list(itertools.combinations(range(n), r))
    weight = 1.0 / len(patterns)
    phi = bell_state("phi+").to_density()
    mixed_pair = DensityMatrix.maximally_mixed(1, 1)
    out: WeightedStates = []
    for corrupted in patterns:
        parts = [mixed_pair if j in corrupted else phi for j in range(n)]
        out.append((weight, tensor_all(parts)))
    return out


def collapse(states: WeightedStates) -> DensityMatrix:
    """Collapse a weighted state list into a single density matrix."""
    if not states:
        raise ValueError("empty ensemble")
    first = as_density(states[0][1])
    acc = np.zeros_like(first.matrix)
    total = 0.0
    for w, st in states:
        acc = acc + w * as_density(st).matrix
        total += w
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"ensemble weights sum to {total}, expected 1")
    return DensityMatrix(first.n_alice, first.n_bob, acc, validate=False)


# ---------------------------------------------------------------------------
# fidelity model


def _witness_mixing_weight(n: int, epsilon: float) -> float:
    """eps' = (4^n/(4^n-1)) eps, the weight of the maximally mixed part."""
    if n < 1:
        raise ValueError("need at least one pair")
    _check_capacity(2 * n)
    dim = 1 << (2 * n)
    limit = 1.0 - 1.0 / dim
    if not 0.0 <= epsilon <= limit:
        raise ValueError(
            f"witness construction needs 0 <= epsilon <= 1 - 2^-2n = {limit}"
        )
    return epsilon * dim / (dim - 1)


def fidelity_witness_components(n: int, epsilon: float) -> WeightedStates:
    """The canonical witness as a weighted runner input.

    ``(1-eps') |Phi><Phi|`` is kept as the pure perfect block and
    ``eps' I/d_A (x) I/d_B`` as a product state, so evaluating a protocol
    never forms the dense ``4^n x 4^n`` witness.  Zero-weight parts are
    dropped.
    """
    eps_prime = _witness_mixing_weight(n, epsilon)
    parts: WeightedStates = [
        (1.0 - eps_prime, epr_state(n)),
        (eps_prime, ProductState.maximally_mixed(n, n)),
    ]
    return [(w, st) for w, st in parts if w > 0.0]


def fidelity_witness(n: int, epsilon: float) -> DensityMatrix:
    """Canonical fidelity-model member: perfect pairs mixed with the
    completely mixed state, weighted so the overall fidelity is exactly
    1 - epsilon.  Dense form of ``fidelity_witness_components``."""
    return collapse(fidelity_witness_components(n, epsilon))


@functools.cache
def _error_roots(n: int, r: int) -> Sparse:
    """The degree-r error states as read-only sparse rows, in
    ``enumerate_indicators`` order.  Each amplitude matrix is diagonal:
    entry x is 2^(-(n-r)/2) where x agrees with the indicator vector on
    its r measured pairs, and 0 elsewhere (``error_state``)."""
    positions = np.array(list(itertools.combinations(range(n), r)), dtype=np.intp).reshape(math.comb(n, r), r)
    # the measured bits of each vector, first position first, in itertools.product order
    bits = (np.arange(1 << r)[:, None] >> np.arange(r - 1, -1, -1)) & 1
    xbits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # x's bit of each pair
    agree = (xbits[:, positions][:, :, None] == bits).all(axis=-1).reshape(1 << n, -1).T
    amps = (agree * 2.0 ** (-(n - r) / 2.0)).astype(np.complex128)
    roots = Sparse(amps, np.where(agree, np.arange(1 << n), 0), 1 << n)
    for part in roots.parts:
        part.setflags(write=False)  # shared by every call
    return roots


@dataclass(frozen=True)
class MeasureRModel:
    """r of n pairs measured in the computational basis, adversarially
    chosen: the explicit finite set of error states."""

    n: int
    r: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one pair, got n={self.n}")
        if not 0 <= self.r <= self.n:
            raise ValueError(f"need 0 <= r <= n, got n={self.n}, r={self.r}")

    def states(self) -> list[State]:
        return [PureState(self.n, self.n, psi.reshape(-1)) for psi in self.stacks()[0].roots.to_pure().psi]

    def stacks(self) -> list[Stack]:
        """The error states as one sparse stack, in ``enumerate_indicators``
        order, each row a model input of weight 1 (``_error_roots``)."""
        _check_capacity(2 * self.n)
        roots = _error_roots(self.n, self.r)
        return [Stack(roots, np.ones(len(roots)), np.arange(len(roots)))]

    def uniform_mixture(self) -> WeightedStates:
        members = self.states()
        w = 1.0 / len(members)
        return [(w, st) for st in members]


@dataclass(frozen=True)
class DepolarizationModel:
    """Bob's qubits passed through a depolarizing channel: one state."""

    n: int
    p: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one pair, got n={self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"need 0 <= p <= 1, got {self.p}")

    def states(self) -> list[State]:
        return [depolarization_state(self.n, self.p)]

    def stacks(self) -> list[Stack]:
        return [depolarization_stack(self.n, self.p)]


@dataclass(frozen=True)
class FidelityModel:
    """All 2n-qubit states of fidelity at least 1 - epsilon.

    The set is a continuum; ``states`` returns the canonical witness
    plus ``samples`` random members of fidelity exactly 1 - epsilon, so
    any minimum computed over it is an upper estimate of the true model
    minimum (a "witness minimum").
    """

    n: int
    epsilon: float
    samples: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        # rejects n < 1 and epsilon outside [0, 1 - 4^-n], NaN included
        _witness_mixing_weight(self.n, self.epsilon)
        if self.samples < 0:
            raise ValueError(f"need samples >= 0, got {self.samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"need 0 <= seed < 2**64, got {self.seed}")

    def witness(self) -> DensityMatrix:
        return fidelity_witness(self.n, self.epsilon)

    def states(self) -> list[State]:
        out: list[State] = [self.witness()]
        if self.samples:
            out.extend(self._sample_members())
        return out

    def stacks(self) -> list[Stack]:
        """The witness in component form as model input 0, then each
        sampled member as an input of its own."""
        out = weighted_stacks(fidelity_witness_components(self.n, self.epsilon))
        for k, member in enumerate(self._sample_members() if self.samples else (), 1):
            out += weighted_stacks([(1.0, member)], k)
        return out

    def _sample_members(self) -> list[State]:
        from .sampling import random_amplitudes, random_density_matrix
        from .qcore import epr_fidelity

        gen = rngmod.substream(self.seed, "fidelity-model", self.n)
        psi = epr_state(self.n)
        dim = psi.dim
        out: list[State] = []
        for k in range(self.samples):
            if k % 2 == 0:
                # pure member: rotate the perfect block toward a random
                # orthogonal direction by exactly the allowed amount
                chi = random_amplitudes(gen, dim)
                chi = chi - psi.amplitudes * np.vdot(psi.amplitudes, chi)
                chi = chi / np.linalg.norm(chi)
                amps = math.sqrt(1.0 - self.epsilon) * psi.amplitudes + math.sqrt(
                    self.epsilon
                ) * chi
                out.append(PureState(self.n, self.n, amps))
            else:
                tau = random_density_matrix(gen, self.n, self.n)
                f_tau = epr_fidelity(tau)
                lam = (1.0 - self.epsilon - f_tau) / (1.0 - f_tau)
                mat = lam * psi.to_density().matrix + (1.0 - lam) * tau.matrix
                out.append(DensityMatrix(self.n, self.n, mat, validate=False))
        return out


ErrorModel = MeasureRModel | DepolarizationModel | FidelityModel
