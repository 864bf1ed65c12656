"""Two-party LOCC protocol state machine.

A protocol is data: a shared-randomness distribution over seeds, an
ordered list of rounds, an accept rule, and an output-pair designation.
Each round names a sender and a two-branch quantum instrument on that
party's register; the branch taken is the one classical bit sent that
round, so the communication cost equals the number of rounds.  After
the last round Alice declares SUCC or FAIL; the declaration is modeled
as a per-leaf accept probability, either a constant or the expectation
of a POVM element on her register (realized as the gentle sqrt(M)
measurement), and is not counted as communication.

Evaluation is exact: the full transcript tree is enumerated per seed,
never sampled.  ``walk`` is the only traversal: it yields one seed's
tree level by level, and ``run`` and the splitting tracker in ``verify``
consume it.  Instruments are given directly in Kraus form, which
subsumes local ancillas; an instrument may additionally declare
workspace qubits that are appended in |0> for its round and traced out
afterwards (compiled into plain Kraus operators when it is built).

``run`` is linear in its input and takes a weighted component list;
each component keeps one representation through its whole tree, picked
by its type:

* ``PureState``: a (2^n, 2^n) amplitude matrix, O(2^{3n}) per node; a
  multi-Kraus branch turns it dense;
* ``ProductState``: the two local factors, O(2^{3n}) per node; every
  runner operation is one-sided, so the form is kept throughout;
* ``DensityMatrix``: the flat 4^n x 4^n matrix, O(2^{5n}) per node.

Fidelity-model evaluations use pure + product only: the canonical
witness reaches ``run`` as ``errmodels.fidelity_witness_components``.

``run`` is a pure function; independent runs may execute in parallel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .errmodels import ErrorModel, State, WeightedStates
from .qcore import (
    ALICE,
    BOB,
    DensityMatrix,
    ProductState,
    PureState,
    hermitian_sqrt,
    _check_capacity,
)

PROB_TOL = 1e-12


class ConditionalOutputUndefined(ValueError):
    """Raised when the total accept probability is zero."""


# ---------------------------------------------------------------------------
# building blocks


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _frozen(value) -> np.ndarray:
    """A read-only complex copy of ``value``; a read-only complex array
    that owns its data (a loaded spec's table entry) is shared instead."""
    if (
        isinstance(value, np.ndarray)
        and value.dtype == np.complex128
        and not value.flags.writeable
        and value.flags.owndata
    ):
        return value
    return _read_only(np.array(value, dtype=np.complex128))


# Per-seed data (instruments, listeners, output pairs) broadcasts: a
# one-entry tuple serves every seed, otherwise there is one entry per seed.


def _seed_entry(entries: tuple, seed: int):
    return entries[0] if len(entries) == 1 else entries[seed]


def _check_seed_entries(entries: tuple, n_seeds: int, what: str) -> None:
    if len(entries) not in (1, n_seeds):
        raise ValueError(f"{what} must have one entry or one per seed")


@dataclass(frozen=True)
class Instrument:
    """Two-branch quantum instrument on one party's register.

    ``branches[b]`` is the Kraus list realizing the completely positive
    map for classical outcome bit ``b``; together the branches must be
    trace preserving.  Kraus operators act on the party's protocol
    qubits plus ``n_workspace`` fresh |0> qubits appended at the low
    end of the register.

    ``kraus[b]`` is the same map with the workspace compiled away: the
    operators ``(I (x) <j|) K (I (x) |0>)`` on the protocol qubits, one
    per Kraus operator K and workspace basis state j.  The runner uses
    only ``kraus``.
    """

    branches: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]
    n_workspace: int = 0
    kraus: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.branches) != 2:
            raise ValueError("an instrument emits exactly one bit: two branches")
        frozen = []
        dim = None
        for branch in self.branches:
            ops = []
            for k in branch:
                arr = _frozen(k)
                if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                    raise ValueError("Kraus operators must be square")
                if dim is None:
                    dim = arr.shape[0]
                elif arr.shape[0] != dim:
                    raise ValueError("Kraus operators must share one dimension")
                ops.append(arr)
            frozen.append(tuple(ops))
        if dim is None:
            raise ValueError("instrument must contain at least one Kraus operator")
        total = sum(
            k.conj().T @ k for branch in frozen for k in branch
        )
        if not np.abs(total - np.eye(dim)).max() <= 1e-9:
            raise ValueError("instrument branches are not trace preserving")
        object.__setattr__(self, "branches", tuple(frozen))
        # bound the shift first: a huge n_workspace would allocate a huge int
        if not 0 <= self.n_workspace < dim.bit_length() or dim % (1 << self.n_workspace):
            raise ValueError("instrument dimension must include its workspace qubits")
        dw = 1 << self.n_workspace
        if dw > 1:
            d = dim // dw
            frozen = [
                tuple(
                    _read_only(k.reshape(d, dw, d, dw)[:, j, :, 0].copy())
                    for k in branch
                    for j in range(dw)
                )
                for branch in frozen
            ]
        object.__setattr__(self, "kraus", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.branches[0][0].shape[0] if self.branches[0] else self.branches[1][0].shape[0]


@dataclass(frozen=True)
class Round:
    """One communication round: ``party`` sends the instrument's bit.

    ``instruments`` holds one instrument per seed; a length-1 tuple is
    shared by every seed.  The listening party may apply a local
    unitary in the same round (``listener_unitaries``, per seed); local
    unitaries carry no communication.
    """

    party: str
    instruments: tuple[Instrument, ...]
    listener_unitaries: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        if self.party not in (ALICE, BOB):
            raise ValueError(f"unknown party {self.party!r}")
        if not self.instruments:
            raise ValueError("round needs at least one instrument")
        object.__setattr__(self, "instruments", tuple(self.instruments))
        if self.listener_unitaries is not None:
            frozen = []
            for u in self.listener_unitaries:
                arr = _frozen(u)
                if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not (
                    np.abs(arr @ arr.conj().T - np.eye(arr.shape[0])).max() <= 1e-9
                ):
                    raise ValueError("listener operation must be unitary")
                frozen.append(arr)
            object.__setattr__(self, "listener_unitaries", tuple(frozen))

    @property
    def listener(self) -> str:
        return BOB if self.party == ALICE else ALICE

    def for_seed(self, seed: int) -> Instrument:
        return _seed_entry(self.instruments, seed)

    def listener_for_seed(self, seed: int) -> np.ndarray | None:
        if self.listener_unitaries is None:
            return None
        return _seed_entry(self.listener_unitaries, seed)


class AlwaysAccept:
    """Alice declares SUCC on every leaf."""

    def __repr__(self) -> str:  # pragma: no cover
        return "AlwaysAccept()"


@dataclass(frozen=True)
class ConstantAccept:
    """Input-independent accept probability per transcript."""

    values: float | Mapping[str, float]

    def __post_init__(self) -> None:
        scalar = isinstance(self.values, (int, float))
        for r in (self.values,) if scalar else self.values.values():
            if not 0.0 <= float(r) <= 1.0:
                raise ValueError(f"accept probability {r} outside [0, 1]")

    def probability(self, transcript: str) -> float:
        if isinstance(self.values, (int, float)):
            return float(self.values)
        return float(self.values[transcript])


@dataclass(frozen=True)
class PovmAccept:
    """Accept via a POVM element on Alice's register per (seed, leaf)."""

    elements: Mapping[tuple[int, str], np.ndarray]

    def __post_init__(self) -> None:
        # one read-only copy per distinct caller object, so elements the
        # caller shared stay shared (the per-run sqrt(M) cache keys on them)
        frozen: dict[int, np.ndarray] = {}
        for m in self.elements.values():
            if id(m) not in frozen:
                frozen[id(m)] = _frozen(m)
        object.__setattr__(
            self, "elements", {key: frozen[id(m)] for key, m in self.elements.items()}
        )

    def element(self, seed: int, transcript: str) -> np.ndarray:
        return self.elements[(seed, transcript)]


AcceptRule = AlwaysAccept | ConstantAccept | PovmAccept


@dataclass(frozen=True)
class Protocol:
    """LOCC entanglement-distillation protocol on ``n_pairs`` pairs.

    Deterministic protocols are the special case of a point-mass seed
    distribution.  ``output_pair`` designates which pair both parties
    output, per seed (length-1 tuples broadcast).  Construction checks
    everything ``run`` relies on: register sizes, and an accept value
    for every (seed, transcript) of length ``bits``.
    """

    n_pairs: int
    seed_weights: tuple[float, ...]
    rounds: tuple[Round, ...]
    accept: AcceptRule
    output_pair: tuple[int, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if self.n_pairs < 1:
            raise ValueError("need at least one pair")
        _check_capacity(2 * self.n_pairs)
        weights = tuple(float(w) for w in self.seed_weights)
        if not weights:
            raise ValueError("need at least one seed")
        if not all(w >= 0 for w in weights) or not abs(sum(weights) - 1.0) <= 1e-9:
            raise ValueError("seed weights must form a distribution")
        pairs = tuple(int(j) for j in self.output_pair)
        _check_seed_entries(pairs, len(weights), "output_pair")
        if any(not 0 <= j < self.n_pairs for j in pairs):
            raise ValueError("output pair index out of range")
        for rnd in self.rounds:
            _check_seed_entries(rnd.instruments, len(weights), "round instruments")
            if rnd.listener_unitaries is not None:
                _check_seed_entries(rnd.listener_unitaries, len(weights), "listener unitaries")
            for instrument in rnd.instruments:
                if instrument.dim != 1 << (self.n_pairs + instrument.n_workspace):
                    raise ValueError("instrument dimension does not match the party register")
            for u in rnd.listener_unitaries or ():
                if u.shape != (1 << self.n_pairs,) * 2:
                    raise ValueError("listener unitary does not match the party register")
        _check_accept(self.accept, self.n_pairs, len(weights), len(self.rounds))
        object.__setattr__(self, "seed_weights", weights)
        object.__setattr__(self, "rounds", tuple(self.rounds))
        object.__setattr__(self, "output_pair", pairs)

    @property
    def bits(self) -> int:
        """Classical communication cost: one bit per round."""
        return len(self.rounds)

    @property
    def n_seeds(self) -> int:
        return len(self.seed_weights)

    @property
    def deterministic(self) -> bool:
        return self.n_seeds == 1

    def output_pair_for(self, seed: int) -> int:
        return _seed_entry(self.output_pair, seed)


def _check_accept(rule: AcceptRule, n: int, n_seeds: int, bits: int) -> None:
    """Every reachable leaf needs an accept value; POVM elements must be
    operators 0 <= M <= I on Alice's register."""
    transcripts = ["".join(t) for t in itertools.product("01", repeat=bits)]
    if isinstance(rule, ConstantAccept) and not isinstance(rule.values, (int, float)):
        missing = [t for t in transcripts if t not in rule.values]
        if missing:
            raise ValueError(f"accept rule has no value for transcript {missing[0]!r}")
    if not isinstance(rule, PovmAccept):
        return
    missing = [(s, t) for s in range(n_seeds) for t in transcripts if (s, t) not in rule.elements]
    if missing:
        raise ValueError(f"accept rule has no POVM element for (seed, transcript) {missing[0]}")
    # built-in protocols and loaded specs share one array per distinct
    # element: check each once
    unique = list({id(m): m for m in rule.elements.values()}.values())
    dim = 1 << n
    if any(m.shape != (dim, dim) for m in unique):
        raise ValueError("accept POVM elements must act on Alice's register")
    stack = np.stack(unique)
    if not np.abs(stack - stack.conj().transpose(0, 2, 1)).max() <= 1e-9:
        raise ValueError("accept POVM elements must be Hermitian")
    eig = np.linalg.eigvalsh(stack)
    if not (eig.min() >= -1e-9 and eig.max() <= 1.0 + 1e-9):
        raise ValueError("accept POVM elements must satisfy 0 <= M <= I")


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class LeafRecord:
    component: int
    seed: int
    transcript: str
    weight: float
    probability: float
    accept_probability: float
    output_state: np.ndarray | None


@dataclass(frozen=True)
class RunResult:
    """Exact transcript-tree evaluation of a protocol on one input."""

    n_pairs: int
    bits: int
    leaves: tuple[LeafRecord, ...]
    success_probability: float
    output: DensityMatrix
    conditional_output: DensityMatrix | None


# ---------------------------------------------------------------------------
# the exact runner


class _PureNode:
    """Unnormalized pure state as a (dA, dB) amplitude matrix."""

    __slots__ = ("psi",)

    def __init__(self, psi: np.ndarray):
        self.psi = psi

    def apply(self, ops: tuple[np.ndarray, ...], party: str) -> "_Node":
        """sum_k K rho K^dag with every K on ``party``'s register."""
        if len(ops) != 1:
            return self.to_dense().apply(ops, party)
        k = ops[0]
        return _PureNode(k @ self.psi if party == ALICE else self.psi @ k.T)

    def norm(self) -> float:
        return float(np.linalg.norm(self.psi.reshape(-1)) ** 2)

    def reduce_pair(self, n: int, pair: int) -> np.ndarray:
        """4x4 reduced matrix of (Alice ``pair``, Bob ``pair``)."""
        t = self.psi.reshape((2,) * (2 * n))
        t = np.moveaxis(t, (pair, n + pair), (0, 1)).reshape(4, -1)
        return t @ t.conj().T

    def local_states(self) -> tuple[np.ndarray, np.ndarray]:
        """(alice, bob) marginals."""
        psi = self.psi
        return psi @ psi.conj().T, psi.T @ psi.conj()

    def to_dense(self) -> "_DenseNode":
        vec = self.psi.reshape(-1)
        return _DenseNode(np.outer(vec, vec.conj()), *self.psi.shape)


class _ProductNode:
    """Unnormalized product state ``alice (x) bob`` as its local factors.

    Every runner operation acts on one side, so the form is kept
    throughout and a node costs what a pure node costs.
    """

    __slots__ = ("alice", "bob")

    def __init__(self, alice: np.ndarray, bob: np.ndarray):
        self.alice = alice
        self.bob = bob

    def apply(self, ops: tuple[np.ndarray, ...], party: str) -> "_Node":
        side = self.alice if party == ALICE else self.bob
        out = np.zeros_like(side)
        for k in ops:
            out += k @ side @ k.conj().T
        if party == ALICE:
            return _ProductNode(out, self.bob)
        return _ProductNode(self.alice, out)

    def norm(self) -> float:
        return float(np.trace(self.alice).real * np.trace(self.bob).real)

    def reduce_pair(self, n: int, pair: int) -> np.ndarray:
        return np.kron(_qubit_marginal(self.alice, n, pair), _qubit_marginal(self.bob, n, pair))

    def local_states(self) -> tuple[np.ndarray, np.ndarray]:
        return self.alice * np.trace(self.bob).real, self.bob * np.trace(self.alice).real


class _DenseNode:
    """Unnormalized mixed state as a flat (dA*dB, dA*dB) matrix."""

    __slots__ = ("rho", "dA", "dB")

    def __init__(self, rho: np.ndarray, dA: int, dB: int):
        self.rho = rho
        self.dA = dA
        self.dB = dB

    def apply(self, ops: tuple[np.ndarray, ...], party: str) -> "_Node":
        out = np.zeros_like(self.rho)
        for k in ops:
            out += _sandwich(self.rho, k, party, self.dA, self.dB)
        return _DenseNode(out, self.dA, self.dB)

    def norm(self) -> float:
        return float(np.trace(self.rho).real)

    def reduce_pair(self, n: int, pair: int) -> np.ndarray:
        t = self.rho.reshape((2,) * (4 * n))
        t = np.moveaxis(
            t,
            (pair, n + pair, 2 * n + pair, 3 * n + pair),
            (0, 1, 2 * n, 2 * n + 1),
        )
        t = t.reshape(4, 1 << (2 * n - 2), 4, 1 << (2 * n - 2))
        return np.einsum("arbr->ab", t)

    def local_states(self) -> tuple[np.ndarray, np.ndarray]:
        t = self.rho.reshape(self.dA, self.dB, self.dA, self.dB)
        return np.einsum("abcb->ac", t), np.einsum("abad->bd", t)


_Node = _PureNode | _ProductNode | _DenseNode


def _root(state: PureState | ProductState | DensityMatrix) -> _Node:
    """The input's type picks the representation of its whole subtree."""
    if isinstance(state, PureState):
        return _PureNode(state.amplitudes.reshape(1 << state.n_alice, 1 << state.n_bob))
    if isinstance(state, ProductState):
        return _ProductNode(state.alice.matrix, state.bob.matrix)
    return _DenseNode(state.matrix, 1 << state.n_alice, 1 << state.n_bob)


def _qubit_marginal(mat: np.ndarray, n: int, qubit: int) -> np.ndarray:
    """2x2 marginal of ``qubit`` in an n-qubit one-party matrix."""
    lo = 1 << (n - qubit - 1)
    t = mat.reshape(1 << qubit, 2, lo, 1 << qubit, 2, lo)
    return np.einsum("iajibj->ab", t)


def _sandwich(arr: np.ndarray, k: np.ndarray, party: str, dA: int, dB: int) -> np.ndarray:
    """k . arr . k^dag on one party's side of a flat mixed matrix."""
    d = dA * dB
    if party == ALICE:
        out = (k @ arr.reshape(dA, dB * d)).reshape(d, d)
        v = np.tensordot(out.reshape(d, dA, dB), k.conj(), axes=([1], [1]))
        return np.moveaxis(v, 2, 1).reshape(d, d)
    v = np.tensordot(k, arr.reshape(dA, dB, d), axes=([1], [1]))
    out = np.moveaxis(v, 0, 1).reshape(d, d)
    return (out.reshape(d * dA, dB) @ k.conj().T).reshape(d, d)


def _coerce_input(protocol: Protocol, state) -> WeightedStates:
    if isinstance(state, (PureState, ProductState, DensityMatrix)):
        weighted: WeightedStates = [(1.0, state)]
    else:
        weighted = list(state)
    for _, st in weighted:
        if st.n_alice != protocol.n_pairs or st.n_bob != protocol.n_pairs:
            raise ValueError(
                f"input must live on {protocol.n_pairs} pairs, got "
                f"({st.n_alice}, {st.n_bob})"
            )
    total = sum(w for w, _ in weighted)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"input weights sum to {total}, expected 1")
    return weighted


def accept_probability(protocol: Protocol, seed: int, transcript: str, node: _Node, p_t: float) -> float:
    """r_t: the probability that Alice declares SUCC on a leaf of
    probability ``p_t >= PROB_TOL``; 0 when ``p_t * r_t < PROB_TOL``."""
    rule = protocol.accept
    if isinstance(rule, AlwaysAccept):
        return 1.0
    if isinstance(rule, ConstantAccept):
        return rule.probability(transcript)
    alice, _ = node.local_states()
    r_joint = float(np.trace(rule.element(seed, transcript) @ alice).real)  # p_t * r_t
    return r_joint / p_t if r_joint >= PROB_TOL else 0.0


def _accept_info(
    protocol: Protocol, seed: int, transcript: str, node: _Node, p_t: float,
    roots: dict[int, np.ndarray],
) -> tuple[float, np.ndarray | None]:
    """Accept probability r_t and the accept-conditioned output block.

    Returns (r_t, post) where post is the unnormalized 4x4 output-pair
    state after a successful accept measurement scaled by p_t * r_t, or
    None when the rule has no backaction (post = r_t * unconditional).
    ``roots`` caches sqrt(M) by element identity for the length of a run.
    """
    r_t = accept_probability(protocol, seed, transcript, node, p_t)
    if not isinstance(protocol.accept, PovmAccept):
        return r_t, None
    if r_t == 0.0:
        return 0.0, np.zeros((4, 4), dtype=np.complex128)
    m = protocol.accept.element(seed, transcript)
    root = roots.get(id(m))
    if root is None:
        root = roots[id(m)] = hermitian_sqrt(m, floor=1e-9)
    post = node.apply((root,), ALICE)
    return r_t, post.reduce_pair(protocol.n_pairs, protocol.output_pair_for(seed))


Level = list[tuple[str, _Node, float]]


def walk(protocol: Protocol, state: State | ProductState, seed: int) -> Iterator[Level]:
    """The transcript tree of one seed on one input state, level by level.

    Yields the root level ``[("", root, p)]`` and then, per round, the
    children of the previous level as ``(transcript, node, probability)``
    in transcript order; nodes are unnormalized.  A child below
    ``PROB_TOL`` is yielded but not expanded.  Only the current level is
    held, so memory follows one level, not the whole tree.  ``state``
    must live on ``protocol.n_pairs`` pairs.
    """
    root = _root(state)
    level: Level = [("", root, root.norm())]
    yield level
    for rnd in protocol.rounds:
        instrument = rnd.for_seed(seed)
        listener_u = rnd.listener_for_seed(seed)
        children: Level = []
        for prefix, node, p in level:
            if p < PROB_TOL:
                continue
            if listener_u is not None:
                node = node.apply((listener_u,), rnd.listener)
            for bit in (0, 1):
                child = node.apply(instrument.kraus[bit], rnd.party)
                children.append((prefix + str(bit), child, child.norm()))
        level = children
        yield level


def run(protocol: Protocol, state) -> RunResult:
    """Evaluate a protocol exactly on a state or weighted state list.

    The transcript tree of every seed is walked level by level
    (``walk``); leaf probabilities, the SUCC probability, the output, and
    the output conditioned on SUCC are all exact up to float arithmetic.
    """
    weighted = _coerce_input(protocol, state)
    n = protocol.n_pairs
    leaves: list[LeafRecord] = []
    out_acc = np.zeros((4, 4), dtype=np.complex128)
    cond_acc = np.zeros((4, 4), dtype=np.complex128)
    success = 0.0
    roots: dict[int, np.ndarray] = {}  # the protocol keeps every key's element alive

    for comp_idx, (comp_w, comp_state) in enumerate(weighted):
        for seed, seed_w in enumerate(protocol.seed_weights):
            if seed_w == 0.0:
                continue
            weight = comp_w * seed_w
            for level in walk(protocol, comp_state, seed):
                # a dead subtree is recorded once at its root, with the
                # truncated transcript as the label
                leaves.extend(
                    LeafRecord(comp_idx, seed, label, weight, 0.0, 0.0, None)
                    for label, _, p in level
                    if p < PROB_TOL
                )
            pair = protocol.output_pair_for(seed)
            for transcript, node, p_t in level:  # the last level: the leaves
                if p_t < PROB_TOL:
                    continue
                reduced = node.reduce_pair(n, pair)
                r_t, post = _accept_info(protocol, seed, transcript, node, p_t, roots)
                out_acc += weight * reduced
                if post is None:
                    cond_acc += weight * r_t * reduced
                else:
                    cond_acc += weight * post
                success += weight * p_t * r_t
                leaves.append(
                    LeafRecord(comp_idx, seed, transcript, weight, p_t, r_t, reduced / p_t)
                )

    output = DensityMatrix(1, 1, out_acc, validate=False)
    conditional = None
    if success > PROB_TOL:
        conditional = DensityMatrix(1, 1, cond_acc / success, validate=False)
    return RunResult(
        n_pairs=n,
        bits=protocol.bits,
        leaves=tuple(leaves),
        success_probability=float(success),
        output=output,
        conditional_output=conditional,
    )


# ---------------------------------------------------------------------------
# model-level figures of merit


def ideal_success_probability(protocol: Protocol) -> float:
    """Success probability on the perfect input block."""
    from .qcore import epr_state

    return run(protocol, epr_state(protocol.n_pairs)).success_probability


def model_fidelities(protocol: Protocol, model: ErrorModel) -> tuple[float, float | None]:
    """Minimum output fidelity and minimum conditional-output fidelity
    over the model's evaluated states, from one run per state.

    The conditional value is None when some state never reaches SUCC.
    For the fidelity model the evaluated set is the witness plus any
    sampled members, so each value is a witness minimum (an upper
    estimate of the true model minimum).
    """
    from .qcore import base_fidelity

    values, conditional = [], []
    for st in model.run_inputs():
        result = run(protocol, st)
        values.append(base_fidelity(result.output))
        if result.conditional_output is not None:
            conditional.append(base_fidelity(result.conditional_output))
    return min(values), min(conditional) if len(conditional) == len(values) else None


def protocol_fidelity(protocol: Protocol, model: ErrorModel) -> float:
    """Minimum output fidelity over the model's evaluated states."""
    return model_fidelities(protocol, model)[0]


def conditional_fidelity(protocol: Protocol, model: ErrorModel) -> float:
    """Minimum conditional-output fidelity over the model's states."""
    value = model_fidelities(protocol, model)[1]
    if value is None:
        raise ConditionalOutputUndefined("protocol never declares SUCC on this input")
    return value


# ---------------------------------------------------------------------------
# the four concrete protocols


def make_first_pair(n: int) -> Protocol:
    """Deterministic 0-bit protocol: output pair 0, always SUCC."""
    return Protocol(
        n_pairs=n,
        seed_weights=(1.0,),
        rounds=(),
        accept=AlwaysAccept(),
        output_pair=(0,),
        name="first-pair",
    )


def make_random_pair(n: int) -> Protocol:
    """0-bit protocol: shared randomness picks the output pair uniformly."""
    if n < 1:
        raise ValueError("need at least one pair")
    return Protocol(
        n_pairs=n,
        seed_weights=(1.0 / n,) * n,
        rounds=(),
        accept=AlwaysAccept(),
        output_pair=tuple(range(n)),
        name="random-pair",
    )


def make_random_permutation(n: int) -> Protocol:
    """0-bit protocol: a shared uniform pair permutation relabels the
    pairs and the first relabeled pair is output, always SUCC.

    The companion local measurements of the non-output pairs are taken
    in the always-pretend-agreement variant; with no communication they
    leave every reported quantity unchanged, so the realization omits
    them.

    Only the one-output-pair, no-auxiliary-input case is realized; the
    general no-communication ceiling for m output pairs and k auxiliary
    perfect pairs, 1 - ((2^m - 2^k)/2^m) (2^n/(2^n-1)) eps, is recorded
    here for reference only.
    """
    if n < 1:
        raise ValueError("need at least one pair")
    perms = list(itertools.permutations(range(n)))
    weight = 1.0 / len(perms)
    return Protocol(
        n_pairs=n,
        seed_weights=(weight,) * len(perms),
        rounds=(),
        accept=AlwaysAccept(),
        output_pair=tuple(perm[0] for perm in perms),
        name="random-permutation",
    )


def _parity_circuit(n: int, members: tuple[int, ...], target: int) -> np.ndarray:
    """Permutation matrix of CNOTs from ``members`` into pair ``target``
    on one party's n-qubit register (qubit j is bit n-1-j)."""
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=np.complex128)
    tbit = 1 << (n - 1 - target)
    for x in range(dim):
        parity = 0
        for j in members:
            parity ^= (x >> (n - 1 - j)) & 1
        y = x ^ (tbit if parity else 0)
        mat[y, x] = 1.0
    return mat


def _bit_projector(n: int, qubit: int, bit: int) -> np.ndarray:
    dim = 1 << n
    diag = np.zeros(dim)
    for x in range(dim):
        if (x >> (n - 1 - qubit)) & 1 == bit:
            diag[x] = 1.0
    return np.diag(diag).astype(np.complex128)


def make_simple_random_hash(n: int, s: int) -> Protocol:
    """Parity-hash protocol with s rounds of one-way communication.

    Round k consumes check pair c = n-1-k.  The shared seed selects a
    random parity over the live pairs that includes c; both parties fold
    the parity into their check qubit with CNOTs and measure it in the
    computational basis.  Bob sends his bit; Alice accepts iff her own
    check bits match Bob's bits in every round.  On the perfect input
    block both bit strings always agree, so the protocol is ideal.  The
    output is the first surviving pair.
    """
    if n < 1:
        raise ValueError("need at least one pair")
    if not 1 <= s < n:
        raise ValueError(f"insufficient pairs: need 1 <= s < n, got n={n}, s={s}")
    # per-round choices: subsets of the live pairs below the check pair
    round_choices: list[list[tuple[int, ...]]] = []
    for k in range(s):
        check = n - 1 - k
        free = range(check)  # live pairs excluding the check pair
        subsets = []
        for size in range(check + 1):
            subsets.extend(itertools.combinations(free, size))
        round_choices.append(subsets)
    seeds = list(itertools.product(*[range(len(c)) for c in round_choices]))
    weight = 1.0 / len(seeds)

    rounds = []
    for k in range(s):
        check = n - 1 - k
        instruments = []
        listeners = []
        for seed in seeds:
            members = round_choices[k][seed[k]]
            circuit = _parity_circuit(n, members, check)
            branches = tuple(
                (np.asarray(_bit_projector(n, check, bit) @ circuit),)
                for bit in (0, 1)
            )
            instruments.append(Instrument(branches=branches))
            # Alice folds the same parity into her check qubit; the CNOT
            # layer is what frees the surviving pairs from the check pair
            listeners.append(circuit)
        rounds.append(
            Round(
                party=BOB,
                instruments=tuple(instruments),
                listener_unitaries=tuple(listeners),
            )
        )

    # Alice's deferred check measurement: her check qubits must repeat
    # Bob's announced bits in every round
    projectors: dict[str, np.ndarray] = {}
    for bits in itertools.product("01", repeat=s):
        proj = np.eye(1 << n, dtype=np.complex128)
        for k, bit in enumerate(bits):
            proj = proj @ _bit_projector(n, n - 1 - k, int(bit))
        projectors["".join(bits)] = proj
    elements = {
        (seed_idx, transcript): proj
        for seed_idx in range(len(seeds))
        for transcript, proj in projectors.items()
    }

    return Protocol(
        n_pairs=n,
        seed_weights=(weight,) * len(seeds),
        rounds=tuple(rounds),
        accept=PovmAccept(elements=elements),
        output_pair=(0,),
        name=f"simple-random-hash-s{s}",
    )


# ---------------------------------------------------------------------------
# random protocols for property sweeps


def random_instrument(rng: np.random.Generator, n_qubits: int, kraus_per_branch: int = 1) -> Instrument:
    """Random two-branch trace-preserving instrument on a register."""
    from .sampling import random_kraus_channel

    dim = 1 << n_qubits
    ops = random_kraus_channel(rng, dim, n_kraus=2 * kraus_per_branch)
    return Instrument(
        branches=(tuple(ops[:kraus_per_branch]), tuple(ops[kraus_per_branch:]))
    )


def random_protocol(
    rng: np.random.Generator,
    n: int,
    n_rounds: int,
    n_seeds: int = 1,
    kraus_per_branch: int = 1,
    accept_kind: str | None = None,
    with_listeners: bool = False,
) -> Protocol:
    """Random LOCC protocol for property sweeps.

    Senders alternate randomly; instruments are random trace-preserving
    splits; the accept rule is drawn among always / constant-per-leaf /
    random POVM unless pinned by ``accept_kind``.  ``with_listeners``
    additionally equips most rounds with a random local unitary on the
    listening party's register.
    """
    from .sampling import random_povm_element, random_unitary

    rounds = tuple(
        Round(
            party=ALICE if rng.random() < 0.5 else BOB,
            instruments=tuple(
                random_instrument(rng, n, kraus_per_branch) for _ in range(n_seeds)
            ),
            listener_unitaries=tuple(
                random_unitary(rng, 1 << n) for _ in range(n_seeds)
            )
            if with_listeners and rng.random() < 0.7
            else None,
        )
        for _ in range(n_rounds)
    )
    kind = accept_kind or rng.choice(["always", "constant", "povm"])
    if kind == "always":
        accept: AcceptRule = AlwaysAccept()
    elif kind == "constant":
        accept = ConstantAccept(
            values={
                "".join(bits): float(rng.uniform())
                for bits in itertools.product("01", repeat=n_rounds)
            }
        )
    else:
        accept = PovmAccept(
            elements={
                (seed, "".join(bits)): random_povm_element(rng, 1 << n)
                for seed in range(n_seeds)
                for bits in itertools.product("01", repeat=n_rounds)
            }
        )
    weights = rng.dirichlet(np.ones(n_seeds)) if n_seeds > 1 else np.array([1.0])
    return Protocol(
        n_pairs=n,
        seed_weights=tuple(float(w) for w in weights),
        rounds=rounds,
        accept=accept,
        output_pair=tuple(int(rng.integers(n)) for _ in range(n_seeds)),
        name="random",
    )
