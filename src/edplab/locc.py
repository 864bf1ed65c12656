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
never sampled.  ``walk`` is the only traversal, and ``run`` and the
splitting tracker in ``verify`` consume it.  It walks a block of seeds
together and yields one ``Level`` per depth: the nodes of every seed of
the block at that depth, in seed order and then transcript order, as
one stacked array per representation with a leading row axis, plus
each row's seed, transcript code and probability.  A node below
``PROB_TOL`` is yielded but not expanded.

A protocol holds each operator once.  A round keeps its distinct
instruments and listener unitaries plus per-seed index arrays, and a
POVM accept rule its distinct elements plus a (seed, transcript) index;
the shared-randomness seeds only index into them.  Each round's
operators are stacked once per round from the distinct operators (a
branch with fewer Kraus operators is padded with zero operators), and
each level gathers its rows' operators by seed, so a round is one
batched matmul per operator slot over the whole level.  ``seed_blocks``
cuts the seeds into blocks whose widest level fits
``FRONTIER_BUDGET_BYTES``, which bounds memory.  Instruments are given
directly in Kraus form, which subsumes local ancillas; an instrument
may additionally declare workspace qubits that are appended in |0> for
its round and traced out afterwards (compiled into plain Kraus
operators when it is built).

``run`` is linear in its input and takes a weighted component list;
each component keeps one representation through its whole tree, picked
by its type:

* ``PureState``: (rows, 2^n, 2^n) amplitude matrices, O(2^{3n}) per
  node; a multi-Kraus round turns them dense;
* ``ProductState``: the two local factors, O(2^{3n}) per node; every
  runner operation is one-sided, so the form is kept throughout;
* ``DensityMatrix``: flat (rows, 4^n, 4^n) matrices, O(2^{5n}) per node.

``run`` computes leaf probabilities, output-pair reductions and the
accept data over a block's last level at once.  Leaves are scored in one
place, ``_score_leaves``, which ``run`` and the splitting tracker in
``verify`` both call: it keeps the live leaves, gathers each row's
output pair once and takes r_t from one accept formula (``_accept``),
the trace of the measured output-pair block.  A POVM rule measures the
whole level in one batched apply, each leaf with its element's sqrt(M),
which the rule computes once per distinct element.  ``run``'s result
keeps each block's leaf arrays and builds the per-leaf records only
when ``RunResult.leaves`` is read.  It also reports, per round, the
nodes expanded and pruned, the largest level and the time taken
(``RunResult.stats``).

Fidelity-model evaluations use pure + product only: the canonical
witness reaches ``run`` as ``errmodels.fidelity_witness_components``.

``run`` is a pure function; independent runs may execute in parallel.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .errmodels import ErrorModel, State, WeightedStates
from .frontier import Frontier, frontier_of, reduce_pairs
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


def _per_seed(entries: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """The entry of each of ``seeds`` in per-seed data (instrument and
    listener indexes, output pairs): one entry serves every seed, which
    clipping gives, and otherwise every seed is in range."""
    return entries.take(seeds, mode="clip")


def _index(index, size: int, what: str, ndim: int = 1, low: int = 0) -> np.ndarray:
    """A read-only integer array of ``ndim`` axes with entries in [low,
    size); None gives 0, 1, ..., size - 1."""
    arr = np.arange(size) if index is None else np.array(index)
    if arr.ndim != ndim or arr.dtype.kind not in "iu" or not arr.size or not low <= arr.min() <= arr.max() < size:
        raise ValueError(f"{what} must be a non-empty {ndim}-d integer array into {size} entries")
    return _read_only(arr.astype(np.intp))


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

    ``instruments`` holds the round's distinct instruments and
    ``instrument_index`` each seed's entry among them (one index entry
    serves every seed); ``None`` gives one index entry per instrument, in
    order.  The listening party may apply a local unitary in the same
    round, held the same way (``listener_unitaries``,
    ``listener_index``); local unitaries carry no communication.

    ``kraus_stack`` and ``listener_stack`` are what the runner gathers
    each level's operators from, built on first use.
    """

    party: str
    instruments: tuple[Instrument, ...]
    listener_unitaries: tuple[np.ndarray, ...] | None = None
    instrument_index: np.ndarray | None = None
    listener_index: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.party not in (ALICE, BOB):
            raise ValueError(f"unknown party {self.party!r}")
        instruments = tuple(self.instruments)
        if not instruments:
            raise ValueError("round needs at least one instrument")
        index = _index(self.instrument_index, len(instruments), "instrument_index")
        object.__setattr__(self, "instruments", instruments)
        object.__setattr__(self, "instrument_index", index)
        if self.listener_unitaries is None:
            if self.listener_index is not None:
                raise ValueError("listener_index needs listener_unitaries")
            return
        listeners = tuple(_frozen(u) for u in self.listener_unitaries)
        for arr in listeners:
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not (
                np.abs(arr @ arr.conj().T - np.eye(arr.shape[0])).max() <= 1e-9
            ):
                raise ValueError("listener operation must be unitary")
        object.__setattr__(self, "listener_unitaries", listeners)
        object.__setattr__(self, "listener_index", _index(self.listener_index, len(listeners), "listener_index"))

    @functools.cached_property
    def kraus_stack(self) -> np.ndarray:
        """(instruments, 2 branches, Kraus slots, d, d); a branch with
        fewer Kraus operators is padded with zero operators."""
        width = max(len(branch) for ins in self.instruments for branch in ins.kraus)
        d = self.instruments[0].dim >> self.instruments[0].n_workspace
        stack = np.zeros((len(self.instruments), 2, width, d, d), dtype=np.complex128)
        for row, ins in enumerate(self.instruments):
            for bit, branch in enumerate(ins.kraus):
                for j, k in enumerate(branch):
                    stack[row, bit, j] = k
        return _read_only(stack)

    @functools.cached_property
    def listener_stack(self) -> np.ndarray | None:
        """(listeners, 1, 1, d, d)."""
        if self.listener_unitaries is None:
            return None
        return _read_only(np.stack(self.listener_unitaries)[:, None, None])

    @property
    def listener(self) -> str:
        return BOB if self.party == ALICE else ALICE


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

    def probabilities(self, codes: np.ndarray) -> np.ndarray:
        """The accept probability of each leaf, by transcript code."""
        if isinstance(self.values, (int, float)):
            return np.full(len(codes), float(self.values))
        # ``Protocol`` checked one value per transcript, and equal-length
        # binary strings sort in code order
        return np.array([float(r) for _, r in sorted(self.values.items())])[codes]


@dataclass(frozen=True)
class PovmAccept:
    """Accept via a POVM element on Alice's register per (seed, leaf).

    ``elements`` holds the distinct elements and ``index[seed, code]``,
    an (n_seeds, 2**bits) integer array, the element of the leaf whose
    transcript has the binary digits of ``code``; -1 marks a leaf
    without one, which ``Protocol`` rejects.  ``roots`` is sqrt(M) of
    every element, computed on first use in one batched call.
    """

    elements: tuple[np.ndarray, ...]
    index: np.ndarray

    def __post_init__(self) -> None:
        elements = tuple(_frozen(m) for m in self.elements)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "index", _index(self.index, len(elements), "POVM element index", ndim=2, low=-1))

    @functools.cached_property
    def roots(self) -> np.ndarray:
        return hermitian_sqrt(np.stack(self.elements), floor=1e-9)


AcceptRule = AlwaysAccept | ConstantAccept | PovmAccept


@dataclass(frozen=True)
class Protocol:
    """LOCC entanglement-distillation protocol on ``n_pairs`` pairs.

    Deterministic protocols are the special case of a point-mass seed
    distribution.  ``output_pair`` designates which pair both parties
    output, per seed (a length-1 tuple serves every seed).  Construction
    checks everything ``run`` relies on: register sizes, per-seed
    lengths, and exactly one accept value for every (seed, transcript)
    of length ``bits``.
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

        def check_per_seed(entries, what: str) -> None:
            if len(entries) not in (1, len(weights)):
                raise ValueError(f"{what} must have one entry or one per seed")

        check_per_seed(pairs, "output_pair")
        if any(not 0 <= j < self.n_pairs for j in pairs):
            raise ValueError("output pair index out of range")
        for rnd in self.rounds:
            check_per_seed(rnd.instrument_index, "round instruments")
            if rnd.listener_index is not None:
                check_per_seed(rnd.listener_index, "listener unitaries")
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

    @property
    def multi_kraus(self) -> bool:
        """Whether a branch has several Kraus operators, which turns a
        pure frontier dense."""
        return any(rnd.kraus_stack.shape[2] > 1 for rnd in self.rounds)


def _check_accept(rule: AcceptRule, n: int, n_seeds: int, bits: int) -> None:
    """Every leaf needs exactly one accept value, and every value must
    name a leaf; POVM elements must be operators 0 <= M <= I on Alice's
    register.  Missing values are reported first."""
    if isinstance(rule, ConstantAccept) and not isinstance(rule.values, (int, float)):
        transcripts = ["".join(t) for t in itertools.product("01", repeat=bits)]
        missing = [t for t in transcripts if t not in rule.values]
        if missing:
            raise ValueError(f"accept rule has no value for transcript {missing[0]!r}")
        known = set(transcripts)
        stray = [t for t in rule.values if t not in known]
        if stray:
            raise ValueError(f"accept rule has a value for transcript {stray[0]!r}, which names no leaf")
    if not isinstance(rule, PovmAccept):
        return
    if rule.index.shape != (n_seeds, 1 << bits):
        raise ValueError(
            f"accept rule needs a POVM element index of shape {(n_seeds, 1 << bits)}, not {rule.index.shape}"
        )
    missing = [(seed, _transcript(code, bits)) for seed, code in np.argwhere(rule.index < 0).tolist()]
    if missing:
        raise ValueError(f"accept rule has no POVM element for (seed, transcript) {missing[0]}")
    dim = 1 << n
    if any(m.shape != (dim, dim) for m in rule.elements):
        raise ValueError("accept POVM elements must act on Alice's register")
    stack = np.stack(rule.elements)
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


class RoundStats(NamedTuple):
    """One round of a run, summed over input components and seed blocks."""

    expanded: int  # nodes of the previous level the round expanded
    pruned: int  # nodes of the previous level below PROB_TOL, left unexpanded
    frontier_bytes: int  # the largest level the round produced for one seed block
    seconds: float


class RunStats(NamedTuple):
    """Where a run spent its work.

    ``representations`` names each input component's frontier form:
    ``pure``, ``product`` or ``dense``, or ``pure->dense`` when a
    multi-Kraus round turned a pure component dense.
    """

    representations: tuple[str, ...]
    seed_blocks: int
    rounds: tuple[RoundStats, ...]
    peak_frontier_bytes: int


class _RecordRows(NamedTuple):
    """The rows of one level of one seed block that ``RunResult.leaves``
    records: the level's dead nodes, or its leaves."""

    component: int
    depth: int
    seeds: np.ndarray
    codes: np.ndarray
    weights: np.ndarray
    probabilities: np.ndarray | None  # None for dead nodes
    accept: np.ndarray | None
    reduced: np.ndarray | None  # (rows, 4, 4) unnormalized output pairs

    def records(self) -> list[LeafRecord]:
        rows = zip(self.seeds.tolist(), self.codes.tolist(), self.weights.tolist())
        if self.probabilities is None:
            return [
                LeafRecord(self.component, seed, _transcript(code, self.depth), w, 0.0, 0.0, None)
                for seed, code, w in rows
            ]
        outputs = self.reduced / self.probabilities[:, None, None]
        return [
            LeafRecord(self.component, seed, _transcript(code, self.depth), w, p, r, out)
            for (seed, code, w), p, r, out in zip(
                rows, self.probabilities.tolist(), self.accept.tolist(), outputs
            )
        ]


@dataclass(frozen=True)
class RunResult:
    """Exact transcript-tree evaluation of a protocol on one input."""

    n_pairs: int
    bits: int
    success_probability: float
    output: DensityMatrix
    conditional_output: DensityMatrix | None
    stats: RunStats = field(compare=False)  # timings differ between equal runs
    # per seed block, the level rows that ``leaves`` is built from
    blocks: tuple[tuple[_RecordRows, ...], ...] = field(default=(), repr=False, compare=False)

    @functools.cached_property
    def leaves(self) -> tuple[LeafRecord, ...]:
        """One record per leaf and per dead node, built on first read.

        A dead subtree is recorded once, at its root, with the truncated
        transcript as the label.  Records run component by component and
        seed by seed; within a seed, dead nodes level by level, then the
        leaves, each in transcript order.
        """
        out: list[LeafRecord] = []
        for block in self.blocks:
            records = [rec for rows in block for rec in rows.records()]
            records.sort(key=lambda rec: rec.seed)
            out.extend(records)
        return tuple(out)


# ---------------------------------------------------------------------------
# seed blocks

# Bytes one seed block's widest level may take.  A block holds as many
# seeds as fit; a seed whose level alone is larger gets a block of its own.
FRONTIER_BUDGET_BYTES = 1 << 17


def _row_bytes(protocol: "Protocol", state: State | ProductState) -> int:
    """Bytes of one node of ``state``'s frontier."""
    da, db = 1 << state.n_alice, 1 << state.n_bob
    if isinstance(state, ProductState):
        return 16 * (da * da + db * db)
    if isinstance(state, PureState) and not protocol.multi_kraus:
        return 16 * da * db
    return 16 * (da * db) ** 2


def seed_blocks(protocol: "Protocol", states, seeds: np.ndarray) -> list[np.ndarray]:
    """``seeds`` cut into consecutive blocks whose widest level, for any of
    ``states``, fits ``FRONTIER_BUDGET_BYTES``."""
    per_seed = max(_row_bytes(protocol, st) for st in states) << protocol.bits
    size = max(1, FRONTIER_BUDGET_BYTES // per_seed)
    return [seeds[i : i + size] for i in range(0, len(seeds), size)]


# ---------------------------------------------------------------------------
# the exact runner


def _transcript(code: int, depth: int) -> str:
    return format(code, f"0{depth}b") if depth else ""


class Level:
    """One depth of the transcript trees of a block of seeds.

    Row i is the node of seed ``seeds[i]`` reached by the transcript
    whose ``depth`` bits, first round first, are the binary digits of
    ``codes[i]``.  Rows run in seed order, then in transcript order.
    ``frontier`` holds the unnormalized node states as stacked arrays
    and ``probabilities`` their traces.
    """

    __slots__ = ("depth", "seeds", "codes", "probabilities", "frontier")

    def __init__(
        self, depth: int, seeds: np.ndarray, codes: np.ndarray, probabilities: np.ndarray, frontier: Frontier
    ):
        self.depth = depth
        self.seeds = seeds
        self.codes = codes
        self.probabilities = probabilities
        self.frontier = frontier

    def __len__(self) -> int:
        return len(self.seeds)

    @property
    def labels(self) -> list[str]:
        """The transcripts of the rows."""
        return [_transcript(code, self.depth) for code in self.codes.tolist()]

    def label(self, row: int) -> str:
        """The transcript of one row."""
        return _transcript(int(self.codes[row]), self.depth)

    def take(self, rows: np.ndarray) -> "Level":
        """The level restricted to ``rows``, ascending row indices."""
        if len(rows) == len(self):
            return self
        return Level(
            self.depth, self.seeds[rows], self.codes[rows], self.probabilities[rows], self.frontier.take(rows)
        )

    def local_states(self) -> tuple[np.ndarray, np.ndarray]:
        """(alice, bob) unnormalized marginals of every row, each (rows, d, d)."""
        return self.frontier.local_states()


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


def _accept(protocol: Protocol, leaves: Level, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Accept probabilities r_t and the accept-conditioned output blocks of
    leaves whose probabilities are all >= PROB_TOL; ``pairs`` holds each
    row's output pair.

    The blocks, (rows, 4, 4), are the unnormalized output-pair states
    after a successful sqrt(M) measurement, scaled by p_t * r_t; they are
    None when the rule has no backaction (post = r_t * unconditional).
    Every leaf row gets its element's sqrt(M), computed once per distinct
    element, and the whole level is measured in one batched apply;
    p_t * r_t = Tr(M rho_t) is the trace of the measured output-pair block.
    """
    rule = protocol.accept
    if isinstance(rule, AlwaysAccept):
        return np.ones(len(leaves)), None
    if isinstance(rule, ConstantAccept):
        return rule.probabilities(leaves.codes), None
    roots = rule.roots[rule.index[leaves.seeds, leaves.codes]]
    post = reduce_pairs(leaves.frontier.apply(roots[:, None, None], ALICE), protocol.n_pairs, pairs)
    r_joint = np.trace(post, axis1=1, axis2=2).real  # p_t * r_t
    kept = r_joint >= PROB_TOL
    post[~kept] = 0.0
    return np.where(kept, r_joint, 0.0) / leaves.probabilities, post


def _score_leaves(protocol: Protocol, level: Level) -> tuple[Level, np.ndarray, np.ndarray, np.ndarray | None]:
    """The live leaves of a last level (probability >= PROB_TOL), each
    one's output pair, and their r_t and post blocks (``_accept``).
    ``run`` and the splitting tracker both score leaves here."""
    leaves = level.take(np.flatnonzero(level.probabilities >= PROB_TOL))
    pairs = _per_seed(np.asarray(protocol.output_pair), leaves.seeds)
    return (leaves, pairs, *_accept(protocol, leaves, pairs))


def walk(protocol: Protocol, state: State | ProductState, seeds: np.ndarray) -> Iterator[Level]:
    """The transcript trees of a block of seeds on one input, level by level.

    Yields the root level, one row per seed of ``seeds``, then one level
    per round.  A round expands every node of the previous level at or
    above ``PROB_TOL`` into its two children; a node below it is yielded
    but not expanded.  Each round's operators are gathered by seed from
    the round's stacks.  Only the
    current level is held, so memory follows one level of the block, not
    the whole tree (``seed_blocks`` sizes blocks under
    ``FRONTIER_BUDGET_BYTES``).  ``state`` must live on
    ``protocol.n_pairs`` pairs.
    """
    seeds = np.asarray(seeds, dtype=np.intp)
    frontier = frontier_of(state, len(seeds))
    level = Level(0, seeds, np.zeros(len(seeds), dtype=np.int64), frontier.norms(), frontier)
    yield level
    for depth, rnd in enumerate(protocol.rounds, 1):
        parents = level.take(np.flatnonzero(level.probabilities >= PROB_TOL))
        nodes = parents.frontier
        if rnd.listener_stack is not None:
            listeners = rnd.listener_stack[_per_seed(rnd.listener_index, parents.seeds)]
            nodes = nodes.apply(listeners, rnd.listener)
        children = nodes.apply(rnd.kraus_stack[_per_seed(rnd.instrument_index, parents.seeds)], rnd.party)
        codes = (2 * parents.codes[:, None] + np.arange(2)).reshape(-1)
        level = Level(depth, np.repeat(parents.seeds, 2), codes, children.norms(), children)
        yield level


class _Meter:
    """Per-round counts, sizes and times of a run."""

    def __init__(self, bits: int):
        self.expanded = [0] * bits
        self.pruned = [0] * bits
        self.frontier_bytes = [0] * bits
        self.seconds = [0.0] * bits
        self.peak = 0
        self.blocks = 0
        self.representations: list[str] = []
        self.form = ""  # the last block's: its root's, then its leaves' if they differ

    def levels(self, levels: Iterator[Level]) -> Iterator[Level]:
        """Pass ``levels`` through, charging each round the time it took."""
        self.blocks += 1
        previous = None
        clock = time.perf_counter()
        for level in levels:
            elapsed = time.perf_counter() - clock
            size = level.frontier.nbytes
            self.peak = max(self.peak, size)
            if previous is None:
                root = level.frontier.kind
            else:
                r = level.depth - 1
                expanded = len(level) // 2  # each expanded node has two children
                self.expanded[r] += expanded
                self.pruned[r] += len(previous) - expanded
                self.frontier_bytes[r] = max(self.frontier_bytes[r], size)
                self.seconds[r] += elapsed
            yield level
            previous = level
            clock = time.perf_counter()
        leaf = previous.frontier.kind
        self.form = root if root == leaf else f"{root}->{leaf}"

    def stats(self) -> RunStats:
        return RunStats(
            representations=tuple(self.representations),
            seed_blocks=self.blocks,
            rounds=tuple(map(RoundStats, self.expanded, self.pruned, self.frontier_bytes, self.seconds)),
            peak_frontier_bytes=self.peak,
        )


def run(protocol: Protocol, state) -> RunResult:
    """Evaluate a protocol exactly on a state or weighted state list.

    Every component is walked in seed blocks (``walk``); leaf
    probabilities, the SUCC probability, the output, and the output
    conditioned on SUCC are computed over each block's last level at
    once and are exact up to float arithmetic.  ``RunResult.stats``
    says where the work went.
    """
    weighted = _coerce_input(protocol, state)
    n = protocol.n_pairs
    seed_weights = np.asarray(protocol.seed_weights)
    live_seeds = np.flatnonzero(seed_weights != 0.0)
    meter = _Meter(protocol.bits)
    blocks: list[tuple[_RecordRows, ...]] = []
    out_acc = np.zeros((4, 4), dtype=np.complex128)
    cond_acc = np.zeros((4, 4), dtype=np.complex128)
    success = 0.0

    for comp_idx, (comp_w, comp_state) in enumerate(weighted):
        for block in seed_blocks(protocol, [comp_state], live_seeds):
            rows: list[_RecordRows] = []
            for level in meter.levels(walk(protocol, comp_state, block)):
                dead = np.flatnonzero(level.probabilities < PROB_TOL)
                if len(dead):
                    seeds = level.seeds[dead]
                    rows.append(
                        _RecordRows(
                            comp_idx, level.depth, seeds, level.codes[dead],
                            comp_w * seed_weights[seeds], None, None, None,
                        )
                    )
            leaf, pairs, r_t, post = _score_leaves(protocol, level)
            weight = comp_w * seed_weights[leaf.seeds]
            p_t = leaf.probabilities
            reduced = reduce_pairs(leaf.frontier, n, pairs)
            out_acc += np.tensordot(weight, reduced, axes=1)
            cond_acc += np.tensordot(weight, r_t[:, None, None] * reduced if post is None else post, axes=1)
            success += float(np.dot(weight * p_t, r_t))
            rows.append(
                _RecordRows(comp_idx, leaf.depth, leaf.seeds, leaf.codes, weight, p_t, r_t, reduced)
            )
            blocks.append(tuple(rows))
        meter.representations.append(meter.form)

    output = DensityMatrix(1, 1, out_acc, validate=False)
    conditional = None
    if success > PROB_TOL:
        conditional = DensityMatrix(1, 1, cond_acc / success, validate=False)
    return RunResult(
        n_pairs=n,
        bits=protocol.bits,
        success_probability=float(success),
        output=output,
        conditional_output=conditional,
        stats=meter.stats(),
        blocks=tuple(blocks),
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
    # a seed is one choice per round; seed j makes choice choices[k][j] in
    # round k, the seeds running in itertools.product order
    sizes = [len(c) for c in round_choices]
    n_seeds = math.prod(sizes)
    choices = np.unravel_index(np.arange(n_seeds), sizes)

    rounds = []
    for k in range(s):
        check = n - 1 - k
        # one instrument and one listener per parity choice
        circuits = tuple(_read_only(_parity_circuit(n, members, check)) for members in round_choices[k])
        instruments = tuple(
            Instrument(branches=tuple((_bit_projector(n, check, bit) @ c,) for bit in (0, 1)))
            for c in circuits
        )
        rounds.append(
            Round(
                party=BOB,
                instruments=instruments,
                # Alice folds the same parity into her check qubit; the CNOT
                # layer is what frees the surviving pairs from the check pair
                listener_unitaries=circuits,
                instrument_index=choices[k],
                listener_index=choices[k],
            )
        )

    # Alice's deferred check measurement: her check qubits must repeat
    # Bob's announced bits in every round; every seed checks the same way
    projectors = []
    for bits in itertools.product((0, 1), repeat=s):
        proj = np.eye(1 << n, dtype=np.complex128)
        for k, bit in enumerate(bits):
            proj = proj @ _bit_projector(n, n - 1 - k, bit)
        projectors.append(proj)

    return Protocol(
        n_pairs=n,
        seed_weights=(1.0 / n_seeds,) * n_seeds,
        rounds=tuple(rounds),
        accept=PovmAccept(projectors, np.broadcast_to(np.arange(1 << s), (n_seeds, 1 << s))),
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
        # one element per (seed, transcript), drawn in that order
        n_leaves = n_seeds << n_rounds
        accept = PovmAccept(
            tuple(random_povm_element(rng, 1 << n) for _ in range(n_leaves)),
            np.arange(n_leaves).reshape(n_seeds, -1),
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
