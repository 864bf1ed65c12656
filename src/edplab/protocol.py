"""The protocol data model (instruments, rounds, accept rules and
protocols, checked when they are built) and the four concrete protocols.

A protocol is data: a shared-randomness distribution over seeds, an
ordered list of rounds, an accept rule, and an output-pair designation.
Each round names a sender and a two-branch quantum instrument on that
party's register; the branch taken is the one classical bit sent that
round, so the communication cost equals the number of rounds.  After
the last round Alice declares SUCC or FAIL, modeled as a per-leaf accept
probability (``AcceptRule``), which is not counted as communication.

A protocol holds each operator once.  A round keeps its distinct
instruments and listener unitaries plus per-seed index arrays, and a
POVM accept rule its distinct elements plus a (seed, transcript) index;
the shared-randomness seeds only index into them.  A round, and a POVM
rule for its square roots, also keeps the ``frontier.Gathers`` tables
of its operators when every one is monomial, so that a walk applies
them to sparse nodes by index gathers.  ``locc`` evaluates protocols and
re-exports every name here.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .frontier import Gathers, gathers
from .qcore import ALICE, BOB, _check_capacity, hermitian_sqrt


def _transcript(code: int, depth: int) -> str:
    return format(code, f"0{depth}b") if depth else ""


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

    ``kraus_ops`` and ``listener_ops`` stack the operators of given
    entries from the instruments' own arrays: a walk stacks the
    operators of each batch of rows, or of distinct triples, it applies.
    ``gathers`` holds the same operators as index tables, for sparse
    nodes, when every one is monomial.
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
    def width(self) -> int:
        """Kraus slots per branch: the most Kraus operators of any branch."""
        return max(len(branch) for ins in self.instruments for branch in ins.kraus)

    @functools.cached_property
    def _slots(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Per instrument, its Kraus operators branch by branch, each branch
        padded to ``width`` with one shared zero operator: references, not
        copies."""
        d = self.instruments[0].dim >> self.instruments[0].n_workspace
        zero = np.zeros((d, d), dtype=np.complex128)
        return tuple(
            tuple(k for branch in ins.kraus for k in branch + (zero,) * (self.width - len(branch)))
            for ins in self.instruments
        )

    def kraus_ops(self, entries: np.ndarray) -> np.ndarray:
        """(len(entries), 2 branches, width, d, d) Kraus operators of the
        instruments ``entries``, stacked from their own arrays; a branch
        with fewer Kraus operators is padded with zero operators."""
        slots = self._slots
        d = slots[0][0].shape[0]
        stack = np.array([k for entry in entries.tolist() for k in slots[entry]], dtype=np.complex128)
        return stack.reshape(len(entries), 2, self.width, d, d)

    @functools.cached_property
    def gathers(self) -> tuple[Gathers | None, Gathers] | None:
        """The ``frontier.Gathers`` of the listener unitaries, (listeners,
        1, d), None for a round without them, and of the instruments'
        branches, (instruments, 2, d); None when a branch has several
        Kraus operators or an operator is not monomial.  Read off each
        distinct operator's nonzero pattern."""
        if self.width > 1:
            return None
        kraus = gathers(np.array(self._slots), self.party)
        if kraus is None or self.listener_unitaries is None:
            return None if kraus is None else (None, kraus)
        listeners = gathers(np.array(self.listener_unitaries)[:, None], self.listener)
        return None if listeners is None else (listeners, kraus)

    def listener_ops(self, entries: np.ndarray) -> np.ndarray:
        """(len(entries), 1, 1, d, d) listener unitaries ``entries``."""
        stack = np.array([self.listener_unitaries[entry] for entry in entries.tolist()], dtype=np.complex128)
        return stack[:, None, None]

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
    every element, computed on first use in one batched call, and
    ``gathers`` its index tables for sparse nodes when every root is
    monomial (the parity hash's basis projectors).
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

    @functools.cached_property
    def gathers(self) -> Gathers | None:
        """The ``frontier.Gathers`` of ``roots`` on Alice's register,
        (elements, 1, d); None unless every root is monomial."""
        return gathers(self.roots[:, None], ALICE)


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
        return any(rnd.width > 1 for rnd in self.rounds)


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
