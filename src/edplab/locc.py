"""Two-party LOCC protocol state machine: the exact runner and its
model-level figures of merit; the four concrete protocols are re-exported.

The protocol data model (``Instrument``, ``Round``, the accept rules and
``Protocol``) and the concrete protocols live in ``protocol``.  After the
last round Alice declares SUCC or FAIL; the declaration is modeled as a
per-leaf accept probability, either a constant or the expectation of a
POVM element on her register (realized as the gentle sqrt(M)
measurement), and is not counted as communication.

Evaluation is exact: the full transcript tree is enumerated per seed,
never sampled.  ``_walk`` is the only traversal, and ``run``, the model
figures of merit and the splitting tracker in ``verify`` consume it.  It
walks a block of inputs and seeds together and yields ``Level``s depth
first, content-addressed: a level holds its node states as one stacked
array per representation with a leading row axis (its class table),
plus per (seed, transcript) row its seed, transcript code, probability
and class index.  Rows run in seed order and then transcript order.  A
node below ``PROB_TOL`` is yielded but not expanded.  Most rows of a
hash protocol repeat: on a measure-r (5,2) input, hash (5,2) reaches
about 28 distinct leaves from 500 leaf rows on average.

A protocol holds each operator once (``protocol``).  A level that passes
``FRONTIER_BUDGET_BYTES`` when counted in rows (sparse rows counted as
amplitude matrices, the form their leaves are scored in), and whose
nodes are shared, is merged: the round is applied once per distinct
(parent class, listener, instrument) triple, in chunks of at most the
budget of children, with each chunk's operators stacked from the
distinct instruments (a branch with fewer Kraus operators is padded
with zero operators), and each chunk's nodes step under them in their
own form (``frontier``'s ``step``, given the round's gather tables,
``Round.gathers``): one batched matmul per operator slot, or one index
gather per operator on sparse nodes under monomial operators.  The
children are merged into the next level's class table
(``frontier.ClassTable``), which holds each distinct child once, as its
bytes, and decodes the classes into the level's arrays.  Any other
level is expanded row by row, with the rows' operators stacked the same
way, and each child is a class of its own: a level within the budget
needs no table, and a level that shares no node is taken to have
children that share none.  So a protocol without repeated nodes is
walked row by row below its root.
Every input reaches the runner as stacks of roots (``errmodels.Stack``),
and one loop serves ``run`` (a one-row stack per component),
``model_fidelities`` and ``witness_fidelities``: a stack is cut into
blocks of rows whose amplitude matrices fit the budget, a block is walked
with all its seeds, rows keyed by (input, seed, transcript) (``_walks``),
and each leaf, times its row's weight, is summed into its model input
(``_weigh``).  The splitting tracker walks both of its cases as one
paired input, each node stepped on both sides.  A walk is cut at an
(input, seed) boundary where a class table would pass the budget by more
than its merges saved, or where a level expanded row by row would pass
it.
Instruments are given directly in Kraus form, which subsumes local
ancillas; an instrument may additionally declare workspace qubits that
are appended in |0> for its round and traced out afterwards (compiled
into plain Kraus operators when it is built).

A root keeps one representation through its whole tree:

* sparse, a pure state with at most one nonzero per row of its
  amplitude matrix (the perfect block, the measure-r error states, the
  depolarization model's Bell patterns): a column and an amplitude per
  row, O(2^n) per node; monomial operators keep the form, any other
  operator turns the nodes pure, a multi-Kraus round dense;
* pure, any other ``PureState``: (rows, 2^n, 2^n) amplitude matrices,
  O(2^{3n}) per node; a multi-Kraus round turns them dense;
* product, a ``ProductState``: its two local factors, O(2^{3n}) per
  node; every runner operation is one-sided, so the form is kept;
* dense, a ``DensityMatrix`` (among the built-in models' inputs, only a
  fidelity model's sampled mixed members): (rows, 4^n, 4^n), O(2^{5n}).

Leaves are scored in one place, ``_score_leaves``, which ``run`` and the
splitting tracker in ``verify``, on each side of its paired leaves, both
call: it keeps the live leaves and scores them once per distinct (class,
accept entry, output pair), taking r_t from one accept formula
(``_accept``), the trace of the measured output-pair block.  A POVM rule measures the scored leaves in batched
applies, each with its element's sqrt(M), which the rule computes once
per distinct element, stepped like a round's operators, with the
roots' gather tables (``PovmAccept.gathers``); only the rows passed to
``reduce_pair`` are turned into amplitude matrices.  Each input sums
its leaves' weights per scored entry.  ``run``'s result keeps the
entries' values and each leaf's entry, and builds the per-leaf records
only when ``RunResult.leaves`` is read.  It also reports, per round, the
nodes expanded and pruned, the distinct children, the largest class
table and the time taken (``RunResult.stats``).

The witness is walked as sparse + product only, each part once, and
weighted per epsilon (``witness_fidelities``); depolarization is sparse.

``run`` is a pure function; independent runs may execute in parallel.
"""

from __future__ import annotations

import bisect
import functools
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errmodels import ErrorModel, Stack, _witness_mixing_weight, weighted_stacks
from .frontier import ClassTable, Frontier, child_row_bytes, grouped
from .frontier import frontier_of  # re-exported: the splitting tracker builds its roots with it
from .protocol import (  # re-exported: the protocol data model and the four concrete protocols
    AcceptRule,
    AlwaysAccept,
    ConstantAccept,
    Instrument,
    PovmAccept,
    Protocol,
    Round,
    _transcript,
    make_first_pair, make_random_pair, make_random_permutation, make_simple_random_hash,
)
from .qcore import ALICE, DensityMatrix, ProductState, PureState, epr_state, phi_plus_overlaps

PROB_TOL = 1e-12


class ConditionalOutputUndefined(ValueError):
    """Raised when the total accept probability is zero."""



# ---------------------------------------------------------------------------
# building blocks


def _per_seed(entries: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """The entry of each of ``seeds`` in per-seed data (instrument and
    listener indexes, output pairs), which holds one entry for every
    seed or one entry that serves them all.  A seed may
    be a row key of a block of inputs, ``input * n_seeds + seed``
    (``Level``), so it is read modulo the entries."""
    return entries[seeds % len(entries)]


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct key, ascending, and each row's
    index among the distinct keys in that order."""
    if (keys[1:] > keys[:-1]).all():  # every key new: a protocol without repeated nodes
        rows = np.arange(len(keys))
        return rows, rows
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


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
    distinct: int  # class table rows the round produced: distinct children where it merged, else all
    # the largest class table the round produced for one seed block, in bytes: its classes, held once as
    # their keys while it is built; each key's object overhead (about 33 B, and its dict slot) is not counted
    frontier_bytes: int
    seconds: float


class RunStats(NamedTuple):
    """Where a run spent its work.

    ``representations`` names each walk's frontier form, one walk per
    input component in ``run``: ``sparse``, ``pure``, ``product`` or
    ``dense``; or ``sparse->pure`` when a round of operators that are not
    monomial turned sparse nodes pure, and ``sparse->dense`` or
    ``pure->dense`` when a multi-Kraus round turned them dense.
    """

    representations: tuple[str, ...]
    seed_blocks: int
    rounds: tuple[RoundStats, ...]
    peak_frontier_bytes: int


class _Walked(NamedTuple):
    """The rows of one level of one seed block that ``_weigh`` reads: its
    leaves, with their values once per scored entry (``_Scores``) and each
    row's entry but no node states; or, for ``RunResult.leaves``, its dead nodes."""

    depth: int
    inputs: np.ndarray
    seeds: np.ndarray
    codes: np.ndarray
    entries: np.ndarray | None = None  # None for dead nodes
    probabilities: np.ndarray | None = None  # per entry
    accept: np.ndarray | None = None
    reduced: np.ndarray | None = None  # (entries, 4, 4) unnormalized output pairs
    post: np.ndarray | None = None  # (entries, 4, 4) accept-conditioned output pairs

    def records(self, components: np.ndarray, weights: np.ndarray) -> list[LeafRecord]:
        rows = zip(components.tolist(), self.seeds.tolist(), self.codes.tolist(), weights.tolist())
        if self.entries is None:
            return [
                LeafRecord(component, seed, _transcript(code, self.depth), w, 0.0, 0.0, None)
                for component, seed, code, w in rows
            ]
        outputs = (self.reduced / self.probabilities[:, None, None])[self.entries]
        return [
            LeafRecord(component, seed, _transcript(code, self.depth), w, p, r, out)
            for (component, seed, code, w), p, r, out in zip(
                rows, self.probabilities[self.entries].tolist(), self.accept[self.entries].tolist(), outputs
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
    # the (components, weights, level rows) that ``leaves`` is built from, in walk order
    rows: tuple[tuple[np.ndarray, np.ndarray, _Walked], ...] = field(default=(), repr=False, compare=False)

    @functools.cached_property
    def leaves(self) -> tuple[LeafRecord, ...]:
        """One record per leaf and per dead node, built on first read.

        A dead subtree is recorded once, at its root, with the truncated
        transcript as the label.  Records run component by component and
        seed by seed; within a seed, dead nodes level by level, then the
        leaves, each in transcript order.
        """
        records = [rec for components, weights, rows in self.rows for rec in rows.records(components, weights)]
        # a walk reaches each seed's levels in depth order, so a stable sort suffices
        records.sort(key=lambda rec: (rec.component, rec.seed))
        return tuple(records)


# ---------------------------------------------------------------------------
# the exact runner

# The one memory bound of a walk.  A level within it, counted in rows, is
# expanded row by row; a larger one that shares nodes is merged, applying
# at most this many bytes of children at once, or one seed's children if
# they alone are more.  A walk cuts its block at a seed boundary where a
# class table would pass it by more than the table's merges saved
# (``_fits``), or where a level expanded row by row would pass it, and a
# seed whose level alone is larger is a block of its own.
FRONTIER_BUDGET_BYTES = 1 << 17


class Level:
    """One depth of the transcript trees of a block of inputs and seeds.

    Row i is the node of seed ``seeds[i] % n_seeds`` on the input
    ``seeds[i] // n_seeds`` of the block reached by the transcript whose
    ``depth`` bits, first round first, are the binary digits of
    ``codes[i]``; a walk of one input keys its rows by the seed alone.
    Rows run in input order, then seed order, then transcript order.
    The level is content-addressed: ``frontier`` holds each distinct
    unnormalized node state once, as stacked arrays, and ``classes[i]``
    is row i's entry in it (a level expanded row by row holds a class
    per row, so it may hold equal states twice).  ``probabilities``
    holds the rows' traces.
    """

    __slots__ = ("depth", "seeds", "codes", "classes", "probabilities", "frontier", "_apart")

    def __init__(
        self,
        depth: int,
        seeds: np.ndarray,
        codes: np.ndarray,
        classes: np.ndarray,
        probabilities: np.ndarray,
        frontier: Frontier,
    ):
        self.depth = depth
        self.seeds = seeds
        self.codes = codes
        self.classes = classes
        self.probabilities = probabilities
        self.frontier = frontier
        self._apart: bool | None = None  # ``apart``, once read

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
        """The level restricted to ``rows``, ascending row indices; the
        class table is shared."""
        if len(rows) == len(self):
            return self
        return Level(
            self.depth,
            self.seeds[rows],
            self.codes[rows],
            self.classes[rows],
            self.probabilities[rows],
            self.frontier,
        )

    @property
    def apart(self) -> bool:
        """Whether every row is a class of its own: the level shares no node."""
        if self._apart is None:
            self._apart = bool((self.classes[1:] > self.classes[:-1]).all())
        return self._apart

    def states(self) -> Frontier:
        """The node state of every row."""
        if len(self.classes) == len(self.frontier) and self.apart:
            return self.frontier  # one row per class, in order
        return self.frontier.take(self.classes)


def _accept(protocol: Protocol, leaves: Level, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Accept probabilities r_t and the accept-conditioned output blocks of
    leaves whose probabilities are all >= PROB_TOL; ``pairs`` holds each
    row's output pair.

    The blocks, (rows, 4, 4), are the unnormalized output-pair states
    after a successful sqrt(M) measurement, scaled by p_t * r_t; they are
    None when the rule has no backaction (post = r_t * unconditional).
    Every leaf row gets its element's sqrt(M), computed once per distinct
    element, and the rows are measured in batched applies
    (``_output_pairs``); p_t * r_t = Tr(M rho_t) is the trace of the
    measured output-pair block.
    """
    rule = protocol.accept
    if isinstance(rule, AlwaysAccept):
        return np.ones(len(leaves)), None
    if isinstance(rule, ConstantAccept):
        return rule.probabilities(leaves.codes), None
    elements = rule.index[leaves.seeds % protocol.n_seeds, leaves.codes]

    def measure(rows: np.ndarray, nodes: Frontier) -> Frontier:
        return nodes.step(rule.gathers, elements[rows], lambda entries: rule.roots[entries][:, None, None], ALICE)

    post = _output_pairs(protocol, leaves, pairs, measure)
    r_joint = np.trace(post, axis1=1, axis2=2).real  # p_t * r_t
    kept = r_joint >= PROB_TOL
    post[~kept] = 0.0
    return np.where(kept, r_joint, 0.0) / leaves.probabilities, post


def _output_pairs(protocol: Protocol, level: Level, pairs: np.ndarray, measure=None) -> np.ndarray:
    """(rows, 4, 4) unnormalized output-pair states of ``level``'s rows,
    whose output pairs are ``pairs``, each row's state first replaced by
    ``measure(rows, states)`` when given.  The rows of each output pair
    are taken from the class table in chunks whose states take at most
    ``FRONTIER_BUDGET_BYTES`` (one row at least) in the form that
    ``reduce_pair`` takes, pure for sparse rows: a leaf level merged by
    content may hold more than the budget."""
    size = max(1, FRONTIER_BUDGET_BYTES // child_row_bytes(level.frontier, 1, gathered=False))
    every = np.arange(len(level))

    def evaluate(pair: int, rows) -> np.ndarray:
        rows, blocks = every[rows], []
        for start in range(0, len(rows), size):
            chunk = rows[start : start + size]
            nodes = level.take(chunk).states()  # the level itself when one chunk holds it
            blocks.append((nodes if measure is None else measure(chunk, nodes)).reduce_pair(protocol.n_pairs, pair))
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    return grouped(pairs.tolist(), evaluate)


class _Scores(NamedTuple):
    """A last level's live leaves, scored once per entry: per distinct
    (node class, accept entry, output pair), where the accept entry is
    the leaf's POVM element, or its transcript under per-transcript
    constants."""

    leaves: Level
    entries: np.ndarray  # each leaf's entry
    scored: Level  # the first leaf of each entry
    pairs: np.ndarray  # each entry's output pair
    accept: np.ndarray  # each entry's r_t
    post: np.ndarray | None  # each entry's accept-conditioned block (``_accept``)


def _totals(entries: np.ndarray, probabilities: np.ndarray, accept: np.ndarray, weights: np.ndarray):
    """The entries that leaves reach with a weight, ascending; the weights
    summed per such entry; and their SUCC probability sum_t w_t p_t r_t.
    Entries that only other inputs' leaves reach are skipped: their zeros
    would move the last bits."""
    summed = np.bincount(entries, weights, minlength=len(probabilities))
    used = np.flatnonzero(summed)
    summed = summed[used]
    return used, summed, float(np.dot(summed * probabilities[used], accept[used]))


def _score_leaves(protocol: Protocol, level: Level) -> _Scores:
    """The live leaves of a last level (probability >= PROB_TOL), their
    entries, and each entry's output pair, r_t and post block
    (``_accept``).  ``run`` and the splitting tracker both score leaves
    here."""
    leaves = level.take(np.flatnonzero(level.probabilities >= PROB_TOL))
    pairs = _per_seed(np.asarray(protocol.output_pair), leaves.seeds)
    rule = protocol.accept
    if isinstance(rule, PovmAccept):
        accept, count = rule.index[leaves.seeds % protocol.n_seeds, leaves.codes], len(rule.elements)
    elif isinstance(rule, ConstantAccept) and not isinstance(rule.values, (int, float)):
        accept, count = leaves.codes, 1 << level.depth
    else:
        accept, count = 0, 1
    first, entries = _first_seen((leaves.classes * count + accept) * protocol.n_pairs + pairs)
    scored = leaves.take(first)
    return _Scores(leaves, entries, scored, pairs[first], *_accept(protocol, scored, pairs[first]))


def _walk(protocol: Protocol, roots: Frontier, seeds: np.ndarray) -> Iterator[Level]:
    """The transcript trees of a block of inputs, the rows of ``roots``,
    level by level: every input with every seed of ``seeds``, its rows
    keyed ``input * n_seeds + seed`` (``Level``), so that input boundaries
    are seed boundaries and the root level holds one class per input.

    Yields the root level, then one level per round.  A round expands
    every node of the previous level at or above ``PROB_TOL`` into its two
    children; a node below it is yielded but not expanded.  Only the
    current level is held, so memory follows one level's class table.  A
    block whose level would not fit is cut at a seed boundary: a merged
    level where its class table would not fit (``_fits``), a level
    expanded row by row where its children would pass the budget.  The
    seeds before the cut are walked to the last depth, then the rest are
    expanded from the same parent level, which is held until then.  A
    depth then comes as several levels, in row order, depth first."""
    seeds = np.asarray(seeds, dtype=np.intp)
    classes = np.repeat(np.arange(len(roots)), len(seeds))  # every seed's root is its input
    keys = (np.arange(len(roots))[:, None] * protocol.n_seeds + seeds).reshape(-1)
    level = Level(0, keys, np.zeros(len(keys), dtype=np.int64), classes, roots.norms()[classes], roots)
    yield from _descend(protocol, level)


def _descend(protocol: Protocol, level: Level) -> Iterator[Level]:
    """``level`` and, depth first, the levels below it.  A level is let go
    once its children are computed, unless a cut leaves parents for later.

    Whether a level is merged is decided once for the level, before any
    cut: where the level, counted in rows, would pass
    ``FRONTIER_BUDGET_BYTES`` (sparse rows counted as amplitude matrices,
    since their leaves are scored as such) and its parents share a node,
    each distinct
    (parent class, listener, instrument) triple is applied once and the
    children are merged by their bytes into a class table
    (``_merged_children``).  Otherwise the level is expanded row by row,
    in one batch, and each child is a class of its own
    (``_row_children``): a level within the budget needs no table, and a
    level whose parents share no node is taken to have children that
    share none.  So a protocol without repeated nodes is walked row by
    row below its root.
    """
    yield level
    if level.depth == protocol.bits:
        return
    rnd = protocol.rounds[level.depth]
    parents = level.take(np.flatnonzero(level.probabilities >= PROB_TOL))
    # only sparse nodes are gathered, so any other form takes the same bytes either way
    row_bytes = child_row_bytes(parents.frontier, rnd.width, gathered=rnd.gathers is not None)
    pure_bytes = child_row_bytes(parents.frontier, rnd.width, gathered=False)
    by_rows = parents.apart or 2 * len(parents) * pure_bytes <= FRONTIER_BUDGET_BYTES
    del level
    while parents is not None:
        children, parents, by_rows = _expand(rnd, parents, row_bytes, by_rows)
        below = _descend(protocol, children)
        del children
        yield from below


def _expand(rnd: Round, parents: Level, row_bytes: int, by_rows: bool) -> tuple[Level, Level | None, bool]:
    """The children of ``parents``, whose children take ``row_bytes`` each,
    expanded ``by_rows`` or merged (``_descend``); the parents left for a
    later block where the block had to be cut (None where it was not);
    and whether those are to be expanded by rows."""
    instruments = _per_seed(rnd.instrument_index, parents.seeds)
    listeners = None if rnd.listener_index is None else _per_seed(rnd.listener_index, parents.seeds)
    if by_rows:
        return (*_row_children(_Ops(rnd, listeners, instruments), parents, row_bytes), True)
    keys = parents.classes if listeners is None else parents.classes * len(rnd.listener_unitaries) + listeners
    first, triples = _first_seen(keys * len(rnd.instruments) + instruments)
    ops = _Ops(rnd, None if listeners is None else listeners[first], instruments[first])
    return _merged_children(ops, parents, first, triples, row_bytes)


class _Ops(NamedTuple):
    """A round and the listener and instrument entries of the rows, or
    of the distinct triples, that a level applies, in order."""

    rnd: Round
    listeners: np.ndarray | None  # None for a round without listener unitaries
    instruments: np.ndarray

    def apply(self, nodes: Frontier, entries: slice) -> Frontier:
        """The children of ``nodes``, whose operators are ``entries``: the
        listener unitary, then the instrument, each stepped in the nodes'
        form with the round's tables (``Round.gathers``)."""
        rnd = self.rnd
        listeners, instruments = rnd.gathers or (None, None)
        if self.listeners is not None:
            nodes = nodes.step(listeners, self.listeners[entries], rnd.listener_ops, rnd.listener)
        return nodes.step(instruments, self.instruments[entries], rnd.kraus_ops, rnd.party)


def _child_level(parents: Level, classes: np.ndarray | None, frontier: Frontier) -> Level:
    """The level of the children of ``parents``, two per row, whose
    classes in ``frontier`` are ``classes``; None when each child is a
    class of its own, in order."""
    norms = frontier.norms()
    return Level(
        parents.depth + 1,
        np.repeat(parents.seeds, 2),
        (2 * parents.codes[:, None] + np.arange(2)).reshape(-1),
        np.arange(len(norms)) if classes is None else classes,
        norms if classes is None else norms[classes],
        frontier,
    )


def _seed_starts(seeds: np.ndarray) -> np.ndarray:
    """The row where each seed of ``seeds``, in seed order, but the first
    starts."""
    return np.flatnonzero(seeds[1:] != seeds[:-1]) + 1


def _split(parents: Level, kept: int) -> tuple[Level, Level | None]:
    """The first ``kept`` rows of ``parents``, and the rest (None when
    there are none)."""
    if kept == len(parents):
        return parents, None
    return parents.take(np.arange(kept)), parents.take(np.arange(kept, len(parents)))


def _row_children(ops: _Ops, parents: Level, row_bytes: int) -> tuple[Level, Level | None]:
    """``_expand`` row by row: each row's two children, applied in one
    batch, are classes of their own.  Given the children's ``row_bytes``,
    the block is cut at the last seed boundary whose rows' children fit
    the budget (a first seed whose
    children alone pass it is a block of its own), which is where
    ``_fits`` cuts a table that merged nothing."""
    kept = len(parents)
    if 2 * kept * row_bytes > FRONTIER_BUDGET_BYTES:
        starts = _seed_starts(parents.seeds)
        if len(starts):
            kept = int(starts[max(0, np.searchsorted(starts, FRONTIER_BUDGET_BYTES // (2 * row_bytes), "right") - 1)])
    block, rest = _split(parents, kept)
    return _child_level(block, None, ops.apply(block.states(), slice(0, kept))), rest


def _merged_children(
    ops: _Ops, parents: Level, first: np.ndarray, triples: np.ndarray, row_bytes: int
) -> tuple[Level, Level | None, bool]:
    """``_expand`` through a class table: the children of the distinct
    triples are merged by their bytes (``frontier.ClassTable``), which
    numbers new classes in the order of their first child, so the first
    t triples use exactly the classes up to the largest of their
    children's (``_cut``).

    Triples are applied in the order of their first row, in chunks of at
    most ``FRONTIER_BUDGET_BYTES`` of children, or of one seed's new
    triples where those alone are more.  A chunk past the budget is as
    large as the table's room takes at the share of
    children that opened a class so far (``_room``); where not one more
    triple fits, or the table did not fit after all (``_fits``), the
    block is cut at the last seed boundary whose rows' classes fit
    (``_cut``).  The table holds each class once, as its bytes, so its
    size is what ``_fits`` and ``_room`` weigh; the classes kept are
    decoded from it into the level's arrays.
    """
    starts = _seed_starts(parents.seeds)
    needed = np.searchsorted(first, starts)  # the triples the rows before each start need
    seed_ends = needed.tolist() + [len(first)]  # as a list, for the chunk loop
    most = max(1, FRONTIER_BUDGET_BYTES // (2 * row_bytes))
    table = ClassTable()
    classes = np.empty(2 * len(first), dtype=np.intp)  # the children of triple t are 2t and 2t + 1
    done, kept, size = 0, len(parents), None
    while done < len(first):
        count = most
        # a table within the budget fits (``_fits``), so cuts are weighed only past it, and
        # only where a seed boundary has all its rows expanded
        if (len(table) + 2 * count) * row_bytes > FRONTIER_BUDGET_BYTES and len(needed) and needed[0] <= done:
            opened = (len(table) + 1) / (2 * done + 1)
            covered = 2 * row_bytes * int(np.count_nonzero(triples < done))
            room = _room(len(table) * row_bytes, covered, opened) / (2 * row_bytes)
            if room < 1:  # not one more triple fits at the share so far
                kept, size = _cut(classes, done, starts, needed, row_bytes)
                break
            count = int(min(most, room))
        # a seed's triples that alone pass the budget are applied together, as one block
        count = max(count, seed_ends[bisect.bisect_right(seed_ends, done)] - done)
        chunk = slice(done, min(done + count, len(first)))
        children = ops.apply(parents.frontier.take(parents.classes[first[chunk]]), chunk)
        classes[2 * chunk.start : 2 * chunk.stop] = table.add(children)
        del children  # not held while the table is decoded
        done = chunk.stop
        if len(table) * row_bytes > FRONTIER_BUDGET_BYTES and len(needed) and needed[0] <= done:
            covered = 2 * row_bytes * int(np.count_nonzero(triples < done))
            if not _fits(len(table) * row_bytes, covered):
                kept, size = _cut(classes, done, starts, needed, row_bytes)
                break
    block, rest = _split(parents, kept)
    rows = classes[(2 * triples[:kept, None] + np.arange(2)).reshape(-1)]
    # one seed's children filled the table, and its triples, all distinct, merged nothing: the
    # rest is expanded row by row, as blocks of about one seed that share nothing
    by_rows = rest is None or (kept == starts[0] and len(first) == len(parents) and len(table) == 2 * done)
    return _child_level(block, rows, table.frontier(size)), rest, by_rows


def _cut(classes: np.ndarray, done: int, starts: np.ndarray, needed: np.ndarray, row_bytes: int) -> tuple[int, int]:
    """Where ``_expand`` cuts a block once ``done`` triples are applied:
    the last seed boundary whose rows are all expanded and whose classes
    fit, or the first one when none fits, and the classes kept."""
    ready = np.flatnonzero(needed <= done)
    top = np.maximum.accumulate(classes[: 2 * done]) + 1  # the classes the first t triples use
    sizes = top[2 * needed[ready] - 1]  # every seed needs a triple, so needed >= 1
    fit = np.flatnonzero(_fits(sizes * row_bytes, 2 * starts[ready] * row_bytes))
    pick = fit[-1] if len(fit) else 0
    return int(starts[ready[pick]]), int(sizes[pick])


def _fits(table_bytes, row_bytes):
    """Whether a class table of ``table_bytes`` standing for rows of
    ``row_bytes`` may be held: it may pass ``FRONTIER_BUDGET_BYTES`` by
    no more than the bytes its merges saved, ``row_bytes - table_bytes``.
    Elementwise on arrays of sizes."""
    return 2 * table_bytes <= row_bytes + FRONTIER_BUDGET_BYTES


def _room(table_bytes: int, row_bytes: int, opened: float) -> float:
    """The most bytes of children that keep the table within ``_fits``
    when a share ``opened`` of them open classes: unbounded while at most
    half of them do."""
    if 2 * opened <= 1:
        return math.inf
    return (row_bytes + FRONTIER_BUDGET_BYTES - 2 * table_bytes) / (2 * opened - 1)


class _Meter:
    """Per-round counts, sizes and times of a run."""

    def __init__(self, bits: int):
        self.bits = bits
        self.expanded = [0] * bits
        self.pruned = [0] * bits
        self.distinct = [0] * bits
        self.frontier_bytes = [0] * bits
        self.seconds = [0.0] * bits
        self.peak = 0
        self.blocks = 0
        self.representations: list[str] = []

    def levels(self, levels: Iterator[Level]) -> Iterator[Level]:
        """Pass one walk's ``levels`` through, charging each round the time
        it took, and record the walk's representation: its root's, then
        its leaves' if they differ."""
        forms = []
        clock = time.perf_counter()
        for level in levels:
            elapsed = time.perf_counter() - clock
            size = level.frontier.nbytes
            self.peak = max(self.peak, size)
            if level.depth:
                r = level.depth - 1
                self.distinct[r] += len(level.frontier)
                self.frontier_bytes[r] = max(self.frontier_bytes[r], size)
                self.seconds[r] += elapsed
            if level.depth < self.bits:
                live = int(np.count_nonzero(level.probabilities >= PROB_TOL))
                self.expanded[level.depth] += live
                self.pruned[level.depth] += len(level) - live
            else:
                self.blocks += 1
            if level.depth in (0, self.bits):
                forms.append(level.frontier.kind)
            yield level
            clock = time.perf_counter()
        root, leaf = forms[0], forms[-1]
        self.representations.append(root if root == leaf else f"{root}->{leaf}")

    def stats(self) -> RunStats:
        return RunStats(
            representations=tuple(self.representations),
            seed_blocks=self.blocks,
            rounds=tuple(
                map(RoundStats, self.expanded, self.pruned, self.distinct, self.frontier_bytes, self.seconds)
            ),
            peak_frontier_bytes=self.peak,
        )


def _walk_leaves(protocol: Protocol, roots: Frontier, meter: _Meter) -> Iterator[_Walked]:
    """Walk the inputs ``roots`` together, with all live seeds, as one
    block that the walk cuts at (input, seed) boundaries where a level
    would not fit (``_walk``), and yield each level's dead nodes, which
    only ``RunResult.leaves`` reads, and the last levels' leaves, scored
    once per distinct entry (``_score_leaves``)."""
    n_seeds = protocol.n_seeds
    for level in meter.levels(_walk(protocol, roots, np.flatnonzero(np.asarray(protocol.seed_weights)))):
        rows = np.flatnonzero(level.probabilities < PROB_TOL)
        if len(rows):
            yield _Walked(level.depth, *np.divmod(level.seeds[rows], n_seeds), level.codes[rows])
        if level.depth < protocol.bits:
            continue
        scores = _score_leaves(protocol, level)
        reduced = _output_pairs(protocol, scores.scored, scores.pairs)
        post = scores.accept[:, None, None] * reduced if scores.post is None else scores.post
        rows = scores.leaves.codes, scores.entries, scores.scored.probabilities, scores.accept, reduced, post
        yield _Walked(level.depth, *np.divmod(scores.leaves.seeds, n_seeds), *rows)


def _walks(protocol: Protocol, stacks: Iterable[Stack], meter: _Meter) -> Iterator[tuple]:
    """``stacks`` cut into blocks of rows whose amplitude matrices fit
    ``FRONTIER_BUDGET_BYTES`` (one row at least): per block, its first row
    among all the stacks' rows, the block and its walk (``_walk_leaves``)."""
    offset = 0
    for stack in stacks:
        size = max(1, FRONTIER_BUDGET_BYTES // child_row_bytes(stack.roots, 1, gathered=False))
        for start in range(0, len(stack.roots), size):
            rows = slice(start, start + size)
            block = Stack(stack.roots.take(rows), stack.weights[rows], stack.inputs[rows])
            yield offset + start, block, _walk_leaves(protocol, block.roots, meter)
        offset += len(stack.roots)


def _weigh(protocol: Protocol, walks, n_inputs: int, records=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per model input, its output and accept-conditioned output, (n_inputs,
    4, 4), and SUCC probability: over ``walks`` (``_walks``), the sum of
    every leaf times its row's weight, into the input its row adds to.
    ``records``, when given, gets the rows ``RunResult.leaves`` reads,
    each row's component numbered by its row among all the stacks'."""
    out, cond = np.zeros((2, n_inputs, 4, 4), np.complex128)
    success, seed_weights = np.zeros(n_inputs), np.asarray(protocol.seed_weights)
    for offset, block, walked in walks:
        for rows in walked:
            weight = block.weights[rows.inputs] * seed_weights[rows.seeds]
            if records is not None:
                records.append((offset + rows.inputs, weight, rows))
            if rows.entries is None:
                continue
            # rows run in input order, and a scored level holds leaves: sum each model input's leaves on their own
            inputs = block.inputs[rows.inputs]
            bounds = [0, *(np.flatnonzero(inputs[1:] != inputs[:-1]) + 1).tolist(), len(inputs)]
            for start, stop in zip(bounds, bounds[1:]):
                i = inputs[start]
                entries = rows.entries[start:stop]
                used, summed, succ = _totals(entries, rows.probabilities, rows.accept, weight[start:stop])
                out[i] += np.dot(summed, rows.reduced.reshape(-1, 16)[used]).reshape(4, 4)
                cond[i] += np.dot(summed, rows.post.reshape(-1, 16)[used]).reshape(4, 4)
                success[i] += succ
    return out, cond, success


def run(protocol: Protocol, state) -> RunResult:
    """Evaluate a protocol exactly on a state or weighted state list.

    Every component is a one-row stack (``errmodels.weighted_stacks``),
    walked with all its live seeds (``_walks``) and weighted
    (``_weigh``).  Leaves are scored once per distinct entry
    (``_score_leaves``), and leaf probabilities, the SUCC probability, the
    output, and the output conditioned on SUCC are computed from the
    entries' values weighted by their leaves' summed weights; they are
    exact up to float arithmetic.
    ``RunResult.stats`` says where the work went.
    """
    weighted = [(1.0, state)] if isinstance(state, (PureState, ProductState, DensityMatrix)) else list(state)
    for _, st in weighted:
        if st.n_alice != protocol.n_pairs or st.n_bob != protocol.n_pairs:
            raise ValueError(f"input must live on {protocol.n_pairs} pairs, got ({st.n_alice}, {st.n_bob})")
    meter, records = _Meter(protocol.bits), []
    walks = _walks(protocol, weighted_stacks(weighted), meter)
    (out,), (cond,), (success,) = _weigh(protocol, walks, 1, records)
    return RunResult(
        n_pairs=protocol.n_pairs,
        bits=protocol.bits,
        success_probability=float(success),
        output=DensityMatrix(1, 1, out, validate=False),
        conditional_output=DensityMatrix(1, 1, cond / success, validate=False) if success > PROB_TOL else None,
        stats=meter.stats(),
        rows=tuple(records),
    )


# ---------------------------------------------------------------------------
# model-level figures of merit


def witness_fidelities(protocol: Protocol, epsilons) -> tuple[float, list[tuple[float, float | None] | ValueError]]:
    """The ideal success probability p and, per epsilon, what
    ``model_fidelities`` gives on ``FidelityModel(n, epsilon)``, or the
    model's ``ValueError``.  The witness's parts do not depend on epsilon
    and the runner is linear, so each part is walked once, as a stack of
    weight 1, and weighted per epsilon by 1 - eps' or eps', or left out
    where that is 0.  p is the perfect block's walk weighted by 1, even
    where epsilon = 1 - 4^-n drops that block."""
    n, mixing = protocol.n_pairs, []
    for epsilon in epsilons:
        try:
            mixing.append(_witness_mixing_weight(n, epsilon))
        except ValueError as exc:
            mixing.append(exc)
    parts = weighted_stacks([(1.0, epr_state(n))])
    if any(not isinstance(eps, ValueError) and eps > 0.0 for eps in mixing):
        parts += weighted_stacks([(1.0, ProductState.maximally_mixed(n, n))])
    walked = [(offset, block, list(rows)) for offset, block, rows in _walks(protocol, parts, _Meter(protocol.bits))]

    def weighted(weights) -> tuple[np.ndarray, ...]:
        walks = [(o, b._replace(weights=b.weights * w), rows) for (o, b, rows), w in zip(walked, weights) if w > 0.0]
        return _weigh(protocol, walks, 1)

    results = [eps if isinstance(eps, ValueError) else _fidelities(*weighted((1.0 - eps, eps))) for eps in mixing]
    return float(weighted((1.0,))[2][0]), results


def model_fidelities(protocol: Protocol, model: ErrorModel) -> tuple[float, float | None]:
    """Minimum output fidelity and minimum conditional-output fidelity
    over the model's evaluated states: its stacks (``stacks``), walked in
    blocks (``_walks``) and summed per model input (``_weigh``).

    The conditional value is None when some state never reaches SUCC.
    For the fidelity model the evaluated set is the witness plus any
    sampled members, so each value is a witness minimum (an upper
    estimate of the true model minimum).
    """
    if model.n != protocol.n_pairs:
        raise ValueError(f"input must live on {protocol.n_pairs} pairs, got ({model.n}, {model.n})")
    stacks = model.stacks()
    n_inputs = max(int(stack.inputs[-1]) for stack in stacks) + 1
    return _fidelities(*_weigh(protocol, _walks(protocol, stacks, _Meter(protocol.bits)), n_inputs))


def _fidelities(out: np.ndarray, cond: np.ndarray, success: np.ndarray) -> tuple[float, float | None]:
    """``model_fidelities`` of the inputs ``_weigh`` summed."""
    conditional = float(phi_plus_overlaps(cond / success[:, None, None]).min()) if (success > PROB_TOL).all() else None
    return float(phi_plus_overlaps(out).min()), conditional


def protocol_fidelity(protocol: Protocol, model: ErrorModel) -> float:
    """Minimum output fidelity over the model's evaluated states."""
    return model_fidelities(protocol, model)[0]


def conditional_fidelity(protocol: Protocol, model: ErrorModel) -> float:
    """Minimum conditional-output fidelity over the model's states."""
    return _defined(model_fidelities(protocol, model))


def _defined(fidelities: tuple[float, float | None] | ValueError) -> float:
    """The conditional value of one ``witness_fidelities`` or ``model_fidelities`` result, or its error."""
    if isinstance(fidelities, ValueError):
        raise fidelities
    if fidelities[1] is None:
        raise ConditionalOutputUndefined("protocol never declares SUCC on this input")
    return fidelities[1]
