"""Batched node states for the transcript-tree runner.

A frontier holds the nodes of one level of the transcript trees of a
block of seeds as arrays with a leading row axis, in one of four
representations picked by the input (see ``locc``): ``Sparse`` pure
states whose amplitude matrices hold at most one nonzero per row,
``Pure`` amplitude matrices, ``Product`` local factors or ``Dense`` flat
matrices.  ``Paired`` holds the same nodes of two inputs side by side,
each side in its own representation; the splitting tracker walks its two
cases so.  Each of the five forms holds its rows as ``parts``, from which
one base derives its length, its bytes and ``take``.

Each form decides how an operator acts on its nodes, in one method, so
the runner never asks which form it holds:
``step(table, entries, stack, party)`` applies the operators ``entries``
on ``party``'s register and returns the children row by row, branch by
branch: the child of row i and branch b is row i * branches + b.  By
default it applies ``stack(entries)``, (rows, branches, kraus, d, d)
matrices, through ``apply``; a branch with fewer Kraus operators is
padded with zero operators.  ``Sparse`` nodes take operators with at
most one nonzero per row and per column (monomial: permutations times
phases, and computational-basis projectors) by index gathers from their
``Gathers`` tables, ``table`` (None when an operator is not monomial);
any other operator turns them pure.  The measure-r error states and the
perfect block are sparse, and the CNOT permutations and basis projectors
of the parity hash keep them so (the structure of stabilizer simulation,
Aaronson & Gottesman 2004).  ``Paired`` steps both sides, each in its
own form.

A level holds each distinct node state once, as its key in a
``ClassTable``: the row's bytes, so equal rows merge and rows that
differ only in the sign of a zero stay apart.  This is the unique table
of decision-diagram simulators, whose key is the node (QMDD, Miller &
Thornton 2006; DDSIM, Zulehner & Wille 2019).
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .qcore import ALICE, DensityMatrix, ProductState, PureState, pair_states


class Gathers(NamedTuple):
    """Index and phase tables of a stack of monomial operators, (..., d)
    each, for the side they act on.  On Alice's side, row i of ``K psi``
    is ``phase[i]`` times row ``index[i]`` of ``psi``; on Bob's side,
    column c of ``psi K^T`` is ``phase[c]`` times column c of ``psi``,
    moved to column ``index[c]``.  An operator row (Alice) or column
    (Bob) without a nonzero has index 0 and phase 0."""

    index: np.ndarray
    phase: np.ndarray

    def take(self, entries: np.ndarray) -> "Gathers":
        return Gathers(self.index[entries], self.phase[entries])


def gathers(ops: np.ndarray, party: str) -> Gathers | None:
    """The ``Gathers`` of a stack of operators (..., d, d) on ``party``'s
    register, read off their nonzero patterns; None unless every one is
    monomial, at most one nonzero per row and per column."""
    *lead, d, _ = ops.shape
    flat = ops.reshape(-1, d, d)
    nonzero = flat != 0
    lines, stack = np.arange(d), np.arange(len(flat))[:, None]
    if party == ALICE:  # the column of each row's nonzero
        index = nonzero.argmax(axis=2)
        phase = flat[stack, lines, index]
    else:  # the row of each column's nonzero
        index = nonzero.argmax(axis=1)
        phase = flat[stack, index, lines]
    # monomial: the tables hold every nonzero, one per line, and no two lines
    # of an operator share a target
    hit = phase != 0
    if np.count_nonzero(hit) != np.count_nonzero(nonzero) or np.bincount((index + stack * d)[hit]).max(initial=0) > 1:
        return None
    return Gathers(index.reshape(*lead, d), phase.reshape(*lead, d))


class _Rows:
    """What every form derives from its ``parts``, one array per part
    with a leading row axis, and ``with_parts``: its length, its bytes,
    its rows, and the default operator step."""

    def __len__(self) -> int:
        return len(self.parts[0])

    @property
    def nbytes(self) -> int:
        return sum(part.nbytes for part in self.parts)

    def take(self, rows):
        return self.with_parts(*(part[rows] for part in self.parts))

    def step(self, table: Gathers | None, entries: np.ndarray, stack, party: str) -> "Frontier":
        """The children under the operators ``entries`` on ``party``'s
        register, applied as the matrices ``stack(entries)``."""
        return self.apply(stack(entries), party)


class Sparse(_Rows):
    """Unnormalized pure states whose (dA, dB) amplitude matrices hold at
    most one nonzero per row, as (rows, dA) amplitudes and (rows, dA)
    column indexes.  A zero row holds column 0 and amplitude +0, so that
    equal states hold equal bytes."""

    kind = "sparse"

    def __init__(self, amps: np.ndarray, cols: np.ndarray, db: int):
        self.amps = amps
        self.cols = cols
        self.db = db

    @property
    def dims(self) -> tuple[int, int]:
        return self.amps.shape[1], self.db

    @property
    def parts(self) -> tuple[np.ndarray, ...]:
        return (self.amps, self.cols)

    def with_parts(self, amps: np.ndarray, cols: np.ndarray) -> "Sparse":
        return Sparse(amps, cols, self.db)

    def step(self, table: Gathers | None, entries: np.ndarray, stack, party: str) -> "Frontier":
        """By index gathers from ``table``, the operators' tables, or as
        matrices where they are not monomial (``table`` None)."""
        if table is None:
            return self.apply(stack(entries), party)
        return self.gather(table.take(entries), party)

    def apply(self, ops: np.ndarray, party: str) -> "Frontier":
        """``Pure.apply``: operators given as matrices turn the nodes pure."""
        return self.to_pure().apply(ops, party)

    def gather(self, table: Gathers, party: str) -> "Sparse":
        """The children under monomial operators given by their tables,
        (rows, branches, d) each (``Gathers``), in ``apply``'s order."""
        rows, branches, d = table.index.shape
        if party == ALICE:
            src = table.index + (np.arange(rows) * d)[:, None, None]
            amps = self.amps.reshape(-1)[src] * table.phase
            cols = self.cols.reshape(-1)[src]
        else:
            at = self.cols[:, None] + (np.arange(rows * branches) * d).reshape(rows, branches, 1)
            cols = table.index.reshape(-1)[at]
            amps = self.amps[:, None] * table.phase.reshape(-1)[at]
        zero = amps == 0
        amps[zero] = 0.0
        cols[zero] = 0
        da = self.amps.shape[1]
        return Sparse(amps.reshape(-1, da), cols.reshape(-1, da), self.db)

    def norms(self) -> np.ndarray:
        return np.einsum("ra,ra->r", self.amps.conj(), self.amps).real

    def reduce_pair(self, n: int, pair: int) -> np.ndarray:
        return self.to_pure().reduce_pair(n, pair)

    def local_states(self) -> tuple[np.ndarray, np.ndarray]:
        return self.to_pure().local_states()

    def to_pure(self) -> "Pure":
        rows, da = self.amps.shape
        psi = np.zeros((rows * da, self.db), dtype=np.complex128)
        psi[np.arange(rows * da), self.cols.reshape(-1)] = self.amps.reshape(-1)
        return Pure(psi.reshape(rows, da, self.db))


def _sparse_of(psi: np.ndarray) -> Sparse | None:
    """Amplitude matrices (rows, dA, dB) as ``Sparse``; None when a row of
    one holds two nonzeros."""
    nonzero = psi != 0
    if np.count_nonzero(nonzero) != np.count_nonzero(nonzero.any(axis=2)):
        return None
    rows, da, db = psi.shape
    cols = nonzero.argmax(axis=2)  # 0 in a zero row
    amps = psi[np.arange(rows)[:, None], np.arange(da), cols]
    amps[amps == 0] = 0.0  # +0 in a zero row
    return Sparse(amps, cols, db)


class Pure(_Rows):
    """Unnormalized pure states as (rows, dA, dB) amplitude matrices."""

    kind = "pure"

    def __init__(self, psi: np.ndarray):
        self.psi = psi

    @property
    def dims(self) -> tuple[int, int]:
        return self.psi.shape[1:]

    @property
    def parts(self) -> tuple[np.ndarray, ...]:
        return (self.psi,)

    def with_parts(self, psi: np.ndarray) -> "Pure":
        return Pure(psi)

    def apply(self, ops: np.ndarray, party: str) -> "Frontier":
        """sum_k K rho K^dag; a multi-Kraus stack turns the nodes dense."""
        if ops.shape[2] != 1:
            return self.to_dense().apply(ops, party)
        k = ops[:, :, 0]
        psi = self.psi[:, None]
        out = k @ psi if party == ALICE else psi @ k.swapaxes(-1, -2)
        return Pure(out.reshape((-1,) + self.psi.shape[1:]))

    def norms(self) -> np.ndarray:
        return np.einsum("rab,rab->r", self.psi.conj(), self.psi).real

    def reduce_pair(self, n: int, pair: int) -> np.ndarray:
        """(rows, 4, 4) reduced matrices of (Alice ``pair``, Bob ``pair``)."""
        return pair_states(self.psi, pair)

    def local_states(self) -> tuple[np.ndarray, np.ndarray]:
        """(alice, bob) marginals, each (rows, d, d)."""
        psi, conj = self.psi, self.psi.conj()
        return psi @ conj.swapaxes(1, 2), psi.swapaxes(1, 2) @ conj

    def to_dense(self) -> "Dense":
        rows, da, db = self.psi.shape
        vec = self.psi.reshape(rows, da * db)
        return Dense(vec[:, :, None] * vec.conj()[:, None, :], da, db)


class Product(_Rows):
    """Unnormalized product states ``alice (x) bob`` as their local factors.

    Every runner operation acts on one side, so the form is kept
    throughout and a node costs what a pure node costs.
    """

    kind = "product"

    def __init__(self, alice: np.ndarray, bob: np.ndarray):
        self.alice = alice
        self.bob = bob

    @property
    def parts(self) -> tuple[np.ndarray, ...]:
        return (self.alice, self.bob)

    def with_parts(self, alice: np.ndarray, bob: np.ndarray) -> "Product":
        return Product(alice, bob)

    def apply(self, ops: np.ndarray, party: str) -> "Product":
        side, other = (self.alice, self.bob) if party == ALICE else (self.bob, self.alice)
        side = side[:, None]
        out = _sandwich_side(ops[:, :, 0], side)
        for j in range(1, ops.shape[2]):
            out += _sandwich_side(ops[:, :, j], side)
        out = out.reshape((-1,) + side.shape[2:])
        other = np.repeat(other, ops.shape[1], axis=0)
        return Product(out, other) if party == ALICE else Product(other, out)

    def norms(self) -> np.ndarray:
        return _traces(self.alice) * _traces(self.bob)

    def reduce_pair(self, n: int, pair: int) -> np.ndarray:
        a = _qubit_marginal(self.alice, n, pair)
        b = _qubit_marginal(self.bob, n, pair)
        return np.einsum("rab,rcd->racbd", a, b).reshape(len(self), 4, 4)

    def local_states(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            self.alice * _traces(self.bob)[:, None, None],
            self.bob * _traces(self.alice)[:, None, None],
        )


class Dense(_Rows):
    """Unnormalized mixed states as flat (rows, dA*dB, dA*dB) matrices."""

    kind = "dense"

    def __init__(self, rho: np.ndarray, dA: int, dB: int):
        self.rho = rho
        self.dA = dA
        self.dB = dB

    @property
    def parts(self) -> tuple[np.ndarray, ...]:
        return (self.rho,)

    def with_parts(self, rho: np.ndarray) -> "Dense":
        return Dense(rho, self.dA, self.dB)

    def apply(self, ops: np.ndarray, party: str) -> "Dense":
        out = self._sandwich(ops[:, :, 0], party)
        for j in range(1, ops.shape[2]):
            out += self._sandwich(ops[:, :, j], party)
        d = self.dA * self.dB
        return Dense(out.reshape(-1, d, d), self.dA, self.dB)

    def _sandwich(self, k: np.ndarray, party: str) -> np.ndarray:
        """k . rho . k^dag on one party's side: (rows, branches, d, d)."""
        rows, branches = k.shape[:2]
        dA, dB = self.dA, self.dB
        d = dA * dB
        kh = k.conj().swapaxes(-1, -2)
        if party == ALICE:
            out = k @ self.rho.reshape(rows, 1, dA, dB * d)
            out = out.reshape(rows, branches, d, dA, dB).swapaxes(-1, -2) @ kh[:, :, None]
            return out.swapaxes(-1, -2).reshape(rows, branches, d, d)
        out = k[:, :, None] @ self.rho.reshape(rows, 1, dA, dB, d)
        return (out.reshape(rows, branches, d * dA, dB) @ kh).reshape(rows, branches, d, d)

    def norms(self) -> np.ndarray:
        return _traces(self.rho)

    def reduce_pair(self, n: int, pair: int) -> np.ndarray:
        rows = len(self)
        t = self.rho.reshape((rows,) + (2,) * (4 * n))
        t = np.moveaxis(
            t,
            (1 + pair, 1 + n + pair, 1 + 2 * n + pair, 1 + 3 * n + pair),
            (1, 2, 1 + 2 * n, 2 + 2 * n),
        )
        rest = 1 << (2 * n - 2)
        return np.einsum("rasbs->rab", t.reshape(rows, 4, rest, 4, rest))

    def local_states(self) -> tuple[np.ndarray, np.ndarray]:
        t = self.rho.reshape(len(self), self.dA, self.dB, self.dA, self.dB)
        return np.einsum("rabcb->rac", t), np.einsum("rabad->rbd", t)


class Paired(_Rows):
    """The same transcript nodes on two inputs: row i of ``first`` and row
    i of ``second`` are one node of each input's tree.  Its parts are both
    sides' parts, so a ``ClassTable`` merges exactly the distinct pairs of
    nodes, and its norm is the larger side's, so a node is expanded while
    either side lives.  It steps both sides, each in its own form."""

    def __init__(self, first: "Frontier", second: "Frontier"):
        self.first = first
        self.second = second

    @property
    def parts(self) -> tuple[np.ndarray, ...]:
        return self.first.parts + self.second.parts

    def with_parts(self, *parts: np.ndarray) -> "Paired":
        split = len(self.first.parts)
        return Paired(self.first.with_parts(*parts[:split]), self.second.with_parts(*parts[split:]))

    def step(self, table: Gathers | None, entries: np.ndarray, stack, party: str) -> "Paired":
        return Paired(self.first.step(table, entries, stack, party), self.second.step(table, entries, stack, party))

    def norms(self) -> np.ndarray:
        return np.maximum(self.first.norms(), self.second.norms())


Frontier = Sparse | Pure | Product | Dense | Paired


def _sandwich_side(k: np.ndarray, side: np.ndarray) -> np.ndarray:
    return k @ side @ k.conj().swapaxes(-1, -2)


def _traces(mats: np.ndarray) -> np.ndarray:
    return np.trace(mats, axis1=1, axis2=2).real


def frontier_of(state: PureState | ProductState | DensityMatrix) -> Frontier:
    """The input as one row; its type picks the representation of its
    tree: a pure state whose amplitude matrix holds at most one nonzero
    per row is sparse.  The row is read-only."""

    def row(arr: np.ndarray) -> np.ndarray:
        return np.broadcast_to(arr, (1,) + arr.shape)

    if isinstance(state, PureState):
        psi = state.amplitudes.reshape(1, 1 << state.n_alice, 1 << state.n_bob)
        sparse = _sparse_of(psi)
        if sparse is not None:
            return sparse.with_parts(*(row(part[0]) for part in sparse.parts))
        return Pure(row(psi[0]))
    if isinstance(state, ProductState):
        return Product(row(state.alice.matrix), row(state.bob.matrix))
    return Dense(row(state.matrix), 1 << state.n_alice, 1 << state.n_bob)


def _qubit_marginal(mats: np.ndarray, n: int, qubit: int) -> np.ndarray:
    """(rows, 2, 2) marginals of ``qubit`` in n-qubit one-party matrices."""
    lo = 1 << (n - qubit - 1)
    t = mats.reshape(len(mats), 1 << qubit, 2, lo, 1 << qubit, 2, lo)
    return np.einsum("riajibj->rab", t)


def grouped(keys: list, evaluate) -> np.ndarray:
    """``evaluate(key, rows)`` on the rows of each distinct key, its results
    scattered back into row order.

    ``keys`` holds one hashable key per row.  ``rows`` selects the key's
    rows: an ascending index array, or ``slice(None)`` when every row has
    the same key, which spares a copy and a scatter.  ``evaluate``
    returns one result per row along its leading axis.  ``locc`` groups a
    level's rows by output pair with it, and the lemma sweeps in
    ``verify`` group instances by shape.
    """
    distinct = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    if len(distinct) == 1:
        return evaluate(keys[0], slice(None))
    ids = np.fromiter(map(distinct.__getitem__, keys), dtype=np.intp, count=len(keys))
    out = None
    for key, i in distinct.items():
        rows = np.flatnonzero(ids == i)
        values = evaluate(key, rows)
        if out is None:
            out = np.empty((len(keys),) + values.shape[1:], dtype=values.dtype)
        out[rows] = values
    return out


def child_row_bytes(nodes: Frontier, width: int, gathered: bool) -> int:
    """Bytes of one child of ``nodes`` under operator stacks with ``width``
    Kraus slots: a multi-Kraus stack turns pure and sparse nodes dense,
    and operators not applied by gathers (``gathered`` false) turn sparse
    nodes pure.  A paired child is both sides' children."""
    if isinstance(nodes, Paired):
        return child_row_bytes(nodes.first, width, gathered) + child_row_bytes(nodes.second, width, gathered)
    if isinstance(nodes, (Pure, Sparse)) and (width > 1 or not gathered):
        d = math.prod(nodes.dims)
        return 16 * d * (d if width > 1 else 1)
    return sum(part.itemsize * math.prod(part.shape[1:]) for part in nodes.parts)


def _row_keys(rows: Frontier) -> list[bytes]:
    """Each row's bytes, all of its parts in order: rows are equal exactly
    when their keys are."""
    words = [
        np.ascontiguousarray(part).reshape(len(part), math.prod(part.shape[1:])).view(np.uint8)
        for part in rows.parts
    ]
    flat = words[0] if len(words) == 1 else np.concatenate(words, axis=1)
    return flat.view(np.dtype((np.void, flat.shape[1]))).reshape(-1).tolist()


def _rows_of(keys, count: int, template: Frontier) -> Frontier:
    """``_row_keys`` read back: the ``count`` rows of ``keys``, in the
    form of ``template``, each part a view of one array."""
    layout = np.dtype([(f"f{i}", part.dtype, part.shape[1:]) for i, part in enumerate(template.parts)])
    records = np.fromiter(keys, np.dtype((np.void, layout.itemsize)), count).view(layout)
    return template.with_parts(*(records[name] for name in layout.names))


class ClassTable:
    """The distinct node states of one level, each held once, in order of
    first appearance: a unique table.

    ``add`` merges rows into the table by exact content and returns each
    row's class: a dict maps each class's bytes (``_row_keys``) to its
    class, so rows that differ only in the sign of a zero stay apart.
    The keys are the table's only copy of its classes; ``frontier``
    decodes them into arrays of the classes alone.
    """

    def __init__(self) -> None:
        self._classes: dict[bytes, int] = {}  # each class's bytes, to its class
        self._form: Frontier | None = None  # no rows, in the form of the rows added

    def __len__(self) -> int:
        return len(self._classes)

    def frontier(self, size: int | None = None) -> Frontier:
        """The first ``size`` classes (all by default), in arrays of
        exactly their bytes."""
        size = len(self) if size is None else size
        return _rows_of(itertools.islice(self._classes, size), size, self._form)

    def add(self, rows: Frontier) -> np.ndarray:
        """Merge ``rows`` into the table; the class of each row.  Rows that
        match no class become new classes, in order of their first row."""
        if self._form is None:
            self._form = rows.with_parts(*(part[:0].copy() for part in rows.parts))
        keys, known = _row_keys(rows), self._classes
        return np.fromiter((known.setdefault(key, len(known)) for key in keys), dtype=np.intp, count=len(keys))
