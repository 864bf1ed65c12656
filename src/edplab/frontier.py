"""Batched node states for the transcript-tree runner.

A frontier holds the nodes of one level of the transcript trees of a
block of seeds as arrays with a leading row axis, in one of three
representations picked by the input's type: ``Pure`` amplitude
matrices, ``Product`` local factors or ``Dense`` flat matrices (see
``locc``).  ``apply`` takes per row a stack of operators of shape
(rows, branches, kraus, d, d), all on one party's register, and returns
the children row by row, branch by branch: the child of row i and
branch b is row i * branches + b.  A branch with fewer Kraus operators
is padded with zero operators.
"""

from __future__ import annotations

import numpy as np

from .qcore import ALICE, DensityMatrix, ProductState, PureState, pair_states


class Pure:
    """Unnormalized pure states as (rows, dA, dB) amplitude matrices."""

    kind = "pure"

    def __init__(self, psi: np.ndarray):
        self.psi = psi

    def __len__(self) -> int:
        return self.psi.shape[0]

    @property
    def nbytes(self) -> int:
        return self.psi.nbytes

    def take(self, rows) -> "Pure":
        return Pure(self.psi[rows])

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


class Product:
    """Unnormalized product states ``alice (x) bob`` as their local factors.

    Every runner operation acts on one side, so the form is kept
    throughout and a node costs what a pure node costs.
    """

    kind = "product"

    def __init__(self, alice: np.ndarray, bob: np.ndarray):
        self.alice = alice
        self.bob = bob

    def __len__(self) -> int:
        return self.alice.shape[0]

    @property
    def nbytes(self) -> int:
        return self.alice.nbytes + self.bob.nbytes

    def take(self, rows) -> "Product":
        return Product(self.alice[rows], self.bob[rows])

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


class Dense:
    """Unnormalized mixed states as flat (rows, dA*dB, dA*dB) matrices."""

    kind = "dense"

    def __init__(self, rho: np.ndarray, dA: int, dB: int):
        self.rho = rho
        self.dA = dA
        self.dB = dB

    def __len__(self) -> int:
        return self.rho.shape[0]

    @property
    def nbytes(self) -> int:
        return self.rho.nbytes

    def take(self, rows) -> "Dense":
        return Dense(self.rho[rows], self.dA, self.dB)

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


Frontier = Pure | Product | Dense


def _sandwich_side(k: np.ndarray, side: np.ndarray) -> np.ndarray:
    return k @ side @ k.conj().swapaxes(-1, -2)


def _traces(mats: np.ndarray) -> np.ndarray:
    return np.trace(mats, axis1=1, axis2=2).real


def frontier_of(state: PureState | ProductState | DensityMatrix, rows: int) -> Frontier:
    """``rows`` copies of the input; its type picks the representation of
    its whole tree.  The copies are read-only views of one array."""

    def rows_of(arr: np.ndarray) -> np.ndarray:
        return np.broadcast_to(arr, (rows,) + arr.shape)

    if isinstance(state, PureState):
        return Pure(rows_of(state.amplitudes.reshape(1 << state.n_alice, 1 << state.n_bob)))
    if isinstance(state, ProductState):
        return Product(rows_of(state.alice.matrix), rows_of(state.bob.matrix))
    return Dense(rows_of(state.matrix), 1 << state.n_alice, 1 << state.n_bob)


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
    returns one result per row along its leading axis.  ``reduce_pairs``
    groups a level's rows by output pair with it, and the lemma sweeps
    in ``verify`` group instances by shape.
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


def reduce_pairs(frontier: Frontier, n: int, pairs: np.ndarray) -> np.ndarray:
    """(rows, 4, 4) reduced matrices of each row's output pair."""
    return grouped(pairs.tolist(), lambda pair, rows: frontier.take(rows).reduce_pair(n, pair))
