"""Dense complex linear algebra for bipartite qubit systems.

States live on ``n_alice + n_bob`` qubits.  The basis index of
``|x>^A |y>^B`` is ``x * 2**n_bob + y`` (Alice's block occupies the high
bits).  Within each block, qubit 0 is the most significant bit, so after
``reshape((2,) * total)`` axis ``j`` is Alice qubit ``j`` for
``j < n_alice`` and Bob qubit ``j - n_alice`` otherwise.  "First qubit
pair" always means (Alice 0, Bob 0).

Qubits are addressed as ``(party, index)`` tuples with party in
``{"alice", "bob"}``.

All values here are immutable; every operation is a pure function and is
safe to share across threads.

Fidelity follows the squared convention ``F = Tr^2 sqrt(sqrt(rho) sigma
sqrt(rho))`` (the square of the more common Uhlmann definition).  Only
the squared form is exposed.
"""

from __future__ import annotations

import math
import os
from dataclasses import InitVar, dataclass

import numpy as np

ALICE = "alice"
BOB = "bob"

Qubit = tuple[str, int]

DEFAULT_MAX_QUBITS = 14

#: structural invariants (norm, trace, hermiticity)
STRUCT_TOL = 1e-10
#: derived numerical equalities
DERIVED_TOL = 1e-9


class CapacityError(ValueError):
    """Raised when a state would exceed the configured qubit budget."""


class InvalidStateError(ValueError):
    """Raised when a matrix violates a state invariant beyond tolerance."""


def max_qubits() -> int:
    """Total-qubit cap for dense storage; EDPLAB_MAX_QUBITS overrides."""
    raw = os.environ.get("EDPLAB_MAX_QUBITS")
    if raw is None:
        return DEFAULT_MAX_QUBITS
    value = int(raw)
    if value < 1:
        raise ValueError(f"EDPLAB_MAX_QUBITS must be positive, got {raw}")
    return value


def _check_capacity(total: int) -> None:
    cap = max_qubits()
    if total > cap:
        raise CapacityError(f"{total} qubits exceed the configured cap of {cap}")


def _check_parts(arr: np.ndarray, what: str) -> None:
    """Every entry of a unit vector or of a unit-trace PSD matrix has
    modulus at most 1.  Checked on the real and imaginary parts, before
    any sum, so that huge finite entries are rejected without overflow."""
    part = max(float(np.abs(arr.real).max()), float(np.abs(arr.imag).max()))
    if not part <= 1.0 + STRUCT_TOL:
        raise InvalidStateError(f"{what} has an entry part of size {part}, beyond 1")


def qubit_axis(qubit: Qubit, n_alice: int, n_bob: int) -> int:
    """Tensor axis of a ``(party, index)`` qubit in the global layout."""
    party, idx = qubit
    if party == ALICE:
        if not 0 <= idx < n_alice:
            raise ValueError(f"alice qubit {idx} out of range for n_alice={n_alice}")
        return idx
    if party == BOB:
        if not 0 <= idx < n_bob:
            raise ValueError(f"bob qubit {idx} out of range for n_bob={n_bob}")
        return n_alice + idx
    raise ValueError(f"unknown party {party!r}")


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over Alice+Bob qubits."""

    n_alice: int
    n_bob: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n_alice < 0 or self.n_bob < 0:
            raise ValueError("qubit counts must be non-negative")
        _check_capacity(self.total_qubits)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.dim},)"
            )
        _check_parts(amps, "unit-norm state")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= STRUCT_TOL:
            raise InvalidStateError(f"state norm {norm} deviates from 1")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def total_qubits(self) -> int:
        return self.n_alice + self.n_bob

    @property
    def dim(self) -> int:
        return 1 << self.total_qubits

    def axis(self, qubit: Qubit) -> int:
        return qubit_axis(qubit, self.n_alice, self.n_bob)

    def to_density(self) -> "DensityMatrix":
        amps = self.amplitudes
        return DensityMatrix(
            self.n_alice, self.n_bob, np.outer(amps, amps.conj()), validate=False
        )


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD unit-trace matrix over Alice+Bob qubits.

    ``validate=False`` skips the invariant checks; it is meant for
    internal call sites that produce states PSD by construction.
    """

    n_alice: int
    n_bob: int
    matrix: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        if self.n_alice < 0 or self.n_bob < 0:
            raise ValueError("qubit counts must be non-negative")
        _check_capacity(self.total_qubits)
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(
                f"matrix has shape {mat.shape}, expected ({self.dim}, {self.dim})"
            )
        if validate:
            if not np.isfinite(mat).all():
                raise InvalidStateError("matrix has non-finite entries")
            _check_parts(mat, "unit-trace PSD matrix")
            if np.abs(mat - mat.conj().T).max() > STRUCT_TOL:
                raise InvalidStateError("matrix is not Hermitian within 1e-10")
            trace = complex(np.trace(mat))
            if abs(trace - 1.0) > STRUCT_TOL:
                raise InvalidStateError(f"trace {trace} deviates from 1")
            lo = float(np.linalg.eigvalsh(mat)[0])
            if lo < -STRUCT_TOL:
                raise InvalidStateError(f"negative eigenvalue {lo}")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def total_qubits(self) -> int:
        return self.n_alice + self.n_bob

    @property
    def dim(self) -> int:
        return 1 << self.total_qubits

    def axis(self, qubit: Qubit) -> int:
        return qubit_axis(qubit, self.n_alice, self.n_bob)

    @staticmethod
    def maximally_mixed(n_alice: int, n_bob: int) -> "DensityMatrix":
        dim = 1 << (n_alice + n_bob)
        return DensityMatrix(n_alice, n_bob, np.eye(dim) / dim, validate=False)


@dataclass(frozen=True)
class ProductState:
    """Product state ``alice (x) bob`` kept as its two local factors.

    ``alice`` lives on Alice's register alone (``n_bob == 0``) and
    ``bob`` on Bob's (``n_alice == 0``); both are validated density
    matrices.  The dense ``4^n``-entry matrix is formed only by
    ``to_density``.
    """

    alice: DensityMatrix
    bob: DensityMatrix

    def __post_init__(self) -> None:
        if self.alice.n_bob != 0 or self.bob.n_alice != 0:
            raise ValueError("product factors must each live on one party's register")

    @property
    def n_alice(self) -> int:
        return self.alice.n_alice

    @property
    def n_bob(self) -> int:
        return self.bob.n_bob

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(
            self.n_alice,
            self.n_bob,
            np.kron(self.alice.matrix, self.bob.matrix),
            validate=False,
        )

    @staticmethod
    def maximally_mixed(n_alice: int, n_bob: int) -> "ProductState":
        return ProductState(
            DensityMatrix.maximally_mixed(n_alice, 0),
            DensityMatrix.maximally_mixed(0, n_bob),
        )


State = PureState | DensityMatrix


def as_density(state: State | ProductState) -> DensityMatrix:
    return state if isinstance(state, DensityMatrix) else state.to_density()


@dataclass(frozen=True)
class UnitaryOp:
    """Unitary matrix with the qubits it targets."""

    matrix: np.ndarray
    targets: tuple[Qubit, ...]

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128)
        dim = 1 << len(self.targets)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match {len(self.targets)} targets")
        if np.abs(mat @ mat.conj().T - np.eye(dim)).max() > 1e-9:
            raise ValueError("matrix is not unitary within 1e-9")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "targets", tuple(self.targets))

    def apply(self, state: "State") -> "State":
        return apply_unitary(state, self.matrix, list(self.targets))


# ---------------------------------------------------------------------------
# Pauli operators and Bell states

# Sign convention: Y maps a|0> + b|1> to i b|0> - i a|1>, i.e. the negative
# of the textbook Y.  Everything consumed downstream (|<phi|U|psi>|^2 and
# U (x) U*) is invariant under the sign, which _startup_selftest verifies
# against the textbook matrix.
PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, 1j], [-1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

_TEXTBOOK_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)

_SQRT2 = math.sqrt(2.0)

_BELL_VECTORS = {
    "phi+": np.array([1, 0, 0, 1], dtype=np.complex128) / _SQRT2,
    "phi-": np.array([1, 0, 0, -1], dtype=np.complex128) / _SQRT2,
    "psi+": np.array([0, 1, 1, 0], dtype=np.complex128) / _SQRT2,
    "psi-": np.array([0, 1, -1, 0], dtype=np.complex128) / _SQRT2,
}

# (U, bell) -> sign under U (x) U*; every Bell state is an eigenvector.
_BELL_TABLE = {
    ("I", "phi+"): 1, ("I", "phi-"): 1, ("I", "psi+"): 1, ("I", "psi-"): 1,
    ("X", "phi+"): 1, ("X", "phi-"): -1, ("X", "psi+"): 1, ("X", "psi-"): -1,
    ("Y", "phi+"): 1, ("Y", "phi-"): -1, ("Y", "psi+"): -1, ("Y", "psi-"): 1,
    ("Z", "phi+"): 1, ("Z", "phi-"): 1, ("Z", "psi+"): -1, ("Z", "psi-"): -1,
}


def bell_state(name: str) -> PureState:
    """One of the four Bell states as a 1+1 qubit PureState."""
    key = name.lower()
    if key not in _BELL_VECTORS:
        raise ValueError(f"unknown Bell state {name!r}")
    return PureState(1, 1, _BELL_VECTORS[key])


def epr_state(n: int) -> PureState:
    """n perfect EPR pairs: the n-fold pair tensor of phi+."""
    if n < 1:
        raise ValueError("need at least one pair")
    _check_capacity(2 * n)
    amps = np.zeros(1 << (2 * n), dtype=np.complex128)
    scale = 2.0 ** (-n / 2.0)
    for x in range(1 << n):
        amps[(x << n) | x] = scale
    return PureState(n, n, amps)


def bell_action(u_label: str, bell: str) -> tuple[int, str]:
    """Sign and image of a Bell state under U (x) U* on its pair."""
    key = (u_label.upper(), bell.lower())
    if key not in _BELL_TABLE:
        raise ValueError(f"unknown operator/state pair {key}")
    return _BELL_TABLE[key], key[1]


def _startup_selftest() -> None:
    """Verify the Bell table and the Y sign convention at import time."""
    for (u_label, bell), sign in _BELL_TABLE.items():
        u = PAULI[u_label]
        vec = _BELL_VECTORS[bell]
        got = np.kron(u, u.conj()) @ vec
        if np.abs(got - sign * vec).max() > 1e-12:
            raise AssertionError(f"Bell table entry {(u_label, bell)} failed")
    # Y (x) Y* agrees between our convention and the textbook one, and
    # |<0|Y|1>| is convention independent.
    if np.abs(np.kron(PAULI["Y"], PAULI["Y"].conj())
              - np.kron(_TEXTBOOK_Y, _TEXTBOOK_Y.conj())).max() > 1e-12:
        raise AssertionError("Y (x) Y* differs between sign conventions")
    if abs(abs(PAULI["Y"][0, 1]) - abs(_TEXTBOOK_Y[0, 1])) > 1e-12:
        raise AssertionError("|Y| entries differ between sign conventions")


# ---------------------------------------------------------------------------
# Register composition and reduction


def _pair_block_permutation(na1: int, nb1: int, na2: int, nb2: int) -> list[int]:
    # kron order is A1 B1 A2 B2; target order is A1 A2 B1 B2.
    a1 = list(range(na1))
    b1 = list(range(na1, na1 + nb1))
    a2 = list(range(na1 + nb1, na1 + nb1 + na2))
    b2 = list(range(na1 + nb1 + na2, na1 + nb1 + na2 + nb2))
    return a1 + a2 + b1 + b2


def tensor(a: State, b: State) -> State:
    """Combine two bipartite states, concatenating per-party registers.

    Alice's register of the result is (Alice of ``a``, Alice of ``b``)
    and likewise for Bob, so tensoring pair states builds the usual
    block layout where pair j is (Alice j, Bob j).
    """
    if isinstance(a, PureState) != isinstance(b, PureState):
        raise TypeError("tensor operands must be the same kind")
    na, nb = a.n_alice + b.n_alice, a.n_bob + b.n_bob
    total = na + nb
    _check_capacity(total)
    perm = _pair_block_permutation(a.n_alice, a.n_bob, b.n_alice, b.n_bob)
    if isinstance(a, PureState):
        raw = np.kron(a.amplitudes, b.amplitudes)
        arr = raw.reshape((2,) * total).transpose(perm).reshape(-1)
        return PureState(na, nb, arr)
    raw = np.kron(a.matrix, b.matrix)
    arr = raw.reshape((2,) * (2 * total))
    arr = arr.transpose(perm + [total + p for p in perm])
    return DensityMatrix(na, nb, arr.reshape(1 << total, 1 << total), validate=False)


def tensor_all(states: list[State]) -> State:
    out = states[0]
    for st in states[1:]:
        out = tensor(out, st)
    return out


def partial_trace(state: State, keep: set[Qubit] | list[Qubit]) -> DensityMatrix:
    """Reduced density matrix on ``keep``; kept qubits stay in party order."""
    rho = as_density(state)
    keep = set(keep)
    if not keep:
        raise ValueError("empty keep set would leave a scalar trace")
    axes_keep = sorted(rho.axis(q) for q in keep)
    if len(axes_keep) != len(keep):
        raise ValueError("duplicate qubits in keep set")
    total = rho.total_qubits
    na_keep = sum(1 for q in keep if q[0] == ALICE)
    nb_keep = len(keep) - na_keep
    arr = rho.matrix.reshape((2,) * (2 * total))
    out = arr
    removed = 0
    for ax in range(total):
        if ax in axes_keep:
            continue
        cur = ax - removed
        ncur = total - removed
        out = np.trace(out, axis1=cur, axis2=ncur + cur)
        removed += 1
    dim = 1 << len(axes_keep)
    return DensityMatrix(na_keep, nb_keep, out.reshape(dim, dim), validate=False)


def apply_unitary(state: State, matrix: np.ndarray, qubits: list[Qubit]) -> State:
    """Apply a k-qubit unitary to the given qubits of a state."""
    mat = np.asarray(matrix, dtype=np.complex128)
    k = len(qubits)
    if mat.shape != (1 << k, 1 << k):
        raise ValueError("matrix dimension does not match qubit count")
    axes = [state.axis(q) for q in qubits]
    total = state.total_qubits
    mt = mat.reshape((2,) * (2 * k))
    if isinstance(state, PureState):
        arr = state.amplitudes.reshape((2,) * total)
        arr = np.tensordot(mt, arr, axes=(list(range(k, 2 * k)), axes))
        arr = np.moveaxis(arr, list(range(k)), axes)
        return PureState(state.n_alice, state.n_bob, arr.reshape(-1))
    arr = state.matrix.reshape((2,) * (2 * total))
    arr = np.tensordot(mt, arr, axes=(list(range(k, 2 * k)), axes))
    arr = np.moveaxis(arr, list(range(k)), axes)
    col_axes = [total + ax for ax in axes]
    arr = np.tensordot(mt.conj(), arr, axes=(list(range(k, 2 * k)), col_axes))
    arr = np.moveaxis(arr, list(range(k)), col_axes)
    dim = state.dim
    return DensityMatrix(state.n_alice, state.n_bob, arr.reshape(dim, dim), validate=False)


# ---------------------------------------------------------------------------
# Fidelities


def _clean_psd_spectrum(vals: np.ndarray, floor: float) -> np.ndarray:
    """Clamp PSD spectra, ascending along the last axis, before taking
    square roots; leading axes index a stack of matrices.

    Entries below ``-floor`` raise (invalid state rather than roundoff).
    Entries below ``1e-13 * max`` of their spectrum are zeroed:
    eigensolver noise on true zero modes is ~1e-16 and would otherwise
    surface as 1e-8 after the square root.
    """
    low = vals[..., 0].min(initial=np.inf)
    if low < -floor:
        raise InvalidStateError(f"matrix has negative eigenvalue {low}")
    cutoff = np.maximum(vals[..., -1:], 0.0) * 1e-13
    return np.where(vals > cutoff, vals, 0.0)


def hermitian_sqrt(mat: np.ndarray, floor: float = STRUCT_TOL) -> np.ndarray:
    """PSD square root via eigendecomposition with spectrum cleaning;
    leading axes index a stack of matrices."""
    vals, vecs = np.linalg.eigh(np.asarray(mat, dtype=np.complex128))
    vals = _clean_psd_spectrum(vals, floor)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def fidelity(rho: State, sigma: State) -> float:
    """Squared-convention fidelity Tr^2 sqrt(sqrt(rho) sigma sqrt(rho)).

    For rank-1 pure ``sigma`` this equals ``<phi|rho|phi>``.  Evaluated
    as a stack of one (``fidelities``).
    """
    r = as_density(rho)
    s = as_density(sigma)
    if r.dim != s.dim:
        raise ValueError("fidelity requires equal dimensions")
    return float(fidelities(r.matrix[None], s.matrix[None])[0])


def fidelities(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``fidelity`` of density-matrix stacks of shape (..., d, d), one
    value per leading index; the matrices are not checked."""
    if rho.shape[-2:] != sigma.shape[-2:]:
        raise ValueError("fidelity requires equal dimensions")
    root = hermitian_sqrt(rho)
    inner = root @ sigma @ root
    vals = np.linalg.eigvalsh((inner + inner.conj().swapaxes(-1, -2)) / 2.0)
    vals = _clean_psd_spectrum(vals, STRUCT_TOL)
    total = np.sqrt(vals).sum(axis=-1)
    return total * total


def pure_overlap(rho: State, phi: PureState) -> float:
    """<phi|rho|phi>, the pure-target special case of the fidelity."""
    r = as_density(rho)
    if r.dim != phi.dim:
        raise ValueError("overlap requires equal dimensions")
    amps = phi.amplitudes
    return float(np.real(amps.conj() @ r.matrix @ amps))


def epr_fidelity(state: State) -> float:
    """Overlap with the perfect n-pair state; needs n_alice == n_bob."""
    if state.n_alice != state.n_bob:
        raise ValueError("epr_fidelity needs a symmetric qubit partition")
    n = state.n_alice
    if isinstance(state, PureState):
        psi = epr_state(n)
        val = np.vdot(psi.amplitudes, state.amplitudes)
        return float(abs(val) ** 2)
    return pure_overlap(state, epr_state(n))


def base_fidelity(state: State | ProductState) -> float:
    """Fidelity of the first qubit pair (Alice 0, Bob 0) with phi+."""
    if state.n_alice < 1 or state.n_bob < 1:
        raise ValueError("base_fidelity needs at least one qubit per party")
    if isinstance(state, PureState):
        pair = pair_states(state.amplitudes.reshape(1 << state.n_alice, 1 << state.n_bob))
    elif state.n_alice == 1 and state.n_bob == 1:
        pair = as_density(state).matrix
    else:
        pair = partial_trace(state, {(ALICE, 0), (BOB, 0)}).matrix
    return float(phi_plus_overlaps(pair))


# Stacked forms: leading axes index independent states, so a sweep
# evaluates a block of instances per call and the scalar functions above
# and below evaluate a stack of one.


def pair_states(psi: np.ndarray, pair: int = 0) -> np.ndarray:
    """(..., 4, 4) reduced states of qubit pair ``pair`` (Alice ``pair``,
    Bob ``pair``) of unnormalized pure states given as amplitude matrices
    (..., dA, dB), rows indexing Alice's register."""
    *lead, da, db = psi.shape
    t = psi.reshape((*lead, 1 << pair, 2, da >> (pair + 1), 1 << pair, 2, db >> (pair + 1)))
    t = np.moveaxis(t, (-5, -2), (-6, -5)).reshape((*lead, 4, (da * db) >> 2))
    return t @ t.conj().swapaxes(-1, -2)


def phi_plus_overlaps(pair: np.ndarray) -> np.ndarray:
    """<phi+|rho|phi+> of two-qubit matrices (..., 4, 4)."""
    return (pair[..., 0, 0] + pair[..., 0, 3] + pair[..., 3, 0] + pair[..., 3, 3]).real / 2.0


_PAULI_STACK = np.stack([PAULI[label] for label in ("I", "X", "Y", "Z")])
# U (x) U* on one pair, for U in X, Y, Z
_BELL_PAIR_OPS = np.stack([np.kron(PAULI[label], PAULI[label].conj()) for label in ("X", "Y", "Z")])


def pauli_deviation_sum(phi: PureState, psi: PureState) -> float:
    """Sum of |<phi|U|psi>|^2 over U in {I, X, Y, Z} acting on qubit 0.

    Bounded above by 2 for any pair of equal-dimension pure states.
    """
    if phi.dim != psi.dim:
        raise ValueError("states must have equal dimensions")
    return float(pauli_deviation_sums(phi.amplitudes[None], psi.amplitudes[None])[0])


def pauli_deviation_sums(phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``pauli_deviation_sum`` of amplitude stacks (..., dim).

    Qubit 0 is the leading tensor axis, Alice's first qubit or, with no
    Alice qubits, Bob's.  With M[a, b] = sum_r conj(phi[a, r]) psi[b, r],
    <phi|U_0|psi> = sum_ab U[a, b] M[a, b].
    """
    a = phi.reshape(phi.shape[:-1] + (2, phi.shape[-1] // 2))
    b = psi.reshape(psi.shape[:-1] + (2, psi.shape[-1] // 2))
    overlaps = np.einsum("uab,...ab->...u", _PAULI_STACK, a.conj() @ b.swapaxes(-1, -2))
    return (np.abs(overlaps) ** 2).sum(axis=-1)


def bell_identity_check(phi: PureState) -> tuple[float, float]:
    """Evaluate both sides of the four-operator base-fidelity identity.

    lhs = <phi|phi> + sum over U in {X, Y, Z} of <phi|(U (x) U*)|phi>
    with U on Alice qubit 0 and U* on Bob qubit 0; rhs = 4 * base
    fidelity.  The three operator terms are expectations of Hermitian
    operators, so the lhs is real.
    """
    if phi.n_alice < 1 or phi.n_bob < 1:
        raise ValueError("need at least one pair")
    pair = pair_states(phi.amplitudes.reshape(1 << phi.n_alice, 1 << phi.n_bob))
    lhs, rhs = bell_identity_sides(pair)
    return float(lhs), float(rhs)


def bell_identity_sides(pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``bell_identity_check`` of normalized pure states given by their
    first-pair states (..., 4, 4); <phi|phi> is taken as 1."""
    terms = np.einsum("uab,...ba->...u", _BELL_PAIR_OPS, pair).real
    return 1.0 + terms.sum(axis=-1), 4.0 * phi_plus_overlaps(pair)


_startup_selftest()
