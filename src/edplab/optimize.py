"""Multi-start Riemannian gradient ascent over pairs of local unitaries.

Probes how much a communication-free protocol can achieve: both parties
apply one unitary to their register (protocol qubits plus ancillas in
|0>) and output the first pair.  The objective is the ensemble-averaged
fidelity of that pair, maximized by steepest ascent on U(d) with the
exponential retraction (Abrudan, Eriksson & Koivunen, IEEE TSP 56(3),
2008).  A restart stops, converged, once the gradient norm reaches
GRAD_TOL, or after its step budget.  Restart 0 always starts from the
identity so the reported maximum never falls below the trivial
protocol's value.

The search certifies nothing: it reports the best value found over the
declared class (ancilla count, restarts, steps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errmodels import WeightedStates
from .qcore import PureState
from .rng import substream
from .sampling import random_unitary

# Retraction step; 0.5 oscillates at the scale of this gradient (it
# carries the factor 2 of the quadratic objective).
STEP = 0.25
GRAD_TOL = 1e-6  # converged once ||Omega_A||^2 + ||Omega_B||^2 <= GRAD_TOL^2


@dataclass(frozen=True)
class AscentConfig:
    restarts: int = 32
    steps: int = 2000  # gradient steps per restart
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.steps < 1:
            raise ValueError(f"need restarts, steps >= 1, got {self.restarts}, {self.steps}")


@dataclass(frozen=True)
class AscentResult:
    best_value: float
    start_value: float
    restart_values: tuple[float, ...]
    restart_converged: tuple[bool, ...]

    @property
    def converged(self) -> bool:
        return all(self.restart_converged)


def unitary_exp(h: np.ndarray) -> np.ndarray:
    """exp(H) for anti-Hermitian H via the eigendecomposition of iH."""
    vals, vecs = np.linalg.eigh(1j * h)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


class PairFidelityObjective:
    """Average first-pair fidelity of an ensemble under U_A (x) U_B.

    Ensemble members are pure states on n pairs; ``ancillas`` fresh |0>
    qubits are appended at the low end of each party's register.
    """

    def __init__(self, ensemble: WeightedStates, n: int, ancillas: int):
        if ancillas < 0:
            raise ValueError("ancilla count must be non-negative")
        self.n = n
        self.ancillas = ancillas
        self.d_side = 1 << (n + ancillas)
        members = list(ensemble)
        for _, st in members:
            if not isinstance(st, PureState):
                raise TypeError("objective needs a pure-state ensemble")
            if st.n_alice != n or st.n_bob != n:
                raise ValueError("ensemble member has the wrong pair count")
        self.weights = np.asarray([w for w, _ in members])
        # ancillas occupy the low bits: index = protocol << ancillas
        rows = np.arange(1 << n) << ancillas
        self.stack = np.zeros((len(members), self.d_side, self.d_side), dtype=np.complex128)
        blocks = [st.amplitudes.reshape(1 << n, 1 << n) for _, st in members]
        self.stack[:, rows[:, None], rows] = blocks  # (m, d_side, d_side)

    def _fidelity(self, u_alice: np.ndarray, u_bob: np.ndarray):
        """Value, the blocks U_A T_i and their first-pair overlaps L(M_i)."""
        # (U_A (x) U_B)|psi> in block form: M_i = U_A T_i U_B^T
        left = np.matmul(u_alice, self.stack)
        half = self.d_side >> 1
        t = np.matmul(left, u_bob.T).reshape(len(self.weights), 2, half, 2, half)
        overlap = (t[:, 0, :, 0, :] + t[:, 1, :, 1, :]) / np.sqrt(2.0)
        value = float(np.dot(self.weights, np.sum(np.abs(overlap) ** 2, axis=(1, 2))))
        return value, left, overlap

    def value(self, u_alice: np.ndarray, u_bob: np.ndarray) -> float:
        return self._fidelity(u_alice, u_bob)[0]

    def value_and_gradient(
        self, u_alice: np.ndarray, u_bob: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Value and the anti-Hermitian Riemannian gradients E U^H - U E^H.

        With M_i = U_A T_i U_B^T and G_i = L*(L(M_i)) = I_2 (x) L(M_i) / sqrt 2,
        E_A = 2 sum_i w_i G_i conj(U_B) T_i^H, E_B = 2 sum_i w_i G_i^T conj(U_A T_i).
        """
        value, left, overlap = self._fidelity(u_alice, u_bob)
        g = np.kron(np.eye(2), overlap * (np.sqrt(2.0) * self.weights)[:, None, None])
        right = np.matmul(self.stack, u_bob.T)  # T_i U_B^T
        e_alice = np.tensordot(g, right.conj(), axes=([0, 2], [0, 2]))
        e_bob = np.tensordot(g, left.conj(), axes=([0, 1], [0, 1]))
        omega = [e @ u.conj().T for e, u in ((e_alice, u_alice), (e_bob, u_bob))]
        return value, omega[0] - omega[0].conj().T, omega[1] - omega[1].conj().T


def maximize_pair_fidelity(objective: PairFidelityObjective, config: AscentConfig) -> AscentResult:
    """Best objective value over the unitary pair, multi-start ascent."""
    dim = objective.d_side
    eye = np.eye(dim, dtype=np.complex128)
    start_value = objective.value(eye, eye)
    restart_values = []
    restart_converged = []
    for restart in range(config.restarts):
        rng = substream(config.seed, "unitary-ascent", restart)
        if restart == 0:
            ua, ub = eye, eye
        else:
            ua, ub = random_unitary(rng, dim), random_unitary(rng, dim)
        best = -np.inf
        for step in range(config.steps + 1):
            value, ga, gb = objective.value_and_gradient(ua, ub)
            best = max(best, value)
            done = np.vdot(ga, ga).real + np.vdot(gb, gb).real <= GRAD_TOL**2
            if done or step == config.steps:
                break
            ua, ub = unitary_exp(STEP * ga) @ ua, unitary_exp(STEP * gb) @ ub
        restart_values.append(best)
        restart_converged.append(bool(done))
    return AscentResult(
        best_value=max(restart_values),
        start_value=start_value,
        restart_values=tuple(restart_values),
        restart_converged=tuple(restart_converged),
    )
