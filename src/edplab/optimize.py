"""Multi-start alternating polar ascent over pairs of local unitaries.

Probes how much a communication-free protocol can achieve: both parties
apply one unitary to their register (protocol qubits plus ancillas in
|0>) and output the first pair.  The objective is the ensemble-averaged
fidelity of that pair, f = sum_i w_i ||L(U_A T_i U_B^T)||^2.  With U_B
fixed it is a sum of squared norms of linear images of U_A, so it is
convex in U_A and lies above its linearisation: f(V) >= f(U_A) +
Re tr(E_A^H (V - U_A)), with E_A the Euclidean gradient.  The unitary V
that maximises Re tr(E_A^H V) is the polar factor W Z^H of the SVD
E_A = W S Z^H (the orthogonal Procrustes solution: Schonemann,
Psychometrika 31, 1966), so replacing U_A with it never lowers f.  The
same holds for U_B.  One polar step updates U_A, then U_B; alternating
them is the generalised power method (Journee, Nesterov, Richtarik &
Sepulchre, JMLR 11, 2010), which needs no step size and no line search.
A restart stops, converged, once the Riemannian gradient norm
sqrt(||Omega_A||^2 + ||Omega_B||^2) reaches GRAD_TOL, or after its step
budget.  Restart 0 always starts from the identity so the reported
maximum never falls below the trivial protocol's value.

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

GRAD_TOL = 1e-6  # converged once sqrt(||Omega_A||^2 + ||Omega_B||^2) <= GRAD_TOL


@dataclass(frozen=True)
class AscentConfig:
    restarts: int = 32
    steps: int = 2000  # polar steps (U_A, then U_B) per restart
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.steps < 1:
            raise ValueError(f"need restarts, steps >= 1, got {self.restarts}, {self.steps}")


@dataclass(frozen=True)
class AscentResult:
    best_value: float
    start_value: float
    restart_values: tuple[float, ...]
    restart_converged: tuple[bool, ...]  # gradient test met, else the step budget ran out
    restart_iterations: tuple[int, ...]  # polar steps taken
    restart_grad_norms: tuple[float, ...]  # final sqrt(||Omega_A||^2 + ||Omega_B||^2)

    @property
    def converged(self) -> bool:
        return all(self.restart_converged)


def unitary_exp(h: np.ndarray) -> np.ndarray:
    """exp(H) for anti-Hermitian H via the eigendecomposition of iH."""
    vals, vecs = np.linalg.eigh(1j * h)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def _polar(e: np.ndarray) -> np.ndarray:
    """The unitary W Z^H maximising Re tr(E^H V), from E = W S Z^H."""
    w, _, zh = np.linalg.svd(e)
    return w @ zh


def _omega(e: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Anti-Hermitian Riemannian gradient E U^H - U E^H at U."""
    w = e @ u.conj().T
    return w - w.conj().T


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

    def value_and_euclidean_gradient(
        self, u_alice: np.ndarray, u_bob: np.ndarray, alice: bool = True
    ) -> tuple[float, np.ndarray | None, np.ndarray]:
        """Value and the Euclidean gradients: d/dt f(U_A + tX, U_B) = Re tr(E_A^H X).

        With M_i = U_A T_i U_B^T and G_i = L*(L(M_i)) = I_2 (x) L(M_i) / sqrt 2,
        E_A = 2 sum_i w_i G_i conj(U_B) T_i^H, E_B = 2 sum_i w_i G_i^T conj(U_A T_i).
        G_i is block diagonal, so both contract block by block with the
        half-size blocks g_i = sqrt 2 w_i L(M_i).  With ``alice=False``,
        E_A is not computed and comes back as None.
        """
        value, left, overlap = self._fidelity(u_alice, u_bob)
        g = overlap * (np.sqrt(2.0) * self.weights)[:, None, None]  # (m, half, half)
        m, d = len(self.weights), self.d_side
        # E_B[(c1, c2), b] = sum_{i, a2} g_i[a2, c2] conj(left_i[(c1, a2), b])
        e_bob = np.tensordot(g, left.reshape(m, 2, d // 2, d).conj(), axes=([0, 1], [0, 2]))
        e_bob = e_bob.swapaxes(0, 1).reshape(d, d)
        if not alice:
            return value, None, e_bob
        # E_A[(a1, a2), b] = sum_{i, c2} g_i[a2, c2] conj(right_i[b, (a1, c2)])
        right = np.matmul(self.stack, u_bob.T).reshape(m, d, 2, d // 2)  # T_i U_B^T
        e_alice = np.tensordot(g, right.conj(), axes=([0, 2], [0, 3]))
        e_alice = e_alice.transpose(2, 0, 1).reshape(d, d)
        return value, e_alice, e_bob


def maximize_pair_fidelity(objective: PairFidelityObjective, config: AscentConfig) -> AscentResult:
    """Best objective value over the unitary pair, multi-start polar ascent."""
    dim = objective.d_side
    eye = np.eye(dim, dtype=np.complex128)
    start_value = objective.value(eye, eye)
    restart_values = []
    restart_converged = []
    restart_iterations = []
    restart_grad_norms = []
    for restart in range(config.restarts):
        rng = substream(config.seed, "unitary-ascent", restart)
        if restart == 0:
            ua, ub = eye, eye
        else:
            ua, ub = random_unitary(rng, dim), random_unitary(rng, dim)
        best = -np.inf
        for step in range(config.steps + 1):
            value, ea, eb = objective.value_and_euclidean_gradient(ua, ub)
            best = max(best, value)
            ga, gb = _omega(ea, ua), _omega(eb, ub)
            grad_norm = float(np.sqrt(np.vdot(ga, ga).real + np.vdot(gb, gb).real))
            converged = grad_norm <= GRAD_TOL
            if converged or step == config.steps:
                break
            # each half-step is a polar step in one party: it never lowers the value
            ua = _polar(ea)
            value, _, eb = objective.value_and_euclidean_gradient(ua, ub, alice=False)
            best = max(best, value)
            ub = _polar(eb)
        restart_values.append(best)
        restart_converged.append(converged)
        restart_iterations.append(step)
        restart_grad_norms.append(grad_norm)
    return AscentResult(
        best_value=max(restart_values),
        start_value=start_value,
        restart_values=tuple(restart_values),
        restart_converged=tuple(restart_converged),
        restart_iterations=tuple(restart_iterations),
        restart_grad_norms=tuple(restart_grad_norms),
    )
