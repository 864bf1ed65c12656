"""Multi-start alternating polar ascent over pairs of local unitaries.

Probes how much a communication-free protocol can achieve: both parties
apply one unitary to their register (protocol qubits plus ancillas in
|0>) and output the first pair.  As the ancillas start in |0>, the
objective sees a unitary U only through the k = 2^n columns ``rows``
whose ancilla bits are 0, the isometry V = U[:, rows]: with B_i the
amplitude matrix of member i, f = sum_i w_i ||L(V_A B_i V_B^T)||^2.
With V_B fixed it is a sum of squared norms of linear images of V_A, so
convex in V_A: f(V) >= f(V_A) + Re tr(E_A^H (V - V_A)), with E_A the
Euclidean gradient.  The isometry maximising Re tr(E_A^H V) is the thin
polar factor W Z^H of the SVD E_A = W S Z^H (orthogonal Procrustes:
Schonemann, Psychometrika 31, 1966), so replacing V_A with it never
lowers f; where E_A has full column rank it is the full unitary polar
step restricted to ``rows``.  Likewise for V_B.  Alternating the two is
the generalised power method on the Stiefel manifold of orthonormal
k-frames (Journee, Nesterov, Richtarik & Sepulchre, JMLR 11, 2010;
Edelman, Arias & Smith, SIAM J. Matrix Anal. Appl. 20, 1998): no step
size, no line search.

The alternating map converges linearly, and slowly near the degenerate
maximisers of these ensembles, so from step MIX_FROM on each step is
Anderson-accelerated (Walker & Ni, SIAM J. Numer. Anal. 49, 2011): the
plain steps of the restart's last DEPTH + 1 iterates are mixed with the
weights that minimise the mixed residual in least squares, and the
mixed point is retracted to an isometry pair by the polar factor.  A
safeguard keeps the ascent monotone: the mixed candidate is taken only
where its value is at least the plain step's half-step value f(V_A',
V_B); elsewhere the plain step is taken and the restart's history starts
again from it.  A restart stops, converged, once the Riemannian gradient
norm sqrt(||Omega_A||^2 + ||Omega_B||^2) reaches GRAD_TOL, or after its
step budget; restart 0 starts from the identity, so the maximum never
falls below the trivial protocol's value.  Restarts step in lockstep as
stacks of isometries, each with its own history, in blocks whose
largest intermediates and histories fit ASCENT_BUDGET_BYTES.

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
DEPTH = 4  # Anderson mixing combines the plain steps of a restart's last DEPTH + 1 iterates
MIX_FROM = 8  # plain steps before mixing starts: earlier mixing costs more than it saves on easy starts
MIX_REG = 1e-10  # Tikhonov weight of the mixing's least squares, relative to its Gram trace
ASCENT_BUDGET_BYTES = 1 << 20  # the largest intermediates and histories of one block of restarts


@dataclass(frozen=True)
class AscentConfig:
    restarts: int = 32
    steps: int = 2000  # polar steps (U_A, then U_B) per restart
    seed: int = 0

    def __post_init__(self) -> None:
        fields = (self.restarts, self.steps, self.seed)
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in fields):
            raise TypeError(f"restarts, steps and seed must be integers, got {fields}")
        if self.restarts < 1 or self.steps < 1:
            raise ValueError(f"need restarts, steps >= 1, got {self.restarts}, {self.steps}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned value, got {self.seed}")


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
    """The isometries W Z^H maximising Re tr(E^H V), from thin SVDs E = W S Z^H."""
    w, _, zh = np.linalg.svd(e, full_matrices=False)
    return w @ zh


def _square_sums(x: np.ndarray) -> np.ndarray:
    """sum |x|^2 over the last axis, which must be contiguous."""
    return np.square(x.view(np.float64)).sum(axis=-1)


def _omega(e: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Anti-Hermitian Riemannian gradients E V^H - V E^H at stacked isometries V."""
    w = e @ v.conj().swapaxes(-1, -2)
    return w - w.conj().swapaxes(-1, -2)


class PairFidelityObjective:
    """Average first-pair fidelity of an ensemble under U_A (x) U_B.

    Ensemble members are pure states on n pairs; ``ancillas`` fresh |0>
    qubits are appended at the low end of each party's register.  The
    methods take the isometries V = U[:, rows] as stacks (..., d_side, k)
    whose leading axes index independent pairs.
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
        k = 1 << n
        self.rows = np.arange(k) << ancillas  # ancillas occupy the low bits
        blocks = np.stack([st.amplitudes.reshape(k, k) for _, st in members]) / np.sqrt(2.0)
        # cat[p][l, (i, j)] = C_i[l, j] / sqrt 2, with C_i = B_i for p = 0 and B_i^T for p = 1
        self.cat = np.stack([blocks, blocks.swapaxes(1, 2)]).transpose(0, 2, 1, 3).reshape(2, k, -1)
        # one pair's largest intermediate: (m, d, k) products, (2, m d/2, d/2) overlaps or (d, d)
        # Omega; and its mixing history: DEPTH + 1 slots of two (2, d, k) stacks
        largest = max(len(members) * max(k, self.d_side >> 1), self.d_side)
        self.pair_bytes = 16 * self.d_side * (largest + 4 * (DEPTH + 1) * k)

    def _products(self, v: np.ndarray, p: int) -> np.ndarray:
        """[..., x, (a, i), j] = (V[x] C_i)[a, j] / sqrt 2 over the halves x of the rows of V."""
        *lead, d, k = v.shape
        return (v @ self.cat[p]).reshape(*lead, 2, (d >> 1) * len(self.weights), k)

    def _fidelity(self, v_alice: np.ndarray, v_bob: np.ndarray):
        """Values, the products V_A[x] B_i / sqrt 2 and the overlaps [..., a, i, c] = L(M_i)[a, c]."""
        *lead, d, k = v_bob.shape
        # L(M_i) = L(V_A B_i V_B^T) = sum_x V_A[x] B_i V_B[x]^T / sqrt 2
        left = self._products(v_alice, 0)
        overlap = (left @ v_bob.reshape(*lead, 2, d >> 1, k).swapaxes(-1, -2)).sum(axis=-3)
        overlap = overlap.reshape(*lead, d >> 1, len(self.weights), d >> 1)
        value = (_square_sums(overlap) * self.weights).sum(axis=(-2, -1))
        return value, left, overlap

    def value(self, v_alice: np.ndarray, v_bob: np.ndarray) -> float:
        """The objective at one isometry pair, evaluated as a stack of one."""
        return float(self._fidelity(v_alice[None], v_bob[None])[0][0])

    def value_and_euclidean_gradient(
        self, v_alice: np.ndarray, v_bob: np.ndarray, alice: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """Values and the Euclidean gradients: d/dt f(V_A + tX, V_B) = Re tr(E_A^H X).

        With g_i = 2 w_i L(V_A B_i V_B^T), their halves are E_A[x] = sum_i
        g_i conj(V_B[x] B_i^T) / sqrt 2 and E_B[x] = sum_i g_i^T conj(V_A[x] B_i)
        / sqrt 2.  With ``alice=False``, E_A is not computed and is None.
        """
        value, left, overlap = self._fidelity(v_alice, v_bob)
        *lead, half, m, _ = overlap.shape
        g = overlap * (2.0 * self.weights)[:, None]  # [..., a, i, c]
        e_bob = g.reshape(*lead, 1, half * m, half).swapaxes(-1, -2) @ left.conj()
        if not alice:
            return value, None, e_bob.reshape(v_bob.shape)
        g = g.swapaxes(-1, -2).reshape(*lead, 1, half, half * m)  # [..., a, (c, i)]
        e_alice = g @ self._products(v_bob, 1).conj()
        return value, e_alice.reshape(v_alice.shape), e_bob.reshape(v_bob.shape)


def _mix(history: np.ndarray, kept: np.ndarray, slot: int) -> np.ndarray:
    """Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 2011) of each
    restart's history [restart, slot, (plain step, residual), party, d, k]:
    sum_j a_j g_j over its plain steps g_j, with the real weights a (sum a
    = 1) minimising ||sum_j a_j r_j||^2 + MIX_REG ||a||^2 over its
    residuals r_j = g_j - x_j, with the Gram matrix Re <r_i, r_j> scaled to
    unit trace.  Only the ``kept`` latest slots, ending at ``slot``, are a
    restart's own; the others get weight 0.  Complex products and the SVD
    solve it: the polar step already uses both, while the first call of a
    real BLAS or LAPACK routine pages in its code (0.25-0.3 MB of resident
    memory per routine with OpenBLAS)."""
    count, slots = history.shape[:2]
    flat = history.reshape(count, slots, 2, -1)
    own = ((slot - np.arange(slots)) % slots < kept[:, None]).astype(np.float64)  # [restart, slot]
    residuals = flat[:, :, 1]
    gram = (residuals.conj() @ residuals.swapaxes(-1, -2)).real * (own[:, :, None] * own[:, None, :])
    trace = np.trace(gram, axis1=-2, axis2=-1)
    gram /= np.where(trace > 0, trace, 1.0)[:, None, None]
    gram[:, np.arange(slots), np.arange(slots)] += 1.0 - own
    # gram is symmetric positive semidefinite, so its SVD U S U^H is its
    # eigendecomposition, and (gram + MIX_REG I)^-1 = U (S + MIX_REG)^-1 U^H
    u, spectrum, _ = np.linalg.svd(gram.astype(np.complex128))
    solved = u @ ((u.conj().swapaxes(-1, -2) @ own[:, :, None]) / (spectrum[:, :, None] + MIX_REG))
    weights = solved.real * own[:, :, None]
    weights /= weights.sum(axis=1, keepdims=True)
    mixed = (weights.swapaxes(-1, -2).astype(np.complex128) @ flat[:, :, 0])[:, 0]
    return mixed.reshape(count, *history.shape[3:])


def _ascend(objective: PairFidelityObjective, config: AscentConfig, restarts: range) -> np.ndarray:
    """Rows: each restart's best value, converged flag, polar steps and final
    gradient norm, stepped in lockstep from the identity (restart 0) or the
    ``rows`` columns of random unitaries for Alice, then Bob, from its stream."""
    dim, pairs = objective.d_side, []
    for restart in restarts:
        rng = substream(config.seed, "unitary-ascent", restart)
        pair = (np.eye(dim),) * 2 if restart == 0 else (random_unitary(rng, dim), random_unitary(rng, dim))
        pairs.append([u[:, objective.rows] for u in pair])
    va, vb = np.asarray(pairs, dtype=np.complex128).swapaxes(0, 1)
    live, best = np.arange(len(va)), np.full(len(va), -np.inf)
    out = np.zeros((4, len(va)))
    # per restart, slot step % (DEPTH + 1): its plain step (V_A', V_B') and the
    # residual (V_A' - V_A, V_B' - V_B)
    history = np.zeros((len(va), DEPTH + 1, 2, 2, *va.shape[1:]), dtype=np.complex128)
    kept = np.zeros(len(va), dtype=np.int64)  # how many of the latest slots are the restart's history
    value, ea, eb = objective.value_and_euclidean_gradient(va, vb)
    for step in range(config.steps + 1):
        best = np.maximum(best, value)
        ga, gb = (_omega(e, v).reshape(len(v), -1) for e, v in ((ea, va), (eb, vb)))
        norm = np.sqrt(_square_sums(ga) + _square_sums(gb))
        stop = (norm <= GRAD_TOL) | (step == config.steps)
        if stop.any():
            out[:, live[stop]] = np.array([best, norm <= GRAD_TOL, np.full_like(norm, step), norm])[:, stop]
            live, best, va, vb, ea, history, kept = (a[~stop] for a in (live, best, va, vb, ea, history, kept))
            if not len(live):
                return out
        # each half-step is a polar step in one party: it never lowers the value
        pa = _polar(ea)
        half, _, eb = objective.value_and_euclidean_gradient(pa, vb, alice=False)
        best = np.maximum(best, half)
        pb = _polar(eb)
        slot = step % (DEPTH + 1)
        history[:, slot, 0, 0], history[:, slot, 0, 1] = pa, pb
        history[:, slot, 1, 0], history[:, slot, 1, 1] = pa - va, pb - vb
        kept = np.minimum(kept + 1, DEPTH + 1)
        if step < MIX_FROM:
            va, vb = pa, pb
            value, ea, eb = objective.value_and_euclidean_gradient(va, vb)
            continue
        mixed = _polar(_mix(history, kept, slot))
        value, ea, eb = objective.value_and_euclidean_gradient(mixed[:, 0], mixed[:, 1])
        # the safeguard: a mixed point below the half-step value is dropped for
        # the plain step, and the restart's history starts again from that step
        accept = value >= half
        va, vb = np.where(accept[:, None, None, None], mixed, history[:, slot, 0]).swapaxes(0, 1)
        if not accept.all():
            drop = ~accept
            value[drop], ea[drop], eb[drop] = objective.value_and_euclidean_gradient(va[drop], vb[drop])
            kept[drop] = 1


def maximize_pair_fidelity(objective: PairFidelityObjective, config: AscentConfig) -> AscentResult:
    """Best objective value over the isometry pair, multi-start polar ascent."""
    eye = np.eye(objective.d_side, dtype=np.complex128)[:, objective.rows]
    size = max(1, ASCENT_BUDGET_BYTES // objective.pair_bytes)
    blocks = [range(first, min(first + size, config.restarts)) for first in range(0, config.restarts, size)]
    out = np.concatenate([_ascend(objective, config, block) for block in blocks], axis=1)
    return AscentResult(
        best_value=float(out[0].max()),
        start_value=objective.value(eye, eye),
        restart_values=tuple(out[0].tolist()),
        restart_converged=tuple(out[1].astype(bool).tolist()),
        restart_iterations=tuple(out[2].astype(int).tolist()),
        restart_grad_norms=tuple(out[3].tolist()),
    )
