"""Numerical verification suites: dominance checks, the transcript
splitting tracker, bound probes via unitary ascent, lemma property
sweeps, and exact counting identities.

The splitting tracker reads the transcript tree through ``locc.walk``,
the only traversal, which ``locc.run`` also consumes; it reads each row's
node through the level's class index.

Every report carries explicit pass criteria.  A bound probe passes only
when the best value found sits between the matching protocol's value
and the claimed bound; a claimed bound that the exact evaluation
contradicts is flagged as a falsification artifact, never silently
passed.  All suites are deterministic given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from . import locc
from .errmodels import (
    DepolarizationModel,
    FidelityModel,
    MeasureRModel,
    enumerate_extended,
    enumerate_indicators,
    pair_bell_mixture_ensemble,
)
from .frontier import frontier_of, grouped
from .locc import (
    Protocol,
    make_first_pair,
    make_random_pair,
    make_random_permutation,
    protocol_fidelity,
)
from .optimize import AscentConfig, PairFidelityObjective, maximize_pair_fidelity
from .qcore import (
    ProductState,
    bell_identity_sides,
    epr_state,
    fidelities,
    pair_states,
    pauli_deviation_sums,
    phi_plus_overlaps,
)
from .rng import substream
from .sampling import kraus_sets, mixtures, products, unit_vectors, wishart

DOMINANCE_TOL = 1e-9
CERTIFICATE_TOL = 1e-6


# ---------------------------------------------------------------------------
# positive-operator dominance


@dataclass(frozen=True)
class DominanceReport:
    min_eigenvalue: float
    holds: bool

    def to_record(self) -> dict[str, Any]:
        return {"min_eigenvalue": self.min_eigenvalue, "holds": self.holds}


def check_dominance(a: np.ndarray, b: np.ndarray, tol: float = DOMINANCE_TOL) -> DominanceReport:
    """Does a dominate b, i.e. is a - b positive semidefinite?

    Eigenvalues are taken from the Hermitian part of the difference;
    non-Hermitian inputs beyond tolerance are rejected.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("dominance needs two square matrices of equal shape")
    low = float(_dominance_lows(a, b))
    return DominanceReport(min_eigenvalue=low, holds=low >= -tol)


def _dominance_lows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue of the Hermitian part of a - b; leading axes
    index a stack of matrix pairs."""
    diff = a - b
    adjoint = diff.conj().swapaxes(-1, -2)
    if diff.size and np.abs(diff - adjoint).max() > 1e-8:
        raise ValueError("dominance inputs must be Hermitian")
    return np.linalg.eigvalsh((diff + adjoint) / 2.0)[..., 0]


# ---------------------------------------------------------------------------
# bound reports


@dataclass(frozen=True, kw_only=True)
class BoundReport:
    """Outcome of probing one claimed bound.

    ``passed`` means the achieved value respects the bound direction
    within ``tol`` and, when a floor is known, does not fall below it
    by more than ``tol``.  ``falsified`` marks exact evaluations that
    contradict the claim; such runs are never reported as passed.
    """

    theorem: str
    params: dict[str, Any]
    bound: float
    achieved: float
    direction: str  # "upper": achieved <= bound; "lower": achieved >= bound
    tol: float
    floor: float | None = None
    seed: int | None = None
    notes: str = ""

    @property
    def margin(self) -> float:
        if self.direction == "upper":
            return float(self.bound - self.achieved)
        return float(self.achieved - self.bound)

    @property
    def passed(self) -> bool:
        if self.floor is not None and self.achieved < self.floor - self.tol:
            return False
        if self.direction == "upper":
            return bool(self.achieved <= self.bound + self.tol)
        return bool(self.achieved >= self.bound - self.tol)

    @property
    def falsified(self) -> bool:
        return not self.passed

    def to_record(self) -> dict[str, Any]:
        rec: dict[str, Any] = {
            "theorem": self.theorem,
            "bound": self.bound,
            "achieved": self.achieved,
            "margin": self.margin,
            "pass": self.passed,
            "falsified": self.falsified,
            "seed": self.seed,
            "notes": self.notes,
        }
        rec.update({f"param_{k}": v for k, v in sorted(self.params.items())})
        return rec


# ---------------------------------------------------------------------------
# no-communication bounds: exact protocol values and ascent probes


EXACT_TOL = 1e-9


def random_pair_measure_r_report(n: int, r: int) -> BoundReport:
    """The uniform pair-choice protocol on the measure-r model: its
    exact fidelity is the 0-bit bound 1 - r/2n, which is therefore also
    the floor."""
    model = MeasureRModel(n, r)
    bound = 1.0 - r / (2.0 * n)
    return BoundReport(
        theorem="neg-measure-r",
        params={"n": n, "r": r},
        bound=bound,
        achieved=protocol_fidelity(make_random_pair(n), model),
        direction="upper",
        tol=EXACT_TOL,
        floor=bound,
        notes="uniform pair-choice protocol (matches the bound exactly)",
    )


def first_pair_depolarization_report(n: int, p: float) -> BoundReport:
    """The first-pair protocol on the depolarization model, checked
    against its exact value (bound and floor coincide)."""
    bound = 1.0 - 0.75 * p
    return BoundReport(
        theorem="first-pair-depolarization",
        params={"n": n, "p": p},
        bound=bound,
        achieved=protocol_fidelity(make_first_pair(n), DepolarizationModel(n, p)),
        direction="upper",
        tol=EXACT_TOL,
        floor=bound,
        notes="first-pair protocol value 1 - 3p/4",
    )


def _check_searchable(n: int, ancillas: int) -> None:
    if n > 3 or ancillas > 2:
        raise ValueError("searchable class is n <= 3 with at most 2 ancillas per party")


def _ascent_probe(
    theorem: str,
    params: dict[str, Any],
    bound: float,
    floor: float,
    objective: PairFidelityObjective,
    config: AscentConfig | None,
    note: str = "",
) -> BoundReport:
    """Best value of the unitary ascent against a claimed upper bound,
    with an exact protocol value as the achievability floor."""
    config = config or AscentConfig()
    result = maximize_pair_fidelity(objective, config)
    notes = (
        f"searched class: local unitaries on n+{objective.ancillas} qubits/party, "
        f"{config.restarts} restarts x {config.steps} gradient steps; "
        f"identity start = {result.start_value:.12f}; "
        f"{sum(result.restart_converged)}/{config.restarts} restarts met the gradient test"
        f"{note}"
    )
    return BoundReport(
        theorem=theorem,
        params=params,
        bound=bound,
        achieved=result.best_value,
        direction="upper",
        tol=CERTIFICATE_TOL,
        floor=floor,
        seed=config.seed,
        notes=notes,
    )


def optimize_0bit_measure_r(
    n: int, r: int, ancillas: int = 2, config: AscentConfig | None = None
) -> BoundReport:
    """Probe the 0-bit measure-r bound by unitary ascent.

    The objective is the uniform average over all degree-r error
    states, which upper-bounds the adversarial minimum; the uniform
    pair-choice protocol supplies the achievability floor at the same
    value as the bound (``random_pair_measure_r_report``).
    """
    _check_searchable(n, ancillas)
    exact = random_pair_measure_r_report(n, r)
    return _ascent_probe(
        "neg-measure-r",
        {"n": n, "r": r, "ancillas": ancillas},
        exact.bound,
        exact.achieved,
        PairFidelityObjective(MeasureRModel(n, r).uniform_mixture(), n, ancillas),
        config,
    )


def optimize_0bit_depolarization(
    n: int, p: float, ancillas: int = 2, config: AscentConfig | None = None
) -> BoundReport:
    """Probe the 0-bit depolarization bound 1 - p/2 by unitary ascent.

    The first-pair protocol gives the floor
    (``first_pair_depolarization_report``); the gap between floor and
    bound is expected and the probe only reports where the searched
    class lands inside it.
    """
    _check_searchable(n, ancillas)
    return _ascent_probe(
        "neg-depolarization",
        {"n": n, "p": p, "ancillas": ancillas},
        1.0 - p / 2.0,
        first_pair_depolarization_report(n, p).achieved,
        PairFidelityObjective(pair_bell_mixture_ensemble(n, p), n, ancillas),
        config,
        "; conjectured true bound 1-3p/4",
    )


# ---------------------------------------------------------------------------
# transcript splitting


@dataclass(frozen=True)
class SplittingReport:
    """Node-by-node comparison of a protocol on the perfect block (case
    I) versus the completely mixed state (case II)."""

    n: int
    bits: int
    initial_condition_ok: bool
    min_alice_margin: float
    min_bob_margin: float
    worst_node: tuple[int, str] | None
    p_success_perfect: float
    q_success_mixed: float
    success_margin: float
    nodes_checked: int
    passed: bool

    def to_record(self) -> dict[str, Any]:
        return {
            "theorem": "divert+neg-fidelity-main",
            "param_n": self.n,
            "param_s": self.bits,
            "initial_condition_ok": self.initial_condition_ok,
            "min_alice_margin": self.min_alice_margin,
            "min_bob_margin": self.min_bob_margin,
            "p": self.p_success_perfect,
            "q": self.q_success_mixed,
            "margin": self.success_margin,
            "nodes": self.nodes_checked,
            "pass": self.passed,
        }


def verify_splitting(protocol: Protocol, tol: float = DOMINANCE_TOL) -> SplittingReport:
    """Check the divert dominance and q >= p^2 / 2^s on a protocol.

    Case I runs the perfect block, case II the completely mixed input
    (in product form).
    At every transcript node t the scaled case-I local states must be
    dominated by the case-II ones: p_t sigma_t^I <= sigma_t^II, for
    both parties.  The initial local states must all equal I/2^n, as they
    do by construction (checked once, on the inputs).  The SUCC
    probabilities p (case I) and q (case II) must then satisfy q >= p^2 / 2^s.

    The two cases are walked in lockstep, one seed block and one level
    at a time, so memory follows one level of the block's trees (the
    blocks are ``locc.seed_blocks``, sized in rows, which ``walk`` never
    cuts, so the two walks yield one level per depth each); each
    level is checked with one batched eigenvalue call per party.  p and
    q are scored over the last level, the leaves, as ``run`` computes
    them (``locc._score_leaves``).  A node's margin is the lower of the
    two parties' lowest eigenvalues, and -inf where case II vanished
    under a live case-I node.  ``worst_node`` is the (seed, transcript)
    of the lowest margin, the first in tree order (seed, then depth,
    then transcript) among equal ones, when that margin is below -tol.
    """
    n = protocol.n_pairs
    perfect = epr_state(n)
    mixed = ProductState.maximally_mixed(n, n)
    eye = np.eye(1 << n) / (1 << n)
    weights = np.asarray(protocol.seed_weights)
    initial_ok = all(
        bool(np.abs(local - eye).max() <= 1e-10) for st in (perfect, mixed) for local in frontier_of(st).local_states()
    )
    min_alice = np.inf
    min_bob = np.inf
    checked = 0
    success = [0.0, 0.0]  # p and q
    lowest = (np.inf,)  # (margin, seed, depth, row, transcript) of the lowest node
    live_seeds = np.flatnonzero(weights != 0.0)
    for block in locc.seed_blocks(protocol, (perfect, mixed), live_seeds):
        walks = zip(locc.walk(protocol, perfect, block), locc.walk(protocol, mixed, block), strict=True)
        for level1, level2 in walks:
            depth = level1.depth
            if depth == protocol.bits:
                for case, level in enumerate((level1, level2)):
                    scores = locc._score_leaves(protocol, level)
                    weighted = scores.entries, scores.scored.probabilities, scores.accept, weights[scores.leaves.seeds]
                    success[case] += locc._totals(*weighted)[2]
            # the case-I row of every case-II node, by (seed, transcript)
            keys1 = (level1.seeds << depth) | level1.codes
            keys2 = (level2.seeds << depth) | level2.codes
            rows1 = np.minimum(np.searchsorted(keys1, keys2), max(len(keys1) - 1, 0))
            found = keys1[rows1] == keys2 if len(keys1) else np.zeros(len(keys2), dtype=bool)
            p1 = np.where(found, level1.probabilities[rows1], 0.0)
            p2 = level2.probabilities
            live = p1 >= locc.PROB_TOL
            # dominated-by-zero is only possible if case I vanished too
            margins = np.where(live & (p2 < locc.PROB_TOL), -np.inf, np.inf)
            rows2 = np.flatnonzero(live & (p2 >= locc.PROB_TOL))
            if len(rows2):
                checked += len(rows2)
                # p_t sigma_t^I is case I's unnormalized local state
                alice1, bob1 = level1.local_states(rows1[rows2])
                q2 = p2[rows2][:, None, None]
                alice2, bob2 = (local / q2 for local in level2.local_states(rows2))
                low_a = _dominance_lows(alice2, alice1)
                low_b = _dominance_lows(bob2, bob1)
                min_alice = min(min_alice, float(low_a.min()))
                min_bob = min(min_bob, float(low_b.min()))
                margins[rows2] = np.minimum(low_a, low_b)
            if len(margins):
                row = int(np.argmin(margins))  # the first lowest row
                node = (float(margins[row]), int(level2.seeds[row]), depth, row)
                if node < lowest[:4]:
                    lowest = (*node, level2.label(row))

    failed = lowest[0] < -tol
    p, q = success
    margin = q - p * p / (1 << protocol.bits)
    ok = not failed and initial_ok and margin >= -tol
    return SplittingReport(
        n=n,
        bits=protocol.bits,
        initial_condition_ok=bool(initial_ok),
        min_alice_margin=float(min_alice if checked else 0.0),
        min_bob_margin=float(min_bob if checked else 0.0),
        worst_node=(lowest[1], lowest[4]) if failed else None,
        p_success_perfect=float(p),
        q_success_mixed=float(q),
        success_margin=float(margin),
        nodes_checked=checked,
        passed=bool(ok),
    )


# ---------------------------------------------------------------------------
# fidelity-model bounds


def verify_neg_fidelity(protocol: Protocol, epsilon: float, tol: float = DOMINANCE_TOL) -> BoundReport:
    """Check the s-bit conditional-fidelity ceiling 1 - eps*p/2^(s+1).

    p is the ideal success probability; the conditional fidelity is
    evaluated exactly on the canonical witness, which is enough because
    the ceiling is claimed for every model member.
    """
    return _neg_fidelity(protocol, epsilon, tol)[0]


def pos_fidelity_reports(n: int, s: int, epsilons, tol: float = DOMINANCE_TOL) -> list[BoundReport | ValueError]:
    """Check the parity-hash achievability 1 - 2^-s/(1-eps) on the witness of
    each epsilon, from one hash and witness walk: a report or a ``ValueError``."""
    _, fidelities = locc.witness_fidelities(locc.make_simple_random_hash(n, s), epsilons)
    reports: list[BoundReport | ValueError] = []
    for epsilon, values in zip(epsilons, fidelities):
        try:
            reports.append(_pos_fidelity(n, s, epsilon, tol, locc._defined(values)))
        except ValueError as exc:
            reports.append(exc)
    return reports


def hash_fidelity_reports(n: int, s: int, epsilon: float, tol: float = DOMINANCE_TOL) -> list[BoundReport]:
    """The pos-fidelity report and ``verify_neg_fidelity`` of the parity
    hash, from one build of the protocol and one witness evaluation."""
    neg, achieved = _neg_fidelity(locc.make_simple_random_hash(n, s), epsilon, tol)
    return [_pos_fidelity(n, s, epsilon, tol, achieved), neg]


def _neg_fidelity(protocol: Protocol, epsilon: float, tol: float) -> tuple[BoundReport, float]:
    n = protocol.n_pairs
    s = protocol.bits
    p, (fidelities,) = locc.witness_fidelities(protocol, (epsilon,))
    achieved = locc._defined(fidelities)
    return BoundReport(
        theorem="neg-fidelity",
        params={"n": n, "s": s, "epsilon": epsilon},
        achieved=achieved,
        bound=1.0 - epsilon * p / (2.0 ** (s + 1)),
        direction="upper",
        tol=tol,
        notes=f"ideal success probability p = {p:.12f}; witness evaluation",
    ), achieved


def _pos_fidelity(n: int, s: int, epsilon: float, tol: float, achieved: float) -> BoundReport:
    return BoundReport(
        theorem="pos-fidelity",
        params={"n": n, "s": s, "epsilon": epsilon},
        achieved=achieved,
        bound=1.0 - 2.0**-s / (1.0 - epsilon),
        direction="lower",
        tol=tol,
        notes="parity-hash instantiation, witness evaluation",
    )


def no_comm_fidelity_report(n: int, epsilon: float, tol: float = DOMINANCE_TOL) -> BoundReport:
    """Evaluate the claimed 0-bit fidelity floor 1 - (2^n/(2^n-1)) eps/2.

    The uniform-permutation protocol's exact output fidelity on the
    canonical witness equals 1 - (3/4) eps' with
    eps' = (4^n/(4^n-1)) eps, which sits below the claimed floor for
    n >= 2; in that regime the report is flagged as a falsification
    artifact rather than passed.
    """
    return BoundReport(
        theorem="pos-fidelity-no-comm",
        params={"n": n, "epsilon": epsilon},
        achieved=protocol_fidelity(make_random_permutation(n), FidelityModel(n, epsilon)),
        bound=1.0 - (2.0**n / (2.0**n - 1.0)) * epsilon / 2.0,
        direction="lower",
        tol=tol,
        notes="uniform-permutation protocol, witness evaluation; exact witness value "
        "is 1 - (3/4)(4^n/(4^n-1)) eps",
    )


# ---------------------------------------------------------------------------
# lemma property sweeps


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    instances: int
    violations: int
    worst_margin: float
    tolerance: float
    passed: bool
    seed: int

    def to_record(self) -> dict[str, Any]:
        return {
            "lemma": self.lemma,
            "instances": self.instances,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "seed": self.seed,
        }


def _sweep(name, seed, count, tolerance, margins) -> LemmaReport:
    worst = float(min(margins))
    violations = sum(1 for m in margins if m < -tolerance)
    return LemmaReport(
        lemma=name,
        instances=len(margins),
        violations=violations,
        worst_margin=worst,
        tolerance=tolerance,
        passed=violations == 0,
        seed=seed,
    )


LEMMA_BLOCK = 100  # instances per stacked margin evaluation


def _blocked_margins(count: int, draw, margins) -> list[float]:
    """Margins of ``count`` instances.  ``draw(i)`` makes the generator
    calls of instance i, in order, so the generator is consumed exactly
    as one instance at a time would; ``margins`` finishes and evaluates
    a block of up to ``LEMMA_BLOCK`` raw instances at once."""
    out: list[float] = []
    for start in range(0, count, LEMMA_BLOCK):
        block = [draw(i) for i in range(start, min(start + LEMMA_BLOCK, count))]
        out.extend(margins(block).tolist())
    return out


def _by_shape(block: list, shape, evaluate) -> np.ndarray:
    """``evaluate`` on each group of instances with equal ``shape(instance)``,
    its results scattered back into block order."""
    keys = [shape(instance) for instance in block]
    every = np.arange(len(block))
    return grouped(keys, lambda _, rows: evaluate([block[i] for i in every[rows]]))


def _projectors(amps: np.ndarray) -> np.ndarray:
    """|a><a| of every amplitude vector of a stack (..., d): (..., d, d)."""
    return amps[..., :, None] * amps.conj()[..., None, :]


def _channel(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k K rho K^dag for stacks of zero-padded Kraus sets (len, k, d, d)."""
    return (kraus @ rho[:, None] @ kraus.conj().swapaxes(-1, -2)).sum(axis=1)


def lemma_suite(
    seed: int = 0, count: int = 1000, tolerance_override: float | None = None
) -> list[LemmaReport]:
    """Seeded property sweeps for the five fidelity lemmas.

    Margins are oriented so that negative-beyond-tolerance means a
    violation; the reports record the worst margin seen.  Tolerances
    are fixed per lemma; ``tolerance_override`` replaces them all
    (setting it below float noise, e.g. 1e-15, is the documented way to
    demonstrate the failure mode).  Instances are drawn one at a time,
    but a draw makes only the samplers' generator calls, in their order,
    and keeps the raw normals; consecutive normal draws of one shape are
    fused into one call, which consumes the generator as separate calls
    do.  A block of ``LEMMA_BLOCK`` instances is then finished by the
    samplers' stacked finishers, one call per group of equal shape, and
    evaluated in stacks.  A finisher gives each row bit for bit what the
    single-instance sampler gives, so every margin is that of drawing
    and evaluating one instance at a time.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if tolerance_override is not None and not math.isfinite(tolerance_override):
        raise ValueError(f"tolerance must be finite, got {tolerance_override}")
    reports = []

    def tol(default: float) -> float:
        return default if tolerance_override is None else tolerance_override

    def sweep(name: str, default_tol: float, draw, margins) -> None:
        reports.append(_sweep(name, seed, count, tol(default_tol), _blocked_margins(count, draw, margins)))

    gen = substream(seed, "lemma", "pauli-deviation")

    def pauli_pair(_):
        total = int(gen.integers(2, 6))
        gen.integers(1, total)  # Alice's share: drawn to keep the stream, unused by the sum
        return gen.standard_normal((2, 2, 1 << total))  # phi's raw draw, then psi's

    def pauli_margins(pairs) -> np.ndarray:
        raw = np.stack(pairs)
        return 2.0 - pauli_deviation_sums(unit_vectors(raw[:, 0]), unit_vectors(raw[:, 1]))

    sweep(
        "pauli-deviation-cap", 1e-9, pauli_pair,
        lambda block: _by_shape(block, np.shape, pauli_margins),
    )

    gen = substream(seed, "lemma", "bell-identity")

    def bell_state_draw(_):
        na = int(gen.integers(1, 3))
        nb = int(gen.integers(1, 3))
        return na, nb, gen.standard_normal((2, 1 << (na + nb)))

    def bell_margins(draws) -> np.ndarray:
        na, nb, _ = draws[0]
        amps = unit_vectors(np.stack([raw for _, _, raw in draws]))
        lhs, rhs = bell_identity_sides(pair_states(amps.reshape(-1, 1 << na, 1 << nb)))
        return -np.abs(lhs - rhs)

    sweep(
        "bell-base-fidelity-identity", 1e-10, bell_state_draw,
        lambda block: _by_shape(block, lambda draw: draw[:2], bell_margins),
    )

    gen = substream(seed, "lemma", "disentangled-cap")

    def disentangled(i):
        # a product state (n_alice, n_bob, Alice's raw draw, Bob's), or a
        # two-qubit mixture (None, None, weights, raw draws (terms, party, 2, 2))
        if i % 2 == 0:
            na = int(gen.integers(1, 3))
            nb = int(gen.integers(1, 3))
            return na, nb, gen.standard_normal((2, 1 << na)), gen.standard_normal((2, 1 << nb))
        weights = gen.dirichlet(np.ones(int(gen.integers(2, 5))))
        return None, None, weights, gen.standard_normal((len(weights), 2, 2, 2))

    def mixture_pairs(draws) -> np.ndarray:
        raw = np.stack([raw for _, _, _, raw in draws])
        alice, bob = (unit_vectors(raw[:, :, party].reshape(-1, 2, 2)) for party in (0, 1))
        amps = products(alice, bob).reshape(raw.shape[:2] + (4,))
        return mixtures(np.stack([weights for _, _, weights, _ in draws]), amps)

    def disentangled_margins(draws) -> np.ndarray:
        na, nb, _, _ = draws[0]
        if na is None:
            pairs = _by_shape(draws, lambda draw: len(draw[2]), mixture_pairs)
        else:
            alice, bob = (unit_vectors(np.stack([draw[j] for draw in draws])) for j in (2, 3))
            pairs = pair_states(products(alice, bob).reshape(-1, 1 << na, 1 << nb))
        return 0.5 - phi_plus_overlaps(pairs)

    sweep(
        "disentangled-base-fidelity-cap", 1e-9, disentangled,
        lambda block: _by_shape(block, lambda draw: draw[:2], disentangled_margins),
    )

    gen = substream(seed, "lemma", "linearity")

    def linearity(_):
        sigma = gen.standard_normal((2, 4))
        weights = gen.dirichlet(np.ones(int(gen.integers(2, 5))))
        return sigma, weights, gen.standard_normal((len(weights), 2, 4))

    def linearity_margins(block) -> np.ndarray:
        # members zero-padded to (len, widest, 4); both sums run member by
        # member in draw order, so a padded slot adds an exact zero
        counts = np.array([len(w) for _, w, _ in block])
        present = np.arange(counts.max()) < counts[:, None]
        weights = np.zeros(present.shape)
        weights[present] = np.concatenate([w for _, w, _ in block])
        members = np.zeros(present.shape + (4,), dtype=np.complex128)
        members[present] = unit_vectors(np.concatenate([raw for _, _, raw in block]))
        projectors = _projectors(members)
        sigmas = _projectors(unit_vectors(np.stack([sigma for sigma, _, _ in block])))
        parts = np.zeros(present.shape)
        parts[present] = fidelities(
            projectors[present], np.broadcast_to(sigmas[:, None], projectors.shape)[present]
        )
        mixes = np.zeros_like(sigmas)
        split = np.zeros(len(block))
        for j in range(present.shape[1]):
            mixes += weights[:, j, None, None] * projectors[:, j]
            split += weights[:, j] * parts[:, j]
        return -np.abs(fidelities(mixes, sigmas) - split)

    sweep("fidelity-linearity", 1e-9, linearity, linearity_margins)

    gen = substream(seed, "lemma", "monotonicity")

    def monotonicity(_):
        states = gen.standard_normal((2, 2, 2, 2))  # rho's raw draw, then sigma's
        return states, gen.standard_normal((2, 2 * int(gen.integers(2, 4)), 2))

    def monotonicity_margins(block) -> np.ndarray:
        states = np.stack([states for states, _ in block])
        rhos, sigmas = wishart(states[:, 0]), wishart(states[:, 1])
        counts = np.array([raw.shape[1] // 2 for _, raw in block])
        kraus = np.zeros((len(block), counts.max(), 2, 2), dtype=np.complex128)
        for k in set(counts.tolist()):
            rows = np.flatnonzero(counts == k)
            kraus[rows, :k] = kraus_sets(np.stack([block[i][1] for i in rows]), 2)
        before = fidelities(rhos, sigmas)
        after = fidelities(_channel(kraus, rhos), _channel(kraus, sigmas))
        return after - before

    sweep("fidelity-monotonicity", 1e-9, monotonicity, monotonicity_margins)

    return reports


# ---------------------------------------------------------------------------
# exact counting identities


@dataclass(frozen=True)
class CountingReport:
    identity: str
    n_max: int
    cases: int
    mismatches: int
    passed: bool

    def to_record(self) -> dict[str, Any]:
        return {
            "identity": self.identity,
            "n_max": self.n_max,
            "cases": self.cases,
            "mismatches": self.mismatches,
            "pass": self.passed,
        }


def _consistency_rows(n: int, vectors) -> np.ndarray:
    """rows[v_idx, x] = 1 iff x matches every fixed entry of the v-th
    vector.  An entry's first character is its bit, which covers both
    the binary and the extended alphabet; "*" is free."""
    xs = np.arange(1 << n, dtype=np.int64)
    rows = []
    for v in vectors:
        mask = 0
        val = 0
        for j, e in enumerate(v.entries):
            if e != "*":
                mask |= 1 << (n - 1 - j)
                if e[0] == "1":
                    val |= 1 << (n - 1 - j)
        rows.append(((xs & mask) == val).astype(np.int64))
    return np.stack(rows) if rows else np.zeros((0, 1 << n), dtype=np.int64)


def _binary_consistency_matrix(n: int, r: int) -> np.ndarray:
    """cons[v_idx, x] = 1 iff x is consistent with the v-th vector."""
    return _consistency_rows(n, enumerate_indicators(n, r))


def _extended_joint_counts(n: int, r: int) -> np.ndarray:
    """N[a, b] = number of (c, u) with deg u = r and both (a; a xor c)
    and (b; b xor c) consistent with u.

    For each u the discrepancy c is forced and the left half must match
    u's fixed bits, so the joint count is an integer Gram matrix of
    per-u consistency rows.
    """
    return _gram(_consistency_rows(n, enumerate_extended(n, r)))


def _gram(rows: np.ndarray) -> np.ndarray:
    return rows.T @ rows


def _joint_count_report(identity, n_max, joint_counts, expected) -> CountingReport:
    """Compare ``joint_counts(n, r)[a, b]`` with ``expected(n, r, k)``,
    k the Hamming distance of a and b, for every n <= n_max and r <= n."""
    cases = 0
    mismatches = 0
    for n in range(1, n_max + 1):
        for r in range(n + 1):
            joint = joint_counts(n, r)
            for a in range(1 << n):
                for b in range(1 << n):
                    cases += 1
                    if int(joint[a, b]) != expected(n, r, bin(a ^ b).count("1")):
                        mismatches += 1
    return CountingReport(identity, n_max, cases, mismatches, mismatches == 0)


def verify_counting(n_max_binary: int = 6, n_max_extended: int = 5) -> list[CountingReport]:
    """Brute-force the two joint-consistency counting identities and the
    aggregate binomial identities, all in exact integer arithmetic."""
    reports = [
        _joint_count_report(
            "binary-joint-consistency",
            n_max_binary,
            # joint[x, y] = #{v : x, y consistent}
            lambda n, r: _gram(_binary_consistency_matrix(n, r)),
            lambda n, r, k: math.comb(n - k, n - r - k) if n - r - k >= 0 else 0,
        ),
        _joint_count_report(
            "extended-joint-consistency",
            n_max_extended,
            _extended_joint_counts,
            lambda n, r, k: (2**r) * math.comb(n - k, r) if r <= n - k else 0,
        ),
    ]

    # aggregate binomial identities behind the averaged bounds, with
    # exact rational arithmetic; the extended form carries an extra 2^r
    cases = 0
    mismatches = 0
    for n in range(1, 9):
        for r in range(n + 1):
            for e in (n, n + r):
                lhs = Fraction(2 ** (e + 1)) * (math.comb(n, r) - math.comb(n - 1, r))
                lhs += Fraction(2 ** (e + 2)) * math.comb(n - 1, r)
                rhs = Fraction(2 ** (e + 2)) * math.comb(n, r) * (1 - Fraction(r, 2 * n))
                cases += 1
                if lhs != rhs:
                    mismatches += 1
    reports.append(CountingReport("aggregate-binomial", 8, cases, mismatches, mismatches == 0))
    return reports
