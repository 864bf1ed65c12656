"""The transcript splitting tracker and positive-operator dominance.

The tracker walks its two cases, the perfect block and the completely
mixed state, as one paired input through the runner's walk
(``locc._walk``), the only traversal, which ``locc.run`` also consumes;
it checks each distinct pair of nodes once.  No command of the CLI runs
it, so ``import edplab.cli`` does not load this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import locc
from .frontier import Paired, frontier_of
from .locc import Protocol
from .qcore import ProductState, epr_state
from .verify import DOMINANCE_TOL


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

    The two cases are walked as one input whose row holds the same node
    on both (``frontier.Paired``), with all live seeds, through the
    runner's walk, which cuts the block at seed boundaries where a level
    would not fit, so memory follows one level's class table.  A node
    is expanded while either case lives.  The check of a node depends
    only on its pair of (case-I, case-II) states, which the walk merges
    into one class, so each level solves one eigenvalue problem per party
    per distinct class among its checked nodes.  p and q are scored per
    case over the last levels, the leaves, as ``run`` computes them
    (``locc._score_leaves``).  A node's margin is the lower of the two
    parties' lowest eigenvalues, and -inf where case II vanished under a
    live case-I node.  ``worst_node`` is the (seed, transcript) of the
    lowest margin, the first in tree order (seed, then depth, then
    transcript) among equal ones, when that margin is below -tol.
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
    roots = Paired(locc.frontier_of(perfect), locc.frontier_of(mixed))
    for level in locc._walk(protocol, roots, np.flatnonzero(weights != 0.0)):
        depth, nodes, classes = level.depth, level.frontier, level.classes
        p1, p2 = nodes.first.norms(), nodes.second.norms()  # per class
        if depth == protocol.bits:
            for case, (side, p) in enumerate(((nodes.first, p1), (nodes.second, p2))):
                leaves = locc.Level(depth, level.seeds, level.codes, classes, p[classes], side)
                success[case] += _success(protocol, leaves, weights)
        live = p1 >= locc.PROB_TOL
        # dominated-by-zero is only possible if case I vanished too
        margins = np.where(live & (p2 < locc.PROB_TOL), -np.inf, np.inf)
        checks = np.flatnonzero(live & (p2 >= locc.PROB_TOL))  # every class has a row
        if len(checks):
            checked += int(np.bincount(classes, minlength=len(nodes))[checks].sum())
            pairs = nodes.take(checks)
            # p_t sigma_t^I is case I's unnormalized local state
            alice1, bob1 = pairs.first.local_states()
            q2 = p2[checks][:, None, None]
            alice2, bob2 = (local / q2 for local in pairs.second.local_states())
            low_a = _dominance_lows(alice2, alice1)
            low_b = _dominance_lows(bob2, bob1)
            min_alice = min(min_alice, float(low_a.min()))
            min_bob = min(min_bob, float(low_b.min()))
            margins[checks] = np.minimum(low_a, low_b)
        if len(level):
            row = int(np.argmin(margins[classes]))  # the first lowest row
            node = (float(margins[classes[row]]), int(level.seeds[row]), depth, row)
            if node < lowest[:4]:
                lowest = (*node, level.label(row))

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


def _success(protocol: Protocol, leaves: "locc.Level", weights: np.ndarray) -> float:
    """The SUCC probability of one case's last level, ``leaves``, scored as
    ``run`` scores it (``locc._score_leaves``)."""
    scores = locc._score_leaves(protocol, leaves)
    return locc._totals(scores.entries, scores.scored.probabilities, scores.accept, weights[scores.leaves.seeds])[2]


