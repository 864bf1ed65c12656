"""Exact depolarization values of the built-in protocols, from a Pauli frame.

The depolarization model's input is Bell-diagonal: each pair is, with
its weight, the Bell state whose bit flip is a and whose phase flip is b
(Bennett, DiVincenzo, Smolin and Wootters, PRA 54, 3824, 1996): phi+
(0, 0) with weight 1 - 3p/4, and phi- (0, 1), psi+ (1, 0) and psi-
(1, 1) with p/4 each.  The hash's circuits are bilateral CNOTs, which
map Bell patterns to Bell patterns: a CNOT from member m into check pair
c sets a_c ^= a_m and b_m ^= b_c.  Both parties then measure the check
pair in the computational basis, and their bits agree iff a_c = 0.  The
output pair is phi+ iff its (a, b) = (0, 0).  So each value is a sum of
pattern weights over (seed, pattern) counts, which ``fractions`` gives
exactly.  The hash's seeds are re-derived here from the order that
``make_simple_random_hash`` documents.

This module reads only public names: it must not share a blind spot
with the runner.
"""

import itertools
import math
from fractions import Fraction

import pytest

from edplab.errmodels import DepolarizationModel
from edplab.locc import (
    make_first_pair,
    make_random_pair,
    make_random_permutation,
    make_simple_random_hash,
    model_fidelities,
)

P = 0.2
ULPS = 16  # the largest gap allowed from the exact value, in ulps of 1.0


def _hash_seeds(n: int, s: int) -> list[tuple[tuple[int, ...], ...]]:
    """Each seed's parity members per round, in ``make_simple_random_hash``
    order: round k checks pair n-1-k, and its choices are the subsets of
    the pairs below it, by size and then in ``itertools.combinations``
    order; the seeds run in ``itertools.product`` order of the rounds'
    choices."""
    rounds = [
        [members for size in range(check + 1) for members in itertools.combinations(range(check), size)]
        for check in range(n - 1, n - 1 - s, -1)
    ]
    return list(itertools.product(*rounds))


def _exact(n: int, seeds: list[tuple[tuple[tuple[int, ...], ...], int]]) -> tuple[Fraction, Fraction]:
    """Fidelity and conditional fidelity on depolarization (n, P), exact,
    of a protocol whose equally weighted seeds are (per-round parity
    members, output pair), round k checking pair n-1-k.  Pair j's bits
    are bit j of the ints a and b."""
    # (seed, pattern) counts per number of pairs off phi+: output phi+, accepted, both
    good, accepted, both = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for rounds, out in seeds:
        for a0, b0 in itertools.product(range(1 << n), repeat=2):
            a, b, ok = a0, b0, True
            for k, members in enumerate(rounds):
                c = n - 1 - k
                for m in members:
                    a ^= ((a >> m) & 1) << c
                    b ^= ((b >> c) & 1) << m
                ok = ok and not (a >> c) & 1
            errors = bin(a0 | b0).count("1")
            phi = not ((a | b) >> out) & 1
            good[errors] += phi
            accepted[errors] += ok
            both[errors] += phi and ok
    p = Fraction(P)
    weight = [(1 - 3 * p / 4) ** (n - k) * (p / 4) ** k for k in range(n + 1)]

    def total(counts):
        return sum(c * w for c, w in zip(counts, weight))

    return total(good) / len(seeds), total(both) / total(accepted)


CELLS = {
    **{f"hash-{n}-{s}": (make_simple_random_hash, n, s) for n, s in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 1))},
    **{f"first-pair-{n}": (make_first_pair, n, None) for n in (1, 3, 5)},
    **{f"random-pair-{n}": (make_random_pair, n, None) for n in (1, 3, 5)},
    **{f"random-permutation-{n}": (make_random_permutation, n, None) for n in (1, 3, 5)},
}


def _seeds(maker, n: int, s: int | None):
    if maker is make_simple_random_hash:
        return [(rounds, 0) for rounds in _hash_seeds(n, s)]
    if maker is make_first_pair:
        return [((), 0)]
    if maker is make_random_pair:
        return [((), j) for j in range(n)]
    return [((), perm[0]) for perm in itertools.permutations(range(n))]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_depolarization_values_are_exact(cell):
    maker, n, s = CELLS[cell]
    fid, cond = model_fidelities(maker(n) if s is None else maker(n, s), DepolarizationModel(n, P))
    exact_fid, exact_cond = _exact(n, _seeds(maker, n, s))
    tol = ULPS * math.ulp(1.0)
    assert abs(Fraction(fid) - exact_fid) <= tol
    assert abs(Fraction(cond) - exact_cond) <= tol


def test_frame_matches_the_protocols_it_stands_for():
    # with no rounds the frame's value is 1 - 3p/4 whatever the output
    # pair, and its hash seeds are as many as the protocol's
    assert _exact(3, _seeds(make_random_pair, 3, None)) == (1 - Fraction(3, 4) * Fraction(P),) * 2
    assert len(_seeds(make_simple_random_hash, 4, 3)) == make_simple_random_hash(4, 3).n_seeds == 8 * 4 * 2
