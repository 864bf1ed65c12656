"""Exact values of the built-in protocols: depolarization and witness
values from a Pauli frame, and per-input measure-r values of the 0-bit
protocols.

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
``make_simple_random_hash`` documents.  The fidelity model's witness is
Bell-diagonal too: (1 - eps') on the perfect block plus eps' on the
maximally mixed state, which weights every pattern eps'/4^n.

A measure-r error state leaves its intact pairs perfect and each
measured pair in |00> or |11>, whose phi+ overlap is 1/2.  A protocol
without rounds only picks its output pair per seed, so its value on an
error state is the share of seeds whose output pair is intact, plus half
the rest.

This module reads only public names: it must not share a blind spot
with the runner.
"""

import itertools
import math
from fractions import Fraction

import pytest

from edplab.errmodels import DepolarizationModel, FidelityModel, enumerate_indicators, error_state
from edplab.locc import (
    make_first_pair,
    make_random_pair,
    make_random_permutation,
    make_simple_random_hash,
    model_fidelities,
    run,
    witness_fidelities,
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


def _depolarization(n: int) -> list[Fraction]:
    """The depolarization (n, P) weight of a Bell pattern, by its number
    of pairs off phi+."""
    p = Fraction(P)
    return [(1 - 3 * p / 4) ** (n - k) * (p / 4) ** k for k in range(n + 1)]


def _witness(n: int, epsilon: float) -> list[Fraction]:
    """The witness's weight of a Bell pattern, by its number of pairs off
    phi+: eps' = 4^n eps / (4^n - 1) is taken as the float the model
    weights its parts with."""
    dim = 4**n
    mixed = Fraction(epsilon * dim / (dim - 1)) / dim
    return [1 - mixed * dim + mixed] + [mixed] * n


def _exact(
    n: int, seeds: list[tuple[tuple[tuple[int, ...], ...], int]], weight: list[Fraction]
) -> tuple[Fraction, Fraction]:
    """Fidelity and conditional fidelity, exact, on the Bell-diagonal input
    that gives a pattern with k pairs off phi+ the weight ``weight[k]``, of
    a protocol whose equally weighted seeds are (per-round parity members,
    output pair), round k checking pair n-1-k.  Pair j's bits are bit j of
    the ints a and b."""
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


def _assert_exact(values: tuple[float, ...], exact: tuple[Fraction, ...]) -> None:
    tol = ULPS * math.ulp(1.0)
    assert all(abs(Fraction(value) - want) <= tol for value, want in zip(values, exact, strict=True))


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_depolarization_values_are_exact(cell):
    maker, n, s = CELLS[cell]
    values = model_fidelities(maker(n) if s is None else maker(n, s), DepolarizationModel(n, P))
    _assert_exact(values, _exact(n, _seeds(maker, n, s), _depolarization(n)))


# the bench's witness cells, and a protocol whose seeds pick every output pair
WITNESS_CELLS = {
    **{f"hash-{n}-{s}": (make_simple_random_hash, n, s) for n, s in ((3, 1), (3, 2), (4, 1), (4, 2), (5, 1))},
    **{f"random-permutation-{n}": (make_random_permutation, n, None) for n in (3, 4, 5)},
}
EPSILONS = (0.1, 0.25)


@pytest.mark.parametrize("cell", sorted(WITNESS_CELLS))
def test_witness_values_are_exact(cell):
    maker, n, s = WITNESS_CELLS[cell]
    protocol = maker(n) if s is None else maker(n, s)
    _, results = witness_fidelities(protocol, EPSILONS)
    for epsilon, values in zip(EPSILONS, results, strict=True):
        exact = _exact(n, _seeds(maker, n, s), _witness(n, epsilon))
        _assert_exact(values, exact)
        _assert_exact(model_fidelities(protocol, FidelityModel(n, epsilon)), exact)


@pytest.mark.parametrize("maker", [make_first_pair, make_random_pair, make_random_permutation])
def test_measure_r_values_per_input_are_exact(maker):
    for n in range(1, 6):
        protocol, outputs = maker(n), [out for _, out in _seeds(maker, n, None)]
        for r in range(n + 1):
            for v in enumerate_indicators(n, r):
                exact = sum(Fraction(1) if v.entries[out] == "*" else Fraction(1, 2) for out in outputs) / len(outputs)
                rho = run(protocol, error_state(v)).output.matrix
                fid = (rho[0, 0] + rho[0, 3] + rho[3, 0] + rho[3, 3]).real / 2  # <phi+| rho |phi+>
                _assert_exact((fid,), (exact,))


def test_frame_matches_the_protocols_it_stands_for():
    # with no rounds the frame's value is 1 - 3p/4 whatever the output
    # pair, and its hash seeds are as many as the protocol's
    assert _exact(3, _seeds(make_random_pair, 3, None), _depolarization(3)) == (1 - Fraction(3, 4) * Fraction(P),) * 2
    # the witness weights sum to 1 over the 4^n patterns
    weights = _witness(2, 0.25)
    assert sum(math.comb(2, k) * 3**k * w for k, w in enumerate(weights)) == 1
    assert len(_seeds(make_simple_random_hash, 4, 3)) == make_simple_random_hash(4, 3).n_seeds == 8 * 4 * 2
