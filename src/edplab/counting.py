"""Exact counting identities: the two joint-consistency counts of
indicator vectors, brute-forced in integer arithmetic, and the aggregate
binomial identities behind the averaged bounds, in exact rationals.

No command of the CLI runs them, so ``import edplab.cli`` loads neither
this module nor ``fractions``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from .errmodels import enumerate_extended, enumerate_indicators


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
