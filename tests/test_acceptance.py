"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its measured margin so a -s run doubles as the report.

Criteria (tolerances pinned here, nothing deferred):
  1. uniform pair choice over measure-r equals 1 - r/2n exactly (1e-12),
     all n <= 5, runtime < 10 s
  2. first-pair over depolarization equals 1 - 3p/4 (1e-10), n <= 3
  3. unitary ascent (n <= 2, <= 2 ancillas, 32 restarts) never exceeds
     the claimed ceilings + 1e-6; each run < 5 min
  4. five lemma sweeps, 1000 seeded instances each, zero violations,
     < 60 s total
  5. splitting dominance and q >= p^2/2^s (>= -1e-9) on the parity hash
     and 200 random protocols
  6. conditional-fidelity squeeze on the canonical witness: parity hash
     meets 1 - 2^-s/(1-eps) - 1e-9 and every tested protocol stays
     under 1 - eps*p/2^(s+1) + 1e-9
  7. counting identities exact for n <= 6 (binary) / n <= 5 (extended);
     depolarization equals the binomial corruption mixture entrywise
     (1e-9) for n <= 3
  8. identical CLI invocations are byte-identical
"""

import math
import time

import numpy as np
import pytest

from edplab import verify
from edplab.cli import main
from edplab.errmodels import (
    DepolarizationModel,
    FidelityModel,
    MeasureRModel,
    collapse,
    depolarization_state,
    random_corrupt_ensemble,
)
from edplab.locc import (
    ConditionalOutputUndefined,
    conditional_fidelity,
    make_first_pair,
    make_random_pair,
    make_simple_random_hash,
    protocol_fidelity,
    run,
)
from edplab.optimize import AscentConfig
from edplab.qcore import DensityMatrix, base_fidelity, epr_state
from edplab.sampling import random_protocol
from edplab.rng import substream


def report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_criterion_1_random_pair_measure_r_exact():
    start = time.time()
    worst = 0.0
    for n in range(1, 6):
        proto = make_random_pair(n)
        for r in range(n + 1):
            value = protocol_fidelity(proto, MeasureRModel(n, r))
            worst = max(worst, abs(value - (1 - r / (2 * n))))
            assert abs(value - (1 - r / (2 * n))) <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(
        "criterion-1 random-pair/measure-r",
        f"n<=5 all r, worst |dev| {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_first_pair_depolarization():
    worst = 0.0
    for n in range(1, 4):
        proto = make_first_pair(n)
        for p in np.linspace(0.0, 1.0, 11):
            value = protocol_fidelity(proto, DepolarizationModel(n, float(p)))
            worst = max(worst, abs(value - (1 - 0.75 * float(p))))
            assert abs(value - (1 - 0.75 * float(p))) <= 1e-10
    report("criterion-2 first-pair/depolarization", f"n<=3, p grid, worst |dev| {worst:.2e}")


def test_criterion_3_unitary_ascent_never_beats_bounds():
    config = AscentConfig(restarts=32, seed=2026)
    cases = []
    for n in (1, 2):
        for r in range(n + 1):
            start = time.time()
            rep = verify.optimize_0bit_measure_r(n, r, ancillas=2, config=config)
            elapsed = time.time() - start
            assert elapsed < 300.0
            assert rep.achieved <= rep.bound + 1e-6, rep
            assert rep.achieved >= rep.floor - 1e-6, rep
            assert rep.passed
            cases.append((f"m(n={n},r={r})", rep.bound - rep.achieved, elapsed))
    for n, p in ((1, 0.5), (2, 0.4)):
        start = time.time()
        rep = verify.optimize_0bit_depolarization(n, p, ancillas=2, config=config)
        elapsed = time.time() - start
        assert elapsed < 300.0
        assert rep.achieved <= rep.bound + 1e-6, rep
        assert rep.achieved >= rep.floor - 1e-6, rep
        assert rep.passed
        cases.append((f"d(n={n},p={p})", rep.bound - rep.achieved, elapsed))
    detail = "; ".join(f"{name} slack {slack:.2e} ({t:.2f}s)" for name, slack, t in cases)
    report("criterion-3 ascent bounds", detail)


def test_criterion_4_lemma_sweeps_1000_instances():
    start = time.time()
    reports = verify.lemma_suite(seed=7, count=1000)
    elapsed = time.time() - start
    assert elapsed < 60.0
    for rep in reports:
        assert rep.instances == 1000
        assert rep.violations == 0, rep
        assert rep.passed
    detail = ", ".join(f"{r.lemma} worst {r.worst_margin:.1e}" for r in reports)
    report("criterion-4 lemma sweeps", f"{detail}; {elapsed:.1f}s")


def test_criterion_5_splitting_hash_and_random_protocols():
    worst_node = 0.0
    worst_success = 0.0
    for n in (2, 3):
        for s in range(1, min(n, 4)):
            rep = verify.verify_splitting(make_simple_random_hash(n, s))
            assert rep.passed, rep
            assert rep.initial_condition_ok
            worst_node = min(worst_node, rep.min_alice_margin, rep.min_bob_margin)
            worst_success = min(worst_success, rep.success_margin)
    checked = 0
    index = 0
    while checked < 200:
        gen = substream(424242, "acceptance-splitting", index)
        index += 1
        n = int(gen.integers(1, 4))
        rounds = int(gen.integers(1, 4))
        proto = random_protocol(
            gen,
            n,
            rounds,
            n_seeds=int(gen.integers(1, 3)),
            kraus_per_branch=int(gen.integers(1, 3)),
        )
        rep = verify.verify_splitting(proto)
        assert rep.passed, (index, rep)
        assert rep.min_alice_margin >= -1e-9 and rep.min_bob_margin >= -1e-9
        assert rep.success_margin >= -1e-9
        worst_node = min(worst_node, rep.min_alice_margin, rep.min_bob_margin)
        worst_success = min(worst_success, rep.success_margin)
        checked += 1
    report(
        "criterion-5 splitting",
        f"hash + 200 random protocols, worst node margin {worst_node:.2e}, "
        f"worst q-p^2/2^s {worst_success:.2e}",
    )


def test_criterion_6_conditional_fidelity_squeeze():
    # lower side: the parity hash on the canonical witness
    lower_cases = []
    for n in (2, 3, 4):
        for s in range(1, min(n, 4)):
            proto = make_simple_random_hash(n, s)
            psi_run = run(proto, epr_state(n))
            mixed_run = run(proto, DensityMatrix.maximally_mixed(n, n))
            for eps in (0.1, 0.25):
                dim = 1 << (2 * n)
                eps_prime = eps * dim / (dim - 1)
                accept = (1 - eps_prime) * psi_run.success_probability
                accept += eps_prime * mixed_run.success_probability
                post = (1 - eps_prime) * psi_run.success_probability * base_fidelity(
                    psi_run.conditional_output
                )
                post += eps_prime * mixed_run.success_probability * base_fidelity(
                    mixed_run.conditional_output
                )
                value = post / accept
                bound = 1 - 2.0**-s / (1 - eps)
                assert value >= bound - 1e-9, (n, s, eps, value, bound)
                # the combined-run shortcut must agree with the direct witness run
                if n <= 3:
                    direct = conditional_fidelity(proto, FidelityModel(n, eps))
                    assert direct == pytest.approx(value, abs=1e-10)
                lower_cases.append(value - bound)
    # upper side: every tested protocol respects the ceiling
    upper_margin = math.inf
    for n in (2, 3):
        for s in range(1, min(n, 4)):
            proto = make_simple_random_hash(n, s)
            for eps in (0.1, 0.25):
                rep = verify.verify_neg_fidelity(proto, eps)
                assert rep.passed, rep
                upper_margin = min(upper_margin, rep.margin)
    checked = 0
    index = 0
    while checked < 60:
        gen = substream(31337, "acceptance-neg-fidelity", index)
        index += 1
        n = int(gen.integers(1, 3))
        proto = random_protocol(gen, n, int(gen.integers(0, 4)), n_seeds=1)
        try:
            rep = verify.verify_neg_fidelity(proto, 0.25)
        except ConditionalOutputUndefined:
            continue
        assert rep.passed, (index, rep)
        upper_margin = min(upper_margin, rep.margin)
        checked += 1
    report(
        "criterion-6 conditional-fidelity squeeze",
        f"hash clearance min {min(lower_cases):.3e}; ceiling margin min {upper_margin:.3e} "
        f"(hash n<=4 + 60 random protocols)",
    )


def test_criterion_7_counting_and_corruption_mixture():
    for rep in verify.verify_counting(n_max_binary=6, n_max_extended=5):
        assert rep.passed, rep
        assert rep.mismatches == 0
    worst = 0.0
    for n in (1, 2, 3):
        for p in (0.1, 0.3, 0.7):
            dim = 1 << (2 * n)
            acc = np.zeros((dim, dim), dtype=np.complex128)
            for r in range(n + 1):
                weight = math.comb(n, r) * p**r * (1 - p) ** (n - r)
                acc += weight * collapse(random_corrupt_ensemble(n, r)).matrix
            dev = float(np.abs(acc - depolarization_state(n, p).matrix).max())
            worst = max(worst, dev)
            assert dev <= 1e-9
    report(
        "criterion-7 exact counting + corruption mixture",
        f"identities exact; worst entrywise mixture deviation {worst:.2e}",
    )


def test_criterion_8_cli_determinism(tmp_path):
    pairs = []
    for tag in ("a", "b"):
        lemmas = tmp_path / f"lemmas-{tag}.json"
        sweep = tmp_path / f"sweep-{tag}.csv"
        bounds = tmp_path / f"bounds-{tag}.json"
        assert main(["lemmas", "--count", "200", "--seed", "12", "--out", str(lemmas)]) == 0
        assert (
            main(
                ["sweep", "--model", "measure-r", "--n", "1..3", "--r", "all",
                 "--seed", "12", "--format", "csv", "--out", str(sweep)]
            )
            == 0
        )
        assert (
            main(
                ["bounds", "--model", "measure-r", "--n", "1", "--r", "1",
                 "--restarts", "3", "--seed", "12", "--out", str(bounds)]
            )
            == 0
        )
        pairs.append((lemmas.read_bytes(), sweep.read_bytes(), bounds.read_bytes()))
    assert pairs[0] == pairs[1]
    report("criterion-8 determinism", "lemmas/sweep/bounds byte-identical across reruns")
