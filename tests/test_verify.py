import itertools

import numpy as np
import pytest

from edplab import counting, locc, splitting, verify
from edplab.errmodels import consistent_extended, enumerate_extended
from edplab.locc import (
    AlwaysAccept,
    ConditionalOutputUndefined,
    ConstantAccept,
    Instrument,
    Protocol,
    Round,
    make_simple_random_hash,
    run,
)
from edplab.optimize import AscentConfig
from edplab.qcore import (
    ALICE,
    BOB,
    DensityMatrix,
    ProductState,
    base_fidelity,
    bell_identity_check,
    epr_state,
    fidelity,
    pauli_deviation_sum,
)
from edplab.rng import substream
from edplab.sampling import (
    random_density_matrix,
    random_kraus_channel,
    random_product_pure,
    random_protocol,
    random_pure_state,
    random_separable_mixture,
)

QUICK = AscentConfig(restarts=3, steps=300, seed=11)


# ---------------------------------------------------------------------------
# dominance


def test_dominance_reflexive():
    rho = random_density_matrix(np.random.default_rng(1), 1, 1).matrix
    rep = splitting.check_dominance(rho, rho)
    assert rep.holds
    assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_identity_dominates_any_state():
    rng = np.random.default_rng(2)
    for _ in range(20):
        rho = random_density_matrix(rng, 1, 1).matrix
        assert splitting.check_dominance(np.eye(4), rho).holds


def test_dominance_rejects_non_hermitian():
    with pytest.raises(ValueError):
        splitting.check_dominance(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))


def test_dominance_preserved_by_channels():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = random_density_matrix(rng, 1, 0).matrix * float(rng.uniform(1, 2))
        b = a - random_density_matrix(rng, 1, 0).matrix * float(rng.uniform(0, 0.5))
        b = (b + b.conj().T) / 2
        if not splitting.check_dominance(a, b).holds:
            continue
        kraus = random_kraus_channel(rng, 2)
        a2 = sum(k @ a @ k.conj().T for k in kraus)
        b2 = sum(k @ b @ k.conj().T for k in kraus)
        assert splitting.check_dominance(a2, b2).holds


def test_dominance_transitive_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(30):
        c = random_density_matrix(rng, 1, 0).matrix
        b = c + random_density_matrix(rng, 1, 0).matrix * 0.3
        a = b + random_density_matrix(rng, 1, 0).matrix * 0.3
        assert splitting.check_dominance(a, b).holds
        assert splitting.check_dominance(b, c).holds
        assert splitting.check_dominance(a, c).holds


# ---------------------------------------------------------------------------
# splitting


def test_splitting_zero_round_always_succ():
    proto = Protocol(1, (1.0,), (), AlwaysAccept(), (0,))
    rep = splitting.verify_splitting(proto)
    assert rep.passed and rep.initial_condition_ok
    assert rep.p_success_perfect == pytest.approx(1.0)
    assert rep.q_success_mixed == pytest.approx(1.0)


def test_splitting_constant_accept_without_rounds_gives_p_equals_q():
    proto = Protocol(2, (1.0,), (), ConstantAccept(0.37), (0,))
    rep = splitting.verify_splitting(proto)
    assert rep.passed
    assert rep.p_success_perfect == pytest.approx(rep.q_success_mixed, abs=1e-12)


def test_splitting_on_simple_random_hash():
    for n, s in ((2, 1), (3, 1), (3, 2)):
        rep = splitting.verify_splitting(make_simple_random_hash(n, s))
        assert rep.passed, rep
        assert rep.initial_condition_ok
        # the hash saturates the success inequality: q = 2^-s = p^2/2^s
        assert rep.success_margin == pytest.approx(0.0, abs=1e-10)


def _splitting_sweep_protocols():
    for i in range(40):
        gen = substream(77, "test-splitting", i)
        n = int(gen.integers(1, 4))
        rounds = int(gen.integers(1, 4))
        yield random_protocol(
            gen, n, rounds, n_seeds=int(gen.integers(1, 3)),
            kraus_per_branch=int(gen.integers(1, 3)),
            with_listeners=bool(i % 2),
        )


def test_splitting_random_protocol_sweep():
    # listener unitaries are local channels, so the dominance chain must
    # survive them too
    for i, proto in enumerate(_splitting_sweep_protocols()):
        rep = splitting.verify_splitting(proto)
        assert rep.passed, (i, rep)


def _splitting_run_cases():
    for n, s in ((2, 1), (3, 1), (3, 2)):
        yield make_simple_random_hash(n, s)
    for i in range(6):
        gen = substream(77, "test-splitting-run", i)
        yield random_protocol(
            gen, int(gen.integers(1, 3)), int(gen.integers(1, 4)), n_seeds=int(gen.integers(1, 3)),
            kraus_per_branch=1 + i % 2, accept_kind="povm", with_listeners=bool(i % 2),
        )


def test_splitting_success_probabilities_are_runs():
    # the tracker scores leaves through run's helper, so wherever run walks
    # each input as one block, p and q are run's success probabilities bit
    # for bit
    for proto in _splitting_run_cases():
        n = proto.n_pairs
        perfect, mixed = run(proto, epr_state(n)), run(proto, ProductState.maximally_mixed(n, n))
        assert perfect.stats.seed_blocks == mixed.stats.seed_blocks == 1
        rep = splitting.verify_splitting(proto)
        assert rep.p_success_perfect == perfect.success_probability
        assert rep.q_success_mixed == mixed.success_probability


def test_splitting_scores_case_two_below_a_vanished_case_one_node():
    # Alice, Bob and Alice measure Z on one pair: on the perfect block the
    # nodes 01 and 10 vanish, on the mixed input each holds 1/4, so the walk
    # expands them for case II, and q counts leaves that case I never reaches
    z = Instrument(branches=((np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),)))
    proto = Protocol(1, (1.0,), (Round(ALICE, (z,)), Round(BOB, (z,)), Round(ALICE, (z,))), AlwaysAccept(), (0,))
    rep = splitting.verify_splitting(proto)
    assert rep.p_success_perfect == pytest.approx(1.0, abs=1e-15)
    assert rep.q_success_mixed == pytest.approx(1.0, abs=1e-15)
    assert rep.nodes_checked == 7 and rep.passed


def test_splitting_fails_where_case_two_vanishes_under_a_live_node():
    # Bob measures Z, then Alice's branch 0 keeps a weight 3e-12 of |0>:
    # on transcript 00 case I keeps 1.5e-12 >= PROB_TOL, case II 7.5e-13
    z = Instrument(branches=((np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),)))
    faint = 3e-12
    thin = Instrument(branches=((np.diag([np.sqrt(faint), 0.0]),), (np.diag([np.sqrt(1 - faint), 1.0]),)))
    proto = Protocol(1, (1.0,), (Round(BOB, (z,)), Round(ALICE, (thin,))), AlwaysAccept(), (0,))
    rep = splitting.verify_splitting(proto)
    assert rep.passed is False
    assert rep.worst_node == (0, "00")


class _BobSkewedMixed:
    """Stands in for ``ProductState`` in the tracker's walk: case II's Bob
    factor is not I/2^n, so Bob's dominance fails at every root and
    Alice's holds, as a runner that broke only Bob's side would show it."""

    @staticmethod
    def maximally_mixed(n_alice, n_bob):
        d = 1 << n_bob
        bob = np.diag(np.linspace(0.5, 1.5, d)) / d
        return ProductState(DensityMatrix(n_alice, 0, np.eye(1 << n_alice) / (1 << n_alice)), DensityMatrix(0, n_bob, bob))


def test_splitting_node_margin_takes_the_lower_party(monkeypatch):
    # ``passed`` and ``worst_node`` turn where the tolerance crosses the
    # lower of the two parties' minima, which is Bob's here; the tracker
    # builds its roots with ``locc.frontier_of``, and ``splitting.frontier_of``
    # is redirected for the initial-condition check only, which so holds
    monkeypatch.setattr(splitting, "ProductState", _BobSkewedMixed)
    real = splitting.frontier_of
    monkeypatch.setattr(
        splitting, "frontier_of",
        lambda st: real(ProductState.maximally_mixed(st.n_alice, st.n_bob) if isinstance(st, ProductState) else st),
    )
    for i in range(6):
        gen = substream(77, "test-splitting-bob", i)
        proto = random_protocol(
            gen, int(gen.integers(1, 3)), int(gen.integers(1, 3)), n_seeds=int(gen.integers(1, 3)),
            kraus_per_branch=int(gen.integers(1, 3)), with_listeners=bool(i % 2),
        )
        rep = splitting.verify_splitting(proto)
        low = min(rep.min_alice_margin, rep.min_bob_margin)
        assert rep.min_bob_margin < rep.min_alice_margin - 0.1, rep
        below = splitting.verify_splitting(proto, tol=-low - 1e-9)
        above = splitting.verify_splitting(proto, tol=-low + 1e-9)
        assert below.worst_node is not None and below.passed is False
        assert above.worst_node is None and above.passed is True


def test_splitting_beyond_three_pairs():
    # no size limit below the qubit cap: the tracker holds one level of
    # the transcript tree at a time
    for n, s in ((4, 3), (5, 2)):
        rep = splitting.verify_splitting(make_simple_random_hash(n, s))
        assert rep.passed, rep
        assert rep.initial_condition_ok
        assert rep.success_margin == pytest.approx(0.0, abs=1e-10)
    # two Kraus operators per branch turn the perfect block dense, which
    # costs seconds per protocol at n = 5; the n = 4 draws cover that path
    for i, (n, kraus) in enumerate(((4, 2), (4, 2), (5, 1), (5, 1))):
        gen = substream(77, "test-splitting-large", i)
        proto = random_protocol(
            gen, n, int(gen.integers(1, 4)), n_seeds=int(gen.integers(1, 3)),
            kraus_per_branch=kraus, with_listeners=bool(i % 2),
        )
        rep = splitting.verify_splitting(proto)
        assert rep.passed, (n, rep)
        assert rep.initial_condition_ok


def test_splitting_closed_form_on_every_hash_up_to_five_pairs():
    # the hash is ideal on the perfect block and accepts the mixed input with
    # probability 2^-s: p = 1, q = 2^-s and success margin 0, with p within
    # 1 ulp of 1 (so the margin within 2 ulps of 1, times 2^-s) and q exact
    ulp = np.spacing(1.0)
    for n in range(2, 6):
        for s in range(1, n):
            rep = splitting.verify_splitting(make_simple_random_hash(n, s))
            assert rep.passed and rep.worst_node is None, (n, s, rep)
            assert 1.0 <= rep.p_success_perfect <= 1.0 + ulp, (n, s)
            assert rep.q_success_mixed == 2.0**-s, (n, s)
            assert 0.0 >= rep.success_margin >= -2 * ulp * 2.0**-s, (n, s)


@pytest.mark.parametrize("s, checked", [(3, 7680), (4, 31744)])
def test_splitting_report_of_full_size_hash(s, checked):
    # every node of hash (5, s) is checked, and both parties' margins are 0
    # up to the eigenvalue solver's rounding
    rep = splitting.verify_splitting(make_simple_random_hash(5, s))
    assert (rep.n, rep.bits, rep.initial_condition_ok, rep.worst_node, rep.nodes_checked, rep.passed) == (
        5, s, True, None, checked, True
    )
    assert rep.min_alice_margin == rep.min_bob_margin == pytest.approx(0.0, abs=1e-16)
    assert rep.p_success_perfect in (1.0, 1.0 + np.spacing(1.0))
    assert rep.q_success_mixed == 2.0**-s
    assert rep.success_margin == rep.q_success_mixed - rep.p_success_perfect**2 / 2**s


_SPLITTING_TOLS = (1e-9, -1e-3, -0.05, -0.3, -1.0)


def test_splitting_reports_survive_a_cut_walk(monkeypatch):
    # under a 4 KiB budget the tracker's walk applies one triple at a time
    # and cuts the two-seed protocols into one block per seed; every node is
    # checked as before, so the margins, counts and worst nodes stay, and p
    # and q, summed in other blocks, stay within 4 ulps (2 seen)
    cases = [make_simple_random_hash(4, 3), *_splitting_sweep_protocols()]
    whole = [[splitting.verify_splitting(proto, tol) for tol in _SPLITTING_TOLS] for proto in cases]
    monkeypatch.setattr(locc, "FRONTIER_BUDGET_BYTES", 1 << 12)
    blocks = []
    real = locc._walk

    def counted(protocol, roots, seeds):
        for level in real(protocol, roots, seeds):
            blocks[-1] += level.depth == protocol.bits
            yield level

    monkeypatch.setattr(locc, "_walk", counted)
    for proto, reports in zip(cases, whole):
        for tol, ref in zip(_SPLITTING_TOLS, reports):
            blocks.append(0)
            rep = splitting.verify_splitting(proto, tol)
            for name in ("initial_condition_ok", "min_alice_margin", "min_bob_margin", "worst_node",
                         "nodes_checked", "passed"):
                assert getattr(rep, name) == getattr(ref, name), (name, tol, proto.n_pairs)
            for name in ("p_success_perfect", "q_success_mixed"):
                assert abs(getattr(rep, name) - getattr(ref, name)) <= 4 * np.spacing(getattr(ref, name)), name
    assert sum(b > 1 for b in blocks) > len(blocks) // 4  # the two-seed protocols are cut


# ---------------------------------------------------------------------------
# bound probes


def test_measure_r_probe_n1():
    rep = verify.optimize_0bit_measure_r(1, 1, ancillas=1, config=QUICK)
    assert rep.passed and not rep.falsified
    assert rep.bound == pytest.approx(0.5)
    assert rep.floor == pytest.approx(0.5, abs=1e-12)
    assert rep.achieved <= rep.bound + 1e-6
    assert rep.achieved >= rep.floor - 1e-6


def test_measure_r_probe_n2():
    rep = verify.optimize_0bit_measure_r(2, 1, ancillas=1, config=QUICK)
    assert rep.passed
    assert rep.bound == pytest.approx(0.75)
    assert rep.achieved == pytest.approx(0.75, abs=1e-6)


def test_measure_r_probe_rejects_large_class():
    with pytest.raises(ValueError):
        verify.optimize_0bit_measure_r(4, 1)
    with pytest.raises(ValueError):
        verify.optimize_0bit_measure_r(2, 1, ancillas=3)


def test_depolarization_probe_trivial_p0():
    rep = verify.optimize_0bit_depolarization(1, 0.0, ancillas=0, config=QUICK)
    assert rep.passed
    assert rep.bound == pytest.approx(1.0)
    assert rep.achieved == pytest.approx(1.0, abs=1e-9)


def test_depolarization_probe_sits_between_floor_and_bound():
    rep = verify.optimize_0bit_depolarization(1, 0.5, ancillas=1, config=QUICK)
    assert rep.passed
    assert rep.floor == pytest.approx(0.625, abs=1e-12)
    assert rep.bound == pytest.approx(0.75)
    assert rep.floor - 1e-6 <= rep.achieved <= rep.bound + 1e-6


def test_bound_report_records():
    rep = verify.optimize_0bit_measure_r(1, 0, ancillas=0, config=QUICK)
    rec = rep.to_record()
    assert rec["theorem"] == "neg-measure-r"
    assert rec["param_n"] == 1 and rec["param_r"] == 0
    assert set(rec) >= {"bound", "achieved", "margin", "pass", "seed", "notes"}


# ---------------------------------------------------------------------------
# fidelity-model bounds


def test_neg_fidelity_on_hash():
    for (n, s), eps in itertools.product(((2, 1), (3, 2)), (0.1, 0.25)):
        rep = verify.verify_neg_fidelity(make_simple_random_hash(n, s), eps)
        assert rep.passed, rep
        assert rep.bound == pytest.approx(1 - eps / 2 ** (s + 1))


def test_neg_fidelity_on_random_protocols():
    checked = 0
    i = 0
    while checked < 25:
        gen = substream(99, "test-neg-fidelity", i)
        i += 1
        n = int(gen.integers(1, 3))
        proto = random_protocol(gen, n, int(gen.integers(0, 4)), n_seeds=1)
        try:
            rep = verify.verify_neg_fidelity(proto, 0.2)
        except ConditionalOutputUndefined:
            continue
        checked += 1
        assert rep.passed, (i, rep)


def test_hash_fidelity_reports_equal_the_separate_reports():
    for n, s, eps in ((2, 1, 0.1), (3, 2, 0.25), (4, 1, 0.2)):
        joint = [rep.to_record() for rep in verify.hash_fidelity_reports(n, s, eps)]
        assert joint == [
            verify.pos_fidelity_reports(n, s, [eps])[0].to_record(),
            verify.verify_neg_fidelity(make_simple_random_hash(n, s), eps).to_record(),
        ]


def test_pos_fidelity_reports():
    for n, s, eps in ((2, 1, 0.1), (2, 1, 0.25), (3, 2, 0.25)):
        (rep,) = verify.pos_fidelity_reports(n, s, [eps])
        assert rep.passed
        assert rep.achieved >= rep.bound - 1e-9


def test_no_comm_probe_exact_value_and_flag():
    eps = 0.2
    rep = verify.no_comm_fidelity_report(2, eps)
    eps_prime = eps * 16 / 15
    assert rep.achieved == pytest.approx(1 - 0.75 * eps_prime, abs=1e-12)
    assert not rep.passed and rep.falsified
    # at a single pair the claimed floor coincides with the exact value
    rep1 = verify.no_comm_fidelity_report(1, eps)
    assert rep1.passed and not rep1.falsified


# ---------------------------------------------------------------------------
# lemma suite


def test_lemma_suite_passes_and_is_deterministic():
    a = verify.lemma_suite(seed=5, count=60)
    b = verify.lemma_suite(seed=5, count=60)
    assert [r.to_record() for r in a] == [r.to_record() for r in b]
    assert all(r.passed for r in a)
    names = {r.lemma for r in a}
    assert names == {
        "pauli-deviation-cap",
        "bell-base-fidelity-identity",
        "disentangled-base-fidelity-cap",
        "fidelity-linearity",
        "fidelity-monotonicity",
    }


def test_lemma_suite_tolerance_override_fails():
    reports = verify.lemma_suite(seed=5, count=60, tolerance_override=1e-15)
    assert any(not r.passed for r in reports)


def test_lemma_suite_golden_stream():
    # pins the generator stream and the margin arithmetic bit for bit:
    # these are the values of the unfused, one-state-at-a-time sweep
    reports = verify.lemma_suite(seed=7, count=300)
    assert [(r.lemma, repr(r.worst_margin), r.instances, r.violations) for r in reports] == [
        ("pauli-deviation-cap", "0.08575891412604242", 300, 0),
        ("bell-base-fidelity-identity", "-8.881784197001252e-16", 300, 0),
        ("disentangled-base-fidelity-cap", "0.0004987246105332965", 300, 0),
        ("fidelity-linearity", "-1.8318679906315083e-15", 300, 0),
        ("fidelity-monotonicity", "0.002812898151622001", 300, 0),
    ]


def _scalar_margins(seed, count):
    """The five lemma margin lists, drawn as ``lemma_suite`` draws them and
    evaluated one instance at a time through the state-level functions."""
    out = []
    gen = substream(seed, "lemma", "pauli-deviation")
    margins = []
    for _ in range(count):
        total = int(gen.integers(2, 6))
        na = int(gen.integers(1, total))
        phi = random_pure_state(gen, na, total - na)
        psi = random_pure_state(gen, na, total - na)
        margins.append(2.0 - pauli_deviation_sum(phi, psi))
    out.append(margins)
    gen = substream(seed, "lemma", "bell-identity")
    margins = []
    for _ in range(count):
        na = int(gen.integers(1, 3))
        nb = int(gen.integers(1, 3))
        lhs, rhs = bell_identity_check(random_pure_state(gen, na, nb))
        margins.append(-abs(lhs - rhs))
    out.append(margins)
    gen = substream(seed, "lemma", "disentangled-cap")
    margins = []
    for i in range(count):
        if i % 2 == 0:
            state = random_product_pure(gen, int(gen.integers(1, 3)), int(gen.integers(1, 3)))
        else:
            state = random_separable_mixture(gen, 1, 1, terms=int(gen.integers(2, 5)))
        margins.append(0.5 - base_fidelity(state))
    out.append(margins)
    gen = substream(seed, "lemma", "linearity")
    margins = []
    for _ in range(count):
        sigma = random_pure_state(gen, 1, 1)
        k = int(gen.integers(2, 5))
        weights = gen.dirichlet(np.ones(k))
        members = [random_pure_state(gen, 1, 1) for _ in range(k)]
        mix = sum(w * m.to_density().matrix for w, m in zip(weights, members))
        combined = fidelity(DensityMatrix(1, 1, mix, validate=False), sigma)
        margins.append(-abs(combined - sum(w * fidelity(m, sigma) for w, m in zip(weights, members))))
    out.append(margins)
    gen = substream(seed, "lemma", "monotonicity")
    margins = []
    for _ in range(count):
        rho = random_density_matrix(gen, 1, 0)
        sigma = random_density_matrix(gen, 1, 0)
        kraus = random_kraus_channel(gen, 2, n_kraus=int(gen.integers(2, 4)))

        def channel(state):
            return DensityMatrix(1, 0, sum(k @ state.matrix @ k.conj().T for k in kraus), validate=False)

        margins.append(fidelity(channel(rho), channel(sigma)) - fidelity(rho, sigma))
    out.append(margins)
    return out


@pytest.mark.parametrize("count", [1, 7, 101])
def test_lemma_blocks_match_one_instance_at_a_time(count):
    # a negative tolerance counts margins below 0.05 as violations, so the
    # violation counts are exercised away from float noise
    for tolerance in (None, -0.05):
        reports = verify.lemma_suite(seed=13, count=count, tolerance_override=tolerance)
        for report, margins in zip(reports, _scalar_margins(13, count)):
            tol = report.tolerance
            assert report.instances == count
            assert report.violations == sum(1 for m in margins if m < -tol)
            assert report.worst_margin == pytest.approx(min(margins), abs=1e-12)


# ---------------------------------------------------------------------------
# counting


def test_counting_reports_all_pass():
    reports = counting.verify_counting()
    assert [r.identity for r in reports] == [
        "binary-joint-consistency",
        "extended-joint-consistency",
        "aggregate-binomial",
    ]
    assert all(r.passed for r in reports)
    assert all(r.mismatches == 0 for r in reports)


def test_extended_joint_counts_match_pure_python_bruteforce():
    # the vectorized Gram-matrix path must agree with a literal triple
    # loop over (c, u) pairs built on consistent_extended
    for n in (1, 2):
        for r in range(n + 1):
            fast = counting._extended_joint_counts(n, r)
            vecs = enumerate_extended(n, r)
            for a in range(1 << n):
                for b in range(1 << n):
                    slow = 0
                    for c in range(1 << n):
                        xa = [int(x) for x in format(a, f"0{n}b")] + [
                            int(x) for x in format(a ^ c, f"0{n}b")
                        ]
                        xb = [int(x) for x in format(b, f"0{n}b")] + [
                            int(x) for x in format(b ^ c, f"0{n}b")
                        ]
                        slow += sum(
                            1
                            for u in vecs
                            if consistent_extended(xa, u) and consistent_extended(xb, u)
                        )
                    assert int(fast[a, b]) == slow


def test_binary_consistency_matrix_is_honest():
    from edplab.errmodels import consistent, enumerate_indicators

    for n in (2, 3):
        for r in range(n + 1):
            cons = counting._binary_consistency_matrix(n, r)
            vecs = enumerate_indicators(n, r)
            for vi, v in enumerate(vecs):
                for x in range(1 << n):
                    bits = [int(c) for c in format(x, f"0{n}b")]
                    assert bool(cons[vi, x]) == consistent(bits, v)


# ---------------------------------------------------------------------------
# one home per bound


def test_exact_reports_match_their_protocol_values():
    rep = verify.random_pair_measure_r_report(3, 2)
    assert rep.theorem == "neg-measure-r"
    assert rep.bound == rep.floor == pytest.approx(2 / 3)
    assert rep.achieved == pytest.approx(2 / 3, abs=1e-12)
    assert rep.passed and not rep.falsified
    rep = verify.first_pair_depolarization_report(2, 0.4)
    assert rep.theorem == "first-pair-depolarization"
    assert rep.bound == rep.floor == pytest.approx(0.7)
    assert rep.achieved == pytest.approx(0.7, abs=1e-12)
    assert rep.passed and not rep.falsified


def test_probe_floors_come_from_the_exact_reports():
    exact = verify.random_pair_measure_r_report(1, 1)
    probe = verify.optimize_0bit_measure_r(1, 1, ancillas=1, config=QUICK)
    assert probe.floor == exact.achieved
    assert probe.bound == exact.bound
    exact = verify.first_pair_depolarization_report(1, 0.5)
    probe = verify.optimize_0bit_depolarization(1, 0.5, ancillas=1, config=QUICK)
    assert probe.floor == exact.achieved
    assert probe.bound == 0.75


def _report(achieved, direction, floor=None):
    # binary fractions, so bound +- tol is exact
    return verify.BoundReport(
        theorem="t", params={}, bound=0.5, achieved=achieved, direction=direction,
        tol=0.25, floor=floor,
    )


def test_bound_report_verdict_at_the_tolerance_edges():
    assert _report(0.75, "upper").passed
    assert not _report(0.875, "upper").passed
    assert _report(0.25, "lower").passed
    assert not _report(0.125, "lower").passed
    # a floor is held to the same tolerance
    assert _report(-0.25, "upper", floor=0.0).passed
    assert not _report(-0.375, "upper", floor=0.0).passed
    assert not _report(0.875, "lower", floor=1.25).passed
    for rep in (_report(0.875, "upper"), _report(0.125, "lower"), _report(0.5, "upper")):
        assert rep.falsified is not rep.passed
    assert _report(0.25, "upper").margin == 0.25
    assert _report(0.25, "lower").margin == -0.25


def test_bound_report_takes_keywords_only():
    with pytest.raises(TypeError):
        verify.BoundReport("t", {}, 0.5, 0.5, "upper", 0.0)  # type: ignore[misc]
