import math

import numpy as np
import pytest

from edplab.errmodels import (
    DepolarizationModel,
    ExtendedIndicatorVector,
    FidelityModel,
    IndicatorVector,
    MeasureRModel,
    error_state,
    extended_error_state,
    fidelity_witness,
    fidelity_witness_components,
)
from edplab import frontier, locc
from edplab.locc import (
    PROB_TOL,
    AlwaysAccept,
    ConditionalOutputUndefined,
    ConstantAccept,
    Instrument,
    PovmAccept,
    Protocol,
    Round,
    conditional_fidelity,
    make_first_pair,
    make_random_pair,
    make_random_permutation,
    make_simple_random_hash,
    model_fidelities,
    protocol_fidelity,
    run,
    witness_fidelities,
)
from edplab.qcore import (
    ALICE,
    BOB,
    DensityMatrix,
    ProductState,
    base_fidelity,
    bell_state,
    epr_state,
    phi_plus_overlaps,
    tensor,
)
from edplab.sampling import random_density_matrix, random_kraus_channel, random_protocol, random_pure_state


def walk(proto, state, seeds):
    """The runner's walk of one input with ``seeds``."""
    return locc._walk(proto, locc.frontier_of(state), seeds)


def measure_z_instrument(n: int, qubit: int) -> Instrument:
    """Projective computational-basis measurement of one qubit."""
    dim = 1 << n
    branches = []
    for bit in (0, 1):
        diag = np.zeros(dim)
        for x in range(dim):
            if (x >> (n - 1 - qubit)) & 1 == bit:
                diag[x] = 1.0
        branches.append((np.diag(diag).astype(np.complex128),))
    return Instrument(branches=(branches[0], branches[1]))


# ---------------------------------------------------------------------------
# construction checks


def test_instrument_must_be_trace_preserving():
    bad = np.eye(2) * 0.5
    with pytest.raises(ValueError):
        Instrument(branches=((bad,), (bad,)))


def test_instrument_needs_two_branches():
    with pytest.raises(ValueError):
        Instrument(branches=((np.eye(2),),))  # type: ignore[arg-type]


def test_protocol_weight_validation():
    with pytest.raises(ValueError):
        Protocol(1, (0.5, 0.4), (), AlwaysAccept(), (0,))
    with pytest.raises(ValueError):
        Protocol(1, (1.0,), (), AlwaysAccept(), (2,))


def test_protocol_bits_counts_rounds():
    proto = make_simple_random_hash(3, 2)
    assert proto.bits == 2
    assert make_first_pair(2).bits == 0


def test_deterministic_flag():
    assert make_first_pair(3).deterministic
    assert not make_random_pair(3).deterministic


# ---------------------------------------------------------------------------
# run(): basic exactness


def test_first_pair_on_perfect_input():
    result = run(make_first_pair(3), epr_state(3))
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)
    assert base_fidelity(result.output) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        result.output.matrix, bell_state("phi+").to_density().matrix, atol=1e-12
    )


def test_random_pair_on_single_error_state():
    # two seeds: the measured pair contributes 1/2, the intact pair 1
    state = error_state(IndicatorVector.from_string("0*"))
    result = run(make_random_pair(2), state)
    assert base_fidelity(result.output) == pytest.approx(0.75, abs=1e-12)


def test_leaf_probabilities_sum_to_one_per_seed():
    proto = make_simple_random_hash(3, 2)
    result = run(proto, fidelity_witness(3, 0.2))
    totals: dict[tuple[int, int], float] = {}
    for leaf in result.leaves:
        totals[(leaf.component, leaf.seed)] = (
            totals.get((leaf.component, leaf.seed), 0.0) + leaf.probability
        )
    for value in totals.values():
        assert value == pytest.approx(1.0, abs=1e-10)


def test_martingale_node_probabilities():
    rng = np.random.default_rng(101)
    proto = random_protocol(rng, 2, 3)
    state = random_density_matrix(rng, 2, 2)
    levels = list(walk(proto, state, np.arange(proto.n_seeds)))
    assert len(levels) == proto.bits + 1
    for level, children in zip(levels, levels[1:]):
        probability = dict(zip(zip(children.seeds, children.labels), children.probabilities))
        for seed, label, p in zip(level.seeds, level.labels, level.probabilities):
            total = sum(probability.get((seed, label + bit), 0.0) for bit in "01")
            assert p == pytest.approx(total, abs=1e-10)


def test_zero_round_protocol_commutes_with_mixing():
    rng = np.random.default_rng(7)
    proto = make_random_pair(2)
    parts = [random_density_matrix(rng, 2, 2) for _ in range(3)]
    weights = [0.5, 0.3, 0.2]
    mixed = DensityMatrix(
        2, 2, sum(w * p.matrix for w, p in zip(weights, parts)), validate=False
    )
    direct = run(proto, mixed).output.matrix
    split = sum(w * run(proto, p).output.matrix for w, p in zip(weights, parts))
    np.testing.assert_allclose(direct, split, atol=1e-12)


def test_weighted_input_equals_dense_mixture():
    proto = make_simple_random_hash(2, 1)
    eps = 0.2
    eps_prime = (16 / 15) * eps
    weighted = [
        (1 - eps_prime, epr_state(2)),
        (eps_prime, DensityMatrix.maximally_mixed(2, 2)),
    ]
    a = run(proto, weighted)
    b = run(proto, fidelity_witness(2, eps))
    assert a.success_probability == pytest.approx(b.success_probability, abs=1e-12)
    np.testing.assert_allclose(a.output.matrix, b.output.matrix, atol=1e-12)
    np.testing.assert_allclose(
        a.conditional_output.matrix, b.conditional_output.matrix, atol=1e-12
    )


def test_input_shape_rejected():
    with pytest.raises(ValueError):
        run(make_first_pair(2), epr_state(3))


# ---------------------------------------------------------------------------
# local-state splitting behaviour


def _bob_local(level, row):
    """Bob's normalized local state at a row of a ``walk`` level."""
    return level.states().local_states()[1][row] / level.probabilities[row]


def test_receiver_state_unchanged_for_product_input():
    rng = np.random.default_rng(11)
    proto = Protocol(
        n_pairs=1,
        seed_weights=(1.0,),
        rounds=(Round(ALICE, (measure_z_instrument(1, 0),)),),
        accept=AlwaysAccept(),
        output_pair=(0,),
    )
    alice_part = random_density_matrix(rng, 1, 0)
    bob_part = random_density_matrix(rng, 0, 1)
    product = tensor(alice_part, bob_part)
    root, children = walk(proto, product, np.arange(proto.n_seeds))
    (_,) = root.probabilities
    for row, p in enumerate(children.probabilities):
        if p > 1e-12:
            np.testing.assert_allclose(_bob_local(children, row), _bob_local(root, 0), atol=1e-10)


def test_receiver_state_splits_as_mixture_for_entangled_input():
    proto = Protocol(
        n_pairs=1,
        seed_weights=(1.0,),
        rounds=(Round(ALICE, (measure_z_instrument(1, 0),)),),
        accept=AlwaysAccept(),
        output_pair=(0,),
    )
    root, children = walk(proto, bell_state("phi+"), np.arange(proto.n_seeds))
    (p_root,) = root.probabilities
    mix = np.zeros((2, 2), dtype=np.complex128)
    for row, p in enumerate(children.probabilities):
        mix += p * _bob_local(children, row)
    np.testing.assert_allclose(mix / p_root, _bob_local(root, 0), atol=1e-10)


# ---------------------------------------------------------------------------
# model-level fidelities


def test_random_pair_measure_r_exact():
    for n in (1, 2, 3):
        proto = make_random_pair(n)
        for r in range(n + 1):
            value = protocol_fidelity(proto, MeasureRModel(n, r))
            assert abs(value - (1 - r / (2 * n))) < 1e-12


def test_random_pair_all_measured_gives_half():
    proto = make_random_pair(3)
    assert protocol_fidelity(proto, MeasureRModel(3, 3)) == pytest.approx(0.5, abs=1e-12)
    assert protocol_fidelity(proto, MeasureRModel(3, 0)) == pytest.approx(1.0, abs=1e-12)


def test_first_pair_depolarization_exact():
    for n in (1, 2, 3):
        proto = make_first_pair(n)
        for p in (0.0, 0.3, 1.0):
            value = protocol_fidelity(proto, DepolarizationModel(n, p))
            assert value == pytest.approx(1 - 0.75 * p, abs=1e-10)


def test_first_pair_on_measured_first_pair():
    proto = make_first_pair(3)
    state = error_state(IndicatorVector.from_string("0**"))
    assert base_fidelity(run(proto, state).output) == pytest.approx(0.5, abs=1e-12)


def test_conditional_fidelity_undefined_when_never_succ():
    proto = Protocol(
        n_pairs=1,
        seed_weights=(1.0,),
        rounds=(),
        accept=ConstantAccept(0.0),
        output_pair=(0,),
    )
    with pytest.raises(ConditionalOutputUndefined):
        conditional_fidelity(proto, MeasureRModel(1, 0))


# ---------------------------------------------------------------------------
# simple random hash


def test_srh_parameter_validation():
    with pytest.raises(ValueError):
        make_simple_random_hash(2, 2)
    with pytest.raises(ValueError):
        make_simple_random_hash(3, 0)


def test_srh_seed_space_size():
    # one parity choice set per round: 2^(live-1) subsets
    proto = make_simple_random_hash(4, 3)
    assert proto.n_seeds == 8 * 4 * 2
    assert proto.bits == 3


def test_srh_is_ideal():
    for n, s in ((2, 1), (3, 1), (3, 2)):
        proto = make_simple_random_hash(n, s)
        assert witness_fidelities(proto, ())[0] == pytest.approx(1.0, abs=1e-12)
        result = run(proto, epr_state(n))
        assert base_fidelity(result.output) == pytest.approx(1.0, abs=1e-12)


def test_srh_detects_planted_discrepancy_at_half_rate_per_round():
    # a pair whose halves disagree in the computational basis trips a
    # random parity with probability 1/2 in every round
    state = extended_error_state(ExtendedIndicatorVector(("01", "*", "*")))
    for s in (1, 2):
        proto = make_simple_random_hash(3, s)
        result = run(proto, state)
        assert result.success_probability == pytest.approx(0.5**s, abs=1e-12)


def test_srh_accept_probability_on_mixed_block_is_2_to_minus_s():
    for n, s in ((2, 1), (3, 2)):
        proto = make_simple_random_hash(n, s)
        result = run(proto, DensityMatrix.maximally_mixed(n, n))
        assert result.success_probability == pytest.approx(0.5**s, abs=1e-12)
        # conditioned on acceptance the output pair is still maximally mixed
        np.testing.assert_allclose(
            result.conditional_output.matrix, np.eye(4) / 4, atol=1e-10
        )


def test_srh_conditional_fidelity_on_witness_meets_bound():
    for n, s, eps in ((2, 1, 0.25), (3, 2, 0.1)):
        proto = make_simple_random_hash(n, s)
        value = conditional_fidelity(proto, FidelityModel(n, eps))
        assert value >= 1 - 2.0**-s / (1 - eps) - 1e-9


def test_fidelity_model_sampling_tightens_the_minimum():
    proto = make_random_pair(2)
    witness_only = protocol_fidelity(proto, FidelityModel(2, 0.2))
    sampled = protocol_fidelity(proto, FidelityModel(2, 0.2, samples=8, seed=3))
    assert sampled <= witness_only + 1e-12
    hash_proto = make_simple_random_hash(2, 1)
    cond_witness = conditional_fidelity(hash_proto, FidelityModel(2, 0.2))
    cond_sampled = conditional_fidelity(hash_proto, FidelityModel(2, 0.2, samples=6, seed=3))
    assert cond_sampled <= cond_witness + 1e-12


def test_srh_witness_value_matches_closed_form():
    # two-component mixture evaluated by hand: perfect block always
    # accepted with perfect output, mixed block accepted at rate 2^-s
    # with output fidelity 1/4
    for n, s, eps in ((2, 1, 0.2), (3, 2, 0.25)):
        proto = make_simple_random_hash(n, s)
        dim = 1 << (2 * n)
        eps_prime = eps * dim / (dim - 1)
        expected = 1 - 0.75 * eps_prime * 0.5**s / (
            (1 - eps_prime) + eps_prime * 0.5**s
        )
        value = conditional_fidelity(proto, FidelityModel(n, eps))
        assert value == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# random permutation


def test_random_permutation_seed_distribution():
    proto = make_random_permutation(3)
    assert proto.n_seeds == math.factorial(3)
    assert all(w == pytest.approx(1 / 6) for w in proto.seed_weights)
    # output pair is the image of pair 0, uniform over pairs
    counts = {j: proto.output_pair.count(j) for j in range(3)}
    assert counts == {0: 2, 1: 2, 2: 2}


def test_random_permutation_perfect_input():
    proto = make_random_permutation(2)
    assert protocol_fidelity(proto, MeasureRModel(2, 0)) == pytest.approx(1.0, abs=1e-12)


def test_random_permutation_witness_value_exact():
    # derived two-component value: the mixed block contributes pair
    # fidelity 1/4 whichever pair is chosen
    proto = make_random_permutation(2)
    eps = 0.2
    eps_prime = (16 / 15) * eps
    result = run(proto, fidelity_witness(2, eps))
    assert base_fidelity(result.output) == pytest.approx(
        1 - 0.75 * eps_prime, abs=1e-12
    )


@pytest.mark.xfail(
    reason="0-bit ideal protocols are pinned to output fidelity 1-3eps'/4 on the "
    "canonical witness, below the no-communication target 1-(2^n/(2^n-1))eps/2 "
    "for n >= 2; recorded as a falsification artifact by the bounds suite",
    strict=True,
)
def test_random_permutation_no_comm_target_on_witness():
    proto = make_random_permutation(2)
    value = protocol_fidelity(proto, FidelityModel(2, 0.2))
    assert value >= 1 - (4 / 3) * 0.1 - 1e-9


# ---------------------------------------------------------------------------
# instruments with workspace and multi-Kraus branches


def test_workspace_instrument_matches_direct_channel():
    # coin flip realized through a workspace qubit: Hadamard the fresh
    # qubit and measure it; branch probabilities are 1/2 regardless of
    # the protocol qubits
    n = 1
    dim = 2
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    big = np.kron(np.eye(dim), h)  # workspace is the low qubit
    branches = []
    for bit in (0, 1):
        proj = np.kron(np.eye(dim), np.diag([1 - bit, bit]).astype(complex))
        branches.append((proj @ big,))
    instr = Instrument(branches=(branches[0], branches[1]), n_workspace=1)
    proto = Protocol(
        n_pairs=1,
        seed_weights=(1.0,),
        rounds=(Round(BOB, (instr,)),),
        accept=AlwaysAccept(),
        output_pair=(0,),
    )
    result = run(proto, bell_state("phi+"))
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)
    for leaf in result.leaves:
        assert leaf.probability == pytest.approx(0.5, abs=1e-12)
    # the coin does not disturb the pair
    np.testing.assert_allclose(
        result.output.matrix, bell_state("phi+").to_density().matrix, atol=1e-12
    )


def test_multi_kraus_branch_forces_mixed_path():
    rng = np.random.default_rng(13)
    proto = random_protocol(rng, 1, 1, kraus_per_branch=2)
    result = run(proto, bell_state("phi+"))
    assert result.success_probability >= 0.0
    total = sum(leaf.probability for leaf in result.leaves)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_povm_accept_success_matches_expectation():
    rng = np.random.default_rng(17)
    from edplab.sampling import random_povm_element

    m = random_povm_element(rng, 2)
    proto = Protocol(
        n_pairs=1,
        seed_weights=(1.0,),
        rounds=(),
        accept=PovmAccept((m,), [[0]]),
        output_pair=(0,),
    )
    rho = random_density_matrix(rng, 1, 1)
    result = run(proto, rho)
    alice = np.einsum("abcb->ac", rho.matrix.reshape(2, 2, 2, 2))
    assert result.success_probability == pytest.approx(
        float(np.trace(m @ alice).real), abs=1e-12
    )


# ---------------------------------------------------------------------------
# construction rejects what the runner cannot evaluate

NAN = float("nan")


def _one_pair_protocol(accept=AlwaysAccept(), rounds=()):
    return Protocol(1, (1.0,), rounds, accept, (0,))


def test_instrument_rejects_nan_kraus():
    bad = np.eye(2, dtype=np.complex128)
    bad[0, 0] = NAN
    with pytest.raises(ValueError, match="trace preserving"):
        Instrument(branches=((bad,), (np.zeros((2, 2)),)))


def test_round_rejects_nan_listener():
    u = np.eye(2, dtype=np.complex128)
    u[1, 1] = NAN
    with pytest.raises(ValueError, match="unitary"):
        Round(ALICE, (measure_z_instrument(1, 0),), listener_unitaries=(u,))


def test_protocol_rejects_nan_seed_weights():
    with pytest.raises(ValueError, match="distribution"):
        Protocol(1, (NAN,), (), AlwaysAccept(), (0,))
    with pytest.raises(ValueError, match="distribution"):
        Protocol(1, (0.5, NAN), (), AlwaysAccept(), (0,))


def test_constant_accept_rejects_values_outside_unit_interval():
    for value in (1.5, -0.1, NAN):
        with pytest.raises(ValueError):
            ConstantAccept(value)
    with pytest.raises(ValueError):
        ConstantAccept({"0": 0.5, "1": NAN})


def test_accept_rule_must_cover_every_transcript():
    rnd = Round(ALICE, (measure_z_instrument(1, 0),))
    with pytest.raises(ValueError, match="transcript '1'"):
        _one_pair_protocol(ConstantAccept({"0": 0.5}), (rnd,))
    with pytest.raises(ValueError, match="transcript ''"):
        _one_pair_protocol(ConstantAccept({"x": 0.5}))
    # a POVM rule is indexed by (seed, transcript)
    with pytest.raises(ValueError, match="POVM element"):
        _one_pair_protocol(PovmAccept((np.eye(2),), [[0, -1]]), (rnd,))
    with pytest.raises(ValueError, match="POVM element"):
        Protocol(1, (0.5, 0.5), (), PovmAccept((np.eye(2),), [[0]]), (0,))
    _one_pair_protocol(ConstantAccept({"0": 0.5, "1": 1.0}), (rnd,))


def test_accept_values_must_name_a_leaf():
    rnd = Round(ALICE, (measure_z_instrument(1, 0),))
    with pytest.raises(ValueError, match="transcript 'x', which names no leaf"):
        _one_pair_protocol(ConstantAccept({"0": 0.5, "1": 1.0, "x": 0.5}), (rnd,))
    with pytest.raises(ValueError, match=r"shape \(1, 2\)"):
        _one_pair_protocol(PovmAccept((np.eye(2),), [[0, 0, 0]]), (rnd,))
    with pytest.raises(ValueError, match="index"):
        PovmAccept((np.eye(2),), [[0, 1]])


def test_povm_elements_must_lie_between_zero_and_identity():
    half = 0.5 * np.eye(2)
    not_hermitian = np.array([[0.5, 0.1], [0.0, 0.5]])
    nan = half.copy()
    nan[0, 1] = NAN
    for bad in (3.0 * np.eye(2), -half, not_hermitian, nan, np.eye(4), np.eye(2)[:, :1]):
        with pytest.raises(ValueError):
            _one_pair_protocol(PovmAccept((bad,), [[0]]))
    proto = _one_pair_protocol(PovmAccept((half,), [[0]]))
    assert run(proto, bell_state("phi+")).success_probability == pytest.approx(0.5, abs=1e-12)


def test_protocol_rejects_registers_of_the_wrong_size():
    with pytest.raises(ValueError, match="instrument dimension"):
        Protocol(2, (1.0,), (Round(ALICE, (measure_z_instrument(1, 0),)),), AlwaysAccept(), (0,))
    wide = Round(ALICE, (measure_z_instrument(2, 0),), listener_unitaries=(np.eye(2),))
    with pytest.raises(ValueError, match="listener unitary"):
        Protocol(2, (1.0,), (wide,), AlwaysAccept(), (0,))
    with pytest.raises(ValueError, match="unitary"):
        Round(ALICE, (measure_z_instrument(1, 0),), listener_unitaries=(np.eye(2)[:1],))


def test_round_indexes_name_its_distinct_operators():
    z0, z1 = measure_z_instrument(1, 0), measure_z_instrument(1, 0)
    rnd = Round(ALICE, (z0, z1), listener_unitaries=(np.eye(2),), instrument_index=[1, 0, 1], listener_index=[0])
    assert rnd.instrument_index.tolist() == [1, 0, 1] and rnd.listener_index.tolist() == [0]
    assert Round(ALICE, (z0, z1)).instrument_index.tolist() == [0, 1]
    Protocol(1, (0.5, 0.25, 0.25), (rnd,), AlwaysAccept(), (0,))
    with pytest.raises(ValueError, match="one per seed"):
        Protocol(1, (0.5, 0.5), (rnd,), AlwaysAccept(), (0,))
    for bad in ([2], [-1], [], [0.0], [[0]]):
        with pytest.raises(ValueError, match="instrument_index"):
            Round(ALICE, (z0, z1), instrument_index=bad)
    with pytest.raises(ValueError, match="listener_unitaries"):
        Round(ALICE, (z0,), listener_index=[0])
    with pytest.raises(ValueError, match="listener_index"):
        Round(ALICE, (z0,), listener_unitaries=(np.eye(2),), listener_index=[1])
    mixed = Round(ALICE, (z0, measure_z_instrument(2, 0)))
    with pytest.raises(ValueError, match="instrument dimension"):
        Protocol(1, (0.5, 0.5), (mixed,), AlwaysAccept(), (0,))
    mixed = Round(ALICE, (z0,), listener_unitaries=(np.eye(2), np.eye(4)))
    with pytest.raises(ValueError, match="listener unitary"):
        Protocol(1, (0.5, 0.5), (mixed,), AlwaysAccept(), (0,))


@pytest.mark.parametrize("maker", [make_random_pair, make_random_permutation])
def test_no_communication_makers_reject_no_pairs(maker):
    with pytest.raises(ValueError, match="at least one pair"):
        maker(0)


def test_povm_accept_keeps_a_read_only_copy_of_each_shared_element():
    m = 0.5 * np.eye(2, dtype=np.complex128)
    other = [[1.0, 0.0], [0.0, 0.0]]
    index = np.array([[0, 0], [1, 1]])
    acc = PovmAccept((m, other), index)
    m[:] = 7.0
    index[:] = 0
    np.testing.assert_array_equal(acc.elements[0], 0.5 * np.eye(2))
    assert acc.index.tolist() == [[0, 0], [1, 1]]
    assert not acc.elements[0].flags.writeable
    assert not acc.elements[1].flags.writeable
    assert not acc.index.flags.writeable
    with pytest.raises(ValueError):
        acc.elements[1][0, 0] = 0.0


# ---------------------------------------------------------------------------
# run statistics


def test_run_stats_count_each_round():
    proto = make_simple_random_hash(3, 2)
    # definite bits on both check pairs make some round-0 outcomes impossible
    sparse = error_state(IndicatorVector.from_string("*00"))
    pure = random_pure_state(np.random.default_rng(5), 3, 3)  # dense amplitudes
    product = ProductState.maximally_mixed(3, 3)
    stats = run(proto, [(0.25, sparse), (0.25, pure), (0.5, product)]).stats
    assert stats.representations == ("sparse", "pure", "product")
    assert stats.seed_blocks == 3
    assert len(stats.rounds) == proto.bits
    levels = [list(walk(proto, state, np.arange(proto.n_seeds))) for state in (sparse, pure, product)]
    for depth, rnd in enumerate(stats.rounds):
        parents = [comp[depth].probabilities for comp in levels]
        assert rnd.expanded == sum(int((p >= PROB_TOL).sum()) for p in parents)
        assert rnd.pruned == sum(int((p < PROB_TOL).sum()) for p in parents)
        assert rnd.frontier_bytes == max(comp[depth + 1].frontier.nbytes for comp in levels)
        assert rnd.seconds >= 0.0
    assert sum(r.pruned for r in stats.rounds) > 0
    assert stats.peak_frontier_bytes == max(r.frontier_bytes for r in stats.rounds)


def test_hash_5_2_walks_every_measure_r_5_2_input_in_one_block():
    # sparse nodes are small enough that each input's depth-2 level, merged,
    # fits the budget whole: the cut no longer falls before the sharing of
    # later seeds shows (two inputs were cut into 52 and 53 blocks)
    proto = make_simple_random_hash(5, 2)
    assert [run(proto, st).stats.seed_blocks for st in MeasureRModel(5, 2).states()] == [1] * 40


def test_run_rejects_weights_that_are_not_a_distribution():
    # weights that sum to 1 but are negative, or a NaN that passes the sum test
    proto, mixed = make_simple_random_hash(2, 1), ProductState.maximally_mixed(2, 2)
    for weights in ((1.5, -0.5), (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite and non-negative"):
            run(proto, [(weights[0], epr_state(2)), (weights[1], mixed)])


def test_model_fidelities_reject_a_model_on_other_pairs():
    with pytest.raises(ValueError, match="must live on 3 pairs"):
        model_fidelities(make_simple_random_hash(3, 1), MeasureRModel(2, 1))


def test_model_fidelities_reject_a_witness_on_other_pairs():
    # the witness is built on the protocol's pairs, so the model's own n is checked first
    with pytest.raises(ValueError, match="must live on 3 pairs"):
        model_fidelities(make_simple_random_hash(3, 1), FidelityModel(2, 0.1))


def test_run_stats_count_distinct_children():
    # hash (5,2) on a measure-r input: the 128 seeds reach few distinct
    # nodes, and the counts per round still match one walk per seed
    proto = make_simple_random_hash(5, 2)
    state = MeasureRModel(5, 2).states()[0]
    stats = run(proto, state).stats
    assert stats.seed_blocks == 1
    depth2 = stats.rounds[1]
    assert 8 * depth2.distinct <= 2 * depth2.expanded
    live, dead, rows = [0, 0], [0, 0], [0, 0]
    for seed in range(proto.n_seeds):
        for level in walk(proto, state, np.array([seed])):
            if level.depth < proto.bits:
                live[level.depth] += int((level.probabilities >= PROB_TOL).sum())
                dead[level.depth] += int((level.probabilities < PROB_TOL).sum())
            if level.depth:
                rows[level.depth - 1] += len(level)
    assert [(r.expanded, r.pruned) for r in stats.rounds] == list(zip(live, dead))
    assert [2 * r.expanded for r in stats.rounds] == rows
    assert all(r.distinct <= n for r, n in zip(stats.rounds, rows))
    assert stats.peak_frontier_bytes == max(r.frontier_bytes for r in stats.rounds)


@pytest.mark.parametrize("s", [2, 3])
def test_deep_hash_fidelities_on_measure_r(s):
    # the deep hash cells the class walk makes affordable; values recorded
    # with the per-row runner
    fid, cond = model_fidelities(make_simple_random_hash(5, s), MeasureRModel(5, 2))
    assert fid == pytest.approx(0.5000000000000001, abs=1e-12)
    assert cond == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("maker, n, s, r", [
    (make_random_pair, 4, None, 2),
    (make_simple_random_hash, 3, 2, 1),
    (make_simple_random_hash, 4, 3, 2),
    (make_simple_random_hash, 5, 1, 3),
])
def test_measure_r_blocks_equal_one_run_per_error_state(maker, n, s, r):
    # a measure-r model's error states are walked in blocks of inputs; each
    # input's outputs must be its own run's
    proto = maker(n) if s is None else maker(n, s)
    model = MeasureRModel(n, r)
    outputs, conditionals, success = locc._weigh(
        proto, locc._walks(proto, model.stacks(), locc._Meter(proto.bits)), len(model.states())
    )
    conditionals = conditionals / success[:, None, None]
    singles = [run(proto, state) for state in model.states()]
    assert len(outputs) == len(singles)
    for output, conditional, single in zip(outputs, conditionals, singles):
        np.testing.assert_allclose(output, single.output.matrix, atol=1e-12)
        np.testing.assert_allclose(conditional, single.conditional_output.matrix, atol=1e-12)
    fid, cond = model_fidelities(proto, model)
    assert fid == pytest.approx(min(base_fidelity(single.output) for single in singles), abs=1e-15)
    assert cond == pytest.approx(min(base_fidelity(single.conditional_output) for single in singles), abs=1e-15)


def test_deep_hash_is_ideal():
    assert witness_fidelities(make_simple_random_hash(5, 3), ())[0] == pytest.approx(1.0, abs=1e-12)


def test_leaf_records_are_built_on_read_in_seed_order():
    proto = make_simple_random_hash(3, 2)
    pure = error_state(IndicatorVector.from_string("*00"))
    product = ProductState.maximally_mixed(3, 3)
    result = run(proto, [(0.5, pure), (0.5, product)])
    assert "leaves" not in vars(result)
    # per component and seed: dead nodes level by level, then the leaves
    keys, probabilities = [], []
    for comp, state in enumerate((pure, product)):
        for seed in range(proto.n_seeds):
            levels = list(walk(proto, state, np.array([seed])))
            for level in levels:
                dead = np.flatnonzero(level.probabilities < PROB_TOL).tolist()
                keys += [(comp, seed, level.label(row), True) for row in dead]
                probabilities += [0.0] * len(dead)
            live = np.flatnonzero(levels[-1].probabilities >= PROB_TOL).tolist()
            keys += [(comp, seed, levels[-1].label(row), False) for row in live]
            probabilities += levels[-1].probabilities[live].tolist()
    leaves = result.leaves
    assert result.leaves is leaves
    assert [(l.component, l.seed, l.transcript, l.output_state is None) for l in leaves] == keys
    assert any(dead for *_, dead in keys)
    assert [l.probability for l in leaves] == pytest.approx(probabilities, abs=1e-12)
    assert [l.weight for l in leaves] == [0.5 * proto.seed_weights[l.seed] for l in leaves]


def test_run_stats_name_a_pure_component_that_turns_dense():
    rng = np.random.default_rng(12)
    proto = random_protocol(rng, 1, 2, kraus_per_branch=2)
    components = [bell_state("phi+"), random_pure_state(rng, 1, 1), random_density_matrix(rng, 1, 1)]
    result = run(proto, [(0.25, components[0]), (0.25, components[1]), (0.5, components[2])])
    assert result.stats.representations == ("sparse->dense", "pure->dense", "dense")


def test_protocol_stacks_each_distinct_operator_once():
    from edplab import serialize

    proto = make_simple_random_hash(4, 3)
    loaded = serialize.protocol_from_json(serialize.protocol_to_json(proto))
    for p in (proto, loaded):
        # one row per parity choice, not per seed
        assert [len(rnd.instruments) for rnd in p.rounds] == [8, 4, 2]
        every = [np.arange(len(rnd.instruments)) for rnd in p.rounds]
        assert [rnd.kraus_ops(e).shape[:3] for rnd, e in zip(p.rounds, every)] == [(8, 2, 1), (4, 2, 1), (2, 2, 1)]
        assert [rnd.listener_ops(e).shape[0] for rnd, e in zip(p.rounds, every)] == [8, 4, 2]
        assert all(len(rnd.instrument_index) == len(rnd.listener_index) == 64 for rnd in p.rounds)
        assert len(p.accept.elements) == 8
    # a branch with fewer Kraus operators is padded with zero operators
    rng = np.random.default_rng(8)
    k0, k1, k2 = random_kraus_channel(rng, 2, n_kraus=3)
    instrument = Instrument(branches=((k0,), (k1, k2)))
    proto = Protocol(1, (1.0,), (Round(ALICE, (instrument,)),), AlwaysAccept(), (0,))
    ops = proto.rounds[0].kraus_ops(np.array([0]))
    assert ops.shape == (1, 2, 2, 2, 2)
    np.testing.assert_array_equal(ops[0, 0, 1], 0.0)
    np.testing.assert_array_equal(ops[0, 1, 1], k2)


def test_chunk_operators_equal_the_round_stacks():
    # a walk stacks each batch's operators from the distinct instruments
    # alone; they must equal the rows of the stack of every instrument
    rng = np.random.default_rng(12)
    k0, k1, k2 = random_kraus_channel(rng, 2, n_kraus=3)
    padded = Instrument(branches=((k0,), (k1, k2)))
    rounds = [
        make_simple_random_hash(4, 3).rounds[1],
        Round(BOB, (padded, random_protocol(rng, 1, 1, kraus_per_branch=2).rounds[0].instruments[0])),
    ]
    for rnd in rounds:
        count = len(rnd.instruments)
        for entries in (np.arange(count), np.arange(count)[::-1], np.array([1, 0, 1, 1, 0]) % count):
            every = np.arange(count)
            np.testing.assert_array_equal(rnd.kraus_ops(entries), rnd.kraus_ops(every)[entries])
            if rnd.listener_unitaries is not None:
                np.testing.assert_array_equal(rnd.listener_ops(entries), rnd.listener_ops(every)[entries])


def _witness_cases():
    yield make_simple_random_hash(3, 2)
    yield make_random_permutation(2)
    yield random_protocol(np.random.default_rng(8), 2, 2, n_seeds=2, accept_kind="povm", with_listeners=True)
    yield random_protocol(np.random.default_rng(9), 2, 2, n_seeds=3, kraus_per_branch=2, accept_kind="constant")
    # never declares SUCC: every conditional value is None
    yield Protocol(1, (1.0,), (Round(ALICE, (measure_z_instrument(1, 0),)),), ConstantAccept(0.0), (0,))


@pytest.mark.parametrize("case", range(5))
def test_witness_fidelities_weight_one_walk_of_each_part(monkeypatch, case):
    # each epsilon's values are a run of the witness components bit for
    # bit, and p is the perfect block's run, from one walk of each part
    proto = list(_witness_cases())[case]
    n = proto.n_pairs
    edge = 1.0 - 4.0**-n  # drops the perfect block from the witness
    epsilons = (0.0, 0.2, edge, edge + 1e-3, -0.1, 0.05)
    walked = []
    real = locc._walk_leaves
    monkeypatch.setattr(locc, "_walk_leaves", lambda p, roots, meter, **kw: walked.append(roots.kind) or real(p, roots, meter, **kw))
    p, values = locc.witness_fidelities(proto, epsilons)
    assert sorted(walked) == ["product", "sparse"]
    assert p == run(proto, epr_state(n)).success_probability
    for epsilon, got in zip(epsilons, values):
        if not 0.0 <= epsilon <= edge:
            with pytest.raises(ValueError) as err:
                FidelityModel(n, epsilon)
            assert isinstance(got, ValueError) and str(got) == str(err.value)
            continue
        result = run(proto, fidelity_witness_components(n, epsilon))
        cond = result.conditional_output
        assert got == (
            float(phi_plus_overlaps(result.output.matrix[None]).min()),
            None if cond is None else float(phi_plus_overlaps(cond.matrix[None]).min()),
        )
        assert got == model_fidelities(proto, FidelityModel(n, epsilon))
    walked.clear()
    assert locc.witness_fidelities(proto, (0.0,))[0] == p
    assert walked == ["sparse"]  # epsilon 0 drops the mixed part, and p needs the perfect block
    walked.clear()
    locc.witness_fidelities(proto, (edge,))
    assert sorted(walked) == ["product", "sparse"]


def _merged_levels(proto, roots):
    seeds = np.flatnonzero(np.asarray(proto.seed_weights))
    return [level for level in locc._walk(proto, roots, seeds) if level.depth and not level.apart]


@pytest.mark.parametrize("budget", [None, 1 << 12])
def test_merged_levels_keep_the_table_rule(monkeypatch, budget):
    # a class table may pass the budget by no more than the bytes its
    # merges saved: 2 * table <= rows + budget, counted in child rows,
    # unless the level is one seed's, which is a block of its own
    if budget is not None:
        monkeypatch.setattr(locc, "FRONTIER_BUDGET_BYTES", budget)
    cases = [(make_simple_random_hash(5, 2), MeasureRModel(5, 2).states()[7])]
    cases += [(make_simple_random_hash(4, 2), ProductState.maximally_mixed(4, 4))]
    for seed in range(3):
        gen = np.random.default_rng(seed)
        cases.append((random_protocol(gen, 3, 3, n_seeds=48, pool=6), random_pure_state(gen, 3, 3)))
    merged = 0
    for proto, state in cases:
        levels = _merged_levels(proto, locc.frontier_of(state))
        for level in levels:
            row = level.frontier.nbytes // len(level.frontier)
            within = 2 * level.frontier.nbytes <= len(level) * row + locc.FRONTIER_BUDGET_BYTES
            assert within or len(np.unique(level.seeds)) == 1
        merged += len(levels)
        # the round's table size is what the walk's levels hold
        for depth, rnd in enumerate(run(proto, state).stats.rounds):
            held = [level.frontier.nbytes for level in levels if level.depth == depth + 1]
            assert not held or rnd.frontier_bytes >= max(held)
    # the splitting tracker's paired root: a pair of nodes is one row of both sides' bytes
    for proto, _ in cases[1:]:
        n = proto.n_pairs
        roots = frontier.Paired(locc.frontier_of(epr_state(n)), locc.frontier_of(ProductState.maximally_mixed(n, n)))
        levels = _merged_levels(proto, roots)
        for level in levels:
            row = level.frontier.nbytes // len(level.frontier)
            within = 2 * level.frontier.nbytes <= len(level) * row + locc.FRONTIER_BUDGET_BYTES
            assert within or len(np.unique(level.seeds)) == 1
        merged += len(levels)
    assert merged
