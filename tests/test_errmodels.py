import itertools
import math

import numpy as np
import pytest

from edplab.errmodels import (
    DepolarizationModel,
    ExtendedIndicatorVector,
    FidelityModel,
    IndicatorVector,
    MeasureRModel,
    collapse,
    consistent,
    consistent_extended,
    count_consistent_extended,
    depolarization_pair,
    depolarization_state,
    depolarize,
    discrepancy,
    enumerate_extended,
    enumerate_indicators,
    error_state,
    extended_error_state,
    fidelity_witness,
    fidelity_witness_components,
    pair_bell_mixture_ensemble,
    random_corrupt_ensemble,
)
from edplab.frontier import frontier_of
from edplab.qcore import (
    BOB,
    CapacityError,
    DensityMatrix,
    ProductState,
    PureState,
    base_fidelity,
    bell_state,
    epr_fidelity,
    epr_state,
)


# ---------------------------------------------------------------------------
# indicator vectors


def test_indicator_validation():
    with pytest.raises(ValueError):
        IndicatorVector(("0", "2"))
    v = IndicatorVector.from_string("0*1")
    assert v.degree == 2 and v.n == 3


def test_enumerate_small_cases():
    assert [str(v) for v in enumerate_indicators(2, 0)] == ["**"]
    assert sorted(str(v) for v in enumerate_indicators(1, 1)) == ["0", "1"]


def test_enumerate_counts_match_formula():
    for n in range(1, 7):
        for r in range(n + 1):
            vecs = enumerate_indicators(n, r)
            assert len(vecs) == (2**r) * math.comb(n, r)
            assert len(set(v.entries for v in vecs)) == len(vecs)


def test_enumerate_range_errors():
    with pytest.raises(ValueError):
        enumerate_indicators(2, 3)
    with pytest.raises(ValueError):
        enumerate_indicators(13, 1)


def test_consistency():
    v = IndicatorVector.from_string("0*")
    assert consistent("01", v)
    assert not consistent("11", v)


def test_consistent_count_is_2_to_n_minus_r():
    for n in range(1, 9):
        for r in (0, 1, n // 2, n):
            if r > n:
                continue
            for v in enumerate_indicators(n, r)[:6]:
                hits = sum(
                    1
                    for bits in itertools.product((0, 1), repeat=n)
                    if consistent(bits, v)
                )
                assert hits == 2 ** (n - r)


# ---------------------------------------------------------------------------
# error states


def test_error_state_all_star_is_perfect_block():
    v = IndicatorVector.from_string("***")
    st = error_state(v)
    np.testing.assert_allclose(st.amplitudes, epr_state(3).amplitudes, atol=1e-15)


def test_error_state_single_measured_pair():
    st = error_state(IndicatorVector.from_string("0"))
    expected = np.zeros(4)
    expected[0] = 1.0
    np.testing.assert_allclose(st.amplitudes, expected, atol=1e-15)


def test_error_state_support_and_normalization():
    for n in range(1, 5):
        for r in range(n + 1):
            for v in enumerate_indicators(n, r):
                st = error_state(v)
                nz = st.amplitudes[np.abs(st.amplitudes) > 0]
                assert len(nz) == 2 ** (n - r)
                np.testing.assert_allclose(nz, nz[0], atol=1e-15)


def test_error_state_fidelity_is_2_to_minus_degree():
    for n in range(1, 5):
        for r in range(n + 1):
            for v in enumerate_indicators(n, r):
                assert epr_fidelity(error_state(v)) == pytest.approx(
                    2.0**-r, abs=1e-12
                )


def test_error_state_overlaps_count_common_consistent_vectors():
    # exhaustive for n <= 3: <phi_v|phi_w> equals the number of jointly
    # consistent bit vectors over the geometric normalization
    for n in range(1, 4):
        for r in range(n + 1):
            vecs = enumerate_indicators(n, r)
            for v, w in itertools.combinations(vecs, 2):
                overlap = np.vdot(error_state(v).amplitudes, error_state(w).amplitudes)
                common = sum(
                    1
                    for bits in itertools.product((0, 1), repeat=n)
                    if consistent(bits, v) and consistent(bits, w)
                )
                assert overlap.real == pytest.approx(
                    common / 2 ** (n - r), abs=1e-12
                )
                if not common:
                    assert abs(overlap) < 1e-12


# ---------------------------------------------------------------------------
# depolarization


def test_depolarize_p0_is_identity():
    rho = bell_state("phi+").to_density()
    out = depolarize(rho, 0.0, (BOB, 0))
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)


def test_depolarize_matches_convex_form():
    rng = np.random.default_rng(41)
    from edplab.sampling import random_density_matrix

    for p in (0.2, 0.7):
        rho = random_density_matrix(rng, 1, 1)
        out = depolarize(rho, p, (BOB, 0))
        # direct convex form: (1-p) rho + p * (Tr_bob rho) (x) I/2
        arr = rho.matrix.reshape(2, 2, 2, 2)
        reduced = np.einsum("abcb->ac", arr)
        embedded = np.kron(reduced, np.eye(2) / 2)
        expected = (1 - p) * rho.matrix + p * embedded
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)


def test_depolarized_pair_base_fidelity():
    for p in np.linspace(0, 1, 11):
        pair = depolarization_pair(p)
        assert base_fidelity(pair) == pytest.approx(1 - 0.75 * p, abs=1e-12)
    assert base_fidelity(depolarization_pair(1.0)) == pytest.approx(0.25, abs=1e-12)


def test_depolarized_pair_bell_and_computational_forms():
    p = 0.37
    pair = depolarization_pair(p)
    bell_form = (1 - 0.75 * p) * bell_state("phi+").to_density().matrix
    for other in ("phi-", "psi+", "psi-"):
        bell_form = bell_form + 0.25 * p * bell_state(other).to_density().matrix
    np.testing.assert_allclose(pair.matrix, bell_form, atol=1e-12)
    comp_form = (1 - p) * bell_state("phi+").to_density().matrix + 0.25 * p * np.eye(4)
    np.testing.assert_allclose(pair.matrix, comp_form, atol=1e-12)


def test_depolarization_state_block():
    assert epr_fidelity(depolarization_state(2, 0.5)) == pytest.approx(
        0.390625, abs=1e-12
    )
    np.testing.assert_allclose(
        depolarization_state(2, 0.0).matrix, epr_state(2).to_density().matrix, atol=1e-15
    )
    np.testing.assert_allclose(
        depolarization_state(1, 0.3).matrix, depolarization_pair(0.3).matrix, atol=1e-15
    )
    for n in (1, 2, 3):
        for p in (0.1, 0.6):
            assert epr_fidelity(depolarization_state(n, p)) == pytest.approx(
                (1 - 0.75 * p) ** n, abs=1e-12
            )


def test_pair_bell_mixture_matches_dense_state():
    for n, p in ((1, 0.4), (2, 0.25)):
        ens = pair_bell_mixture_ensemble(n, p)
        np.testing.assert_allclose(
            collapse(ens).matrix, depolarization_state(n, p).matrix, atol=1e-12
        )


def test_pair_bell_mixture_rejects_what_the_models_reject(monkeypatch):
    with pytest.raises(ValueError, match="need at least one pair, got n=0"):
        pair_bell_mixture_ensemble(0, 0.2)
    with pytest.raises(ValueError, match="p must lie in"):
        pair_bell_mixture_ensemble(2, 1.5)
    monkeypatch.setenv("EDPLAB_MAX_QUBITS", "4")
    with pytest.raises(CapacityError):
        pair_bell_mixture_ensemble(3, 0.2)
    # zero-weight patterns are dropped: at p = 0 only phi+ in every pair is left
    (weight, state), = pair_bell_mixture_ensemble(2, 0.0)
    assert weight == 1.0
    np.testing.assert_array_equal(state.amplitudes, epr_state(2).amplitudes)


def test_random_corrupt_edges():
    ens = random_corrupt_ensemble(2, 0)
    assert len(ens) == 1 and ens[0][0] == 1.0
    np.testing.assert_allclose(
        collapse(ens).matrix, epr_state(2).to_density().matrix, atol=1e-15
    )
    ens = random_corrupt_ensemble(1, 1)
    np.testing.assert_allclose(collapse(ens).matrix, np.eye(4) / 4, atol=1e-15)


def test_random_corrupt_binomial_recombination():
    for n in (1, 2, 3):
        for p in (0.1, 0.3, 0.7):
            dim = 1 << (2 * n)
            acc = np.zeros((dim, dim), dtype=np.complex128)
            for r in range(n + 1):
                weight = math.comb(n, r) * p**r * (1 - p) ** (n - r)
                acc += weight * collapse(random_corrupt_ensemble(n, r)).matrix
            np.testing.assert_allclose(
                acc, depolarization_state(n, p).matrix, atol=1e-9
            )


# ---------------------------------------------------------------------------
# extended indicator vectors


def test_extended_counts():
    for n in range(1, 7):
        for r in range(n + 1):
            vecs = enumerate_extended(n, r)
            assert len(vecs) == (4**r) * math.comb(n, r)


def test_parameter_range_errors():
    with pytest.raises(ValueError):
        depolarize(bell_state("phi+"), 1.5, (BOB, 0))
    with pytest.raises(ValueError):
        random_corrupt_ensemble(2, 3)
    with pytest.raises(ValueError):
        count_consistent_extended(-1, 3, 2)


def test_extended_error_state_all_star():
    u = ExtendedIndicatorVector(("*", "*"))
    np.testing.assert_allclose(
        extended_error_state(u).amplitudes, epr_state(2).amplitudes, atol=1e-15
    )


def test_extended_error_state_entries():
    u = ExtendedIndicatorVector(("01", "*"))
    st = extended_error_state(u)
    # Alice holds 0?, Bob holds 1?; perfect pair on position 1
    amps = st.amplitudes.reshape(2, 2, 2, 2)  # a0 a1 b0 b1
    np.testing.assert_allclose(amps[0, 0, 1, 0], 1 / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(amps[0, 1, 1, 1], 1 / np.sqrt(2), atol=1e-15)


def test_extended_consistency_and_support():
    for n in (1, 2, 3):
        for r in range(n + 1):
            for u in enumerate_extended(n, r)[:10]:
                st = extended_error_state(u)
                hits = [
                    bits
                    for bits in itertools.product((0, 1), repeat=2 * n)
                    if consistent_extended(bits, u)
                ]
                assert len(hits) == 2 ** (n - r)
                amps = st.amplitudes.reshape(1 << n, 1 << n)
                for bits in hits:
                    a = int("".join(map(str, bits[:n])), 2)
                    b = int("".join(map(str, bits[n:])), 2)
                    assert abs(amps[a, b]) == pytest.approx(
                        2 ** (-(n - r) / 2), abs=1e-12
                    )


def test_discrepancy():
    assert discrepancy("0110") == (1, 1)
    assert discrepancy("0010") == (1, 0)
    assert discrepancy((1, 0, 1, 0)) == (0, 0)
    with pytest.raises(ValueError):
        discrepancy("011")


def test_count_consistent_extended_formula_and_bruteforce():
    assert count_consistent_extended(1, 3, 2) == math.comb(2, 1)
    # brute force: for every 2n-bit vector, count consistent degree-r
    # extended vectors and compare with the closed form
    for n in (2, 3):
        for r in range(n + 1):
            vecs = enumerate_extended(n, r)
            for bits in itertools.product((0, 1), repeat=2 * n):
                d = sum(discrepancy(bits))
                hits = sum(1 for u in vecs if consistent_extended(bits, u))
                assert hits == count_consistent_extended(d, n, r)


# ---------------------------------------------------------------------------
# fidelity witness and models


def test_witness_epsilon_zero():
    np.testing.assert_allclose(
        fidelity_witness(2, 0.0).matrix, epr_state(2).to_density().matrix, atol=1e-15
    )


def test_witness_mixing_weight():
    rho = fidelity_witness(2, 0.25)
    eps_prime = (16 / 15) * 0.25
    expected = (1 - eps_prime) * epr_state(2).to_density().matrix
    expected = expected + eps_prime * np.eye(16) / 16
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)


def test_witness_fidelity_is_one_minus_epsilon():
    for n in (1, 2, 3):
        for eps in (0.0, 0.1, 0.25, 0.6):
            assert epr_fidelity(fidelity_witness(n, eps)) == pytest.approx(
                1 - eps, abs=1e-10
            )


def test_witness_epsilon_range():
    with pytest.raises(ValueError):
        fidelity_witness(1, 0.99)


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        MeasureRModel(2, 3)
    with pytest.raises(ValueError):
        DepolarizationModel(2, 1.5)
    with pytest.raises(ValueError):
        FidelityModel(2, 1.0)


def test_measure_r_model_rejects_no_pairs():
    # 1 - r/2n is undefined at n = 0
    with pytest.raises(ValueError, match="at least one pair"):
        MeasureRModel(0, 0)


def test_depolarization_model_rejects_no_pairs():
    # rejected when built, with MeasureRModel's message, not on first use
    with pytest.raises(ValueError, match="need at least one pair, got n=0"):
        DepolarizationModel(0, 0.2)


def test_measure_r_model_states():
    model = MeasureRModel(2, 1)
    states = model.states()
    assert len(states) == 4
    mix = model.uniform_mixture()
    assert sum(w for w, _ in mix) == pytest.approx(1.0)


def test_measure_r_amplitudes_are_the_error_states_bit_for_bit():
    for n in range(1, 6):
        for r in range(n + 1):
            model = MeasureRModel(n, r)
            expected = [error_state(v).amplitudes for v in enumerate_indicators(n, r)]
            (stack,) = model.stacks()
            amplitudes = stack.roots.to_pure().psi
            assert amplitudes.shape == (len(expected), 1 << n, 1 << n)
            assert not any(part.flags.writeable for part in stack.roots.parts)
            assert amplitudes.tobytes() == np.stack(expected).tobytes()
            assert stack.roots.amps.tobytes() == np.diagonal(amplitudes, axis1=1, axis2=2).tobytes()
            assert stack.weights.tolist() == [1.0] * len(expected)
            assert stack.inputs.tolist() == list(range(len(expected)))
            assert [st.amplitudes.tobytes() for st in model.states()] == [a.tobytes() for a in expected]


def test_fidelity_model_members_have_required_fidelity():
    model = FidelityModel(2, 0.2, samples=6, seed=9)
    states = model.states()
    assert len(states) == 7
    for st in states:
        assert epr_fidelity(st) == pytest.approx(0.8, abs=1e-9)


def test_fidelity_model_sampling_deterministic():
    a = FidelityModel(2, 0.2, samples=4, seed=5).states()
    b = FidelityModel(2, 0.2, samples=4, seed=5).states()
    for x, y in zip(a[1:], b[1:]):
        mx = x.matrix if isinstance(x, DensityMatrix) else x.amplitudes
        my = y.matrix if isinstance(y, DensityMatrix) else y.amplitudes
        np.testing.assert_array_equal(mx, my)


def test_fidelity_model_rejects_epsilon_beyond_witness_range():
    # the witness exists only for epsilon <= 1 - 4^-n; the model says so
    # at construction instead of at first evaluation
    with pytest.raises(ValueError):
        FidelityModel(1, 0.9)
    with pytest.raises(ValueError):
        FidelityModel(2, 1.0 - 1.0 / 16 + 1e-9)
    with pytest.raises(ValueError):
        FidelityModel(2, float("nan"))
    with pytest.raises(ValueError):
        FidelityModel(0, 0.1)
    assert FidelityModel(1, 0.75).witness().matrix[0, 0] == pytest.approx(0.25)


def test_fidelity_model_rejects_negative_samples_and_seeds_outside_64_bits():
    # a seed outside [0, 2**64) is rejected even with no samples to draw,
    # where it would otherwise be dropped unread
    with pytest.raises(ValueError, match="samples"):
        FidelityModel(2, 0.1, samples=-3)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            FidelityModel(2, 0.1, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            FidelityModel(2, 0.1, samples=1, seed=seed)
    assert FidelityModel(2, 0.1, samples=0, seed=2**64 - 1).states()[0].matrix.shape == (16, 16)


def test_witness_components_collapse_to_the_dense_witness():
    for n in (1, 2, 3):
        for eps in (0.0, 0.1, 0.25, 1.0 - 4.0**-n):
            parts = fidelity_witness_components(n, eps)
            assert sum(w for w, _ in parts) == pytest.approx(1.0, abs=1e-15)
            assert all(w > 0.0 for w, _ in parts)
            np.testing.assert_array_equal(collapse(parts).matrix, fidelity_witness(n, eps).matrix)
    pure, mixed = fidelity_witness_components(2, 0.25)
    assert isinstance(pure[1], PureState) and isinstance(mixed[1], ProductState)
    assert mixed[0] == pytest.approx((16 / 15) * 0.25)


def test_fidelity_model_stacks_keep_witness_in_component_form():
    model = FidelityModel(2, 0.2, samples=3, seed=4)
    stacks = model.stacks()
    assert len(stacks) == 5
    # the witness is input 0, as its sparse perfect block and its product mixed part
    assert [stack.roots.kind for stack in stacks[:2]] == ["sparse", "product"]
    assert [stack.inputs.tolist() for stack in stacks] == [[0], [0], [1], [2], [3]]
    assert [stack.weights.tolist() for stack in stacks[:2]] == [[w] for w, _ in fidelity_witness_components(2, 0.2)]
    for stack, member in zip(stacks[2:], model.states()[1:]):
        assert stack.roots.kind == frontier_of(member).kind
