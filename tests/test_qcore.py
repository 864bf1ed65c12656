import numpy as np
import pytest

from edplab import qcore
from edplab.qcore import (
    ALICE,
    BOB,
    CapacityError,
    DensityMatrix,
    InvalidStateError,
    PureState,
    UnitaryOp,
    apply_unitary,
    base_fidelity,
    bell_action,
    bell_identity_check,
    bell_state,
    epr_fidelity,
    epr_state,
    fidelity,
    partial_trace,
    pauli_deviation_sum,
    pure_overlap,
    tensor,
)
from edplab.sampling import (
    random_density_matrix,
    random_kraus_channel,
    random_product_pure,
    random_pure_state,
    random_separable_mixture,
)


def ket(n_alice, n_bob, index):
    amps = np.zeros(1 << (n_alice + n_bob), dtype=np.complex128)
    amps[index] = 1.0
    return PureState(n_alice, n_bob, amps)


# ---------------------------------------------------------------------------
# construction invariants


def test_pure_state_norm_enforced():
    with pytest.raises(InvalidStateError):
        PureState(1, 0, np.array([1.0, 1.0]))


def test_pure_state_shape_enforced():
    with pytest.raises(ValueError):
        PureState(1, 1, np.array([1.0, 0.0]))


def test_density_matrix_invariants():
    with pytest.raises(InvalidStateError):
        DensityMatrix(1, 0, np.array([[0.5, 0.5], [0.4, 0.5]]))
    with pytest.raises(InvalidStateError):
        DensityMatrix(1, 0, np.array([[0.7, 0.0], [0.0, 0.7]]))
    with pytest.raises(InvalidStateError):
        DensityMatrix(1, 0, np.array([[1.5, 0.0], [0.0, -0.5]]))


def test_unitary_check():
    with pytest.raises(ValueError):
        UnitaryOp(np.array([[1.0, 0.0], [1.0, 1.0]]), ((ALICE, 0),))
    op = UnitaryOp(qcore.PAULI["X"], ((BOB, 0),))
    assert op.targets == ((BOB, 0),)
    flipped = op.apply(ket(1, 1, 0))
    assert flipped.amplitudes[1] == 1.0  # |00> -> |01>, Bob bit is the low bit


def test_capacity_cap(monkeypatch):
    monkeypatch.setenv("EDPLAB_MAX_QUBITS", "3")
    with pytest.raises(CapacityError):
        epr_state(2)
    monkeypatch.setenv("EDPLAB_MAX_QUBITS", "4")
    epr_state(2)


# ---------------------------------------------------------------------------
# tensor


def test_tensor_basis_states():
    a = ket(1, 0, 0)
    b = ket(0, 1, 0)
    combined = tensor(a, b)
    assert combined.n_alice == 1 and combined.n_bob == 1
    assert combined.amplitudes[0] == 1.0
    assert np.count_nonzero(combined.amplitudes) == 1


def test_pair_tensor_builds_epr_block_layout():
    phi = bell_state("phi+")
    psi2 = tensor(phi, phi)
    expected = epr_state(2)
    np.testing.assert_allclose(psi2.amplitudes, expected.amplitudes, atol=1e-15)
    # amplitude 1/2 exactly where Alice bits equal Bob bits
    for x in range(4):
        assert psi2.amplitudes[(x << 2) | x] == pytest.approx(0.5)


def test_tensor_density_trace_multiplicative():
    rng = np.random.default_rng(7)
    rho = random_density_matrix(rng, 1, 1)
    sigma = random_density_matrix(rng, 1, 0)
    combined = tensor(rho, sigma)
    assert np.trace(combined.matrix) == pytest.approx(1.0, abs=1e-12)
    assert combined.n_alice == 2 and combined.n_bob == 1


def test_tensor_kind_mismatch():
    with pytest.raises(TypeError):
        tensor(bell_state("phi+"), bell_state("phi+").to_density())


def test_tensor_capacity_overflow():
    with pytest.raises(CapacityError):
        tensor(epr_state(4), epr_state(4))  # 16 qubits > default cap of 14


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_epr_half_is_mixed():
    reduced = partial_trace(bell_state("phi+"), {(ALICE, 0)})
    np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_first_pair_of_epr_block():
    psi3 = epr_state(3)
    reduced = partial_trace(psi3, {(ALICE, 0), (BOB, 0)})
    expected = bell_state("phi+").to_density()
    np.testing.assert_allclose(reduced.matrix, expected.matrix, atol=1e-12)


def test_partial_trace_product_state():
    reduced = partial_trace(ket(1, 1, 0).to_density(), {(ALICE, 0)})
    np.testing.assert_allclose(reduced.matrix, np.diag([1.0, 0.0]), atol=1e-15)


def test_partial_trace_empty_keep_rejected():
    with pytest.raises(ValueError):
        partial_trace(bell_state("phi+"), set())


def test_partial_trace_preserves_trace_and_psd():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rho = random_density_matrix(rng, 2, 1)
        reduced = partial_trace(rho, {(ALICE, 1), (BOB, 0)})
        assert np.trace(reduced.matrix).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(reduced.matrix)[0] >= -1e-10


# ---------------------------------------------------------------------------
# fidelity


def test_self_fidelity_pure():
    rng = np.random.default_rng(3)
    for _ in range(10):
        phi = random_pure_state(rng, 1, 1)
        assert fidelity(phi, phi) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_mixed_vs_epr_block():
    for n in (1, 2):
        rho = DensityMatrix.maximally_mixed(n, n)
        assert fidelity(rho, epr_state(n)) == pytest.approx(0.25**n, abs=1e-12)
        assert epr_fidelity(rho) == pytest.approx(0.25**n, abs=1e-12)


def test_general_fidelity_matches_pure_shortcut():
    rng = np.random.default_rng(5)
    for _ in range(40):
        rho = random_density_matrix(rng, 1, 1)
        sigma = random_pure_state(rng, 1, 1)
        general = fidelity(rho, sigma)
        shortcut = pure_overlap(rho, sigma)
        assert general == pytest.approx(shortcut, abs=1e-9)


def test_fidelity_rejects_invalid_state():
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    good = DensityMatrix.maximally_mixed(1, 1)
    with pytest.raises(InvalidStateError):
        fidelity(DensityMatrix(1, 1, bad, validate=False), good)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(DensityMatrix.maximally_mixed(1, 1), epr_state(2))


def test_epr_fidelity_requires_symmetric_partition():
    with pytest.raises(ValueError):
        epr_fidelity(ket(2, 1, 0))


def test_epr_fidelity_of_perfect_block_is_one():
    for n in (1, 2, 3):
        assert epr_fidelity(epr_state(n)) == pytest.approx(1.0, abs=1e-12)
        assert epr_fidelity(epr_state(n).to_density()) == pytest.approx(1.0, abs=1e-12)


def test_epr_fidelity_pure_and_density_paths_agree():
    rng = np.random.default_rng(41)
    for _ in range(20):
        phi = random_pure_state(rng, 2, 2)
        assert epr_fidelity(phi) == pytest.approx(
            epr_fidelity(phi.to_density()), abs=1e-12
        )


# ---------------------------------------------------------------------------
# base fidelity


def test_base_fidelity_of_padded_epr():
    rng = np.random.default_rng(13)
    filler = random_pure_state(rng, 1, 2)
    state = tensor(bell_state("phi+"), filler)
    assert base_fidelity(state) == pytest.approx(1.0, abs=1e-12)


def test_base_fidelity_of_00():
    assert base_fidelity(ket(1, 1, 0)) == pytest.approx(0.5, abs=1e-15)


def test_disentangled_base_fidelity_cap():
    rng = np.random.default_rng(17)
    for _ in range(200):
        phi = random_product_pure(rng, 2, 2)
        assert base_fidelity(phi) <= 0.5 + 1e-9
        mix = random_separable_mixture(rng, 1, 1)
        assert base_fidelity(mix) <= 0.5 + 1e-9


# ---------------------------------------------------------------------------
# pauli deviation and the Bell identity


def test_pauli_deviation_of_basis_state():
    zero = ket(1, 0, 0)
    assert pauli_deviation_sum(zero, zero) == pytest.approx(2.0, abs=1e-12)


def test_pauli_deviation_plus_minus():
    plus = PureState(1, 0, np.array([1, 1]) / np.sqrt(2))
    minus = PureState(1, 0, np.array([1, -1]) / np.sqrt(2))
    # direct 2x2 evaluation: I and X overlap vanish, Y and Z contribute 1
    assert pauli_deviation_sum(plus, minus) == pytest.approx(2.0, abs=1e-12)
    y_term = abs(np.vdot(plus.amplitudes, qcore.PAULI["Y"] @ minus.amplitudes)) ** 2
    z_term = abs(np.vdot(plus.amplitudes, qcore.PAULI["Z"] @ minus.amplitudes)) ** 2
    assert y_term == pytest.approx(1.0, abs=1e-12)
    assert z_term == pytest.approx(1.0, abs=1e-12)


def test_pauli_deviation_bounded_random_sweep():
    rng = np.random.default_rng(19)
    for _ in range(300):
        total = int(rng.integers(2, 6))
        na = int(rng.integers(1, total))
        phi = random_pure_state(rng, na, total - na)
        psi = random_pure_state(rng, na, total - na)
        assert pauli_deviation_sum(phi, psi) <= 2.0 + 1e-9
        # corollary: the self-deviation obeys the same cap
        assert pauli_deviation_sum(phi, phi) <= 2.0 + 1e-9


def test_bell_identity_on_bell_states():
    lhs, rhs = bell_identity_check(bell_state("phi+"))
    assert lhs == pytest.approx(4.0, abs=1e-12)
    assert rhs == pytest.approx(4.0, abs=1e-12)
    lhs, rhs = bell_identity_check(bell_state("psi-"))
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_bell_identity_random_sweep():
    rng = np.random.default_rng(23)
    for _ in range(300):
        na = int(rng.integers(1, 3))
        nb = int(rng.integers(1, 3))
        phi = random_pure_state(rng, na, nb)
        lhs, rhs = bell_identity_check(phi)
        assert abs(lhs - rhs) <= 1e-10


def test_bell_action_table_entries():
    assert bell_action("X", "phi-") == (-1, "phi-")
    assert bell_action("Z", "psi+") == (-1, "psi+")
    for b in ("phi+", "phi-", "psi+", "psi-"):
        assert bell_action("I", b) == (1, b)
    for u in ("I", "X", "Y", "Z"):
        assert bell_action(u, "phi+") == (1, "phi+")


# ---------------------------------------------------------------------------
# fidelity linearity and monotonicity


def test_fidelity_linear_in_ensembles():
    rng = np.random.default_rng(29)
    for _ in range(50):
        sigma = random_pure_state(rng, 1, 1)
        weights = rng.dirichlet(np.ones(3))
        members = [random_pure_state(rng, 1, 1) for _ in range(3)]
        mix = np.zeros((4, 4), dtype=np.complex128)
        for w, m in zip(weights, members):
            mix += w * np.outer(m.amplitudes, m.amplitudes.conj())
        rho = DensityMatrix(1, 1, mix, validate=False)
        combined = fidelity(rho, sigma)
        split = sum(w * fidelity(m, sigma) for w, m in zip(weights, members))
        assert combined == pytest.approx(split, abs=1e-9)


def test_fidelity_monotone_under_channels():
    rng = np.random.default_rng(31)
    for _ in range(40):
        rho = random_density_matrix(rng, 1, 0)
        sigma = random_density_matrix(rng, 1, 0)
        kraus = random_kraus_channel(rng, 2)
        before = fidelity(rho, sigma)
        rho2 = sum(k @ rho.matrix @ k.conj().T for k in kraus)
        sigma2 = sum(k @ sigma.matrix @ k.conj().T for k in kraus)
        after = fidelity(
            DensityMatrix(1, 0, rho2, validate=False),
            DensityMatrix(1, 0, sigma2, validate=False),
        )
        assert after >= before - 1e-9


# ---------------------------------------------------------------------------
# unitary application helper


def test_apply_unitary_matches_kron_ground_truth():
    rng = np.random.default_rng(37)
    from edplab.sampling import random_unitary

    phi = random_pure_state(rng, 1, 1)
    u = random_unitary(rng, 2)
    moved = apply_unitary(phi, u, [(BOB, 0)])
    expected = np.kron(np.eye(2), u) @ phi.amplitudes
    np.testing.assert_allclose(moved.amplitudes, expected, atol=1e-12)

    rho = random_density_matrix(rng, 1, 1)
    moved_rho = apply_unitary(rho, u, [(ALICE, 0)])
    full = np.kron(u, np.eye(2))
    np.testing.assert_allclose(
        moved_rho.matrix, full @ rho.matrix @ full.conj().T, atol=1e-12
    )

    two = random_unitary(rng, 4)
    moved2 = apply_unitary(phi, two, [(BOB, 0), (ALICE, 0)])
    # explicit reorder: matrix acts on (bob0, alice0) in that order
    perm = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            perm[(b << 1) | a, (a << 1) | b] = 1.0
    expected2 = perm.T @ two @ perm @ phi.amplitudes
    np.testing.assert_allclose(moved2.amplitudes, expected2, atol=1e-12)


# ---------------------------------------------------------------------------
# non-finite input and the validate flag


def test_pure_state_rejects_non_finite_amplitudes():
    for bad in (float("nan"), float("inf")):
        amps = np.array([bad, 0.0, 0.0, 0.0], dtype=np.complex128)
        with pytest.raises(InvalidStateError):
            PureState(1, 1, amps)


def test_density_matrix_rejects_non_finite_entries():
    for bad in (float("nan"), float("inf")):
        mat = np.eye(4, dtype=np.complex128) / 4
        mat[1, 2] = mat[2, 1] = bad
        with pytest.raises(InvalidStateError, match="non-finite"):
            DensityMatrix(1, 1, mat)


def test_density_matrix_validate_is_not_stored():
    from dataclasses import fields

    assert "validate" not in {f.name for f in fields(DensityMatrix)}
    mat = np.eye(4) / 4
    checked = DensityMatrix(1, 1, mat)
    unchecked = DensityMatrix(1, 1, mat, validate=False)
    np.testing.assert_array_equal(checked.matrix, unchecked.matrix)
    assert "validate" not in repr(unchecked)


# ---------------------------------------------------------------------------
# stacked forms


def test_stacked_fidelity_and_sqrt_equal_a_per_matrix_loop():
    rng = np.random.default_rng(909)
    for n_qubits, rank in ((1, None), (2, None), (2, 1), (3, 2)):
        rhos = [random_density_matrix(rng, n_qubits, 0, rank=rank) for _ in range(9)]
        sigmas = [random_density_matrix(rng, n_qubits, 0) for _ in range(9)]
        rho_stack = np.stack([r.matrix for r in rhos])
        sigma_stack = np.stack([s.matrix for s in sigmas])
        stacked = qcore.fidelities(rho_stack, sigma_stack)
        assert stacked.shape == (9,)
        for value, r, s in zip(stacked, rhos, sigmas):
            assert value == pytest.approx(fidelity(r, s), abs=1e-12)
        roots = qcore.hermitian_sqrt(rho_stack)
        for root, r in zip(roots, rhos):
            np.testing.assert_allclose(root, qcore.hermitian_sqrt(r.matrix), atol=1e-12)
        # two leading axes, and a stack of one
        grid = qcore.fidelities(
            rho_stack.reshape(3, 3, *rho_stack.shape[1:]), sigma_stack.reshape(3, 3, *sigma_stack.shape[1:])
        )
        np.testing.assert_allclose(grid.reshape(-1), stacked, atol=1e-15)
        assert qcore.fidelities(rho_stack[:1], sigma_stack[:1])[0] == pytest.approx(stacked[0], abs=1e-15)


def test_stacked_sqrt_rejects_any_negative_member():
    good = random_density_matrix(np.random.default_rng(3), 1, 0).matrix
    bad = np.diag([1.5, -0.5]).astype(np.complex128)
    with pytest.raises(InvalidStateError, match="-0.5"):
        qcore.hermitian_sqrt(np.stack([good, bad, good]))


def test_stacked_pure_forms_match_the_state_functions():
    rng = np.random.default_rng(404)
    for na, nb in ((1, 1), (1, 2), (2, 1), (2, 2)):
        phis = [random_pure_state(rng, na, nb) for _ in range(5)]
        psis = [random_pure_state(rng, na, nb) for _ in range(5)]
        phi_amps = np.stack([p.amplitudes for p in phis])
        psi_amps = np.stack([p.amplitudes for p in psis])
        sums = qcore.pauli_deviation_sums(phi_amps, psi_amps)
        pairs = qcore.first_pair_states(phi_amps, na, nb)
        lhs, rhs = qcore.bell_identity_sides(pairs)
        overlaps = qcore.phi_plus_overlaps(pairs)
        for i, (phi, psi) in enumerate(zip(phis, psis)):
            assert sums[i] == pytest.approx(pauli_deviation_sum(phi, psi), abs=1e-12)
            reference = partial_trace(phi, {(ALICE, 0), (BOB, 0)})
            np.testing.assert_allclose(pairs[i], reference.matrix, atol=1e-12)
            assert (lhs[i], rhs[i]) == pytest.approx(bell_identity_check(phi), abs=1e-12)
            assert overlaps[i] == pytest.approx(pure_overlap(reference, bell_state("phi+")), abs=1e-12)
