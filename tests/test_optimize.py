import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edplab import optimize, verify
from edplab.errmodels import MeasureRModel, pair_bell_mixture_ensemble
from edplab.optimize import (
    GRAD_TOL,
    AscentConfig,
    PairFidelityObjective,
    maximize_pair_fidelity,
    unitary_exp,
)
from edplab.qcore import ALICE, BOB, PureState, apply_unitary, base_fidelity, tensor
from edplab.sampling import random_pure_state, random_unitary

QUICK = AscentConfig(restarts=3, steps=300, seed=11)


def _random_antihermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g - g.conj().T) / 2.0


def _random_isometry(rng, objective):
    """The ancilla-free columns V = U[:, rows] of a random unitary."""
    return random_unitary(rng, objective.d_side)[:, objective.rows]


@pytest.mark.parametrize(
    "ensemble, n, ancillas",
    [
        (MeasureRModel(2, 1).uniform_mixture(), 2, 1),
        (pair_bell_mixture_ensemble(1, 0.4), 1, 2),
    ],
    ids=["measure-r(2,1)", "depolarization(1,0.4)"],
)
def test_riemannian_gradient_matches_central_differences(ensemble, n, ancillas):
    objective = PairFidelityObjective(ensemble, n, ancillas)
    rng = np.random.default_rng(4)
    dim = objective.d_side
    ua, ub = _random_isometry(rng, objective), _random_isometry(rng, objective)
    value, e_a, e_b = objective.value_and_euclidean_gradient(ua[None], ub[None])
    grad_a, grad_b = optimize._omega(e_a, ua[None])[0], optimize._omega(e_b, ub[None])[0]
    assert value[0] == pytest.approx(objective.value(ua, ub), abs=1e-14)
    for grad in (grad_a, grad_b):
        np.testing.assert_allclose(grad, -grad.conj().T, atol=1e-14)
    h = 1e-5
    for _ in range(3):
        x = _random_antihermitian(rng, dim)
        step_a = [objective.value(unitary_exp(t * x) @ ua, ub) for t in (h, -h)]
        step_b = [objective.value(ua, unitary_exp(t * x) @ ub) for t in (h, -h)]
        # d/dt f(exp(tX) U) = <E U^H, X> = Re tr(Omega^H X) / 2
        assert (step_a[0] - step_a[1]) / (2 * h) == pytest.approx(
            np.vdot(grad_a, x).real / 2, abs=1e-8
        )
        assert (step_b[0] - step_b[1]) / (2 * h) == pytest.approx(
            np.vdot(grad_b, x).real / 2, abs=1e-8
        )


def _measure_r_objective():
    return PairFidelityObjective(MeasureRModel(2, 1).uniform_mixture(), 2, 1)


def test_ascent_is_deterministic_per_seed():
    config = AscentConfig(restarts=3, steps=50, seed=5)
    first = maximize_pair_fidelity(_measure_r_objective(), config)
    second = maximize_pair_fidelity(_measure_r_objective(), config)
    assert repr(first.restart_values) == repr(second.restart_values)
    assert first.restart_converged == second.restart_converged


def test_ascent_never_reports_below_the_identity_start():
    result = maximize_pair_fidelity(_measure_r_objective(), AscentConfig(restarts=3, steps=20, seed=9))
    assert len(result.restart_values) == len(result.restart_converged) == 3
    assert result.best_value == max(result.restart_values)
    assert result.best_value >= result.start_value


def test_one_step_from_a_random_start_has_not_converged():
    # restart 0 (identity) is stationary for this ensemble; restart 1 is not
    result = maximize_pair_fidelity(_measure_r_objective(), AscentConfig(restarts=2, steps=1, seed=3))
    assert result.restart_converged == (True, False)
    assert not result.converged


def test_depolarization_ascent_converges_on_quick_budget():
    objective = PairFidelityObjective(pair_bell_mixture_ensemble(1, 0.5), 1, 1)
    result = maximize_pair_fidelity(objective, QUICK)
    assert result.converged
    assert result.best_value == pytest.approx(0.625, abs=1e-9)


def test_probe_notes_count_converged_restarts():
    rep = verify.optimize_0bit_depolarization(1, 0.5, ancillas=1, config=QUICK)
    assert "3 restarts x 300 gradient steps" in rep.notes
    assert "3/3 restarts met the gradient test" in rep.notes


@pytest.mark.parametrize(
    "fields, error",
    [
        ({"restarts": 0}, ValueError),
        ({"steps": 0}, ValueError),
        ({"restarts": -1}, ValueError),
        ({"restarts": True}, TypeError),
        ({"steps": True}, TypeError),
        ({"restarts": 2.5}, TypeError),
        ({"steps": 1.5}, TypeError),
        ({"seed": -1}, ValueError),
        ({"seed": 2**64}, ValueError),
        ({"seed": 1.5}, TypeError),
        ({"seed": "7"}, TypeError),
    ],
    ids=[f"fields{i}" for i in range(3)]
    + ["restarts-bool", "steps-bool", "restarts-float", "steps-float",
       "seed-negative", "seed-2**64", "seed-float", "seed-str"],
)
def test_ascent_config_rejects_empty_budgets(fields, error):
    with pytest.raises(error):
        AscentConfig(**fields)


def test_ascent_config_takes_numpy_integers_and_the_largest_seed():
    config = AscentConfig(restarts=np.int64(2), steps=np.int32(3), seed=2**64 - 1)
    assert maximize_pair_fidelity(_measure_r_objective(), config).restart_iterations[0] == 0


# the two ensembles of the gradient check above, and random pure states,
# whose amplitude matrices B_i differ from B_i^T: (ensemble, n, ancillas)
ENSEMBLES = {
    "measure-r(2,1)": (MeasureRModel(2, 1).uniform_mixture(), 2, 1),
    "depolarization(1,0.4)": (pair_bell_mixture_ensemble(1, 0.4), 1, 2),
    "random-pure(2)": (
        [(w, random_pure_state(np.random.default_rng(i), 2, 2)) for i, w in enumerate((0.3, 0.7))], 2, 1
    ),
}


@pytest.mark.parametrize("name", sorted(ENSEMBLES))
def test_euclidean_gradient_matches_central_differences(name):
    objective = PairFidelityObjective(*ENSEMBLES[name])
    rng = np.random.default_rng(8)
    ua, ub = _random_isometry(rng, objective), _random_isometry(rng, objective)
    value, e_alice, e_bob = objective.value_and_euclidean_gradient(ua[None], ub[None])
    e_alice, e_bob = e_alice[0], e_bob[0]
    assert value[0] == pytest.approx(objective.value(ua, ub), abs=1e-14)
    h = 1e-5
    for _ in range(3):
        # any complex direction, not only tangent ones: d/dt f(V + tX) = Re tr(E^H X)
        x = rng.standard_normal(ua.shape) + 1j * rng.standard_normal(ua.shape)
        step_a = [objective.value(ua + t * x, ub) for t in (h, -h)]
        step_b = [objective.value(ua, ub + t * x) for t in (h, -h)]
        assert (step_a[0] - step_a[1]) / (2 * h) == pytest.approx(np.vdot(e_alice, x).real, abs=1e-8)
        assert (step_b[0] - step_b[1]) / (2 * h) == pytest.approx(np.vdot(e_bob, x).real, abs=1e-8)


@pytest.mark.parametrize("name", sorted(ENSEMBLES))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_polar_half_step_never_lowers_the_value(name, seed):
    objective = PairFidelityObjective(*ENSEMBLES[name])
    rng = np.random.default_rng(seed)
    ua, ub = _random_isometry(rng, objective), _random_isometry(rng, objective)
    value, e_alice, e_bob = objective.value_and_euclidean_gradient(ua[None], ub[None])
    new_a, new_b = optimize._polar(e_alice)[0], optimize._polar(e_bob)[0]
    for v in (new_a, new_b):
        np.testing.assert_allclose(v.conj().T @ v, np.eye(len(objective.rows)), atol=1e-12)
    assert objective.value(new_a, ub) >= value[0] - 1e-12
    assert objective.value(ua, new_b) >= value[0] - 1e-12
    # the polar factor maximises the linearisation Re tr(E^H V) over isometries
    for e, polar in ((e_alice[0], new_a), (e_bob[0], new_b)):
        best = np.vdot(e, polar).real
        for _ in range(4):
            assert np.vdot(e, _random_isometry(rng, objective)).real <= best + 1e-12


@pytest.mark.parametrize("steps", [1, 3, 300])
def test_restart_stats_record_iterations_and_stop_reason(steps):
    config = AscentConfig(restarts=4, steps=steps, seed=7)
    result = maximize_pair_fidelity(_measure_r_objective(), config)
    assert len(result.restart_iterations) == len(result.restart_grad_norms) == config.restarts
    for its, norm, converged in zip(
        result.restart_iterations, result.restart_grad_norms, result.restart_converged
    ):
        assert 0 <= its <= steps
        assert (norm <= GRAD_TOL) == converged
        if not converged:
            assert its == steps  # the budget ran out
    # restart 0 starts at the identity, a stationary point of this ensemble
    assert result.restart_iterations[0] == 0 and result.restart_converged[0]


def _dense_first_pair_fidelity(ensemble, n, ancillas, u_alice, u_bob):
    """sum_i w_i F_first-pair((U_A (x) U_B)(|psi_i> (x) |0...0>)), built with qcore."""
    zeros = np.zeros(1 << (2 * ancillas))
    zeros[0] = 1.0
    total = 0.0
    for weight, state in ensemble:
        padded = tensor(state, PureState(ancillas, ancillas, zeros))
        qubits = range(n + ancillas)
        padded = apply_unitary(padded, u_alice, [(ALICE, q) for q in qubits])
        padded = apply_unitary(padded, u_bob, [(BOB, q) for q in qubits])
        total += weight * base_fidelity(padded)
    return total


@pytest.mark.parametrize("name", sorted(ENSEMBLES))
def test_objective_value_equals_the_dense_first_pair_fidelity(name):
    ensemble, n, ancillas = ENSEMBLES[name]
    objective = PairFidelityObjective(ensemble, n, ancillas)
    rng = np.random.default_rng(12)
    for _ in range(4):
        ua, ub = random_unitary(rng, objective.d_side), random_unitary(rng, objective.d_side)
        dense = _dense_first_pair_fidelity(ensemble, n, ancillas, ua, ub)
        value = objective.value(ua[:, objective.rows], ub[:, objective.rows])
        assert value == pytest.approx(dense, abs=1e-12)


def test_each_restart_of_a_block_steps_as_it_would_alone():
    objective = PairFidelityObjective(MeasureRModel(2, 1).uniform_mixture(), 2, 2)
    config = AscentConfig(restarts=6, steps=12, seed=21)
    block = optimize._ascend(objective, config, range(6))
    # the block is stepped past the stops of some of its restarts
    assert len(set(block[2])) > 1 and block[1].any() and not block[1].all()
    for restart in range(6):
        alone = optimize._ascend(objective, config, range(restart, restart + 1))[:, 0]
        assert (alone[1], alone[2]) == (block[1, restart], block[2, restart])
        assert alone[0] == pytest.approx(block[0, restart], abs=1e-14)
        assert alone[3] == pytest.approx(block[3, restart], abs=1e-14)


def test_blocks_of_one_restart_give_the_same_result(monkeypatch):
    objective = PairFidelityObjective(pair_bell_mixture_ensemble(1, 0.4), 1, 2)
    config = AscentConfig(restarts=5, steps=60, seed=33)
    assert optimize.ASCENT_BUDGET_BYTES // objective.pair_bytes >= config.restarts
    one_block = maximize_pair_fidelity(objective, config)
    monkeypatch.setattr(optimize, "ASCENT_BUDGET_BYTES", 1)
    assert repr(maximize_pair_fidelity(objective, config)) == repr(one_block)


def test_blocks_stay_within_the_budget(monkeypatch):
    objective = _measure_r_objective()
    # each restart's mixing history counts in its pair_bytes: DEPTH + 1 slots,
    # each a plain step and a residual, two (d, k) isometries each
    history_bytes = (optimize.DEPTH + 1) * 2 * 2 * objective.d_side * len(objective.rows) * 16
    with monkeypatch.context() as patch:
        patch.setattr(optimize, "DEPTH", -1)
        assert objective.pair_bytes - _measure_r_objective().pair_bytes == history_bytes
    monkeypatch.setattr(optimize, "ASCENT_BUDGET_BYTES", 3 * objective.pair_bytes + 1)
    sizes = []
    ascend = optimize._ascend

    def recording(objective, config, restarts):
        sizes.append(len(restarts))
        return ascend(objective, config, restarts)

    monkeypatch.setattr(optimize, "_ascend", recording)
    result = maximize_pair_fidelity(objective, AscentConfig(restarts=8, steps=5, seed=2))
    assert sizes == [3, 3, 2]
    assert len(result.restart_values) == 8


def test_measure_r_2_2_has_no_slow_tail():
    # without mixing, one of these restarts spends the whole 2,000-step budget
    objective = PairFidelityObjective(MeasureRModel(2, 2).uniform_mixture(), 2, 2)
    result = maximize_pair_fidelity(objective, AscentConfig(restarts=32, steps=2000, seed=2026))
    assert result.converged
    assert max(result.restart_iterations) <= 100
    assert result.best_value == pytest.approx(0.5, abs=1e-12)


def _recorded_passes(monkeypatch, objective, config, restart):
    """One restart ascended alone: the evaluation at the iterate that starts
    each pass, and per pass the half-step evaluation and the full ones after
    it, each as (V_A, V_B, value, E_B)."""
    calls = []
    evaluate = objective.value_and_euclidean_gradient

    def recording(v_alice, v_bob, alice=True):
        value, e_alice, e_bob = evaluate(v_alice, v_bob, alice)
        calls.append((alice, (v_alice[0].copy(), v_bob[0].copy(), value[0], e_bob[0].copy())))
        return value, e_alice, e_bob

    with monkeypatch.context() as patch:
        patch.setattr(objective, "value_and_euclidean_gradient", recording)
        optimize._ascend(objective, config, range(restart, restart + 1))
    iterates, passes, fulls = [], [], [calls[0][1]]
    for alice, call in calls[1:]:
        if alice:
            fulls.append(call)
        else:
            iterates.append(fulls[-1])
            fulls = []
            passes.append((call, fulls))
    return iterates, passes


# restarts 1-8 of this ascent meet both accepted and rejected mixed candidates
MIXED = (
    PairFidelityObjective(MeasureRModel(2, 1).uniform_mixture(), 2, 2),
    AscentConfig(restarts=9, steps=300, seed=5),
)


def test_an_accepted_mixed_iterate_is_never_below_the_half_step_value(monkeypatch):
    objective, config = MIXED
    accepted = rejected = 0
    for restart in range(1, config.restarts):
        _, passes = _recorded_passes(monkeypatch, objective, config, restart)
        for step, ((pa, _, half, e_bob), fulls) in enumerate(passes):
            plain = (pa, optimize._polar(e_bob))
            if step >= optimize.MIX_FROM:
                candidate, *fulls = fulls
                if fulls:
                    assert candidate[2] < half
                    rejected += 1
                else:
                    assert candidate[2] >= half
                    accepted += 1
            if fulls:  # the plain step: before mixing starts, or after a rejected candidate
                (next_a, next_b, _, _), = fulls
                np.testing.assert_allclose(next_a, plain[0], atol=1e-14)
                np.testing.assert_allclose(next_b, plain[1], atol=1e-14)
    assert accepted and rejected


def test_each_candidate_mixes_the_steps_since_the_last_rejection(monkeypatch):
    objective, config = MIXED
    slots = optimize.DEPTH + 1
    rejections = 0
    for restart in range(1, config.restarts):
        iterates, passes = _recorded_passes(monkeypatch, objective, config, restart)
        shape = iterates[0][0].shape
        history = np.zeros((1, slots, 2, 2, *shape), dtype=np.complex128)
        kept = 0
        for step, (x, ((pa, _, _, e_bob), fulls)) in enumerate(zip(iterates, passes)):
            plain = np.stack([pa, optimize._polar(e_bob)])
            history[0, step % slots] = plain, plain - np.stack(x[:2])
            kept = min(kept + 1, slots)
            if step < optimize.MIX_FROM:
                continue
            expected = optimize._polar(optimize._mix(history, np.array([kept]), step % slots))[0]
            np.testing.assert_allclose(np.stack(fulls[0][:2]), expected, atol=1e-12)
            if len(fulls) == 2:
                kept = 1
                rejections += 1
    assert rejections
