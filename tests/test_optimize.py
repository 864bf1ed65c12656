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
from edplab.sampling import random_unitary

QUICK = AscentConfig(restarts=3, steps=300, seed=11)


def _random_antihermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g - g.conj().T) / 2.0


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
    ua, ub = random_unitary(rng, dim), random_unitary(rng, dim)
    value, e_a, e_b = objective.value_and_euclidean_gradient(ua, ub)
    grad_a, grad_b = optimize._omega(e_a, ua), optimize._omega(e_b, ub)
    assert value == pytest.approx(objective.value(ua, ub), abs=1e-14)
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


@pytest.mark.parametrize("fields", [{"restarts": 0}, {"steps": 0}, {"restarts": -1}])
def test_ascent_config_rejects_empty_budgets(fields):
    with pytest.raises(ValueError):
        AscentConfig(**fields)


# the two ensembles of the gradient check above: (ensemble, n, ancillas)
ENSEMBLES = {
    "measure-r(2,1)": (MeasureRModel(2, 1).uniform_mixture(), 2, 1),
    "depolarization(1,0.4)": (pair_bell_mixture_ensemble(1, 0.4), 1, 2),
}


@pytest.mark.parametrize("name", sorted(ENSEMBLES))
def test_euclidean_gradient_matches_central_differences(name):
    objective = PairFidelityObjective(*ENSEMBLES[name])
    rng = np.random.default_rng(8)
    dim = objective.d_side
    ua, ub = random_unitary(rng, dim), random_unitary(rng, dim)
    value, e_alice, e_bob = objective.value_and_euclidean_gradient(ua, ub)
    assert value == pytest.approx(objective.value(ua, ub), abs=1e-14)
    h = 1e-5
    for _ in range(3):
        # any complex direction, not only tangent ones: d/dt f(U + tX) = Re tr(E^H X)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
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
    dim = objective.d_side
    ua, ub = random_unitary(rng, dim), random_unitary(rng, dim)
    value, e_alice, e_bob = objective.value_and_euclidean_gradient(ua, ub)
    new_a, new_b = optimize._polar(e_alice), optimize._polar(e_bob)
    for u in (new_a, new_b):
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)
    assert objective.value(new_a, ub) >= value - 1e-12
    assert objective.value(ua, new_b) >= value - 1e-12
    # the polar factor maximises the linearisation Re tr(E^H V) over unitaries
    for e, polar in ((e_alice, new_a), (e_bob, new_b)):
        best = np.vdot(e, polar).real
        for _ in range(4):
            assert np.vdot(e, random_unitary(rng, dim)).real <= best + 1e-12


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
