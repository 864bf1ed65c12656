"""The seeded samplers: their random stream and their argument checks."""

import numpy as np
import pytest

from edplab.sampling import (
    random_amplitudes,
    random_density_matrix,
    random_kraus_channel,
    random_pure_state,
    random_separable_mixture,
)


@pytest.mark.parametrize(
    "seed, amplitudes, matrix",
    [
        (
            0,
            [
                0.06750061473502707 - 0.2875840960801554j,
                -0.07092296032014339 + 0.1941290509097708j,
                0.3438228471979393 + 0.7000767508028545j,
            ],
            [
                0.12997710001554766 - 1.916770201584198e-18j,
                -0.08341041074030334 - 0.09913936201124747j,
                -0.08341041074030334 + 0.09913936201124747j,
            ],
        ),
        (
            1,
            [
                0.16769553253574826 + 0.43932603887058064j,
                0.3986921140467846 + 0.2166042988707274j,
                0.1603453593436953 - 0.26055780564654846j,
            ],
            [
                0.42700198415453694 - 6.074640710133254e-18j,
                -0.27861759339725756 - 0.13526039436301449j,
                -0.27861759339725756 + 0.13526039436301449j,
            ],
        ),
    ],
)
def test_samplers_golden_stream(seed, amplitudes, matrix):
    # bit-for-bit values of separate real and imaginary draws
    psi = random_pure_state(np.random.default_rng(seed), 1, 1).amplitudes
    assert psi[:3].tolist() == amplitudes
    rho = random_density_matrix(np.random.default_rng(seed), 1, 0).matrix
    assert rho.ravel()[:3].tolist() == matrix


def test_fused_draw_matches_separate_draws():
    fused = random_amplitudes(np.random.default_rng(4), 8)
    rng = np.random.default_rng(4)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    np.testing.assert_array_equal(fused, vec / np.linalg.norm(vec))


def test_density_matrix_rejects_rank_zero():
    with pytest.raises(ValueError, match="rank"):
        random_density_matrix(np.random.default_rng(0), 1, 1, rank=0)


def test_kraus_channel_rejects_no_operators():
    with pytest.raises(ValueError, match="n_kraus"):
        random_kraus_channel(np.random.default_rng(0), 2, n_kraus=0)


def test_separable_mixture_rejects_no_terms():
    with pytest.raises(ValueError, match="terms"):
        random_separable_mixture(np.random.default_rng(0), 1, 1, terms=0)
