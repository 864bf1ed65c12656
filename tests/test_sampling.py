"""The seeded samplers: their random stream, their argument checks, and
their stacked finishers against plain per-instance numpy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edplab.sampling import (
    kraus_sets,
    mixtures,
    products,
    random_amplitudes,
    random_density_matrix,
    random_kraus_channel,
    random_pure_state,
    random_separable_mixture,
    unit_vectors,
    wishart,
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


# ---------------------------------------------------------------------------
# stacked finishers, bit for bit against per-instance numpy

DIMS = range(2, 33)


def assert_bits(actual, expected):
    """Equal bit for bit, the sign of every zero included."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.shape, actual.dtype) == (expected.shape, expected.dtype)
    assert actual.tobytes() == expected.tobytes()


def raw_draws(rng, m, *shape):
    """m raw draws (2, *shape) with signed zeros in the first row."""
    raw = rng.standard_normal((m, 2) + shape)
    raw[0, 0].flat[::3] = -0.0
    raw[0, 1].flat[::2] = 0.0
    return raw


def unit(v):
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("m", [1, 7, 100])
def test_unit_vectors_and_products_match_norm_and_kron(m):
    rng = np.random.default_rng(m)
    for d in DIMS:
        raw = raw_draws(rng, m, d)
        vecs = unit_vectors(raw)
        assert_bits(vecs, [unit(r[0] + 1j * r[1]) for r in raw])
        other = unit_vectors(raw_draws(rng, m, 2 + d % 3))
        assert_bits(products(vecs, other), [np.kron(a, b) for a, b in zip(vecs, other)])


@pytest.mark.parametrize("m", [1, 7, 100])
def test_mixtures_match_the_looped_outer_sum(m):
    rng = np.random.default_rng(m)
    for d in DIMS:
        k = 1 + d % 4
        weights = rng.dirichlet(np.ones(k), size=m)
        weights[0, 0] = 0.0
        amps = unit_vectors(raw_draws(rng, m * k, d)).reshape(m, k, d)
        expected = []
        for w_row, a_row in zip(weights, amps):
            mat = np.zeros((d, d), dtype=np.complex128)
            for w, a in zip(w_row, a_row):
                mat += w * np.outer(a, a.conj())
            expected.append(mat)
        assert_bits(mixtures(weights, amps), expected)


@pytest.mark.parametrize("m", [1, 7, 100])
def test_wishart_and_kraus_sets_match_per_matrix_numpy(m):
    rng = np.random.default_rng(m)
    for d in DIMS:
        raw = raw_draws(rng, m, d, 1 + d % 5)
        expected = []
        for r in raw:
            g = r[0] + 1j * r[1]
            mat = g @ g.conj().T
            expected.append(mat / np.trace(mat))
        assert_bits(wishart(raw), expected)
        k = 1 + d % 3
        raw = raw_draws(rng, m, k * d, d)
        expected = []
        for r in raw:
            q, _ = np.linalg.qr(r[0] + 1j * r[1])
            expected.append([q[j * d : (j + 1) * d] for j in range(k)])
        assert_bits(kraus_sets(raw, d), expected)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), d=st.integers(2, 12), k=st.integers(1, 4))
def test_a_block_finishes_as_its_rows_one_at_a_time(seed, m, d, k):
    rng = np.random.default_rng(seed)
    vec_raw = rng.standard_normal((m, 2, d))
    mat_raw = rng.standard_normal((m, 2, d, k))
    kraus_raw = rng.standard_normal((m, 2, k * d, d))
    weights = rng.dirichlet(np.ones(k), size=m)
    amps = unit_vectors(rng.standard_normal((m * k, 2, d))).reshape(m, k, d)
    rows = [slice(i, i + 1) for i in range(m)]
    assert_bits(unit_vectors(vec_raw), np.concatenate([unit_vectors(vec_raw[i]) for i in rows]))
    vecs = unit_vectors(vec_raw)
    assert_bits(products(vecs, vecs[::-1]), np.concatenate([products(vecs[i], vecs[::-1][i]) for i in rows]))
    assert_bits(mixtures(weights, amps), np.concatenate([mixtures(weights[i], amps[i]) for i in rows]))
    assert_bits(wishart(mat_raw), np.concatenate([wishart(mat_raw[i]) for i in rows]))
    assert_bits(kraus_sets(kraus_raw, d), np.concatenate([kraus_sets(kraus_raw[i], d) for i in rows]))
