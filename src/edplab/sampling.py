"""Seeded samplers for states, channels, and unitaries.

These feed the property sweeps; all take an explicit generator so runs
are reproducible byte for byte.  Every complex Gaussian draw takes its
real and imaginary parts from one ``standard_normal`` call, real parts
first: a ``Generator`` fills one call of 2k numbers from the same stream
as two calls of k, so the values are those of separate draws.
"""

from __future__ import annotations

import numpy as np

from .qcore import DensityMatrix, PureState


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Complex Gaussian array: real parts, then imaginary parts, in one draw."""
    draw = rng.standard_normal((2,) + shape)
    return draw[0] + 1j * draw[1]


def random_amplitudes(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniformly random unit vector in C^dim, as a plain array.

    The primitive behind every random pure state; sweeps that only read
    amplitudes use it directly and build no ``PureState``.
    """
    vec = _complex_normal(rng, (dim,))
    return vec / np.linalg.norm(vec)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a Ginibre matrix."""
    q, r = np.linalg.qr(_complex_normal(rng, (dim, dim)))
    # fix the phase ambiguity so the distribution is Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure_state(rng: np.random.Generator, n_alice: int, n_bob: int) -> PureState:
    return PureState(n_alice, n_bob, random_amplitudes(rng, 1 << (n_alice + n_bob)))


def random_density_matrix(
    rng: np.random.Generator, n_alice: int, n_bob: int, rank: int | None = None
) -> DensityMatrix:
    """Normalized Wishart matrix of the given rank (default: full rank)."""
    dim = 1 << (n_alice + n_bob)
    if rank is None:
        rank = dim
    elif rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    g = _complex_normal(rng, (dim, rank))
    mat = g @ g.conj().T
    return DensityMatrix(n_alice, n_bob, mat / np.trace(mat), validate=False)


def random_product_amplitudes(rng: np.random.Generator, n_alice: int, n_bob: int) -> np.ndarray:
    """Amplitudes of a random product state |a>^A (x) |b>^B."""
    return np.kron(random_amplitudes(rng, 1 << n_alice), random_amplitudes(rng, 1 << n_bob))


def random_product_pure(rng: np.random.Generator, n_alice: int, n_bob: int) -> PureState:
    """Disentangled pure state |a>^A (x) |b>^B."""
    return PureState(n_alice, n_bob, random_product_amplitudes(rng, n_alice, n_bob))


def random_separable_mixture(
    rng: np.random.Generator, n_alice: int, n_bob: int, terms: int = 4
) -> DensityMatrix:
    """Convex mixture of random product pure states."""
    if terms < 1:
        raise ValueError(f"terms must be at least 1, got {terms}")
    weights = rng.dirichlet(np.ones(terms))
    dim = 1 << (n_alice + n_bob)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for w in weights:
        amps = random_product_amplitudes(rng, n_alice, n_bob)
        mat += w * np.outer(amps, amps.conj())
    return DensityMatrix(n_alice, n_bob, mat, validate=False)


def random_kraus_channel(
    rng: np.random.Generator, dim: int, n_kraus: int = 3
) -> list[np.ndarray]:
    """Trace-preserving Kraus set from a random Stinespring isometry."""
    if n_kraus < 1:
        raise ValueError(f"n_kraus must be at least 1, got {n_kraus}")
    q, _ = np.linalg.qr(_complex_normal(rng, (n_kraus * dim, dim)))
    # q: (n_kraus*dim, dim) isometry, q^dag q = I
    return [q[k * dim : (k + 1) * dim, :].copy() for k in range(n_kraus)]


def random_povm_element(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random operator M with 0 <= M <= I."""
    g = _complex_normal(rng, (dim, dim))
    h = g @ g.conj().T
    return h / (np.linalg.eigvalsh(h)[-1] + rng.uniform(0.0, 1.0))
