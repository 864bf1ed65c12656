"""Seeded samplers for states, channels, unitaries and protocols.

These feed the property sweeps, which draw random protocols here too;
all take an explicit generator so runs are reproducible byte for byte.
Every complex Gaussian draw takes its real and imaginary parts from one
``standard_normal`` call, real parts first: a ``Generator`` fills one
call of 2k numbers from the same stream as two calls of k, so the
values are those of separate draws.

A sampler is a raw draw, ``rng.standard_normal((2,) + shape)``, plus a
finisher that does the algebra on a stack of raw draws (m, 2, *shape)
at once, each row bit for bit as alone.  The single-instance samplers
finish a stack of one; the lemma sweeps make only the raw draws, in the
same order and so from the same stream, and finish a block at a time.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .locc import AcceptRule, AlwaysAccept, ConstantAccept, Instrument, PovmAccept, Protocol, Round
from .qcore import ALICE, BOB, DensityMatrix, PureState


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Complex Gaussian array: real parts, then imaginary parts, in one draw."""
    draw = rng.standard_normal((2,) + shape)
    return draw[0] + 1j * draw[1]


def _complex(raw: np.ndarray) -> np.ndarray:
    """``_complex_normal`` of each raw draw of a stack (m, 2, *shape)."""
    return raw[:, 0] + 1j * raw[:, 1]


def unit_vectors(raw: np.ndarray) -> np.ndarray:
    """(m, 2, d) raw draws to (m, d) unit vectors, each ``v / norm(v)``."""
    vec = _complex(raw)
    re, im = vec.real, vec.imag
    # np.linalg.norm's sum: a dot of the real parts plus a dot of the
    # imaginary parts, each on the stride-2 view; other sums differ in
    # the last bit
    sq = (re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0]
    return vec / np.sqrt(sq)[:, None]


def products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the rows of (m, da) and (m, db): (m, da * db)."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def mixtures(weights: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """sum_j w_j |a_j><a_j| of (m, k) weights and (m, k, d) amplitudes:
    (m, d, d), accumulated term by term from zeros."""
    m, k, d = amps.shape
    mat = np.zeros((m, d, d), dtype=np.complex128)
    for j in range(k):
        mat += weights[:, j, None, None] * (amps[:, j, :, None] * amps[:, j, None, :].conj())
    return mat


def wishart(raw: np.ndarray) -> np.ndarray:
    """(m, 2, d, rank) raw draws to (m, d, d) unit-trace Wishart matrices."""
    g = _complex(raw)
    mat = g @ g.conj().swapaxes(-1, -2)
    return mat / np.trace(mat, axis1=-2, axis2=-1)[:, None, None]


def kraus_sets(raw: np.ndarray, dim: int) -> np.ndarray:
    """(m, 2, k * dim, dim) raw draws to (m, k, dim, dim) Kraus sets, the
    blocks of the Q factor, a random Stinespring isometry."""
    q, _ = np.linalg.qr(_complex(raw))
    return q.reshape(len(q), -1, dim, dim)


def random_amplitudes(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniformly random unit vector in C^dim, as a plain array.

    The primitive behind every random pure state; sweeps that only read
    amplitudes use it directly and build no ``PureState``.
    """
    return unit_vectors(rng.standard_normal((2, dim))[None])[0]


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
    mat = wishart(rng.standard_normal((2, dim, rank))[None])[0]
    return DensityMatrix(n_alice, n_bob, mat, validate=False)


def random_product_amplitudes(rng: np.random.Generator, n_alice: int, n_bob: int) -> np.ndarray:
    """Amplitudes of a random product state |a>^A (x) |b>^B."""
    a = random_amplitudes(rng, 1 << n_alice)
    return products(a[None], random_amplitudes(rng, 1 << n_bob)[None])[0]


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
    amps = [random_product_amplitudes(rng, n_alice, n_bob) for _ in range(terms)]
    return DensityMatrix(n_alice, n_bob, mixtures(weights[None], np.stack(amps)[None])[0], validate=False)


def random_kraus_channel(
    rng: np.random.Generator, dim: int, n_kraus: int = 3
) -> list[np.ndarray]:
    """Trace-preserving Kraus set from a random Stinespring isometry."""
    if n_kraus < 1:
        raise ValueError(f"n_kraus must be at least 1, got {n_kraus}")
    return list(kraus_sets(rng.standard_normal((2, n_kraus * dim, dim))[None], dim)[0])


def random_povm_element(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random operator M with 0 <= M <= I."""
    g = _complex_normal(rng, (dim, dim))
    h = g @ g.conj().T
    return h / (np.linalg.eigvalsh(h)[-1] + rng.uniform(0.0, 1.0))


# ---------------------------------------------------------------------------
# random protocols for property sweeps


def random_instrument(rng: np.random.Generator, n_qubits: int, kraus_per_branch: int = 1) -> Instrument:
    """Random two-branch trace-preserving instrument on a register."""
    dim = 1 << n_qubits
    ops = random_kraus_channel(rng, dim, n_kraus=2 * kraus_per_branch)
    return Instrument(
        branches=(tuple(ops[:kraus_per_branch]), tuple(ops[kraus_per_branch:]))
    )


def random_protocol(
    rng: np.random.Generator,
    n: int,
    n_rounds: int,
    n_seeds: int = 1,
    kraus_per_branch: int = 1,
    accept_kind: str | None = None,
    with_listeners: bool = False,
    pool: int | None = None,
) -> Protocol:
    """Random LOCC protocol for property sweeps.

    Senders alternate randomly; instruments are random trace-preserving
    splits; the accept rule is drawn among always / constant-per-leaf /
    random POVM unless pinned by ``accept_kind``.  ``with_listeners``
    additionally equips most rounds with a random local unitary on the
    listening party's register.  Every seed draws its own instrument,
    listener and POVM elements, unless ``pool`` is given: then each round
    draws ``pool`` instruments and listeners, the rule ``pool`` elements,
    and the seeds index into them at random, so that they share nodes.
    """
    count = n_seeds if pool is None else pool

    def index(shape):
        return None if pool is None else rng.integers(pool, size=shape)

    def draw_round() -> Round:
        party = ALICE if rng.random() < 0.5 else BOB
        instruments = tuple(random_instrument(rng, n, kraus_per_branch) for _ in range(count))
        listeners = None
        if with_listeners and rng.random() < 0.7:
            listeners = tuple(random_unitary(rng, 1 << n) for _ in range(count))
        return Round(party, instruments, listeners, index(n_seeds), None if listeners is None else index(n_seeds))

    rounds = tuple(draw_round() for _ in range(n_rounds))
    kind = accept_kind or rng.choice(["always", "constant", "povm"])
    if kind == "always":
        accept: AcceptRule = AlwaysAccept()
    elif kind == "constant":
        accept = ConstantAccept(
            values={
                "".join(bits): float(rng.uniform())
                for bits in itertools.product("01", repeat=n_rounds)
            }
        )
    else:
        # without a pool, one element per (seed, transcript), drawn in that order
        shape = (n_seeds, 1 << n_rounds)
        elements = tuple(random_povm_element(rng, 1 << n) for _ in range(math.prod(shape) if pool is None else pool))
        accept = PovmAccept(elements, np.arange(len(elements)).reshape(shape) if pool is None else index(shape))
    weights = rng.dirichlet(np.ones(n_seeds)) if n_seeds > 1 else np.array([1.0])
    return Protocol(
        n_pairs=n,
        seed_weights=tuple(float(w) for w in weights),
        rounds=rounds,
        accept=accept,
        output_pair=tuple(int(rng.integers(n)) for _ in range(n_seeds)),
        name="random",
    )
