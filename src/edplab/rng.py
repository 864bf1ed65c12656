"""Deterministic stream splitting.

Every random draw in the package flows from one user seed through
``substream``, which derives independent child generators from a stable
hash of a path of labels.  Parallel and serial execution therefore see
identical streams regardless of scheduling.
"""

from __future__ import annotations

import numpy as np


def _label_to_int(label: int | str) -> int:
    if isinstance(label, int):
        return label & 0xFFFFFFFF
    # imported here: hashlib loads OpenSSL, which a command that draws
    # nothing never needs (numpy.random loads it at the first draw anyway)
    import hashlib

    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Child generator for ``(seed, path)``; same inputs, same stream."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned value")
    key = tuple(_label_to_int(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
