"""Mutation check of the tier-1 suite.

Usage, from the root of a checkout:

    python tests/mutants.py [NAME ...]

Each entry of ``MUTANTS`` is one textual edit to a file under
``src/edplab``: the exact old text (which must occur once), the new text,
and what the edit breaks.  For each mutant, or each one named on the
command line, the script copies ``src``, ``tests``, ``bench`` and
``pyproject.toml`` into a temporary directory, applies the edit there and
runs the tier-1 suite on the copy, fail-fast (``-x``).  A mutant is
killed when the suite fails, and survives when it passes.  Mutants marked
``equivalent`` cannot change a result and are expected to survive; the
entry says why.  The script prints one line per mutant and exits 1 when a
mutant that is not equivalent survives, or when an edit no longer applies.

pytest does not collect this file (it collects ``test_*.py`` only), and it
is not a CI step: run it by hand after changing a listed file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 1800


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    breaks: str
    equivalent: str | None = None  # why the edit cannot change a result


MUTANTS = (
    Mutant(
        "gather-bob-phase-conjugated", "src/edplab/frontier.py",
        "amps = self.amps[:, None] * table.phase.reshape(-1)[at]",
        "amps = self.amps[:, None] * table.phase.reshape(-1)[at].conj()",
        "sparse nodes under Bob's monomial operators take conjugated phases",
    ),
    Mutant(
        "gather-keeps-negative-zero", "src/edplab/frontier.py",
        "        amps[zero] = 0.0\n        cols[zero] = 0\n",
        "        cols[zero] = 0\n",
        "equal sparse nodes may hold different bytes (-0.0), so class tables stop merging them",
    ),
    Mutant(
        "dense-sandwich-transpose", "src/edplab/frontier.py",
        "kh = k.conj().swapaxes(-1, -2)",
        "kh = k.swapaxes(-1, -2)",
        "dense nodes are sandwiched by K^T instead of K^dagger",
    ),
    Mutant(
        "score-entries-ignore-output-pair", "src/edplab/locc.py",
        "_first_seen((leaves.classes * count + accept) * protocol.n_pairs + pairs)",
        "_first_seen((leaves.classes * count + accept) * protocol.n_pairs)",
        "leaves that differ only in their output pair share one scored entry",
    ),
    Mutant(
        "tracker-vanished-case-two-not-flagged", "src/edplab/verify.py",
        "margins = np.where(live & (p2 < locc.PROB_TOL), -np.inf, np.inf)",
        "margins = np.full(len(p2), np.inf)",
        "a live case-I node whose case-II node vanished passes the dominance check",
    ),
    Mutant(
        "bell-mixture-weight-perturbed", "src/edplab/errmodels.py",
        '"psi-": 0.25 * p}',
        '"psi-": 0.2500001 * p}',
        "the depolarization ensemble of the ascent no longer sums to the depolarized state",
    ),
    Mutant(
        "tracker-drops-bob-margin", "src/edplab/verify.py",
        "margins[rows2] = np.minimum(low_a, low_b)",
        "margins[rows2] = low_a",
        "passed and worst_node ignore Bob's dominance",
    ),
    Mutant(
        "tracker-skips-initial-condition", "src/edplab/verify.py",
        "    initial_ok = all(\n"
        "        bool(np.abs(local - eye).max() <= 1e-10) for st in (perfect, mixed)"
        " for local in frontier_of(st).local_states()\n"
        "    )\n",
        "    initial_ok = True\n",
        "the splitting report no longer checks that both inputs have local states I/2^n",
        equivalent="the tracker builds both inputs itself (epr_state and the maximally mixed "
        "product), whose local states are I/2^n by construction",
    ),
    Mutant(
        "fits-without-factor-two", "src/edplab/locc.py",
        "    return 2 * table_bytes <= row_bytes + FRONTIER_BUDGET_BYTES",
        "    return table_bytes <= row_bytes + FRONTIER_BUDGET_BYTES",
        "a merged level's class table may pass the budget by more than its merges saved",
    ),
    Mutant(
        "accept-strict-threshold", "src/edplab/locc.py",
        "kept = r_joint >= PROB_TOL",
        "kept = r_joint > PROB_TOL",
        "a leaf whose p_t r_t is exactly PROB_TOL is dropped",
        equivalent="it differs only where Tr(M rho_t) equals PROB_TOL to the last bit",
    ),
    Mutant(
        "witness-p-weighted-by-perfect-part", "src/edplab/locc.py",
        "float(_weighted(protocol, epr_state(n), walk)[2][0])",
        "float(_weighted(protocol, epr_state(n), walk)[2][0])"
        " * (fidelity_witness_components(n, epsilons[0])[0][0] if epsilons else 1.0)",
        "p is read from the witness's perfect part, weighted by 1 - eps', instead of from the perfect block",
    ),
    Mutant(
        "witness-group-epsilons-reversed", "src/edplab/verify.py",
        "locc.witness_fidelities(locc.make_simple_random_hash(n, s), epsilons)",
        "locc.witness_fidelities(locc.make_simple_random_hash(n, s), epsilons[::-1])",
        "the cells of a fidelity sweep group get each other's values",
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def check(mutant: Mutant) -> tuple[bool, float]:
    """Whether tier-1 fails on the mutant, and the seconds it took."""
    with tempfile.TemporaryDirectory(prefix="edplab-mutant-") as tmp:
        root = Path(tmp)
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, root / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", root / "pyproject.toml")
        apply(mutant, root)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
        )
        return proc.returncode != 0, time.perf_counter() - start


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in chosen:
        try:
            killed, seconds = check(mutant)
        except ValueError as exc:
            print(f"stale     {exc}")
            bad += 1
            continue
        verdict = "killed" if killed else "equivalent" if mutant.equivalent else "SURVIVED"
        bad += verdict == "SURVIVED"
        note = f" ({mutant.equivalent})" if mutant.equivalent and not killed else ""
        print(f"{verdict:<10} {seconds:6.1f} s  {mutant.name}: {mutant.breaks}{note}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
