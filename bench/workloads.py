"""Seed-generated task lists for the benchmark workloads, and the checks
that judge each task's output.

A task is one ``edplab`` command line.  Every task writes its records
(or, for ``protocol --make``, its spec) to a file in the pass's work
directory, and the check reads that file back.  The seed sets only
parameter values; the amount of work in a task list does not depend on
it.  This module imports nothing from edplab, so the parent process can
check outputs without paying for the import.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

WORKLOADS = ("ascent", "witness", "pure-spec")

# Restarts per ascent probe: sized so one pass of `ascent` takes a few
# seconds on a 2-CPU machine, leaving room for several passes per run.
ASCENT_RESTARTS = 4

# (n, s) cells of `bounds --model fidelity --include-no-comm-probe`.
# (4, 3) is left out: it alone costs about as much as the rest of the
# list together, which would leave room for only one pass per run.
WITNESS_CELLS = ((3, 1), (3, 2), (4, 1), (4, 2), (5, 1))

# (n, s, r): emit a simple-random-hash spec, then evaluate it on measure-r.
SPEC_CASES = ((4, 3, 2), (5, 1, 3))

# fidelity and conditional_fidelity of each SPEC_CASES evaluation,
# recorded from the seed code; compared within EQ_TOL.
SPEC_REFERENCE = {
    (4, 3, 2): (0.4999999999999999, 0.4999999999999999),
    (5, 1, 3): (0.4999999999999999, 0.4999999999999999),
}

LEMMA_COUNT = 1000
LEMMAS = (
    "pauli-deviation-cap",
    "bell-base-fidelity-identity",
    "disentangled-base-fidelity-cap",
    "fidelity-linearity",
    "fidelity-monotonicity",
)

EQ_TOL = 1e-9
CERT_TOL = 1e-6


@dataclass(frozen=True)
class Task:
    name: str
    argv: tuple[str, ...]
    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def output(self) -> str:
        """File name, relative to the work directory, the task writes."""
        return f"{self.name}.json"

    @property
    def writes_spec(self) -> bool:
        return self.kind == "spec-make"


def tasks(workload: str, seed: int, workdir: Path) -> list[Task]:
    """The fixed task list of ``workload``; ``seed`` sets only values."""
    rng = random.Random(f"edplab-bench:{workload}:{seed}")
    if workload == "ascent":
        return _ascent(rng, workdir)
    if workload == "witness":
        return _witness(rng, workdir)
    if workload == "pure-spec":
        return _pure_spec(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _task(workdir: Path, name: str, kind: str, argv: list[str], **params: Any) -> Task:
    return Task(name, tuple(argv + ["--out", str(workdir / f"{name}.json")]), kind, params)


def _ascent(rng: random.Random, workdir: Path) -> list[Task]:
    ascent_seed = rng.randrange(2**31)
    p = round(rng.uniform(0.1, 0.9), 6)
    common = ["--ancillas", "2", "--restarts", str(ASCENT_RESTARTS), "--seed", str(ascent_seed)]
    out = [
        _task(workdir, f"ascent-measure-r-{n}-{r}", "ascent-measure-r",
              ["bounds", "--model", "measure-r", "--n", str(n), "--r", str(r), *common], n=n, r=r)
        for n, r in ((1, 1), (2, 1))
    ]
    out.append(
        _task(workdir, "ascent-depolarization-2", "ascent-depolarization",
              ["bounds", "--model", "depolarization", "--n", "2", "--p", repr(p), *common], n=2, p=p)
    )
    return out


def _witness(rng: random.Random, workdir: Path) -> list[Task]:
    epsilon = round(rng.uniform(0.05, 0.3), 6)
    sweep_eps = sorted(round(rng.uniform(0.05, 0.3), 6) for _ in range(2))
    out = [
        _task(workdir, f"witness-bounds-{n}-{s}", "witness-bounds",
              ["bounds", "--model", "fidelity", "--include-no-comm-probe",
               "--n", str(n), "--s", str(s), "--epsilon", repr(epsilon)],
              n=n, s=s, epsilon=epsilon)
        for n, s in WITNESS_CELLS
    ]
    out.append(
        _task(workdir, "witness-sweep", "witness-sweep",
              ["sweep", "--model", "fidelity", "--n", "3..4", "--s", "1..2",
               "--epsilon", ",".join(repr(e) for e in sweep_eps)],
              ns=(3, 4), ss=(1, 2), epsilons=tuple(sweep_eps))
    )
    return out


def _pure_spec(seed: int, workdir: Path) -> list[Task]:
    out = [
        _task(workdir, "lemmas", "lemmas",
              ["lemmas", "--seed", str(seed), "--count", str(LEMMA_COUNT)]),
        _task(workdir, "measure-r-sweep", "measure-r-sweep",
              ["sweep", "--model", "measure-r", "--n", "1..5", "--r", "all", "--seed", str(seed)]),
    ]
    for n, s, r in SPEC_CASES:
        spec = _task(workdir, f"spec-hash-{n}-{s}", "spec-make",
                     ["protocol", "--make", "simple-random-hash", "--n", str(n), "--s", str(s)],
                     n=n, s=s)
        out.append(spec)
        out.append(
            _task(workdir, f"spec-eval-{n}-{s}-{r}", "spec-eval",
                  ["protocol", "--spec", str(workdir / spec.output), "--model", "measure-r", "--r", str(r)],
                  n=n, s=s, r=r)
        )
    return out


# ---------------------------------------------------------------------------
# output checks


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a: Any, b: float, tol: float = EQ_TOL) -> bool:
    return isinstance(a, (int, float)) and not isinstance(a, bool) and abs(a - b) <= tol


def check(task: Task, text: str) -> str | None:
    """None when the task's output is right, else why it is not."""
    try:
        doc = json.loads(text)
        _CHECKS[task.kind](task.params, doc)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


def _ascent_record(doc: Any, floor: float, bound: float) -> None:
    _require(len(doc) == 1, f"expected one record, got {len(doc)}")
    rec = doc[0]
    _require(rec["pass"] is True, "ascent record does not pass")
    achieved = rec["achieved"]
    _require(
        floor - CERT_TOL <= achieved <= bound + CERT_TOL,
        f"achieved {achieved!r} outside [{floor!r}, {bound!r}]",
    )


def _check_ascent_measure_r(params: dict[str, Any], doc: Any) -> None:
    value = 1.0 - params["r"] / (2.0 * params["n"])
    _ascent_record(doc, value, value)


def _check_ascent_depolarization(params: dict[str, Any], doc: Any) -> None:
    p = params["p"]
    _ascent_record(doc, 1.0 - 0.75 * p, 1.0 - 0.5 * p)


def _check_pos_row(rec: dict[str, Any], n: int, s: int, epsilon: float) -> None:
    _require(rec["theorem"] == "pos-fidelity", f"unexpected theorem {rec['theorem']!r}")
    _require((rec["param_n"], rec["param_s"]) == (n, s), "pos row has the wrong cell")
    _require(_close(rec["param_epsilon"], epsilon, 0.0), "pos row has the wrong epsilon")
    _require(rec["pass"] is True, f"pos row ({n},{s}) does not pass")
    floor = 1.0 - 2.0**-s / (1.0 - epsilon)
    _require(rec["achieved"] >= floor - EQ_TOL, f"pos row ({n},{s}) below 1 - 2^-s/(1-eps)")


def _check_witness_bounds(params: dict[str, Any], doc: Any) -> None:
    n, s, epsilon = params["n"], params["s"], params["epsilon"]
    _require(len(doc) == 3, f"expected pos, neg and no-comm rows, got {len(doc)}")
    pos, neg, no_comm = doc
    _check_pos_row(pos, n, s, epsilon)
    _require(neg["theorem"] == "neg-fidelity", f"unexpected theorem {neg['theorem']!r}")
    _require(neg["pass"] is True, f"neg row ({n},{s}) does not pass")
    _require(neg["achieved"] <= neg["bound"] + EQ_TOL, f"neg row ({n},{s}) above its ceiling")
    _require(no_comm["theorem"] == "pos-fidelity-no-comm", "missing no-comm row")
    expected = 1.0 - 0.75 * (4.0**n / (4.0**n - 1.0)) * epsilon
    _require(_close(no_comm["achieved"], expected), f"no-comm achieved {no_comm['achieved']!r} != {expected!r}")
    # the claimed floor is falsified on the witness for n >= 2
    _require(no_comm["falsified"] is (n >= 2), f"no-comm falsified flag wrong at n={n}")
    _require(no_comm["pass"] is (n < 2), f"no-comm pass flag wrong at n={n}")


def _check_witness_sweep(params: dict[str, Any], doc: Any) -> None:
    cells = [(n, s, e) for n in params["ns"] for s in params["ss"] for e in params["epsilons"]]
    _require(len(doc) == len(cells), f"expected {len(cells)} sweep rows, got {len(doc)}")
    for rec, (n, s, e) in zip(doc, cells):
        _check_pos_row(rec, n, s, e)


def _check_lemmas(params: dict[str, Any], doc: Any) -> None:
    _require([rec["lemma"] for rec in doc] == list(LEMMAS), "unexpected lemma list")
    for rec in doc:
        _require(rec["instances"] == LEMMA_COUNT, f"{rec['lemma']}: wrong instance count")
        _require(rec["pass"] is True and rec["violations"] == 0, f"{rec['lemma']} fails")


def _check_measure_r_sweep(params: dict[str, Any], doc: Any) -> None:
    cells = [(n, r) for n in range(1, 6) for r in range(n + 1)]
    _require(len(doc) == len(cells), f"expected {len(cells)} sweep rows, got {len(doc)}")
    for rec, (n, r) in zip(doc, cells):
        _require((rec["param_n"], rec["param_r"]) == (n, r), "sweep row has the wrong cell")
        _require(rec["pass"] is True, f"measure-r ({n},{r}) does not pass")
        expected = 1.0 - r / (2.0 * n)
        _require(_close(rec["achieved"], expected), f"measure-r ({n},{r}) achieved {rec['achieved']!r}")


def _check_spec_make(params: dict[str, Any], doc: Any) -> None:
    _require(doc["name"] == f"simple-random-hash-s{params['s']}", f"unexpected name {doc['name']!r}")
    _require(doc["n"] == params["n"], "spec has the wrong pair count")
    _require(len(doc["rounds"]) == params["s"], "spec has the wrong round count")


def _check_spec_eval(params: dict[str, Any], doc: Any) -> None:
    _require(len(doc) == 1, f"expected one record, got {len(doc)}")
    rec = doc[0]
    ref_fid, ref_cond = SPEC_REFERENCE[(params["n"], params["s"], params["r"])]
    # a null where the reference holds a number is a failure
    _require(_close(rec["fidelity"], ref_fid), f"fidelity {rec['fidelity']!r} != {ref_fid!r}")
    _require(
        _close(rec["conditional_fidelity"], ref_cond),
        f"conditional_fidelity {rec['conditional_fidelity']!r} != {ref_cond!r}",
    )


_CHECKS = {
    "ascent-measure-r": _check_ascent_measure_r,
    "ascent-depolarization": _check_ascent_depolarization,
    "witness-bounds": _check_witness_bounds,
    "witness-sweep": _check_witness_sweep,
    "lemmas": _check_lemmas,
    "measure-r-sweep": _check_measure_r_sweep,
    "spec-make": _check_spec_make,
    "spec-eval": _check_spec_eval,
}
