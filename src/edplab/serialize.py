"""JSON wire formats and report tables.

Complex matrices serialize as nested ``[re, im]`` pairs; states carry
their ``{n_alice, n_bob}`` partition.  Protocol specs mirror the
in-memory structure round by round.  Report records emit as JSON lists
or a CSV summary with sorted columns, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any

import numpy as np

from .errmodels import DepolarizationModel, ErrorModel, FidelityModel, MeasureRModel
from .locc import (
    AcceptRule,
    AlwaysAccept,
    ConstantAccept,
    Instrument,
    PovmAccept,
    Protocol,
    Round,
    RunResult,
)
from .qcore import DensityMatrix, PureState


class SpecParseError(ValueError):
    """Malformed specification document; the message names the field."""


# what int(), float(), complex() and indexing raise on a JSON value of the
# wrong shape, kind or size (``Infinity`` and huge integers overflow)
_BAD_VALUE = (KeyError, IndexError, TypeError, ValueError, OverflowError)


def _int(value: Any, path: str) -> int:
    try:
        return int(value)
    except _BAD_VALUE as exc:
        raise SpecParseError(f"{path}: expected an integer") from exc


def _float(value: Any, path: str) -> float:
    try:
        return float(value)
    except _BAD_VALUE as exc:
        raise SpecParseError(f"{path}: expected a number") from exc


def _list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SpecParseError(f"{path}: expected a list")
    return value


def matrix_to_json(mat: np.ndarray) -> list[list[list[float]]]:
    arr = np.asarray(mat, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def matrix_from_json(data: Any, path: str = "matrix") -> np.ndarray:
    try:
        arr = np.asarray(
            [[complex(entry[0], entry[1]) for entry in row] for row in data],
            dtype=np.complex128,
        )
    except _BAD_VALUE as exc:
        raise SpecParseError(f"{path}: expected nested [re, im] pairs") from exc
    return arr


def vector_to_json(vec: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=np.complex128)]


def vector_from_json(data: Any, path: str = "vector") -> np.ndarray:
    try:
        return np.asarray([complex(e[0], e[1]) for e in data], dtype=np.complex128)
    except _BAD_VALUE as exc:
        raise SpecParseError(f"{path}: expected [re, im] pairs") from exc


def state_to_json(state: PureState | DensityMatrix) -> dict[str, Any]:
    doc: dict[str, Any] = {"n_alice": state.n_alice, "n_bob": state.n_bob}
    if isinstance(state, PureState):
        doc["amplitudes"] = vector_to_json(state.amplitudes)
    else:
        doc["matrix"] = matrix_to_json(state.matrix)
    return doc


def state_from_json(doc: Any) -> PureState | DensityMatrix:
    if not isinstance(doc, dict):
        raise SpecParseError("state: expected an object")
    na, nb = _int(doc.get("n_alice"), "state.n_alice"), _int(doc.get("n_bob"), "state.n_bob")
    if "amplitudes" in doc:
        cls, data = PureState, vector_from_json(doc["amplitudes"], "state.amplitudes")
    elif "matrix" in doc:
        cls, data = DensityMatrix, matrix_from_json(doc["matrix"], "state.matrix")
    else:
        raise SpecParseError("state: needs amplitudes or matrix")
    try:
        return cls(na, nb, data)
    except ValueError as exc:
        raise SpecParseError(f"state: {exc}") from exc


# ---------------------------------------------------------------------------
# error models


def error_model_to_json(model: ErrorModel) -> dict[str, Any]:
    if isinstance(model, MeasureRModel):
        return {"model": "measure_r", "n": model.n, "r": model.r}
    if isinstance(model, DepolarizationModel):
        return {"model": "depolarization", "n": model.n, "p": model.p}
    if isinstance(model, FidelityModel):
        doc: dict[str, Any] = {"model": "fidelity", "n": model.n, "epsilon": model.epsilon}
        if model.samples:
            doc["samples"] = model.samples
            doc["seed"] = model.seed
        return doc
    raise TypeError(f"unknown model {model!r}")


def error_model_from_json(doc: Any) -> ErrorModel:
    if not isinstance(doc, dict) or "model" not in doc:
        raise SpecParseError("error model: expected an object with a 'model' field")
    kind = doc["model"]

    def field(read, key, default=None):
        return read(doc.get(key, default), f"model.{key}")

    if kind == "measure_r":
        cls, args = MeasureRModel, (field(_int, "n"), field(_int, "r"))
    elif kind == "depolarization":
        cls, args = DepolarizationModel, (field(_int, "n"), field(_float, "p"))
    elif kind == "fidelity":
        cls, args = FidelityModel, (
            field(_int, "n"),
            field(_float, "epsilon"),
            field(_int, "samples", 0),
            field(_int, "seed", 0),
        )
    else:
        raise SpecParseError(f"error model: unknown kind {kind!r}")
    try:
        return cls(*args)
    except ValueError as exc:
        raise SpecParseError(f"error model ({kind}): {exc}") from exc


# ---------------------------------------------------------------------------
# protocols


def _accept_to_json(rule: AcceptRule) -> dict[str, Any]:
    if isinstance(rule, AlwaysAccept):
        return {"kind": "always"}
    if isinstance(rule, ConstantAccept):
        if isinstance(rule.values, (int, float)):
            return {"kind": "constant", "value": float(rule.values)}
        return {"kind": "constant", "values": {k: float(v) for k, v in sorted(rule.values.items())}}
    if isinstance(rule, PovmAccept):
        elements = [
            {"seed": seed, "transcript": transcript, "matrix": matrix_to_json(mat)}
            for (seed, transcript), mat in sorted(rule.elements.items())
        ]
        return {"kind": "povm", "elements": elements}
    raise TypeError(f"unknown accept rule {rule!r}")


def _accept_from_json(doc: Any) -> AcceptRule:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SpecParseError("accept_rule: expected an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "always":
        return AlwaysAccept()
    if kind == "constant":
        if "value" in doc:
            return ConstantAccept(_float(doc["value"], "accept_rule.value"))
        values = doc.get("values")
        if not isinstance(values, dict):
            raise SpecParseError("accept_rule.values: expected an object")
        return ConstantAccept({str(k): _float(v, f"accept_rule.values.{k}") for k, v in values.items()})
    if kind == "povm":
        elements = {}
        for idx, entry in enumerate(_list(doc.get("elements", []), "accept_rule.elements")):
            if not isinstance(entry, dict) or "seed" not in entry or "transcript" not in entry:
                raise SpecParseError(f"accept_rule.elements[{idx}]: needs seed and transcript")
            key = (_int(entry["seed"], f"accept_rule.elements[{idx}].seed"), str(entry["transcript"]))
            elements[key] = matrix_from_json(
                entry.get("matrix"), f"accept_rule.elements[{idx}].matrix"
            )
        return PovmAccept(elements=elements)
    raise SpecParseError(f"accept_rule: unknown kind {kind!r}")


def protocol_to_json(protocol: Protocol) -> dict[str, Any]:
    rounds = []
    for rnd in protocol.rounds:
        round_doc: dict[str, Any] = {
            "party": rnd.party,
            "kraus_by_seed": [
                {
                    "branches": [[matrix_to_json(k) for k in branch] for branch in ins.branches],
                    "n_workspace": ins.n_workspace,
                }
                for ins in rnd.instruments
            ],
        }
        if rnd.listener_unitaries is not None:
            round_doc["listener_by_seed"] = [
                matrix_to_json(u) for u in rnd.listener_unitaries
            ]
        rounds.append(round_doc)
    return {
        "name": protocol.name,
        "n": protocol.n_pairs,
        "shared_randomness": list(protocol.seed_weights),
        "rounds": rounds,
        "accept_rule": _accept_to_json(protocol.accept),
        "output_pair": list(protocol.output_pair),
    }


def protocol_from_json(doc: Any) -> Protocol:
    if not isinstance(doc, dict):
        raise SpecParseError("protocol: expected an object")
    n = _int(doc.get("n"), "protocol.n")
    weights = doc.get("shared_randomness")
    if not isinstance(weights, list) or not weights:
        raise SpecParseError("protocol.shared_randomness: expected a non-empty list")
    rounds = []
    for ridx, round_doc in enumerate(_list(doc.get("rounds", []), "protocol.rounds")):
        if not isinstance(round_doc, dict) or "party" not in round_doc:
            raise SpecParseError(f"rounds[{ridx}]: expected an object with a party")
        instruments = []
        seeds = _list(round_doc.get("kraus_by_seed", []), f"rounds[{ridx}].kraus_by_seed")
        for sidx, ins_doc in enumerate(seeds):
            where = f"rounds[{ridx}].kraus_by_seed[{sidx}]"
            branches = ins_doc.get("branches") if isinstance(ins_doc, dict) else None
            if not isinstance(branches, list) or len(branches) != 2:
                raise SpecParseError(f"{where}.branches: expected two branches")
            parsed = tuple(
                tuple(
                    matrix_from_json(k, f"{where}.branches[{bidx}][{kidx}]")
                    for kidx, k in enumerate(_list(branch, f"{where}.branches[{bidx}]"))
                )
                for bidx, branch in enumerate(branches)
            )
            n_workspace = _int(ins_doc.get("n_workspace", 0), f"{where}.n_workspace")
            try:
                instruments.append(Instrument(branches=parsed, n_workspace=n_workspace))
            except ValueError as exc:
                raise SpecParseError(f"{where}: {exc}") from exc
        listener = None
        if "listener_by_seed" in round_doc:
            where = f"rounds[{ridx}].listener_by_seed"
            listener = tuple(
                matrix_from_json(u, f"{where}[{uidx}]")
                for uidx, u in enumerate(_list(round_doc["listener_by_seed"], where))
            )
        try:
            rounds.append(
                Round(
                    party=str(round_doc["party"]),
                    instruments=tuple(instruments),
                    listener_unitaries=listener,
                )
            )
        except ValueError as exc:
            raise SpecParseError(f"rounds[{ridx}]: {exc}") from exc
    try:
        return Protocol(
            n_pairs=n,
            seed_weights=tuple(_float(w, "protocol.shared_randomness") for w in weights),
            rounds=tuple(rounds),
            accept=_accept_from_json(doc.get("accept_rule", {"kind": "always"})),
            output_pair=tuple(
                _int(j, "protocol.output_pair") for j in _list(doc.get("output_pair", [0]), "protocol.output_pair")
            ),
            name=str(doc.get("name", "")),
        )
    except ValueError as exc:
        raise SpecParseError(f"protocol: {exc}") from exc


def run_result_to_json(result: RunResult) -> dict[str, Any]:
    leaves = []
    for leaf in result.leaves:
        leaves.append(
            {
                "component": leaf.component,
                "seed": leaf.seed,
                "transcript": leaf.transcript,
                "weight": leaf.weight,
                "probability": leaf.probability,
                "accept_probability": leaf.accept_probability,
                "output_state": None
                if leaf.output_state is None
                else matrix_to_json(leaf.output_state),
            }
        )
    return {
        "n": result.n_pairs,
        "bits": result.bits,
        "success_probability": result.success_probability,
        "leaves": leaves,
        "output": matrix_to_json(result.output.matrix),
        "conditional_output": None
        if result.conditional_output is None
        else matrix_to_json(result.conditional_output.matrix),
    }


# ---------------------------------------------------------------------------
# report tables


def records_to_json(records: list[dict[str, Any]]) -> str:
    return json.dumps(records, indent=2, sort_keys=True) + "\n"


def records_to_csv(records: list[dict[str, Any]]) -> str:
    columns: list[str] = sorted({key for rec in records for key in rec})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for rec in records:
        writer.writerow({k: _csv_cell(rec.get(k)) for k in columns})
    return buf.getvalue()


def _csv_cell(value: Any) -> Any:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True)
    return value
