"""JSON wire formats and report tables.

Complex matrices serialize as nested ``[re, im]`` pairs; states carry
their ``{n_alice, n_bob}`` partition.  Report records emit as JSON lists
or a CSV summary with sorted columns, so identical inputs produce
byte-identical files.

Protocol specs mirror the in-memory structure round by round, but store
each distinct matrix once, in a top-level ``arrays`` table, in order of
first use.  A table entry is sparse: ``{"shape": [d, d], "entries":
[[i, j, re, im], ...]}`` lists every entry that is not bitwise ``+0.0``
(so ``-0.0`` survives a round trip).  Kraus operators
(``kraus_by_seed[*].branches``), listener unitaries
(``listener_by_seed``) and POVM accept elements (``elements[*].matrix``)
hold table indices.  An inline ``[re, im]`` matrix literal is accepted
wherever an index is, so hand-written specs and files without a table
load through the same reader.  The loader builds each table entry once,
read-only, and every reference to it shares that one array.  A table
entry must be square with a power-of-two side within the qubit cap,
name each ``(i, j)`` inside its shape at most once, and hold finite
numbers; any other document raises ``SpecParseError``.

A protocol holds each distinct operator once plus per-seed indexes into
them; the writer expands the indexes into the ``*_by_seed`` lists and
one ``elements`` entry per (seed, transcript).  The loader builds one
instrument per distinct ``kraus_by_seed`` entry (same table references
and workspace) and shares listeners and POVM elements by table index;
each inline literal stands alone.  Every POVM entry must name its own
leaf: a seed below the seed count and one transcript bit per round.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from typing import Any, Callable

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
from .qcore import DensityMatrix, PureState, _check_capacity


class SpecParseError(ValueError):
    """Malformed specification document; the message names the field."""


def _is_int(value: Any) -> bool:
    """A JSON integer: floats, numeric strings and booleans are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int(value: Any, path: str) -> int:
    if not _is_int(value):
        raise SpecParseError(f"{path}: expected an integer")
    return value


def _finite(value: Any, path: str) -> float:
    """A finite JSON number: numeric strings, booleans, NaN and the
    infinities are not."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise SpecParseError(f"{path}: non-finite or non-numeric value, expected a finite number")


def _list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SpecParseError(f"{path}: expected a list")
    return value


def matrix_to_json(mat: np.ndarray) -> list[list[list[float]]]:
    arr = np.asarray(mat, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def matrix_from_json(data: Any, path: str = "matrix") -> np.ndarray:
    rows = [vector_from_json(row, f"{path}[{i}]") for i, row in enumerate(_list(data, path))]
    if len({len(row) for row in rows}) > 1:
        raise SpecParseError(f"{path}: rows of unequal length")
    return np.asarray(rows, dtype=np.complex128)


def vector_to_json(vec: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=np.complex128)]


def vector_from_json(data: Any, path: str = "vector") -> np.ndarray:
    return np.array([_complex(e, f"{path}[{k}]") for k, e in enumerate(_list(data, path))], dtype=np.complex128)


def _complex(entry: Any, path: str) -> complex:
    if not isinstance(entry, list) or len(entry) != 2:
        raise SpecParseError(f"{path}: expected an [re, im] pair")
    return complex(_finite(entry[0], f"{path}.re"), _finite(entry[1], f"{path}.im"))


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
        cls, args = DepolarizationModel, (field(_int, "n"), field(_finite, "p"))
    elif kind == "fidelity":
        cls, args = FidelityModel, (
            field(_int, "n"),
            field(_finite, "epsilon"),
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


def _is_index(value: Any, size: int) -> bool:
    """A JSON integer in [0, size)."""
    return _is_int(value) and 0 <= value < size


def _sparse_to_json(arr: np.ndarray) -> dict[str, Any]:
    # every entry that is not bitwise +0.0 is stored, so -0.0 survives
    bits = arr.view(np.uint64).reshape(*arr.shape, 2)
    rows, cols = np.nonzero(bits.any(axis=-1))
    entries = [
        [i, j, z.real, z.imag]
        for i, j, z in zip(rows.tolist(), cols.tolist(), arr[rows, cols].tolist())
    ]
    return {"shape": list(arr.shape), "entries": entries}


def _array_from_json(doc: Any, path: str) -> np.ndarray:
    """One ``arrays`` table entry, checked before and while it is filled."""
    shape = doc.get("shape") if isinstance(doc, dict) else None
    if not isinstance(shape, list) or len(shape) != 2 or shape[0] != shape[1]:
        raise SpecParseError(f"{path}.shape: expected a square [d, d]")
    side = shape[0]
    if not _is_index(side, math.inf) or side < 1 or side & (side - 1):
        raise SpecParseError(f"{path}.shape: side must be a power of two")
    # the cap bounds the side before anything is allocated from it
    try:
        _check_capacity(side.bit_length() - 1)
    except ValueError as exc:
        raise SpecParseError(f"{path}.shape: {exc}") from exc
    mat = np.zeros((side, side), dtype=np.complex128)
    filled = set()
    for k, entry in enumerate(_list(doc.get("entries"), f"{path}.entries")):
        where = f"{path}.entries[{k}]"
        if not isinstance(entry, list) or len(entry) != 4:
            raise SpecParseError(f"{where}: expected [i, j, re, im]")
        i, j = entry[0], entry[1]
        if not (_is_index(i, side) and _is_index(j, side)):
            raise SpecParseError(f"{where}: (i, j) outside the shape {side}x{side}")
        if (i, j) in filled:
            raise SpecParseError(f"{where}: duplicate entry ({i}, {j})")
        filled.add((i, j))
        mat[i, j] = complex(_finite(entry[2], f"{where}.re"), _finite(entry[3], f"{where}.im"))
    mat.setflags(write=False)
    return mat


def _matrix(ref: Any, table: list[np.ndarray], path: str) -> np.ndarray:
    """The matrix a spec field names: an ``arrays`` index or an inline
    ``[re, im]`` literal."""
    if isinstance(ref, list):
        return matrix_from_json(ref, path)
    if not _is_index(ref, len(table)):
        raise SpecParseError(f"{path}: expected an index into arrays or an inline matrix")
    return table[ref]


def _shared(items: list, seen: dict, key: Any, build: Callable[[], Any]) -> int:
    """The index into ``items`` of the object ``key`` names, built and
    appended on first sight.  An inline literal's key is a fresh
    ``object()``, so it is never shared."""
    if key not in seen:
        seen[key] = len(items)
        items.append(build())
    return seen[key]


def _accept_to_json(rule: AcceptRule, ref: Callable[[np.ndarray], int], bits: int) -> dict[str, Any]:
    if isinstance(rule, AlwaysAccept):
        return {"kind": "always"}
    if isinstance(rule, ConstantAccept):
        if isinstance(rule.values, (int, float)):
            return {"kind": "constant", "value": float(rule.values)}
        return {"kind": "constant", "values": {k: float(v) for k, v in sorted(rule.values.items())}}
    if isinstance(rule, PovmAccept):
        transcripts = ["".join(t) for t in itertools.product("01", repeat=bits)]
        elements = [
            {"seed": seed, "transcript": transcript, "matrix": ref(rule.elements[i])}
            for seed, row in enumerate(rule.index.tolist())
            for transcript, i in zip(transcripts, row)
        ]
        return {"kind": "povm", "elements": elements}
    raise TypeError(f"unknown accept rule {rule!r}")


def _accept_from_json(doc: Any, table: list[np.ndarray], n_seeds: int, bits: int) -> AcceptRule:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SpecParseError("accept_rule: expected an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "always":
        return AlwaysAccept()
    if kind == "constant":
        if "value" in doc:
            return ConstantAccept(_finite(doc["value"], "accept_rule.value"))
        values = doc.get("values")
        if not isinstance(values, dict):
            raise SpecParseError("accept_rule.values: expected an object")
        return ConstantAccept({str(k): _finite(v, f"accept_rule.values.{k}") for k, v in values.items()})
    if kind == "povm":
        # -1 marks a leaf no entry names; ``Protocol`` reports the first
        elements: list[np.ndarray] = []
        seen: dict[Any, int] = {}
        index = np.full((n_seeds, 1 << bits), -1, dtype=np.intp)
        stray = None
        for idx, entry in enumerate(_list(doc.get("elements", []), "accept_rule.elements")):
            where = f"accept_rule.elements[{idx}]"
            if not isinstance(entry, dict) or "seed" not in entry or "transcript" not in entry:
                raise SpecParseError(f"{where}: needs seed and transcript")
            seed, transcript = _int(entry["seed"], f"{where}.seed"), str(entry["transcript"])
            ref = entry.get("matrix")
            mat = _matrix(ref, table, f"{where}.matrix")
            leaf = 0 <= seed < n_seeds and len(transcript) == bits and not transcript.strip("01")
            code = int(transcript, 2) if leaf and bits else 0
            if not leaf or index[seed, code] >= 0:
                what = "names no leaf" if not leaf else "repeats an earlier entry's leaf"
                stray = stray or f"{where}: (seed, transcript) {(seed, transcript)} {what}"
                continue
            index[seed, code] = _shared(elements, seen, object() if isinstance(ref, list) else ref, lambda: mat)
        if stray is not None and (index >= 0).all():
            raise SpecParseError(stray)
        return PovmAccept(tuple(elements), index)
    raise SpecParseError(f"accept_rule: unknown kind {kind!r}")


def protocol_to_json(protocol: Protocol) -> dict[str, Any]:
    arrays: list[dict[str, Any]] = []
    index: dict[tuple, int] = {}

    def ref(mat: np.ndarray) -> int:
        arr = np.ascontiguousarray(mat, dtype=np.complex128)
        key = (arr.shape, arr.tobytes())
        if key not in index:
            index[key] = len(arrays)
            arrays.append(_sparse_to_json(arr))
        return index[key]

    rounds = []
    for rnd in protocol.rounds:
        round_doc: dict[str, Any] = {
            "party": rnd.party,
            "kraus_by_seed": [
                {
                    "branches": [[ref(k) for k in branch] for branch in rnd.instruments[i].branches],
                    "n_workspace": rnd.instruments[i].n_workspace,
                }
                for i in rnd.instrument_index.tolist()
            ],
        }
        if rnd.listener_unitaries is not None:
            round_doc["listener_by_seed"] = [ref(rnd.listener_unitaries[i]) for i in rnd.listener_index.tolist()]
        rounds.append(round_doc)
    accept = _accept_to_json(protocol.accept, ref, protocol.bits)
    return {
        "name": protocol.name,
        "n": protocol.n_pairs,
        "arrays": arrays,
        "shared_randomness": list(protocol.seed_weights),
        "rounds": rounds,
        "accept_rule": accept,
        "output_pair": list(protocol.output_pair),
    }


def protocol_from_json(doc: Any) -> Protocol:
    if not isinstance(doc, dict):
        raise SpecParseError("protocol: expected an object")
    n = _int(doc.get("n"), "protocol.n")
    weights = doc.get("shared_randomness")
    if not isinstance(weights, list) or not weights:
        raise SpecParseError("protocol.shared_randomness: expected a non-empty list")
    table = [
        _array_from_json(entry, f"arrays[{k}]")
        for k, entry in enumerate(_list(doc.get("arrays", []), "protocol.arrays"))
    ]
    rounds = []
    for ridx, round_doc in enumerate(_list(doc.get("rounds", []), "protocol.rounds")):
        if not isinstance(round_doc, dict) or "party" not in round_doc:
            raise SpecParseError(f"rounds[{ridx}]: expected an object with a party")
        # entries with the same table references share one instrument
        instruments: list[Instrument] = []
        seen: dict[Any, int] = {}
        instrument_index = []
        seeds = _list(round_doc.get("kraus_by_seed", []), f"rounds[{ridx}].kraus_by_seed")
        for sidx, ins_doc in enumerate(seeds):
            where = f"rounds[{ridx}].kraus_by_seed[{sidx}]"
            branches = ins_doc.get("branches") if isinstance(ins_doc, dict) else None
            if not isinstance(branches, list) or len(branches) != 2:
                raise SpecParseError(f"{where}.branches: expected two branches")
            refs = tuple(tuple(_list(branch, f"{where}.branches[{bidx}]")) for bidx, branch in enumerate(branches))
            parsed = tuple(
                tuple(_matrix(k, table, f"{where}.branches[{bidx}][{kidx}]") for kidx, k in enumerate(branch))
                for bidx, branch in enumerate(refs)
            )
            n_workspace = _int(ins_doc.get("n_workspace", 0), f"{where}.n_workspace")
            inline = any(isinstance(k, list) for branch in refs for k in branch)

            def build() -> Instrument:
                try:
                    return Instrument(branches=parsed, n_workspace=n_workspace)
                except ValueError as exc:
                    raise SpecParseError(f"{where}: {exc}") from exc

            instrument_index.append(_shared(instruments, seen, object() if inline else (refs, n_workspace), build))
        listeners = listener_index = None
        if "listener_by_seed" in round_doc:
            where = f"rounds[{ridx}].listener_by_seed"
            listeners, seen, listener_index = [], {}, []
            for uidx, u in enumerate(_list(round_doc["listener_by_seed"], where)):
                mat = _matrix(u, table, f"{where}[{uidx}]")
                key = object() if isinstance(u, list) else u
                listener_index.append(_shared(listeners, seen, key, lambda: mat))
        try:
            rounds.append(
                Round(
                    party=str(round_doc["party"]),
                    instruments=tuple(instruments),
                    listener_unitaries=None if listeners is None else tuple(listeners),
                    instrument_index=instrument_index or None,
                    listener_index=listener_index or None,
                )
            )
        except ValueError as exc:
            raise SpecParseError(f"rounds[{ridx}]: {exc}") from exc
    try:
        return Protocol(
            n_pairs=n,
            seed_weights=tuple(_finite(w, "protocol.shared_randomness") for w in weights),
            rounds=tuple(rounds),
            accept=_accept_from_json(doc.get("accept_rule", {"kind": "always"}), table, len(weights), len(rounds)),
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
