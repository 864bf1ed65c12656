"""The protocol spec format: a deduplicated sparse ``arrays`` table,
table indices or inline matrix literals wherever a matrix goes, and a
loader that shares one read-only array per table entry."""

import hashlib
import json
import math

import numpy as np
import pytest

from edplab import locc, qcore, serialize
from edplab.cli import main
from edplab.errmodels import MeasureRModel
from edplab.locc import (
    ConstantAccept,
    Instrument,
    Protocol,
    Round,
    make_first_pair,
    make_random_pair,
    make_random_permutation,
    make_simple_random_hash,
    model_fidelities,
    run,
)
from edplab.qcore import ALICE, BOB, DensityMatrix, ProductState, epr_state
from edplab.rng import substream
from edplab.sampling import random_instrument, random_protocol
from edplab.serialize import SpecParseError


def _bits(arr):
    return np.ascontiguousarray(arr, dtype=np.complex128).view(np.uint64)


def _same_bits(a, b):
    return np.shape(a) == np.shape(b) and np.array_equal(_bits(a), _bits(b))


def _by_seed(entries, index):
    """Per-seed entries from distinct ones and a per-seed index."""
    return [entries[i] for i in index.tolist()]


def _elements(proto):
    """((seed, transcript), element) of every leaf, in (seed, transcript) order."""
    rule = proto.accept
    transcripts = [locc._transcript(code, proto.bits) for code in range(1 << proto.bits)]
    return [
        ((seed, t), rule.elements[i]) for seed, row in enumerate(rule.index.tolist()) for t, i in zip(transcripts, row)
    ]


def _matrices(proto):
    """Every matrix of a protocol, seed by seed, in one fixed order."""
    out = []
    for rnd in proto.rounds:
        for ins in _by_seed(rnd.instruments, rnd.instrument_index):
            out += [k for branch in ins.branches for k in branch]
            out += [k for branch in ins.kraus for k in branch]
        if rnd.listener_unitaries is not None:
            out += _by_seed(rnd.listener_unitaries, rnd.listener_index)
    if isinstance(proto.accept, locc.PovmAccept):
        out += [m for _, m in _elements(proto)]
    return out


def _through_text(proto):
    # the CLI's own encoding of a spec
    text = json.dumps(serialize.protocol_to_json(proto), indent=2, sort_keys=True)
    return serialize.protocol_from_json(json.loads(text))


def _assert_same_protocol(a, b):
    assert (a.name, a.n_pairs, a.seed_weights, a.output_pair) == (b.name, b.n_pairs, b.seed_weights, b.output_pair)
    assert [(r.party, len(r.instrument_index)) for r in a.rounds] == [
        (r.party, len(r.instrument_index)) for r in b.rounds
    ]
    assert [i.n_workspace for r in a.rounds for i in _by_seed(r.instruments, r.instrument_index)] == [
        i.n_workspace for r in b.rounds for i in _by_seed(r.instruments, r.instrument_index)
    ]
    assert type(a.accept) is type(b.accept)
    if isinstance(a.accept, ConstantAccept):
        assert a.accept.values == b.accept.values
    ma, mb = _matrices(a), _matrices(b)
    assert len(ma) == len(mb)
    assert all(_same_bits(x, y) for x, y in zip(ma, mb))


def _signed_zero_protocol():
    """A random protocol with a workspace instrument and a listener whose
    zero entries are -0.0."""
    rng = substream(11, "spec-format-workspace")
    n = 2
    base = random_protocol(rng, n, 2, n_seeds=2, kraus_per_branch=2, accept_kind="povm", with_listeners=True)
    workspace = Instrument(branches=random_instrument(rng, n + 1).branches, n_workspace=1)
    listener = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 1 << n)))
    listener[listener == 0] = complex(-0.0, -0.0)
    listener[0, 0] = complex(1.0, -0.0)
    rounds = (
        Round(party=ALICE, instruments=(workspace,), listener_unitaries=(listener,)),
        Round(party=BOB, instruments=base.rounds[1].instruments, listener_unitaries=base.rounds[1].listener_unitaries),
    )
    return Protocol(n, base.seed_weights, rounds, base.accept, base.output_pair, name="workspace")


@pytest.mark.parametrize(
    "maker",
    [
        lambda: make_first_pair(2),
        lambda: make_random_pair(3),
        lambda: make_random_permutation(3),
        lambda: make_simple_random_hash(4, 2),
        _signed_zero_protocol,
    ],
    ids=["first-pair", "random-pair", "random-permutation", "hash", "workspace"],
)
def test_spec_round_trip_is_bitwise(maker):
    proto = maker()
    _assert_same_protocol(proto, _through_text(proto))


@pytest.mark.parametrize(
    "values", [0.37, {"00": 0.25, "01": 1.0, "10": 0.0, "11": 0.625}], ids=["scalar", "per-transcript"]
)
def test_constant_accept_spec_round_trips(values):
    hash_ = make_simple_random_hash(3, 2)
    proto = Protocol(3, hash_.seed_weights, hash_.rounds, ConstantAccept(values), hash_.output_pair, name="constant")
    doc = json.loads(json.dumps(serialize.protocol_to_json(proto)))
    key = "value" if isinstance(values, float) else "values"
    assert doc["accept_rule"] == {"kind": "constant", key: values}
    loaded = serialize.protocol_from_json(doc)
    _assert_same_protocol(proto, loaded)
    for state in (epr_state(3), DensityMatrix.maximally_mixed(3, 3)):
        _assert_same_run(proto, loaded, state)


def test_spec_stores_negative_zero():
    doc = serialize.protocol_to_json(_signed_zero_protocol())
    negative_zeros = [
        value
        for entry in doc["arrays"]
        for _, _, re, im in entry["entries"]
        for value in (re, im)
        if value == 0.0 and math.copysign(1.0, value) < 0
    ]
    assert negative_zeros


def test_spec_table_is_deduplicated_and_sparse():
    proto = make_simple_random_hash(4, 3)
    doc = serialize.protocol_to_json(proto)
    distinct = {(m.shape, _bits(m).tobytes()) for m in _matrices(proto) if m.shape == (16, 16)}
    assert len(doc["arrays"]) == len(distinct) == 48
    assert sum(len(entry["entries"]) for entry in doc["arrays"]) == 432
    assert all(entry["shape"] == [16, 16] for entry in doc["arrays"])
    assert [doc["name"], doc["n"], len(doc["rounds"])] == ["simple-random-hash-s3", 4, 3]


def _inline_document(proto):
    """The spec of ``proto`` with every matrix an inline [re, im] literal
    and no arrays table, as specs were written before the table."""
    rounds = []
    for rnd in proto.rounds:
        round_doc = {
            "party": rnd.party,
            "kraus_by_seed": [
                {
                    "branches": [[serialize.matrix_to_json(k) for k in b] for b in ins.branches],
                    "n_workspace": ins.n_workspace,
                }
                for ins in _by_seed(rnd.instruments, rnd.instrument_index)
            ],
        }
        if rnd.listener_unitaries is not None:
            round_doc["listener_by_seed"] = [
                serialize.matrix_to_json(u) for u in _by_seed(rnd.listener_unitaries, rnd.listener_index)
            ]
        rounds.append(round_doc)
    elements = [
        {"seed": seed, "transcript": t, "matrix": serialize.matrix_to_json(m)}
        for (seed, t), m in _elements(proto)
    ]
    return {
        "name": proto.name,
        "n": proto.n_pairs,
        "shared_randomness": list(proto.seed_weights),
        "rounds": rounds,
        "accept_rule": {"kind": "povm", "elements": elements},
        "output_pair": list(proto.output_pair),
    }


def _assert_same_run(a, b, state):
    ra, rb = run(a, state), run(b, state)
    assert ra.success_probability == rb.success_probability
    assert _same_bits(ra.output.matrix, rb.output.matrix)
    assert _same_bits(ra.conditional_output.matrix, rb.conditional_output.matrix)
    assert [(l.seed, l.transcript, l.probability, l.accept_probability) for l in ra.leaves] == [
        (l.seed, l.transcript, l.probability, l.accept_probability) for l in rb.leaves
    ]


def test_inline_matrix_spec_loads_and_runs_identically():
    proto = make_simple_random_hash(2, 1)
    inline = serialize.protocol_from_json(json.loads(json.dumps(_inline_document(proto))))
    tabled = _through_text(proto)
    _assert_same_protocol(proto, inline)
    for state in (epr_state(2), DensityMatrix.maximally_mixed(2, 2)):
        _assert_same_run(proto, inline, state)
        _assert_same_run(tabled, inline, state)
    model = MeasureRModel(2, 1)
    assert model_fidelities(inline, model) == model_fidelities(proto, model)


def test_inline_literal_and_index_mix_in_one_spec():
    proto = make_simple_random_hash(3, 1)
    doc = serialize.protocol_to_json(proto)
    listeners = doc["rounds"][0]["listener_by_seed"]
    rnd = proto.rounds[0]
    listeners[1] = serialize.matrix_to_json(rnd.listener_unitaries[rnd.listener_index[1]])
    _assert_same_protocol(proto, serialize.protocol_from_json(doc))


def test_table_entries_load_as_one_shared_read_only_array():
    proto = make_simple_random_hash(3, 2)
    doc = serialize.protocol_to_json(proto)
    back = serialize.protocol_from_json(doc)
    # one object per table entry, reached from every field that names it
    by_index = {}
    for rnd_doc, rnd in zip(doc["rounds"], back.rounds):
        instruments = _by_seed(rnd.instruments, rnd.instrument_index)
        for ins_doc, ins in zip(rnd_doc["kraus_by_seed"], instruments, strict=True):
            for b_doc, branch in zip(ins_doc["branches"], ins.branches):
                for idx, k in zip(b_doc, branch):
                    by_index.setdefault(idx, set()).add(id(k))
        listeners = _by_seed(rnd.listener_unitaries, rnd.listener_index)
        for idx, u in zip(rnd_doc["listener_by_seed"], listeners, strict=True):
            by_index.setdefault(idx, set()).add(id(u))
    elements = _elements(back)
    for el, (key, m) in zip(doc["accept_rule"]["elements"], elements, strict=True):
        assert key == (el["seed"], el["transcript"])
        by_index.setdefault(el["matrix"], set()).add(id(m))
    assert sorted(by_index) == list(range(len(doc["arrays"])))
    assert all(len(ids) == 1 for ids in by_index.values())
    # seeds share the accept projector of a transcript
    first, last = elements[1][1], elements[-3][1]
    assert (elements[1][0], elements[-3][0]) == ((0, "01"), (back.n_seeds - 1, "01"))
    assert first is last and not first.flags.writeable
    assert all(not m.flags.writeable for m in _matrices(back))


def test_povm_square_root_once_per_distinct_element(monkeypatch):
    calls = []
    real = qcore.hermitian_sqrt
    monkeypatch.setattr("edplab.protocol.hermitian_sqrt", lambda m, **kw: calls.append(id(m)) or real(m, **kw))
    proto = make_simple_random_hash(4, 3)
    state = ProductState.maximally_mixed(4, 4)  # reaches every leaf
    for p in (proto, _through_text(proto)):
        calls.clear()
        run(p, state)
        assert 0 < len(calls) == len(set(calls)) <= 8


def test_hash_5_3_spec_is_under_one_megabyte(tmp_path):
    out = tmp_path / "hash53.json"
    assert main(["protocol", "--make", "simple-random-hash", "--n", "5", "--s", "3", "--out", str(out)]) == 0
    assert out.stat().st_size < 1_000_000


_HASH = serialize.protocol_to_json(make_simple_random_hash(2, 1))


def _edit(path, value):
    doc = json.loads(json.dumps(_HASH))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value(target[last]) if callable(value) else value
    return doc


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("rounds", 0, "listener_by_seed", 0), len(_HASH["arrays"]), "index into arrays"),
        (("rounds", 0, "listener_by_seed", 0), -1, "index into arrays"),
        (("rounds", 0, "kraus_by_seed", 0, "branches", 0, 0), True, "index into arrays"),
        (("accept_rule", "elements", 0, "matrix"), 1.0, "index into arrays"),
        (("arrays", 0, "shape"), [3, 3], "power of two"),
        (("arrays", 0, "shape"), [4, 2], "square"),
        (("arrays", 0, "shape"), [1 << 40, 1 << 40], "cap"),
        (("arrays", 0, "entries", 0, 0), 4, "outside the shape"),
        (("arrays", 0, "entries", 0, 1), -1, "outside the shape"),
        (("arrays", 0, "entries"), lambda e: e + [e[0]], "duplicate entry"),
        (("arrays", 0, "entries", 0, 2), float("inf"), "finite"),
        (("arrays", 0, "entries", 0, 3), 10**400, "finite"),
        (("arrays", 0, "entries", 0), [0, 0, 1.0], r"\[i, j, re, im\]"),
        (("arrays",), {}, "expected a list"),
    ],
)
def test_arrays_table_rejections_name_the_reason(path, value, message):
    with pytest.raises(SpecParseError, match=message):
        serialize.protocol_from_json(_edit(path, value))


def _add_element(**edits):
    def edit(elements):
        return elements + [{**elements[0], **edits}]

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_add_element(seed=7), r"elements\[4\]: \(seed, transcript\) \(7, '0'\) names no leaf"),
        (_add_element(seed=-1, transcript="x"), r"elements\[4\]: \(seed, transcript\) \(-1, 'x'\) names no leaf"),
        (_add_element(transcript="0110"), r"elements\[4\]: \(seed, transcript\) \(0, '0110'\) names no leaf"),
        (_add_element(), r"elements\[4\]: \(seed, transcript\) \(0, '0'\) repeats an earlier entry's leaf"),
        # a missing leaf is reported before an entry that names none
        (lambda e: [{**e[0], "seed": 7}] + e[1:], r"no POVM element for \(seed, transcript\) \(0, '0'\)"),
        (lambda e: e[1:], r"no POVM element for \(seed, transcript\) \(0, '0'\)"),
    ],
)
def test_povm_entries_name_one_leaf_each(edit, message):
    with pytest.raises(SpecParseError, match=message):
        serialize.protocol_from_json(_edit(("accept_rule", "elements"), edit))


def test_loaded_hash_builds_each_distinct_operator_once():
    proto = make_simple_random_hash(5, 3)
    loaded = serialize.protocol_from_json(json.loads(json.dumps(serialize.protocol_to_json(proto))))
    for p in (proto, loaded):
        assert p.n_seeds == 512
        assert [len(rnd.instruments) for rnd in p.rounds] == [16, 8, 4]
        assert len({id(ins) for rnd in p.rounds for ins in rnd.instruments}) == 28
        assert len(p.accept.elements) == 8 and p.accept.index.shape == (512, 8)


# sha256 of the spec bytes at the commit before protocols held indexes
# into their distinct operators; the index form writes the same bytes
GOLDEN_SPECS = {
    ("simple-random-hash", 4, 3): "1bf556eee21924968591f6950fc1c156d28e4c438d06f672653e4764e6487d3a",
    ("simple-random-hash", 5, 1): "f6694e21e4cbc20a06be56fe2b9e974cadfd55d5fe5bdf0e5f21ebe10986b567",
    ("simple-random-hash", 5, 3): "19919f8aafc915366cd73c76f1579d87a0413e0f8c7a002fec6b0413489ebc5c",
    ("random-permutation", 3, None): "9ead8d74b170df76df5706624674a85041f6e8f8367ee70b61b3e66cc2922d64",
    ("first-pair", 2, None): "39a40ce1f11e47695aa159a121e78e2fe3ea73d8c6398dd6b6953c8e390bd124",
}


@pytest.mark.parametrize("maker, n, s", sorted(GOLDEN_SPECS, key=str))
def test_protocol_make_writes_the_golden_bytes(tmp_path, maker, n, s):
    out = tmp_path / "spec.json"
    argv = ["protocol", "--make", maker, "--n", str(n), "--out", str(out)]
    assert main(argv + (["--s", str(s)] if s else [])) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SPECS[(maker, n, s)]


def test_workspace_spec_text_is_golden():
    text = json.dumps(serialize.protocol_to_json(_signed_zero_protocol()), indent=2, sort_keys=True)
    digest = "bb0e8eed0c60242a76846e61e8075c800a839850c636173d76f51ff9d1867f9c"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
