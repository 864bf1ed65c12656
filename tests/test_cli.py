import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edplab import cli, serialize
from edplab.cli import main
from edplab.errmodels import DepolarizationModel, FidelityModel, MeasureRModel, pair_bell_mixture_ensemble
from edplab.locc import (
    make_first_pair,
    make_random_pair,
    make_random_permutation,
    make_simple_random_hash,
    model_fidelities,
    run,
)
from edplab.qcore import DensityMatrix, PureState, bell_state, epr_state
from edplab.sampling import random_density_matrix, random_pure_state
from edplab.serialize import SpecParseError


# ---------------------------------------------------------------------------
# serialization round trips


def test_matrix_round_trip():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    doc = serialize.matrix_to_json(mat)
    np.testing.assert_array_equal(serialize.matrix_from_json(doc), mat)


def test_state_round_trip():
    rng = np.random.default_rng(5)
    pure = random_pure_state(rng, 1, 2)
    back = serialize.state_from_json(serialize.state_to_json(pure))
    assert isinstance(back, PureState)
    np.testing.assert_array_equal(back.amplitudes, pure.amplitudes)
    mixed = random_density_matrix(rng, 1, 1)
    back = serialize.state_from_json(serialize.state_to_json(mixed))
    assert isinstance(back, DensityMatrix)
    np.testing.assert_array_equal(back.matrix, mixed.matrix)


def test_error_model_round_trip():
    for model in (
        MeasureRModel(3, 1),
        DepolarizationModel(2, 0.4),
        FidelityModel(2, 0.25, samples=2, seed=7),
    ):
        doc = serialize.error_model_to_json(model)
        assert serialize.error_model_from_json(doc) == model


def test_error_model_json_schema():
    doc = serialize.error_model_to_json(MeasureRModel(2, 1))
    assert doc == {"model": "measure_r", "n": 2, "r": 1}
    doc = serialize.error_model_to_json(DepolarizationModel(2, 0.3))
    assert doc == {"model": "depolarization", "n": 2, "p": 0.3}
    doc = serialize.error_model_to_json(FidelityModel(2, 0.1))
    assert doc == {"model": "fidelity", "n": 2, "epsilon": 0.1}


@pytest.mark.parametrize(
    "maker",
    [
        lambda: make_first_pair(2),
        lambda: make_random_pair(3),
        lambda: make_random_permutation(3),
        lambda: make_simple_random_hash(3, 2),
    ],
)
def test_protocol_round_trip_preserves_behaviour(maker):
    proto = maker()
    doc = serialize.protocol_to_json(proto)
    text = json.dumps(doc)  # must be valid JSON end to end
    back = serialize.protocol_from_json(json.loads(text))
    state = epr_state(proto.n_pairs)
    a = run(proto, state)
    b = run(back, state)
    assert a.success_probability == pytest.approx(b.success_probability, abs=1e-12)
    np.testing.assert_allclose(a.output.matrix, b.output.matrix, atol=1e-12)
    mixed = DensityMatrix.maximally_mixed(proto.n_pairs, proto.n_pairs)
    a = run(proto, mixed)
    b = run(back, mixed)
    assert a.success_probability == pytest.approx(b.success_probability, abs=1e-12)


def test_protocol_parse_error_names_field():
    doc = serialize.protocol_to_json(make_first_pair(2))
    doc["shared_randomness"] = []
    with pytest.raises(SpecParseError, match="shared_randomness"):
        serialize.protocol_from_json(doc)
    doc = serialize.protocol_to_json(make_simple_random_hash(2, 1))
    doc["rounds"][0]["kraus_by_seed"][0]["branches"] = [[]]
    with pytest.raises(SpecParseError, match=r"rounds\[0\]"):
        serialize.protocol_from_json(doc)


def test_run_result_json():
    result = run(make_random_pair(2), epr_state(2))
    doc = serialize.run_result_to_json(result)
    assert doc["success_probability"] == pytest.approx(1.0)
    assert len(doc["leaves"]) == 2
    back = serialize.matrix_from_json(doc["output"])
    np.testing.assert_allclose(back, bell_state("phi+").to_density().matrix, atol=1e-12)


def test_records_to_csv_sorted_columns():
    text = serialize.records_to_csv([{"b": 1.5, "a": "x"}, {"a": "y", "c": True}])
    lines = text.splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1].startswith("x,1.5")


# ---------------------------------------------------------------------------
# CLI


def read_json(path):
    return json.loads(path.read_text())


def test_cli_lemmas_pass(tmp_path, capsys):
    out = tmp_path / "lemmas.json"
    code = main(["lemmas", "--count", "40", "--seed", "1", "--out", str(out)])
    assert code == 0
    records = read_json(out)
    assert len(records) == 5
    assert all(rec["pass"] for rec in records)


def test_cli_lemmas_documented_tolerance_failure(tmp_path):
    out = tmp_path / "lemmas.json"
    code = main(
        ["lemmas", "--count", "40", "--seed", "1", "--tolerance", "1e-15", "--out", str(out)]
    )
    assert code == 1


def test_cli_lemmas_csv_format(tmp_path):
    out = tmp_path / "lemmas.csv"
    code = main(["lemmas", "--count", "20", "--seed", "2", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6  # header + one row per lemma
    assert lines[0].split(",")[0] == "instances"


def test_cli_unwritable_output_is_io_error(tmp_path):
    code = main(
        ["lemmas", "--count", "10", "--out", str(tmp_path / "missing" / "x.json")]
    )
    assert code == 2


def test_cli_capacity_exceeded_is_parameter_error(monkeypatch, capsys):
    monkeypatch.setenv("EDPLAB_MAX_QUBITS", "3")
    code = main(["bounds", "--model", "measure-r", "--n", "2", "--r", "1", "--restarts", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bounds_measure_r(tmp_path):
    out = tmp_path / "bounds.json"
    code = main(
        [
            "bounds",
            "--model",
            "measure-r",
            "--n",
            "2",
            "--r",
            "1",
            "--restarts",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    (record,) = read_json(out)
    assert record["bound"] == pytest.approx(0.75)
    assert record["pass"] is True


def test_cli_bounds_fidelity_with_no_comm_probe(tmp_path):
    out = tmp_path / "bounds.json"
    code = main(
        [
            "bounds",
            "--model",
            "fidelity",
            "--n",
            "2",
            "--s",
            "1",
            "--epsilon",
            "0.25",
            "--include-no-comm-probe",
            "--out",
            str(out),
        ]
    )
    # the no-communication floor probe is a known falsification: exit 1
    assert code == 1
    records = read_json(out)
    assert [r["theorem"] for r in records] == [
        "pos-fidelity",
        "neg-fidelity",
        "pos-fidelity-no-comm",
    ]
    assert records[0]["pass"] and records[1]["pass"]
    assert records[2]["falsified"] is True


def test_cli_protocol_make_and_evaluate(tmp_path):
    spec = tmp_path / "first_pair.json"
    assert main(["protocol", "--make", "first-pair", "--n", "2", "--out", str(spec)]) == 0
    out = tmp_path / "eval.json"
    code = main(
        [
            "protocol",
            "--spec",
            str(spec),
            "--model",
            "depolar",
            "--p",
            "0.4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    (record,) = read_json(out)
    assert record["fidelity"] == pytest.approx(0.7, abs=1e-10)


def test_cli_protocol_parse_error(tmp_path):
    spec = tmp_path / "broken.json"
    spec.write_text('{"n": 2, "shared_randomness": []}')
    code = main(["protocol", "--spec", str(spec), "--model", "depolar", "--p", "0.1"])
    assert code == 2


def test_cli_protocol_model_file(tmp_path):
    spec = tmp_path / "rp.json"
    assert main(["protocol", "--make", "random-pair", "--n", "2", "--out", str(spec)]) == 0
    model = tmp_path / "model.json"
    model.write_text(json.dumps(serialize.error_model_to_json(MeasureRModel(2, 1))))
    out = tmp_path / "eval.json"
    code = main(["protocol", "--spec", str(spec), "--model-file", str(model), "--out", str(out)])
    assert code == 0
    (record,) = read_json(out)
    assert record["fidelity"] == pytest.approx(0.75, abs=1e-12)


def test_cli_protocol_emit_run(tmp_path):
    spec = tmp_path / "srh.json"
    assert main(
        ["protocol", "--make", "simple-random-hash", "--n", "2", "--s", "1", "--out", str(spec)]
    ) == 0
    # default input: the perfect block, which the hash always accepts
    result_path = tmp_path / "run.json"
    assert main(["protocol", "--spec", str(spec), "--emit-run", str(result_path)]) == 0
    doc = read_json(result_path)
    assert doc["success_probability"] == pytest.approx(1.0, abs=1e-12)
    assert doc["bits"] == 1
    # explicit input state: the maximally mixed block accepts at rate 1/2
    state_path = tmp_path / "state.json"
    state_path.write_text(
        json.dumps(serialize.state_to_json(DensityMatrix.maximally_mixed(2, 2)))
    )
    assert main(
        ["protocol", "--spec", str(spec), "--input", str(state_path),
         "--emit-run", str(result_path)]
    ) == 0
    doc = read_json(result_path)
    assert doc["success_probability"] == pytest.approx(0.5, abs=1e-12)
    cond = serialize.matrix_from_json(doc["conditional_output"])
    np.testing.assert_allclose(cond, np.eye(4) / 4, atol=1e-10)


def test_cli_emit_run_bytes_are_pinned(tmp_path):
    # hash (4,3) on a measure-r (4,2) error state: the file's sha256 was
    # recorded with the per-row runner, before nodes were merged by content
    spec, state, out = tmp_path / "srh.json", tmp_path / "state.json", tmp_path / "run.json"
    assert main(["protocol", "--make", "simple-random-hash", "--n", "4", "--s", "3", "--out", str(spec)]) == 0
    state.write_text(json.dumps(serialize.state_to_json(MeasureRModel(4, 2).states()[3])))
    assert main(["protocol", "--spec", str(spec), "--input", str(state), "--emit-run", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "40642c5f8360da3ed9e5b40c2603e7e69e0b8c95c61d2ab836d82f5cdbe8a0a8"


# commands whose runs merge levels through class tables, with each
# output file's sha256 and the exit code, recorded before the tables were
# keyed by row bytes; the bounds command exits 1 on the falsified
# no-communication floor
MERGED_COMMANDS = {
    "bounds-fidelity-5-1": (
        ["bounds", "--model", "fidelity", "--include-no-comm-probe", "--n", "5", "--s", "1", "--epsilon", "0.2"],
        1, "300c649d1ea40f00ff4990b9fe24a99769e59d2627e2d81b4ede67ba3a9c579a"),
    "sweep-fidelity": (
        ["sweep", "--model", "fidelity", "--n", "3..4", "--s", "1..2", "--epsilon", "0.1,0.27"],
        0, "20f93971bd3225dcb8492969e6c452362bbadfe2d8004dc9176528db29ceb1c4"),
    "spec-hash-5-2": (["--s", "2"], 0, "e4795be8c2e40a2c9547eb9c8326efb6336312e75b0a5f852c90f6b478e882ce"),
    "spec-hash-5-3": (["--s", "3"], 0, "0e4cfeda389a896c3bf73b0e1877d0af13d7c37618992fdc508995963c235757"),
}


@pytest.mark.parametrize("name", sorted(MERGED_COMMANDS))
def test_cli_merged_run_bytes_are_pinned(tmp_path, name):
    argv, code, digest = MERGED_COMMANDS[name]
    if name.startswith("spec-"):  # the hash (5, s) spec on measure-r (5,2)
        spec = tmp_path / "srh.json"
        assert main(["protocol", "--make", "simple-random-hash", "--n", "5", *argv, "--out", str(spec)]) == 0
        argv = ["protocol", "--spec", str(spec), "--model", "measure-r", "--r", "2"]
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# fidelity commands at the edges of grouping cells by (n, s), with each
# output file's sha256 and the exit code, recorded before the cells of a
# group shared one witness walk: at n = 3 the 0.99 cells and every s = 3
# cell are error records; epsilon 0.9375 = 1 - 4^-2 drops the perfect
# block from the witness, and epsilon 0 drops the mixed part
_EDGE_SWEEP = ["sweep", "--model", "fidelity", "--n", "3..4", "--s", "1..3", "--epsilon", "0.1,0.99"]
_EDGE_BOUNDS = ["bounds", "--model", "fidelity", "--include-no-comm-probe", "--n", "2", "--s", "1", "--epsilon"]
_EDGE_SWEEP_JSON = "5729abcb6a94cec22c61bc3e3bbaeeef07b31d0efa90f17d983881e436df200d"
_EDGE_SWEEP_CSV = "56f814dfc5556de9c63fe2dd78fd201605a7e896e022b2cfb9374ab0f8a21e6d"
WITNESS_EDGE_COMMANDS = {
    "sweep-json-1": ([*_EDGE_SWEEP, "--workers", "1"], 1, _EDGE_SWEEP_JSON),
    "sweep-json-2": ([*_EDGE_SWEEP, "--workers", "2"], 1, _EDGE_SWEEP_JSON),
    "sweep-csv-1": ([*_EDGE_SWEEP, "--format", "csv", "--workers", "1"], 1, _EDGE_SWEEP_CSV),
    "sweep-csv-2": ([*_EDGE_SWEEP, "--format", "csv", "--workers", "2"], 1, _EDGE_SWEEP_CSV),
    "bounds-no-perfect-part": ([*_EDGE_BOUNDS, "0.9375"], 1,
                               "1eee8edabd9f4ab9fe3be9cd23d161a3490c2e457e227097a74b29d29e31a024"),
    "bounds-no-mixed-part": ([*_EDGE_BOUNDS, "0"], 0,
                             "9ed9627bc97ace1401353e7d49b00adc40e4d25c04eafdf43626ad636744a631"),
}


@pytest.mark.parametrize("name", sorted(WITNESS_EDGE_COMMANDS))
def test_cli_witness_edge_bytes_are_pinned(tmp_path, name):
    argv, code, digest = WITNESS_EDGE_COMMANDS[name]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _count_work(monkeypatch):
    """Counters on ``locc``: hash builds, and walks by root representation."""
    from edplab import locc

    work = {"hashes": 0}
    make, walk = locc.make_simple_random_hash, locc._walk_leaves

    def counted_make(n, s):
        work["hashes"] += 1
        return make(n, s)

    def counted_walk(protocol, roots, meter, **kw):
        work[roots.kind] = work.get(roots.kind, 0) + 1
        return walk(protocol, roots, meter, **kw)

    monkeypatch.setattr(locc, "make_simple_random_hash", counted_make)
    monkeypatch.setattr(locc, "_walk_leaves", counted_walk)
    return work


def test_cli_fidelity_sweep_builds_one_hash_per_n_and_s(tmp_path, monkeypatch):
    # the cells of one (n, s) share a hash and one walk of each witness
    # part; a second identical call does the same work
    work = _count_work(monkeypatch)
    argv = ["sweep", "--model", "fidelity", "--n", "3..4", "--s", "1..2", "--epsilon", "0.1,0.27"]
    for _ in range(2):
        work.update(hashes=0, sparse=0, product=0)
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
        assert work == {"hashes": 4, "sparse": 4, "product": 4}


def test_cli_fidelity_bounds_walk_the_perfect_block_once(tmp_path, monkeypatch):
    # p and the witness values come from one walk of each witness part
    work = _count_work(monkeypatch)
    argv = ["bounds", "--model", "fidelity", "--n", "3", "--s", "2", "--epsilon", "0.2"]
    for _ in range(2):
        work.update(hashes=0, sparse=0, product=0)
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
        assert work == {"hashes": 1, "sparse": 1, "product": 1}


def test_cli_seed_validation():
    assert main(["lemmas", "--count", "5", "--seed", "-3"]) == 2


def test_cli_lemmas_bytes_are_pinned(tmp_path):
    # the file's sha256 was recorded with samplers that finished each
    # instance alone, before the sweeps finished their draws per block
    out = tmp_path / "lemmas.json"
    assert main(["lemmas", "--seed", "5301", "--count", "1000", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "3e9081fa706da5e8f07759a46ea5d83b054298fc0d8df92d0b2f191bf55cb750"


SEEDED_COMMANDS = {
    "lemmas": ["lemmas", "--count", "5"],
    "bounds": ["bounds", "--model", "fidelity", "--epsilon", "0.25"],
    "protocol": ["protocol", "--make", "first-pair"],
    "sweep": ["sweep", "--model", "measure-r", "--n", "1..2"],
}


@pytest.mark.parametrize("seed", ["-1", str(2**64), "seven"])
@pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
def test_cli_bad_seed_exits_2_on_every_subcommand(tmp_path, capsys, command, seed):
    out = tmp_path / "out.json"
    assert main([*SEEDED_COMMANDS[command], "--seed", seed, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("error:") == 1 and "seed" in err
    assert not out.exists()
    if command != "protocol":  # a config file does not set protocol's unused seed
        cfg = _write(tmp_path, "c.cfg", f"seed = {seed}\n")
        assert main([*SEEDED_COMMANDS[command], "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("error:") == 1 and "seed" in err
        assert not out.exists()


def test_cli_sweep_rejects_cell_seeds_past_64_bits(tmp_path, capsys):
    # five cells: seeds 2**64 - 5 ... 2**64 - 1 fit, one more does not
    out = tmp_path / "out.json"
    argv = ["sweep", "--model", "measure-r", "--n", "1..2", "--out", str(out)]
    assert main([*argv, "--seed", str(2**64 - 4)]) == 2
    assert capsys.readouterr().err.startswith("error:") and not out.exists()
    assert main([*argv, "--seed", str(2**64 - 5)]) == 0
    assert [rec["seed"] for rec in read_json(out)] == list(range(2**64 - 5, 2**64))


def test_cli_bounds_depolarization(tmp_path):
    out = tmp_path / "bounds.json"
    code = main(
        ["bounds", "--model", "depolarization", "--n", "1", "--p", "0.5",
         "--restarts", "2", "--out", str(out)]
    )
    assert code == 0
    (record,) = read_json(out)
    assert record["bound"] == pytest.approx(0.75)
    assert record["pass"] is True


def test_cli_sweep_depolarization(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        ["sweep", "--model", "depolarization", "--n", "1..2", "--p", "0.2,0.6",
         "--out", str(out)]
    )
    assert code == 0
    records = read_json(out)
    assert len(records) == 4
    for rec in records:
        assert rec["achieved"] == pytest.approx(1 - 0.75 * rec["param_p"], abs=1e-10)


def test_depolarization_is_never_dense(tmp_path, monkeypatch):
    # the depolarization state reaches the runner as its sparse Bell
    # patterns: neither its dense matrix nor a dense node is ever built
    from edplab import errmodels, frontier

    def dense(*args, **kwargs):
        raise AssertionError("the depolarization state was made dense")

    monkeypatch.setattr(errmodels, "depolarization_state", dense)
    monkeypatch.setattr(frontier.Dense, "__init__", dense)
    fid, cond = model_fidelities(make_simple_random_hash(3, 2), DepolarizationModel(3, 0.2))
    assert 0.5 < fid < cond < 1.0
    out = tmp_path / "out.json"
    assert main(["sweep", "--model", "depolarization", "--n", "1..3", "--out", str(out)]) == 0
    assert [rec["pass"] for rec in read_json(out)] == [True] * 3
    argv = ["bounds", "--model", "depolarization", "--n", "2", "--p", "0.2", "--restarts", "2"]
    assert main([*argv, "--out", str(out)]) == 0
    result = run(make_simple_random_hash(3, 2), pair_bell_mixture_ensemble(3, 0.2))
    assert result.stats.representations == ("sparse",) * 64


def test_cli_sweep_fidelity_rows(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        [
            "sweep",
            "--model",
            "fidelity",
            "--n",
            "3",
            "--s",
            "1..2",
            "--epsilon",
            "0.25",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    records = read_json(out)
    assert len(records) == 2
    for rec, s in zip(records, (1, 2)):
        assert rec["param_s"] == s
        assert rec["achieved"] >= 1 - 2.0**-s / 0.75 - 1e-9


def test_cli_sweep_reports_invalid_cells(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        [
            "sweep",
            "--model",
            "fidelity",
            "--n",
            "3",
            "--s",
            "1..3",
            "--epsilon",
            "0.25",
            "--out",
            str(out),
        ]
    )
    # the s = n cell cannot be built: reported as a failing row
    assert code == 1
    records = read_json(out)
    assert len(records) == 3
    assert "error" in records[2]


def test_cli_sweep_measure_r_grid(tmp_path):
    out = tmp_path / "grid.csv"
    code = main(
        [
            "sweep",
            "--model",
            "measure-r",
            "--n",
            "1..3",
            "--r",
            "all",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + sum(n + 1 for n in (1, 2, 3))


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("count = 25\nseed = 9\nformat = json\n# comment\n")
    out = tmp_path / "a.json"
    assert main(["lemmas", "--config", str(cfg), "--out", str(out)]) == 0
    records = read_json(out)
    assert records[0]["instances"] == 25
    out2 = tmp_path / "b.json"
    assert main(["lemmas", "--config", str(cfg), "--count", "30", "--out", str(out2)]) == 0
    assert read_json(out2)[0]["instances"] == 30


def test_cli_config_leaves_the_next_parse_with_the_declared_defaults(tmp_path):
    # one parser serves every parse of a process, and a config file's values
    # must not become its defaults
    cfg = _write(tmp_path, "c.cfg", "count = 25\nseed = 9\nformat = csv\n")
    args = cli.parse_args(["lemmas", "--config", cfg, "--seed", "4"])
    assert (args.count, args.seed, args.format) == (25, 4, "csv")
    plain = cli.parse_args(["lemmas"])
    assert (plain.count, plain.seed, plain.format, plain.config) == (1000, 0, "json", None)
    assert cli.build_parser() is cli.build_parser()


# config text, extra argv, and what the records must show
VALID_CONFIGS = {
    "on/off key set to on": (
        "model = fidelity\nn = 2\nepsilon = 0.25\ninclude-no-comm-probe = yes\n",
        ["bounds"],
        lambda recs: [r["theorem"] for r in recs]
        == ["pos-fidelity", "neg-fidelity", "pos-fidelity-no-comm"],
    ),
    "flag overrides a bounds value": (
        # n = 1 alone is rejected for the fidelity model (needs s < n)
        "model = fidelity\nn = 1\nepsilon = 0.25\n",
        ["bounds", "--n", "2"],
        lambda recs: [r["param_n"] for r in recs] == [2, 2],
    ),
    "sweep range": (
        "model = measure-r\nn = 1..2\n",
        ["sweep"],
        lambda recs: [(r["param_n"], r["param_r"]) for r in recs]
        == [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)],
    ),
    "undeclared key ignored": (
        "count = 5\nworkers = 3\nepsilon = not-a-number\n",
        ["lemmas"],
        lambda recs: all(r["instances"] == 5 for r in recs),
    ),
}


@pytest.mark.parametrize("case", sorted(VALID_CONFIGS))
def test_cli_valid_config_values(tmp_path, case):
    text, argv, check = VALID_CONFIGS[case]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.json"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) in (0, 1)
    assert check(read_json(out))


def test_cli_protocol_config_does_not_set_files_or_modes(tmp_path, capsys):
    spec = tmp_path / "fp.json"
    assert main(["protocol", "--make", "first-pair", "--n", "2", "--out", str(spec)]) == 0
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(
        f"make = random-pair\nspec = {spec}\nemit-run = {tmp_path / 'run.json'}\n"
        f"input = {tmp_path / 'missing.json'}\nmodel-file = {tmp_path / 'missing.json'}\n"
        "seed = not-an-int\nmodel = depolar\np = 0.4\n"
    )
    out = tmp_path / "eval.json"
    argv = ["protocol", "--config", str(cfg), "--spec", str(spec), "--out", str(out)]
    assert main(argv) == 0
    (record,) = read_json(out)
    assert record["fidelity"] == pytest.approx(0.7, abs=1e-10)
    assert not (tmp_path / "run.json").exists()
    capsys.readouterr()
    # without --spec or --make on the command line there is nothing to do
    assert main(["protocol", "--config", str(cfg)]) == 2
    assert "--spec or --make is required" in capsys.readouterr().err


def test_cli_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = main(
            ["sweep", "--model", "measure-r", "--n", "1..2", "--r", "all",
             "--seed", "4", "--out", str(path)]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    d = tmp_path / "d.csv"
    for path in (c, d):
        assert main(["lemmas", "--count", "30", "--seed", "8", "--format", "csv",
                     "--out", str(path)]) == 0
    assert c.read_bytes() == d.read_bytes()


def test_cli_sweep_worker_pool_order_independent(tmp_path):
    serial = tmp_path / "serial.json"
    pooled = tmp_path / "pooled.json"
    base = ["sweep", "--model", "measure-r", "--n", "1..3", "--r", "all", "--seed", "3"]
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--workers", "2", "--out", str(pooled)]) == 0
    assert serial.read_bytes() == pooled.read_bytes()


@pytest.mark.parametrize("workers", ["0", "-3", "config=0"])
def test_cli_sweep_workers_below_one_is_bad_input(tmp_path, capsys, workers):
    out = tmp_path / "out.json"
    argv = ["sweep", "--model", "measure-r", "--n", "1", "--out", str(out)]
    if workers.startswith("config="):
        argv += ["--config", _write(tmp_path, "c.cfg", f"workers = {workers.removeprefix('config=')}\n")]
    else:
        argv += ["--workers", workers]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("error:") == 1 and "workers" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "values", [["--model", "depolarization", "--p", "nan"], ["--model", "depolarization", "--p", "0.1,-inf"],
               ["--model", "fidelity", "--epsilon", "nan"], ["--model", "fidelity", "--epsilon", "inf"]],
    ids=["p-nan", "p-minus-inf", "epsilon-nan", "epsilon-inf"],
)
def test_cli_sweep_non_finite_values_are_bad_input(tmp_path, capsys, values):
    # a NaN would be written as a bare NaN, which is not JSON, and fail as a check
    out = tmp_path / "out.json"
    assert main(["sweep", "--n", "3", *values, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("error:") == 1 and "finite" in err
    assert not out.exists()


def _protocol_eval_argv(tmp_path):
    spec = tmp_path / "srh.json"
    assert main(
        ["protocol", "--make", "simple-random-hash", "--n", "2", "--s", "1", "--out", str(spec)]
    ) == 0
    out = tmp_path / "eval.json"
    argv = ["protocol", "--spec", str(spec), "--model", "fidelity", "--epsilon", "0.2",
            "--out", str(out)]
    return argv, out


def test_cli_protocol_null_only_for_undefined_conditional_output(tmp_path, monkeypatch):
    argv, out = _protocol_eval_argv(tmp_path)

    def never_accepts(proto, model):
        return 0.5, None

    monkeypatch.setattr(cli, "model_fidelities", never_accepts)
    assert main(argv) == 0
    (record,) = read_json(out)
    assert record["conditional_fidelity"] is None


def test_cli_protocol_other_conditional_errors_are_not_nulled(tmp_path, monkeypatch):
    argv, out = _protocol_eval_argv(tmp_path)

    def broken(proto, model):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "model_fidelities", broken)
    with pytest.raises(RuntimeError, match="boom"):
        main(argv)
    assert not out.exists()

    def bad_value(proto, model):
        raise ValueError("bad input")

    monkeypatch.setattr(cli, "model_fidelities", bad_value)
    assert main(argv) == 2
    assert not out.exists()


def test_cli_protocol_epsilon_beyond_witness_range_is_parameter_error(tmp_path):
    # FidelityModel now rejects epsilon > 1 - 4^-n when it is built; the
    # CLI still reports that as bad input (exit 2), not as a failed check
    argv, out = _protocol_eval_argv(tmp_path)
    argv[argv.index("0.2")] = "0.99"
    assert main(argv) == 2
    assert not out.exists()


def test_cli_model_rejection_names_its_reason(tmp_path, capsys):
    spec = tmp_path / "first_pair.json"
    assert main(["protocol", "--make", "first-pair", "--n", "1", "--out", str(spec)]) == 0
    assert main(["protocol", "--spec", str(spec), "--model", "fidelity", "--epsilon", "0.9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("error:") == 1
    assert "0.75" in err


BOUND_RECORD_KEYS = {"theorem", "bound", "achieved", "margin", "pass", "falsified", "seed", "notes"}


@pytest.mark.parametrize(
    "grid",
    [
        ["--model", "measure-r", "--n", "1..3", "--r", "all"],
        ["--model", "depolarization", "--n", "1..2", "--p", "0.0,0.3,1.0"],
        ["--model", "fidelity", "--n", "2..3", "--s", "1", "--epsilon", "0.1,0.25"],
    ],
)
def test_cli_sweep_rows_share_the_bound_record_schema(tmp_path, grid):
    out = tmp_path / "sweep.json"
    assert main(["sweep", *grid, "--seed", "5", "--out", str(out)]) == 0
    records = read_json(out)
    assert [rec["seed"] for rec in records] == list(range(5, 5 + len(records)))
    for rec in records:
        assert BOUND_RECORD_KEYS <= set(rec)
        assert rec["falsified"] is not rec["pass"]
        assert rec["pass"] is True


def _write_spec(tmp_path, accept_rule):
    doc = serialize.protocol_to_json(make_first_pair(1))
    doc["accept_rule"] = accept_rule
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    return spec


def test_cli_protocol_spec_missing_accept_value_is_parse_error(tmp_path, capsys):
    # the 0-round protocol has one transcript, "", which the rule lacks
    spec = _write_spec(tmp_path, {"kind": "constant", "values": {"x": 0.5}})
    out = tmp_path / "eval.json"
    code = main(["protocol", "--spec", str(spec), "--model", "measure-r", "--r", "0",
                 "--out", str(out)])
    assert code == 2
    assert "transcript ''" in capsys.readouterr().err
    assert not out.exists()


def test_cli_protocol_spec_povm_outside_unit_interval_is_parse_error(tmp_path):
    three = serialize.matrix_to_json(3.0 * np.eye(2))
    spec = _write_spec(
        tmp_path, {"kind": "povm", "elements": [{"seed": 0, "transcript": "", "matrix": three}]}
    )
    code = main(["protocol", "--spec", str(spec), "--emit-run", str(tmp_path / "run.json")])
    assert code == 2


def test_cli_emit_run_nan_input_state_is_parse_error(tmp_path, capsys):
    spec = tmp_path / "fp.json"
    assert main(["protocol", "--make", "first-pair", "--n", "1", "--out", str(spec)]) == 0
    doc = serialize.state_to_json(random_density_matrix(np.random.default_rng(2), 1, 1))
    doc["matrix"][0][0][0] = float("nan")
    state = tmp_path / "nan.json"
    state.write_text(json.dumps(doc))  # written as the NaN literal json reads back
    code = main(["protocol", "--spec", str(spec), "--input", str(state),
                 "--emit-run", str(tmp_path / "run.json")])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


def test_cli_bounds_measure_r_no_pairs_is_parameter_error(capsys):
    assert main(["bounds", "--model", "measure-r", "--n", "0", "--r", "0"]) == 2
    assert "at least one pair" in capsys.readouterr().err


def test_cli_bounds_depolarization_no_pairs_is_parameter_error(capsys):
    assert main(["bounds", "--model", "depolarization", "--n", "0", "--p", "0.2"]) == 2
    assert "at least one pair" in capsys.readouterr().err


def test_cli_depolarization_model_file_no_pairs_is_rejected_on_load(tmp_path, capsys):
    spec = _edited(tmp_path, "spec.json", _HASH_DOC, (), _HASH_DOC)
    model = _edited(tmp_path, "model.json", {"model": "depolarization", "n": 2, "p": 0.2}, ("n",), 0)
    assert main(["protocol", "--spec", spec, "--model-file", model]) == 2
    assert "error model (depolarization): need at least one pair, got n=0" in capsys.readouterr().err


@pytest.mark.parametrize("model", [
    {"model": "fidelity", "n": 2, "epsilon": 0.1, "samples": -3},
    {"model": "fidelity", "n": 2, "epsilon": 0.1, "seed": -1},
    {"model": "fidelity", "n": 2, "epsilon": 0.1, "seed": 2**64},
])
def test_cli_fidelity_model_file_with_bad_samples_or_seed_is_bad_input(tmp_path, capsys, model):
    spec = _edited(tmp_path, "spec.json", _HASH_DOC, (), _HASH_DOC)
    path = _write(tmp_path, "model.json", json.dumps(model))
    out = tmp_path / "eval.json"
    assert main(["protocol", "--spec", spec, "--model-file", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "error model (fidelity): need " in err[0]
    assert not out.exists()


@pytest.mark.parametrize("model", [
    {"model": "measure_r", "n": 2, "r": 1},
    {"model": "depolarization", "n": 2, "p": 0.2},
    {"model": "fidelity", "n": 2, "epsilon": 0.2, "samples": 1, "seed": 3},
])
def test_cli_model_file_with_a_foreign_key_is_rejected(tmp_path, capsys, model):
    spec = tmp_path / "rp.json"
    assert main(["protocol", "--make", "random-pair", "--n", "2", "--out", str(spec)]) == 0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert main(["protocol", "--spec", str(spec), "--model-file", str(path), "--out", str(tmp_path / "a.json")]) == 0
    path.write_text(json.dumps(model | {"colour": 1}))
    capsys.readouterr()
    assert main(["protocol", "--spec", str(spec), "--model-file", str(path), "--out", str(tmp_path / "b.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'colour'" in err[0]
    assert not (tmp_path / "b.json").exists()


def test_cli_model_flags_the_kind_does_not_read_are_ignored(tmp_path):
    spec = tmp_path / "rp.json"
    assert main(["protocol", "--make", "random-pair", "--n", "2", "--out", str(spec)]) == 0
    out = tmp_path / "eval.json"
    assert main(["protocol", "--spec", str(spec), "--model", "measure-r", "--r", "1", "--p", "0.2",
                 "--epsilon", "0.1", "--out", str(out)]) == 0
    assert read_json(out)[0]["fidelity"] == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("maker", ["random-pair", "random-permutation"])
def test_cli_protocol_make_no_pairs_is_parameter_error(tmp_path, maker):
    out = tmp_path / "spec.json"
    assert main(["protocol", "--make", maker, "--n", "0", "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_sweep_measure_r_no_pairs_is_an_error_row(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--model", "measure-r", "--n", "0..1", "--r", "0", "--out", str(out)]) == 1
    bad, good = read_json(out)
    assert bad["param_n"] == 0 and bad["pass"] is False
    assert "at least one pair" in bad["error"]
    assert good["param_n"] == 1 and good["pass"] is True


def test_cli_bounds_zero_restarts_is_parameter_error(tmp_path):
    out = tmp_path / "bounds.json"
    code = main(["bounds", "--model", "measure-r", "--n", "1", "--r", "1", "--restarts", "0",
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_cli_emit_run_invalid_input_state_names_the_file(tmp_path, capsys):
    spec = tmp_path / "fp.json"
    assert main(["protocol", "--make", "first-pair", "--n", "1", "--out", str(spec)]) == 0
    doc = serialize.state_to_json(epr_state(1))
    doc["amplitudes"] = [[2 * re, 2 * im] for re, im in doc["amplitudes"]]
    state = tmp_path / "unnormalized.json"
    state.write_text(json.dumps(doc))
    code = main(["protocol", "--spec", str(spec), "--input", str(state),
                 "--emit-run", str(tmp_path / "run.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{state}: state: " in err and "norm" in err


def _huge_entries(kind):
    """A 2+2 state document whose finite entries overflow any sum of them."""
    if kind == "amplitudes":
        return {"n_alice": 2, "n_bob": 2, "amplitudes": [[1e200, 0.0]] * 16}
    mat = np.eye(16, dtype=np.complex128) / 16
    if kind == "diagonal":
        mat[0, 0] = mat[1, 1] = 1e308
    else:
        mat[0, 1], mat[1, 0] = 1e308, -1e308
    return serialize.state_to_json(DensityMatrix(2, 2, mat, validate=False))


@pytest.mark.parametrize("kind", ["amplitudes", "diagonal", "off-diagonal"])
def test_cli_emit_run_huge_input_state_is_rejected_without_overflow(tmp_path, capsys, kind):
    spec = tmp_path / "fp.json"
    assert main(["protocol", "--make", "first-pair", "--n", "2", "--out", str(spec)]) == 0
    state = _write(tmp_path, "big.json", json.dumps(_huge_entries(kind)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        code = main(["protocol", "--spec", str(spec), "--input", state, "--emit-run", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "beyond 1" in err


# ---------------------------------------------------------------------------
# malformed input: parsers raise only SpecParseError, the CLI exits 2


def _draw_subtree_path(data, doc):
    """A path into ``doc`` that descends three times in four: uniform
    paths would land almost always on matrix entries, rarely on fields."""
    path = ()
    while isinstance(doc, (dict, list)) and doc and data.draw(st.integers(0, 3), label="depth"):
        key = data.draw(st.sampled_from(sorted(doc) if isinstance(doc, dict) else range(len(doc))))
        path += (key,)
        doc = doc[key]
    return path


def _with_subtree(doc, path, value):
    if not path:
        return value
    out = list(doc) if isinstance(doc, list) else dict(doc)
    out[path[0]] = _with_subtree(doc[path[0]], path[1:], value)
    return out


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([float("inf"), float("nan"), 2**64, -1])
)
# half scalars: st.recursive alone draws mostly lists and objects
_JSON_VALUES = _JSON_SCALARS | st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)

_VALID_DOCUMENTS = {
    "protocol": (serialize.protocol_to_json(make_simple_random_hash(2, 1)), serialize.protocol_from_json),
    "state": (serialize.state_to_json(bell_state("phi+")), serialize.state_from_json),
    "model": (serialize.error_model_to_json(FidelityModel(2, 0.1, samples=1, seed=3)),
              serialize.error_model_from_json),
}


@pytest.mark.parametrize("kind", sorted(_VALID_DOCUMENTS))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_spec_parsers_raise_only_spec_parse_errors(kind, data):
    doc, parse = _VALID_DOCUMENTS[kind]
    path = _draw_subtree_path(data, doc)
    value = data.draw(_JSON_VALUES, label="value")
    try:
        parse(_with_subtree(doc, path, value))
    except SpecParseError:
        pass


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _edited(tmp_path, name, doc, path, value):
    # json.dumps writes float("inf") as the Infinity literal json.loads reads back
    return _write(tmp_path, name, json.dumps(_with_subtree(doc, path, value)))


_HASH_DOC = serialize.protocol_to_json(make_simple_random_hash(2, 1))
_INF = float("inf")


def _bad_spec(path, value):
    def argv(tmp_path):
        spec = _edited(tmp_path, "spec.json", _HASH_DOC, path, value)
        return ["protocol", "--spec", spec, "--model", "measure-r", "--r", "1"]

    return argv


def _bad_model(kind, key, value):
    def argv(tmp_path):
        spec = _edited(tmp_path, "spec.json", _HASH_DOC, (), _HASH_DOC)
        model = _edited(tmp_path, "model.json", {"model": kind, "n": 2, key: 0.1}, (key,), value)
        return ["protocol", "--spec", spec, "--model-file", model]

    return argv


def _with_element(**edits):
    """The hash spec's accept elements plus a copy of the first, edited."""
    elements = _HASH_DOC["accept_rule"]["elements"]
    return elements + [{**elements[0], **edits}]


BAD_INPUTS = {
    "bounds without --model": lambda t: ["bounds", "--n", "1"],
    "measure-r without --r": lambda t: ["bounds", "--model", "measure-r", "--n", "1"],
    "depolarization without --p": lambda t: ["bounds", "--model", "depolarization"],
    "fidelity without --epsilon": lambda t: ["bounds", "--model", "fidelity"],
    "sweep without --model": lambda t: ["sweep"],
    "protocol without --spec": lambda t: ["protocol"],
    "protocol without --model": lambda t: [
        "protocol", "--spec", _edited(t, "spec.json", _HASH_DOC, (), _HASH_DOC)],
    "lemmas --count 0": lambda t: ["lemmas", "--count", "0"],
    "lemmas --tolerance nan": lambda t: ["lemmas", "--count", "5", "--tolerance", "nan"],
    "unreadable config": lambda t: ["lemmas", "--config", str(t / "missing.cfg")],
    "config line without =": lambda t: ["lemmas", "--config", _write(t, "c.cfg", "count 5\n")],
    "config bad boolean": lambda t: [
        "bounds", "--config", _write(t, "c.cfg", "include-no-comm-probe = maybe\n"),
        "--model", "fidelity", "--n", "2", "--epsilon", "0.1"],
    "config format = xml": lambda t: [
        "lemmas", "--count", "5", "--config", _write(t, "c.cfg", "format = xml\n")],
    "config unknown model": lambda t: [
        "bounds", "--config", _write(t, "c.cfg", "model = bell\nr = 1\n")],
    "unknown flag": lambda t: ["lemmas", "--count", "5", "--bogus"],
    "unknown flag before the command": lambda t: ["--bogus", "lemmas", "--count", "5"],
    "stray positional": lambda t: ["lemmas", "--count", "5", "extra"],
    "unknown flag with --config": lambda t: [
        "lemmas", "--config", _write(t, "c.cfg", "count = 5\n"), "--bogus", "1"],
    "reversed --n range": lambda t: ["sweep", "--model", "measure-r", "--n", "3..1"],
    "reversed --r range": lambda t: ["sweep", "--model", "measure-r", "--n", "2", "--r", "1..0"],
    "reversed --s range": lambda t: ["sweep", "--model", "fidelity", "--n", "3", "--s", "2..1"],
    "sweep grid without cells": lambda t: ["sweep", "--model", "measure-r", "--n", "-1"],
    "spec rounds not a list": _bad_spec(("rounds",), 5),
    "spec listener_by_seed not a list": _bad_spec(("rounds", 0, "listener_by_seed"), 5),
    "spec output_pair not a list": _bad_spec(("output_pair",), 5),
    "spec accept elements not a list": _bad_spec(("accept_rule", "elements"), 5),
    "spec kraus_by_seed entry a list": _bad_spec(("rounds", 0, "kraus_by_seed", 0), []),
    "spec n Infinity": _bad_spec(("n",), _INF),
    "spec output_pair Infinity": _bad_spec(("output_pair",), [_INF]),
    "spec n_workspace Infinity": _bad_spec(("rounds", 0, "kraus_by_seed", 0, "n_workspace"), _INF),
    "spec n a float": _bad_spec(("n",), 2.9),
    "spec accept seed a string": _bad_spec(("accept_rule", "elements", 0, "seed"), "0"),
    "spec n_workspace a bool": _bad_spec(("rounds", 0, "kraus_by_seed", 0, "n_workspace"), False),
    "spec arrays index out of range": _bad_spec(("rounds", 0, "listener_by_seed", 0), len(_HASH_DOC["arrays"])),
    "spec arrays negative index": _bad_spec(("rounds", 0, "listener_by_seed", 0), -1),
    "spec arrays bool index": _bad_spec(("rounds", 0, "kraus_by_seed", 0, "branches", 0, 0), True),
    "spec arrays shape not a power of two": _bad_spec(("arrays", 0, "shape"), [3, 3]),
    "spec arrays shape above the qubit cap": _bad_spec(("arrays", 0, "shape"), [1 << 40, 1 << 40]),
    "spec arrays entry outside its shape": _bad_spec(("arrays", 0, "entries", 0, 0), 4),
    "spec arrays duplicate entry": _bad_spec(
        ("arrays", 0, "entries"), _HASH_DOC["arrays"][0]["entries"] * 2),
    "spec arrays value Infinity": _bad_spec(("arrays", 0, "entries", 0, 2), _INF),
    "state n_alice Infinity": lambda t: [
        "protocol", "--spec", _edited(t, "spec.json", _HASH_DOC, (), _HASH_DOC),
        "--input", _edited(t, "state.json", serialize.state_to_json(epr_state(2)), ("n_alice",), _INF),
        "--emit-run", str(t / "run.json")],
    # an accept entry that names no leaf, or a leaf a second time
    "spec accept seed beyond the seeds": _bad_spec(("accept_rule", "elements"), _with_element(seed=7)),
    "spec accept negative seed": _bad_spec(("accept_rule", "elements"), _with_element(seed=-1)),
    "spec accept transcript too long": _bad_spec(("accept_rule", "elements"), _with_element(transcript="0110")),
    "spec accept transcript not bits": _bad_spec(("accept_rule", "elements"), _with_element(transcript="x")),
    "spec accept duplicate leaf": _bad_spec(("accept_rule", "elements"), _with_element()),
    "spec constant accept stray transcript": _bad_spec(
        ("accept_rule",), {"kind": "constant", "values": {"0": 0.5, "1": 0.5, "x": 0.5}}),
    # JSON numbers only: numeric strings and booleans are not numbers
    "spec shared_randomness a string": _bad_spec(("shared_randomness", 0), "0.5"),
    "spec shared_randomness a bool": _bad_spec(("shared_randomness",), [True, False]),
    "spec constant accept value a bool": _bad_spec(("accept_rule",), {"kind": "constant", "value": True}),
    "spec constant accept values entry a string": _bad_spec(
        ("accept_rule",), {"kind": "constant", "values": {"0": "0.5", "1": 0.5}}),
    "spec inline matrix part a bool": _bad_spec(
        ("rounds", 0, "listener_by_seed", 0),
        [[[i == j, False] for j in range(4)] for i in range(4)]),
    "state amplitude part a bool": lambda t: [
        "protocol", "--spec", _edited(t, "spec.json", _HASH_DOC, (), _HASH_DOC),
        "--input", _edited(t, "state.json", serialize.state_to_json(epr_state(2)), ("amplitudes",),
                           [[True, False]] + [[False, False]] * 15),
        "--emit-run", str(t / "run.json")],
    "model p a string": _bad_model("depolarization", "p", "0.2"),
    "model p a bool": _bad_model("depolarization", "p", True),
    "model epsilon a string": _bad_model("fidelity", "epsilon", "0.1"),
    "model r Infinity": lambda t: [
        "protocol", "--spec", _edited(t, "spec.json", _HASH_DOC, (), _HASH_DOC),
        "--model-file", _edited(t, "model.json", {"model": "measure_r", "n": 2, "r": 1}, ("r",), _INF)],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_cli_bad_input_exits_2_with_one_error_line(tmp_path, capsys, case):
    assert main(BAD_INPUTS[case](tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("error:") == 1
