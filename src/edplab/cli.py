"""Command-line front end.

Subcommands drive the verification suites from flat key=value config
files with flag overrides (flags win).  All randomness flows from one
seed, so identical config plus seed yields byte-identical output files.

Exit codes: 0 when every check in the invoked suite passed, 1 when any
check failed, 2 on I/O or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any

from . import serialize, verify
from .locc import (
    ConditionalOutputUndefined,
    conditional_fidelity,
    make_first_pair,
    make_random_pair,
    make_random_permutation,
    make_simple_random_hash,
    protocol_fidelity,
    run,
)
from .optimize import AscentConfig
from .qcore import CapacityError
from .serialize import SpecParseError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2

_MAKERS = {
    "first-pair": lambda n, s: make_first_pair(n),
    "random-pair": lambda n, s: make_random_pair(n),
    "random-permutation": lambda n, s: make_random_permutation(n),
    "simple-random-hash": lambda n, s: make_simple_random_hash(n, s),
}


def read_config(path: str | None) -> dict[str, str]:
    """Flat key=value file; '#' starts a comment."""
    if path is None:
        return {}
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SystemExit(f"error: cannot read config {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SystemExit(f"error: {path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise SystemExit(f"error: expected a boolean, got {text!r}")


def _merged(args: argparse.Namespace, config: dict[str, str], key: str, cast, default):
    """Flag wins, then config file, then default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in config:
        if cast is bool:
            return _parse_bool(config[key])
        return cast(config[key])
    return default


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def _parse_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",")]


def _write_text(text: str, out: str | None) -> int:
    """Write to ``out`` (stdout when None); EXIT_IO if that fails."""
    if out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        Path(out).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _write_output(records: list[dict[str, Any]], fmt: str, out: str | None) -> int:
    if fmt == "json":
        return _write_text(serialize.records_to_json(records), out)
    return _write_text(serialize.records_to_csv(records), out)


def _finish(records: list[dict[str, Any]], fmt: str, out: str | None) -> int:
    code = _write_output(records, fmt, out)
    if code != EXIT_OK:
        return code
    failed = any(not rec.get("pass", True) for rec in records)
    return EXIT_FAIL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def cmd_lemmas(args: argparse.Namespace) -> int:
    config = read_config(args.config)
    seed = _merged(args, config, "seed", int, 0)
    count = _merged(args, config, "count", int, 1000)
    tolerance = _merged(args, config, "tolerance", float, None)
    fmt = _merged(args, config, "format", str, "json")
    out = _merged(args, config, "out", str, None)
    reports = verify.lemma_suite(seed=seed, count=count, tolerance_override=tolerance)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"{status} {rep.lemma}: {rep.instances} instances, "
            f"worst margin {rep.worst_margin:.3e}",
            file=sys.stderr,
        )
    return _finish([r.to_record() for r in reports], fmt, out)


def cmd_bounds(args: argparse.Namespace) -> int:
    config = read_config(args.config)
    model = _merged(args, config, "model", str, None)
    if model is None:
        raise SystemExit("error: --model is required")
    n = _merged(args, config, "n", int, 2)
    r = _merged(args, config, "r", int, None)
    p = _merged(args, config, "p", float, None)
    epsilon = _merged(args, config, "epsilon", float, None)
    s = _merged(args, config, "s", int, 1)
    seed = _merged(args, config, "seed", int, 0)
    restarts = _merged(args, config, "restarts", int, 32)
    ancillas = _merged(args, config, "ancillas", int, 2)
    include_no_comm = _merged(args, config, "include-no-comm-probe", bool, False)
    cfg = AscentConfig(restarts=restarts, seed=seed)
    if model == "measure-r":
        if r is None:
            raise SystemExit("error: --r is required for the measure-r model")
        records = [verify.optimize_0bit_measure_r(n, r, ancillas, cfg).to_record()]
    elif model == "depolarization":
        if p is None:
            raise SystemExit("error: --p is required for the depolarization model")
        records = [verify.optimize_0bit_depolarization(n, p, ancillas, cfg).to_record()]
    elif model == "fidelity":
        if epsilon is None:
            raise SystemExit("error: --epsilon is required for the fidelity model")
        records = [
            verify.pos_fidelity_report(n, s, epsilon).to_record(),
            verify.verify_neg_fidelity(make_simple_random_hash(n, s), epsilon).to_record(),
        ]
        if include_no_comm:
            records.append(verify.no_comm_fidelity_report(n, epsilon).to_record())
    else:
        raise SystemExit(f"error: unknown model {model!r}")
    fmt = _merged(args, config, "format", str, "json")
    out = _merged(args, config, "out", str, None)
    return _finish(records, fmt, out)


def cmd_protocol(args: argparse.Namespace) -> int:
    config = read_config(args.config)
    fmt = _merged(args, config, "format", str, "json")
    out = _merged(args, config, "out", str, None)
    n = _merged(args, config, "n", int, 2)
    s = _merged(args, config, "s", int, 1)

    if args.make is not None:
        try:
            proto = _MAKERS[args.make](n, s)
        except KeyError:
            raise SystemExit(f"error: unknown protocol {args.make!r}")
        doc = serialize.protocol_to_json(proto)
        return _write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)

    if args.spec is None:
        raise SystemExit("error: --spec or --make is required")
    try:
        doc = json.loads(Path(args.spec).read_text())
    except OSError as exc:
        print(f"error: cannot read {args.spec}: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"error: {args.spec}: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        proto = serialize.protocol_from_json(doc)
    except SpecParseError as exc:
        print(f"error: {args.spec}: {exc}", file=sys.stderr)
        return EXIT_IO

    if args.emit_run is not None:
        # run on a serialized input state (default: the perfect block)
        # and write the full transcript-tree result
        from .qcore import epr_state

        if args.input is not None:
            try:
                state = serialize.state_from_json(json.loads(Path(args.input).read_text()))
            except (OSError, json.JSONDecodeError, SpecParseError) as exc:
                print(f"error: {args.input}: {exc}", file=sys.stderr)
                return EXIT_IO
        else:
            state = epr_state(proto.n_pairs)
        result = run(proto, state)
        text = json.dumps(serialize.run_result_to_json(result), indent=2, sort_keys=True) + "\n"
        if _write_text(text, args.emit_run) != EXIT_OK:
            return EXIT_IO
        print(f"success probability: {result.success_probability!r}", file=sys.stderr)
        return EXIT_OK

    if args.model_file is not None:
        try:
            model_doc = json.loads(Path(args.model_file).read_text())
            model = serialize.error_model_from_json(model_doc)
        except (OSError, json.JSONDecodeError, SpecParseError) as exc:
            print(f"error: {args.model_file}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        kind = _merged(args, config, "model", str, None)
        if kind is None:
            raise SystemExit("error: --model or --model-file is required")
        aliases = {
            "measure-r": "measure_r",
            "measure_r": "measure_r",
            "depolar": "depolarization",
            "depolarization": "depolarization",
            "fidelity": "fidelity",
        }
        doc2: dict[str, Any] = {
            "model": aliases.get(kind, kind),
            "n": proto.n_pairs,
        }
        for key, cast in (("r", int), ("p", float), ("epsilon", float)):
            value = _merged(args, config, key, cast, None)
            if value is not None:
                doc2[key] = value
        try:
            model = serialize.error_model_from_json(doc2)
        except SpecParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO

    fid = protocol_fidelity(proto, model)
    record: dict[str, Any] = {
        "protocol": proto.name or "custom",
        "bits": proto.bits,
        "fidelity": fid,
    }
    record.update({f"param_{k}": v for k, v in sorted(serialize.error_model_to_json(model).items())})
    try:
        record["conditional_fidelity"] = conditional_fidelity(proto, model)
    except ConditionalOutputUndefined:
        record["conditional_fidelity"] = None
    print(f"fidelity: {fid!r}", file=sys.stderr)
    if record["conditional_fidelity"] is not None:
        print(f"conditional fidelity: {record['conditional_fidelity']!r}", file=sys.stderr)
    return _write_output([record], fmt, out)


# the report behind each sweep model, looked up through ``verify`` at call
# time so that wrappers installed on that module apply
_SWEEP_REPORTS = {
    "measure-r": lambda t: verify.random_pair_measure_r_report(t["n"], t["r"]),
    "depolarization": lambda t: verify.first_pair_depolarization_report(t["n"], t["p"]),
    "fidelity": lambda t: verify.pos_fidelity_report(t["n"], t["s"], t["epsilon"]),
}


def _sweep_cell(task: dict[str, Any]) -> dict[str, Any]:
    model = task["model"]
    try:
        if model not in _SWEEP_REPORTS:
            raise ValueError(f"unknown model {model!r}")
        return _SWEEP_REPORTS[model](task).to_record() | {"seed": task["seed"]}
    except ValueError as exc:
        return {
            "theorem": f"{model}-cell",
            "pass": False,
            "error": str(exc),
            "seed": task["seed"],
            **{f"param_{k}": v for k, v in sorted(task.items()) if k not in ("model", "seed")},
        }


def cmd_sweep(args: argparse.Namespace) -> int:
    config = read_config(args.config)
    model = _merged(args, config, "model", str, None)
    if model is None:
        raise SystemExit("error: --model is required")
    seed = _merged(args, config, "seed", int, 0)
    fmt = _merged(args, config, "format", str, "json")
    out = _merged(args, config, "out", str, None)
    workers = _merged(args, config, "workers", int, 1)

    ns = _parse_range(_merged(args, config, "n", str, "2"))
    tasks: list[dict[str, Any]] = []
    if model == "measure-r":
        r_spec = _merged(args, config, "r", str, "all")
        for n in ns:
            rs = list(range(n + 1)) if r_spec == "all" else _parse_range(r_spec)
            tasks.extend({"model": model, "n": n, "r": r} for r in rs)
    elif model == "depolarization":
        ps = _parse_floats(_merged(args, config, "p", str, "0.2"))
        for n in ns:
            tasks.extend({"model": model, "n": n, "p": p} for p in ps)
    elif model == "fidelity":
        ss = _parse_range(_merged(args, config, "s", str, "1"))
        eps = _parse_floats(_merged(args, config, "epsilon", str, "0.25"))
        for n in ns:
            for s in ss:
                tasks.extend(
                    {"model": model, "n": n, "s": s, "epsilon": e} for e in eps
                )
    else:
        raise SystemExit(f"error: unknown model {model!r}")
    for idx, task in enumerate(tasks):
        task["seed"] = seed + idx

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_sweep_cell, tasks))
    else:
        records = [_sweep_cell(task) for task in tasks]
    return _finish(records, fmt, out)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edplab",
        description="exact evaluation and verification of LOCC distillation protocols",
        epilog="EDPLAB_MAX_QUBITS overrides the dense-storage qubit cap (default 14)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value config file; flags win")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--format", choices=("json", "csv"), help="output format")
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("lemmas", help="run the lemma property sweeps")
    common(p)
    p.add_argument("--count", type=int, help="instances per lemma (default 1000)")
    p.add_argument("--tolerance", type=float, help="override every lemma tolerance")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("bounds", help="probe the communication bounds")
    common(p)
    p.add_argument("--model", choices=("measure-r", "depolarization", "fidelity"))
    p.add_argument("--n", type=int, help="qubit pairs")
    p.add_argument("--r", type=int, help="measured pairs (measure-r)")
    p.add_argument("--p", type=float, help="depolarization parameter")
    p.add_argument("--epsilon", type=float, help="fidelity-model parameter")
    p.add_argument("--s", type=int, help="communication rounds (fidelity)")
    p.add_argument("--restarts", type=int, help="optimizer restarts (default 32)")
    p.add_argument("--ancillas", type=int, help="ancillas per party (default 2)")
    p.add_argument(
        "--include-no-comm-probe",
        action="store_const",
        const=True,
        dest="include_no_comm_probe",
        help="also evaluate the claimed 0-bit fidelity floor (known falsified for n >= 2)",
    )
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("protocol", help="evaluate or emit a protocol spec")
    common(p)
    p.add_argument("--spec", help="ProtocolSpec JSON to evaluate")
    p.add_argument("--make", choices=sorted(_MAKERS), help="emit a built-in protocol spec")
    p.add_argument("--model", help="error model kind")
    p.add_argument("--model-file", help="ErrorModel JSON file")
    p.add_argument("--input", help="state JSON for --emit-run (default: perfect block)")
    p.add_argument("--emit-run", dest="emit_run", help="write the RunResult JSON and exit")
    p.add_argument("--n", type=int, help="qubit pairs")
    p.add_argument("--r", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--s", type=int, help="rounds for simple-random-hash")
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("sweep", help="grid of bound checks")
    common(p)
    p.add_argument("--model", choices=("measure-r", "depolarization", "fidelity"))
    p.add_argument("--n", help="range like 1..3 or list like 2,3")
    p.add_argument("--r", help="range, list, or 'all'")
    p.add_argument("--p", help="comma-separated values")
    p.add_argument("--epsilon", help="comma-separated values")
    p.add_argument("--s", help="range or list")
    p.add_argument("--workers", type=int, help="worker processes (default 1)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
