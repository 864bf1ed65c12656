"""Command-line front end.

Subcommands drive the verification suites from flat key=value config
files with flag overrides (flags win).  All randomness flows from one
seed, so identical config plus seed yields byte-identical output files.

Exit codes: 0 when every check in the invoked suite passed, 1 when any
check failed, 2 on bad input (a flag, a config value, a spec or a state
that cannot be read or parsed) or an unwritable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable

from . import serialize, verify
from .locc import (
    make_first_pair,
    make_random_pair,
    make_random_permutation,
    make_simple_random_hash,
    model_fidelities,
    run,
)
from .optimize import AscentConfig
from .qcore import epr_state

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2

_MAKERS = {
    "first-pair": lambda n, s: make_first_pair(n),
    "random-pair": lambda n, s: make_random_pair(n),
    "random-permutation": lambda n, s: make_random_permutation(n),
    "simple-random-hash": lambda n, s: make_simple_random_hash(n, s),
}


def read_config(path: str) -> dict[str, str]:
    """Flat key=value file; '#' starts a comment."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# options a config file does not set besides --config itself: protocol's
# input files, modes and unused seed, so that one config file can serve
# every subcommand without switching protocol into emitting or running
_FLAG_ONLY = {"protocol": {"seed", "spec", "make", "input", "emit_run", "model_file"}}


def _config_defaults(parser: argparse.ArgumentParser, command: str, path: str) -> dict[str, Any]:
    """The config file's values for ``parser``'s options, each parsed with
    the option's own type and choices; keys it does not declare are ignored."""
    config = read_config(path)
    flag_only = {"config", *_FLAG_ONLY.get(command, ())}
    defaults: dict[str, Any] = {}
    for action in parser._actions:
        if action.dest == argparse.SUPPRESS or not action.option_strings or action.dest in flag_only:
            continue
        key = action.option_strings[0].removeprefix("--")
        if key not in config:
            continue
        raw = config[key]
        try:
            if action.nargs == 0:  # an on/off flag
                value = _parse_bool(raw)
            else:
                value = action.type(raw) if action.type is not None else raw
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{path}: {key}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise ValueError(
                f"{path}: {key}: invalid choice {raw!r} (choose from {', '.join(action.choices)})"
            )
        defaults[action.dest] = value
    return defaults


def _seed(text: str) -> int:
    """A master seed: an integer in [0, 2**64), the range ``rng.substream`` takes."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be a 64-bit unsigned value, got {value}")
    return value


def _workers(text: str) -> int:
    """A worker process count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid worker count {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"workers must be at least 1, got {value}")
    return value


def _require(value: Any, message: str) -> Any:
    if value is None:
        raise ValueError(message)
    return value


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = (int(part) for part in text.split("..", 1))
        if hi < lo:
            raise ValueError(f"range {text!r} runs backwards")
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def _parse_floats(text: str) -> list[float]:
    values = [float(part) for part in text.split(",")]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"expected finite values, got {text!r}")
    return values


def _load(path: str, parse: Callable[[Any], Any]) -> Any:
    """``parse`` applied to the JSON document at ``path``; errors name the file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write_text(text: str, out: str | None) -> None:
    """Write to ``out`` (stdout when None)."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from exc


def _finish(records: list[dict[str, Any]], fmt: str, out: str | None) -> int:
    """Write the records; EXIT_FAIL if any of them failed its check."""
    text = serialize.records_to_json(records) if fmt == "json" else serialize.records_to_csv(records)
    _write_text(text, out)
    return EXIT_FAIL if any(not rec.get("pass", True) for rec in records) else EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def cmd_lemmas(args: argparse.Namespace) -> int:
    reports = verify.lemma_suite(seed=args.seed, count=args.count, tolerance_override=args.tolerance)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"{status} {rep.lemma}: {rep.instances} instances, "
            f"worst margin {rep.worst_margin:.3e}",
            file=sys.stderr,
        )
    return _finish([r.to_record() for r in reports], args.format, args.out)


# the parameter each bounds model cannot do without
_BOUNDS_PARAM = {"measure-r": "r", "depolarization": "p", "fidelity": "epsilon"}


def cmd_bounds(args: argparse.Namespace) -> int:
    model = _require(args.model, "--model is required")
    cfg = AscentConfig(restarts=args.restarts, seed=args.seed)
    param = _BOUNDS_PARAM[model]
    value = _require(getattr(args, param), f"--{param} is required for the {model} model")
    n = args.n
    if model == "measure-r":
        records = [verify.optimize_0bit_measure_r(n, value, args.ancillas, cfg).to_record()]
    elif model == "depolarization":
        records = [verify.optimize_0bit_depolarization(n, value, args.ancillas, cfg).to_record()]
    else:
        records = [rep.to_record() for rep in verify.hash_fidelity_reports(n, args.s, value)]
        if args.include_no_comm_probe:
            records.append(verify.no_comm_fidelity_report(n, value).to_record())
    return _finish(records, args.format, args.out)


def cmd_protocol(args: argparse.Namespace) -> int:
    if args.make is not None:
        proto = _MAKERS[args.make](args.n, args.s)
        doc = serialize.protocol_to_json(proto)
        _write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
        return EXIT_OK

    proto = _load(_require(args.spec, "--spec or --make is required"), serialize.protocol_from_json)

    if args.emit_run is not None:
        # run on a serialized input state (default: the perfect block)
        # and write the full transcript-tree result
        if args.input is not None:
            state = _load(args.input, serialize.state_from_json)
        else:
            state = epr_state(proto.n_pairs)
        result = run(proto, state)
        text = json.dumps(serialize.run_result_to_json(result), indent=2, sort_keys=True) + "\n"
        _write_text(text, args.emit_run)
        print(f"success probability: {result.success_probability!r}", file=sys.stderr)
        return EXIT_OK

    if args.model_file is not None:
        model = _load(args.model_file, serialize.error_model_from_json)
    else:
        kind = _require(args.model, "--model or --model-file is required")
        aliases = {"measure-r": "measure_r", "depolar": "depolarization"}
        doc: dict[str, Any] = {"model": aliases.get(kind, kind), "n": proto.n_pairs}
        # the one flag the kind reads; the others are ignored, as a model file's are not
        key = {"measure_r": "r", "depolarization": "p", "fidelity": "epsilon"}.get(doc["model"])
        if key is not None and getattr(args, key) is not None:
            doc[key] = getattr(args, key)
        model = serialize.error_model_from_json(doc)

    fid, cond = model_fidelities(proto, model)
    record: dict[str, Any] = {
        "protocol": proto.name or "custom",
        "bits": proto.bits,
        "fidelity": fid,
        "conditional_fidelity": cond,
    }
    record.update({f"param_{k}": v for k, v in sorted(serialize.error_model_to_json(model).items())})
    print(f"fidelity: {fid!r}", file=sys.stderr)
    if cond is not None:
        print(f"conditional fidelity: {cond!r}", file=sys.stderr)
    return _finish([record], args.format, args.out)


# the reports behind each sweep model, one per cell of a group (the fidelity
# cells of one (n, s), which share a hash and its witness walk, or one cell),
# looked up through ``verify`` at call time so that module's wrappers apply
_SWEEP_REPORTS = {
    "measure-r": lambda cells: [verify.random_pair_measure_r_report(cells[0]["n"], cells[0]["r"])],
    "depolarization": lambda cells: [verify.first_pair_depolarization_report(cells[0]["n"], cells[0]["p"])],
    "fidelity": lambda cells: verify.pos_fidelity_reports(cells[0]["n"], cells[0]["s"], [t["epsilon"] for t in cells]),
}


def _sweep_group(cells: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Each cell's record: its report, or its ``ValueError``, or the group's."""
    model = cells[0]["model"]
    try:
        reports = _SWEEP_REPORTS[model](cells)
    except ValueError as exc:
        reports = [exc] * len(cells)
    return [
        {
            "theorem": f"{model}-cell",
            "pass": False,
            "error": str(report),
            "seed": task["seed"],
            **{f"param_{k}": v for k, v in sorted(task.items()) if k not in ("model", "seed")},
        }
        if isinstance(report, ValueError)
        else report.to_record() | {"seed": task["seed"]}
        for task, report in zip(cells, reports)
    ]


def cmd_sweep(args: argparse.Namespace) -> int:
    model = _require(args.model, "--model is required")
    ns = _parse_range(args.n)
    groups: list[list[dict[str, Any]]] = []
    if model == "measure-r":
        for n in ns:
            rs = list(range(n + 1)) if args.r == "all" else _parse_range(args.r)
            groups.extend([{"model": model, "n": n, "r": r}] for r in rs)
    elif model == "depolarization":
        ps = _parse_floats(args.p)
        for n in ns:
            groups.extend([{"model": model, "n": n, "p": p}] for p in ps)
    else:
        ss = _parse_range(args.s)
        eps = _parse_floats(args.epsilon)
        for n in ns:
            groups.extend([{"model": model, "n": n, "s": s, "epsilon": e} for e in eps] for s in ss)
    tasks = [task for group in groups for task in group]
    if not tasks:
        raise ValueError(f"the {model} grid has no cells")
    if args.seed + len(tasks) > 2**64:
        raise ValueError(f"the seeds of {len(tasks)} cells from {args.seed} pass 2**64 - 1")
    for idx, task in enumerate(tasks):
        task["seed"] = args.seed + idx

    if args.workers > 1:
        # imported here: the process pool's imports take ~20 ms of every start
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            records = [rec for group in pool.map(_sweep_group, groups) for rec in group]
    else:
        records = [rec for group in groups for rec in _sweep_group(group)]
    return _finish(records, args.format, args.out)


# ---------------------------------------------------------------------------
# parser

_MODELS = ("measure-r", "depolarization", "fidelity")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one place each option's type, choices and default are declared;
    ``--config`` values are parsed against the same declarations.  Built
    once per process and never changed after."""
    # exit_on_error=False: a flag that fails its type or choices raises
    # ArgumentError, which ``main`` reports as bad input like any other
    parser = argparse.ArgumentParser(
        prog="edplab",
        exit_on_error=False,
        description="exact evaluation and verification of LOCC distillation protocols",
        epilog="EDPLAB_MAX_QUBITS overrides the dense-storage qubit cap (default 14)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func: Callable[[argparse.Namespace], int], summary: str):
        p = sub.add_parser(name, help=summary, exit_on_error=False)
        p.set_defaults(func=func, parser=p)
        p.add_argument("--config", help="flat key=value config file; flags win")
        p.add_argument("--seed", type=_seed, default=0, help="master seed in [0, 2**64) (default %(default)s)")
        p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
        p.add_argument("--out", help="output path (default stdout)")
        return p

    p = add("lemmas", cmd_lemmas, "run the lemma property sweeps")
    p.add_argument("--count", type=int, default=1000, help="instances per lemma (default %(default)s)")
    p.add_argument("--tolerance", type=float, help="override every lemma tolerance")

    p = add("bounds", cmd_bounds, "probe the communication bounds")
    p.add_argument("--model", choices=_MODELS)
    p.add_argument("--n", type=int, default=2, help="qubit pairs (default %(default)s)")
    p.add_argument("--r", type=int, help="measured pairs (measure-r)")
    p.add_argument("--p", type=float, help="depolarization parameter")
    p.add_argument("--epsilon", type=float, help="fidelity-model parameter")
    p.add_argument("--s", type=int, default=1, help="communication rounds (fidelity)")
    p.add_argument("--restarts", type=int, default=32, help="optimizer restarts (default %(default)s)")
    p.add_argument("--ancillas", type=int, default=2, help="ancillas per party (default %(default)s)")
    p.add_argument(
        "--include-no-comm-probe",
        action="store_true",
        help="also evaluate the claimed 0-bit fidelity floor (known falsified for n >= 2)",
    )

    p = add("protocol", cmd_protocol, "evaluate or emit a protocol spec")
    p.add_argument("--spec", help="ProtocolSpec JSON to evaluate")
    p.add_argument("--make", choices=sorted(_MAKERS), help="emit a built-in protocol spec")
    p.add_argument("--model", help="error model kind")
    p.add_argument("--model-file", help="ErrorModel JSON file")
    p.add_argument("--input", help="state JSON for --emit-run (default: perfect block)")
    p.add_argument("--emit-run", help="write the RunResult JSON and exit")
    p.add_argument("--n", type=int, default=2, help="qubit pairs (default %(default)s)")
    p.add_argument("--r", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--s", type=int, default=1, help="rounds for simple-random-hash")

    p = add("sweep", cmd_sweep, "grid of bound checks")
    p.add_argument("--model", choices=_MODELS)
    p.add_argument("--n", default="2", help="range like 1..3 or list like 2,3")
    p.add_argument("--r", default="all", help="range, list, or 'all'")
    p.add_argument("--p", default="0.2", help="comma-separated values")
    p.add_argument("--epsilon", default="0.25", help="comma-separated values")
    p.add_argument("--s", default="1", help="range or list")
    p.add_argument("--workers", type=_workers, default=1, help="worker processes (default %(default)s)")
    return parser


def _parse_known(
    parser: argparse.ArgumentParser, tokens: list[str], namespace: argparse.Namespace | None = None
) -> argparse.Namespace:
    """``parser``'s parse of ``tokens``; a token it does not declare is bad
    input (``parse_args`` would print its usage and exit instead)."""
    args, extra = parser.parse_known_args(tokens, namespace)
    if extra:
        raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
    return args


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse ``argv``; with ``--config``, parse the subcommand's own tokens
    again into a namespace that holds the file's values, so flags still
    win: argparse fills a default only where the namespace lacks it."""
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_known(build_parser(), argv)
    if args.config is not None:
        config = _config_defaults(args.parser, args.command, args.config)
        rest = argv[argv.index(args.command) + 1 :]  # the top-level parser has no option that takes a value
        args = _parse_known(args.parser, rest, argparse.Namespace(command=args.command, **config))
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except (ValueError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
