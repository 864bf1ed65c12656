"""Spans around edplab's layer functions, recorded from outside the package.

``install`` replaces each traced function with a wrapper in every edplab
module namespace that binds it, so calls made through
``from .qcore import hermitian_sqrt`` are caught as well as calls made
through the defining module.  Methods are wrapped on their class.  Each
call appends one span (name, parent, start, end) to an in-memory list;
``Tracer.dump`` returns the spans for the parent process, and
``layer_metrics`` turns them into the per-layer table.  Self time is a
span's duration minus the durations of its direct children (calls are
nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# (span name, module, attribute); an attribute "Class.method" wraps a method.
TARGETS = (
    ("optimize.maximize", "optimize", "maximize_pair_fidelity"),
    ("optimize.value", "optimize", "PairFidelityObjective.value"),
    ("optimize.unitary_exp", "optimize", "unitary_exp"),
    ("locc.run", "locc", "run"),
    ("locc.make", "locc", "make_first_pair"),
    ("locc.make", "locc", "make_random_pair"),
    ("locc.make", "locc", "make_random_permutation"),
    ("locc.make", "locc", "make_simple_random_hash"),
    ("qcore.hermitian_sqrt", "qcore", "hermitian_sqrt"),
    ("qcore.fidelity", "qcore", "fidelity"),
    ("qcore.base_fidelity", "qcore", "base_fidelity"),
    ("qcore.partial_trace", "qcore", "partial_trace"),
    ("serialize.protocol_to_json", "serialize", "protocol_to_json"),
    ("serialize.protocol_from_json", "serialize", "protocol_from_json"),
    ("serialize.records", "serialize", "records_to_json"),
    ("serialize.records", "serialize", "records_to_csv"),
    ("errmodels.states", "errmodels", "MeasureRModel.states"),
    ("errmodels.states", "errmodels", "MeasureRModel.uniform_mixture"),
    ("errmodels.states", "errmodels", "DepolarizationModel.states"),
    ("errmodels.states", "errmodels", "FidelityModel.states"),
    ("errmodels.states", "errmodels", "pair_bell_mixture_ensemble"),
    ("errmodels.states", "errmodels", "fidelity_witness"),
    ("cli", "cli", "main"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[Any]] = []  # [name id, parent index, start, end]
        self.attrs: dict[int, dict[str, Any]] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, describe: Callable | None = None) -> Callable:
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, attrs, clock = self.spans, self._stack, self.attrs, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if describe is not None:
                attrs[index] = describe(args, kwargs, result)
            return result

        return traced

    def dump(self) -> dict[str, Any]:
        return {"names": self.names, "spans": self.spans, "attrs": self.attrs}


def _describe_run(dense_type: type) -> Callable:
    def describe(args, kwargs, result) -> dict[str, Any]:
        state = kwargs["state"] if "state" in kwargs else args[1]
        members = state if isinstance(state, list) else [(1.0, state)]
        dense = any(isinstance(st, dense_type) for _, st in members)
        return {"dense": dense, "leaves": len(result.leaves)}

    return describe


def _describe_ascent(args, kwargs, result) -> dict[str, Any]:
    return {"restarts": len(result.restart_values), "converged": bool(result.converged)}


def install(tracer: Tracer) -> None:
    """Wrap every traced edplab function; call once, after importing edplab."""
    package = sys.modules["edplab"]
    modules = [mod for key, mod in sorted(sys.modules.items())
               if key == "edplab" or key.startswith("edplab.")]
    describers = {
        "locc.run": _describe_run(sys.modules["edplab.qcore"].DensityMatrix),
        "optimize.maximize": _describe_ascent,
    }
    targets = list(TARGETS)
    verify = sys.modules["edplab.verify"]
    targets += [
        ("verify", "verify", key)
        for key, value in sorted(vars(verify).items())
        if inspect.isfunction(value) and value.__module__ == verify.__name__ and not key.startswith("_")
    ]
    for span_name, module_name, attribute in targets:
        module = getattr(package, module_name)
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(span_name, vars(cls)[method], describers.get(span_name)))
            continue
        original = getattr(module, attribute)
        wrapper = tracer.wrap(span_name, original, describers.get(span_name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def layer_metrics(dump: dict[str, Any]) -> dict[str, float]:
    """Per-layer table of one traced pass, without ``trace_overhead_s``."""
    names, spans = dump["names"], dump["spans"]
    attrs = {int(k): v for k, v in dump["attrs"].items()}
    duration = [end - start for _, _, start, end in spans]
    self_time = list(duration)
    for _, parent, start, end in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for index, (name_id, _, _, _) in enumerate(spans):
        calls[names[name_id]] += 1
        self_s[names[name_id]] += self_time[index]

    run_ids = [i for i, span in enumerate(spans) if names[span[0]] == "locc.run"]
    leaves = sum(attrs[i]["leaves"] for i in run_ids)
    ascents = [attrs[i] for i, span in enumerate(spans) if names[span[0]] == "optimize.maximize"]
    restarts = sum(a["restarts"] for a in ascents)
    return {
        "optimize.maximize_s": self_s["optimize.maximize"],
        "optimize.value_calls": calls["optimize.value"],
        "optimize.value_s": self_s["optimize.value"],
        "optimize.unitary_exp_calls": calls["optimize.unitary_exp"],
        "optimize.unitary_exp_s": self_s["optimize.unitary_exp"],
        "optimize.value_calls_per_restart": calls["optimize.value"] / restarts if restarts else 0.0,
        "optimize.converged_frac": (
            sum(a["converged"] for a in ascents) / len(ascents) if ascents else 0.0
        ),
        "locc.run_calls": len(run_ids),
        "locc.run_dense_s": sum(self_time[i] for i in run_ids if attrs[i]["dense"]),
        "locc.run_pure_s": sum(self_time[i] for i in run_ids if not attrs[i]["dense"]),
        "locc.leaves": leaves,
        # inclusive run time: what one leaf costs, helpers included
        "locc.us_per_leaf": sum(duration[i] for i in run_ids) / leaves * 1e6 if leaves else 0.0,
        "locc.make_s": self_s["locc.make"],
        "qcore.hermitian_sqrt_calls": calls["qcore.hermitian_sqrt"],
        "qcore.hermitian_sqrt_s": self_s["qcore.hermitian_sqrt"],
        "qcore.fidelity_calls": calls["qcore.fidelity"],
        "qcore.fidelity_s": self_s["qcore.fidelity"],
        "qcore.base_fidelity_calls": calls["qcore.base_fidelity"],
        "qcore.base_fidelity_s": self_s["qcore.base_fidelity"],
        "qcore.partial_trace_calls": calls["qcore.partial_trace"],
        "qcore.partial_trace_s": self_s["qcore.partial_trace"],
        "serialize.protocol_to_json_s": self_s["serialize.protocol_to_json"],
        "serialize.protocol_from_json_s": self_s["serialize.protocol_from_json"],
        "serialize.records_s": self_s["serialize.records"],
        "errmodels.states_calls": calls["errmodels.states"],
        "errmodels.states_s": self_s["errmodels.states"],
        "verify.calls": calls["verify"],
        "verify.self_s": self_s["verify"],
        "cli.calls": calls["cli"],
        "cli.self_s": self_s["cli"],
    }
