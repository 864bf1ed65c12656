"""Every function the benchmark tracer wraps still exists.

``bench/tracer.py`` looks each of its ``TARGETS`` up by name when a
traced pass starts, so deleting or renaming one makes every traced pass
raise.  This test catches that in the tier-1 suite, without the bench
smoke test's full runs.
"""

from pathlib import Path

import edplab.cli  # noqa: F401  (imports every module the tracer wraps)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    missing = []
    for span, module_name, attribute in tracer.TARGETS:
        module = getattr(edplab, module_name, None)
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and callable(vars(cls).get(method))
        else:
            found = callable(getattr(module, attribute, None))
        if not found:
            missing.append((span, f"{module_name}.{attribute}"))
    assert not missing
