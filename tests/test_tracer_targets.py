"""The bench tracer's targets name functions that exist.

bench/tracer.py resolves each (module, attribute) of TARGETS with getattr
when a traced run starts; a renamed or deleted name would fail only there.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_targets_resolve():
    path = os.path.join(ROOT, "bench", "tracer.py")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        (module, attr)
        for module, attr in tracer.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
