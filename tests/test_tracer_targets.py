"""The bench tracer's targets name functions that exist, and a traced
verify shows its spectrum step.

bench/tracer.py resolves each (module, attribute) of TARGETS with getattr
when a traced run starts; a renamed or deleted name would fail only there.
"""

import importlib
import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracer():
    path = os.path.join(ROOT, "bench", "tracer.py")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = _tracer()
    assert tracer.TARGETS
    missing = [
        (module, attr)
        for module, attr in tracer.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_traced_verify_spans_its_spectrum_step(tmp_path):
    # verify reads the spectrum verdict through certified_spectrum, so the
    # traced run times that step in its own span instead of in its caller's
    # self time, and builds M once
    from qzeros import cli

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"r": 1, "s": 1, "N": 6, "q": 0.45, "alpha": [[0.7, 0.2]], "beta": [[1.3, -0.4]]}))
    tracer = _tracer().Tracer()
    with tracer.installed():
        assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "report.json")]) == 0
    metrics = tracer.metrics()
    assert metrics["isospectral.certified_spectrum.calls"] == 1
    assert metrics["isospectral.build_M.calls"] == 1
