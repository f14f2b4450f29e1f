"""Tests of the benchmark itself: PYTHONPATH=src python -m pytest -q bench"""

import importlib.util
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cases  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def _conftest():
    spec = importlib.util.spec_from_file_location(
        "suite_conftest", os.path.join(ROOT, "tests", "conftest.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stream_reproduces_the_test_suite():
    expected = _conftest().suite_cases()
    got = cases.suite(len(expected), cases.SUITE_SEED)
    assert [(c.r, c.s, c.N, c.q, c.alpha, c.beta) for c in got] == [
        (p.r, p.s, p.N, p.q, p.alpha, p.beta) for p in expected
    ]
    # a longer run starts with the same cases
    assert cases.suite(80, cases.SUITE_SEED)[: len(got)] == got


def test_tracer_patches_rebound_names_and_restores_them():
    from qzeros import isospectral, params, rootfind

    original = rootfind.find_zeros
    case = cases.suite(4)[3]
    pset = params.ParamSet(r=case.r, s=case.s, N=case.N, q=case.q,
                           alpha=case.alpha, beta=case.beta)
    tracer = Tracer()
    targets = (("qzeros.isospectral", "certified_spectrum"), ("qzeros.rootfind", "find_zeros"))
    with tracer.installed(targets):
        assert isospectral.find_zeros is not original
        isospectral.certified_spectrum(pset)
    assert isospectral.find_zeros is original and rootfind.find_zeros is original
    names = [(span[0], span[3]) for span in tracer.spans]
    assert names == [("isospectral.certified_spectrum", -1), ("rootfind.find_zeros", 0)]
    m = tracer.metrics()
    assert abs(m["isospectral.certified_spectrum.self_ms"]
               - (m["isospectral.certified_spectrum.ms"] - m["rootfind.find_zeros.ms"])) < 1e-9


def test_report_checks_accept_the_program_and_catch_tampering(tmp_path):
    from qzeros import cli

    case = cases.suite(6)[5]
    [path] = cases.write_configs([case], str(tmp_path))
    outcome, _, _, text, stderr = run.run_case(cli, ["verify", "--config", path])
    assert run.check_report(text, case, "verify", outcome, stderr) == []

    report = json.loads(text)
    report["result"]["mu_closed"][0][0] += 1e-3
    report["pass"] = not report["pass"]
    problems = run.check_report(json.dumps(report), case, "verify", outcome, stderr)
    assert "pass != all(checks)" in problems
    assert "mu_closed differs from the closed form" in problems


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(50) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(999) == 90
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(15) is None
