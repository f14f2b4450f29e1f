"""Verdicts of zeros, verify and sweep over the benchmark streams.

A regression guard against false failures, and the pin that keeps every
verdict through a refactor: every check on these generic parameter sets
measures an identity that holds, so each case exits 0 with all checks
passing, except the cases in KNOWN_FAILURES, which fail for reasons still
open (see ROADMAP). The streams are prefixes of the bench streams at
SUITE_SEED (conftest.suite_cases is bench/cases.suite, asserted in
bench/test_bench.py), taken by position, never by verdict; their first 50
cases are the test suite. Exit codes and failing-check names are pinned, not
values: binary64 results move in the last bits with NumPy's SIMD dispatch.
"""

import json
import os
import warnings

import pytest

from qzeros.cli import main

from conftest import suite_cases

# stream: (command, precision, case count, largest N); the stream is the
# first count suite cases with N at most the largest N
STREAMS = {
    "zeros": ("zeros", "f64", 500, 10),
    "verify": ("verify", "f64", 625, 10),
    "verify-ext": ("verify", "extended", 175, 5),
    "sweep": ("sweep", "f64", 120, 10),
}

# (stream, position in the stream): (exit code, sorted failing checks); an
# exit 1 without failing checks is an error raised before any report
KNOWN_FAILURES = {
    # zeros closer than the 1e-8 certified separation (DegenerateZeros):
    # ROADMAP item 6
    ("zeros", 158): (1, ()),
    ("verify", 158): (1, ()),
    # prop1_dual_gap at 2e-10 to 1e-9 against 1e-10 on (r, s) = (0, 0),
    # N = 9, |q| 0.80-0.84, while extended verify passes: ROADMAP item 6
    ("verify", 78): (1, ("prop1_dual_gap",)),
    ("verify", 468): (1, ("prop1_dual_gap",)),
    ("verify", 528): (1, ("prop1_dual_gap",)),
    # matrix_drift_min measures 4.6e-4 and 8.0e-4 against 1e-3 on these
    # (r, s) = (0, 1) cases; whether the inf-norm drift is the right measure
    # there is open: ROADMAP item 2
    ("sweep", 26): (1, ("matrix_drift_min",)),
    ("sweep", 32): (1, ("matrix_drift_min",)),
}


def _pair(z):
    return [z.real, z.imag]


@pytest.fixture(scope="module")
def stream_configs(tmp_path_factory):
    """Config paths and degrees of the first 625 suite cases, which hold
    every stream."""
    directory = tmp_path_factory.mktemp("suite")
    configs = []
    for i, params in enumerate(suite_cases(max(s[2] for s in STREAMS.values()))):
        cfg = {
            "r": params.r,
            "s": params.s,
            "N": params.N,
            "q": _pair(params.q),
            "alpha": [_pair(a) for a in params.alpha],
            "beta": [_pair(b) for b in params.beta],
        }
        path = directory / f"case{i:03d}.json"
        path.write_text(json.dumps(cfg))
        configs.append((str(path), params.N))
    return configs


@pytest.mark.parametrize("stream", list(STREAMS))
def test_suite_exit_codes(stream, stream_configs, tmp_path):
    command, precision, count, max_degree = STREAMS[stream]
    paths = [path for path, degree in stream_configs if degree <= max_degree][:count]
    assert len(paths) == count
    out = str(tmp_path / "report.json")
    got, expected, caught = {}, {}, []
    for i, cfg in enumerate(paths):
        if os.path.exists(out):
            os.remove(out)
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            code = main([command, "--config", cfg, "--out", out, "--precision", precision])
        failing = ()
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                checks = json.load(fh)["checks"]
            failing = tuple(sorted(c["name"] for c in checks if not c["pass"]))
        caught += [(i, str(w.message)) for w in records]
        got[i] = (code, failing)
        expected[i] = KNOWN_FAILURES.get((stream, i), (0, ()))
    assert got == expected
    assert caught == []
