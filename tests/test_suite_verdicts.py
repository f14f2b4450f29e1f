"""Exit codes of zeros, verify and sweep over the 50-case suite.

A regression guard against false failures: every check on these generic
parameter sets measures an identity that holds, so each command exits 0
except on the cases listed in KNOWN_FAILURES, which fail for reasons still
open (see ROADMAP).
"""

import json
import warnings

import pytest

from qzeros.cli import main

from conftest import suite_cases

# sweep's matrix_drift_min measures 4.6e-4 and 8.0e-4 against 1e-3 on these
# (r, s) = (0, 1) cases; whether the inf-norm drift is the right measure
# there is open
KNOWN_FAILURES = {("sweep", 26), ("sweep", 32)}


def _pair(z):
    return [z.real, z.imag]


@pytest.fixture(scope="module")
def suite_configs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("suite")
    paths = []
    for i, params in enumerate(suite_cases()):
        cfg = {
            "r": params.r,
            "s": params.s,
            "N": params.N,
            "q": _pair(params.q),
            "alpha": [_pair(a) for a in params.alpha],
            "beta": [_pair(b) for b in params.beta],
        }
        path = directory / f"case{i:02d}.json"
        path.write_text(json.dumps(cfg))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("command", ["zeros", "verify", "sweep"])
def test_suite_exit_codes(command, suite_configs, tmp_path):
    out = str(tmp_path / "report.json")
    got, expected, caught = {}, {}, []
    for i, cfg in enumerate(suite_configs):
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            got[i] = main([command, "--config", cfg, "--out", out])
        caught += [(i, str(w.message)) for w in records]
        expected[i] = 1 if (command, i) in KNOWN_FAILURES else 0
    assert got == expected
    assert caught == []
