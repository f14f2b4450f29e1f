"""tools/same_reports.py: byte-identity of reports between two source trees."""

import importlib.util
import json
import math
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_reports", ROOT / "tools" / "same_reports.py")
same_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_reports)

# two verify runs, whose reports carry qde_residual_max's threshold, and a
# flow run with its trajectory, which reads none
PICKED = ("verify/3", "verify/14", "flow/2")


def test_a_copy_reports_the_same_and_a_changed_constant_does_not(tmp_path):
    runs = [run for run in same_reports.pinned_runs(tmp_path / "configs") if run[0] in PICKED]
    assert [name for name, _ in runs] == list(PICKED)
    same, changed = tmp_path / "same", tmp_path / "changed"
    for tree in (same, changed):
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "src" / "qzeros" / "cli.py"
    text = cli.read_text()
    assert text.count('"qde_residual_max": 1e-9,\n') == 1
    cli.write_text(text.replace('"qde_residual_max": 1e-9,\n', '"qde_residual_max": 1e-8,\n'))

    assert same_reports.compare(ROOT, same, runs) == []
    threshold = [("report", ["checks[qde_residual_max].threshold"])]
    assert same_reports.compare(ROOT, changed, runs) == [("verify/3", threshold), ("verify/14", threshold)]


def test_pinned_runs_make_every_stream_the_verdict_pins_make(tmp_path):
    # each stream table of test_suite_verdicts (STREAMS, HIGH_STREAMS,
    # EDGE_STREAMS, and any added later), each stream with its run count
    import test_suite_verdicts

    tables = [table for name, table in vars(test_suite_verdicts).items() if name.endswith("STREAMS")]
    want = {stream: spec[2] for table in tables for stream, spec in table.items()}
    got = {}
    for name, _ in same_reports.pinned_runs(tmp_path):
        stream = name.split("/")[0]
        got[stream] = got.get(stream, 0) + 1
    assert len(tables) == 3 and {stream: got.get(stream) for stream in want} == want
    assert sum(got.values()) == 2577


def _outcome(code, checks, pairs, stderr=""):
    report = {"command": "verify", "checks": checks, "pass": code == 0, "result": {"matched_pairs": pairs}}
    return {"code": code, "report": json.dumps(report), "stderr": stderr, "warnings": [], "csv": None}


def test_changes_name_each_changed_check_and_result_entry():
    det = {"name": "det_gap", "value": 1e-16, "pass": True}
    old_checks = [det, {"name": "jacobian_defect", "value": 1e-8, "pass": True}]
    new_checks = [det, {"name": "jacobian_defect", "value": 2e-5, "pass": False}]
    old = _outcome(0, old_checks, [[[1.0, 0.0], [1.0, 0.0], 0.0, 1e-16], [[2.0, 0.0], [2.0, 0.0], 0.0, 1e-16]])
    new = _outcome(1, new_checks, [[[1.0, 0.0], [1.0, 0.0], 0.0, 1e-16], [[2.0, 1e-15], [2.0, 0.0], 5e-16, 2e-16]])
    assert same_reports.changes(old, old) == []
    assert same_reports.changes(old, new) == [
        ("code", []),
        (
            "report",
            [
                "checks[jacobian_defect].value",
                "checks[jacobian_defect].pass",
                "pass",
                "result.matched_pairs[1][0][1]",
                "result.matched_pairs[1][2]",
                "result.matched_pairs[1][3]",
            ],
        ),
    ]
    # a check or key present on one side only, and a run without a report
    dropped = _outcome(0, old_checks[:1], [], stderr="note")
    assert same_reports.changes(old, dropped) == [
        ("report", ["checks[jacobian_defect]", "result.matched_pairs[0]", "result.matched_pairs[1]"]),
        ("stderr", []),
    ]
    assert same_reports.changes(old, {**old, "report": None}) == [("report", [])]


def test_check_maxima_read_every_run_of_each_stream():
    # the largest value of each given check over a stream, read from every
    # run of it, not only the runs that differ; a stream none of whose runs
    # reports the check (flow's det_gap) and a path other than a check's
    # value have no line, and NaN counts as the largest
    def check(name, value):
        return {"name": name, "value": value, "pass": True}

    a = {
        "verify/0": _outcome(0, [check("jacobian_defect", 3e-14), check("det_gap", 1e-9)], []),
        "verify/1": _outcome(0, [check("jacobian_defect", 1e-14), check("det_gap", 2e-9)], []),
        "flow/0": _outcome(0, [check("jacobian_defect", 5e-15)], []),
        "flow/1": {**_outcome(1, [], []), "report": None},
    }
    b = {
        **a,
        "verify/1": _outcome(0, [check("jacobian_defect", 2e-14), check("det_gap", 2e-9)], []),
        "flow/0": _outcome(0, [check("jacobian_defect", float("nan"))], []),
    }
    differ = same_reports.differing(a, b, [(name, []) for name in a])
    paths = {path for _, fields in differ for _, changed in fields for path in changed}
    assert paths == {"checks[jacobian_defect].value"}
    maxima = same_reports.check_maxima(a, b, paths | {"checks[det_gap].value", "checks[det_gap].threshold"})
    assert [m[:3] for m in maxima] == [
        ("checks[det_gap].value", "verify", 2e-9),
        ("checks[jacobian_defect].value", "verify", 3e-14),
        ("checks[jacobian_defect].value", "flow", 5e-15),
    ]
    assert [m[3] for m in maxima[:2]] == [2e-9, 3e-14] and math.isnan(maxima[2][3])
