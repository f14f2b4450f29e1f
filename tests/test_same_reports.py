"""tools/same_reports.py: byte-identity of reports between two source trees."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_reports", ROOT / "tools" / "same_reports.py")
same_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_reports)

# two verify runs, whose q-difference checks read QDE_SAMPLE_COUNT points,
# and a flow run with its trajectory, which reads none
PICKED = ("verify/3", "verify/14", "flow/2")


def test_a_copy_reports_the_same_and_a_changed_constant_does_not(tmp_path):
    runs = [run for run in same_reports.pinned_runs(tmp_path / "configs") if run[0] in PICKED]
    assert [name for name, _ in runs] == list(PICKED)
    same, changed = tmp_path / "same", tmp_path / "changed"
    for tree in (same, changed):
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "src" / "qzeros" / "cli.py"
    text = cli.read_text()
    assert text.count("QDE_SAMPLE_COUNT = 20\n") == 1
    cli.write_text(text.replace("QDE_SAMPLE_COUNT = 20\n", "QDE_SAMPLE_COUNT = 19\n"))

    assert same_reports.compare(ROOT, same, runs) == []
    assert same_reports.compare(ROOT, changed, runs) == [("verify/3", ["report"]), ("verify/14", ["report"])]
