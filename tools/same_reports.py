"""Compare what the command line reports in two source trees, run for run.

    python tools/same_reports.py OLD NEW

OLD and NEW are source trees that each hold src/qzeros, for example this
checkout and a `git archive` copy of its parent. Both trees make the same
runs, on configurations written once from this tree's tests:

- the pinned streams of tests/test_suite_verdicts.py, STREAMS,
  HIGH_STREAMS and EDGE_STREAMS, each run as that test runs it (1737 runs
  with the flow runs below, and the 840 of the edge streams: 2577);
- flow with --traj on the 50 suite configurations in binary64, on the 25
  of them with N <= 5 at extended digits, and on the 50 with perturb 1e-3
  and t_end 0.5 in binary64.

Each tree makes every run in one subprocess, through qzeros.cli.main in
process and in the same order. A run's outcome is its exit code, its report
with wall_time_s set to 0, its stderr, the warnings it raised and its
trajectory CSV. The runs whose outcomes differ are printed, with the
fields that differ and the JSON paths of the report that changed, a check
by its name (checks[det_gap].value, result.matched_pairs[2][3]). The
output ends with the number of runs in which each path changed, list
positions taken together (result.matched_pairs[*][3]), and, for each
check whose value changed in some run, the largest value of that check
over each stream's runs in OLD and in NEW. The exit code is 1 if any run
differs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLOW_SUITE = 50
FLOW_EXT_DEGREE = 5
FLOW_PERTURBED = {"perturb": 1e-3, "t_end": 0.5}

# run in a subprocess whose PYTHONPATH is the tree's src: it imports this
# file for work() and the tree's qzeros for the runs
WORKER = "import sys; sys.path.insert(0, sys.argv[1]); import same_reports; same_reports.work(*sys.argv[2:])"


def pinned_runs(directory) -> list:
    """(name, argv) of every run, its configuration written to directory:
    name is the stream and the position in it, argv a qzeros.cli.main
    argument list without --out and --traj."""
    for path in (ROOT / "src", ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from conftest import suite_cases
    from test_suite_verdicts import EDGE_STREAMS, HIGH_STREAMS, STREAMS, _write_configs, edge_cases, high_degree_cases

    directory = Path(directory)
    for sub in ("suite", "high", "perturbed"):
        (directory / sub).mkdir(parents=True, exist_ok=True)
    suite = _write_configs(directory / "suite", suite_cases(max(s[2] for s in STREAMS.values())))
    high = _write_configs(directory / "high", high_degree_cases(max(s[2] for s in HIGH_STREAMS.values())))
    perturbed = []
    for path, _ in suite[:FLOW_SUITE]:
        cfg = {**json.loads(Path(path).read_text()), **FLOW_PERTURBED}
        perturbed.append(directory / "perturbed" / Path(path).name)
        perturbed[-1].write_text(json.dumps(cfg))

    def runs(stream, command, precision, paths):
        return [(f"{stream}/{i}", [command, "--config", str(p), "--precision", precision]) for i, p in enumerate(paths)]

    out = []
    for stream, (command, precision, count, max_degree) in STREAMS.items():
        out += runs(stream, command, precision, [p for p, n in suite if n <= max_degree][:count])
    for stream, (command, precision, count) in HIGH_STREAMS.items():
        out += runs(stream, command, precision, [p for p, _ in high[:count]])
    for stream, (command, precision, count, mags, rs) in EDGE_STREAMS.items():
        (directory / stream).mkdir(exist_ok=True)
        edge = _write_configs(directory / stream, edge_cases(count, mags, rs))
        out += runs(stream, command, precision, [p for p, _ in edge])
    out += runs("flow", "flow", "f64", [p for p, _ in suite[:FLOW_SUITE]])
    out += runs("flow-ext", "flow", "extended", [p for p, n in suite[:FLOW_SUITE] if n <= FLOW_EXT_DEGREE])
    out += runs("flow-perturbed", "flow", "f64", perturbed)
    return out


def _read(path):
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def work(runs_path, out_path):
    """Make each run of the JSON list at runs_path with this process's
    qzeros, and write the outcomes, by name, to out_path as JSON."""
    from qzeros.cli import main

    with open(runs_path, encoding="utf-8") as fh:
        runs = json.load(fh)
    outcomes = {}
    with tempfile.TemporaryDirectory() as tmp:
        report, traj = os.path.join(tmp, "report.json"), os.path.join(tmp, "traj.csv")
        for name, argv in runs:
            for path in (report, traj):
                if os.path.exists(path):
                    os.remove(path)
            argv = argv + ["--out", report] + (["--traj", traj] if argv[0] == "flow" else [])
            stderr = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                try:
                    code = main(argv)
                except (Exception, SystemExit) as exc:  # a crash is an outcome too
                    code = f"{type(exc).__name__}: {exc}"
            text = _read(report)
            outcomes[name] = {
                "code": code,
                "report": None if text is None else re.sub(r'"wall_time_s": [^,}]+', '"wall_time_s": 0', text),
                "stderr": stderr.getvalue(),
                "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
                "csv": _read(traj),
            }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(outcomes, fh)


_ABSENT = object()


def _paths(a, b, path: str) -> list:
    """The JSON paths below path at which the JSON values a and b differ: an
    object's keys after a dot, a list's positions in brackets, and a check,
    an object in a list of named objects, by its name in brackets."""
    if a == b:
        return []
    if isinstance(a, list) and isinstance(b, list):
        named = all(isinstance(v, dict) and "name" in v for v in a + b)
        a, b = ({v["name"]: v for v in x} if named else dict(enumerate(x)) for x in (a, b))
        return [p for k in {**a, **b} for p in _paths(a.get(k, _ABSENT), b.get(k, _ABSENT), f"{path}[{k}]")]
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for k in {**a, **b} for p in _paths(a.get(k, _ABSENT), b.get(k, _ABSENT), f"{path}.{k}" if path else k)]
    return [path]


def changes(a: dict, b: dict) -> list:
    """(field, paths) for each field in which the outcomes a and b of one run
    differ, in the order of a's fields: paths are the JSON paths that
    changed where both outcomes hold a report (_paths), else empty."""
    out = []
    for field in a:
        if a[field] != b[field]:
            both = field == "report" and None not in (a[field], b[field])
            out.append((field, _paths(json.loads(a[field]), json.loads(b[field]), "") if both else []))
    return out


CHECK_VALUE = re.compile(r"checks\[(.+)\]\.value")


def _check_value(outcome: dict, name: str):
    """The value of the check called name in the outcome's report, or None."""
    report = json.loads(outcome["report"] or "{}")
    return next((c.get("value") for c in report.get("checks", []) if c.get("name") == name), None)


def _largest(values):
    """The largest value that is not None, NaN above every number; None if none."""
    return max((v for v in values if v is not None), key=lambda v: (math.isnan(v), v), default=None)


def check_maxima(a: dict, b: dict, paths) -> list:
    """(path, stream, old, new) for each checks[<name>].value path among
    paths and each stream, the part of a run's name before its slash: the
    largest value of that check over all of the stream's runs in the
    outcomes a and in b, NaN the largest, None where no run reports one."""
    out = []
    for path in sorted({p for p in paths if CHECK_VALUE.fullmatch(p)}):
        name = CHECK_VALUE.fullmatch(path).group(1)
        streams = {}
        for run in a:
            old, new = streams.setdefault(run.split("/")[0], ([], []))
            old.append(_check_value(a[run], name))
            new.append(_check_value(b[run], name))
        for stream, sides in streams.items():
            largest = [_largest(values) for values in sides]
            if largest != [None, None]:
                out.append((path, stream, *largest))
    return out


def differing(a: dict, b: dict, runs) -> list:
    """(name, changes) of each run whose outcomes a[name] and b[name]
    differ, in the order of runs: the fields that differ, each with the
    report's changed JSON paths (changes)."""
    return [(name, changes(a[name], b[name])) for name, _ in runs if a[name] != b[name]]


def compare(old, new, runs) -> list:
    """differing over the outcomes of the runs in the source trees old and
    new (outcomes)."""
    return differing(*outcomes(old, new, runs), runs)


def outcomes(old, new, runs) -> tuple:
    """The outcomes of the runs by name, work's, in the source trees old and
    new, each tree's in one subprocess, the two side by side."""
    with tempfile.TemporaryDirectory() as tmp:
        runs_path = os.path.join(tmp, "runs.json")
        with open(runs_path, "w", encoding="utf-8") as fh:
            json.dump(runs, fh)
        procs, outs = [], []
        for i, tree in enumerate((old, new)):
            outs.append(os.path.join(tmp, f"outcomes{i}.json"))
            env = {**os.environ, "PYTHONPATH": str(Path(tree, "src").resolve())}
            cmd = [sys.executable, "-c", WORKER, str(Path(__file__).resolve().parent), runs_path, outs[-1]]
            procs.append(subprocess.Popen(cmd, env=env, cwd=tmp, stderr=subprocess.PIPE, text=True))
        for tree, proc in zip((old, new), procs):
            _, err = proc.communicate()
            if proc.returncode:
                raise RuntimeError(f"the runs in {tree} stopped:\n{err}")
        return tuple(json.loads(Path(out).read_text()) for out in outs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare the reports of two source trees, run for run")
    parser.add_argument("old", help="source tree holding src/qzeros")
    parser.add_argument("new", help="source tree holding src/qzeros")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        runs = pinned_runs(tmp)
        a, b = outcomes(args.old, args.new, runs)
    differ = differing(a, b, runs)
    tally = {}
    for name, fields in differ:
        print(f"{name}: {', '.join(field for field, _ in fields)} differ")
        for field, paths in fields:
            if paths:
                print(f"  {field}: {', '.join(paths)}")
            for path in {re.sub(r"\[\d+\]", "[*]", p) for p in paths}:
                tally[path] = tally.get(path, 0) + 1
    for path, count in sorted(tally.items()):
        print(f"{count} runs: {path}")
    for path, stream, old, new in check_maxima(a, b, tally):
        print(f"largest {path} over {stream}: {old!r} -> {new!r}")
    print(f"{len(differ)} of {len(runs)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
