"""Benchmark of the qzeros command line, end to end and layer by layer.

    python3 bench/run.py                      # every workload, one table
    python3 bench/run.py --workload zeros-f64 --seed 7 --seconds 25 --trace 0

A workload is one CLI command at one precision over seeded parameter sets
(bench/cases.py). The benchmark writes the configs, then calls
qzeros.cli.main in process, one case at a time, from one process and one
thread, and checks every report it gets back. Each workload runs in its own
fresh interpreter.

--trace 0 times one pass over the cases and prints the end-to-end metrics.
--seconds sets the number of cases through the workload's nominal rate, so
every run of a workload at one setting times the same work. Timings are
scaled to a reference machine speed measured during the run (see
CAL_REFERENCE_S).

--trace 1 runs the workload's short suite three times, the last time with
timing wrappers on the public functions of each module (bench/tracer.py),
and prints the per-layer metrics, unscaled. The three passes must give the
same exit table and byte-identical reports apart from wall_time_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. failed counts the cases that crashed, timed
out, exited 2 or failed an output check; an exit 1 is a verdict (a check of
the paper's identities failed) and lowers pass_share instead. The full record
(environment, per-case exit table, spans) goes to bench/out/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass

STARTED = time.perf_counter()

# one BLAS thread; this must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import cases as case_gen  # noqa: E402  (sibling module; bench/ is sys.path[0])
from tracer import Tracer  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

# per-case wall-time limit: every case of the workloads below finishes well
# inside it (slowest measured: about 2 s, extended precision at N = 10); it
# only bounds a run whose program hangs or regresses badly
CASE_LIMIT_S = 10.0
# a run stops issuing cases after this long and counts the rest as timeouts,
# so that it always ends within three minutes
RUN_DEADLINE_S = 150.0
SETUP_PROBES = 5
WARMUP_CASE = 1  # N = 2: cheap, and N = 1 crashes the extended path today
TAIL_PERCENTILES = (50, 75, 90, 99, 99.9)
MU_TOL = 1e-9

# Machine-speed reference. The speed of a shared host drifts by tens of
# percent, within seconds and between minutes, and the drift moves every
# timing of a run together. calibration_time(), a fixed loop of
# builtin-complex and mpmath arithmetic (the two kinds of work the program
# does), is timed every CAL_INTERVAL_S of a --trace 0 run, and every case
# time of the run is scaled by CAL_REFERENCE_S / (mean loop time), so the
# figures read as if run at the reference speed. The mean, not the median,
# because the cases run through the whole pass and so see the average speed.
# Each set-up probe is scaled by the loops timed just before and after it.
# The unscaled figures are printed and kept in the full record.
CAL_REFERENCE_S = 1.5e-3
CAL_INTERVAL_S = 0.1
PROBE_CALIBRATIONS = 10
_CAL_COEFFS = tuple(complex(k + 1, -0.5 * k) for k in range(16))


@dataclass(frozen=True)
class Workload:
    command: str
    precision: str
    # nominal cases per second; the case count of a --trace 0 run is
    # seconds * rate, which keeps its pass near --seconds on a 2-core Xeon
    # host while other tenants load it
    rate: float
    # the short suite of the traced run: the first trace_cases of the stream
    trace_cases: int
    # the --trace 0 cases keep N <= max_degree
    max_degree: int = 10


# Why these workloads: zeros-f64 spends its time in the companion-matrix
# oracle and its mpmath escalations (21 of 50 suite cases); verify-f64 never
# calls that oracle and spends it in certified_spectrum, jacobian_fd/flow_rhs,
# qdiff and zero_algebra; verify-ext runs the same kernels over mpmath scalars,
# the path a binary64-only optimisation can slow or break. Its timed cases keep
# N <= 5: an extended case costs roughly N^3 (about 2 s at N = 10), and a
# steady figure needs a couple of hundred cases per run, since the cost of a
# case varies severalfold with q. Its traced run keeps the first ten suite
# cases, N = 1..10. The flow command is no workload: at t_end = 1, four of the
# 50 suite cases run 19-97 s and the rest up to 5.4 s, with case times spread
# evenly below that, so no per-case limit sits clear of them and one pass
# takes over a minute even with a 10 s limit.
WORKLOADS = {
    "zeros-f64": Workload("zeros", "f64", 20.0, 50),
    "verify-f64": Workload("verify", "f64", 25.0, 50),
    "verify-ext": Workload("verify", "extended", 7.0, 10, max_degree=5),
}

E2E_UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "pass_share": "share",
    "peak_rss_mb": "MB",
}

# the per-layer metrics a --trace 1 run prints; names are
# <module>.<function>.<stat>, with ms the inclusive time and self_ms that time
# minus the time of child spans
LAYER_METRICS = (
    "params.validate.calls",
    "qseries.coeffs_P.calls",
    "qseries.coeffs_P.ms",
    "rootfind.find_zeros.calls",
    "rootfind.find_zeros.ms",
    "rootfind.companion_zeros.calls",
    "rootfind.companion_zeros.ms",
    "rootfind.companion_zeros.self_ms",
    "rootfind.companion_zeros.escalations",
    "rootfind.companion_zeros.escalation_share",
    "isospectral.certified_spectrum.calls",
    "isospectral.certified_spectrum.ms",
    "isospectral.certified_spectrum.self_ms",
    "isospectral.certified_spectrum.escalations",
    "isospectral.certified_spectrum.escalation_share",
    "isospectral.build_M.calls",
    "isospectral.build_M.ms",
    "isospectral.match_spectrum.ms",
    "mpmath.eig.calls",
    "mpmath.eig.ms",
    "zero_algebra.KernelCache.calls",
    "zero_algebra.KernelCache.ms",
    "zero_algebra.prop1_residuals.ms",
    "zero_algebra.prop1_residuals_qde.ms",
    "qdiff.qde_residual.ms",
    "qdiff.qde_expanded_agreement.ms",
    "flow.flow_rhs.calls",
    "flow.flow_rhs.ms",
    "flow.flow_rhs.us_per_call",
    "flow.jacobian_fd.calls",
    "flow.jacobian_fd.ms",
    "cli.load_config.ms",
    "cli.main.self_ms",
    "cli.exit0",
    "cli.exit1",
    "cli.exit2",
    "cli.crash",
    "cli.timeout",
    "cli.warnings",
    "trace.overhead_ms",
)


def layer_unit(name):
    stat = name.rsplit(".", 1)[-1]
    if stat in ("ms", "self_ms", "overhead_ms"):
        return "ms"
    return {"escalation_share": "share", "us_per_call": "us"}.get(stat, "count")


REPORT_KEYS = {"command", "config", "checks", "pass", "result", "wall_time_s"}
CHECK_KEYS = {"name", "value", "threshold", "pass"}
RESULT_KEYS = {
    "zeros": {"zeros", "min_separation"},
    "verify": {"zeros", "mu_closed", "matched_pairs"},
}


class CaseTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the program's own
    `except Exception` handlers cannot turn it into a verdict."""


def _on_alarm(_signum, _frame):
    raise CaseTimeout()


# ---------------------------------------------------------------------------
# one case
# ---------------------------------------------------------------------------


def run_case(cli, argv):
    """Call cli.main once under an exception guard and the time limit.

    The report goes to standard output, the CLI's default, captured in
    memory. Returns (outcome, seconds, warnings, report text or None, stderr
    text); outcome is the exit code, "timeout" or "crash:<exception type>".
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    elapsed = 0.0
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, CASE_LIMIT_S)
                outcome = cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                elapsed = time.perf_counter() - start
        except CaseTimeout:
            outcome = "timeout"
        except Exception as exc:  # a crash of the program is data, not the end of the run
            outcome = f"crash:{type(exc).__name__}"
    return outcome, elapsed, len(caught), stdout.getvalue() or None, stderr.getvalue()


def check_report(text, case, command, outcome, stderr):
    """Problems found in one case's output; empty when it is correct."""
    if outcome not in (0, 1):
        return []
    if text is None:
        # exit 1 without a report is the documented error path
        if outcome == 1 and stderr.startswith("error:"):
            return []
        return ["no report"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return ["report is not JSON"]
    if not isinstance(report, dict) or set(report) != REPORT_KEYS:
        return ["report keys"]
    try:
        return _report_problems(report, case, command, outcome)
    except (TypeError, ValueError, KeyError) as exc:
        return [f"malformed report: {exc!r}"]


def _report_problems(report, case, command, outcome):
    problems = []
    if report["command"] != command:
        problems.append("command echo")
    if report["config"] != case.config():
        problems.append("config echo")
    checks = report["checks"]
    if not isinstance(checks, list) or not all(
        isinstance(c, dict) and set(c) == CHECK_KEYS and isinstance(c["name"], str)
        and isinstance(c["value"], float) and isinstance(c["threshold"], float)
        and isinstance(c["pass"], bool)
        for c in checks
    ):
        problems.append("check schema")
    elif report["pass"] != all(c["pass"] for c in checks):
        problems.append("pass != all(checks)")
    if outcome != (0 if report["pass"] else 1):
        problems.append("exit code disagrees with pass")
    if not isinstance(report["wall_time_s"], float):
        problems.append("wall_time_s")
    result = report["result"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS[command]:
        problems.append("result keys")
        return problems
    if len(result["zeros"]) != case.N:
        problems.append("zero count")
    if command == "verify":
        mus = result["mu_closed"]
        expected = case_gen.mu_closed(case)
        if len(mus) != len(expected) or any(
            abs(complex(*got) - want) > MU_TOL * max(1.0, abs(want))
            for got, want in zip(mus, expected)
        ):
            problems.append("mu_closed differs from the closed form")
        if len(result["matched_pairs"]) != case.N:
            problems.append("matched pair count")
    return problems


_WALL = re.compile(r'"wall_time_s": [^\n]*')


def without_wall_time(text):
    return None if text is None else _WALL.sub('"wall_time_s": 0', text)


# ---------------------------------------------------------------------------
# a pass over the cases
# ---------------------------------------------------------------------------


def run_pass(cli, workload, cases, paths, tracer=None, deadline=None, before=None):
    records = []
    for i, (case, path) in enumerate(zip(cases, paths)):
        if before is not None:
            before()
        if deadline is not None and time.perf_counter() > deadline:
            # counted as a timeout, left out of the repeat comparison
            records.append({"case": i, "outcome": "timeout", "ms": CASE_LIMIT_S * 1e3,
                            "warnings": 0, "problems": [], "text": None, "ran": False})
            continue
        argv = [workload.command, "--config", path, "--precision", workload.precision]
        if tracer is not None:
            tracer.case = i
        outcome, elapsed, n_warn, text, stderr = run_case(cli, argv)
        records.append({
            "case": i,
            "outcome": outcome,
            "ms": elapsed * 1e3,
            "warnings": n_warn,
            "problems": check_report(text, case, workload.command, outcome, stderr),
            "text": text,
            "ran": True,
        })
    return records


def is_failed(rec):
    return rec["outcome"] not in (0, 1) or bool(rec["problems"])


def _rank(n, p):
    """1-based nearest rank of percentile p among n samples (rounded first so
    that 90 % of 100 is rank 90, not 91)."""
    return max(1, math.ceil(round(p * n / 100, 9)))


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(len(sorted_values), p) - 1]


def tail_percentile(n):
    """The highest listed percentile with at least ten samples beyond it."""
    eligible = [p for p in TAIL_PERCENTILES if n - _rank(n, p) >= 10]
    return eligible[-1] if eligible else None


def outcome_counts(records):
    counts = {"cli.exit0": 0, "cli.exit1": 0, "cli.exit2": 0, "cli.crash": 0,
              "cli.timeout": 0, "cli.warnings": 0}
    for rec in records:
        outcome = rec["outcome"]
        if outcome in (0, 1, 2):
            counts[f"cli.exit{outcome}"] += 1
        elif outcome == "timeout":
            counts["cli.timeout"] += 1
        else:
            counts["cli.crash"] += 1
        counts["cli.warnings"] += rec["warnings"]
    return counts


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_cli():
    """qzeros.cli from the checkout's src/; exits non-zero when it is not there."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        from qzeros import cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import qzeros from {src}: {exc}")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"bench: qzeros imported from {cli.__file__}, not from {src}")
    return cli


def prepare(workload, cases, workdir):
    """Import, write the configs and run one warm-up case; returns (cli, paths)."""
    cli = import_cli()
    os.makedirs(workdir, exist_ok=True)
    paths = case_gen.write_configs(cases, workdir)
    signal.signal(signal.SIGALRM, _on_alarm)
    run_pass(cli, workload, [cases[WARMUP_CASE]], [paths[WARMUP_CASE]])
    return cli, paths


def case_count(workload, seconds):
    return max(workload.trace_cases, round(seconds * workload.rate))


def time_setup(args):
    """Wall time of a fresh interpreter that sets up the workload and exits."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--probe-dir", os.path.join(args.workdir, "probe")]
    start = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
    return elapsed


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def git_commit():
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref)).strip()
    if commit:
        return commit
    for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(seed):
    import mpmath
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    threads = next((int(line.split()[1]) for line in _read("/proc/self/status").splitlines()
                    if line.startswith("Threads:")), None)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "case_limit_s": CASE_LIMIT_S,
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": threads,
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def repeat_mismatches(passes):
    """Cases whose exit code or report differs between passes."""
    first = passes[0]
    return sorted({
        rec["case"] for other in passes[1:] for rec, base in zip(other, first)
        if rec["ran"] and base["ran"] and (
            rec["outcome"] != base["outcome"]
            or without_wall_time(rec["text"]) != without_wall_time(base["text"])
        )
    })


def exit_table(passes):
    return [
        {"case": rec["case"], "outcome": rec["outcome"], "warnings": rec["warnings"],
         "problems": rec["problems"], "ms": [p[i]["ms"] for p in passes]}
        for i, rec in enumerate(passes[0])
    ]


def calibration_time():
    """Seconds taken by a fixed loop of builtin-complex and mpmath arithmetic."""
    import mpmath

    start = time.perf_counter()
    z, acc = complex(0.31, 0.72), 0j
    for _ in range(150):
        v = 0j
        for c in _CAL_COEFFS:
            v = v * z + c
        acc += v / (1 + abs(v))
    with mpmath.workdps(30):
        zm, accm = mpmath.mpc("0.31", "0.72"), mpmath.mpc(0)
        coeffs = [mpmath.mpc(c) for c in _CAL_COEFFS]
        for _ in range(12):
            v = mpmath.mpc(0)
            for c in coeffs:
                v = v * zm + c
            accm += v / (1 + abs(v))
    return time.perf_counter() - start


def e2e_metrics(case_ms, records, setup_samples, peak_rss_mb):
    """End-to-end metrics from per-case times (ms) and the pass records."""
    times = sorted(case_ms)
    verdicts = sum(1 for rec in records if rec["outcome"] in (0, 1))
    tail_p = tail_percentile(len(times))
    return {
        "setup_s": statistics.median(setup_samples),
        "verdicts_per_s": verdicts / (sum(times) / 1e3),
        "case_p50_ms": percentile(times, 50),
        "case_tail_ms": percentile(times, tail_p if tail_p is not None else 100),
        "pass_share": sum(1 for rec in records if rec["outcome"] == 0
                          and not rec["problems"]) / len(records),
        "peak_rss_mb": peak_rss_mb,
    }, tail_p


def e2e_run(args, workload):
    cases = case_gen.suite(case_count(workload, args.seconds), args.seed, workload.max_degree)
    cli, paths = prepare(workload, cases, args.workdir)

    # set-up probes spread evenly over the pass, so that one slow stretch of
    # the machine cannot move all of them
    probe_at = [round(j * len(cases) / (SETUP_PROBES - 1)) for j in range(SETUP_PROBES)]
    probes, calibrations = [], []
    state = {"started": 0, "calibrated": -math.inf}

    def before():
        while probe_at and probe_at[0] == state["started"]:
            probe_at.pop(0)
            around = [calibration_time() for _ in range(PROBE_CALIBRATIONS)]
            seconds = time_setup(args)
            around += [calibration_time() for _ in range(PROBE_CALIBRATIONS)]
            probes.append((seconds, statistics.fmean(around)))
        if time.perf_counter() - state["calibrated"] >= CAL_INTERVAL_S:
            calibrations.append(calibration_time())
            state["calibrated"] = time.perf_counter()
        state["started"] += 1

    records = run_pass(cli, workload, cases, paths,
                       deadline=STARTED + RUN_DEADLINE_S, before=before)
    before()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    scale = CAL_REFERENCE_S / statistics.fmean(calibrations)
    case_ms = [rec["ms"] for rec in records]
    metrics, tail_p = e2e_metrics([ms * scale for ms in case_ms], records,
                                  [sec * CAL_REFERENCE_S / cal for sec, cal in probes],
                                  peak_rss_mb)
    raw, _ = e2e_metrics(case_ms, records, [sec for sec, _ in probes], peak_rss_mb)
    tail = f"p{tail_p}" if tail_p is not None else "max"
    notes = {
        "case_tail_ms": f"{tail} of {len(cases)} cases",
        "setup_s": f"median of {len(probes)} fresh interpreters",
        "speed scale": f"{scale:.4f} from {len(calibrations)} calibration loops",
        "unscaled": ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
    }
    extra = {
        "unscaled_metrics": raw,
        "speed_scale": scale,
        "calibration_s": calibrations,
        "setup_samples_s": [sec for sec, _ in probes],
        "setup_calibration_s": [cal for _, cal in probes],
        "outcomes": outcome_counts(records),
        "exit_table": exit_table([records]),
    }
    return records, metrics, E2E_UNITS, notes, extra, True


def trace_run(args, workload):
    cases = case_gen.suite(workload.trace_cases, args.seed)
    cli, paths = prepare(workload, cases, args.workdir)

    # the first pass settles lazy state (mpmath caches); the second is the
    # untraced reference for the tracing overhead
    passes, seconds = [], []
    tracer = Tracer()
    for traced in (False, False, True):
        start = time.perf_counter()
        with tracer.installed() if traced else contextlib.nullcontext():
            passes.append(run_pass(cli, workload, cases, paths,
                                   tracer=tracer if traced else None,
                                   deadline=STARTED + RUN_DEADLINE_S))
        seconds.append(time.perf_counter() - start)

    mismatches = repeat_mismatches(passes)
    measured = tracer.metrics()
    measured.update(outcome_counts(passes[-1]))
    measured["trace.overhead_ms"] = (seconds[2] - seconds[1]) * 1e3
    metrics = {name: measured[name] for name in LAYER_METRICS}
    units = {name: layer_unit(name) for name in measured}
    notes = {"trace.overhead_ms": f"traced pass {seconds[2]:.3f} s, "
                                  f"untraced {seconds[1]:.3f} s"}
    extra = {
        "all_layer_metrics": measured,
        "exit_table": exit_table(passes),
        "repeat_mismatches": mismatches,
        "spans": tracer.spans,
    }
    return passes[-1], metrics, units, notes, extra, not mismatches


def run_workload(args):
    workload = WORKLOADS[args.workload]
    args.workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        run = trace_run if args.trace else e2e_run
        records, metrics, units, notes, extra, repeat_ok = run(args, workload)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    correct = repeat_ok and not any(rec["problems"] for rec in records)
    failed = sum(1 for rec in records if is_failed(rec))

    results = {
        "workload": args.workload,
        "command": workload.command,
        "precision": workload.precision,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "case_runs": len(records),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "notes": notes,
        **extra,
    }
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    path = os.path.join(OUT_DIR, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)

    env = results["environment"]
    print(f"# {args.workload}: {len(records)} case runs, seed {args.seed}, "
          f"{env['cpu_model']} x{env['nproc']}, python {env['python']}, "
          f"commit {env['git_commit']}")
    for name, note in notes.items():
        print(f"# {name}: {note}")
    print(f"# full record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": results["metrics"],
    }))


def setup_probe(args):
    workload = WORKLOADS[args.workload]
    cases = case_gen.suite(case_count(workload, args.seconds), args.seed, workload.max_degree)
    try:
        prepare(workload, cases, args.probe_dir)
    finally:
        shutil.rmtree(args.probe_dir, ignore_errors=True)


def run_all(args):
    """Every workload in its own interpreter, then one table."""
    rows = []
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=200)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for line in proc.stdout.splitlines()[:-1]:
            print(line)
        rows.append((name, result))
    for name, result in rows:
        print(f"\n{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:44s} {entry['value']:14.6g} {entry['unit']}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all, each in its own interpreter)")
    parser.add_argument("--seed", type=int, default=case_gen.SUITE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.setup_probe:
        setup_probe(args)
    else:
        run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
