"""Command-line surface: configs, reports, exit codes."""

import collections
import csv
import json
import random
import re
import subprocess
import sys
import warnings

import mpmath
import mpmath.ctx_mp_python
import numpy as np
import pytest

from qzeros import flow, isospectral
from qzeros.cli import COMMANDS, DEFAULT_THRESHOLDS, FLOW_SAMPLES, build_parser, main
from qzeros.isospectral import Case
from qzeros.params import ParamSet
from qzeros.precision import F64, Dyadic, context_of, extended

from conftest import RS_COMBOS, SUITE_SEED, counting

BASE = {
    "r": 1,
    "s": 1,
    "N": 5,
    "q": 0.45,
    "alpha": [[0.7, 0.2]],
    "beta": [[1.3, -0.4]],
}

CONTRACTIVE = {"r": 0, "s": 1, "N": 5, "q": 0.45, "alpha": [], "beta": [[1.3, 0.0]]}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = dict(BASE)
    cfg.update(overrides)
    for key in [k for k, v in overrides.items() if v is None]:
        del cfg[key]
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def write_params(tmp_path, params):
    """The config of a ParamSet, with every scalar as a [re, im] pair."""
    return write_config(
        tmp_path,
        r=params.r,
        s=params.s,
        N=params.N,
        q=[params.q.real, params.q.imag],
        alpha=[[a.real, a.imag] for a in params.alpha],
        beta=[[b.real, b.imag] for b in params.beta],
    )


def real_configs(count, max_degree):
    """Configs drawn like conftest.make_case, but with real q, alpha and beta:
    case i takes (r, s) = RS_COMBOS[i % 6] and N = i % max_degree + 1, q is
    +-uniform(0.2, 0.9) and every alpha and beta uniform(0.3, 2.0)."""
    rng = random.Random(SUITE_SEED)
    out = []
    for i in range(count):
        r, s = RS_COMBOS[i % len(RS_COMBOS)]
        out.append(
            {
                "r": r,
                "s": s,
                "N": i % max_degree + 1,
                "q": rng.choice((-1, 1)) * rng.uniform(0.2, 0.9),
                "alpha": [rng.uniform(0.3, 2.0) for _ in range(r)],
                "beta": [rng.uniform(0.3, 2.0) for _ in range(s)],
            }
        )
    return out


def run(cmd, cfg, *extra):
    return main([cmd, "--config", cfg, *extra])


def load_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_poly_command_hand_case(tmp_path):
    cfg = write_config(tmp_path, r=0, s=0, N=1, q=0.5, alpha=[], beta=[])
    out = tmp_path / "rep.json"
    assert run("poly", cfg, "--out", str(out)) == 0
    rep = load_report(out)
    assert rep["command"] == "poly" and rep["pass"] is True
    assert rep["result"]["p_coeffs"] == [[-0.5, 0.0], [1.0, 0.0]]
    assert set(rep) == {"command", "config", "checks", "pass", "result", "wall_time_s"}
    for check in rep["checks"]:
        assert set(check) == {"name", "value", "threshold", "pass"}


def test_zeros_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "rep.json"
    assert run("zeros", cfg, "--out", str(out)) == 0
    rep = load_report(out)
    assert len(rep["result"]["zeros"]) == 5
    assert rep["result"]["min_separation"] > 1e-8
    names = {c["name"] for c in rep["checks"]}
    assert {"companion_gap", "reconstruction_gap"} <= names


def test_verify_passes_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run("verify", cfg, "--seed", "7", "--out", str(out1)) == 0
    assert run("verify", cfg, "--seed", "7", "--out", str(out2)) == 0
    rep1, rep2 = load_report(out1), load_report(out2)
    rep1.pop("wall_time_s")
    rep2.pop("wall_time_s")
    assert rep1 == rep2


@pytest.mark.parametrize("precision", ["f64", "extended"])
def test_verify_report_does_not_depend_on_the_seed(tmp_path, precision):
    # the q-difference checks read a fixed spiral of points: verify draws
    # nothing, so every seed writes the same report
    cfg = write_config(tmp_path)
    outs = [tmp_path / f"seed{seed}.json" for seed in (0, 7)]
    for seed, out in zip((0, 7), outs):
        assert run("verify", cfg, "--seed", str(seed), "--precision", precision, "--out", str(out)) == 0
    first, second = (_without_wall_time(out.read_text(encoding="utf-8")) for out in outs)
    assert first == second


def test_verify_tol_override_fails(tmp_path):
    cfg = write_config(tmp_path)
    assert run("verify", cfg, "--tol", "1e-15", "--out", str(tmp_path / "r.json")) == 1


def test_parser_is_built_once_and_keeps_no_parsed_state(tmp_path):
    assert build_parser() is build_parser()
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run("verify", cfg, "--tol", "1e-30", "--out", str(out1)) == 1
    assert run("verify", cfg, "--out", str(out2)) == 0
    assert {c["threshold"] for c in load_report(out1)["checks"]} == {1e-30}
    for check in load_report(out2)["checks"]:
        assert check["threshold"] == DEFAULT_THRESHOLDS[check["name"]]


def test_config_errors_exit_2(tmp_path):
    bad_field = write_config(tmp_path, "f1.json", gamma=3)
    assert run("poly", bad_field) == 2

    # beta_1 = 2 sits on a q-grid pole of the coefficient formula at q = 0.5
    pole = write_config(tmp_path, "f2.json", q=0.5, beta=[[2.0, 0.0]])
    assert run("poly", pole) == 2

    degree = write_config(tmp_path, "f3.json", N=0)
    assert run("poly", degree) == 2

    mismatch = write_config(tmp_path, "f4.json", alpha=[])
    assert run("poly", mismatch) == 2

    assert run("poly", str(tmp_path / "missing.json")) == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run("poly", str(broken)) == 2

    # json.load reads NaN, Infinity and literals beyond binary64 such as
    # 1e400 (as inf), none of which RFC 8259 allows; q and the alphas are
    # read by every command, t_end and perturb by flow
    for i, text in enumerate(("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400)):
        for command, field, value in (
            ("verify", "q", "@"),
            ("verify", "q", ["@", 0.0]),
            ("zeros", "alpha", [[0.7, "@"]]),
            ("flow", "t_end", "@"),
            ("flow", "perturb", "@"),
        ):
            path = tmp_path / f"nonfinite{i}.json"
            path.write_text(json.dumps({**BASE, field: value}).replace('"@"', text))
            assert run(command, str(path)) == 2, (text, field, value)


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    # numpy's generators take no negative seed; poly and zeros draw nothing,
    # but take the same option
    cfg = write_config(tmp_path)
    for command in COMMANDS:
        with pytest.raises(SystemExit) as exc:
            run(command, cfg, "--seed", "-1")
        assert exc.value.code == 2, command
        assert "--seed: must be a nonnegative integer" in capsys.readouterr().err


def test_bad_out_path_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    assert run("poly", cfg, "--out", str(tmp_path / "no_dir" / "r.json")) == 2


def test_bad_traj_path_exits_2(tmp_path, capsys):
    # a trajectory CSV that cannot be written is a usage error, as a report
    # is, not a failed check: one error line and no report
    cfg = write_config(tmp_path, t_end=0)
    out = tmp_path / "r.json"
    assert run("flow", cfg, "--traj", str(tmp_path / "no_dir" / "t.csv"), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write trajectory: ") and err.count("\n") == 1
    assert not out.exists()


def test_unwritable_paths_exit_2_before_any_work(tmp_path, capsys, monkeypatch):
    # the directories of --out and --traj are checked before the command
    # runs: no zero is found and no trajectory integrated for a report or a
    # CSV that cannot be written, and the message is the one the write gives
    found = counting(monkeypatch, isospectral, "find_zeros")
    integrated = counting(monkeypatch, flow, "integrate_flow")
    cfg = write_config(tmp_path)
    missing = tmp_path / "no_dir"
    assert run("zeros", cfg, "--out", str(missing / "r.json")) == 2
    assert capsys.readouterr().err == f"error: cannot write report: [Errno 2] No such file or directory: '{missing / 'r.json'}'\n"
    assert run("flow", cfg, "--traj", str(missing / "t.csv")) == 2
    assert capsys.readouterr().err.startswith("error: cannot write trajectory: [Errno 2] No such file or directory")
    assert found == integrated == []


def test_binary64_out_of_range_degree_is_one_error_line(tmp_path, capsys):
    # at q = 0.45, q^-1000 overflows binary64 (a pole no finite alpha or beta
    # reaches; coeffs_P cannot form it); at q = 2 the coefficients turn NaN
    # by N = 1000, and q^1100 overflows
    for q, N in ((0.45, 1000), (2.0, 1000), (2.0, 1100)):
        cfg = write_config(tmp_path, q=q, N=N)
        for command in COMMANDS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(command, cfg) == 1, (q, N, command)
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (q, N, command, err)


def test_flow_zero_horizon_csv(tmp_path):
    cfg = write_config(tmp_path, t_end=0)
    traj = tmp_path / "traj.csv"
    assert run("flow", cfg, "--traj", str(traj), "--out", str(tmp_path / "r.json")) == 0
    with open(traj, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2  # header + the single t = 0 sample
    assert rows[0][0] == "t"
    assert float(rows[1][0]) == 0.0


def test_flow_samples_the_command_grid(tmp_path):
    # ceil(0.13 / fl(0.13 / 100)) is 101, so the grid is taken from its
    # interval count, never recounted from a spacing
    cfg = write_config(tmp_path, N=6, t_end=0.13)
    traj = tmp_path / "traj.csv"
    assert run("flow", cfg, "--traj", str(traj), "--out", str(tmp_path / "r.json")) == 0
    assert load_report(tmp_path / "r.json")["result"]["samples"] == FLOW_SAMPLES + 1
    assert len(traj.read_text().splitlines()) == FLOW_SAMPLES + 2


@pytest.mark.parametrize("t_end", [1e-322, 5e-324, -1e-322])
def test_flow_horizon_below_its_sample_spacing_is_a_config_error(tmp_path, capsys, t_end):
    # np.linspace rounds some of the 101 sample times together, which
    # solve_ivp rejects
    cfg = write_config(tmp_path, N=6, t_end=t_end)
    assert run("flow", cfg) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: t_end") and err.count("\n") == 1, err


def test_flow_contractive_run(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(CONTRACTIVE))
    out = tmp_path / "rep.json"
    assert run("flow", str(path), "--out", str(out)) == 0
    rep = load_report(out)
    names = {c["name"] for c in rep["checks"]}
    assert {"equilibrium_residual", "jacobian_defect", "endpoint_drift"} <= names
    assert rep["result"]["samples"] >= 2


def test_flow_perturbed_run(tmp_path):
    path = tmp_path / "c.json"
    cfg = dict(CONTRACTIVE)
    cfg["perturb"] = 0.01
    cfg["t_end"] = 0.5
    path.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    assert run("flow", str(path), "--out", str(out)) == 0
    rep = load_report(out)
    assert "endpoint_drift" not in {c["name"] for c in rep["checks"]}


def test_flow_reports_an_overflow_of_suite_case_19_as_its_only_failing_check(tmp_path, suite):
    # the zeros of suite case 19 span many decades; each pair stays apart at
    # its own scale until the velocity overflows, at t = 1.03e-3: the
    # equilibrium and Jacobian checks still pass
    out = tmp_path / "rep.json"
    assert run("flow", write_params(tmp_path, suite[19]), "--out", str(out)) == 1
    rep = load_report(out)
    assert [c["name"] for c in rep["checks"] if not c["pass"]] == ["no_overflow"]
    assert "velocity is not finite at t = 0.001" in rep["result"]["error"]


def test_flow_reports_a_collision_as_its_only_failing_check(tmp_path, monkeypatch):
    # the integrator's right-hand side (flow_rhs of its state array) is taken
    # with every zero moved onto the first, where flow_rhs's separation check
    # raises; the equilibrium check reads flow_rhs of the zeros themselves
    original = flow.flow_rhs

    def colliding(zs, case):
        return original(np.full_like(zs, zs[0]) if isinstance(zs, np.ndarray) else zs, case)

    monkeypatch.setattr(flow, "flow_rhs", colliding)
    out = tmp_path / "rep.json"
    assert run("flow", write_config(tmp_path), "--out", str(out)) == 1
    rep = load_report(out)
    failing = [c for c in rep["checks"] if not c["pass"]]
    assert failing == [{"name": "no_collision", "value": 1.0, "threshold": 0.5, "pass": False}]
    assert "separation below 1e-10" in rep["result"]["error"]


def test_flow_reports_an_overflow_as_its_only_failing_check(tmp_path, monkeypatch):
    # the integrator's velocities (flow_rhs of its state array) are inf; the
    # equilibrium check reads flow_rhs of the zeros themselves
    original = flow.flow_rhs

    def overflowing(zs, params):
        velocity = original(zs, params)
        return [complex("inf")] * len(zs) if isinstance(zs, np.ndarray) else velocity

    monkeypatch.setattr(flow, "flow_rhs", overflowing)
    out = tmp_path / "rep.json"
    assert run("flow", write_config(tmp_path), "--out", str(out)) == 1
    rep = load_report(out)
    failing = [c for c in rep["checks"] if not c["pass"]]
    assert failing == [{"name": "no_overflow", "value": 1.0, "threshold": 0.5, "pass": False}]
    assert "not finite at t = 0" in rep["result"]["error"]


def test_sweep_vacuous_cases(tmp_path):
    s0 = write_config(tmp_path, "s0.json", r=0, s=0, N=4, alpha=[], beta=[])
    out = tmp_path / "r1.json"
    assert run("sweep", s0, "--out", str(out)) == 0
    assert load_report(out)["result"]["note"] == "no β parameters"

    # the 1 x 1 matrix is mu_1 whatever the β, so there is no drift to measure
    n1 = write_config(tmp_path, "n1.json", N=1)
    out1 = tmp_path / "r1n.json"
    assert run("sweep", n1, "--out", str(out1)) == 0
    assert load_report(out1)["checks"] == []

    k0 = write_config(tmp_path, "k0.json", sweep_k=0)
    out2 = tmp_path / "r2.json"
    assert run("sweep", k0, "--out", str(out2)) == 0
    assert load_report(out2)["result"]["perturbations"] == 0


def test_sweep_runs_perturbations(tmp_path):
    cfg = write_config(tmp_path, sweep_k=3)
    out = tmp_path / "rep.json"
    assert run("sweep", cfg, "--seed", "3", "--out", str(out)) == 0
    rep = load_report(out)
    assert rep["result"]["perturbations"] == 3
    byname = {c["name"]: c for c in rep["checks"]}
    assert byname["spectrum_drift_max"]["pass"]
    assert byname["matrix_drift_min"]["value"] > 1e-3


def _sweep_checks(path, precision="f64"):
    out = str(path) + ".report.json"
    code = main(["sweep", "--config", str(path), "--out", out, "--precision", precision])
    return code, {c["name"]: c for c in load_report(out)["checks"]}


def test_sweep_judges_the_backward_error_with_no_eigensolve(tmp_path, suite, monkeypatch):
    # draws 4 and 22 of the N = 11 to 16 stream, whose binary64 eigenvalue
    # certificates fail, so that a forward spectrum needs M rebuilt at more
    # digits (the digits _escalated derives) and mpmath.eig, and on draw 22
    # still misses mu by 6.4e-4: the backward error solves no eigenproblem
    # in either precision, and rebuilds no case
    from test_suite_verdicts import high_degree_cases

    rebuilt = counting(monkeypatch, isospectral, "_escalated")
    fallback = counting(monkeypatch, isospectral, "_eig_extended")
    solved = counting(monkeypatch, isospectral, "_extended_eigenvalues")
    draws = high_degree_cases(23)
    for index in (4, 22):
        path = write_params(tmp_path, draws[index])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, checks = _sweep_checks(path)
        assert code == 0 and checks["spectrum_drift_max"]["value"] <= 1e-12, index
    assert rebuilt == fallback == []
    code, checks = _sweep_checks(write_params(tmp_path, suite[3]), "extended")
    assert code == 0 and solved == []


@pytest.mark.parametrize("precision", ["f64", "extended"])
def test_sweep_catches_a_moved_mu_n(tmp_path, suite, monkeypatch, precision):
    # mu_N moved by 1e-6 of itself is an eigenvalue of no M(beta') within
    # EIG_TARGET |mu_N|
    closed = isospectral.mu_closed

    def moved(params):
        mu = closed(params)
        return mu[:-1] + [mu[-1] * (1 + context_of(params.q).convert(1e-6))]

    monkeypatch.setattr(isospectral, "mu_closed", moved)
    code, checks = _sweep_checks(write_params(tmp_path, suite[3]), precision)
    drift = checks["spectrum_drift_max"]
    assert code == 1 and not drift["pass"] and drift["value"] > 1e-7
    assert checks["matrix_drift_min"]["pass"]


def test_extended_precision_mode(tmp_path):
    # N = 1 takes the 1 x 1 eigenvalue path; neither run may leave mpmath's
    # global precision changed
    for N in (3, 1):
        cfg = write_config(tmp_path, N=N)
        with mpmath.workdps(15):
            assert run("verify", cfg, "--precision", "extended", "--out", str(tmp_path / "r.json")) == 0
            assert mpmath.mp.dps == 15


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


def _without_wall_time(text):
    return re.sub(r'"wall_time_s": [^,}]+', '"wall_time_s": 0', text)


@pytest.mark.parametrize("precision", ["f64", "extended"])
def test_every_report_at_one_zero_is_strict_json(tmp_path, capsys, precision):
    # one zero has no pair: min_separation must not be written as Infinity.
    # A report is one line through json's C encoder, a JSON Lines record,
    # and the one written through --out is the one written to stdout
    cfg = write_config(tmp_path, N=1)
    for cmd in COMMANDS:
        out = tmp_path / f"{cmd}.json"
        assert run(cmd, cfg, "--precision", precision, "--out", str(out)) == 0
        written = out.read_text(encoding="utf-8")
        capsys.readouterr()
        assert run(cmd, cfg, "--precision", precision) == 0
        printed = capsys.readouterr().out
        for text in (written, printed):
            assert text.endswith("\n") and text.count("\n") == 1, (cmd, text)
            json.loads(text, parse_constant=_not_json)
        assert _without_wall_time(written) == _without_wall_time(printed), cmd


def test_extended_verify_reads_extended_params(tmp_path, suite):
    # binary64 q, alpha and beta would hold the residuals at ~1e-16
    params = suite[3]
    assert params.N <= 5 and params.r + params.s > 0
    cfg = write_params(tmp_path, params)
    out = tmp_path / "rep.json"
    assert run("verify", cfg, "--precision", "extended", "--out", str(out)) == 0
    byname = {c["name"]: c["value"] for c in load_report(out)["checks"]}
    assert byname["prop1_residual_max"] < 1e-40
    # scales are taken in binary64 (ctx.size), the values at 50 digits: a
    # binary64 rounding of a value would hold these at ~1e-16
    assert byname["qde_residual_max"] < 1e-40
    assert byname["qde_expanded_agreement_max"] < 1e-40
    assert byname["prop1_dual_gap"] < 1e-40
    # the dual numbers take no step: the Jacobian is at the extended level
    assert byname["jacobian_defect"] < 1e-45


def test_extended_zeros_checks_at_the_extended_level(tmp_path, suite):
    # rounding the zeros to binary64 would hold both gaps at ~1e-16
    cfg = write_params(tmp_path, suite[3])
    out = tmp_path / "rep.json"
    assert run("zeros", cfg, "--precision", "extended", "--out", str(out)) == 0
    byname = {c["name"]: c["value"] for c in load_report(out)["checks"]}
    assert byname["companion_gap"] < 1e-40
    assert byname["reconstruction_gap"] < 1e-40


@pytest.mark.parametrize("precision, count, max_degree", [("f64", 40, 10), ("extended", 10, 5)])
def test_zeros_fails_only_where_verify_fails_on_real_parameters(tmp_path, precision, count, max_degree):
    # the zeros of a real polynomial come in conjugate pairs of equal moduli,
    # so two lists sorted by modulus can hold z where the other holds its
    # conjugate: the companion check must pair them as multisets
    out = str(tmp_path / "rep.json")
    for i, cfg in enumerate(real_configs(count, max_degree)):
        path = tmp_path / f"real{i}.json"
        path.write_text(json.dumps(cfg))
        codes = [run(cmd, str(path), "--precision", precision, "--out", out) for cmd in ("zeros", "verify")]
        assert codes[0] == codes[1], (cfg, codes)


def test_commands_leave_scipy_unimported(tmp_path, suite):
    # poly, zeros, verify and sweep run on numpy.linalg alone, so a fresh
    # process never pays for scipy's import (about 0.2 s and 20 MB); only
    # flow loads it, for solve_ivp, and zeros' companion oracle in its
    # eigenvalue fallback, to balance the rows it solves. No suite case
    # reaches that fallback, so zeros runs here on all 50 in both precisions
    configs = []
    for index, params in enumerate(suite):
        (tmp_path / str(index)).mkdir()
        configs.append(write_params(tmp_path / str(index), params))
    out = str(tmp_path / "r.json")
    script = (
        "import json, sys\n"
        "from qzeros.cli import main\n"
        f"runs = [(c, {configs[3]!r}) for c in ('poly', 'verify', 'sweep')] + [('zeros', cfg) for cfg in {configs!r}]\n"
        f"codes = [main([c, '--config', cfg, '--precision', p, '--out', {out!r}])"
        " for c, cfg in runs for p in ('f64', 'extended')]\n"
        "print(json.dumps([codes, 'scipy' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * 106, False]


def test_only_sweep_and_flow_load_numpy_random(tmp_path, suite):
    # poly, zeros and verify draw nothing from the seed, so a fresh process
    # never imports numpy.random (about 5 MB resident); sweep builds the
    # generator for its beta factors, which shows the probe can see it
    cfg = write_params(tmp_path, suite[3])
    out = str(tmp_path / "r.json")
    script = (
        "import json, sys\n"
        "from qzeros.cli import main\n"
        f"codes = [main([c, '--config', {cfg!r}, '--precision', p, '--out', {out!r}])"
        " for c in ('poly', 'zeros', 'verify') for p in ('f64', 'extended')]\n"
        "before = 'numpy.random' in sys.modules\n"
        f"codes.append(main(['sweep', '--config', {cfg!r}, '--out', {out!r}]))\n"
        "print(json.dumps([codes, before, 'numpy.random' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * 7, False, True]


STAGES = (
    ("qzeros.qseries", "coeffs_P"),
    ("qzeros.rootfind", "find_zeros"),
    ("qzeros.zero_algebra", "KernelCache"),
    ("qzeros.zero_algebra", "leave_one_out"),
    ("qzeros.isospectral", "build_M"),
    ("qzeros.isospectral", "mu_closed"),
    ("qzeros.qdiff", "qde_terms"),
    ("qzeros.zero_algebra", "velocity_terms"),
    ("qzeros.zero_algebra", "velocity_weights"),
    ("qzeros.zero_algebra", "identity_grid"),
)


def _stage_key(name, args):
    """(stage, input, precision) of one call. The kernel tables are keyed by
    their configuration and flow weights (KernelCache) or by the factors of
    one shift's left-out products (leave_one_out, of the kernel tables or of
    the Jacobian's dual pass), carried values keyed rounded, every other
    stage by its parameter set: its ParamSet argument, or its Case
    argument's params, wherever it sits in the call."""
    if name == "KernelCache":
        zeros, weights = args
        ctx = context_of(zeros[0])
        return name, (tuple(zeros), tuple((k, *map(ctx.convert, w)) for k, w in weights.items())), ctx
    if name == "leave_one_out":
        [factors] = args
        ctx = context_of(factors.flat[0])
        return name, tuple(ctx.rounded(factors).ravel().tolist()), ctx
    [params] = [getattr(a, "params", a) for a in args if isinstance(a, (Case, ParamSet))]
    return name, params, context_of(params.q)


def _count_stages(monkeypatch):
    """Every qzeros binding of each stage in STAGES wrapped to count its
    calls by _stage_key."""
    calls = collections.Counter()
    for home, name in STAGES:
        original = getattr(sys.modules[home], name)

        def counted(*args, _original=original, _name=name):
            calls[_stage_key(_name, args)] += 1
            return _original(*args)

        for key, module in list(sys.modules.items()):
            if key == "qzeros" or key.startswith("qzeros."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("precision", ["f64", "extended"])
def test_each_stage_runs_once_per_parameter_set_and_precision(tmp_path, suite, monkeypatch, precision):
    # verify builds M once in either precision, suite case 19 included,
    # whose binary64 eigenvalue certificate fails; case 3
    # sweeps eight beta perturbations; each command reads every stage
    # through one case: the
    # two zero-identity routes one shift grid, the q-difference checks, the
    # flow weights and the grid one qde_terms table, and build_M one set of
    # kernel tables, which the Jacobian check does not read: one KernelCache
    # per configuration and precision, one leave_one_out pass per shift of
    # it, and one per shift of the Jacobian's dual pass
    calls = _count_stages(monkeypatch)
    home = extended() if precision == "extended" else F64
    out = str(tmp_path / "report.json")
    for index in (3, 7, 19):
        path = write_params(tmp_path, suite[index])
        for command in ("poly", "zeros", "verify", "sweep"):
            calls.clear()
            assert main([command, "--config", path, "--out", out, "--precision", precision]) == 0
            assert set(calls.values()) <= {1}, (index, command, calls)
            if command == "sweep" and index == 3:
                assert sum(stage == "build_M" for stage, _, _ in calls) >= 9
            if command == "verify":
                assert {stage for stage, _, _ in calls} == {name for _, name in STAGES}
                assert {ctx for stage, _, ctx in calls if stage == "build_M"} == {home}, index
                assert sum(stage == "KernelCache" for stage, _, _ in calls) == 1, index


# full 50-digit mpc x mpc products (mpmath's mpc_mul, about 8.5 us each on
# its pure-Python backend) of one extended verify of three N = 5 suite
# cases, one per (r, s) class and q style: a count, not a clock, so the
# budget is exact. The division-free checks take none (their products are
# exact integer products of precision.Dyadic values), nor do the kernel
# tables, M, the Jacobian check and det_gap's elimination (products of
# Dyadic values at a width; the elimination took 30 in mpc), nor the
# zeros' Newton finish, whose Horner passes are on Python integers (Aberth
# sweeps in mpc would take 262, 167 and 192 in all)
MPC_MUL_BUDGET = {4: 95, 14: 42, 24: 23}


@pytest.mark.parametrize("index", sorted(MPC_MUL_BUDGET))
def test_extended_verify_stays_within_its_product_budget(tmp_path, suite, monkeypatch, index):
    products = [0]
    original = mpmath.ctx_mp_python.mpc_mul

    def counted(*args):
        products[0] += 1
        return original(*args)

    path = write_params(tmp_path, suite[index])
    monkeypatch.setattr(mpmath.ctx_mp_python, "mpc_mul", counted)
    assert main(["verify", "--config", path, "--out", str(tmp_path / "r.json"), "--precision", "extended"]) == 0
    assert products[0] <= MPC_MUL_BUDGET[index]


# Dyadic x Dyadic and Dyadic x int products of the same verifies, exact and
# at a width, also a count: the q-difference checks compare the equation
# coefficient by coefficient in about (r + s + 2 + 2 S)(N + 1) of them, S
# the number of shifts; Horner passes at 20 points would take about
# 20 (1 + S) N (2617, 1991 and 1553 in all). Every Delta_gamma of the
# operator cascade reads one table of q's powers (1969, 1473 and 1165 if
# each formed its own). The Jacobian check is one dual pass of the moved
# velocity, its off-diagonal from the same left-out products as its
# diagonal, one N x (N - 1) product a shift (1598, 1154 and 892 when it
# read the kernel cache's weighted sums, and 1953, 1469 and 1167 by a
# 4-point circle rule a column). The kernel tables, the Jacobian and M
# keep N x (N - 1) tables over the other zeros (1563, 1119 and 857 when
# the kernel tables were N x N, a 1 multiplied through each row);
# det_gap's elimination takes 40 and its running product 2N
DYADIC_MUL_BUDGET = {4: 1478, 14: 1059, 24: 822}


@pytest.mark.parametrize("index", sorted(DYADIC_MUL_BUDGET))
def test_extended_verify_stays_within_its_exact_product_budget(tmp_path, suite, monkeypatch, index):
    products = [0]
    original = Dyadic.__mul__

    def counted(self, other):
        products[0] += 1
        return original(self, other)

    path = write_params(tmp_path, suite[index])
    monkeypatch.setattr(Dyadic, "__mul__", counted)
    monkeypatch.setattr(Dyadic, "__rmul__", counted)
    assert main(["verify", "--config", path, "--out", str(tmp_path / "r.json"), "--precision", "extended"]) == 0
    assert products[0] <= DYADIC_MUL_BUDGET[index]


# mpc reciprocals (1 / x for an mpc x, mpmath's mpc __rtruediv__) of the
# same verifies, also a count: none. The kernel tables' and the Jacobian's
# are carried Dyadic ones (20 in mpc, N (N - 1)/2 each), as are det_gap's
# (DYADIC_RECIPROCAL_BUDGET)
MPC_RECIPROCAL_BUDGET = {4: 0, 14: 0, 24: 0}

# carried Dyadic reciprocals of the same verifies, a count: the kernel
# tables and the Jacobian's dual pass each divide every unordered pair of
# zeros once (reciprocal_table, N (N - 1)/2 = 10 at N = 5; 40 in all when
# the flow divided every ordered pair), and det_gap the other 2N, one a
# pivot of its elimination and one a closed value mu_n
DYADIC_RECIPROCAL_BUDGET = {4: 30, 14: 30, 24: 30}


@pytest.mark.parametrize("index", sorted(DYADIC_RECIPROCAL_BUDGET))
def test_extended_verify_stays_within_its_carried_reciprocal_budget(tmp_path, suite, monkeypatch, index):
    reciprocals = [0]
    original = Dyadic.__rtruediv__

    def counted(self, other):
        reciprocals[0] += 1
        return original(self, other)

    path = write_params(tmp_path, suite[index])
    monkeypatch.setattr(Dyadic, "__rtruediv__", counted)
    assert main(["verify", "--config", path, "--out", str(tmp_path / "r.json"), "--precision", "extended"]) == 0
    assert suite[index].N == 5 and reciprocals[0] <= DYADIC_RECIPROCAL_BUDGET[index]


@pytest.mark.parametrize("index", sorted(MPC_RECIPROCAL_BUDGET))
def test_extended_verify_stays_within_its_reciprocal_budget(tmp_path, suite, monkeypatch, index):
    reciprocals = [0]
    original = mpmath.ctx_mp_python._mpc.__rtruediv__

    def counted(self, other):
        reciprocals[0] += 1
        return original(self, other)

    path = write_params(tmp_path, suite[index])
    monkeypatch.setattr(mpmath.ctx_mp_python._mpc, "__rtruediv__", counted)
    assert main(["verify", "--config", path, "--out", str(tmp_path / "r.json"), "--precision", "extended"]) == 0
    assert suite[index].N == 5 and reciprocals[0] <= MPC_RECIPROCAL_BUDGET[index]


@pytest.mark.parametrize("index", [4, 14, 24])
def test_extended_verify_takes_no_logarithm_or_exponential(tmp_path, suite, monkeypatch, index):
    # det_gap is one running product of the pivots and 1 / mu_n in carried
    # arithmetic: no mpmath log or exp of the context verify computes in
    calls = []

    def spy(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return call

    mp = extended().mp
    for name in ("ln", "exp"):  # mp.log takes mp.ln
        monkeypatch.setattr(mp, name, spy(name, getattr(mp, name)))
    path = write_params(tmp_path, suite[index])
    assert main(["verify", "--config", path, "--out", str(tmp_path / "r.json"), "--precision", "extended"]) == 0
    assert calls == []


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, r=0, s=0, N=2, q=2.0, alpha=[], beta=[])
    proc = subprocess.run(
        [sys.executable, "-m", "qzeros.cli", "poly", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    # frozen quadratic example: monic z^2 - 6z + 8
    assert rep["result"]["p_coeffs"] == [[8.0, 0.0], [-6.0, 0.0], [1.0, 0.0]]
