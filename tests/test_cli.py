import contextlib
import io
import json
import math

import numpy as np
import pytest

from contactsde import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name="cfg.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def test_list_systems(capsys):
    code, out, _ = run_cli(capsys, "list-systems")
    assert code == 0
    payload = json.loads(out)
    ids = [e["id"] for e in payload["systems"]]
    assert ids == ["dissipative-2d", "sasaki-einstein-t11"]
    assert payload["systems"][0]["dim"] == 5


def test_simulate_deterministic_bytes(tmp_path, capsys):
    cfg = write_config(tmp_path, system="dissipative-2d", T=0.05, dt=0.001, seed=42)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, _, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out1))
    code2, _, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "t,q1,q2,p1,p2,z,lambda"
    assert len(lines) == 52
    first = lines[1].split(",")
    assert [float(v) for v in first[:6]] == [0.0, 1.0, 0.0, 2.0, 0.0, 0.0]
    assert float(first[6]) == 1.0


def test_simulate_dt_mismatch_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, system="dissipative-2d", T=0.1, dt=0.0003)
    code, _, err = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert "dt" in err


def test_simulate_deterministic_lambda_column(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        system={"chart": "darboux", "n": 1, "h0": "z", "noise": [], "constants": {}},
        T=1.0, dt=1e-3, initial_state=[0.5, 0.5, 1.0],
    )
    code, out, _ = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 0
    rows = out.strip().splitlines()
    lam_final = float(rows[-1].split(",")[-1])
    assert abs(lam_final - math.exp(-1.0)) <= 1e-8


def test_simulate_inline_requires_initial_state(tmp_path, capsys):
    cfg = write_config(
        tmp_path, system={"chart": "darboux", "n": 1, "h0": "z"}, T=0.1, dt=0.01
    )
    code, _, err = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert "initial_state" in err


def test_verify_contact_dissipative(tmp_path, capsys):
    cfg = write_config(tmp_path, system="dissipative-2d", T=1.0, dt=1e-3, seed=2024)
    code, out, _ = run_cli(capsys, "verify-contact", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["dt_levels"] == [4e-3, 2e-3, 1e-3]
    assert all(o >= 0.9 for o in report["fitted_orders"])
    assert report["lambda_max_deviation"] <= 1e-12
    assert report["strict_contactomorphism"] is False
    assert report["max_defect_finest"] <= 1e-2


def test_verify_contact_nonzero_t0_and_param_override(tmp_path, capsys):
    # closed form is exp(-gamma (t - t0)) with the override gamma applied
    cfg = write_config(
        tmp_path, system="dissipative-2d", t0=0.5, T=0.9, dt=1e-3, seed=3,
        params={"gamma": 0.25},
    )
    code, out, _ = run_cli(capsys, "verify-contact", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["config"]["conformal_factor"] == "exp(-0.25*(t - 0.5))"
    assert report["lambda_max_deviation"] <= 1e-12
    assert report["lambda_final"] == pytest.approx(math.exp(-0.25 * 0.4), abs=1e-12)


def test_simulate_nonzero_t0_time_column(tmp_path, capsys):
    cfg = write_config(tmp_path, system="dissipative-2d", t0=2.0, T=2.05, dt=0.01, seed=1)
    code, out, _ = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 0
    rows = out.strip().splitlines()
    assert float(rows[1].split(",")[0]) == 2.0
    assert float(rows[-1].split(",")[0]) == pytest.approx(2.05, abs=1e-12)


def test_verify_contact_se_strict_flag(tmp_path, capsys):
    cfg = write_config(
        tmp_path, system="sasaki-einstein-t11", T=0.048, dt=5e-4, seed=1,
    )
    code, out, _ = run_cli(capsys, "verify-contact", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["strict_contactomorphism"] is True
    assert report["lambda_final"] == 1.0
    assert report["lambda_max_deviation"] == 0.0


def test_verify_contact_roundtrips_effective_config(tmp_path, capsys):
    cfg = write_config(tmp_path, system="dissipative-2d", T=0.2, dt=1e-3, seed=7)
    code, out, _ = run_cli(capsys, "verify-contact", "--config", cfg)
    assert code == 0
    effective = json.loads(out)["config"]
    cfg2 = tmp_path / "effective.json"
    cfg2.write_text(json.dumps(effective))
    code2, out2, _ = run_cli(capsys, "verify-contact", "--config", str(cfg2))
    assert code2 == 0
    assert out2 == out


def test_check_integrability_pass_fail(tmp_path, capsys):
    cfg = write_config(tmp_path, system="sasaki-einstein-t11", T=0.1, dt=1e-3, seed=5)
    ok_args = [
        "check-integrability", "--config", cfg,
        "--integral", "1",
        "--integral", "(1/3)*cos(theta1)",
        "--integral", "(1/3)*cos(theta2)",
    ]
    code, out, _ = run_cli(capsys, *ok_args)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["min_singular_value"] >= 0.1

    bad_args = [
        "check-integrability", "--config", cfg,
        "--integral", "1",
        "--integral", "(1/3)*cos(theta1)",
        "--integral", "phi1",
    ]
    code, out, _ = run_cli(capsys, *bad_args)
    assert code == 1
    assert json.loads(out)["max_pairwise_bracket"] == pytest.approx(1.0, abs=1e-12)

    code, _, _ = run_cli(capsys, *bad_args, "--report-only")
    assert code == 0

    code, _, err = run_cli(
        capsys, "check-integrability", "--config", cfg, "--integral", "1", "--integral", "phi1"
    )
    assert code == 2


def test_check_integrability_dependent_family_fails(tmp_path, capsys):
    # 1, p1, 2*p1 on dissipative-2d: every bracket vanishes, so the
    # independence test alone fails the family.  The fields' matrix has rank
    # 2 at every state, and its smallest singular value is exactly 0.0.
    cfg = write_config(tmp_path, system="dissipative-2d", seed=1)
    code, out, _ = run_cli(capsys, "check-integrability", "--config", cfg,
                           "--integral", "1", "--integral", "p1", "--integral", "2*p1")
    report = json.loads(out)
    assert code == 1
    assert report["passed"] is False and report["min_singular_value"] == 0.0
    assert report["max_pairwise_bracket"] == report["max_reeb_bracket"] == 0.0


def test_bracket_command(tmp_path, capsys):
    cfg = write_config(tmp_path, system="dissipative-2d", T=1.0, dt=1e-3)
    code, out, _ = run_cli(capsys, "bracket", "--config", cfg, "-f", "q1", "-g", "p1")
    assert code == 0
    assert json.loads(out)["bracket"] == 1.0
    code, out, _ = run_cli(
        capsys, "bracket", "--config", cfg, "-f", "z", "-g", "1", "--state", "0,0,0,0,2.0"
    )
    assert json.loads(out)["bracket"] == -1.0
    code, _, err = run_cli(
        capsys, "bracket", "--config", cfg, "-f", "z", "-g", "1", "--state", "0,0,oops,0,0"
    )
    assert code == 2 and "state" in err
    code, _, err = run_cli(
        capsys, "bracket", "--config", cfg, "-f", "z", "-g", "1", "--state", "0,0"
    )
    assert code == 2


def test_check_integrability_samples_validated(tmp_path, capsys):
    cfg = write_config(tmp_path, system="sasaki-einstein-t11", T=0.1, dt=1e-3)
    code, _, err = run_cli(
        capsys, "check-integrability", "--config", cfg,
        "--integral", "1", "--integral", "(1/3)*cos(theta1)",
        "--integral", "(1/3)*cos(theta2)", "--samples", "0",
    )
    assert code == 2 and "samples" in err


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_check_integrability_tolerance_validated(tmp_path, capsys, tol):
    # A NaN tolerance used to print "bracket_tol": NaN, which is not JSON,
    # and a negative one failed a check that no bracket can pass.
    cfg = write_config(tmp_path, system="sasaki-einstein-t11", T=0.1, dt=1e-3)
    code, out, err = run_cli(
        capsys, "check-integrability", "--config", cfg,
        "--integral", "1", "--integral", "(1/3)*cos(theta1)",
        "--integral", "(1/3)*cos(theta2)", "--tol", tol,
    )
    assert (code, out) == (2, "")
    assert err == ("config error: tol and independence_tol must be finite numbers >= 0, "
                   f"got {float(tol)!r} and 1e-06\n")


def test_monte_carlo_worker_count_invariance(tmp_path, capsys):
    cfg = write_config(tmp_path, system="dissipative-2d", T=0.1, dt=0.01, seed=3)
    args = ["monte-carlo", "--config", cfg, "--observable", "z", "--paths", "200"]
    code1, out1, _ = run_cli(capsys, *args, "--workers", "1")
    code2, out2, _ = run_cli(capsys, *args, "--workers", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    stats = json.loads(out1)
    assert stats["n_paths"] == 200
    assert stats["stderr"] == pytest.approx(math.sqrt(stats["variance"] / 200), abs=1e-18)


def test_monte_carlo_constant_observable(tmp_path, capsys):
    cfg = write_config(tmp_path, system="dissipative-2d", T=0.05, dt=0.01, seed=3)
    code, out, _ = run_cli(
        capsys, "monte-carlo", "--config", cfg, "--observable", "1", "--paths", "16"
    )
    assert code == 0
    assert json.loads(out)["variance"] == 0.0


def test_convergence_command_deterministic_system(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        system={"chart": "darboux", "n": 1, "h0": "p1^2/2 + q1^4/4 + 0.1*z",
                "noise": [], "constants": {}},
        T=1.024, dt=1e-3, initial_state=[1.0, 0.5, 0.0],
    )
    code, out, _ = run_cli(capsys, "convergence", "--config", cfg, "--levels", "4")
    assert code == 0
    report = json.loads(out)
    assert all(o >= 1.9 for o in report["orders"])


@pytest.mark.parametrize("command, errors", [("verify-contact", "defect_sup"),
                                             ("convergence", "errors")])
def test_reported_orders_are_the_log2_ratios_of_the_reported_errors(tmp_path, capsys, command,
                                                                    errors):
    # Each fitted order is log2 of its own pair of reported errors, bit for
    # bit, after the JSON round trip.
    cfg = write_config(tmp_path, system="dissipative-2d", T=1.0, dt=1e-3 / 1.024, seed=3)
    code, out, _ = run_cli(capsys, command, "--config", cfg, "--levels", "4")
    assert code == 0
    report = json.loads(out)
    errs = report[errors]
    orders = report["fitted_orders" if command == "verify-contact" else "orders"]
    assert len(orders) == len(errs) - 1 >= 2 and all(e > 0.0 for e in errs), report
    assert orders == [math.log2(a / b) for a, b in zip(errs[:-1], errs[1:])], orders


@pytest.mark.parametrize("command", ["verify-contact", "convergence"])
def test_levels_rule_shared_by_commands(tmp_path, capsys, command):
    cfg = write_config(tmp_path, system="dissipative-2d", T=0.1, dt=1e-3)
    # 100 steps are not divisible by 2^3
    code, _, err = run_cli(capsys, command, "--config", cfg, "--levels", "4")
    assert (code, err) == (2, "config error: finest grid of 100 steps is not divisible by 2^3\n")
    code, _, err = run_cli(capsys, command, "--config", cfg, "--levels", "2")
    assert (code, err) == (2, "config error: levels must be an integer >= 3, got 2\n")


def test_unknown_system_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, system="missing", T=0.1, dt=0.01)
    code, _, err = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert "missing" in err


def test_numerical_failure_exit_code(tmp_path, capsys):
    # midpoint fixed point cannot contract at this step size
    cfg = write_config(
        tmp_path,
        system={"chart": "darboux", "n": 1, "h0": "50*(q1^2 + p1^2)",
                "noise": [], "constants": {}},
        T=2.0, dt=1.0, scheme="midpoint", initial_state=[1.0, 1.0, 0.0],
    )
    code, _, err = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 3
    assert "numerical failure" in err
    # Heun blows up to non-finite values: the operation is named once
    cfg = write_config(
        tmp_path, name="blowup.json",
        system={"chart": "darboux", "n": 1, "h0": "q1^4*p1^4", "noise": [], "constants": {}},
        T=1.0, dt=0.5, initial_state=[30.0, 30.0, 0.0],
    )
    code, _, err = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 3
    assert err.count("numerical failure") == 1


_POW_Z = "invalid power in BinOp(op='^', left=Var(name='z'), right=Const(value={:.1f}))"
_DIVERGED = "midpoint fixed point did not reach 1e-13 within 50 sweeps"


@pytest.mark.parametrize("h0, z0, argv, message", [
    # z^3 overflows to inf in the first step: the run stops at that state.
    ("-z*z*z", 1e110, ["simulate"], "numerical failure in simulate: non-finite values"),
    ("-z*z*z", 1e110, ["convergence", "--levels", "3"],
     "numerical failure in integrate: non-finite values"),
    # pow overflows as z grows: the step leaves the run's hot text, and the
    # composed step, taken in place, raises the tape's domain error.
    ("-z^3", 30.0, ["simulate"], f"numerical failure in simulate: {_POW_Z.format(3)}"),
    # Under midpoint the first step's fixed point does not contract, and
    # the second system's z^2 in X_H overflows as z grows.
    ("-z*z*z", 1e110, ["simulate", "--scheme", "midpoint"],
     f"numerical failure in simulate: {_DIVERGED}"),
    ("-z*z*z", 1e110, ["convergence", "--levels", "3", "--scheme", "midpoint"],
     f"numerical failure in convergence: {_DIVERGED}"),
    ("-z^3", 30.0, ["simulate", "--scheme", "midpoint"],
     f"numerical failure in simulate: {_POW_Z.format(2)}"),
], ids=["screen-simulate", "screen-convergence", "cold-step-simulate", "midpoint-simulate",
        "midpoint-convergence", "midpoint-domain-simulate"])
def test_single_path_run_stops_exit_3(tmp_path, capsys, h0, z0, argv, message):
    # Inline Darboux n = 1 systems with no noise channels (d = 0): the
    # single-path run's increment rows are empty, and each way a run stops
    # ends in exit 3, empty stdout and the one stderr line, under either
    # scheme.
    cfg = write_config(tmp_path, system={"chart": "darboux", "n": 1, "h0": h0, "noise": []},
                       T=1.0, dt=0.01, initial_state=[0.1, 0.2, z0])
    code, out, err = run_cli(capsys, *argv, "--config", cfg)
    assert (code, out, err) == (3, "", message + "\n")


def _profiled_runs(tmp_path, capsys, monkeypatch):
    """The generated ``heun_run`` entries of one cProfile of ``verify-contact``
    and ``convergence`` on SE, in one process, from an empty text cache, so
    that each text takes the role of the stage that generates it here:
    {file name: calls}."""
    import cProfile
    import pstats

    from contactsde import expr

    monkeypatch.setattr(expr, "_FACTORIES", {})
    cfg = write_config(tmp_path, system="sasaki-einstein-t11", T=0.012, dt=6.25e-5, seed=1)
    profile = cProfile.Profile()
    profile.enable()
    codes = [cli.main(["verify-contact", "--config", cfg]), cli.main(["convergence", "--config", cfg])]
    profile.disable()
    capsys.readouterr()
    assert codes == [0, 0]
    stats = pstats.Stats(profile).stats
    return {path: calls for (path, _, name), (calls, *_) in stats.items() if name == "heun_run"}


def test_profile_names_each_stage_run(tmp_path, capsys, monkeypatch):
    # Each generated text is compiled under its role, its form and a digest
    # of the text, so a profile keeps the augmented stage's run (one per
    # level of verify-contact's ladder, 3) apart from the state stage's
    # (convergence's 3 levels).
    runs = _profiled_runs(tmp_path, capsys, monkeypatch)
    assert sorted(runs.values()) == [3, 3]
    roles = sorted(path.split()[1:3] for path in runs)
    assert roles == [["augmented", "heun_run"], ["state", "heun_run"]]
    assert all(path.startswith("<contactsde ") and len(path.split()[3]) == 17 for path in runs)


def test_profile_control_with_one_shared_file_name_merges_the_runs(tmp_path, capsys, monkeypatch):
    # Negative control: every text compiled under the one name "<tape>", as
    # the factory once did, and each generated function starting on line 2:
    # the profile keeps one heun_run entry, of 3 calls, for the two stages'
    # 6 runs.
    from contactsde import expr

    def shared_name(source, role):
        namespace = {}
        exec(compile(source, "<tape>", "exec"), namespace)
        return namespace["make"]

    monkeypatch.setattr(expr, "_factory", shared_name)
    assert _profiled_runs(tmp_path, capsys, monkeypatch) == {"<tape>": 3}


def test_generated_lines_read_back_from_linecache():
    import linecache

    from contactsde import catalog

    run = catalog.sasaki_einstein_system()._augmented_stage.heun_run.__code__
    assert run.co_filename.startswith("<contactsde augmented heun_run ")
    assert linecache.getline(run.co_filename, run.co_firstlineno) \
        == "    def heun_run(y, ws, dt, rows):\n"


_DIV_ZERO_Q = ("division by zero in BinOp(op='/', left=Const(value=1.0), "
               "right=BinOp(op='-', left=Var(name='q{0}'), right=Var(name='q{0}')))")


@pytest.mark.parametrize("integral, message", [
    ("log(q1)", "log of non-positive value in Func(fn='log', arg=Var(name='q1'))"),
    ("1/(q1-q1)", _DIV_ZERO_Q.format(1)),
    # Finite in array mode (1/inf = 0); a state alone raises.
    ("1/(1/(q1-q1))", _DIV_ZERO_Q.format(1)),
])
def test_check_integrability_domain_error(tmp_path, capsys, integral, message):
    cfg = write_config(tmp_path, system="dissipative-2d", T=0.1, dt=1e-3)
    code, out, err = run_cli(
        capsys, "check-integrability", "--config", cfg,
        "--integral", "1", "--integral", integral, "--integral", "p2",
    )
    assert (code, out) == (3, "")
    assert err == f"numerical failure in check-integrability: {message}\n"


@pytest.mark.parametrize("argv, message", [
    # Batches follow the single-state domain rule: each of these exited 0
    # with a finite or non-finite report before.
    (["monte-carlo", "--observable", "1/(1/(q2-q2))", "--paths", "64"],
     "numerical failure in monte-carlo: " + _DIV_ZERO_Q.format(2)),
    (["monte-carlo", "--observable", "log(q2)", "--paths", "64"],
     "numerical failure in monte-carlo: log of non-positive value in "
     "Func(fn='log', arg=Var(name='q2'))"),
    # Overflow is no domain fault, but the statistics must stay finite.
    (["monte-carlo", "--observable", "q1*1e300*1e300", "--paths", "64"],
     "numerical failure in monte_carlo: non-finite values"),
    # math.cos(inf) used to escape as a bare ValueError (exit 1).
    (["bracket", "-f", "sin(q1*1e300*1e300)", "-g", "p1"],
     "numerical failure in bracket: cos of infinite value in Func(fn='cos', "),
    # Finite jets whose bracket overflows: these printed Infinity, which is
    # not strict JSON.
    (["bracket", "-f", "q1*1e200", "-g", "p1*1e200"],
     "numerical failure in jacobi_bracket: non-finite values"),
    (["check-integrability", "--integral", "1", "--integral", "q1*1e200",
      "--integral", "p1*1e200", "--samples", "5", "--seed", "1"],
     "numerical failure in check_integrability: non-finite values"),
], ids=["mc-inner-division", "mc-log", "mc-overflow", "bracket-trig-of-inf",
        "bracket-overflow", "integrability-overflow"])
def test_domain_faults_exit_3(tmp_path, capsys, argv, message):
    cfg = write_config(tmp_path, system="dissipative-2d", T=1.0, dt=0.01)
    code, out, err = run_cli(capsys, argv[0], "--config", cfg, *argv[1:])
    assert (code, out) == (3, "")
    assert err.startswith(message) and err.count("\n") == 1


def test_se_bracket_at_infinite_theta_exits_3(tmp_path, capsys):
    # The chart guard's math.sin(inf) used to escape as a bare ValueError
    # (a traceback and exit 1).
    cfg = write_config(tmp_path, system="sasaki-einstein-t11", T=1.0, dt=0.01)
    code, out, err = run_cli(capsys, "bracket", "--config", cfg, "-f", "phi1",
                             "-g", "(1/3)*cos(theta1)", "--state", "inf,1,0,0,0")
    assert (code, out) == (3, "")
    assert err == ("numerical failure in bracket: sin of infinite value in "
                   "Func(fn='sin', arg=Var(name='theta1'))\n")


@pytest.mark.parametrize("command, operation", [
    ("simulate", "simulate"), ("verify-contact", "contact_defect"),
], ids=["simulate", "verify-contact"])
def test_conformal_factor_overflow_exit_3(tmp_path, capsys, command, operation):
    # log(lambda) reaches 1000 at T = 1, where exp overflows a double.
    cfg = write_config(
        tmp_path,
        system={"chart": "darboux", "n": 1, "h0": "-1000*z", "noise": [], "constants": {}},
        T=1.0, dt=0.01, initial_state=[0.1, 0.2, 0.3],
    )
    code, out, err = run_cli(capsys, command, "--config", cfg)
    assert (code, out) == (3, "")
    assert err == f"numerical failure in {operation}: conformal factor overflows\n"


def test_bad_scheme_and_bad_expression(tmp_path, capsys):
    cfg = write_config(tmp_path, system="dissipative-2d", T=0.1, dt=0.01, scheme="rk4")
    code, _, err = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 2
    cfg = write_config(tmp_path, system="dissipative-2d", T=0.1, dt=0.01)
    code, _, err = run_cli(
        capsys, "monte-carlo", "--config", cfg, "--observable", "z +", "--paths", "4"
    )
    assert code == 2


_INLINE = {"chart": "darboux", "n": 1, "h0": "z"}


@pytest.mark.parametrize("fields, message", [
    ({"system": "dissipative-2d", "T": "abc"}, "T must be a number, got 'abc'"),
    ({"system": "dissipative-2d", "seed": None}, "seed must be a number, got None"),
    ({"system": "dissipative-2d", "initial_state": "abc"},
     "initial_state must be a list of numbers, got 'abc'"),
    ({"system": "dissipative-2d", "params": {"m": "x"}}, "parameter 'm' must be a number, got 'x'"),
    ({"system": dict(_INLINE, n=0), "initial_state": [0.1]},
     "chart 'darboux' needs an integer n >= 1, got 0"),
    ({"system": dict(_INLINE, h0="m*z", constants={"m": "abc"}), "initial_state": [0.1, 0.2, 0.3]},
     "constants must be numbers, got {'m': 'abc'}"),
    ({"system": "dissipative-2d", "params": "abc"}, "params must be an object, got 'abc'"),
    ({"system": dict(_INLINE, h0=5), "initial_state": [0.1, 0.2, 0.3]},
     "h0 must be an expression, got 5"),
    ({"system": "dissipative-2d", "conformal_factor": 5},
     "conformal_factor must be an expression, got 5"),
    ({"system": dict(_INLINE, constants={"q1": 2.0}), "initial_state": [0.1, 0.2, 0.3]},
     "constants shadow chart coordinates or functions: ['q1']"),
    ({"system": dict(_INLINE, constants={"sin": 2.0}), "initial_state": [0.1, 0.2, 0.3]},
     "constants shadow chart coordinates or functions: ['sin']"),
    # Inline systems read no params: this echoed "params" and ignored them.
    ({"system": _INLINE, "params": {"gamma": 7.0}, "initial_state": [0.1, 0.2, 0.3]},
     "params ['gamma'] apply to catalog systems only; "
     "give an inline system's numbers in its constants"),
    ({"system": "dissipative-2d", "T": math.nan}, "T must exceed t0"),
    ({"system": "dissipative-2d", "t0": math.nan}, "T must exceed t0"),
    ({"system": "dissipative-2d", "T": math.inf},
     "need a finite T - t0 and a finite dt > 0, got inf and 0.01"),
    # Integers: these ran as seed 1, 1 worker and a 3-dimensional chart.
    ({"system": "dissipative-2d", "seed": 1.7}, "seed must be an integer, got 1.7"),
    ({"system": "dissipative-2d", "seed": True}, "seed must be an integer, got True"),
    ({"system": "dissipative-2d", "seed": math.inf}, "seed must be an integer, got inf"),
    ({"system": "dissipative-2d", "workers": 1.9}, "workers must be an integer, got 1.9"),
    ({"system": dict(_INLINE, n=True), "initial_state": [0.1, 0.2, 0.3]},
     "chart 'darboux' needs an integer n >= 1, got True"),
    # Floating-point values: these ran with T = 1, gamma = 1, q1 = 1 and k = 1.
    ({"system": "dissipative-2d", "T": True}, "T must be a number, got True"),
    ({"system": "dissipative-2d", "t0": False}, "t0 must be a number, got False"),
    ({"system": "dissipative-2d", "dt": True}, "dt must be a number, got True"),
    ({"system": "dissipative-2d", "params": {"gamma": True}},
     "parameter 'gamma' must be a number, got True"),
    ({"system": "dissipative-2d", "initial_state": [True, 0, 0, 0, 0]},
     "initial_state must be a list of numbers, got [True, 0, 0, 0, 0]"),
    ({"system": dict(_INLINE, h0="k*z", constants={"k": True}), "initial_state": [0.1, 0.2, 0.3]},
     "constants must be numbers, got {'k': True}"),
    # A config that is no JSON object used to be a TypeError or a list of its letters.
    (None, "config must be a JSON object, got None"),
    (123, "config must be a JSON object, got 123"),
    ("abc", "config must be a JSON object, got 'abc'"),
    # bracket checked no grid: it wrote "dt": Infinity, which is not JSON.
    ({"system": "dissipative-2d", "dt": math.inf},
     "need a finite T - t0 and a finite dt > 0, got 0.1 and inf"),
    ({"system": "dissipative-2d", "dt": 0.03}, "dt 0.03 does not divide T - t0 = 0.1"),
    ({"system": "dissipative-2d", "dt": 5e-324}, "dt 5e-324 is too small for T - t0 = 0.1"),
    ({"system": "dissipative-2d", "seed": -1}, "seed must be >= 0, got -1"),
    # Streams are seeded modulo 2^64: seed 2^64 + 1 wrote seed 1's CSV.
    ({"system": "dissipative-2d", "seed": 2**64 + 1},
     "seed must be < 2^64, got 18446744073709551617"),
], ids=["T", "seed", "initial_state", "params", "n", "constants",
        "params_not_object", "h0", "conformal_factor", "constant_coordinate", "constant_function",
        "inline_params",
        "T_nan", "t0_nan", "T_inf", "seed_fraction", "seed_bool", "seed_inf", "workers_fraction",
        "n_bool", "T_bool", "t0_bool", "dt_bool", "param_bool", "initial_state_bool",
        "constant_bool", "config_null", "config_number", "config_string", "dt_inf",
        "dt_indivisible", "dt_tiny", "seed_negative", "seed_too_large"])
def test_malformed_config_values_exit_2(tmp_path, capsys, fields, message):
    # Every command loads its config through one rule set.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"T": 0.1, "dt": 0.01, **fields} if isinstance(fields, dict)
                               else fields))
    for argv in (["verify-contact"], ["bracket", "-f", "q1", "-g", "p1"]):
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert (code, out, err) == (2, "", f"config error: {message}\n")


@pytest.mark.parametrize("flag", [["--dt", "inf"], ["--seed", "-1"],
                                  ["--seed", str(2**64)]])
def test_check_integrability_shares_the_config_rules(tmp_path, capsys, flag):
    # --seed -1 used to escape from numpy's default_rng as a bare ValueError.
    cfg = write_config(tmp_path, system="dissipative-2d", T=0.1, dt=0.01)
    code, out, err = run_cli(capsys, "check-integrability", "--config", cfg, *flag,
                             "--integral", "1", "--integral", "q1", "--integral", "q2")
    assert (code, out) == (2, "")
    assert err.startswith("config error: ")


@pytest.mark.parametrize("argv", [["bracket", "-f", "q1", "-g", "p1"], ["simulate"]])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, system="dissipative-2d", T=0.1, dt=0.01)
    out_path = tmp_path / "missing" / "out"
    code, out, err = run_cli(capsys, *argv, "--config", cfg, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == (f"config error: cannot write output: [Errno 2] No such file or directory: "
                   f"{str(out_path)!r}\n")


@pytest.mark.parametrize("f, message", [
    ("(" * 3000 + "q1" + ")" * 3000, "expression nested too deeply at position "),
    ("+".join(["q1"] * 3000), "expression nested too deeply: 'q1+q1+q1+q1+...1+q1+q1+q1+q1'"),
    # Shallow enough to prepare; its derivative, twice as deep, is not.
    ("*".join(["q1"] * 600), "an expression is nested too deeply to differentiate or compile"),
], ids=["parentheses", "sum", "product"])
def test_too_deeply_nested_expressions_exit_2(capsys, f, message):
    # Each used to crash with a RecursionError.
    code, out, err = run_cli(capsys, "bracket", "-f", f, "-g", "p1")
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {message}")


@pytest.mark.parametrize("f, message", [
    ("1\u00b2", "unexpected character at position 1 (token '\u00b2')"),
    (".e5", "malformed number at position 0 (token '.')"),
], ids=["superscript", "point-exponent"])
def test_numbers_outside_the_grammar_exit_2(tmp_path, capsys, f, message):
    # Each used to exit 1 with a ValueError from float().
    code, out, err = run_cli(capsys, "bracket", "-f", f, "-g", "p1")
    assert (code, out, err) == (2, "", f"config error: {message}\n")
    cfg = write_config(tmp_path, system=dict(_INLINE, h0=f), T=0.1, dt=0.01,
                       initial_state=[0.1, 0.2, 0.3])
    code, out, err = run_cli(capsys, "simulate", "--config", cfg)
    assert (code, out, err) == (2, "", f"config error: {message}\n")


def test_a_500_term_sum_still_brackets(capsys):
    code, out, _ = run_cli(capsys, "bracket", "-f", "+".join(["q1*p1"] * 500), "-g", "p1")
    assert code == 0
    code, one, _ = run_cli(capsys, "bracket", "-f", "q1*p1", "-g", "p1")
    assert json.loads(out)["bracket"] == 500 * json.loads(one)["bracket"]


def test_nan_step_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, system="dissipative-2d", T=0.1, dt=0.01)
    code, out, err = run_cli(capsys, "monte-carlo", "--config", cfg, "--observable", "z",
                             "--paths", "4", "--dt", "nan")
    assert (code, out, err) == (2, "", "config error: dt must be positive\n")


@pytest.mark.parametrize("noise", ["12", ["z", 1], {"h": "z"}])
def test_inline_noise_must_be_a_list_of_expressions(tmp_path, capsys, noise):
    cfg = write_config(tmp_path, system=dict(_INLINE, noise=noise), T=0.1, dt=0.01,
                       initial_state=[0.1, 0.2, 0.3])
    code, out, err = run_cli(capsys, "simulate", "--config", cfg)
    assert (code, out) == (2, "")
    assert err == f"config error: noise must be a list of expressions, got {noise!r}\n"


# ---------------------------------------------------------------------------
# The parser holds the options of the subcommands that argv names
# ---------------------------------------------------------------------------

def _parse(parser, argv) -> tuple:
    """(exit code or parsed options, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["simulate", "-h"],
    ["check-integrability", "--help"],
    ["verify-contact", "--config", "se.json", "--levels", "4"],
    ["check-integrability", "--config", "se.json", "--integral", "1", "--integral", "z",
     "--samples", "9", "--report-only"],
    ["monte-carlo", "--observable", "simulate", "--paths", "8"],
    ["bracket", "-f", "q1"],
    ["list-systems", "--seed", "1"],
    ["simulate", "--levels", "2"],
    ["simulat", "--seed", "1"],
    ["--seed", "1", "simulate", "--dt", "0.5"],
    ["--", "convergence", "--levels", "2"],
    ["convergence", "--levels", "x"],
], ids=lambda argv: " ".join(argv) or "empty")
def test_a_parser_for_the_words_of_argv_parses_as_the_full_one(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse(cli.build_parser(set(argv)), argv) == _parse(cli.build_parser(), argv)


def test_negative_control_a_parser_without_the_named_subcommand():
    # Built for no subcommand, a parser still lists them all but rejects the
    # options of the one argv names: the comparison above can tell.
    argv = ["simulate", "--seed", "1"]
    full, bare = _parse(cli.build_parser(), argv), _parse(cli.build_parser(set()), argv)
    assert full[0]["seed"] == 1
    assert bare[0] == 2
    assert "unrecognized arguments: --seed 1" in bare[2]
