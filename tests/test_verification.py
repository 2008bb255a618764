import io
import json
import math

import numpy as np
import pytest

from contactsde import catalog, expr, flow, geometry as geo, verification as ver
from contactsde.errors import (
    ConfigError,
    DomainError,
    IndivisibleFactor,
    InvalidStep,
    MissingTangentData,
    NumericalFailure,
)


def make_path(system, n, dt, seed, t0=0.0):
    return flow.sample_brownian(system.d, n, dt, seed, t0=t0)


# ---------------------------------------------------------------------------
# contact defect
# ---------------------------------------------------------------------------

def test_defect_zero_at_initial_time(dissipative):
    p = make_path(dissipative, 50, 1e-3, 3)
    traj = flow.integrate_augmented(dissipative, [1.0, 0, 2.0, 0, 0], p)
    report = ver.contact_defect(traj, dissipative.chart)
    assert report.sup_norms[0] == 0.0
    assert report.max_sup >= report.sup_norms[-1] >= 0.0
    assert report.residuals.shape == (51, 5)


# A Darboux system with exp, log and ^ (a fractional power) in its fields,
# as in test_flow's kernel tests, and a non-constant lambda.
_INLINE_DARBOUX = ("(p1^2 + p2^2)/2 + exp(-q1^2/4)*z + log(2 + q2^2)",
                   ["(1 + q1^2)^1.5/10", "exp(p2/4)*z/10"])


def _defect_systems():
    inline = geo.HamiltonianSystem(geo.DarbouxChart(2), *_INLINE_DARBOUX)
    return [(catalog.dissipative_system(), [1.0, 0.0, 2.0, 0.0, 0.0], 1e-3),
            (catalog.sasaki_einstein_system(), [1.0, 1.2, 0.3, -0.4, 0.25], 6.25e-5),
            (inline, [0.3, -0.2, 0.5, 0.1, 0.4], 1e-3)]


def _per_state_defect(traj, chart, late=False):
    """The residuals as a loop over states: one scalar eta, one conformal
    factor and one row product per state.  ``late`` takes lambda one step
    late, lambda_{i-1} at time i."""
    eta0 = chart.eta(traj.states[0])
    residuals = np.empty(traj.states.shape)
    for i in range(len(traj.times)):
        eta_t = chart.eta(traj.states[i])
        lam = flow._conformal_factor(traj.log_lambda[max(i - 1, 0) if late else i], "oracle")
        residuals[i] = eta_t @ traj.jacobians[i] - lam * eta0
    return residuals


def _defect_trajectories():
    """Per system: seeds 0-9 on ladder levels 0-3 of a 32-step grid, and one
    one-step trajectory."""
    for system, x0, dt in _defect_systems():
        trajs = [flow.integrate_augmented(system, x0, flow.sample_brownian(system.d, 1, dt, 0))]
        for seed in range(10):
            path = flow.sample_brownian(system.d, 32, dt, seed)
            trajs += [flow.integrate_augmented(system, x0, flow.coarsen(path, 2 ** level))
                      for level in range(4)]
        yield system, trajs


def test_defect_array_pass_equals_the_per_state_loop():
    for system, trajs in _defect_trajectories():
        for traj in trajs:
            report = ver.contact_defect(traj, system.chart)
            oracle = _per_state_defect(traj, system.chart)
            assert report.residuals.tobytes() == oracle.tobytes()
            sups = np.max(np.abs(oracle), axis=1)
            assert report.sup_norms.tobytes() == sups.tobytes()
            assert np.float64(report.max_sup).tobytes() == sups.max().tobytes()


def test_negative_control_lambda_one_step_late():
    # The same comparison against residuals whose lambda is one step late
    # misses on every trajectory of the two systems whose lambda moves, 41
    # of 41 each, the one-step one included, by a max |difference| per
    # trajectory of 1.0e-3 to 8.0e-3 on dissipative-2d and 3.6e-3 to 2.6e-2
    # on the inline system.  On SE lambda stays 1, so no shift can show
    # there: 0 of 41.
    misses = []
    for system, trajs in _defect_trajectories():
        misses.append(sum(ver.contact_defect(traj, system.chart).residuals.tobytes()
                          != _per_state_defect(traj, system.chart, late=True).tobytes()
                          for traj in trajs))
    assert misses == [41, 0, 41], misses


def test_defect_rejects_a_chart_of_another_dimension(sasaki_einstein):
    p = make_path(sasaki_einstein, 4, 1e-4, 1)
    traj = flow.integrate_augmented(sasaki_einstein, [1.0, 1.2, 0.3, -0.4, 0.25], p)
    for n, dim in ((1, 3), (3, 7)):
        with pytest.raises(InvalidStep, match=f"width 5, the darboux chart has dimension {dim}"):
            ver.contact_defect(traj, geo.DarbouxChart(n))


def test_defect_conformal_factor_overflow_is_a_numerical_failure():
    # log(lambda) reaches 1000 at T = 1, where exp overflows a double.
    system = geo.HamiltonianSystem(geo.DarbouxChart(1), "-1000*z")
    traj = flow.integrate_augmented(system, [0.1, 0.2, 0.3], flow.sample_brownian(0, 100, 0.01, 0))
    with pytest.raises(NumericalFailure) as err:
        ver.contact_defect(traj, system.chart)
    assert (err.value.operation, str(err.value)) == ("contact_defect", "conformal factor overflows")


def test_defect_requires_tangent_data(dissipative):
    p = make_path(dissipative, 10, 1e-3, 3)
    traj = flow.integrate_augmented(dissipative, [1.0, 0, 2.0, 0, 0], p)
    broken = flow.AugmentedTrajectory(
        times=traj.times, states=traj.states, jacobians=None, log_lambda=None
    )
    with pytest.raises(MissingTangentData):
        ver.contact_defect(broken, dissipative.chart)


def test_defect_shrinks_with_dt(dissipative):
    p = make_path(dissipative, 800, 1e-3, 12)
    report = ver.defect_convergence(dissipative, [1.0, 0, 2.0, 0, 0], p, "heun", 3)
    assert report.dts == [4e-3, 2e-3, 1e-3]
    for coarse, fine in zip(report.errors[:-1], report.errors[1:]):
        assert fine <= 1.2 * coarse  # nonincreasing within noise factor


def test_defect_csv_export(dissipative):
    p = make_path(dissipative, 20, 1e-3, 3)
    traj = flow.integrate_augmented(dissipative, [1.0, 0, 2.0, 0, 0], p)
    report = ver.contact_defect(traj, dissipative.chart)
    buf = io.StringIO()
    report.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,r_1,r_2,r_3,r_4,r_5,sup"
    assert len(lines) == 22
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0] * 7


def test_defect_report_json_roundtrip(dissipative):
    p = make_path(dissipative, 20, 1e-3, 3)
    traj = flow.integrate_augmented(dissipative, [1.0, 0, 2.0, 0, 0], p)
    report = ver.contact_defect(traj, dissipative.chart)
    data = json.loads(json.dumps(report.to_dict()))
    clone = ver.ContactDefectReport.from_dict(data)
    assert np.array_equal(clone.residuals, report.residuals)
    assert clone.max_sup == report.max_sup


# ---------------------------------------------------------------------------
# conformal factor
# ---------------------------------------------------------------------------

def test_conformal_factor_dissipative(dissipative):
    p = make_path(dissipative, 2000, 1e-3, 42)
    traj = flow.integrate_augmented(dissipative, [1.0, 0, 2.0, 0, 0], p)
    dev = ver.conformal_factor_check(traj, "exp(-0.5*t)")
    assert dev <= 1e-12


def test_conformal_factor_trivial_when_z_free():
    system = geo.HamiltonianSystem(geo.DarbouxChart(1), "p1^2/2 + q1^2/2", ["0.2"])
    p = flow.sample_brownian(1, 300, 1e-3, 5)
    traj = flow.integrate_augmented(system, [1.0, 0.5, 0.0], p)
    assert ver.conformal_factor_check(traj, "1") <= 1e-15


def test_conformal_factor_deterministic_exponential():
    system = geo.HamiltonianSystem(geo.DarbouxChart(1), "z")
    p = flow.sample_brownian(0, 10000, 1e-4, 0)
    traj = flow.integrate_augmented(system, [0.5, 0.5, 1.0], p)
    dev = ver.conformal_factor_check(traj, "exp(-t)")
    assert dev <= 1e-8


def _per_time_deviation(traj, closed_form) -> float:
    """Oracle: the check as one scalar tape call and one math.exp per time."""
    tape = expr.compile_tape(expr.parse(closed_form, ["t"]), ["t"])
    dev = 0.0
    for t, ll in zip(traj.times.tolist(), traj.log_lambda):
        dev = max(dev, abs(math.exp(ll) - tape([t])))
    return dev


def _dissipative_trajectory(dissipative):
    # gamma = 0.5, T = 1: lambda runs from 1 down to exp(-0.5).
    return flow.integrate_augmented(dissipative, [1.0, 0, 2.0, 0, 0],
                                    make_path(dissipative, 1000, 1e-3, 42))


@pytest.mark.parametrize("closed_form", ["1", "0.5", "exp(-0.5*t)"])
def test_conformal_factor_check_matches_a_per_time_loop(dissipative, closed_form):
    # A form without t is evaluated once; every form keeps the loop's bits.
    traj = _dissipative_trajectory(dissipative)
    assert ver.conformal_factor_check(traj, closed_form) == _per_time_deviation(traj, closed_form)


def test_negative_control_a_form_in_t_evaluated_once(dissipative):
    # exp(-0.5*t) read once, at t0, as if it had no t: it misses lambda_T =
    # exp(-0.5) by 1 - exp(-0.5) = 0.393, where the check reads below 1e-12.
    traj = _dissipative_trajectory(dissipative)
    once = expr.compile_tape(expr.parse("exp(-0.5*t)", ["t"]), ["t"])([traj.times[0]])
    miss = max(abs(math.exp(ll) - once) for ll in traj.log_lambda)
    print(f"conformal control: miss {miss:.4f}")
    assert ver.conformal_factor_check(traj, "exp(-0.5*t)") <= 1e-12
    assert miss == pytest.approx(1.0 - math.exp(-0.5), abs=1e-9)


def test_a_faulting_constant_form_raises_before_lambda_overflows():
    # log lambda = 1000 t overflows math.exp from t = 0.71 on; log(0) faults at
    # the first time, as the per-time loop does.
    system = geo.HamiltonianSystem(geo.DarbouxChart(1), "-1000*z")
    traj = flow.integrate_augmented(system, [0.5, 0.5, 1.0], flow.sample_brownian(0, 100, 0.01, 0))
    with pytest.raises(NumericalFailure):
        ver.conformal_factor_check(traj, "exp(t)")
    with pytest.raises(DomainError) as once:
        ver.conformal_factor_check(traj, "log(0)")
    with pytest.raises(DomainError) as oracle:
        _per_time_deviation(traj, "log(0)")
    assert str(once.value) == str(oracle.value)


# ---------------------------------------------------------------------------
# finite-difference Jacobian
# ---------------------------------------------------------------------------

def test_fd_jacobian_identity_for_zero_fields():
    zero = geo.HamiltonianSystem(geo.DarbouxChart(1), "0", ["0"])
    p = flow.sample_brownian(1, 50, 1e-3, 1)
    fd = ver.finite_difference_jacobian(zero, [0.4, -0.1, 0.9], p)
    # roundoff of ((x + h) - (x - h)) / 2h only
    assert np.max(np.abs(fd - np.eye(3))) <= 1e-10


def test_fd_jacobian_linear_flow_structure():
    # H0 = z: flow is q const, p and z scaled by exp(-(t - t0))
    system = geo.HamiltonianSystem(geo.DarbouxChart(1), "z")
    p = flow.sample_brownian(0, 1000, 1e-3, 0)
    fd = ver.finite_difference_jacobian(system, [0.3, 0.7, 1.2], p)
    aug = flow.integrate_augmented(system, [0.3, 0.7, 1.2], p)
    assert np.max(np.abs(fd - aug.jacobians[-1])) <= 1e-6
    assert fd[1, 1] == pytest.approx(math.exp(-1.0), abs=1e-6)


def test_fd_jacobian_matches_augmented(dissipative):
    p = make_path(dissipative, 1000, 1e-3, 77)
    x0 = [1.0, 0.0, 2.0, 0.0, 0.0]
    aug = flow.integrate_augmented(dissipative, x0, p)
    fd = ver.finite_difference_jacobian(dissipative, x0, p, h=1e-5)
    rel = np.linalg.norm(aug.jacobians[-1] - fd) / np.linalg.norm(aug.jacobians[-1])
    assert rel <= 1e-4
    # the batched oracle's column equals two single-path integrations bit for bit
    plus, minus = np.array(x0), np.array(x0)
    plus[2] += 1e-5
    minus[2] -= 1e-5
    column = (flow.integrate(dissipative, plus, p).final_state
              - flow.integrate(dissipative, minus, p).final_state) / (2.0 * 1e-5)
    assert np.array_equal(fd[:, 2], column)


def test_fd_jacobian_rejects_bad_h(dissipative):
    p = make_path(dissipative, 10, 1e-3, 0)
    for h in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidStep, match="h must be finite and positive"):
            ver.finite_difference_jacobian(dissipative, [1.0, 0, 2.0, 0, 0], p, h=h)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

def test_convergence_deterministic_second_order():
    system = geo.HamiltonianSystem(geo.DarbouxChart(1), "p1^2/2 + q1^4/4 + 0.1*z")
    p = flow.sample_brownian(0, 1024, 1e-3, 0)
    report = ver.convergence_study(system, [1.0, 0.5, 0.0], p, "heun", levels=4)
    assert report.label == "strong_error_vs_finest"
    assert all(order >= 1.9 for order in report.orders)


def test_convergence_validation(dissipative):
    p = make_path(dissipative, 100, 1e-3, 0)
    with pytest.raises(InvalidStep):
        ver.convergence_study(dissipative, [1.0, 0, 2.0, 0, 0], p, levels=2)
    p_odd = make_path(dissipative, 102, 1e-3, 0)
    with pytest.raises(IndivisibleFactor):
        ver.convergence_study(dissipative, [1.0, 0, 2.0, 0, 0], p_odd, levels=3)
    # levels is a count; each message names the value.
    for bad in (2, 3.0, True):
        with pytest.raises(InvalidStep, match=f"levels.*got {bad}$"):
            ver.convergence_study(dissipative, [1.0, 0, 2.0, 0, 0], p, levels=bad)


def test_convergence_report_roundtrip():
    report = ver.ConvergenceReport("x", [4e-3, 2e-3], [1e-2, 5e-3], [1.0])
    clone = ver.ConvergenceReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert clone.to_dict() == report.to_dict()


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_monte_carlo_constant_observable(dissipative):
    stats = ver.monte_carlo(dissipative, [1.0, 0, 2.0, 0, 0], T=0.05, dt=0.01,
                            n_paths=16, master_seed=1, observable="1")
    assert stats.mean == 1.0
    assert stats.variance == 0.0
    assert stats.stderr == 0.0


def test_monte_carlo_deterministic_system_has_zero_variance():
    system = geo.HamiltonianSystem(geo.DarbouxChart(1), "p1^2/2 + q1^2/2")
    stats = ver.monte_carlo(system, [1.0, 0.0, 0.0], T=0.1, dt=0.01,
                            n_paths=8, master_seed=3, observable="q1 + z")
    assert stats.variance <= 1e-20


def test_monte_carlo_se_frozen_theta(sasaki_einstein):
    x0 = [math.pi / 2, math.pi / 2, 0.3, -0.4, 0.25]
    stats = ver.monte_carlo(sasaki_einstein, x0, T=0.05, dt=0.005, n_paths=32,
                            master_seed=5, observable="(1/3)*cos(theta1)",
                            zero_channels=(3, 4))
    assert stats.variance == 0.0
    assert stats.mean == pytest.approx(math.cos(math.pi / 2) / 3.0, abs=1e-15)


def test_monte_carlo_worker_independence(dissipative):
    kwargs = dict(T=0.1, dt=0.01, n_paths=64, master_seed=9, observable="z", batch_size=16)
    x0 = [1.0, 0, 2.0, 0, 0]
    s1 = ver.monte_carlo(dissipative, x0, workers=1, **kwargs)
    s2 = ver.monte_carlo(dissipative, x0, workers=3, **kwargs)
    assert s1.to_dict() == s2.to_dict()


def test_monte_carlo_starts_no_more_workers_than_batches(dissipative, monkeypatch):
    # A fork pool starts max_workers processes at its first submit, so the
    # pool's size is what counts; this fake runs the batches in-process.
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # monte_carlo imports the pool where it uses it, from concurrent.futures.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    kwargs = dict(T=0.1, dt=0.01, n_paths=32, master_seed=9, observable="z", batch_size=16)
    x0 = [1.0, 0, 2.0, 0, 0]
    pooled = ver.monte_carlo(dissipative, x0, workers=64, **kwargs)
    assert sizes == [2]
    assert pooled.to_dict() == ver.monte_carlo(dissipative, x0, workers=1, **kwargs).to_dict()


def test_monte_carlo_stderr_definition(dissipative):
    stats = ver.monte_carlo(dissipative, [1.0, 0, 2.0, 0, 0], T=0.05, dt=0.01,
                            n_paths=32, master_seed=2, observable="z")
    assert stats.stderr == pytest.approx(math.sqrt(stats.variance / 32), abs=1e-18)


def test_monte_carlo_validation(dissipative):
    x0 = [1.0, 0, 2.0, 0, 0]
    with pytest.raises(InvalidStep):
        ver.monte_carlo(dissipative, x0, T=0.1, dt=0.01, n_paths=1, master_seed=0, observable="z")
    with pytest.raises(InvalidStep):
        ver.monte_carlo(dissipative, x0, T=0.1, dt=0.03, n_paths=4, master_seed=0, observable="z")
    with pytest.raises(InvalidStep):  # the CLI's tolerance, 1e-12 relative
        ver.monte_carlo(dissipative, x0, T=1.0, dt=1e-3 * (1 + 1e-11), n_paths=4,
                        master_seed=0, observable="z")
    for T, dt in ((0.1, math.nan), (math.inf, 0.01), (math.nan, 0.01), (0.1, 0.0)):
        with pytest.raises(InvalidStep):
            ver.monte_carlo(dissipative, x0, T=T, dt=dt, n_paths=4, master_seed=0, observable="z")
    # Each message names the bad value.
    for bad, named in (({"batch_size": 0}, "got 0"), ({"batch_size": -1}, "got -1"),
                       ({"zero_channels": (-1,)}, r"got \[-1\]"),
                       ({"zero_channels": (1,)}, r"got \[1\]"),
                       ({"n_paths": 2.5}, "got 2.5"), ({"n_paths": True}, "got True"),
                       ({"n_paths": 4.0}, "got 4.0"), ({"batch_size": True}, "got True"),
                       ({"batch_size": 2.0}, "got 2.0"), ({"workers": 0}, "got 0"),
                       ({"workers": 2.5}, "got 2.5"), ({"workers": True}, "got True")):
        with pytest.raises(InvalidStep, match=f"{named}$"):
            ver.monte_carlo(dissipative, x0, T=0.1, dt=0.01, master_seed=0, observable="z",
                            **{"n_paths": 4, **bad})


def test_ensemble_stats_roundtrip():
    stats = ver.EnsembleStats(10, "z", 0.5, 0.25, 0.158)
    clone = ver.EnsembleStats.from_dict(json.loads(json.dumps(stats.to_dict())))
    assert clone.to_dict() == stats.to_dict()


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("entry_point", [
    "system_h0", "system_noise", "monte_carlo", "reeb_derivative", "conformal_factor_check",
])
def test_a_non_expression_is_a_config_error(entry_point, darboux1):
    x0 = [0.1, 0.2, 0.3]
    traj = flow.integrate_augmented(darboux1, x0, flow.sample_brownian(0, 2, 0.1, 0))
    calls = {
        "system_h0": lambda: geo.HamiltonianSystem(geo.DarbouxChart(1), 5),
        "system_noise": lambda: geo.HamiltonianSystem(geo.DarbouxChart(1), "q1", [7]),
        "monte_carlo": lambda: ver.monte_carlo(darboux1, x0, T=0.1, dt=0.05, n_paths=2,
                                               master_seed=0, observable=5),
        "reeb_derivative": lambda: geo.reeb_derivative(darboux1, 5, x0),
        "conformal_factor_check": lambda: ver.conformal_factor_check(traj, 5),
    }
    with pytest.raises(ConfigError, match=r"got [57]$"):
        calls[entry_point]()
