"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are fixed here, not calibrated elsewhere.

Criteria 3 and 4 involve the five-channel T^{1,1} system, whose angle
dynamics exits the chart in finite time (cos(theta1) moves like
cos(theta1_0) - 3 B_t, so |B_t| < 1/3 is required to stay on-chart: over a
unit horizon almost no path survives).  Those runs therefore use short
horizons and deterministically scan for the first noise streams whose
trajectories stay well clear of the sin(theta) = 0 singularity; the scan
rule is fixed, documented, and asserted inside the tests.
"""
import functools
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from contactsde import catalog, cli, expr, flow, geometry as geo, verification as ver
from contactsde.errors import DomainError, NumericalFailure, SingularChartPoint

SE_INITIAL = (math.pi / 2, math.pi / 2, 0.3, -0.4, 0.25)
OFF_CHART = (SingularChartPoint, NumericalFailure, DomainError)


def record(number, description, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {tag} - {description}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number}: {description}: {detail}"


def min_sin_margin(states):
    return float(np.min(np.abs(np.sin(states[:, :2]))))


# ---------------------------------------------------------------------------

def test_criterion_1_conformal_factor_dissipative():
    system = catalog.dissipative_system()
    path = flow.sample_brownian(system.d, 2000, 1e-3, master_seed=7)
    traj = flow.integrate_augmented(system, [1.0, 0.0, 2.0, 0.0, 0.0], path)
    lam = math.exp(traj.log_lambda[-1])
    dev = abs(lam - math.exp(-1.0))
    record(1, "conformal factor e^-1 after T=2 at gamma=0.5", dev <= 1e-12,
           f"lambda={lam!r}, |dev|={dev:.3e}")


def test_criterion_1_negative_control_flipped_reeb_rate():
    # Criterion 1's trajectory with log_lambda negated, which is R(H) with its
    # sign flipped, gives lambda = e^{t/2} against the closed form e^{-t/2}:
    # the check must miss by e - 1/e at T = 2, where the unflipped one passes.
    entry = catalog.get_entry("dissipative-2d")
    closed_form = entry.conformal_factor_source(entry.default_params, 0.0)
    system = catalog.dissipative_system()
    path = flow.sample_brownian(system.d, 2000, 1e-3, master_seed=7)
    traj = flow.integrate_augmented(system, [1.0, 0.0, 2.0, 0.0, 0.0], path)
    flipped = flow.AugmentedTrajectory(traj.times, traj.states, traj.jacobians, -traj.log_lambda)
    dev = ver.conformal_factor_check(traj, closed_form)
    miss = ver.conformal_factor_check(flipped, closed_form)
    assert dev <= 1e-12
    assert abs(miss - 2.0 * math.sinh(1.0)) <= 1e-9, f"miss {miss!r}"


def test_criterion_2_defect_convergence_dissipative():
    system = catalog.dissipative_system()
    finest = flow.sample_brownian(system.d, 1000, 1e-3, master_seed=2024)
    report = ver.defect_convergence(system, [1.0, 0.0, 2.0, 0.0, 0.0], finest, "heun", 3)
    ok = (
        report.dts == [4e-3, 2e-3, 1e-3]
        and all(o >= 0.9 for o in report.orders)
        and report.errors[-1] <= 1e-2
    )
    record(2, "contact defect decays at order >= 0.9 (dissipative, Heun)",
           ok, f"errors={['%.3e' % e for e in report.errors]}, orders={[round(o, 3) for o in report.orders]}")


_C3_HORIZON, _C3_FINE = 0.048, 768      # ladder 5e-4, 2.5e-4, 1.25e-4, 6.25e-5
_C3_FACTORS = (8, 4, 2, 1)


@functools.lru_cache(maxsize=None)
def _criterion_3_streams():
    """Criterion 3's stream scan: the first 16 streams of master seed 31
    whose Heun paths stay on the chart at every level of the ladder, with
    margin |sin(theta_i)| >= 0.5 (the resolvability filter), and their
    margins."""
    system = catalog.sasaki_einstein_system()
    x0 = np.array(SE_INITIAL)
    used, margins = [], []
    stream = 0
    while len(used) < 16 and stream < 2000:
        path = flow.sample_brownian(system.d, _C3_FINE, _C3_HORIZON / _C3_FINE, 31,
                                    stream_index=stream)
        stream += 1
        try:
            trajectories = [flow.integrate(system, x0, flow.coarsen(path, m)) for m in _C3_FACTORS]
        except OFF_CHART:
            continue
        worst = min(min_sin_margin(t.states) for t in trajectories)
        if worst < 0.5:  # resolvability filter: stay well inside the chart
            continue
        margins.append(worst)
        used.append(stream - 1)
    return tuple(used), tuple(margins)


def _criterion_3_ladder(scheme):
    """The contact-defect slope, fitted over the ladder to the log2 of the
    max defect averaged over criterion 3's streams, integrated with
    ``scheme``, and whether lambda == 1 exactly on every path."""
    system = catalog.sasaki_einstein_system()
    x0 = np.array(SE_INITIAL)
    used, _ = _criterion_3_streams()
    log_errors = np.zeros(len(_C3_FACTORS))
    lambda_exact = True
    for stream in used:
        path = flow.sample_brownian(system.d, _C3_FINE, _C3_HORIZON / _C3_FINE, 31,
                                    stream_index=stream)
        errs = []
        for m in _C3_FACTORS:
            aug = flow.integrate_augmented(system, x0, flow.coarsen(path, m), scheme)
            lambda_exact &= bool(np.all(aug.log_lambda == 0.0))
            errs.append(ver.contact_defect(aug, system.chart).max_sup)
        log_errors += np.log2(errs)
    log_errors /= len(used)
    dts = [_C3_HORIZON / _C3_FINE * m for m in _C3_FACTORS]
    return float(np.polyfit(np.log2(dts), log_errors, 1)[0]), lambda_exact


def test_criterion_3_strict_contactomorphism_se():
    used, margins = _criterion_3_streams()
    slope, lambda_exact = _criterion_3_ladder("heun")
    ok = (
        len(used) == 16
        and min(margins) >= 0.1          # the stated chart-validity bound
        and lambda_exact                 # zero integrand: lambda == 1 exactly
        and slope >= 0.9
    )
    record(3, "lambda == 1 exactly and defect order >= 0.9 (T^{1,1})",
           ok, f"streams={list(used[:6])}..., min margin={min(margins):.2f}, slope={slope:.3f}")


def _ito_euler_step(stage, y, dw, dt):
    """y + a dt + g dw at the start of the step: Euler-Maruyama, which
    converges to the Ito solution, not the Stratonovich one."""
    return stage.advance(y, dw, dt, stage.fields(y))


def test_criterion_3_negative_control_ito_euler(monkeypatch):
    # Criterion 3's streams and ladder stepped with Ito-Euler: its state
    # noise is multiplicative, so Euler drops the Stratonovich correction
    # and the defect does not decay.  Measured: slope -0.032, which misses
    # criterion 3's bound of 0.9 by 0.93 (Heun measures 0.959).
    monkeypatch.setitem(flow._STEPPERS, "ito-euler", _ito_euler_step)
    slope, _ = _criterion_3_ladder("ito-euler")
    assert slope < 0.9, f"slope {slope!r}"


def test_criterion_3_negative_control_ito_euler_additive_noise(monkeypatch):
    # On dissipative-2d the noise field is constant, so Ito and Stratonovich
    # agree and Euler is consistent: criterion 2's ladder stepped with it
    # decays at order about 1 (measured 1.003 and 1.001, against Heun's 2.0).
    # The control above fails for the scheme's Ito limit, not for being a
    # cruder scheme.
    monkeypatch.setitem(flow._STEPPERS, "ito-euler", _ito_euler_step)
    system = catalog.dissipative_system()
    finest = flow.sample_brownian(system.d, 1000, 1e-3, master_seed=2024)
    report = ver.defect_convergence(system, [1.0, 0.0, 2.0, 0.0, 0.0], finest, "ito-euler", 3)
    assert all(abs(o - 1.0) <= 0.1 for o in report.orders), report.orders


_C11_H0, _C11_X0 = "p1^2/2 + q1^2/2 + 0.5*z", (1.0, 0.0, 0.5)
_C11_FINE, _C11_DT = 2000, 5e-4      # ladder 4e-3, 2e-3, 1e-3, 5e-4 over T = 1


def _criterion_11_systems():
    """Criterion 11's Darboux n = 1 systems: the single noise 0.3*z, whose
    Reeb rate is the constant 0.3, and the noises 0.3*z and 0.2*q1*z."""
    chart = geo.DarbouxChart(1)
    return (geo.HamiltonianSystem(chart, _C11_H0, ["0.3*z"]),
            geo.HamiltonianSystem(chart, _C11_H0, ["0.3*z", "0.2*q1*z"]))


def _criterion_11_measure(single, double):
    """The worst miss of log lambda_t = -0.5 t - 0.3 W_t on ``single``'s
    paths, and the contact-defect slope fitted over the ladder to the log2
    of the max defect averaged over ``double``'s paths: master seed 11,
    streams 0-15, Heun."""
    closed_miss = 0.0
    log_errors = np.zeros(4)
    for stream in range(16):
        path = flow.sample_brownian(1, _C11_FINE, _C11_DT, 11, stream_index=stream)
        traj = flow.integrate_augmented(single, _C11_X0, path)
        w = np.concatenate([[0.0], np.cumsum(path.increments[0])])
        closed_miss = max(closed_miss, float(np.max(np.abs(
            traj.log_lambda - (-0.5 * traj.times - 0.3 * w)))))
        path = flow.sample_brownian(2, _C11_FINE, _C11_DT, 11, stream_index=stream)
        report = ver.defect_convergence(double, _C11_X0, path, "heun", 4)
        log_errors += np.log2(report.errors)
    log_errors /= 16
    assert report.dts == [4e-3, 2e-3, 1e-3, 5e-4]
    return closed_miss, float(np.polyfit(np.log2(report.dts), log_errors, 1)[0])


def test_criterion_11_random_conformal_factor():
    # Noise Hamiltonians with a nonzero Reeb rate drive log lambda through
    # -sum_k R(H_k) o dB^k; no other criterion's noise does.
    closed_miss, slope = _criterion_11_measure(*_criterion_11_systems())
    record(11, "random conformal factor: log lambda = -t/2 - 0.3 W_t, defect order >= 0.9",
           closed_miss <= 1e-12 and slope >= 0.9,
           f"closed-form miss={closed_miss:.1e}, slope={slope:.3f}")


class _FlippedNoiseReeb:
    """``system``'s augmented stage with the sign of every noise term of
    log lambda flipped, +R(H_k) for -R(H_k) (k >= 1): ``fields`` negates the
    slots of the last row's noise and ``advance`` delegates.  A single
    path's Heun step is composed of the two."""

    def __init__(self, system):
        self.stage = system._augmented_stage
        self.flipped = {slot for _, slot in self.stage.rows[-1][1]}

    def fields(self, y):
        return tuple(-v if i in self.flipped else v for i, v in enumerate(self.stage.fields(y)))

    def advance(self, *args):
        return self.stage.advance(*args)

    def heun_step(self, y, w, dt):
        return geo._composed_heun(self, y, w, dt)


def test_criterion_11_negative_control_flipped_noise_reeb_rate(monkeypatch):
    # Criterion 11's paths with +R(H_k) in place of -R(H_k): measured, the
    # closed form is missed by up to 1.82 against the bound 1e-12, and the
    # slope reads -0.014 against the bound 0.9 (the faithful flow reads
    # 4.4e-14 and 1.006).
    single, double = _criterion_11_systems()
    for system in (single, double):
        control = _FlippedNoiseReeb(system)
        assert control.flipped
        monkeypatch.setattr(system, "_augmented_stage", control)
    closed_miss, slope = _criterion_11_measure(single, double)
    print(f"criterion 11 control: closed-form miss {closed_miss:.2f}, slope {slope:.3f}")
    assert closed_miss > 1e-12 and slope < 0.9, (closed_miss, slope)


def _criterion_4_se_paths(system, x0):
    """Criterion 4's SE streams as (stream, path): the first five of master
    seed 99, within 500, whose 100-step Heun path keeps |sin theta_i| >= 0.5."""
    used = []
    for stream in range(500):
        path = flow.sample_brownian(system.d, 100, 1e-3, master_seed=99, stream_index=stream)
        try:
            traj = flow.integrate(system, x0, path)
        except OFF_CHART:
            continue
        if min_sin_margin(traj.states) >= 0.5:
            used.append((stream, path))
            if len(used) == 5:
                break
    return used


def _tangent_flow_error(system, x0, path):
    """Relative Frobenius error of the co-integrated J_T against the
    finite-difference Jacobian of the state flow (h = 1e-5)."""
    aug = flow.integrate_augmented(system, x0, path)
    fd = ver.finite_difference_jacobian(system, x0, path, "heun", 1e-5)
    return np.linalg.norm(aug.jacobians[-1] - fd) / np.linalg.norm(aug.jacobians[-1])


def test_criterion_4_variational_flow_vs_finite_differences():
    worst = {"dissipative-2d": 0.0, "sasaki-einstein-t11": 0.0}

    system = catalog.dissipative_system()
    x0 = np.array([1.0, 0.0, 2.0, 0.0, 0.0])
    for seed in range(5):
        path = flow.sample_brownian(system.d, 1000, 1e-3, master_seed=seed)
        worst["dissipative-2d"] = max(worst["dissipative-2d"], _tangent_flow_error(system, x0, path))

    system = catalog.sasaki_einstein_system()
    x0 = np.array(SE_INITIAL)
    used = []
    for stream, path in _criterion_4_se_paths(system, x0):
        worst["sasaki-einstein-t11"] = max(worst["sasaki-einstein-t11"],
                                           _tangent_flow_error(system, x0, path))
        used.append(stream)
    ok = len(used) == 5 and all(v <= 1e-4 for v in worst.values())
    record(4, "tangent flow matches finite-difference Jacobian (5 seeds each)",
           ok, f"max rel err={ {k: '%.2e' % v for k, v in worst.items()} }, se streams={used}")


class _DroppedChannelTangent:
    """The augmented stage of ``system`` with noise channel ``k``'s DX
    dropped from the tangent flow: ``fields`` zeroes the slots that channel
    k feeds into J's rows (dim <= r < dim + dim^2) and ``advance``
    delegates, so the state and log_lambda are stepped as before.  A single
    path's Heun step is composed of the two, as a stage's kernel is off the
    chart."""

    def __init__(self, system, k):
        self.stage, dim = system._augmented_stage, system.dim
        self.dropped = {slot for _, row in self.stage.rows[dim:dim + dim * dim]
                        for c, slot in row if c == k}

    def fields(self, y):
        return tuple(0.0 if i in self.dropped else v for i, v in enumerate(self.stage.fields(y)))

    def advance(self, *args):
        return self.stage.advance(*args)

    def heun_step(self, y, w, dt):
        return geo._composed_heun(self, y, w, dt)


def test_criterion_4_negative_control_dropped_tangent_channel(monkeypatch):
    # Criterion 4's SE streams with channel 3 (H = phi1) dropped from dJ =
    # DX J: J must miss the finite-difference oracle, whose state flow is
    # untouched.  Measured: relative errors 1.23e-2 to 3.45e-1, so the
    # smallest miss is 123 times the bound of 1e-4 (the faithful SE flow
    # reads at most 9.6e-11).  Channels 0-2 give no control: DX of 1 is zero, and DX of
    # cos(theta_i)/3 is zero up to rounding residue.  Nor does dissipative-2d:
    # its noise Hamiltonian -eps has DX = 0.
    system = catalog.sasaki_einstein_system()
    x0 = np.array(SE_INITIAL)
    paths = _criterion_4_se_paths(system, x0)
    assert [stream for stream, _ in paths] == [3, 5, 33, 39, 41]
    control = _DroppedChannelTangent(system, 3)
    assert control.dropped
    monkeypatch.setattr(system, "_augmented_stage", control)
    errors = [_tangent_flow_error(system, x0, path) for _, path in paths]
    print(f"criterion 4 control: relative errors {[f'{e:.2e}' for e in errors]}, "
          f"smallest miss {min(errors) / 1e-4:.0f}x the bound")
    assert min(errors) > 1e-4, errors


def test_criterion_5_bracket_algebra():
    system = geo.HamiltonianSystem(geo.DarbouxChart(1), "p1^2/2 + q1^2/2 + 0.5*z")
    chart = system.chart
    states = geo.sample_states(chart, 100, seed=51)
    h_src = "q1*z + sin(p1) + z^2"
    h_expr = system.prepare(h_src)
    dh_dz = expr.differentiate(h_expr, "z")
    f_src, g_src = "q1^2*p1", "sin(z) + p1"

    from test_geometry import oracle_bracket  # FD-partials oracle

    worst_qp = worst_h1 = worst_oracle = worst_anti = worst_bilin = 0.0
    for x in states:
        ctx = system.context(x)
        qp = geo.jacobi_bracket(system, "q1", "p1", x)
        worst_qp = max(worst_qp, abs(qp - 1.0))
        worst_oracle = max(worst_oracle, abs(qp - oracle_bracket(
            chart, expr.parse("q1", chart.names), expr.parse("p1", chart.names), x)))
        h1 = geo.jacobi_bracket(system, h_src, "1", x)
        worst_h1 = max(worst_h1, abs(h1 + expr.evaluate(dh_dz, ctx)))
        worst_oracle = max(worst_oracle, abs(h1 - oracle_bracket(
            chart, h_expr, expr.parse("1", chart.names), x)))
        bfg = geo.jacobi_bracket(system, f_src, g_src, x)
        worst_anti = max(worst_anti, abs(bfg + geo.jacobi_bracket(system, g_src, f_src, x)))
        combo = f"1.7*({f_src}) + -0.6*({g_src})"
        lhs = geo.jacobi_bracket(system, combo, h_src, x)
        rhs = 1.7 * geo.jacobi_bracket(system, f_src, h_src, x) - 0.6 * geo.jacobi_bracket(system, g_src, h_src, x)
        worst_bilin = max(worst_bilin, abs(lhs - rhs) / (1.0 + abs(lhs)))

    fg = geo.jacobi_bracket_expr(system, f_src, g_src)
    gh = geo.jacobi_bracket_expr(system, g_src, h_src)
    hf = geo.jacobi_bracket_expr(system, h_src, f_src)
    worst_jacobi = max(
        abs(geo.jacobi_bracket(system, fg, h_src, x)
            + geo.jacobi_bracket(system, gh, f_src, x)
            + geo.jacobi_bracket(system, hf, g_src, x))
        for x in states[:50]
    )
    ok = (
        worst_qp <= 1e-12 and worst_h1 <= 1e-12
        and worst_anti <= 1e-12 and worst_bilin <= 1e-12
        and worst_jacobi <= 1e-9 and worst_oracle <= 5e-6
    )
    record(5, "bracket algebra ([q,p]=1, [h,1]=-dh/dz, antisym, bilinear, Jacobi)",
           ok, f"qp={worst_qp:.1e} h1={worst_h1:.1e} anti={worst_anti:.1e} "
               f"bilin={worst_bilin:.1e} jacobi={worst_jacobi:.1e} oracle={worst_oracle:.1e}")


def _bracket_without_reeb_terms(ops, zero, d_eta_upper, jf, jg):
    """d_eta(X_f, X_g) alone: the bracket formula with its f R(g) - g R(f)
    term dropped."""
    total = zero
    for a, b, coeff in d_eta_upper:
        paired = ops.sub(ops.mul(jf[a], jg[b]), ops.mul(jf[b], jg[a]))
        total = ops.add(total, ops.mul(coeff, paired))
    return total


def test_criterion_5_negative_control_dropped_reeb_terms(monkeypatch):
    # Criterion 5's system, states and h, with a bracket formula that drops
    # f R(g) - g R(f).  [q, p] = 1 cannot see it (R(q) = R(p) = 0 on
    # Darboux), but [h, 1] = -dh/dz and the FD oracle must miss: measured,
    # every state misses [h, 1] by at least 9.5e-2 against the bound 1e-12,
    # and both misses reach 5.86 against the bounds 1e-12 and 5e-6.
    system = geo.HamiltonianSystem(geo.DarbouxChart(1), "p1^2/2 + q1^2/2 + 0.5*z")
    chart = system.chart
    states = geo.sample_states(chart, 100, seed=51)
    h_src = "q1*z + sin(p1) + z^2"
    h_expr = system.prepare(h_src)
    dh_dz = expr.differentiate(h_expr, "z")

    from test_geometry import oracle_bracket  # FD-partials oracle

    monkeypatch.setattr(geo, "_bracket", _bracket_without_reeb_terms)
    h1_misses, oracle_misses = [], []
    for x in states:
        h1 = geo.jacobi_bracket(system, h_src, "1", x)
        h1_misses.append(abs(h1 + expr.evaluate(dh_dz, system.context(x))))
        oracle_misses.append(abs(h1 - oracle_bracket(
            chart, h_expr, expr.parse("1", chart.names), x)))
    print(f"criterion 5 control: [h, 1] misses {min(h1_misses):.2e} to {max(h1_misses):.2e}, "
          f"oracle misses up to {max(oracle_misses):.2e}")
    assert min(h1_misses) > 1e-12, min(h1_misses)
    assert max(oracle_misses) > 5e-6, max(oracle_misses)


def test_criterion_6_complete_integrability_se():
    system = catalog.sasaki_einstein_system()
    states = geo.sample_states(system.chart, 100, seed=61)
    report = geo.check_integrability(
        system, ["1", "(1/3)*cos(theta1)", "(1/3)*cos(theta2)"], states, tol=1e-12
    )
    worst_conjugate = 0.0
    for x in states:
        for f, g in (("(1/3)*cos(theta1)", "phi1"), ("(1/3)*cos(theta2)", "phi2")):
            worst_conjugate = max(
                worst_conjugate, abs(geo.jacobi_bracket(system, f, g, x) - 1.0)
            )
    ok = (
        report.passed
        and report.max_pairwise_bracket <= 1e-12
        and report.max_reeb_bracket <= 1e-12
        and report.min_singular_value >= 0.1
        and worst_conjugate <= 1e-12
    )
    record(6, "involution + independence of {1, cos(t1)/3, cos(t2)/3}; conjugate pairs = 1",
           ok, f"pairwise={report.max_pairwise_bracket:.1e} reeb={report.max_reeb_bracket:.1e} "
               f"min_sv={report.min_singular_value:.3f} conj={worst_conjugate:.1e}")


def test_criterion_7_action_angle_transform():
    """The reference matrix below is the transformed diffusion derived by the
    Stratonovich chain rule from the chart coefficients and the map
    y_i = cos(theta_i)/3, angle_i = phi_i, angle0 = psi/3 (the action rows
    carry d(cos theta)/d theta < 0, hence the -1 entries)."""
    aa = catalog.se_action_angle_map()
    states = geo.sample_states(aa.system.chart, 100, seed=71)
    worst_drift = worst_matrix = worst_pullback = worst_roundtrip = 0.0
    target_drift = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    for x in states:
        drift, diffusion = catalog.action_angle_pushforward(aa, x)
        y = aa.forward(x)
        reference = np.zeros((5, 5))
        reference[0, 3] = -1.0
        reference[1, 4] = -1.0
        reference[2, 1] = 1.0
        reference[3, 2] = 1.0
        reference[4, 0] = 1.0
        reference[4, 3] = y[2]
        reference[4, 4] = y[3]
        worst_drift = max(worst_drift, float(np.max(np.abs(drift - target_drift))))
        worst_matrix = max(worst_matrix, float(np.max(np.abs(diffusion - reference))))
        pulled = aa.jacobian(x).T @ aa.eta_actionangle(y)
        worst_pullback = max(worst_pullback, float(np.max(np.abs(pulled - aa.system.chart.eta(x)))))
        worst_roundtrip = max(worst_roundtrip, float(np.max(np.abs(aa.inverse(y) - x))))
    ok = (
        worst_drift <= 1e-12 and worst_matrix <= 1e-12
        and worst_pullback <= 1e-12 and worst_roundtrip <= 1e-12
    )
    record(7, "action-angle pushforward and pullback identities",
           ok, f"drift={worst_drift:.1e} matrix={worst_matrix:.1e} "
               f"pullback={worst_pullback:.1e} roundtrip={worst_roundtrip:.1e}")


def test_criterion_8_monte_carlo_variance_oracle():
    # z satisfies a linear equation dz = (forcing(t) - gamma z) dt + eps dB
    # with deterministic forcing (q, p carry no noise), so Var[z_T] equals
    # eps^2 (1 - exp(-2 gamma T)) / (2 gamma).
    system = catalog.dissipative_system()
    eps, gamma, horizon, n_paths = 0.1, 0.5, 1.0, 10_000
    stats = ver.monte_carlo(system, [1.0, 0.0, 2.0, 0.0, 0.0], T=horizon, dt=1e-3,
                            n_paths=n_paths, master_seed=0, observable="z")
    theory = eps**2 * (1.0 - math.exp(-2.0 * gamma * horizon)) / (2.0 * gamma)
    # Gaussian z_T: stderr of the sample variance is var * sqrt(2 / (n - 1))
    stderr_var = theory * math.sqrt(2.0 / (n_paths - 1))
    dev = abs(stats.variance - theory)
    record(8, "Var[z_T] matches the linear-equation oracle within 3 stderr",
           dev <= 3.0 * stderr_var,
           f"var={stats.variance:.6e} theory={theory:.6e} dev={dev:.2e} 3se={3*stderr_var:.2e}")


def test_criterion_8_negative_control_dropped_channel():
    # Criterion 8's streams with the one noise channel switched off: every
    # path reaches the same z_T, so the sample variance is 0 and misses the
    # oracle by sqrt((n - 1) / 2) = 70.7 standard errors, where 3 pass.
    system = catalog.dissipative_system()
    eps, gamma, horizon, n_paths = 0.1, 0.5, 1.0, 10_000
    stats = ver.monte_carlo(system, [1.0, 0.0, 2.0, 0.0, 0.0], T=horizon, dt=1e-3,
                            n_paths=n_paths, master_seed=0, observable="z",
                            zero_channels=(0,))
    theory = eps**2 * (1.0 - math.exp(-2.0 * gamma * horizon)) / (2.0 * gamma)
    stderr_var = theory * math.sqrt(2.0 / (n_paths - 1))
    misses = abs(stats.variance - theory) / stderr_var
    assert abs(misses - math.sqrt((n_paths - 1) / 2.0)) <= 1e-9, f"missed by {misses!r} stderr"


def test_criterion_9_strong_order_scalar_sde():
    # H0 = 0, H1 = -z realizes dz = z o dB with closed form z0 exp(B_t)
    system = geo.HamiltonianSystem(geo.DarbouxChart(1), "0", ["-z"])
    n_paths, n_fine = 200, 1000
    x0 = np.tile(np.array([0.0, 0.0, 1.0]), (n_paths, 1))
    paths = [flow.sample_brownian(1, n_fine, 1e-3, 9, stream_index=s) for s in range(n_paths)]
    exact = np.array([math.exp(p.increments.sum()) for p in paths])
    errors = []
    for m in (4, 2, 1):
        increments = np.stack([flow.coarsen(p, m).increments for p in paths])
        finals = flow.integrate_batch_final(system, x0, increments, 1e-3 * m)
        errors.append(float(np.mean(np.abs(finals[:, 2] - exact))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    record(9, "strong order >= 0.8 on dz = z o dB vs closed form (200 paths)",
           all(o >= 0.8 for o in orders),
           f"errors={['%.3e' % e for e in errors]}, orders={[round(o, 3) for o in orders]}")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    def run(*argv):
        code = cli.main(list(argv))
        out = capsys.readouterr()
        return code, out.out

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "dissipative-2d", "T": 0.1, "dt": 1e-3, "seed": 5}))
    se_cfg = tmp_path / "se.json"
    se_cfg.write_text(json.dumps({"system": "sasaki-einstein-t11", "T": 0.048, "dt": 5e-4, "seed": 1}))

    results = []

    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("simulate", "--config", str(cfg), "--out", str(csv_a))
    run("simulate", "--config", str(cfg), "--out", str(csv_b))
    results.append(("simulate", csv_a.read_bytes() == csv_b.read_bytes()))

    for args in (
        ("verify-contact", "--config", str(cfg)),
        ("verify-contact", "--config", str(se_cfg)),
        ("check-integrability", "--config", str(se_cfg),
         "--integral", "1", "--integral", "(1/3)*cos(theta1)", "--integral", "(1/3)*cos(theta2)"),
        ("bracket", "--config", str(cfg), "-f", "q1", "-g", "p1"),
        ("convergence", "--config", str(cfg)),
        ("list-systems",),
    ):
        code1, out1 = run(*args)
        code2, out2 = run(*args)
        results.append((args[0], code1 == code2 == 0 and out1 == out2))

    mc = ("monte-carlo", "--config", str(cfg), "--observable", "z", "--paths", "128")
    code1, out1 = run(*mc, "--workers", "1")
    code2, out2 = run(*mc, "--workers", "2")
    results.append(("monte-carlo workers 1 vs 2", code1 == code2 == 0 and out1 == out2))

    # same invocation through a fresh interpreter: byte-identical across processes
    proc = [sys.executable, "-m", "contactsde.cli", "bracket", "--config", str(cfg), "-f", "z", "-g", "1"]
    r1 = subprocess.run(proc, capture_output=True)
    r2 = subprocess.run(proc, capture_output=True)
    results.append(("bracket across processes", r1.stdout == r2.stdout and r1.returncode == 0))

    failing = [name for name, ok in results if not ok]
    record(10, "byte-identical CLI outputs for fixed (config, seed), any worker count",
           not failing, f"checked={len(results)}, failing={failing}")
