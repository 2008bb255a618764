import math

import numpy as np
import pytest

from contactsde import catalog, flow, geometry as geo
from contactsde.errors import (
    IndivisibleFactor,
    InvalidStep,
    MidpointDivergence,
)
from contactsde.flow import _heun_step


# ---------------------------------------------------------------------------
# Brownian paths
# ---------------------------------------------------------------------------

def test_brownian_bitwise_reproducible():
    a = flow.sample_brownian(3, 500, 0.01, master_seed=42, stream_index=7)
    b = flow.sample_brownian(3, 500, 0.01, master_seed=42, stream_index=7)
    assert np.array_equal(a.increments, b.increments)
    c = flow.sample_brownian(3, 500, 0.01, master_seed=42, stream_index=8)
    assert not np.array_equal(a.increments, c.increments)
    d = flow.sample_brownian(3, 500, 0.01, master_seed=43, stream_index=7)
    assert not np.array_equal(a.increments, d.increments)


def test_brownian_zero_channels_and_immutability():
    a = flow.sample_brownian(2, 50, 0.1, 1)
    z = a.with_zeroed_channels([0])
    assert np.all(z.increments[0] == 0.0)
    assert np.array_equal(z.increments[1], a.increments[1])
    with pytest.raises(ValueError):
        a.increments[0, 0] = 1.0


def test_brownian_deterministic_case():
    p = flow.sample_brownian(0, 10, 0.1, 5)
    assert p.increments.shape == (0, 10)


def test_brownian_invalid_step():
    with pytest.raises(InvalidStep):
        flow.sample_brownian(1, 10, 0.0, 1)
    with pytest.raises(InvalidStep):
        flow.sample_brownian(1, 10, -0.5, 1)


def test_brownian_moments():
    p = flow.sample_brownian(1, 10**6, 0.01, master_seed=7)
    inc = p.increments.ravel()
    sigma = math.sqrt(0.01)
    assert abs(inc.mean()) <= 4 * sigma / math.sqrt(inc.size)
    assert abs(inc.var() - 0.01) <= 0.02 * 0.01


def test_coarsen_identity_and_telescoping():
    p = flow.sample_brownian(2, 100, 0.05, 3)
    assert flow.coarsen(p, 1) is p
    full = flow.coarsen(p, 100)
    assert full.n_steps == 1
    assert np.allclose(full.increments[:, 0], p.increments.sum(axis=1), atol=1e-15)
    assert full.dt == pytest.approx(5.0)


def test_coarsen_variance():
    total = []
    for stream in range(4000):
        p = flow.sample_brownian(1, 8, 0.01, master_seed=11, stream_index=stream)
        total.append(flow.coarsen(p, 4).increments[0])
    arr = np.concatenate(total)
    assert abs(arr.var() - 0.04) <= 0.02 * 0.04


def test_coarsen_indivisible():
    p = flow.sample_brownian(1, 10, 0.1, 1)
    with pytest.raises(IndivisibleFactor):
        flow.coarsen(p, 3)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_step_fixed_point_of_zero_field():
    zero = geo.HamiltonianSystem(geo.DarbouxChart(1), "0", ["0"])
    x = np.array([0.3, -0.7, 1.1])
    out = flow.step(zero, x, np.zeros(1), 0.01)
    assert np.array_equal(out, x)
    a, b = flow.drift_diffusion(zero, x)
    assert np.all(a == 0.0) and np.all(b == 0.0)


def test_heun_step_is_second_order_taylor_on_linear_drift():
    a_mat = np.array([[0.0, 1.0], [-2.0, -0.3]])
    x = np.array([1.0, -0.5])
    dt = 0.01
    taylor = x + dt * (a_mat @ x) + 0.5 * dt * dt * (a_mat @ a_mat @ x)
    heun = _heun_step(lambda y: a_mat @ y, lambda y: np.zeros((2, 0)), x, np.zeros(0), dt)
    assert np.max(np.abs(heun - taylor)) <= 1e-15


def test_step_unknown_scheme(darboux1):
    with pytest.raises(InvalidStep):
        flow.step(darboux1, np.zeros(3), np.zeros(0), 0.01, scheme="euler")


def test_midpoint_divergence_on_stiff_step():
    stiff = geo.HamiltonianSystem(geo.DarbouxChart(1), "50*(q1^2 + p1^2)")
    with pytest.raises(MidpointDivergence):
        flow.step(stiff, np.array([1.0, 1.0, 0.0]), np.zeros(0), 1.0, scheme="midpoint")


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_integrate_constant_hamiltonian_moves_z_linearly():
    sys1 = geo.HamiltonianSystem(geo.DarbouxChart(1), "1")
    p = flow.sample_brownian(0, 10, 0.1, 0)
    traj = flow.integrate(sys1, [0.5, -0.3, 2.0], p)
    assert np.allclose(traj.states[:, 0], 0.5, atol=1e-15)
    assert np.allclose(traj.states[:, 1], -0.3, atol=1e-15)
    assert np.allclose(traj.states[:, 2], 2.0 - (traj.times - traj.times[0]), atol=1e-12)


def test_integrate_energy_dissipates_without_noise():
    sysd = geo.HamiltonianSystem(
        geo.DarbouxChart(2),
        "(p1^2 + p2^2)/(2*m) + (q1^2+q2^2)/2 + gamma*z",
        constants={"m": 1.0, "gamma": 0.5},
    )
    p = flow.sample_brownian(0, 2000, 1e-3, 0)
    traj = flow.integrate(sysd, [1.0, 0.0, 2.0, 0.0, 0.0], p)
    q = traj.states[:, :2]
    mom = traj.states[:, 2:4]
    energy = 0.5 * (mom**2).sum(axis=1) + 0.5 * (q**2).sum(axis=1)
    increases = np.diff(energy)
    assert np.all(increases <= 1e-9)
    assert energy[-1] < energy[0]


def test_integrate_se_theta_moves_only_through_its_channels(sasaki_einstein):
    x0 = np.array([math.pi / 2, math.pi / 2, 0.3, -0.4, 0.25])
    p = flow.sample_brownian(5, 200, 1e-3, 9).with_zeroed_channels([3, 4])
    traj = flow.integrate(sasaki_einstein, x0, p)
    assert np.allclose(traj.states[:, 0], x0[0], atol=1e-15)
    assert np.allclose(traj.states[:, 1], x0[1], atol=1e-15)
    # phi still diffuses through channels 1, 2
    assert np.max(np.abs(traj.states[:, 2] - x0[2])) > 0.0


def test_integrate_path_dimension_mismatch(dissipative):
    p = flow.sample_brownian(3, 10, 0.01, 0)
    with pytest.raises(InvalidStep):
        flow.integrate(dissipative, [1.0, 0, 2.0, 0, 0], p)


def test_integrate_initial_state_length_checked(dissipative):
    p = flow.sample_brownian(1, 10, 0.01, 0)
    with pytest.raises(InvalidStep):
        flow.integrate(dissipative, [1.0, 0.0], p)
    with pytest.raises(InvalidStep):
        flow.integrate_augmented(dissipative, [1.0, 0.0, 0.0], p)


def test_integrate_deterministic_bitwise(dissipative):
    p = flow.sample_brownian(1, 500, 1e-3, 4)
    x0 = [1.0, 0.0, 2.0, 0.0, 0.0]
    a = flow.integrate(dissipative, x0, p)
    b = flow.integrate(dissipative, x0, p)
    assert np.array_equal(a.states, b.states)
    am = flow.integrate_augmented(dissipative, x0, p)
    bm = flow.integrate_augmented(dissipative, x0, p)
    assert np.array_equal(am.jacobians, bm.jacobians)
    assert np.array_equal(am.log_lambda, bm.log_lambda)


def test_scalar_stratonovich_test_equation():
    # H0 = 0, H1 = -z realizes dz = z o dB with closed form z0 exp(B_t)
    syst = geo.HamiltonianSystem(geo.DarbouxChart(1), "0", ["-z"])
    errors = {4: [], 1: []}
    for stream in range(50):
        p = flow.sample_brownian(1, 400, 1e-3, 77, stream_index=stream)
        exact = math.exp(p.increments.sum())
        for m in errors:
            traj = flow.integrate(syst, [0.0, 0.0, 1.0], flow.coarsen(p, m))
            errors[m].append(abs(traj.states[-1, 2] - exact))
    e4, e1 = np.mean(errors[4]), np.mean(errors[1])
    assert math.log2(e4 / e1) / 2.0 >= 0.7  # strong order about 1


def test_scheme_agreement_shrinks_with_dt(dissipative):
    p = flow.sample_brownian(1, 1000, 1e-3, 5)
    x0 = [1.0, 0.0, 2.0, 0.0, 0.0]
    gaps = []
    for m in (2, 1):
        c = flow.coarsen(p, m)
        heun = flow.integrate(dissipative, x0, c, "heun")
        mid = flow.integrate(dissipative, x0, c, "midpoint")
        gaps.append(np.max(np.abs(heun.states - mid.states)))
    assert gaps[1] <= 0.8 * gaps[0]


# ---------------------------------------------------------------------------
# augmented flow
# ---------------------------------------------------------------------------

def test_augmented_initial_conditions(dissipative):
    p = flow.sample_brownian(1, 10, 1e-3, 0)
    traj = flow.integrate_augmented(dissipative, [1.0, 0, 2.0, 0, 0], p)
    assert np.array_equal(traj.jacobians[0], np.eye(5))
    assert traj.log_lambda[0] == 0.0
    state = traj.state(3)
    assert state.x.shape == (5,) and state.jacobian.shape == (5, 5)


def test_augmented_log_lambda_exact_for_linear_friction(dissipative):
    p = flow.sample_brownian(1, 2000, 1e-3, 42)
    traj = flow.integrate_augmented(dissipative, [1.0, 0, 2.0, 0, 0], p)
    expected = -0.5 * (traj.times - traj.times[0])
    assert np.max(np.abs(traj.log_lambda - expected)) <= 1e-12
    assert np.all(traj.conformal_factor > 0.0)


def test_augmented_log_lambda_zero_for_se(sasaki_einstein):
    x0 = np.array([math.pi / 2, math.pi / 2, 0.3, -0.4, 0.25])
    p = flow.sample_brownian(5, 100, 1e-3, 4)
    traj = flow.integrate_augmented(sasaki_einstein, x0, p)
    assert np.all(traj.log_lambda == 0.0)


def test_augmented_midpoint_matches_heun_to_scheme_order(dissipative):
    p = flow.sample_brownian(1, 200, 1e-3, 8)
    x0 = [1.0, 0, 2.0, 0, 0]
    heun = flow.integrate_augmented(dissipative, x0, p, "heun")
    mid = flow.integrate_augmented(dissipative, x0, p, "midpoint")
    assert np.max(np.abs(heun.jacobians - mid.jacobians)) <= 1e-4
    assert np.max(np.abs(heun.log_lambda - mid.log_lambda)) <= 1e-12  # constant integrand


def test_deterministic_conformal_factor_quadrature():
    # H0 = z^2/2 gives Reeb rate z along the flow; z(t) = z0/(1 + z0 t / 2)
    # integrates to the closed form (1 + z0 t / 2)^(-2), order dt^2 quadrature.
    sysz = geo.HamiltonianSystem(geo.DarbouxChart(1), "z^2/2")
    devs = []
    for n in (500, 1000):
        p = flow.sample_brownian(0, n, 1.0 / n, 0)
        traj = flow.integrate_augmented(sysz, [0.3, -0.2, 1.0], p)
        exact = (1.0 + 0.5 * traj.times) ** -2.0
        devs.append(np.max(np.abs(np.exp(traj.log_lambda) - exact)))
    assert devs[0] <= 5e-7
    assert 3.0 <= devs[0] / devs[1] <= 5.0


# ---------------------------------------------------------------------------
# batched integration
# ---------------------------------------------------------------------------

# SE midpoint stalls at larger steps from its default state.
_BATCH_DT = {"dissipative-2d": 1e-3, "sasaki-einstein-t11": 1e-5}


@pytest.mark.parametrize("scheme", flow.SCHEMES)
@pytest.mark.parametrize("system_id", sorted(_BATCH_DT))
def test_batch_matches_scalar_paths(system_id, scheme):
    # A path's result must not depend on the other paths in its batch.
    entry = catalog.get_entry(system_id)
    system = entry.system()
    x0 = np.array(entry.default_initial_state)
    n_paths, n_steps, dt = 8, 100, _BATCH_DT[system_id]
    paths = [flow.sample_brownian(system.d, n_steps, dt, 123, stream_index=s) for s in range(n_paths)]
    increments = np.stack([p.increments for p in paths])
    finals = np.array([flow.integrate(system, x0, p, scheme).final_state for p in paths])
    batch = flow.integrate_batch_final(system, np.tile(x0, (n_paths, 1)), increments, dt, scheme)
    assert np.array_equal(batch, finals)
    alone = flow.integrate_batch_final(system, x0[None], increments[:1], dt, scheme)
    assert np.array_equal(batch[:1], alone)
