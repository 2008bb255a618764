import functools
import math

import numpy as np
import pytest

from contactsde import catalog, expr, flow, geometry as geo, verification as ver
from contactsde.errors import (
    ContactSDEError,
    DomainError,
    IndivisibleFactor,
    InvalidStep,
    MidpointDivergence,
    NumericalFailure,
    SingularChartPoint,
)

# The flag mode in which flow._run calls a batch's bound steps.
_RAISING = {"divide": "raise", "invalid": "raise", "over": "raise"}


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
    for bad in ([-1], [2], [0, 2]):
        with pytest.raises(InvalidStep):
            a.with_zeroed_channels(bad)


def test_brownian_deterministic_case():
    p = flow.sample_brownian(0, 10, 0.1, 5)
    assert p.increments.shape == (0, 10)


def test_brownian_invalid_step():
    with pytest.raises(InvalidStep):
        flow.sample_brownian(1, 10, 0.0, 1)
    with pytest.raises(InvalidStep):
        flow.sample_brownian(1, 10, -0.5, 1)
    for dt in (math.nan, math.inf):
        with pytest.raises(InvalidStep, match="dt must be finite and positive"):
            flow.sample_brownian(1, 3, dt, 0)
    # d and n_steps: a negative, a float or a bool is named in the message.
    for d, n_steps, bad in ((-1, 10, "d.*-1"), (1, -1, "n_steps.*-1"), (1, 10.0, "n_steps.*10.0"),
                            (1.0, 10, "d.*1.0"), (True, 10, "d.*True"), (1, False, "n_steps.*False")):
        with pytest.raises(InvalidStep, match=f"{bad}$"):
            flow.sample_brownian(d, n_steps, 1e-3, 1)


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
    # A factor is a count: a float or a bool once raised a bare TypeError or
    # acted as factor 1.  Each message names the value.
    for bad in (2.0, True, 0, -2):
        with pytest.raises(InvalidStep, match=f"factor.*got {bad}$"):
            flow.coarsen(p, bad)


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

    class LinearDrift:  # a noiseless stage with drift a_mat y
        fields = staticmethod(lambda y: a_mat @ y)

        @staticmethod
        def advance(y, dw, dt, k0, k1=None):
            return y + dt * k0 if k1 is None else y + 0.5 * dt * (k0 + k1)

    heun = geo._composed_heun(LinearDrift, x, np.zeros(0), dt)
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


def test_conformal_factor_overflow_is_a_numerical_failure():
    # log(lambda) reaches 1000 at T = 1, where exp overflows a double.
    sysz = geo.HamiltonianSystem(geo.DarbouxChart(1), "-1000*z")
    traj = flow.integrate_augmented(sysz, [0.1, 0.2, 0.3], flow.sample_brownian(0, 100, 0.01, 0))
    with pytest.raises(NumericalFailure) as err:
        traj.conformal_factor
    assert (err.value.operation, str(err.value)) == ("conformal_factor", "conformal factor overflows")
    head = flow.AugmentedTrajectory(
        traj.times[:51], traj.states[:51], traj.jacobians[:51], traj.log_lambda[:51])
    assert head.conformal_factor.tolist() == [math.exp(v) for v in head.log_lambda.tolist()]


# ---------------------------------------------------------------------------
# the single-path finiteness screen
# ---------------------------------------------------------------------------

class _ZeroStage:
    """A stage with zero fields, stepped by its Heun kernel or its bound
    batch steps, that counts its steps; after step ``k`` it writes ``value``
    into the last entry."""

    def __init__(self, k=None, value=None):
        self.k, self.value, self.steps = k, value, 0

    def heun_step(self, y, w, dt):
        self.steps += 1
        return [*y[:-1], self.value] if self.steps == self.k else list(y)

    def heun_binder(self, width):
        def bind(y, w, p, out):
            # The run binds three buffers of its own, no two of them shared.
            assert p.shape == out.shape == y.shape == (y.shape[0], width)
            assert not (np.shares_memory(p, y) or np.shares_memory(out, y)
                        or np.shares_memory(p, out))

            def step(dt):
                self.steps += 1
                out[...] = y
                if self.steps == self.k:
                    out[-1] = self.value
                return out
            return step
        return bind


def _screened_run(stage, y0, n_steps=5):
    return flow._run(stage, np.array(y0), np.zeros((0, n_steps)), 0.1, "heun", "screen", True)


def test_single_path_screen_passes_finite_entries_whose_sum_overflows():
    stage = _ZeroStage()
    history = _screened_run(stage, [1e308, 1e308])
    assert math.isinf(sum([1e308, 1e308]))
    assert stage.steps == 5 and (history == 1e308).all()


@pytest.mark.parametrize("base", [[0.1, 0.2, 0.5], [1e308, 1e308, 0.5]], ids=["small", "overflowing"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k", [0, 3])
def test_single_path_screen_stops_at_the_first_non_finite_state(base, value, k):
    # At the initial state (k = 0) or after step k, as the per-entry screen
    # alone stops: the stage never steps the non-finite state.
    stage = _ZeroStage(k, value)
    y0 = [*base[:-1], value] if k == 0 else base
    with pytest.raises(NumericalFailure) as err:
        _screened_run(stage, y0)
    assert (err.value.operation, str(err.value)) == ("screen", "non-finite values")
    assert stage.steps == k


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k", [0, 3])
def test_batch_screen_stops_at_the_first_non_finite_state(value, k):
    # A batch of two paths, the second finite throughout: the run stops at
    # the first non-finite state of any path and never steps it.
    stage = _ZeroStage(k, value)
    y0 = np.array([[0.1, 0.2], [1e308, 0.3], [value if k == 0 else 0.5, 0.4]])
    with pytest.raises(NumericalFailure) as err:
        flow._run(stage, y0, np.zeros((0, 5, 2)), 0.1, "heun", "screen", False)
    assert (err.value.operation, str(err.value)) == ("screen", "non-finite values")
    assert stage.steps == k


def test_negative_control_a_sum_only_screen_rejects_the_overflowing_state():
    # The sum screen without the per-entry fallback raises on the state that
    # the test above steps five times.
    def sum_only(y):
        if not math.isfinite(sum(y)):
            raise NumericalFailure("screen", "non-finite values")

    sum_only([0.1, 0.2, 0.5])
    with pytest.raises(NumericalFailure):
        sum_only([1e308, 1e308])


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
    assert batch.tobytes() == finals.tobytes()
    alone = flow.integrate_batch_final(system, x0[None], increments[:1], dt, scheme)
    assert batch[:1].tobytes() == alone.tobytes()
    reversed_three = flow.integrate_batch_final(
        system, np.tile(x0, (3, 1)), increments[2::-1], dt, scheme)
    assert reversed_three.tobytes() == finals[2::-1].tobytes()
    # One path's increments shared by stride 0, as finite_difference_jacobian passes them.
    shared = flow.integrate_batch_final(
        system, np.tile(x0, (3, 1)), np.broadcast_to(increments[4], (3, *increments.shape[1:])),
        dt, scheme)
    assert shared.tobytes() == np.tile(finals[4], (3, 1)).tobytes()


def test_batch_raises_the_domain_error_of_its_first_faulting_row():
    system = geo.HamiltonianSystem(geo.DarbouxChart(1), "p1^2/2 + log(q1)", ["p1"])
    states = np.array([[1.0, 0.5, 0.0], [-1.0, 0.5, 0.0], [-2.0, 0.1, 0.0]])
    path = flow.sample_brownian(1, 10, 1e-3, 5)
    with pytest.raises(DomainError) as alone:
        flow.integrate(system, states[1], path)
    increments = np.broadcast_to(path.increments, (3, 1, 10))
    with pytest.raises(DomainError) as batch:
        flow.integrate_batch_final(system, states, increments, path.dt)
    assert str(batch.value) == str(alone.value)
    assert str(batch.value).startswith("log of non-positive value")


_DT = 1e-3


@pytest.mark.parametrize("call, message", [
    (lambda s: flow.integrate_batch_final(s, np.zeros((2, 5)), np.zeros((2, 2, 10)), _DT),
     "path has 2 noise channels, system expects 1"),
    (lambda s: flow.integrate_batch_final(s, np.zeros((2, 5)), np.zeros((3, 1, 10)), _DT),
     "initial states have shape (2, 5), increments need (3, 5)"),
    (lambda s: flow.integrate_batch_final(s, np.zeros((2, 4)), np.zeros((2, 1, 10)), _DT),
     "initial state must have length 5"),
    (lambda s: flow.integrate_batch_final(s, np.zeros((2, 5)), np.zeros((2, 1, 10)), -_DT),
     "dt must be finite and positive, got -0.001"),
    (lambda s: flow.integrate_batch_final(s, np.zeros((2, 5)), np.zeros((2, 1, 10)), math.inf),
     "dt must be finite and positive, got inf"),
    (lambda s: flow.integrate_batch_final(s, np.zeros((2, 5)), np.zeros((1, 10)), _DT),
     "increments must be (B, d, n_steps), got shape (1, 10)"),
    (lambda s: flow.step(s, np.zeros(5), np.zeros(3), _DT),
     "path has 3 noise channels, system expects 1"),
    (lambda s: flow.step(s, np.zeros(4), np.zeros(1), _DT),
     "initial state must have length 5"),
    (lambda s: flow.step(s, np.zeros(5), np.zeros(1), -_DT),
     "dt must be finite and positive, got -0.001"),
    (lambda s: flow.step(s, np.zeros(5), np.zeros(1), math.inf),
     "dt must be finite and positive, got inf"),
    (lambda s: flow.step(s, np.zeros((2, 5)), np.zeros((3, 1)), _DT),
     "initial states have shape (2, 5), increments need (3, 5)"),
    (lambda s: flow.step(s, np.zeros((2, 5)), np.zeros(1), _DT),
     "initial states have shape (2, 5), increments need (5,)"),
    (lambda s: flow.step(s, np.zeros(5), 0.0, _DT),
     "increments must be (d,) or (B, d), got shape ()"),
], ids=["batch_channels", "batch_size", "batch_length", "batch_dt", "batch_dt_inf",
        "batch_rank", "step_channels", "step_length", "step_dt", "step_dt_inf",
        "step_batch_size", "step_shared_dw", "step_rank"])
def test_stepping_entry_points_validate_their_inputs(dissipative, call, message):
    # dissipative-2d has dim 5 and one noise channel.
    with pytest.raises(InvalidStep) as err:
        call(dissipative)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# the state stage's structure and summation order
# ---------------------------------------------------------------------------

def _channels_by_row(system):
    return [tuple(k for k, _ in row) for _, row in system._state_stage.rows]


def _constant_roots(system):
    return [e.value for e in system._state_stage.tape.exprs if isinstance(e, expr.Const)]


def test_state_stage_structural_pattern(sasaki_einstein, dissipative):
    # SE: the drift is all constants, 8 diffusion roots vary, the theta and
    # phi rows read one channel each and the psi row all five; the tape holds
    # 2 constants, the 8 varying roots and the chart's 2 margins.
    assert len(sasaki_einstein._state_stage.tape.exprs) == 2 + 8 + 2
    assert sasaki_einstein._state_stage.tape.exprs[-2:] == sasaki_einstein.chart.margin_exprs
    assert _channels_by_row(sasaki_einstein) == [(3,), (4,), (1,), (2,), (0, 1, 2, 3, 4)]
    assert _constant_roots(sasaki_einstein) == [3.0, 3.0]  # psi drift, psi row channel 0
    assert len(sasaki_einstein._state_stage.tape) == 26
    # dissipative-2d: the drift varies, the diffusion is constant and only z
    # is noisy; a Darboux chart has no margins.
    assert len(dissipative._state_stage.tape.exprs) == 1 + 5
    assert _channels_by_row(dissipative) == [(), (), (), (), (0,)]
    assert _constant_roots(dissipative) == [0.1]


def _ordered_heun(system, x, dw, dt):
    """One Heun step of one state in Python floats from the public dense
    queries: the drift added in full, row r's diffusion summed left to right
    over the channels where it is nonzero."""
    def fields(state):
        a, g = system.drift_diffusion(np.array(state))
        return a.tolist(), g.tolist()

    def advance(a, g, h):
        out = []
        for r, x_r in enumerate(x):
            v = x_r + (h * dt) * a[r]
            noise = None
            for g_rk, w_k in zip(g[r], dw):
                if g_rk != 0.0:
                    noise = g_rk * w_k if noise is None else noise + g_rk * w_k
            out.append(v if noise is None else v + h * noise)
        return out

    a0, g0 = fields(x)
    a1, g1 = fields(advance(a0, g0, 1.0))
    a = [u + v for u, v in zip(a0, a1)]
    g = [[u + v for u, v in zip(r0, r1)] for r0, r1 in zip(g0, g1)]
    return advance(a, g, 0.5)


@pytest.mark.parametrize("system_id", sorted(_BATCH_DT))
def test_state_stage_sums_each_row_left_to_right(system_id):
    system = catalog.get_entry(system_id).system()
    states = geo.sample_states(system.chart, 128, seed=3)
    dw = np.random.default_rng(4).normal(0.0, 0.03, size=(128, system.d))
    dt = 1e-3
    expected = np.array([_ordered_heun(system, x.tolist(), w.tolist(), dt)
                         for x, w in zip(states, dw)])
    assert flow.step(system, states[0], dw[0], dt).tobytes() == expected[0].tobytes()
    assert flow.step(system, states, dw, dt).tobytes() == expected.tobytes()


class _Line:
    """A one-coordinate chart with no singular points, for hand-built stages."""
    dim = 1
    margin_exprs = ()

    @staticmethod
    def _check_margins(x, margins):
        pass


def _cancelling_stage():
    """One row, no drift, three noise terms valued 1, 1e16 and -1e16 at u = 0.
    Channel 0's value is computed and the others are constants; all three
    are slots of the one tape, in channel order."""
    u = expr.var("u")
    return geo._Stage(_Line(), [expr.const(0.0)],
                      [expr.add(u, expr.const(1.0)), expr.const(1e16), expr.const(-1e16)],
                      3, ("u",))


def _advance_both_forms(stage):
    """``advance`` at u = 0, dw = 1: (Euler, Heun) for a single path and for
    a batch of one, and Euler's form by the batch's generated image."""
    out = []
    for y, dw in (([0.0], [1.0, 1.0, 1.0]), (np.zeros((1, 1)), np.ones((3, 1)))):
        k = stage.fields(y)
        out.append((stage.advance(y, dw, 0.1, k), stage.advance(y, dw, 0.1, k, k)))
    y, dw = np.zeros((1, 1)), np.ones((3, 1))
    with np.errstate(**_RAISING):
        return out, stage.image_binder(1)(y, dw, y, np.empty((1, 1)))(0.1)


def test_stage_sums_cancelling_noise_left_to_right():
    # (1 + 1e16) + -1e16 rounds to 0.0; any other order gives 1.0.
    forms, image = _advance_both_forms(_cancelling_stage())
    for single, batch in zip(*forms):
        assert np.array(single).tobytes() == batch.tobytes() == np.zeros(1).tobytes()
    assert image.tobytes() == np.zeros(1).tobytes()


def test_stage_sums_cancelling_noise_negative_control():
    # The same row summed right to left: (-1e16 + 1e16) + 1 reads 1.0 in both
    # forms and both representations, and in the batch's generated image,
    # missing the left-to-right 0.0 by 1.0.
    control = _cancelling_stage()
    control.rows = tuple((a, row[::-1]) for a, row in control.rows)
    control._generate()
    forms, image = _advance_both_forms(control)
    for single, batch in zip(*forms):
        assert single == [1.0] and batch.tolist() == [[1.0]]
    assert image.tolist() == [[1.0]]


# ---------------------------------------------------------------------------
# the augmented system on the same structural stage
# ---------------------------------------------------------------------------

def _structural(e):
    return not (isinstance(e, expr.Const) and e.value == 0.0)


class _PerHamiltonianStage:
    """The augmented stage assembled one Hamiltonian at a time from the
    public queries, in Python floats: the reference for the structural
    stage.  Each (DX J)_ab entry and each diffusion row is summed left to
    right over its structural nonzeros, read off the expression trees.  It
    steps a single path, a list of floats, as ``flow._run`` carries one; its
    Heun step is composed of ``fields`` and ``advance``."""

    def __init__(self, system):
        self.system = system
        dim, names = system.dim, system.chart.names
        # Per H_i and row a, the columns c whose DX_ac is not a constant zero.
        self.dx_columns = [
            [[c for c in range(dim) if _structural(expr.differentiate(comps[a], names[c]))]
             for a in range(dim)]
            for comps in system.vector_field_exprs
        ]
        self.nonzero = [
            [*map(_structural, comps), *(bool(cols) for cols in dx_cols for _ in range(dim)),
             _structural(system.chart.reeb_derivative_expr(h))]
            for comps, dx_cols, h in zip(system.vector_field_exprs, self.dx_columns,
                                         system.hamiltonians)
        ]

    def fields(self, y):
        system, dim = self.system, self.system.dim
        x, jac = np.array(y[:dim]), y[dim:-1]
        out = []
        for i, dx_cols in enumerate(self.dx_columns):
            dx = system.vector_field_jacobian(i, x).tolist()
            dj = []
            for a in range(dim):
                for b in range(dim):
                    acc = 0.0
                    for n, c in enumerate(dx_cols[a]):
                        term = dx[a][c] * jac[c * dim + b]
                        acc = term if n == 0 else acc + term
                    dj.append(acc)
            out.append([*system.vector_field(i, x).tolist(), *dj, -float(system.reeb_rate(i, x))])
        return out

    def advance(self, y, dw, dt, k0, k1=None):
        if k1 is None:
            k, h = k0, 1.0
        else:
            k, h = [[u + v for u, v in zip(f0, f1)] for f0, f1 in zip(k0, k1)], 0.5
        drift, nonzero = k[0], self.nonzero
        out = []
        for r, v in enumerate(y):
            if nonzero[0][r]:
                v = v + (h * dt) * drift[r]
            noise = None
            for ch, w in enumerate(dw, start=1):
                if nonzero[ch][r]:
                    term = k[ch][r] * w
                    noise = term if noise is None else noise + term
            if noise is not None:
                v = v + (noise if k1 is None else h * noise)
            out.append(v)
        return out

    def heun_step(self, y, w, dt):
        return geo._composed_heun(self, y, w, dt)


@pytest.mark.parametrize("scheme", flow.SCHEMES)
@pytest.mark.parametrize("system_id", sorted(_BATCH_DT))
def test_augmented_stage_matches_per_hamiltonian_reference(system_id, scheme):
    entry = catalog.get_entry(system_id)
    system = entry.system()
    dim = system.dim
    x0 = np.array(entry.default_initial_state)
    path = flow.sample_brownian(system.d, 60, _BATCH_DT[system_id], 7)
    traj = flow.integrate_augmented(system, x0, path, scheme)
    y0 = np.concatenate([x0, np.eye(dim).ravel(), [0.0]])
    ref = flow._run(_PerHamiltonianStage(system), y0, path.increments, path.dt,
                    scheme, "reference", True)
    got = np.concatenate(
        [traj.states, traj.jacobians.reshape(-1, dim * dim), traj.log_lambda[:, None]], axis=1
    )
    assert got.tobytes() == ref.tobytes()  # bit for bit, signs of zero included


@pytest.mark.parametrize("system_id", sorted(_BATCH_DT))
def test_heun_augmented_states_equal_state_integration(system_id):
    # The augmented stage applies the state rows exactly as the state stage does.
    entry = catalog.get_entry(system_id)
    system = entry.system()
    x0 = np.array(entry.default_initial_state)
    path = flow.sample_brownian(system.d, 200, _BATCH_DT[system_id], 1)
    aug = flow.integrate_augmented(system, x0, path, "heun")
    assert aug.states.tobytes() == flow.integrate(system, x0, path, "heun").states.tobytes()


@pytest.mark.parametrize("scheme", flow.SCHEMES)
def test_augmented_stage_batch_matches_single_paths(scheme):
    system = catalog.sasaki_einstein_system()
    x0 = np.array(catalog.get_entry("sasaki-einstein-t11").default_initial_state)
    paths = [flow.sample_brownian(system.d, 40, 1e-5, 5, stream_index=s) for s in range(3)]
    stage = system._augmented_stage
    y0 = np.concatenate([x0, np.eye(system.dim).ravel(), [0.0]])
    # Inside flow a batch carries its paths on the last axis: (n_aug, B)
    # states and (d, n_steps, B) increments.
    batch = flow._run(stage, np.tile(y0[:, None], (1, 3)),
                      np.stack([p.increments for p in paths], axis=-1),
                      1e-5, scheme, "batch", False)
    for row, path in zip(batch.T, paths):
        traj = flow.integrate_augmented(system, x0, path, scheme)
        alone = np.concatenate([traj.states[-1], traj.jacobians[-1].ravel(), traj.log_lambda[-1:]])
        assert row.tobytes() == alone.tobytes()


def test_augmented_stage_evaluates_and_guards_once(monkeypatch):
    system = catalog.sasaki_einstein_system()
    calls = {"kernel": 0, "tape": 0, "guard": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    stage = system._augmented_stage
    monkeypatch.setattr(stage, "heun_step", counted("kernel", stage.heun_step))
    monkeypatch.setattr(expr.EvalTape, "__call__", counted("tape", expr.EvalTape.__call__))
    monkeypatch.setattr(system.chart, "guard", counted("guard", system.chart.guard))
    path = flow.sample_brownian(system.d, 5, 1e-4, 2)
    flow.integrate_augmented(system, [1.0, 1.2, 0.3, -0.4, 0.25], path, "heun")
    # One kernel call per step evaluates both Heun stages inline and reads
    # the margins from its own locals: on the chart no tape or guard runs.
    assert calls == {"kernel": 5, "tape": 0, "guard": 0}


# ---------------------------------------------------------------------------
# the generated single-path Heun kernel and the (x, log_lambda) stage
# ---------------------------------------------------------------------------

# A Darboux system that exercises exp, log and ^ (a fractional power) in
# its fields, their derivatives and its Reeb rates, on every sampled state.
_INLINE_DARBOUX = ("(p1^2 + p2^2)/2 + exp(-q1^2/4)*z + log(2 + q2^2)",
                   ["(1 + q1^2)^1.5/10", "exp(p2/4)*z/10"])


def _kernel_systems():
    inline = geo.HamiltonianSystem(geo.DarbouxChart(2), *_INLINE_DARBOUX)
    return [catalog.dissipative_system(), catalog.sasaki_einstein_system(), inline]


# An SE system whose drift reads psi, so DX_H has psi columns the catalog's lacks.
_INLINE_SE = ("1 + psi*cos(theta1)/3 + sin(psi)*phi2", ["1", "(1/3)*cos(theta1)", "psi*phi1"])


def _every_product_stage(system, order=range, live=None):
    """The augmented stage built from roots in which entry (a, b) of DX_H J
    sums every product ``DX_H[a,c] * J[c,b]``, zero factors included, over
    c in ``order(dim)``; ascending is how the stage was once built.  Given a
    boolean (dim, dim) ``live``, ``J[c,b]`` is a constant 0.0 where it is
    False."""
    dim = system.dim
    names = [f"J[{c},{b}]" for c in range(dim) for b in range(dim)]
    jac = [expr.var(name) if live is None or live[divmod(i, dim)] else expr.const(0.0)
           for i, name in enumerate(names)]
    roots = [(
        *comps,
        *(functools.reduce(expr.add, (expr.mul(dx[a * dim + c], jac[c * dim + b])
                                      for c in order(dim)))
          for a in range(dim) for b in range(dim)),
        expr.negate(rate),
    ) for comps, dx, rate in zip(system.vector_field_exprs, system._jacobian_exprs,
                                 system._rate_exprs)]
    return system._stage(roots, (*system.chart.names, *names, "log(lambda)"))


def _live_mask(system):
    """Where J, started from I, can be nonzero, as a boolean (dim, dim): the
    identity closed under ``live |= P @ live``, where P marks the entries at
    which some DX_H is not a constant zero."""
    dim = system.dim
    pairs = np.zeros((dim, dim), dtype=int)
    for dx in system._jacobian_exprs:
        pairs |= np.array([not (isinstance(e, expr.Const) and e.value == 0.0)
                           for e in dx]).reshape(dim, dim)
    live = np.eye(dim, dtype=int)
    while True:
        grown = live | (pairs @ live > 0)
        if (grown == live).all():
            return live.astype(bool)
        live = grown


def _augmented_systems():
    return {"dissipative": catalog.dissipative_system(),
            "se": catalog.sasaki_einstein_system(),
            "inline_darboux": geo.HamiltonianSystem(geo.DarbouxChart(2), *_INLINE_DARBOUX),
            "inline_se": geo.HamiltonianSystem(geo.SasakiEinsteinChart(), *_INLINE_SE)}


@pytest.mark.parametrize("name", ["dissipative", "se", "inline_darboux", "inline_se"])
def test_augmented_stage_skips_zero_products_with_equal_roots(name):
    # The stage forms DX_H[a,c] * J[c,b] only where DX_H[a,c] is not a
    # constant zero and J[c,b] is live; its roots equal those that forming
    # every product gives with a constant 0.0 for each dead J entry.  The
    # tape holds the roots that are not constant zeros, and rows says where
    # the zeros are.
    system = _augmented_systems()[name]
    ours = system._augmented_stage
    theirs = _every_product_stage(system, live=_live_mask(system))
    assert ours.tape.exprs == theirs.tape.exprs
    assert ours.rows == theirs.rows
    assert ours.tape.layout == theirs.tape.layout


@pytest.mark.parametrize("name", ["inline_darboux", "inline_se"])
def test_augmented_stage_root_comparison_sees_the_summation_order(name):
    # Negative control: summing in descending c gives other trees wherever a
    # row of DX_H has two nonzeros over live J entries: 30 of the 68 tape
    # roots on the inline Darboux system and 28 of 52 on the inline SE
    # system differ.
    system = _augmented_systems()[name]
    ours = system._augmented_stage
    theirs = _every_product_stage(system, lambda dim: range(dim - 1, -1, -1),
                                  _live_mask(system))
    assert ours.rows == theirs.rows
    differ = sum(a != b for a, b in zip(ours.tape.exprs, theirs.tape.exprs))
    assert differ > 0


# Per system: the initial state, dt and the number of steps of the runs on
# which the augmented stage is checked against the every-product trees.
_ORACLE_RUNS = {"dissipative": ((1.0, 0.0, 2.0, 0.0, 0.0), 1e-3, 1000),
                "se": ((math.pi / 2, math.pi / 2, 0.3, -0.4, 0.25), 6.25e-5, 768),
                "inline_darboux": ((0.3, -0.2, 0.5, 0.1, 0.2), 1e-3, 300),
                "inline_se": ((1.0, 1.2, 0.3, -0.4, 0.25), 1e-4, 300)}


def _oracle_runs(system, stage, name, scheme, paths=4):
    """The history of one path from J = I, seed 1, and that of a batch of
    ``paths`` paths (streams 0, 1, ...) over the first 300 steps, each run
    on ``stage``."""
    x0, dt, steps = _ORACLE_RUNS[name]
    y0 = np.concatenate([x0, np.eye(system.dim).ravel(), [0.0]])
    increments = np.stack([flow.sample_brownian(system.d, steps, dt, 1, stream_index=s).increments
                           for s in range(paths)], axis=-1)
    single = flow._run(stage, y0, increments[..., 0], dt, scheme, "oracle", True)
    batch = flow._run(stage, np.tile(y0[:, None], (1, paths)), increments[:, :300], dt, scheme,
                      "oracle", True)
    return single, batch


@pytest.mark.parametrize("scheme", flow.SCHEMES)
@pytest.mark.parametrize("name", ["dissipative", "se", "inline_darboux", "inline_se"])
def test_augmented_stage_runs_as_every_product_stage(name, scheme):
    # The stage leaves out the products whose J factor is structurally zero.
    # From J = I its runs equal those of the trees that form every product:
    # states, J and log_lambda bit for bit, signs of zero included.
    system = _augmented_systems()[name]
    ours = _oracle_runs(system, system._augmented_stage, name, scheme)
    theirs = _oracle_runs(system, _every_product_stage(system), name, scheme)
    assert [h.tobytes() for h in ours] == [h.tobytes() for h in theirs]


@pytest.mark.parametrize("name, misses, entries",
                         [("dissipative", (0.5, 0.05), 10), ("se", (1e-18, 1e-18), 2)])
def test_augmented_runs_control_with_an_unclosed_live_set_misses(name, misses, entries):
    # Negative control: a live set that stops at the identity, with no
    # closure, under Heun.  J misses the every-product runs by up to 0.88 on
    # dissipative-2d (T = 1, 10 entries differ at T; the batch by 0.098 at
    # T = 0.3) and by 3.2e-18 on SE (T = 0.048, 2 entries; the batch by
    # 1.9e-18 at T = 0.019); the state and log_lambda rows read no J.
    system = _augmented_systems()[name]
    dim = system.dim
    control = _every_product_stage(system, live=np.eye(dim, dtype=bool))
    ours = _oracle_runs(system, control, name, "heun")
    theirs = _oracle_runs(system, _every_product_stage(system), name, "heun")
    jac = slice(dim, dim + dim * dim)
    for a, b, miss in zip(ours, theirs, misses):
        assert a[:, :dim].tobytes() == b[:, :dim].tobytes()
        assert a[:, -1].tobytes() == b[:, -1].tobytes()
        assert np.max(np.abs(a[:, jac] - b[:, jac])) > miss
    assert np.count_nonzero(ours[0][-1] != theirs[0][-1]) == entries


@pytest.mark.parametrize("scheme", flow.SCHEMES)
def test_augmented_stage_leaves_the_chart_where_every_product_stage_does(scheme):
    # An SE path of 300 steps, then an increment that lands Heun's predictor
    # (midpoint's first midpoint: twice the increment) on theta1 = 0, then
    # 299 more: both stages run the first 300 steps bit for bit and raise
    # the same error, at the same state, in step 301.
    system = catalog.sasaki_einstein_system()
    ours, theirs = system._augmented_stage, _every_product_stage(system)
    x0, dt, _ = _ORACLE_RUNS["se"]
    y0 = np.concatenate([x0, np.eye(system.dim).ravel(), [0.0]])
    increments = flow.sample_brownian(system.d, 600, dt, 1).increments.copy()
    runs = [flow._run(stage, y0, increments[:, :300], dt, scheme, "oracle", True)
            for stage in (ours, theirs)]
    assert runs[0].tobytes() == runs[1].tobytes()
    theta1 = runs[0][-1, 0]
    increments[:, 300] = 0.0
    increments[3, 300] = -(2.0 if scheme == "midpoint" else 1.0) * theta1 * math.sin(theta1) / 3.0
    outcomes = [_outcome(flow._run, stage, y0, increments[:, :n], dt, scheme, "oracle", False)
                for stage in (ours, theirs) for n in (301, 600)]
    assert outcomes[0][0] is SingularChartPoint
    assert outcomes == [outcomes[0]] * 4


# sha256 (first 16 hex digits) of every text compiled while a catalog system
# and its three stages are built, in order: the chart's tapes, then per stage
# its tape, its _euler/_heun text and its heun_step, as the design before the
# stage formatted the tape's own walk generated them; the augmented stage's
# three (the 7th to 9th) as they are since its roots fold J's structural zeros.
_GENERATED_TEXTS = {
    "dissipative-2d": [
        "02c6710e22189157", "850ffe8969e48bb4", "0081402f9970dfdc", "e5f2f8ceddd508c7",
        "fd43eac0d00869da", "ba11da22af1561f4", "cf72990613738a36", "f4a62494d7294706",
        "19b5062ff65c39de", "42a10c21415fe28c", "e0fd0b90b9ee5f83", "441a301e0e2def2c"],
    "sasaki-einstein-t11": [
        "094f41a45cacdc3f", "66e3e2e90469ace5", "0a8dd713468064c8", "e7e4854a2ada57ed",
        "ca6fbde4ee11e68c", "7b9bd1dbef0ede27", "b235fbd94aea032e", "5b97a50a9ed096b7",
        "9574ebad54df0710", "e7e4854a2ada57ed", "12a154ebfc524550", "3510b0643e56f407"],
}


@pytest.mark.parametrize("system_id", list(_GENERATED_TEXTS))
def test_every_generated_text_is_unchanged(system_id, monkeypatch):
    # Each stage formats its tape's one walk of the roots instead of walking
    # them again; the texts (tape, _euler and _heun, heun_step) stay string
    # for string what they were.  Array mode's grouped text is built on the
    # first array-mode call, so no build compiles it.
    import hashlib

    texts, factory = [], expr._factory

    def recording(source):
        texts.append(source)
        return factory(source)

    monkeypatch.setattr(expr, "_factory", recording)
    system = catalog.get_entry(system_id).system()
    system._state_stage, system._augmented_stage, system._conformal_stage
    assert [hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts] \
        == _GENERATED_TEXTS[system_id]


# sha256 (first 16 hex digits) of each stage's batch text, the one text
# that defines its heun_binder and image_binder, per catalog system in the
# order state, augmented, conformal, as the scheduler generated them when
# the tapes' array mode still had a per-call text of its own; the augmented
# stage's as it is since its roots fold J's structural zeros.
_BATCH_TEXTS = {
    "dissipative-2d": ["4af29b33675591d1", "97ab7d0324e9be29", "caac60cb167f55b0"],
    "sasaki-einstein-t11": ["d1071b122b3141d2", "0e6aa20c94976893", "0ca4648b7684aa1e"],
}


@pytest.mark.parametrize("system_id", list(_BATCH_TEXTS))
def test_every_batch_text_is_unchanged(system_id, monkeypatch):
    # Tapes and stages share one emitter of grouped array text; each stage's
    # batch text stays string for string what it was.
    import hashlib

    texts, factory = [], expr._factory

    def recording(source):
        texts.append(source)
        return factory(source)

    system = catalog.get_entry(system_id).system()
    stages = system._state_stage, system._augmented_stage, system._conformal_stage
    monkeypatch.setattr(expr, "_factory", recording)
    for stage in stages:
        stage._generate_batch()
    assert [hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts] \
        == _BATCH_TEXTS[system_id]


def _extended_state(stage, x, rng):
    """``x`` extended with random values for the stage's other slots (J, log_lambda)."""
    return [*x, *rng.normal(0.0, 1.0, size=len(stage.rows) - len(x))]


@pytest.mark.parametrize("stage_name", ["_state_stage", "_augmented_stage", "_conformal_stage"])
@pytest.mark.parametrize("system_index", range(3), ids=["dissipative", "se", "inline"])
def test_heun_kernel_matches_fields_and_advance(system_index, stage_name, monkeypatch):
    system = _kernel_systems()[system_index]
    stage = getattr(system, stage_name)
    rng = np.random.default_rng(19 + system_index)
    dt = 1e-3
    inputs = [(_extended_state(stage, x, rng), rng.normal(0.0, math.sqrt(dt), system.d).tolist())
              for x in geo.sample_states(system.chart, 300, seed=19).tolist()]
    theirs = [geo._composed_heun(stage, y, w, dt) for y, w in inputs]

    def no_tape(tape, values):
        raise AssertionError("the kernel fell back to fields and advance")

    # On the chart and on the fields' domain, no step leaves the kernel.
    monkeypatch.setattr(expr.EvalTape, "__call__", no_tape)
    ours = [stage.heun_step(y, w, dt) for y, w in inputs]
    assert all(type(y) is list for y in ours)
    assert np.array(ours).tobytes() == np.array(theirs).tobytes()  # signs of zero too


def _outcome(step, *args):
    try:
        step(*args)
    except ContactSDEError as err:
        return type(err), str(err)
    return None


def _log_system():
    """log(q1) in H_0, and a noise H_1 = p1 that moves q1 by dw."""
    return geo.HamiltonianSystem(geo.DarbouxChart(1), "log(q1) + p1^2/2", ["p1"])


@pytest.mark.parametrize("case", ["predictor_off_chart", "first_on_the_edge",
                                  "first_domain_fault", "second_domain_fault"])
def test_heun_kernel_cold_path_raises_the_composed_steps_error(case):
    se = catalog.sasaki_einstein_system()
    theta1 = 0.7
    cases = {
        # theta1's row is 3/sin(theta1) dw^3: this dw^3 lands the predictor on theta1 ~ 0.
        "predictor_off_chart": (se, [theta1, 1.2, 0.3, -0.4, 0.25],
                                [0.0, 0.0, 0.0, -theta1 * math.sin(theta1) / 3.0, 0.0]),
        # sin(theta1) = 0 divides by zero in the first evaluation.
        "first_on_the_edge": (se, [0.0, 1.2, 0.3, -0.4, 0.25], [0.0] * 5),
        "first_domain_fault": (_log_system(), [-0.5, 0.1, 0.2], [0.0]),
        # The first evaluation is on its domain; the predictor moves q1 to -0.5.
        "second_domain_fault": (_log_system(), [0.5, 0.1, 0.2], [-1.0]),
    }
    system, x, w = cases[case]
    expected = {"predictor_off_chart": SingularChartPoint, "first_on_the_edge": SingularChartPoint,
                "first_domain_fault": DomainError, "second_domain_fault": DomainError}[case]
    rng = np.random.default_rng(5)
    for stage in (system._state_stage, system._augmented_stage, system._conformal_stage):
        y = _extended_state(stage, x, rng)
        ours = _outcome(stage.heun_step, y, w, 1e-3)
        assert ours is not None and ours[0] is expected
        assert ours == _outcome(geo._composed_heun, stage, y, w, 1e-3)


# ---------------------------------------------------------------------------
# the generated batch forms: Heun's step and the midpoint image
# ---------------------------------------------------------------------------

def _batch_inputs(system, stage, width, seed):
    """(y, w, z): (m, width) states on the chart, extended with normal J and
    log_lambda rows, increments of step 1e-3, and a second such batch."""
    rng = np.random.default_rng(seed)

    def states():
        x = system.chart.sample_states(width, rng).T
        rest = rng.normal(size=(len(stage.rows) - len(x), width))
        return np.ascontiguousarray(np.vstack([x, rest]))
    y, z = states(), states()
    return y, np.ascontiguousarray(rng.normal(0.0, math.sqrt(1e-3), (system.d, width))), z


def _batch_forms(stage, y, w, z):
    """Heun's step and the midpoint image of the generated batch forms, each
    bound to its arrays and then called as ``flow._run`` calls it, checked
    to write into and return its ``out`` and to leave its inputs alone."""
    inputs = [a.copy() for a in (y, w, z)]
    p, out, image_out = (np.empty_like(y) for _ in range(3))
    with np.errstate(**_RAISING):
        heun = stage.heun_binder(y.shape[1])(y, w, p, out)(1e-3)
        image = stage.image_binder(y.shape[1])(y, w, z, image_out)(1e-3)
    assert heun is out and image is image_out
    assert all(a.tobytes() == b.tobytes() for a, b in zip((y, w, z), inputs))
    return heun, image


@pytest.mark.parametrize("width", [1, 7, 1024, 1031, 5000])
@pytest.mark.parametrize("stage_name", ["_state_stage", "_augmented_stage", "_conformal_stage"])
@pytest.mark.parametrize("system_index", range(3), ids=["dissipative", "se", "inline"])
def test_batch_forms_match_fields_and_advance(system_index, stage_name, width, monkeypatch):
    # Per element the generated forms perform the operations of fields and
    # advance in the same order: the same bits, signs of zero included.
    system = _kernel_systems()[system_index]
    stage = getattr(system, stage_name)
    y, w, z = _batch_inputs(system, stage, width, 23 + system_index)
    with np.errstate(all="ignore"):
        theirs = (geo._composed_heun(stage, y, w, 1e-3), stage.advance(y, w, 1e-3, stage.fields(z)))

    def no_tape(tape, values):
        raise AssertionError("a batch form fell back to fields and advance")

    # On the chart and on the fields' domain no step leaves the hot text.
    monkeypatch.setattr(expr.EvalTape, "__call__", no_tape)
    ours = _batch_forms(stage, y, w, z)
    assert [a.tobytes() for a in ours] == [a.tobytes() for a in theirs]


@pytest.mark.parametrize("control", ["rows", "order"])
def test_batch_forms_control_with_the_update_order_changed_misses(control):
    # Negative control, on SE's state stage at 1024 states.  The theta rows'
    # updates swapped ("rows") miss fields and advance by up to 261 (Heun)
    # and 2.3 (image), on all 1024 paths.  Every row's noise terms summed
    # right to left ("order"; only the psi row has more than one) miss by
    # 1.8e-15 in 34 (Heun) and 23 (image) of the 1024 paths.
    system = catalog.sasaki_einstein_system()
    stage = system._state_stage
    rows = list(stage.rows)
    if control == "rows":
        rows[0], rows[1] = rows[1], rows[0]
    else:
        rows = [(a, noise[::-1]) for a, noise in rows]
    changed = object.__new__(geo._Stage)  # a copy whose forms are generated from rows
    vars(changed).update(stage.__getstate__(), rows=tuple(rows))
    y, w, z = _batch_inputs(system, stage, 1024, 29)
    with np.errstate(all="ignore"):
        theirs = (geo._composed_heun(stage, y, w, 1e-3), stage.advance(y, w, 1e-3, stage.fields(z)))
    ours = _batch_forms(changed, y, w, z)
    misses = [float(np.abs(a - b).max()) for a, b in zip(ours, theirs)]
    differing = [int((a != b).any(axis=0).sum()) for a, b in zip(ours, theirs)]
    print(f"batch form control {control}: max miss {misses}, differing paths {differing}")
    assert all(m > 0.0 for m in misses) and all(n > 0 for n in differing)


def _reference_midpoint_step(stage, y, dw, dt, tol=1e-13, max_iter=50):
    """A batch's midpoint step as it ran before its sweep moved onto the
    run's buffers: out of place, each image composed of fields and advance,
    with its own tolerance and sweep limit."""
    def image(z):
        return stage.advance(y, dw, dt, stage.fields(z))

    y_new = image(y)
    done = np.zeros(y.shape[1:], dtype=bool)
    for _ in range(max_iter):
        y_next = image(0.5 * (y + y_new))
        err = np.abs(y_next - y_new).max(axis=0)
        y_new = np.where(done, y_new, y_next)
        done |= err <= tol * np.maximum(1.0, np.abs(y_new).max(axis=0))
        if done.all():
            return y_new
    raise MidpointDivergence("reference midpoint did not converge")


def _midpoint_misses(system_id, T, dt, paths, monkeypatch):
    """Streams 0..paths-1 of master seed 1 from the default state, midpoint,
    in one batch and, for 64 paths, in batches of 7, against the reference
    sweep: per run, the paths that differ and the largest difference, and
    the (wider width, width) of every compaction of the whole batch's run."""
    entry = catalog.get_entry(system_id)
    system = entry.system()
    n_steps = round(T / dt)
    increments = np.stack([flow.sample_brownian(system.d, n_steps, dt, 1, stream_index=s).increments
                           for s in range(paths)])
    states = np.tile(entry.default_initial_state, (paths, 1))
    y = np.ascontiguousarray(states.T)
    with np.errstate(all="ignore"):
        for j in range(n_steps):
            y = _reference_midpoint_step(system._state_stage, y,
                                         np.ascontiguousarray(increments[:, :, j].T), dt)
    expected = y.T
    gathers, gather = [], flow._Sweep.gather

    def recorded(sweep, wider, left):
        gathers.append((wider.z.shape[1], sweep.z.shape[1]))
        return gather(sweep, wider, left)
    monkeypatch.setattr(flow._Sweep, "gather", recorded)
    runs = [flow.integrate_batch_final(system, states, increments, dt, "midpoint")]
    monkeypatch.setattr(flow._Sweep, "gather", gather)
    if paths <= 64:
        runs.append(np.concatenate([
            flow.integrate_batch_final(system, states[i:i + 7], increments[i:i + 7], dt,
                                       "midpoint")
            for i in range(0, paths, 7)]))
    return ([int((a != expected).any(axis=1).sum()) for a in runs],
            [float(np.abs(a - expected).max()) for a in runs], gathers)


@pytest.mark.parametrize("system_id, T, dt, paths", [
    ("sasaki-einstein-t11", 0.005, 1e-5, 64), ("dissipative-2d", 0.1, 1e-3, 64),
    ("sasaki-einstein-t11", 0.005, 1e-5, 1024),
], ids=["sasaki-einstein-t11-0.005-1e-05", "dissipative-2d-0.1-0.001",
        "sasaki-einstein-t11-0.005-1e-05-1024"])
def test_batch_midpoint_matches_the_out_of_place_sweep(system_id, T, dt, paths, monkeypatch):
    # Streams 0-63 of master seed 1 from the default state, in one batch of
    # 64 and in batches of 7, and streams 0-1023 in one batch: every path's
    # final state has the bits of the reference sweep, which tests each path
    # against 1e-13 within 50 sweeps and never compacts.  A tolerance of
    # 1e-6 for 1e-13 in flow._MIDPOINT_TOL changes 64 of the 64 SE paths and
    # 64 of the 64 dissipative-2d paths.  The 1024 SE paths move to
    # narrower sweeps once at most half of a sweep's width still sweeps, and
    # from a narrower sweep to a narrower one still.  Measured: 772
    # compactions, 500 of the whole batch (one per step, to widths 4 to
    # 512) and 272 of a narrower sweep (from widths 2 to 512).
    differing, _, gathers = _midpoint_misses(system_id, T, dt, paths, monkeypatch)
    assert differing == [0] * len(differing), differing
    if paths == 1024:
        deeper = [g for g in gathers if g[0] < paths]
        print(f"compactions: {len(gathers)}, from a narrower sweep: {len(deeper)}, "
              f"widths {sorted(set(gathers))}")
        assert gathers and deeper, gathers


def _reversed_scatter(sweep):
    """``flow._Sweep.scatter`` with each path's result written into the
    column of the path at the mirrored place of the narrower sweep."""
    paths = sweep.paths
    index = sweep.index[:paths][::-1]
    for row, target in zip(sweep.new[:, :paths], sweep.wider.new):
        target.put(index, row, mode="clip")
    return sweep.wider


def test_batch_midpoint_control_with_reversed_scatter_misses(monkeypatch):
    # Negative control: the 1024 SE paths above, with each narrower sweep's
    # results written back in reversed column order.  Measured: 1024 of the
    # 1024 paths miss, by up to 1.08.
    monkeypatch.setattr(flow._Sweep, "scatter", _reversed_scatter)
    differing, misses, _ = _midpoint_misses("sasaki-einstein-t11", 0.005, 1e-5, 1024, monkeypatch)
    print(f"reversed scatter control: differing paths {differing}, max miss {misses}")
    assert differing[0] > 0 and misses[0] > 0.0, (differing, misses)


def _heun_misses(system_id, dt, n_steps):
    """Streams 0-63 of master seed 1 from the default state, Heun, in one
    batch of 64 and each at B = 1, against the out-of-place steps, each
    composed of fields and advance: per run, the paths that differ and the
    largest difference."""
    entry = catalog.get_entry(system_id)
    system = entry.system()
    increments = np.stack([flow.sample_brownian(system.d, n_steps, dt, 1, stream_index=s).increments
                           for s in range(64)])
    states = np.tile(entry.default_initial_state, (64, 1))
    y = np.ascontiguousarray(states.T)
    with np.errstate(all="ignore"):
        for j in range(n_steps):
            y = geo._composed_heun(system._state_stage, y,
                                   np.ascontiguousarray(increments[:, :, j].T), dt)
    expected = y.T
    whole = flow.integrate_batch_final(system, states, increments, dt)
    alone = np.concatenate([flow.integrate_batch_final(system, x[None], dw[None], dt)
                            for x, dw in zip(states, increments)])
    return ([int((a != expected).any(axis=1).sum()) for a in (whole, alone)],
            [float(np.abs(a - expected).max()) for a in (whole, alone)])


@pytest.mark.parametrize("n_steps", [50, 51], ids=["even", "odd"])
@pytest.mark.parametrize("system_id, dt", [("sasaki-einstein-t11", 1e-5), ("dissipative-2d", 1e-3)])
def test_batch_heun_matches_the_out_of_place_steps(system_id, dt, n_steps):
    # A run's two bound Heun steps take turns, one per parity of its state
    # buffers, and an odd step count ends on the other buffer than an even
    # one: every path has the bits of the composed steps, in a batch of 64
    # and alone.
    differing, _ = _heun_misses(system_id, dt, n_steps)
    assert differing == [0, 0], differing


def _one_buffer_heun_steps(stage, y, w):
    """``flow._heun_steps`` with both steps bound to one output buffer, so
    that every step reads the run's first state."""
    bind = stage.heun_binder(y.shape[1])
    p, other = np.empty_like(y), np.empty_like(y)
    return (bind(y, w, p, other),) * 2


@pytest.mark.parametrize("system_id, dt", [("sasaki-einstein-t11", 1e-5), ("dissipative-2d", 1e-3)])
def test_batch_heun_control_with_one_output_buffer_misses(system_id, dt, monkeypatch):
    # Negative control: both Heun steps bound to one output buffer, so the
    # 51 steps end one step from the initial state.  Measured: all 64 paths
    # miss, in the batch and alone, by up to 0.196 on SE and 0.116 on
    # dissipative-2d.
    monkeypatch.setitem(flow._BATCH_STEPPERS, "heun", _one_buffer_heun_steps)
    differing, misses = _heun_misses(system_id, dt, 51)
    print(f"one-buffer Heun control {system_id}: differing paths {differing}, max miss {misses}")
    assert differing == [64, 64], differing


@pytest.mark.parametrize("scheme", flow.SCHEMES)
def test_batch_runs_of_no_paths_or_no_steps(scheme, monkeypatch):
    # B = 0 gives (0, m); n_steps = 0 gives x0 back, on a fresh system
    # whose stages have generated no batch form, and generates none.
    system = catalog.sasaki_einstein_system()
    states = np.tile(catalog.get_entry("sasaki-einstein-t11").default_initial_state, (3, 1))
    states[1, 4] = 0.7
    assert flow.integrate_batch_final(system, states[:0], np.empty((0, 5, 10)), 1e-5,
                                      scheme).shape == (0, 5)
    assert flow.step(system, states[:0], np.empty((0, 5)), 1e-5, scheme).shape == (0, 5)

    def no_batch_form(stage):
        raise AssertionError("a run of no steps generated its stage's batch forms")

    monkeypatch.setattr(geo._Stage, "_generate_batch", no_batch_form)
    final = flow.integrate_batch_final(catalog.sasaki_einstein_system(), states,
                                       np.empty((3, 5, 0)), 1e-5, scheme)
    assert final.shape == states.shape and final.tobytes() == states.tobytes()


@pytest.mark.parametrize("scheme, error", [
    ("heun", (NumericalFailure, "nan_increment", "non-finite values")),
    ("midpoint", (MidpointDivergence, None,
                  "midpoint fixed point did not reach 1e-13 within 50 sweeps"))])
@pytest.mark.parametrize("system_id", ["dissipative-2d", "sasaki-einstein-t11"])
def test_batch_nan_increment_stops_the_run(system_id, scheme, error):
    # A NaN increment of path 2 at step 3: Heun's step carries it into the
    # state, which the finiteness screen stops; no midpoint sweep meets its
    # test on that path.
    entry = catalog.get_entry(system_id)
    system = entry.system()
    states = np.tile(entry.default_initial_state, (4, 1))
    increments = np.stack([flow.sample_brownian(system.d, 6, 1e-5, 1, stream_index=s).increments
                           for s in range(4)])
    increments[2, 0, 3] = math.nan
    stage = system._state_stage
    y = np.ascontiguousarray(states.T)
    got = _error(lambda: flow._run(stage, y, np.moveaxis(increments, 0, -1), 1e-5, scheme,
                                   "nan_increment", False))
    assert got == error


def _traced_peak(step, dt, calls=100) -> int:
    """Bytes by which ``calls`` calls of ``step(dt)``, after one warm-up
    call, raise tracemalloc's traced peak above the memory traced before
    them, under the flag mode of a batch run."""
    import tracemalloc

    with np.errstate(**_RAISING):
        step(dt)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(calls):
                step(dt)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("form", ["heun", "image"])
@pytest.mark.parametrize("system_index", range(2), ids=["dissipative", "se"])
def test_a_bound_batch_step_allocates_no_array(system_index, form):
    # Bound once, a step is only calls into arrays made at binding: 100 calls
    # at B = 1024 raise the traced peak by less than 4 KB, where one (m, B)
    # temporary is 40 KB (see the control below).
    system = _kernel_systems()[system_index]
    stage = system._state_stage
    y, w, z = _batch_inputs(system, stage, 1024, 23 + system_index)
    p, out = np.empty_like(y), np.empty_like(y)
    step = (stage.heun_binder(1024)(y, w, p, out) if form == "heun"
            else stage.image_binder(1024)(y, w, z, out))
    peak = _traced_peak(step, 1e-3)
    print(f"bound {form} step, {system.chart.kind}: traced peak {peak} B over 100 calls")
    assert peak < 4096, peak


def test_a_whole_midpoint_step_allocates_no_array(monkeypatch):
    # One batch midpoint step at B = 1024, bound once as _run binds it: its
    # first image, every sweep and per-path test, and the compactions into
    # narrower sweeps and back, through index arrays of the run, once a
    # first call has made the widths that the step moves to.  On SE, from
    # the states that streams 0-1023 of master seed 1 reach from the default
    # state in 50 steps of 1e-5, with their 51st increments, the step
    # compacts twice (measured: to width 512, then to 8), and 100 calls
    # raise the traced peak by less than 4 KB, as a bound image does.
    # (dissipative-2d's paths meet their tests at one sweep: no compaction.)
    entry = catalog.get_entry("sasaki-einstein-t11")
    system = entry.system()
    noise = np.empty((system.d, 51, 1024))
    flow._draw_step_major(noise, 1e-5, 1, 0)
    states = np.tile(entry.default_initial_state, (1024, 1))
    y = np.ascontiguousarray(flow.integrate_batch_final(
        system, states, noise[:, :50].transpose(2, 0, 1), 1e-5, "midpoint").T)
    step = flow._midpoint_steps(system._state_stage, y, np.ascontiguousarray(noise[:, 50]))[0]
    widths, gather = [], flow._Sweep.gather

    def recorded(sweep, wider, left):
        widths.append(sweep.z.shape[1])
        return gather(sweep, wider, left)
    monkeypatch.setattr(flow._Sweep, "gather", recorded)
    with np.errstate(**_RAISING):
        step(1e-5)
    monkeypatch.setattr(flow._Sweep, "gather", gather)
    peak = _traced_peak(step, 1e-5)
    print(f"midpoint step: compactions to widths {widths}, traced peak {peak} B over 100 calls")
    assert len(widths) >= 2 and peak < 4096, (widths, peak)


def test_negative_control_an_allocating_step_misses_the_allocation_bound():
    # A step that makes one (5, 1024) temporary per call, as a call without
    # an output array does: measured, it raises the traced peak by about
    # 41 KB, ten times the bound.
    y = np.ones((5, 1024))
    out = np.empty_like(y)

    def step(dt):
        np.copyto(out, np.multiply(dt, y))
        return out

    peak = _traced_peak(step, 1e-3)
    print(f"allocating step: traced peak {peak} B over 100 calls")
    assert peak >= 4096 and peak >= y.nbytes, peak


_DENSE_LOG =geo.HamiltonianSystem(geo.DarbouxChart(2), _INLINE_DARBOUX[0] + " + log(q1)",
                                   _INLINE_DARBOUX[1])
_LOG_MESSAGE = "log of non-positive value in Func(fn='log', arg=Var(name='q1'))"
_DIVISION_MESSAGE = \
    "division by zero in BinOp(op='/', left=Const(value=1.0), right=Var(name='q1'))"


def _cold_cases():
    """(system, states (B, dim), increments (B, d, n), dt, error per scheme)."""
    se = catalog.sasaki_einstein_system()
    x0 = catalog.get_entry("sasaki-einstein-t11").default_initial_state
    se_states = np.tile(x0, (5, 1))
    se_states[3, 0] = 1e-12
    singular = (SingularChartPoint, None, "|sin(theta1)| below 1e-09 at state "
                "(1e-12, 1.5707963267948966, 0.3, -0.4, 0.25)")
    # Path 2 sits at q1 = 0, where X_H's 1/q1 divides by zero ahead of
    # H's log(q1); path 4 at q1 = -0.5, where log(q1) faults first.
    dense = np.tile([1.0, 0.5, 0.2, -0.3, 0.1], (6, 1))
    dense[2, 0], dense[4, 0] = 0.0, -0.5
    # H = q1*p1 moves q1 by q1 dt: path 1's predictor overflows, so its
    # second evaluation reads inf - inf.
    linear = geo.HamiltonianSystem(geo.DarbouxChart(1), "q1*p1", ["0.1*z"])
    overflow = np.tile([1.0, 0.5, 0.2], (4, 1))
    overflow[1, 0] = 1e308
    se_increments = np.stack([flow.sample_brownian(5, 4, 1e-5, 1, s).increments for s in range(5)])
    return {
        "se_off_chart": (se, se_states, se_increments, 1e-5, dict.fromkeys(flow.SCHEMES, singular)),
        "dense_division_first": (_DENSE_LOG, dense, np.zeros((6, 2, 4)), 1e-3, dict.fromkeys(
            flow.SCHEMES, (DomainError, None, _DIVISION_MESSAGE))),
        "dense_log_first": (_DENSE_LOG, dense[::-1], np.zeros((6, 2, 4)), 1e-3, dict.fromkeys(
            flow.SCHEMES, (DomainError, None, _LOG_MESSAGE))),
        "overflowing_update": (linear, overflow, np.zeros((4, 1, 3)), 1.0, {
            "heun": (NumericalFailure, "integrate_batch_final", "non-finite values"),
            "midpoint": (MidpointDivergence, None,
                         "midpoint fixed point did not reach 1e-13 within 50 sweeps")}),
    }


def _error(call):
    try:
        call()
    except ContactSDEError as err:
        return type(err), getattr(err, "operation", None), str(err)
    return None


@pytest.mark.parametrize("scheme", flow.SCHEMES)
@pytest.mark.parametrize("case", ["se_off_chart", "dense_division_first", "dense_log_first",
                                  "overflowing_update"])
def test_batch_cold_path_raises_todays_errors(case, scheme):
    # A margin below the bound, a flag or an overflow sends the whole step to
    # fields and advance, which raise what a batch raised before the
    # generated forms: the first faulting path's error, in today's words.
    system, states, increments, dt, errors = _cold_cases()[case]
    assert _error(lambda: flow.integrate_batch_final(system, states, increments, dt, scheme)) \
        == errors[scheme]


def test_batch_runs_own_their_buffers():
    # Back-to-back runs on one stage return arrays that share no memory.
    system = catalog.dissipative_system()
    x0 = np.tile(catalog.get_entry("dissipative-2d").default_initial_state, (16, 1))
    increments = np.stack([flow.sample_brownian(1, 5, 1e-3, 1, s).increments for s in range(16)])
    for scheme in flow.SCHEMES:
        a = flow.integrate_batch_final(system, x0, increments, 1e-3, scheme)
        b = flow.integrate_batch_final(system, x0, increments, 1e-3, scheme)
        assert a.tobytes() == b.tobytes() and not np.shares_memory(a, b)


def test_batch_forms_on_a_shared_system_are_thread_safe():
    # Eight threads step batches on one system, whose stages and batch forms
    # are built on first use by whichever threads get there: each gets the
    # bits of a serial run.
    import concurrent.futures
    import sys

    entry = catalog.get_entry("sasaki-einstein-t11")
    x0 = np.tile(entry.default_initial_state, (9, 1))
    jobs = [(scheme, np.stack([flow.sample_brownian(5, 20, 1e-5, 2, 9 * i + s).increments
                               for s in range(9)]))
            for i, scheme in enumerate(flow.SCHEMES * 8)]

    def run(system, job):
        scheme, increments = job
        return flow.integrate_batch_final(system, x0, increments, 1e-5, scheme).tobytes()

    serial = [run(entry.system(), job) for job in jobs]
    shared = entry.system()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(run, shared, job) for job in jobs]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_a_stage_with_batch_forms_pickles():
    # The generated forms are dropped from the pickle and generated again on
    # the unpickled stage's first batch call, with the same bits.
    import pickle

    system = catalog.sasaki_einstein_system()
    stage = system._state_stage
    y, w, z = _batch_inputs(system, stage, 7, 31)
    ours = _batch_forms(stage, y, w, z)
    assert "heun_binder" in vars(stage)
    clone = pickle.loads(pickle.dumps(stage))
    assert "heun_binder" not in vars(clone)
    assert [a.tobytes() for a in _batch_forms(clone, y, w, z)] == [a.tobytes() for a in ours]


@pytest.mark.parametrize("system_id", sorted(_BATCH_DT))
def test_conformal_stage_matches_the_integrators_under_heun(system_id):
    entry = catalog.get_entry(system_id)
    system = entry.system()
    x0 = np.array(entry.default_initial_state)
    path = flow.sample_brownian(system.d, 200, _BATCH_DT[system_id], 3)
    states, log_lambda = flow._integrate_conformal(system, x0, path, "heun")
    assert states.tobytes() == flow.integrate(system, x0, path, "heun").states.tobytes()
    augmented = flow.integrate_augmented(system, x0, path, "heun")
    assert log_lambda.tobytes() == augmented.log_lambda.tobytes()


def test_conformal_stage_matches_state_integration_under_midpoint(sasaki_einstein):
    # On SE R(H) = 0, so log_lambda stays 0 and the per-path test reads the
    # state rows alone, as the state stage's does.
    x0 = np.array(catalog.get_entry("sasaki-einstein-t11").default_initial_state)
    path = flow.sample_brownian(sasaki_einstein.d, 200, 1e-5, 3)
    states, log_lambda = flow._integrate_conformal(sasaki_einstein, x0, path, "midpoint")
    assert states.tobytes() == flow.integrate(sasaki_einstein, x0, path, "midpoint").states.tobytes()
    assert not log_lambda.any()


def test_commands_build_only_the_stages_they_step():
    entry = catalog.get_entry("sasaki-einstein-t11")
    x0 = np.array(entry.default_initial_state)
    stages = {"_state_stage", "_augmented_stage", "_conformal_stage"}

    system = entry.system()
    assert not stages & set(vars(system))
    geo.check_integrability(system, ["1", "(1/3)*cos(theta1)", "(1/3)*cos(theta2)"],
                            geo.sample_states(system.chart, 10, seed=1))
    assert not stages & set(vars(system))
    path = flow.sample_brownian(system.d, 8, 1e-4, 1)
    ver.convergence_study(system, x0, path, "heun", 3)
    assert stages & set(vars(system)) == {"_state_stage"}
    flow._integrate_conformal(system, x0, path)
    assert stages & set(vars(system)) == {"_state_stage", "_conformal_stage"}
