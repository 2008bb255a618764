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
    """A stage with zero fields, stepped by its Heun kernel, that counts its
    steps; after step ``k`` it writes ``value`` into the last entry."""

    def __init__(self, k=None, value=None):
        self.k, self.value, self.steps = k, value, 0

    def heun_step(self, y, w, dt):
        self.steps += 1
        return [*y[:-1], self.value] if self.steps == self.k else list(y)


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
    a batch of one."""
    out = []
    for y, dw in (([0.0], [1.0, 1.0, 1.0]), (np.zeros((1, 1)), np.ones((3, 1)))):
        k = stage.fields(y)
        out.append((stage.advance(y, dw, 0.1, k), stage.advance(y, dw, 0.1, k, k)))
    return out


def test_stage_sums_cancelling_noise_left_to_right():
    # (1 + 1e16) + -1e16 rounds to 0.0; any other order gives 1.0.
    for single, batch in zip(*_advance_both_forms(_cancelling_stage())):
        assert np.array(single).tobytes() == batch.tobytes() == np.zeros(1).tobytes()


def test_stage_sums_cancelling_noise_negative_control():
    # The same row summed right to left: (-1e16 + 1e16) + 1 reads 1.0 in both
    # forms and both representations, missing the left-to-right 0.0 by 1.0.
    control = _cancelling_stage()
    control.rows = tuple((a, row[::-1]) for a, row in control.rows)
    control._generate()
    for single, batch in zip(*_advance_both_forms(control)):
        assert single == [1.0] and batch.tolist() == [[1.0]]


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


def _every_product_stage(system, order=range):
    """The augmented stage built from roots in which entry (a, b) of DX_H J
    sums every product ``DX_H[a,c] * J[c,b]``, zero factors included, over
    c in ``order(dim)``; ascending is how the stage was once built."""
    dim = system.dim
    jac = [expr.var(f"J[{c},{b}]") for c in range(dim) for b in range(dim)]
    roots = [(
        *comps,
        *(functools.reduce(expr.add, (expr.mul(dx[a * dim + c], jac[c * dim + b])
                                      for c in order(dim)))
          for a in range(dim) for b in range(dim)),
        expr.negate(rate),
    ) for comps, dx, rate in zip(system.vector_field_exprs, system._jacobian_exprs,
                                 system._rate_exprs)]
    return system._stage(roots, (*system.chart.names, *(v.name for v in jac), "log(lambda)"))


def _augmented_systems():
    return {"dissipative": catalog.dissipative_system(),
            "se": catalog.sasaki_einstein_system(),
            "inline_darboux": geo.HamiltonianSystem(geo.DarbouxChart(2), *_INLINE_DARBOUX),
            "inline_se": geo.HamiltonianSystem(geo.SasakiEinsteinChart(), *_INLINE_SE)}


@pytest.mark.parametrize("name", ["dissipative", "se", "inline_darboux", "inline_se"])
def test_augmented_stage_skips_zero_products_with_equal_roots(name):
    # The stage forms DX_H[a,c] * J[c,b] only where DX_H[a,c] is not a
    # constant zero; its roots equal those that forming every product gives.
    # The tape holds the roots that are not constant zeros, and rows says
    # where the zeros are.
    system = _augmented_systems()[name]
    ours, theirs = system._augmented_stage, _every_product_stage(system)
    assert ours.tape.exprs == theirs.tape.exprs
    assert ours.rows == theirs.rows
    assert ours.tape.layout == theirs.tape.layout


@pytest.mark.parametrize("name", ["inline_darboux", "inline_se"])
def test_augmented_stage_root_comparison_sees_the_summation_order(name):
    # Negative control: summing in descending c gives other trees wherever a
    # row of DX_H has two nonzeros: 30 of the 68 tape roots on the inline
    # Darboux system and 35 of 59 on the inline SE system differ.
    system = _augmented_systems()[name]
    ours = system._augmented_stage
    theirs = _every_product_stage(system, lambda dim: range(dim - 1, -1, -1))
    assert ours.rows == theirs.rows
    differ = sum(a != b for a, b in zip(ours.tape.exprs, theirs.tape.exprs))
    assert differ > 0


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
