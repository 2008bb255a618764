import functools
import math
import pickle

import numpy as np
import pytest

from contactsde import catalog, expr, flow, geometry as geo
from contactsde.errors import (
    ConfigError,
    DomainError,
    NumericalFailure,
    SingularChartPoint,
    UnknownIdentifier,
    WrongIntegralCount,
)


# ---------------------------------------------------------------------------
# independent oracle machinery (finite-difference partials, inline chart
# formulas; shares nothing with the compiled vector fields)
# ---------------------------------------------------------------------------

def fd_partials(e, names, x, h=1e-6):
    out = np.empty(len(names))
    base = dict(zip(names, map(float, x)))
    for i, n in enumerate(names):
        up = dict(base, **{n: base[n] + h})
        dn = dict(base, **{n: base[n] - h})
        out[i] = (expr.evaluate(e, up) - expr.evaluate(e, dn)) / (2 * h)
    return out


def oracle_darboux_field(grad, h_val, x, n):
    gq, gp, gz = grad[:n], grad[n:2 * n], grad[-1]
    p = x[n:2 * n]
    return np.concatenate([gp, -(gq + p * gz), [p @ gp - h_val]])


def oracle_se_field(grad, h_val, x):
    th1, th2 = x[0], x[1]
    g_th = grad[:2]
    g_ph = grad[2:4]
    g_ps = grad[4]
    out = np.empty(5)
    s = np.array([math.sin(th1), math.sin(th2)])
    c = np.array([math.cos(th1), math.cos(th2)])
    out[0:2] = 3.0 / s * (g_ph - g_ps * c)
    out[2:4] = -3.0 / s * g_th
    out[4] = 3.0 * (h_val + (c / s) @ g_th)
    return out


def oracle_bracket(chart, f, g, x):
    """Direct numeric evaluation of the bracket from raw FD partials."""
    names = chart.names
    ctx = dict(zip(names, map(float, x)))
    fv, gv = expr.evaluate(f, ctx), expr.evaluate(g, ctx)
    df, dg = fd_partials(f, names, x), fd_partials(g, names, x)
    if chart.kind == "darboux":
        n = chart.n
        xf = oracle_darboux_field(df, fv, x, n)
        xg = oracle_darboux_field(dg, gv, x, n)
        m = np.zeros((chart.dim, chart.dim))
        for j in range(n):
            m[j, n + j] = 1.0
            m[n + j, j] = -1.0
        reeb = np.zeros(chart.dim)
        reeb[-1] = 1.0
    else:
        xf = oracle_se_field(df, fv, x)
        xg = oracle_se_field(dg, gv, x)
        m = np.zeros((5, 5))
        m[0, 2] = -math.sin(x[0]) / 3.0
        m[2, 0] = -m[0, 2]
        m[1, 3] = -math.sin(x[1]) / 3.0
        m[3, 1] = -m[1, 3]
        reeb = np.array([0.0, 0.0, 0.0, 0.0, 3.0])
    return float(xf @ m @ xg) + fv * (reeb @ dg) - gv * (reeb @ df)


# ---------------------------------------------------------------------------
# chart axioms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chart", [geo.DarbouxChart(1), geo.DarbouxChart(2), geo.SasakiEinsteinChart()])
def test_chart_axioms(chart):
    states = geo.sample_states(chart, 1000, seed=11)
    for x in states:
        eta = chart.eta(x)
        reeb = chart.reeb(x)
        assert abs(eta @ reeb - 1.0) <= 1e-12
        assert np.max(np.abs(reeb @ chart.d_eta(x))) <= 1e-12


@pytest.mark.parametrize("chart", [geo.DarbouxChart(1), geo.DarbouxChart(3), geo.SasakiEinsteinChart()])
def test_contact_nondegeneracy(chart):
    states = geo.sample_states(chart, 100, seed=5)
    for x in states:
        assert geo.contact_nondegeneracy(chart, x) > 1e-8


def hand_forms(chart, x):
    """eta, d_eta, d_eta's upper entries and the Reeb field written out by
    hand, independently of the charts' stated expressions: math trig at a
    state, numpy trig at a batch and in the upper entries."""
    trig = math if x.ndim == 1 else np
    eta = np.zeros(x.shape)
    d_eta = np.zeros((*x.shape[:-1], chart.dim, chart.dim))
    reeb = np.zeros(chart.dim)
    if chart.kind == "darboux":
        n = chart.n
        eta[..., :n] = -x[..., n:2 * n]
        eta[..., -1] = 1.0
        for j in range(n):
            d_eta[..., j, n + j] = 1.0
            d_eta[..., n + j, j] = -1.0
        upper = [(j, n + j, 1.0) for j in range(n)]
        reeb[-1] = 1.0
    else:
        eta[..., 2] = trig.cos(x[..., 0]) / 3.0
        eta[..., 3] = trig.cos(x[..., 1]) / 3.0
        eta[..., 4] = 1.0 / 3.0
        s1 = trig.sin(x[..., 0]) / 3.0
        s2 = trig.sin(x[..., 1]) / 3.0
        d_eta[..., 0, 2] = -s1
        d_eta[..., 2, 0] = s1
        d_eta[..., 1, 3] = -s2
        d_eta[..., 3, 1] = s2
        upper = [(0, 2, -np.sin(x[..., 0]) / 3.0), (1, 3, -np.sin(x[..., 1]) / 3.0)]
        reeb[4] = 3.0
    return eta, d_eta, upper, reeb


CHARTS = [geo.DarbouxChart(1), geo.DarbouxChart(2), geo.SasakiEinsteinChart()]


@pytest.mark.parametrize("chart", CHARTS, ids=["darboux1", "darboux2", "se"])
def test_chart_forms_match_hand_formulas(chart):
    states = geo.sample_states(chart, 50, seed=3)
    for x in (*states, states):
        eta, d_eta, upper, reeb = hand_forms(chart, x)
        assert np.array_equal(chart.eta(x), eta)
        assert np.array_equal(chart.d_eta(x), d_eta)
        assert np.array_equal(chart.reeb(x), reeb)
        derived = chart.d_eta_upper(x)
        assert [(a, b) for a, b, _ in derived] == [(a, b) for a, b, _ in upper]
        for (_, _, value), (_, _, ref) in zip(derived, upper):
            assert np.array_equal(value, np.broadcast_to(ref, x.shape[:-1]))


@pytest.mark.parametrize("chart, sources", [
    (CHARTS[0], ["1", "z", "-q1", "p1^2/2 + q1*z", "exp(z)*sin(p1)"]),
    (CHARTS[1], ["q1*p2 + z^2", "log(z)/p1"]),
    (CHARTS[2], ["1", "psi", "cos(theta1)/3", "phi1*sin(psi)", "psi^2 - theta2"]),
], ids=["darboux1", "darboux2", "se"])
def test_reeb_derivative_expr_matches_hand_tree(chart, sources):
    for source in sources:
        f = expr.parse(source, chart.names)
        if chart.kind == "darboux":
            hand = expr.differentiate(f, "z")
        else:
            hand = expr.mul(expr.const(3.0), expr.differentiate(f, "psi"))
        assert chart.reeb_derivative_expr(f) == hand


@pytest.mark.parametrize("chart", CHARTS, ids=["darboux1", "darboux2", "se"])
def test_stated_d_eta_is_the_exterior_derivative_of_eta(chart):
    names = chart.names
    eta = chart.eta_exprs()
    stated = {(a, b): e for a, b, e in chart.d_eta_upper_entries_exprs()}
    for x in geo.sample_states(chart, 20, seed=4):
        ctx = dict(zip(names, map(float, x)))
        for a in range(chart.dim):
            for b in range(a + 1, chart.dim):
                d_ab = expr.sub(expr.differentiate(eta[b], names[a]),
                                expr.differentiate(eta[a], names[b]))
                value = expr.evaluate(d_ab, ctx)
                if (a, b) in stated:
                    assert abs(expr.evaluate(stated[(a, b)], ctx) - value) <= 1e-15
                else:
                    assert value == 0.0


def test_d_eta_antisymmetric():
    for chart in (geo.DarbouxChart(2), geo.SasakiEinsteinChart()):
        x = geo.sample_states(chart, 1, seed=1)[0]
        m = chart.d_eta(x)
        assert np.array_equal(m, -m.T)


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

def test_darboux_field_hand_value(darboux1):
    x = np.array([1.0, 2.0, 0.0])
    assert np.allclose(geo.contact_vector_field(darboux1, 0, x), [2.0, -2.0, 1.5], atol=1e-12)


def test_constant_hamiltonian_field():
    sys_c = geo.HamiltonianSystem(geo.DarbouxChart(2), "2.5")
    x = np.array([0.3, -1.0, 0.7, 0.2, 1.0])
    assert np.allclose(geo.contact_vector_field(sys_c, 0, x), [0, 0, 0, 0, -2.5], atol=1e-15)
    sys_1 = geo.HamiltonianSystem(geo.DarbouxChart(2), "1")
    assert np.allclose(geo.contact_vector_field(sys_1, 0, x), [0, 0, 0, 0, -1.0], atol=1e-15)


def test_se_cos_theta_field(sasaki_einstein):
    syse = geo.HamiltonianSystem(geo.SasakiEinsteinChart(), "(1/3)*cos(theta1)")
    for x in geo.sample_states(syse.chart, 25, seed=3):
        v = geo.contact_vector_field(syse, 0, x)
        assert np.max(np.abs(v - np.array([0, 0, 1.0, 0, 0]))) <= 1e-12


def test_darboux_field_matches_independent_assembly(rng):
    chart = geo.DarbouxChart(2)
    h_src = "p1^2/2 + p2^2/2 + sin(q1)*q2 + 0.3*z^2 + q1*z"
    system = geo.HamiltonianSystem(chart, h_src)
    h = expr.parse(h_src, chart.names)
    partials = [expr.differentiate(h, n) for n in chart.names]
    for x in chart.sample_states(50, rng):
        ctx = dict(zip(chart.names, map(float, x)))
        grad = np.array([expr.evaluate(p, ctx) for p in partials])
        expected = oracle_darboux_field(grad, expr.evaluate(h, ctx), x, 2)
        assert np.max(np.abs(geo.contact_vector_field(system, 0, x) - expected)) <= 1e-12


def test_se_singular_point_guard():
    syse = geo.HamiltonianSystem(geo.SasakiEinsteinChart(), "phi1")
    with pytest.raises(SingularChartPoint):
        geo.contact_vector_field(syse, 0, np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
    batch = np.array([[1.0, 1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]])
    for evaluate in (syse.drift_batch, syse.diffusion_batch, syse.drift_diffusion):
        with pytest.raises(SingularChartPoint):
            evaluate(batch)


def test_hamiltonian_and_reeb_rate_take_a_batch(dissipative, sasaki_einstein):
    for system in (dissipative, sasaki_einstein):
        states = geo.sample_states(system.chart, 7, seed=4)
        for i in range(system.d + 1):
            for query in (system.hamiltonian, system.reeb_rate):
                rows = np.array([query(i, x) for x in states])
                assert np.array_equal(query(i, states), rows)


@pytest.mark.parametrize("fault, message", [
    ("1/0", "division by zero"),
    ("log(0)", "log of non-positive value"),
    ("exp(1000)", "exp overflow"),
    ("(-8)^(1/3)", "invalid power"),
    ("sin(1e400)", "sin of infinite value"),
    ("1/(q1-q1)", "division by zero"),
])
def test_domain_fault_names_its_node_for_a_state_and_a_batch(fault, message):
    system = geo.HamiltonianSystem(geo.DarbouxChart(1), f"q1 + {fault}")
    expected = f"{message} in {expr.parse(fault, ['q1'])!r}"
    states = np.array([[0.5, 0.1, 0.2], [0.7, -0.3, 0.4]])
    for x in (states[0], states):
        with pytest.raises(DomainError) as err:
            system.hamiltonian(0, x)
        assert str(err.value) == expected


def test_system_pickle_round_trip():
    system = catalog.sasaki_einstein_system()
    stages = ("_state_stage", "_augmented_stage", "_conformal_stage")
    # A system pickled before its first use builds its own sets and stages.
    unused = pickle.loads(pickle.dumps(system))
    assert not set(stages) & set(vars(unused))
    states = geo.sample_states(system.chart, 4, seed=2)
    for x in (states[0], states):
        for ours, theirs in zip(system.drift_diffusion(x), unused.drift_diffusion(x)):
            assert ours.tobytes() == theirs.tobytes()
    # Each clone's stages generate their own advance forms and kernel and step
    # alike, a single path and a batch (paths on the last axis), under both
    # schemes; the second clone is pickled after the first use of each stage.
    dim, d, dt = system.dim, system.d, 1e-5
    increments = np.stack([flow.sample_brownian(d, 20, dt, 3, stream_index=s).increments
                           for s in range(4)], axis=-1)
    starts = {
        "_state_stage": states,
        "_augmented_stage": np.hstack([states, np.tile(np.eye(dim).ravel(), (4, 1)),
                                       np.zeros((4, 1))]),
        "_conformal_stage": np.hstack([states, np.zeros((4, 1))]),
    }

    def runs(sys):
        return [flow._run(getattr(sys, stage), y, dw, dt, scheme, "pickle", True).tobytes()
                for stage in stages for scheme in flow.SCHEMES
                for y, dw in ((starts[stage][0], increments[..., 0]), (starts[stage].T, increments))]

    ours = runs(system)
    used = pickle.loads(pickle.dumps(system))
    assert set(stages) <= set(vars(used))
    assert runs(unused) == runs(used) == ours


def test_se_guard_takes_a_list_with_the_array_message():
    chart = geo.SasakiEinsteinChart()
    off = [1e-12, 1.0, 0.0, 0.0, 0.0]
    messages = []
    for x in (off, np.array(off), np.array([[1.0, 2.0, 0.0, 0.0, 0.0], off])):
        with pytest.raises(SingularChartPoint) as err:
            chart.guard(x)
        messages.append(str(err.value))
    assert messages == ["|sin(theta1)| below 1e-09 at state (1e-12, 1.0, 0.0, 0.0, 0.0)"] * 3
    chart.guard([1.0, 2.0, 0.0, 0.0, 0.0])
    geo.DarbouxChart(1).guard([0.0, 0.0, 0.0])


def _raises_singular(call) -> bool:
    try:
        call()
    except SingularChartPoint:
        return True
    return False


@pytest.mark.parametrize("i", [0, 1])
def test_stage_and_guard_agree_at_the_chart_edge(sasaki_einstein, i):
    # A margin is off the chart when |sin(theta_i)| < 1e-9; at theta_i = 0
    # exactly the stage's tape divides by zero, and the chart's verdict
    # must come first.
    chart = sasaki_einstein.chart
    on = [1.0, 1.2, 0.3, -0.4, 0.25]
    tangent = np.eye(5).ravel().tolist() + [0.0]
    verdicts = []
    for theta in (0.0, 1e-12, 9.99e-10, 1e-9):
        x = list(on)
        x[i] = theta
        batch = np.array([on, x, on])
        calls = [(chart.guard, x), (chart.guard, np.array(x)), (chart.guard, batch)]
        for stage, tail in ((sasaki_einstein._state_stage, []),
                            (sasaki_einstein._augmented_stage, tangent)):
            y = np.array([[*row, *tail] for row in batch]).T.copy()
            calls += [(stage.fields, x + tail), (stage.fields, y)]
        outcomes = {_raises_singular(functools.partial(*call)) for call in calls}
        assert len(outcomes) == 1, theta
        verdicts.append(outcomes.pop())
    assert verdicts == [True, True, True, False]


def test_stage_and_guard_check_every_path_of_a_batch(sasaki_einstein):
    # A NaN margin is not below MARGIN, but the other path's margin of the
    # same coordinate is, so taking the smallest margin (NaN) would let the
    # batch through.
    nan_path = [math.nan, 1.2, 0.3, -0.4, 0.25]
    off_path = [1e-12, 1.2, 0.3, -0.4, 0.25]
    batch = np.array([nan_path, off_path])
    with pytest.raises(SingularChartPoint) as err:
        sasaki_einstein._state_stage.fields(batch.T.copy())
    assert str(err.value) == "|sin(theta1)| below 1e-09 at state (1e-12, 1.2, 0.3, -0.4, 0.25)"
    with pytest.raises(SingularChartPoint):
        sasaki_einstein.chart.guard(batch)
    sasaki_einstein.chart.guard(np.array(nan_path))  # NaN alone is no verdict


def test_infinite_theta_is_a_domain_error_in_every_shape(sasaki_einstein):
    # math.sin(inf) used to escape the guard as a bare ValueError, while a
    # batch only warned.
    x = [math.inf, 1.0, 0.0, 0.0, 0.0]
    message = "sin of infinite value in Func(fn='sin', arg=Var(name='theta1'))"
    calls = [lambda: sasaki_einstein.chart.guard(x),
             lambda: sasaki_einstein.vector_field(0, np.array(x)),
             lambda: sasaki_einstein.vector_field(0, np.array([[1.0, 1.0, 0.0, 0.0, 0.0], x]))]
    for call in calls:
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message


def test_system_jacobian_matches_fd(dissipative, sasaki_einstein, rng):
    for system in (dissipative, sasaki_einstein):
        chart = system.chart
        for x in chart.sample_states(5, rng):
            for i in range(system.d + 1):
                jac = system.vector_field_jacobian(i, x)
                h = 1e-6
                fd = np.empty_like(jac)
                for c in range(system.dim):
                    xp, xm = x.copy(), x.copy()
                    xp[c] += h
                    xm[c] -= h
                    fd[:, c] = (system.vector_field(i, xp) - system.vector_field(i, xm)) / (2 * h)
                scale = 1.0 + np.max(np.abs(jac))
                assert np.max(np.abs(jac - fd)) / scale <= 1e-5


def test_system_rejects_undeclared_names():
    with pytest.raises(UnknownIdentifier):
        geo.HamiltonianSystem(geo.DarbouxChart(1), "p1 + alpha")
    # an Expr carrying a stray variable is caught after constant substitution
    stray = expr.parse("p1 + alpha", ["p1", "alpha"])
    with pytest.raises(ConfigError):
        geo.HamiltonianSystem(geo.DarbouxChart(1), stray)


@pytest.mark.parametrize("noise, constants, message", [
    (5, None, "noise must be a list of expressions, got 5"),
    ("p1", None, "noise must be a list of expressions, got 'p1'"),
    ((), {"q1": 2.0}, "constants shadow chart coordinates or functions: ['q1']"),
    ((), {"sin": 2.0, "z": 1.0}, "constants shadow chart coordinates or functions: ['sin', 'z']"),
], ids=["noise_int", "noise_str", "coordinate", "function"])
def test_system_rejects_malformed_noise_and_shadowing_constants(noise, constants, message):
    with pytest.raises(ConfigError) as err:
        geo.HamiltonianSystem(geo.DarbouxChart(1), "q1", noise, constants)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# intrinsic relations
# ---------------------------------------------------------------------------

def test_intrinsic_relations_darboux(darboux1, rng):
    for x in darboux1.chart.sample_states(100, rng):
        r1, r2 = geo.check_intrinsic_relations(darboux1, 0, x)
        assert r1 <= 1e-12 and r2 <= 1e-12


def test_intrinsic_relations_se(rng):
    syse = geo.HamiltonianSystem(geo.SasakiEinsteinChart(), "phi1")
    for x in syse.chart.sample_states(100, rng):
        r1, r2 = geo.check_intrinsic_relations(syse, 0, x)
        assert r1 <= 1e-12 and r2 <= 1e-12


def test_intrinsic_sign_convention():
    # eta(X_H) carries the chart sign: -H on Darboux, +H on the SE chart
    sys_1 = geo.HamiltonianSystem(geo.DarbouxChart(1), "1")
    x = np.array([0.4, -1.2, 0.9])
    eta = sys_1.chart.eta(x)
    assert eta @ geo.contact_vector_field(sys_1, 0, x) == pytest.approx(-1.0, abs=1e-15)
    syse = geo.HamiltonianSystem(geo.SasakiEinsteinChart(), "1")
    xs = np.array([1.0, 1.3, 0.2, 0.4, 2.0])
    assert syse.chart.eta(xs) @ geo.contact_vector_field(syse, 0, xs) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Jacobi bracket
# ---------------------------------------------------------------------------

def test_bracket_self_is_zero(darboux1, rng):
    for x in darboux1.chart.sample_states(10, rng):
        assert geo.jacobi_bracket(darboux1, "q1*p1 + sin(z)", "q1*p1 + sin(z)", x) == 0.0


def test_bracket_qp_is_one(darboux1, rng):
    for x in darboux1.chart.sample_states(10, rng):
        val = geo.jacobi_bracket(darboux1, "q1", "p1", x)
        assert abs(val - 1.0) <= 1e-12
        assert abs(val - oracle_bracket(darboux1.chart, expr.parse("q1", ["q1"]),
                                        expr.parse("p1", ["p1"]), x)) <= 5e-6


def test_bracket_with_unit_is_reeb_derivative(darboux1, rng):
    h = "q1*z + sin(p1) + z^2"
    dz = expr.differentiate(darboux1.prepare(h), "z")
    for x in darboux1.chart.sample_states(20, rng):
        val = geo.jacobi_bracket(darboux1, h, "1", x)
        ctx = darboux1.context(x)
        assert abs(val + expr.evaluate(dz, ctx)) <= 1e-12
        assert abs(val + geo.reeb_derivative(darboux1, h, x)) <= 1e-12
    # h = z gives -1 identically
    assert geo.jacobi_bracket(darboux1, "z", "1", np.array([0.5, 0.5, 0.5])) == pytest.approx(-1.0, abs=1e-15)


def test_bracket_antisymmetry_bilinearity(darboux1, rng):
    f, g, h = "q1^2*p1", "sin(z) + p1", "q1*z"
    for x in darboux1.chart.sample_states(10, rng):
        bfg = geo.jacobi_bracket(darboux1, f, g, x)
        bgf = geo.jacobi_bracket(darboux1, g, f, x)
        assert abs(bfg + bgf) <= 1e-12 * (1.0 + abs(bfg))
        a, b = 1.7, -0.6
        combo = f"{a}*({f}) + {b}*({g})"
        lhs = geo.jacobi_bracket(darboux1, combo, h, x)
        rhs = a * geo.jacobi_bracket(darboux1, f, h, x) + b * geo.jacobi_bracket(darboux1, g, h, x)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_bracket_jacobi_identity(darboux1, rng):
    f, g, h = "q1*p1", "z^2 + p1", "sin(q1)"
    fg = geo.jacobi_bracket_expr(darboux1, f, g)
    gh = geo.jacobi_bracket_expr(darboux1, g, h)
    hf = geo.jacobi_bracket_expr(darboux1, h, f)
    for x in darboux1.chart.sample_states(20, rng):
        total = (
            geo.jacobi_bracket(darboux1, fg, h, x)
            + geo.jacobi_bracket(darboux1, gh, f, x)
            + geo.jacobi_bracket(darboux1, hf, g, x)
        )
        assert abs(total) <= 1e-9


def test_bracket_matches_oracle_se(sasaki_einstein, rng):
    chart = sasaki_einstein.chart
    f = expr.parse("(1/3)*cos(theta1)", chart.names)
    g = expr.parse("phi1", chart.names)
    for x in chart.sample_states(10, rng):
        val = geo.jacobi_bracket(sasaki_einstein, f, g, x)
        assert abs(val - 1.0) <= 1e-12
        assert abs(val - oracle_bracket(chart, f, g, x)) <= 5e-6


def test_bracket_expr_matches_pointwise(darboux1, dissipative, sasaki_einstein, rng):
    # Both forms come from one formula, summing the same terms in the same
    # order, so at finite states they agree exactly.
    for system, f, g in [
        (darboux1, "q1^2 + z*p1", "sin(q1) + p1^2"),
        (dissipative, "q1*p1 + q2^2*z", "exp(-z)*p2"),
        (sasaki_einstein, "sin(theta2)*phi2 + psi", "cos(psi)*theta1 + (1/3)*cos(theta1)"),
    ]:
        be = geo.jacobi_bracket_expr(system, f, g)
        for x in system.chart.sample_states(10, rng):
            assert expr.evaluate(be, system.context(x)) == geo.jacobi_bracket(system, f, g, x)


def test_weak_leibniz_diagnostic(darboux1, rng):
    f, g, h = "q1*z", "p1", "z^2 + q1"
    saw_flat_fail = False
    for x in darboux1.chart.sample_states(10, rng):
        flat, scaled = geo.weak_leibniz_diagnostic(darboux1, f, g, h, x)
        assert abs(scaled) <= 1e-9
        saw_flat_fail = saw_flat_fail or abs(flat) > 1e-3
    assert saw_flat_fail  # the unscaled correction is not the product rule


def test_weak_leibniz_diagnostic_screens_its_brackets(dissipative):
    x = np.array([1.0, 0.0, 2.0, 0.0, 0.0])
    with pytest.raises(NumericalFailure) as err:
        geo.weak_leibniz_diagnostic(dissipative, "q1*1e200", "p1*1e200", "1", x)
    assert (err.value.operation, str(err.value)) == ("weak_leibniz_diagnostic", "non-finite values")


def test_jacobi_bracket_screens_its_jets(darboux1):
    # At p1 = 1.3e154 the z-component p1 * 2 p1 of X_{p1^2} overflows, though
    # [p1^2, q1] = -2 p1 is finite: a non-finite jet fails like a bracket.
    with pytest.raises(NumericalFailure) as err:
        geo.jacobi_bracket(darboux1, "p1^2", "q1", np.array([1.0, 1.3e154, 0.0]))
    assert (err.value.operation, str(err.value)) == ("jacobi_bracket", "non-finite values")


# ---------------------------------------------------------------------------
# Reeb derivative
# ---------------------------------------------------------------------------

def test_reeb_derivative_examples(dissipative, sasaki_einstein):
    x = np.array([1.0, 0.0, 2.0, 0.0, 0.0])
    assert geo.reeb_derivative(dissipative, "gamma*z", x) == pytest.approx(0.5, abs=1e-15)
    xs = np.array([1.0, 1.2, 0.3, 0.4, 2.0])
    assert geo.reeb_derivative(sasaki_einstein, "phi1", xs) == 0.0
    assert geo.reeb_derivative(sasaki_einstein, "psi", xs) == 3.0


# ---------------------------------------------------------------------------
# integrability
# ---------------------------------------------------------------------------

def test_integrability_se_passes(sasaki_einstein):
    states = geo.sample_states(sasaki_einstein.chart, 100, seed=21)
    report = geo.check_integrability(
        sasaki_einstein, ["1", "(1/3)*cos(theta1)", "(1/3)*cos(theta2)"], states, tol=1e-12
    )
    assert report.passed
    assert report.max_pairwise_bracket <= 1e-12
    assert report.max_reeb_bracket <= 1e-12
    assert report.min_singular_value > 0.1


def test_integrability_conjugate_pair_fails(sasaki_einstein):
    states = geo.sample_states(sasaki_einstein.chart, 50, seed=22)
    report = geo.check_integrability(
        sasaki_einstein, ["1", "(1/3)*cos(theta1)", "phi1"], states, tol=1e-12
    )
    assert not report.passed
    assert report.max_pairwise_bracket == pytest.approx(1.0, abs=1e-12)


def test_integrability_darboux_z_fails(darboux1):
    states = geo.sample_states(darboux1.chart, 30, seed=23)
    report = geo.check_integrability(darboux1, ["1", "z"], states, tol=1e-12)
    assert not report.passed
    assert report.max_reeb_bracket == pytest.approx(1.0, abs=1e-12)


def test_integrability_wrong_count(darboux1):
    states = geo.sample_states(darboux1.chart, 5, seed=1)
    with pytest.raises(WrongIntegralCount):
        geo.check_integrability(darboux1, ["1", "z", "q1"], states)
    with pytest.raises(WrongIntegralCount):
        geo.check_integrability(darboux1, ["q1", "z"], states)  # first must be 1


def test_integrability_validates_sample_states(darboux1):
    with pytest.raises(ConfigError):
        geo.check_integrability(darboux1, ["1", "q1"], np.empty((0, 3)))
    with pytest.raises(ConfigError):
        geo.check_integrability(darboux1, ["1", "q1"], np.zeros((4, 5)))


@pytest.mark.parametrize("tolerances", [
    {"tol": math.nan}, {"tol": -1e-10}, {"tol": math.inf}, {"tol": "1e-10"}, {"tol": True},
    {"independence_tol": math.nan}, {"independence_tol": -1.0}, {"independence_tol": False},
])
def test_integrability_validates_tolerances(darboux1, tolerances):
    states = geo.sample_states(darboux1.chart, 5, seed=1)
    with pytest.raises(ConfigError, match="must be finite numbers >= 0"):
        geo.check_integrability(darboux1, ["1", "q1"], states, **tolerances)


def test_integrability_non_finite_values():
    system = geo.HamiltonianSystem(geo.DarbouxChart(2), "0")
    states = geo.sample_states(system.chart, 20, seed=3)
    with pytest.raises(NumericalFailure):
        geo.check_integrability(system, ["1", "(q1*1e200)*(p1*1e200)", "p2"], states)


@pytest.mark.parametrize("chart, integrals", [
    (geo.SasakiEinsteinChart(), ["1", "cos(theta1)/3", "cos(theta2)/3"]),
    (geo.DarbouxChart(2), ["1", "q1*p2 + z^2", "p1^2*q2 - z*q1"]),
])
def test_integrability_brackets_match_per_state(chart, integrals):
    system = geo.HamiltonianSystem(chart, "0")
    states = geo.sample_states(chart, 40, seed=5)
    report = geo.check_integrability(system, integrals, states)
    pair = max(abs(geo.jacobi_bracket(system, integrals[1], integrals[2], x)) for x in states)
    reeb = max(abs(geo.jacobi_bracket(system, h, "1", x)) for x in states for h in integrals[1:])
    assert report.max_pairwise_bracket == pair
    assert report.max_reeb_bracket == reeb


# Three families over 5000 states (seed 1): SE's has 476 distinct matrices of
# fields with numpy 2.4.6 on x86-64 (X_1 and X_{cos(theta_i)/3} are constant
# up to rounding, so the count depends on how sin and cos round), Darboux
# 1, p1, p2 has one, and the oscillator family has no two alike.
_SVD_FAMILIES = {
    "se": ("sasaki-einstein-t11", ["1", "(1/3)*cos(theta1)", "(1/3)*cos(theta2)"]),
    "darboux": ("dissipative-2d", ["1", "p1", "p2"]),
    "oscillator": ("dissipative-2d", ["1", "p1^2+q1^2", "p2^2+q2^2"]),
}


def _svd_family(name):
    """The system, integrals, states and matrices of fields (B, n+1, dim) of
    a family, the fields from one single-Hamiltonian system per integral."""
    system_id, integrals = _SVD_FAMILIES[name]
    system = catalog.get_entry(system_id).system()
    states = geo.sample_states(system.chart, 5000, seed=1)
    mats = np.stack([geo.HamiltonianSystem(system.chart, f).vector_field(0, states)
                     for f in integrals], axis=1)
    return system, integrals, states, mats


def _per_state_min(mats):
    return min(np.linalg.svd(m, compute_uv=False)[-1] for m in mats)


def _bits(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("forced_collision", [False, True], ids=["keys", "one_key"])
@pytest.mark.parametrize("family", sorted(_SVD_FAMILIES))
def test_min_singular_value_equals_one_svd_per_state(family, forced_collision, monkeypatch):
    system, integrals, states, mats = _svd_family(family)
    distinct = len({m.tobytes() for m in mats})
    assert {"se": distinct < len(states) // 2, "darboux": distinct == 1,
            "oscillator": distinct == len(states)}[family]
    expected = _per_state_min(mats)
    if forced_collision:  # every matrix shares one key: only the bit check tells them apart
        monkeypatch.setattr(geo, "_jet_keys", lambda columns: np.zeros(len(columns[0]), np.uint64))
    svd, seen = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: seen.append(len(a)) or svd(a, **kw))
    report = geo.check_integrability(system, integrals, states)
    assert _bits(report.min_singular_value) == _bits(expected)
    if not forced_collision:
        assert seen == [distinct]  # one SVD per distinct matrix, in one call


def test_min_singular_value_keeps_signed_zeros_apart(monkeypatch):
    # Matrices that differ only in the sign of a zero are two matrices.
    svd, seen = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: seen.append(len(a)) or svd(a, **kw))
    mats = np.array([[[0.0, 2.0]], [[-0.0, 2.0]], [[0.0, 2.0]]])
    assert geo._min_singular_value(mats) == 2.0
    assert seen == [2]


def test_min_singular_value_control_that_trusts_the_key_misses():
    # Negative control: one SVD per key, without the bit check, under a key
    # every matrix shares.  It reads state 0's smallest singular value only:
    # it misses the per-state minimum by 4.4e-16 on the SE family (every
    # value lies within 6e-16 of 1) and by 0.76 on the oscillator family.
    # Darboux 1, p1, p2 has one distinct matrix, so no key can merge two.
    def trusting_min(mats, keys):
        _, first = np.unique(keys, return_index=True)
        return np.linalg.svd(mats[first], compute_uv=False)[:, -1].min()

    misses = {}
    for family in ("se", "oscillator"):
        _, _, _, mats = _svd_family(family)
        misses[family] = trusting_min(mats, np.zeros(len(mats), np.uint64)) - _per_state_min(mats)
    assert 0.0 < misses["se"] < 1e-15
    assert misses["oscillator"] > 0.5


def test_integrability_report_roundtrip(sasaki_einstein):
    states = geo.sample_states(sasaki_einstein.chart, 10, seed=2)
    report = geo.check_integrability(
        sasaki_einstein, ["1", "(1/3)*cos(theta1)", "(1/3)*cos(theta2)"], states
    )
    clone = geo.IntegrabilityReport.from_dict(report.to_dict())
    assert clone.to_dict() == report.to_dict()
