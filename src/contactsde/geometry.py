"""Contact charts, Hamiltonian vector fields, Jacobi brackets, and the
complete-integrability check.

Two coordinate models are provided.

Darboux chart (dimension 2n+1, coordinates ``q1..qn, p1..pn, z``)::

    eta  = dz - p dq          reeb = d/dz
    X_H  = H_p d/dq - (H_q + p H_z) d/dp + (p.H_p - H) d/dz

Sasaki-Einstein chart (dimension 5, coordinates
``theta1, theta2, phi1, phi2, psi``)::

    eta  = (d psi + cos(theta1) d phi1 + cos(theta2) d phi2) / 3
    reeb = 3 d/dpsi
    X_H  = sum_i 3/sin(theta_i) (H_phi_i - H_psi cos(theta_i)) d/dtheta_i
           - sum_i 3/sin(theta_i) H_theta_i d/dphi_i
           + 3 (H + sum_i cot(theta_i) H_theta_i) d/dpsi

Each chart states its contact structure once, as expressions over its
coordinates: the components of eta, the structural upper entries of d_eta
(``d_eta_upper_entries_exprs``) and its constant Reeb field.  A shared base
class compiles that statement and derives every other form from it: the
numeric ``eta``, ``d_eta``, ``d_eta_upper`` and ``reeb`` at a state or a
batch, through the module's one tape evaluator ``_eval``, and the symbolic
``reeb_derivative_expr``.  Each chart writes ``X_H`` out as above.

The coordinate formulas above are normative.  Contracting them into the
defining relations gives ``eta(X_H) = sigma H`` with a chart-dependent sign
``sigma`` (Darboux: -1, Sasaki-Einstein: +1); ``check_intrinsic_relations``
reports residuals with respect to that convention and does not "fix" either
formula.

The systems that ``flow`` steps, the state and the state augmented with its
flow Jacobian J and log_lambda, are each one ``_Stage``, built once per
``HamiltonianSystem`` from the structure of its roots' expressions.  A
constant root is used as a number and never evaluated; constant zeros are
skipped; one chart guard and one tape call compute the rest, under
``_values``' domain rule.  Row r of the diffusion is applied over its
structural nonzeros only (the roots that are not a constant 0.0 or -0.0),
summed left to right in ascending channel order, ``((g_r,k1 dw_k1 +
g_r,k2 dw_k2) + ...)``, so the bits depend on no matrix product's summation
order.  Each stage generates that update once as straight-line code, like a
tape.  A single path runs on a list of Python floats and a batch on numpy
rows, which round alike, so a path gives the same bits alone or in any
batch.  The augmented roots per Hamiltonian are X_H, each entry of DX_H J
summed left to right in ascending c, and -R(H), as expressions over x, J
and log_lambda, so constant folding drops the structural zeros of DX_H.

Every Jacobi bracket comes from one formula, ``_bracket``, in the arithmetic
its caller passes: numbers for the numeric brackets, expressions for
``jacobi_bracket_expr``.  The numeric ones come from one engine,
``_brackets``, which compiles the jets ``(X_f..., f, R(f))`` of its
functions as one tape set, guards the states once, evaluates d_eta's entries
once and screens jets and brackets alike for non-finite values.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import expr
from .errors import ConfigError, NumericalFailure, SingularChartPoint, WrongIntegralCount

__all__ = [
    "DarbouxChart", "SasakiEinsteinChart", "chart_by_id",
    "HamiltonianSystem", "contact_vector_field", "check_intrinsic_relations",
    "jacobi_bracket", "jacobi_bracket_expr", "reeb_derivative",
    "check_integrability", "IntegrabilityReport", "weak_leibniz_diagnostic",
    "sample_states", "contact_nondegeneracy",
]

SIN_GUARD = 1e-9  # reject Sasaki-Einstein states with |sin(theta_i)| below this


def _values(tape, x) -> tuple:
    """The values of the tape set ``tape`` at ``x``, as one tape call returns
    them: Python floats for one state, a list of n floats, run in scalar mode
    with domain checks; for a batch (n, B), one row per slot and one column
    per path, one array per value that reads a slot, run in array mode on
    the rows.

    One domain rule serves both: a batch raises the ``DomainError`` that its
    first faulting path raises alone.  Array mode runs with numpy's
    floating-point flags raising; on a flag the paths are replayed in scalar
    mode, in order.  If no path raises (an overflow, say), the batch is
    evaluated again with the flags ignored and its non-finite values are
    left to the caller's screen."""
    if type(x) is list:
        return tape(x)
    rows = list(x)
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            return tape(rows)
    except FloatingPointError:
        for path in x.T:
            tape(path.tolist())
        with np.errstate(all="ignore"):
            return tape(rows)


def _eval(tape, x: np.ndarray) -> np.ndarray:
    """``_values`` of the tape set ``tape`` (n expressions) at ``x`` as one
    array: shape (n,) for one state, (B, n) for a batch (B, dim)."""
    if x.ndim == 1:
        return np.array(_values(tape, x.tolist()))
    values = _values(tape, x.T)
    # A value that reads no coordinate is a float64 scalar; assignment broadcasts it.
    out = np.empty((x.shape[0], len(values)))
    for r, value in enumerate(values):
        out[:, r] = value
    return out


class _Stage:
    """One system that ``flow`` steps, the state's or the augmented state's,
    held by its structure.  Its roots, ``drift`` (m,) then ``diffusion``
    row-major (m, d), are split over ``layout`` into the nonzero
    ``constants``, kept as numbers, and one tape set, ``tape``, of the rest.
    Row r of ``rows`` is ``(drift slot, ((k, slot), ...))`` over the channels
    k of its structural nonzeros, ascending; a slot indexes the values that
    ``fields`` returns, and a constant zero (0.0 or -0.0) has none.

    ``rows`` is compiled once into the two forms of ``advance``, each one
    generated straight-line function (``_generate``).  Row r becomes
    ``y[r] + dt * k[a] + (k[i1] * w[c1] + k[i2] * w[c2] + ...)``: the drift
    term first, then the noise terms summed left to right in ascending
    channel order c1 < c2 < ..., so the bits depend on no matrix product's
    summation order.  Heun's form reads ``0.5 * dt`` for ``dt`` and
    ``(k0[i] + k1[i])`` for ``k[i]``, and scales the noise sum by 0.5.  One
    text serves a single path, a list of Python floats, and a batch of numpy
    rows, which round alike, so a path gives the same bits alone or in any
    batch.  No other module of the package reads ``rows``: ``flow`` drives
    a stage through ``fields`` and ``advance`` only."""

    def __init__(self, chart, drift, diffusion, d: int, layout):
        self.chart = chart
        roots = (*drift, *diffusion)
        self.constants = tuple(e.value for e in roots
                               if isinstance(e, expr.Const) and e.value != 0.0)
        self.tape = expr.compile_tape([e for e in roots if not isinstance(e, expr.Const)], layout)
        hoisted, computed = itertools.count(), itertools.count(len(self.constants))
        slots = [
            next(computed) if not isinstance(e, expr.Const)
            else next(hoisted) if e.value != 0.0 else None
            for e in roots
        ]
        noise = slots[len(drift):]
        self.rows = tuple(
            (a, tuple((k, s) for k, s in enumerate(noise[r * d:(r + 1) * d]) if s is not None))
            for r, a in enumerate(slots[:len(drift)])
        )
        self._generate()

    def _generate(self) -> None:
        """Compile ``rows`` into ``_euler(y, w, dt, k)`` and ``_heun(y, w,
        dt, k0, k1)`` through ``expr``'s cached text compiler."""
        euler, heun = [], []
        for r, (a, row) in enumerate(self.rows):
            e = h = f"y[{r}]"
            if a is not None:
                e += f" + dt * k[{a}]"
                h += f" + h_dt * (k0[{a}] + k1[{a}])"
            if row:
                e += " + (" + " + ".join(f"k[{i}] * w[{c}]" for c, i in row) + ")"
                h += " + 0.5 * (" + " + ".join(f"(k0[{i}] + k1[{i}]) * w[{c}]" for c, i in row) + ")"
            euler.append(f"            {e},\n")
            heun.append(f"            {h},\n")
        self._euler, self._heun = expr._factory(
            "def make():\n"
            "    def euler(y, w, dt, k):\n        return [\n" + "".join(euler) + "        ]\n"
            "    def heun(y, w, dt, k0, k1):\n        h_dt = 0.5 * dt\n"
            "        return [\n" + "".join(heun) + "        ]\n"
            "    return euler, heun\n")()

    # A generated function does not pickle: an unpickled stage generates its own.
    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if k not in ("_euler", "_heun")}

    def __setstate__(self, state):
        vars(self).update(state)
        self._generate()

    def fields(self, y) -> tuple:
        """The values at a single path (a list of m floats) or a batch (m, B),
        whose chart coordinates are guarded once: the constants, then the
        ``_values`` of the tape."""
        self.chart.guard(y[:self.chart.dim] if type(y) is list else y[:self.chart.dim].T)
        return self.constants + _values(self.tape, y)

    def advance(self, y, dw, dt, k0, k1=None):
        """``y + a dt + g dw`` at the fields ``k0``; given ``k1`` too, Heun's
        trapezoid ``y + 0.5 dt (a0 + a1) + 0.5 (g0 + g1) dw``.  ``y`` and
        ``dw`` are lists of m and d floats, returning a list, or (m, B) and
        (d, B) arrays, returning an array."""
        out = self._euler(y, dw, dt, k0) if k1 is None else self._heun(y, dw, dt, k0, k1)
        return out if type(y) is list else np.array(out)


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------

class _ContactChart:
    """Every form of a chart's contact structure, derived from the one
    statement the chart makes of it: ``eta_exprs()``, the components of eta;
    ``d_eta_upper_entries_exprs()``, the structural entries ``(a, b, expr)``
    of d_eta with a < b, whose (b, a) entries are the exact negatives; and
    ``reeb_field``, the constant Reeb field.  The numeric forms take a state
    (dim,) or a batch (B, dim) and run compiled tape sets through ``_eval``."""

    def __init__(self):
        entries = self.d_eta_upper_entries_exprs()
        self._eta_tape = expr.compile_tape(self.eta_exprs(), self.names)
        self._d_eta_slots = tuple((a, b) for a, b, _ in entries)
        self._d_eta_tape = expr.compile_tape([e for _, _, e in entries], self.names)

    def eta(self, x: np.ndarray) -> np.ndarray:
        return _eval(self._eta_tape, x)

    def d_eta_upper(self, x: np.ndarray):
        """Structural entries (a, b, value) of d_eta at ``x``."""
        values = _eval(self._d_eta_tape, x)
        return [(a, b, values[..., k]) for k, (a, b) in enumerate(self._d_eta_slots)]

    def d_eta(self, x: np.ndarray) -> np.ndarray:
        m = np.zeros((*x.shape[:-1], self.dim, self.dim))
        for a, b, value in self.d_eta_upper(x):
            m[..., a, b] = value
            m[..., b, a] = -value
        return m

    def reeb(self, x: np.ndarray) -> np.ndarray:
        return np.array(self.reeb_field)

    def reeb_derivative_expr(self, f: expr.Expr) -> expr.Expr:
        """iota_R df, summed over the nonzero components of the Reeb field."""
        return functools.reduce(expr.add, (
            expr.mul(expr.const(r), expr.differentiate(f, name))
            for name, r in zip(self.names, self.reeb_field) if r != 0.0
        ))

    def guard_batch(self, states: np.ndarray) -> None:
        # Kept by name for bench/layertrace.py, which patches it; src/ calls guard.
        self.guard(states)


class DarbouxChart(_ContactChart):
    """Canonical chart: eta = dz - p dq, Reeb field d/dz, sigma = -1."""

    kind = "darboux"
    sigma = -1.0

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.dim = 2 * n + 1
        self.names = tuple(
            [f"q{j}" for j in range(1, n + 1)]
            + [f"p{j}" for j in range(1, n + 1)]
            + ["z"]
        )
        self.reeb_field = (0.0,) * (2 * n) + (1.0,)
        super().__init__()

    def eta_exprs(self) -> list:
        n = self.n
        return ([expr.negate(expr.var(f"p{j}")) for j in range(1, n + 1)]
                + [expr.const(0.0)] * n + [expr.const(1.0)])

    def d_eta_upper_entries_exprs(self) -> list:
        one = expr.const(1.0)
        return [(j, self.n + j, one) for j in range(self.n)]

    def vector_field_exprs(self, h: expr.Expr) -> list:
        n = self.n
        dq = [expr.differentiate(h, f"q{j}") for j in range(1, n + 1)]
        dp = [expr.differentiate(h, f"p{j}") for j in range(1, n + 1)]
        dz = expr.differentiate(h, "z")
        comps = list(dp)
        for j in range(n):
            comps.append(expr.negate(expr.add(dq[j], expr.mul(expr.var(f"p{j+1}"), dz))))
        acc = expr.negate(h)
        for j in range(n):
            acc = expr.add(acc, expr.mul(expr.var(f"p{j+1}"), dp[j]))
        comps.append(acc)
        return comps

    def guard(self, x) -> None:
        """Every state, an array or a list of floats, is on this chart."""

    def sample_states(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-2.0, 2.0, size=(count, self.dim))


class SasakiEinsteinChart(_ContactChart):
    """Homogeneous toric chart on the five-dimensional space T^{1,1}."""

    kind = "sasaki-einstein"
    sigma = 1.0
    n = 2
    dim = 5
    names = ("theta1", "theta2", "phi1", "phi2", "psi")
    reeb_field = (0.0, 0.0, 0.0, 0.0, 3.0)

    def eta_exprs(self) -> list:
        three = expr.const(3.0)
        return [expr.const(0.0), expr.const(0.0),
                expr.div(expr.cos(expr.var("theta1")), three),
                expr.div(expr.cos(expr.var("theta2")), three),
                expr.const(1.0 / 3.0)]

    def d_eta_upper_entries_exprs(self) -> list:
        three = expr.const(3.0)
        return [(i, i + 2, expr.negate(expr.div(expr.sin(expr.var(f"theta{i + 1}")), three)))
                for i in range(2)]

    def vector_field_exprs(self, h: expr.Expr) -> list:
        three = expr.const(3.0)
        th = [expr.var("theta1"), expr.var("theta2")]
        d_th = [expr.differentiate(h, "theta1"), expr.differentiate(h, "theta2")]
        d_ph = [expr.differentiate(h, "phi1"), expr.differentiate(h, "phi2")]
        d_ps = expr.differentiate(h, "psi")
        comps = []
        for i in range(2):
            comps.append(
                expr.mul(
                    expr.div(three, expr.sin(th[i])),
                    expr.sub(d_ph[i], expr.mul(d_ps, expr.cos(th[i]))),
                )
            )
        for i in range(2):
            comps.append(expr.negate(expr.mul(expr.div(three, expr.sin(th[i])), d_th[i])))
        acc = h
        for i in range(2):
            acc = expr.add(acc, expr.mul(expr.div(expr.cos(th[i]), expr.sin(th[i])), d_th[i]))
        comps.append(expr.mul(three, acc))
        return comps

    def guard(self, x) -> None:
        """Reject a state, (5,) or a list of 5 floats, or a batch (B, 5) near
        sin(theta_i) = 0."""
        if type(x) is not list and x.ndim > 1:
            if bool((np.abs(np.sin(x[:, :2])) < SIN_GUARD).any()):
                raise SingularChartPoint("batch contains states near sin(theta_i) = 0")
        elif abs(math.sin(x[0])) < SIN_GUARD or abs(math.sin(x[1])) < SIN_GUARD:
            raise SingularChartPoint(
                f"|sin(theta_i)| below {SIN_GUARD:g} at theta=({float(x[0])!r}, {float(x[1])!r})"
            )

    def sample_states(self, count: int, rng: np.random.Generator) -> np.ndarray:
        out = np.empty((count, 5))
        out[:, 0] = rng.uniform(0.1, math.pi - 0.1, size=count)
        out[:, 1] = rng.uniform(0.1, math.pi - 0.1, size=count)
        out[:, 2] = rng.uniform(0.0, 2.0 * math.pi, size=count)
        out[:, 3] = rng.uniform(0.0, 2.0 * math.pi, size=count)
        out[:, 4] = rng.uniform(0.0, 4.0 * math.pi, size=count)
        return out


def chart_by_id(kind: str, n: int | None = None):
    """Construct a chart from its string id ("darboux" needs ``n``)."""
    if kind == "darboux":
        if n is None:
            raise ConfigError("chart 'darboux' requires n")
        if not isinstance(n, int) or n < 1:
            raise ConfigError(f"chart 'darboux' needs an integer n >= 1, got {n!r}")
        return DarbouxChart(n)
    if kind == "sasaki-einstein":
        return SasakiEinsteinChart()
    raise ConfigError(f"unknown chart kind {kind!r}")


# ---------------------------------------------------------------------------
# Hamiltonian systems
# ---------------------------------------------------------------------------

class HamiltonianSystem:
    """A chart together with a drift Hamiltonian H_0, noise Hamiltonians
    H_1..H_d, and one precompiled tape set per query, holding exactly the
    expressions it returns: the value, gradient, ``X_H``, ``DX_H`` and
    ``R(H)`` of every H_i, and the diffusion columns; and the two ``_Stage``
    objects that ``flow`` steps, built once: the state's (``_state_stage``)
    and the augmented state's (``_augmented_stage``, over x, J row-major and
    log_lambda, whose roots per H_i are ``X_{H_i}``, ``DX_{H_i} J`` and
    ``-R(H_i)``).

    The per-state methods (``hamiltonian``, ``gradient``, ``vector_field``,
    ``vector_field_jacobian``, ``reeb_rate``, ``diffusion_matrix``,
    ``drift_diffusion``) take one state ``(dim,)`` or a batch ``(B, dim)``
    and give a result with the same leading axes; each set is one call of
    one evaluator, ``_eval``, as are the jets behind the brackets.
    ``_eval`` assembles the values of ``_values``, which holds the domain
    rule for both shapes.

    Constants, which may name neither a chart coordinate nor a function,
    are substituted at build time, so every compiled tape reads
    only chart coordinates (the augmented one also J, in slots ``J[c,b]``,
    which no parsed name can equal).  Instances are immutable after
    construction and safe to share between threads or pickle to workers.
    """

    def __init__(self, chart, h0, noise=(), constants=None):
        self.chart = chart
        try:
            self.constants = {name: float(v) for name, v in dict(constants or {}).items()}
        except (TypeError, ValueError):
            raise ConfigError(f"constants must be numbers, got {constants!r}") from None
        shadowed = sorted(set(self.constants) & {*chart.names, *expr.FUNCTIONS})
        if shadowed:
            raise ConfigError(f"constants shadow chart coordinates or functions: {shadowed}")
        if not isinstance(noise, (list, tuple)):
            raise ConfigError(f"noise must be a list of expressions, got {noise!r}")
        self.hamiltonians = prepared = tuple(map(self.prepare, (h0, *noise)))
        layout = chart.names
        self.vector_field_exprs = fields = tuple(
            tuple(chart.vector_field_exprs(h)) for h in prepared
        )
        # DX_H row-major (dim, dim).
        jacobians = tuple(
            tuple(expr.differentiate(c, name) for c in comps for name in layout)
            for comps in fields
        )
        rates = tuple(chart.reeb_derivative_expr(h) for h in prepared)
        self._h_tapes = tuple(expr.compile_tape([h], layout) for h in prepared)
        self._grad_tapes = tuple(
            expr.compile_tape([expr.differentiate(h, c) for c in layout], layout)
            for h in prepared
        )
        self._field_tapes = tuple(expr.compile_tape(comps, layout) for comps in fields)
        self._jacobian_tapes = tuple(expr.compile_tape(dx, layout) for dx in jacobians)
        self._reeb_tapes = tuple(expr.compile_tape([rate], layout) for rate in rates)
        # Diffusion row-major (dim, d).
        self._diffusion_tape = expr.compile_tape(
            [comps[r] for r in range(chart.dim) for comps in fields[1:]], layout
        )
        dim, d = chart.dim, len(fields) - 1
        self._state_stage = _Stage(chart, fields[0], self._diffusion_tape.exprs, d, layout)
        # The augmented state is x, J row-major, then log_lambda.  Its roots
        # per H are X_H, DX_H J with each entry summed in ascending c, and -R(H).
        jac = [expr.var(f"J[{c},{b}]") for c in range(dim) for b in range(dim)]
        augmented = [(
            *comps,
            *(functools.reduce(expr.add, (expr.mul(dx[a * dim + c], jac[c * dim + b])
                                          for c in range(dim)))
              for a in range(dim) for b in range(dim)),
            expr.negate(rate),
        ) for comps, dx, rate in zip(fields, jacobians, rates)]
        self._augmented_stage = _Stage(
            chart, augmented[0], [e for row in zip(*augmented[1:]) for e in row], d,
            (*layout, *(v.name for v in jac), "log(lambda)"),
        )

    # -- basic queries ------------------------------------------------------

    @property
    def d(self) -> int:
        return len(self.hamiltonians) - 1

    @property
    def dim(self) -> int:
        return self.chart.dim

    def context(self, x: np.ndarray) -> dict:
        return dict(zip(self.chart.names, (float(v) for v in x)))

    def prepare(self, f) -> expr.Expr:
        """Parse (if needed) and close an expression over this system's
        constants, leaving only chart coordinates free.  Anything but a
        string or an expression tree is a ``ConfigError``."""
        if not isinstance(f, (str, *expr.NODE_TYPES)):
            raise ConfigError(f"expected an expression, got {f!r}")
        names = list(self.chart.names) + list(self.constants)
        tree = expr.parse(f, names) if isinstance(f, str) else f
        tree = expr.substitute(tree, self.constants)
        extra = expr.free_variables(tree) - set(self.chart.names)
        if extra:
            raise ConfigError(f"expression references unknown names {sorted(extra)}")
        return tree

    # -- evaluation at a state (dim,) or a batch (B, dim) --------------------

    _eval = staticmethod(_eval)

    def hamiltonian(self, i: int, x: np.ndarray):
        return self._eval(self._h_tapes[i], x)[..., 0]

    def gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        return self._eval(self._grad_tapes[i], x)

    def vector_field(self, i: int, x: np.ndarray) -> np.ndarray:
        self.chart.guard(x)
        return self._eval(self._field_tapes[i], x)

    def vector_field_jacobian(self, i: int, x: np.ndarray) -> np.ndarray:
        self.chart.guard(x)
        return self._eval(self._jacobian_tapes[i], x).reshape(*x.shape[:-1], self.dim, self.dim)

    def reeb_rate(self, i: int, x: np.ndarray):
        return self._eval(self._reeb_tapes[i], x)[..., 0]

    def diffusion_matrix(self, x: np.ndarray) -> np.ndarray:
        self.chart.guard(x)
        return self._eval(self._diffusion_tape, x).reshape(*x.shape[:-1], self.dim, self.d)

    def drift_diffusion(self, x: np.ndarray):
        """Drift vector X_{H_0}(x) and diffusion columns X_{H_k}(x); the state
        is guarded once, by ``vector_field``."""
        return (self.vector_field(0, x),
                self._eval(self._diffusion_tape, x).reshape(*x.shape[:-1], self.dim, self.d))

    # Kept by name for bench/layertrace.py, which patches them; src/ does not call them.
    def drift_batch(self, states: np.ndarray) -> np.ndarray:
        return self.vector_field(0, states)

    def diffusion_batch(self, states: np.ndarray) -> np.ndarray:
        return self.diffusion_matrix(states)


# ---------------------------------------------------------------------------
# Geometric operations
# ---------------------------------------------------------------------------

def contact_vector_field(sys: HamiltonianSystem, i: int, x) -> np.ndarray:
    """Value of the contact Hamiltonian vector field X_{H_i} at ``x``."""
    return sys.vector_field(i, np.asarray(x, dtype=float))


def check_intrinsic_relations(sys: HamiltonianSystem, i: int, x):
    """Residuals of the defining relations of X_{H_i} at ``x``.

    Returns ``(r1, r2)`` where ``r1 = |eta(X) - sigma H|`` and ``r2`` is the
    sup norm of ``dH - (-sigma iota_X d_eta + R(H) eta)`` as a covector, with
    the chart's sign convention ``sigma``.  Callers compare against their own
    tolerance.
    """
    x = np.asarray(x, dtype=float)
    chart = sys.chart
    xh = sys.vector_field(i, x)
    eta = chart.eta(x)
    m = chart.d_eta(x)
    h = sys.hamiltonian(i, x)
    grad = sys.gradient(i, x)
    rate = sys.reeb_rate(i, x)
    r1 = abs(float(eta @ xh) - chart.sigma * h)
    contraction = xh @ m  # (iota_X d_eta)_b = sum_a X_a d_eta[a, b]
    resid = grad - (-chart.sigma * contraction + rate * eta)
    return r1, float(np.max(np.abs(resid)))


def _bracket(ops, zero, d_eta_upper, jf, jg):
    """The Jacobi bracket ``d_eta(X_f, X_g) + f R(g) - g R(f)`` from the
    jets ``(X_f..., f, R(f))`` of f and g and the structural upper entries
    ``(a, b, coeff)`` of d_eta, in the arithmetic ``ops`` (``operator`` for
    numbers, ``expr`` for expressions) starting from ``zero``.
    d_eta(X_f, X_g) sums coeff * (Xf_a Xg_b - Xf_b Xg_a) over the entries, so
    [f, f] vanishes exactly and swapping arguments negates the value bit for
    bit."""
    total = zero
    for a, b, coeff in d_eta_upper:
        paired = ops.sub(ops.mul(jf[a], jg[b]), ops.mul(jf[b], jg[a]))
        total = ops.add(total, ops.mul(coeff, paired))
    return ops.sub(ops.add(total, ops.mul(jf[-2], jg[-1])), ops.mul(jg[-2], jf[-1]))


def _jet(chart, f: expr.Expr) -> list:
    """The jet ``(X_f components..., f, R(f))`` of ``f`` as expressions."""
    return [*chart.vector_field_exprs(f), f, chart.reeb_derivative_expr(f)]


def _brackets(sys: HamiltonianSystem, operation: str, funcs, pairs, x):
    """The jets of ``funcs`` at a state (dim,) or a batch (B, dim) ``x``,
    shape (..., len(funcs), dim + 2), and the list of brackets
    [funcs[i], funcs[j]] for each (i, j) of ``pairs``.  The jets are one
    tape set, ``x`` is guarded once and d_eta's entries are evaluated once.
    A non-finite jet or bracket is ``NumericalFailure(operation, ...)``."""
    chart = sys.chart
    tape = expr.compile_tape([e for f in funcs for e in _jet(chart, sys.prepare(f))], chart.names)
    x = np.asarray(x, dtype=float)
    chart.guard(x)
    jets = sys._eval(tape, x).reshape(*x.shape[:-1], len(funcs), chart.dim + 2)
    columns = np.moveaxis(jets, -1, 0)  # (dim + 2, ..., len(funcs))
    d_eta = chart.d_eta_upper(x)
    with np.errstate(all="ignore"):
        brackets = [_bracket(operator, 0.0, d_eta, columns[..., i], columns[..., j])
                    for i, j in pairs]
    if not (np.isfinite(jets).all() and np.isfinite(brackets).all()):
        raise NumericalFailure(operation, "non-finite values")
    return jets, brackets


def jacobi_bracket(sys: HamiltonianSystem, f, g, x) -> float:
    """Jacobi bracket [f, g] at ``x``:
    ``d_eta(X_f, X_g) + f R(g) - g R(f)``, with R the Reeb derivative.
    """
    _, (value,) = _brackets(sys, "jacobi_bracket", (f, g), [(0, 1)], x)
    return float(value)


def jacobi_bracket_expr(sys: HamiltonianSystem, f, g) -> expr.Expr:
    """The bracket [f, g] as a symbolic expression over chart coordinates.

    Useful for nesting (Jacobi identity, iterated brackets)."""
    chart = sys.chart
    return _bracket(expr, expr.const(0.0), chart.d_eta_upper_entries_exprs(),
                    _jet(chart, sys.prepare(f)), _jet(chart, sys.prepare(g)))


def reeb_derivative(sys: HamiltonianSystem, f, x) -> float:
    """Derivative of ``f`` along the Reeb field at ``x`` (iota_R df)."""
    rate = sys.chart.reeb_derivative_expr(sys.prepare(f))
    tape = expr.compile_tape([rate], sys.chart.names)
    return float(sys._eval(tape, np.asarray(x, dtype=float))[0])


def weak_leibniz_diagnostic(sys: HamiltonianSystem, f, g, h, x):
    """Residuals of two candidate product rules for the bracket at ``x``.

    Returns ``(flat_correction, scaled_correction)`` where the first is the
    residual of ``[f, gh] = [f,g]h + g[f,h] - [f,1]`` and the second of
    ``[f, gh] = [f,g]h + g[f,h] - g h [f,1]``.  Diagnostic only; no rule is
    asserted.  A non-finite jet or bracket is a ``NumericalFailure``.
    """
    g = sys.prepare(g)
    h = sys.prepare(h)
    funcs = (f, expr.mul(g, h), g, h, expr.const(1.0))
    pairs = [(0, j) for j in range(1, 5)]
    jets, brackets = _brackets(sys, "weak_leibniz_diagnostic", funcs, pairs, x)
    b_gh, b_g, b_h, b_1 = map(float, brackets)
    gv, hv = float(jets[2, -2]), float(jets[3, -2])
    flat = b_gh - (b_g * hv + gv * b_h - b_1)
    scaled = b_gh - (b_g * hv + gv * b_h - gv * hv * b_1)
    return flat, scaled


@dataclass(eq=False)
class IntegrabilityReport:
    """Outcome of the involution/independence check for n+1 first integrals."""

    n_integrals: int
    n_samples: int
    max_pairwise_bracket: float
    max_reeb_bracket: float
    min_singular_value: float
    bracket_tol: float
    independence_tol: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "IntegrabilityReport":
        return cls(**data)


def check_integrability(
    sys: HamiltonianSystem,
    integrals: Sequence,
    sample_states: np.ndarray,
    tol: float = 1e-10,
    independence_tol: float = 1e-6,
) -> IntegrabilityReport:
    """Check that ``integrals`` (h_0 = 1, h_1, ..., h_n) are in involution and
    independent over the sampled states.

    Reports the largest pairwise bracket |[h_i, h_j]| (i, j >= 1), the
    largest Reeb bracket |[h_i, 1]|, and the smallest singular value of the
    (n+1) x (2n+1) matrix of Hamiltonian vector fields over the samples.
    ``tol`` and ``independence_tol`` must be finite numbers >= 0.
    """
    if not all(isinstance(t, (int, float)) and 0.0 <= t < math.inf
               for t in (tol, independence_tol)):
        raise ConfigError(f"tol and independence_tol must be finite numbers >= 0, "
                          f"got {tol!r} and {independence_tol!r}")
    n = sys.chart.n
    if len(integrals) != n + 1:
        raise WrongIntegralCount(
            f"expected {n + 1} integrals for a {sys.dim}-dimensional chart, got {len(integrals)}"
        )
    funcs = [sys.prepare(f) for f in integrals]
    if funcs[0] != expr.Const(1.0):
        raise WrongIntegralCount("the first integral must be the constant 1")
    states = np.asarray(sample_states, dtype=float)
    if states.ndim != 2 or len(states) < 1 or states.shape[1] != sys.dim:
        raise ConfigError(
            f"sample_states must have shape (B >= 1, {sys.dim}), got {states.shape}"
        )
    # [h_i, 1]: the d_eta term vanishes for a constant only after
    # contraction, so compute it honestly.
    pairs = [(i, 0) for i in range(1, n + 1)]
    pairs += [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    jets, brackets = _brackets(sys, "check_integrability", funcs, pairs, states)
    reeb, pair = np.array(brackets[:n]), np.array(brackets[n:])
    min_sv = np.linalg.svd(jets[:, :, :sys.dim], compute_uv=False)[:, -1].min()
    max_reeb = np.abs(reeb).max()
    max_pair = np.abs(pair).max(initial=0.0)

    passed = max_pair <= tol and max_reeb <= tol and min_sv >= independence_tol
    return IntegrabilityReport(
        n_integrals=n + 1,
        n_samples=len(states),
        max_pairwise_bracket=float(max_pair),
        max_reeb_bracket=float(max_reeb),
        min_singular_value=float(min_sv),
        bracket_tol=float(tol),
        independence_tol=float(independence_tol),
        passed=bool(passed),
    )


# ---------------------------------------------------------------------------
# Test and diagnostic utilities
# ---------------------------------------------------------------------------

def sample_states(chart, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` chart states away from coordinate singularities."""
    rng = np.random.default_rng(seed)
    return chart.sample_states(count, rng)


def contact_nondegeneracy(chart, x) -> float:
    """|det| of d_eta restricted to ker(eta) at ``x``; nonzero iff the contact
    condition eta ^ (d_eta)^n != 0 holds there."""
    x = np.asarray(x, dtype=float)
    eta = chart.eta(x)
    # rows of vh spanning the orthogonal complement of eta = kernel basis
    _, _, vh = np.linalg.svd(eta[None, :])
    kernel = vh[1:]
    restricted = kernel @ chart.d_eta(x) @ kernel.T
    return abs(float(np.linalg.det(restricted)))
