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

The coordinate formulas above are normative.  Contracting them into the
defining relations gives ``eta(X_H) = sigma H`` with a chart-dependent sign
``sigma`` (Darboux: -1, Sasaki-Einstein: +1); ``check_intrinsic_relations``
reports residuals with respect to that convention and does not "fix" either
formula.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------

class DarbouxChart:
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
        m = np.zeros((self.dim, self.dim))
        for j in range(n):
            m[j, n + j] = 1.0
            m[n + j, j] = -1.0
        m.setflags(write=False)
        self._d_eta = m

    def eta(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim)
        out[: self.n] = -x[self.n: 2 * self.n]
        out[-1] = 1.0
        return out

    def d_eta(self, x: np.ndarray) -> np.ndarray:
        return self._d_eta

    def d_eta_upper_entries_exprs(self):
        """Structural entries (a, b, coefficient) of d_eta with a < b; the
        (b, a) entries are the exact negatives."""
        one = expr.const(1.0)
        return [(j, self.n + j, one) for j in range(self.n)]

    def d_eta_upper(self, x: np.ndarray):
        return [(j, self.n + j, 1.0) for j in range(self.n)]

    def reeb(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim)
        out[-1] = 1.0
        return out

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

    def reeb_derivative_expr(self, f: expr.Expr) -> expr.Expr:
        return expr.differentiate(f, "z")

    def guard(self, x: np.ndarray) -> None:
        pass

    def guard_batch(self, states: np.ndarray) -> None:
        # Kept by name for bench/layertrace.py, which patches it; src/ calls guard.
        self.guard(states)

    def sample_states(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-2.0, 2.0, size=(count, self.dim))


class SasakiEinsteinChart:
    """Homogeneous toric chart on the five-dimensional space T^{1,1}."""

    kind = "sasaki-einstein"
    sigma = 1.0
    n = 2
    dim = 5
    names = ("theta1", "theta2", "phi1", "phi2", "psi")

    def eta(self, x: np.ndarray) -> np.ndarray:
        return np.array([0.0, 0.0, math.cos(x[0]) / 3.0, math.cos(x[1]) / 3.0, 1.0 / 3.0])

    def d_eta(self, x: np.ndarray) -> np.ndarray:
        m = np.zeros((5, 5))
        s1 = math.sin(x[0]) / 3.0
        s2 = math.sin(x[1]) / 3.0
        m[0, 2] = -s1
        m[2, 0] = s1
        m[1, 3] = -s2
        m[3, 1] = s2
        return m

    def d_eta_upper_entries_exprs(self):
        third = expr.const(1.0 / 3.0)
        s1 = expr.mul(third, expr.sin(expr.var("theta1")))
        s2 = expr.mul(third, expr.sin(expr.var("theta2")))
        return [(0, 2, expr.negate(s1)), (1, 3, expr.negate(s2))]

    def d_eta_upper(self, x: np.ndarray):
        return [
            (0, 2, -np.sin(x[..., 0]) / 3.0),
            (1, 3, -np.sin(x[..., 1]) / 3.0),
        ]

    def reeb(self, x: np.ndarray) -> np.ndarray:
        return np.array([0.0, 0.0, 0.0, 0.0, 3.0])

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

    def reeb_derivative_expr(self, f: expr.Expr) -> expr.Expr:
        return expr.mul(expr.const(3.0), expr.differentiate(f, "psi"))

    def guard(self, x: np.ndarray) -> None:
        """Reject a state (5,) or a batch (B, 5) near sin(theta_i) = 0."""
        if x.ndim > 1:
            if bool((np.abs(np.sin(x[:, :2])) < SIN_GUARD).any()):
                raise SingularChartPoint("batch contains states near sin(theta_i) = 0")
        elif abs(math.sin(x[0])) < SIN_GUARD or abs(math.sin(x[1])) < SIN_GUARD:
            raise SingularChartPoint(
                f"|sin(theta_i)| below {SIN_GUARD:g} at theta=({x[0]!r}, {x[1]!r})"
            )

    def guard_batch(self, states: np.ndarray) -> None:
        # Kept by name for bench/layertrace.py, which patches it; src/ calls guard.
        self.guard(states)

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
        return DarbouxChart(n)
    if kind == "sasaki-einstein":
        return SasakiEinsteinChart()
    raise ConfigError(f"unknown chart kind {kind!r}")


# ---------------------------------------------------------------------------
# Hamiltonian systems
# ---------------------------------------------------------------------------

class HamiltonianSystem:
    """A chart together with a drift Hamiltonian H_0, noise Hamiltonians
    H_1..H_d, and precompiled vector fields, state-Jacobians, gradients and
    Reeb derivatives of every H_i.

    The per-state methods (``hamiltonian``, ``gradient``, ``vector_field``,
    ``vector_field_jacobian``, ``reeb_rate``, ``diffusion_matrix``,
    ``drift_diffusion``) take one state ``(dim,)`` or a batch ``(B, dim)``
    and give a result with the same leading axes; all go through one
    evaluator, ``_eval``, as do the jets (``_jet``) behind the brackets.

    Constants are substituted at build time, so every compiled tape reads
    only chart coordinates.  Instances are immutable after construction and
    safe to share between threads or pickle to worker processes.
    """

    def __init__(self, chart, h0, noise=(), constants=None):
        self.chart = chart
        self.constants = dict(constants or {})
        names = list(chart.names) + list(self.constants)
        self.sources = tuple(
            h if isinstance(h, str) else expr.to_source(h) for h in (h0, *noise)
        )
        prepared = []
        for h in (h0, *noise):
            tree = expr.parse(h, names) if isinstance(h, str) else h
            prepared.append(expr.substitute(tree, self.constants))
        for tree in prepared:
            extra = expr.free_variables(tree) - set(chart.names)
            if extra:
                raise ConfigError(f"Hamiltonian references unknown names {sorted(extra)}")
        self.hamiltonians = tuple(prepared)
        layout = chart.names
        self._h_tapes = tuple(expr.compile_tape(h, layout) for h in prepared)
        self._grad_tapes = tuple(
            tuple(expr.compile_tape(expr.differentiate(h, c), layout) for c in layout)
            for h in prepared
        )
        self.vector_field_exprs = tuple(
            tuple(chart.vector_field_exprs(h)) for h in prepared
        )
        self._x_tapes = tuple(
            tuple(expr.compile_tape(c, layout) for c in comps)
            for comps in self.vector_field_exprs
        )
        # DX_H flattened row-major (dim, dim); diffusion row-major (dim, d).
        self._dx_tapes = tuple(
            tuple(
                expr.compile_tape(expr.differentiate(c, name), layout)
                for c in comps for name in layout
            )
            for comps in self.vector_field_exprs
        )
        self._diffusion_tapes = tuple(
            self._x_tapes[k][r] for r in range(chart.dim) for k in range(1, len(prepared))
        )
        self._reeb_tapes = tuple(
            expr.compile_tape(chart.reeb_derivative_expr(h), layout) for h in prepared
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
        constants, leaving only chart coordinates free."""
        names = list(self.chart.names) + list(self.constants)
        tree = expr.parse(f, names) if isinstance(f, str) else f
        tree = expr.substitute(tree, self.constants)
        extra = expr.free_variables(tree) - set(self.chart.names)
        if extra:
            raise ConfigError(f"expression references unknown names {sorted(extra)}")
        return tree

    def _jet(self, f) -> tuple:
        """Tapes of ``(X_f components..., f, R(f))`` over the chart
        coordinates; ``_eval`` of a jet gives dim + 2 values per state."""
        f = self.prepare(f)
        chart = self.chart
        parts = (*chart.vector_field_exprs(f), f, chart.reeb_derivative_expr(f))
        return tuple(expr.compile_tape(e, chart.names) for e in parts)

    # -- evaluation at a state (dim,) or a batch (B, dim) --------------------

    def _eval(self, tapes, x: np.ndarray) -> np.ndarray:
        """Values of ``tapes`` at ``x``: shape (len(tapes),) for one state,
        (B, len(tapes)) for a batch.  One state runs the tapes on Python
        floats (scalar mode, with domain checks); a batch runs them on its
        columns (array mode)."""
        if x.ndim == 1:
            values = x.tolist()
            return np.array([t(values) for t in tapes])
        columns = list(x.T)
        out = np.empty((x.shape[0], len(tapes)))
        for r, tape in enumerate(tapes):
            out[:, r] = tape(columns)
        return out

    def hamiltonian(self, i: int, x: np.ndarray):
        return self._eval(self._h_tapes[i:i + 1], x)[..., 0]

    def gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        return self._eval(self._grad_tapes[i], x)

    def vector_field(self, i: int, x: np.ndarray) -> np.ndarray:
        self.chart.guard(x)
        return self._eval(self._x_tapes[i], x)

    def vector_field_jacobian(self, i: int, x: np.ndarray) -> np.ndarray:
        self.chart.guard(x)
        return self._eval(self._dx_tapes[i], x).reshape(*x.shape[:-1], self.dim, self.dim)

    def reeb_rate(self, i: int, x: np.ndarray):
        return self._eval(self._reeb_tapes[i:i + 1], x)[..., 0]

    def diffusion_matrix(self, x: np.ndarray) -> np.ndarray:
        self.chart.guard(x)
        return self._eval(self._diffusion_tapes, x).reshape(*x.shape[:-1], self.dim, self.d)

    def drift_diffusion(self, x: np.ndarray):
        """Drift vector X_{H_0}(x) and diffusion columns X_{H_k}(x); the state
        is guarded once, by ``vector_field``."""
        return (self.vector_field(0, x),
                self._eval(self._diffusion_tapes, x).reshape(*x.shape[:-1], self.dim, self.d))

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


def _bracket(chart, x, jf, jg):
    """d_eta(X_f, X_g) + f R(g) - g R(f) from the jets of ``f`` and ``g`` at
    a state (dim + 2,) or a batch (B, dim + 2).  d_eta(X_f, X_g) sums coeff *
    (Xf_a Xg_b - Xf_b Xg_a) over the structural upper entries, so [f, f]
    vanishes exactly and swapping arguments negates the value bit for bit."""
    total = 0.0
    for a, b, coeff in chart.d_eta_upper(x):
        total += coeff * (jf[..., a] * jg[..., b] - jf[..., b] * jg[..., a])
    return total + jf[..., -2] * jg[..., -1] - jg[..., -2] * jf[..., -1]


def jacobi_bracket(sys: HamiltonianSystem, f, g, x) -> float:
    """Jacobi bracket [f, g] at ``x``:
    ``d_eta(X_f, X_g) + f R(g) - g R(f)``, with R the Reeb derivative.
    """
    x = np.asarray(x, dtype=float)
    sys.chart.guard(x)
    jf, jg = np.split(sys._eval(sys._jet(f) + sys._jet(g), x), 2)
    return float(_bracket(sys.chart, x, jf, jg))


def jacobi_bracket_expr(sys: HamiltonianSystem, f, g) -> expr.Expr:
    """The bracket [f, g] as a symbolic expression over chart coordinates.

    Useful for nesting (Jacobi identity, iterated brackets)."""
    f = sys.prepare(f)
    g = sys.prepare(g)
    chart = sys.chart
    xf = chart.vector_field_exprs(f)
    xg = chart.vector_field_exprs(g)
    acc = expr.const(0.0)
    for a, b, entry in chart.d_eta_upper_entries_exprs():
        paired = expr.sub(expr.mul(xf[a], xg[b]), expr.mul(xf[b], xg[a]))
        acc = expr.add(acc, expr.mul(entry, paired))
    acc = expr.add(acc, expr.mul(f, chart.reeb_derivative_expr(g)))
    acc = expr.sub(acc, expr.mul(g, chart.reeb_derivative_expr(f)))
    return acc


def reeb_derivative(sys: HamiltonianSystem, f, x) -> float:
    """Derivative of ``f`` along the Reeb field at ``x`` (iota_R df)."""
    return float(sys._eval(sys._jet(f)[-1:], np.asarray(x, dtype=float))[0])


def weak_leibniz_diagnostic(sys: HamiltonianSystem, f, g, h, x):
    """Residuals of two candidate product rules for the bracket at ``x``.

    Returns ``(flat_correction, scaled_correction)`` where the first is the
    residual of ``[f, gh] = [f,g]h + g[f,h] - [f,1]`` and the second of
    ``[f, gh] = [f,g]h + g[f,h] - g h [f,1]``.  Diagnostic only; no rule is
    asserted.
    """
    x = np.asarray(x, dtype=float)
    sys.chart.guard(x)
    g = sys.prepare(g)
    h = sys.prepare(h)
    funcs = (f, expr.mul(g, h), g, h, expr.const(1.0))
    jf, jgh, jg, jh, j1 = np.split(sys._eval(sum(map(sys._jet, funcs), ()), x), 5)
    b_gh, b_g, b_h, b_1 = (float(_bracket(sys.chart, x, jf, j)) for j in (jgh, jg, jh, j1))
    gv, hv = float(jg[-2]), float(jh[-2])
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
        return {
            "n_integrals": self.n_integrals,
            "n_samples": self.n_samples,
            "max_pairwise_bracket": self.max_pairwise_bracket,
            "max_reeb_bracket": self.max_reeb_bracket,
            "min_singular_value": self.min_singular_value,
            "bracket_tol": self.bracket_tol,
            "independence_tol": self.independence_tol,
            "passed": self.passed,
        }

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
    """
    n = sys.chart.n
    if len(integrals) != n + 1:
        raise WrongIntegralCount(
            f"expected {n + 1} integrals for a {sys.dim}-dimensional chart, got {len(integrals)}"
        )
    tapes = sum(map(sys._jet, integrals), ())
    if sys.prepare(integrals[0]) != expr.Const(1.0):
        raise WrongIntegralCount("the first integral must be the constant 1")
    states = np.asarray(sample_states, dtype=float)
    if states.ndim != 2 or len(states) < 1 or states.shape[1] != sys.dim:
        raise ConfigError(
            f"sample_states must have shape (B >= 1, {sys.dim}), got {states.shape}"
        )

    sys.chart.guard(states)
    with np.errstate(all="ignore"):
        jets = sys._eval(tapes, states)
        bad = ~np.isfinite(jets).all(axis=1)
        if bad.any():
            # Array mode skips domain checks: a scalar-mode replay of the
            # first bad state raises the DomainError naming its node, if any.
            sys._eval(tapes, states[bad.argmax()])
            raise NumericalFailure("check_integrability", "non-finite values")
        jets = jets.reshape(len(states), n + 1, sys.dim + 2)

        def sup(i, j):
            return np.abs(_bracket(sys.chart, states, jets[:, i], jets[:, j])).max()

        # [h_i, 1]: the d_eta term vanishes for a constant only after
        # contraction, so compute it honestly.
        max_reeb = max(sup(i, 0) for i in range(1, n + 1))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        max_pair = max((sup(i, j) for i, j in pairs), default=0.0)
        min_sv = np.linalg.svd(jets[:, :, :sys.dim], compute_uv=False)[:, -1].min()

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
