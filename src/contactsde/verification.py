"""Structure-preservation certificates, convergence studies, and Monte Carlo
statistics against closed-form oracles.

The central check: along an augmented trajectory the covector

    r(t) = eta(x_t) . J_t - exp(log_lambda_t) . eta(x_0)

vanishes identically for the exact flow (the flow rescales the contact form
by the conformal factor).  For a consistent one-step scheme the defect decays
with the step size; the convergence helpers measure that decay on a single
Brownian sample shared across refinements via coarsening, never on
re-sampled noise.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import expr
from .errors import (
    ConfigError, IndivisibleFactor, InvalidStep, MissingTangentData, NumericalFailure,
)
from .flow import (
    AugmentedTrajectory,
    BrownianPath,
    coarsen,
    integrate,
    integrate_augmented,
    integrate_batch_final,
    _channels,
    _check_count,
    _check_seed,
    _conformal_factor,
    _draw_increments,
    _initial_state,
    _n_steps,
)
from .geometry import HamiltonianSystem, _eval

__all__ = [
    "ContactDefectReport", "ConvergenceReport", "EnsembleStats",
    "contact_defect", "conformal_factor_check", "finite_difference_jacobian",
    "convergence_study", "defect_convergence", "monte_carlo",
]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ContactDefectReport:
    """Pullback residual of the contact form along one trajectory."""

    times: np.ndarray
    residuals: np.ndarray   # (n+1, dim) covector rows
    sup_norms: np.ndarray   # (n+1,)
    max_sup: float

    def to_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "residuals": self.residuals.tolist(),
            "sup_norms": self.sup_norms.tolist(),
            "max_sup": self.max_sup,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ContactDefectReport":
        return cls(
            times=np.asarray(data["times"], dtype=float),
            residuals=np.asarray(data["residuals"], dtype=float),
            sup_norms=np.asarray(data["sup_norms"], dtype=float),
            max_sup=float(data["max_sup"]),
        )

    def to_csv(self, fileobj) -> None:
        """Write columns t, r_1..r_dim, sup with 17 significant digits."""
        dim = self.residuals.shape[1]
        header = "t," + ",".join(f"r_{i+1}" for i in range(dim)) + ",sup\n"
        fileobj.write(header)
        for i, t in enumerate(self.times):
            row = [f"{t:.17g}"]
            row += [f"{v:.17g}" for v in self.residuals[i]]
            row.append(f"{self.sup_norms[i]:.17g}")
            fileobj.write(",".join(row) + "\n")


@dataclass(eq=False)
class ConvergenceReport:
    """Errors over a nested family of step sizes (descending, factor 2)."""

    label: str
    dts: list
    errors: list
    orders: list  # log2(errors[i] / errors[i+1]) per adjacent pair

    def to_dict(self) -> dict:
        return {"label": self.label, "dts": self.dts, "errors": self.errors, "orders": self.orders}

    @classmethod
    def from_dict(cls, data: dict) -> "ConvergenceReport":
        return cls(
            label=data["label"],
            dts=[float(v) for v in data["dts"]],
            errors=[float(v) for v in data["errors"]],
            orders=[float(v) for v in data["orders"]],
        )


@dataclass(eq=False)
class EnsembleStats:
    """Sample statistics of an observable over independent noise streams."""

    n_paths: int
    observable: str
    mean: float
    variance: float
    stderr: float

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EnsembleStats":
        return cls(
            n_paths=int(data["n_paths"]),
            observable=data["observable"],
            mean=float(data["mean"]),
            variance=float(data["variance"]),
            stderr=float(data["stderr"]),
        )


def _fitted_orders(errors: Sequence[float]) -> list:
    orders = []
    for coarse, fine in zip(errors[:-1], errors[1:]):
        if coarse > 0.0 and fine > 0.0:
            orders.append(math.log2(coarse / fine))
        else:
            orders.append(math.inf if coarse > 0.0 else 0.0)
    return orders


# ---------------------------------------------------------------------------
# Structure checks
# ---------------------------------------------------------------------------

def contact_defect(traj: AugmentedTrajectory, chart) -> ContactDefectReport:
    """Residual eta(x_t) J_t - lambda_t eta(x_0) per time, with sup norms.

    At the initial time the residual is exactly zero (J = I, lambda = 1).
    The whole grid is one array pass: eta at every state from one array-mode
    tape call, lambda_t = ``_conformal_factor`` per time (``math.exp``), and
    the row products ``eta_t J_t`` as one stacked matmul, which runs numpy's
    per-item product.  Both charts' eta use only arithmetic and ``cos``,
    which numpy and ``math`` round alike, so the residuals are bit-equal to
    a per-state loop's.  A chart whose dimension is not the states' width
    is an ``InvalidStep``.
    """
    if getattr(traj, "jacobians", None) is None or getattr(traj, "log_lambda", None) is None:
        raise MissingTangentData("trajectory carries no tangent flow / conformal factor")
    width = traj.states.shape[-1]
    if width != chart.dim:
        raise InvalidStep(f"states have width {width}, the {chart.kind} chart has dimension "
                          f"{chart.dim}")
    eta = chart.eta(traj.states)
    lam = np.array([_conformal_factor(v, "contact_defect") for v in traj.log_lambda.tolist()])
    residuals = (eta[:, None, :] @ traj.jacobians)[:, 0, :] - lam[:, None] * eta[0]
    sups = np.max(np.abs(residuals), axis=1)
    return ContactDefectReport(
        times=traj.times.copy(),
        residuals=residuals,
        sup_norms=sups,
        max_sup=float(sups.max()),
    )


def conformal_factor_check(traj: AugmentedTrajectory, closed_form) -> float:
    """Max over the grid of |exp(log_lambda_t) - closed_form(t)|.

    ``closed_form`` is an expression in the single variable ``t``.  A form
    that reads no ``t`` gives the same float at every time, so its tape runs
    once, at the first time; a form in ``t`` runs once per time.
    """
    if not isinstance(closed_form, (str, *expr.NODE_TYPES)):
        raise ConfigError(f"closed_form must be an expression, got {closed_form!r}")
    cf = expr.parse(closed_form, ["t"]) if isinstance(closed_form, str) else closed_form
    tape = expr.compile_tape(cf, ["t"])
    times = traj.times.tolist()
    constant = "t" not in expr.free_variables(cf)
    if constant:
        value = tape([times[0]])
    dev = 0.0
    for t, ll in zip(times, traj.log_lambda):
        lam = _conformal_factor(ll, "conformal_factor_check")
        dev = max(dev, abs(lam - (value if constant else tape([t]))))
    return dev


def finite_difference_jacobian(
    sys: HamiltonianSystem, x0, path: BrownianPath, scheme: str = "heun", h: float = 1e-5
) -> np.ndarray:
    """Central-difference Jacobian of the time-T flow map, re-integrating
    with the same path: the 2 dim perturbed starts run as one batch.
    Independent oracle for the co-integrated tangent flow."""
    if not (math.isfinite(h) and h > 0.0):
        raise InvalidStep(f"h must be finite and positive, got {h!r}")
    x0 = _initial_state(sys, x0, path.d, path.dt)
    dim = x0.size
    starts = np.tile(x0, (2, dim, 1))
    cols = np.arange(dim)
    starts[0, cols, cols] += h
    starts[1, cols, cols] -= h
    increments = np.broadcast_to(path.increments, (2 * dim, *path.increments.shape))
    finals = integrate_batch_final(sys, starts.reshape(2 * dim, dim), increments, path.dt, scheme)
    return np.ascontiguousarray((finals[:dim] - finals[dim:]).T / (2.0 * h))


# ---------------------------------------------------------------------------
# Convergence studies (same Brownian sample across levels)
# ---------------------------------------------------------------------------

def _check_levels(path: BrownianPath, levels: int) -> None:
    _check_count("levels", levels, 3)
    if path.n_steps % (2 ** (levels - 1)) != 0:
        raise IndivisibleFactor(
            f"finest grid of {path.n_steps} steps is not divisible by 2^{levels - 1}"
        )


def convergence_study(
    sys: HamiltonianSystem, x0, finest_path: BrownianPath, scheme: str = "heun", levels: int = 3
) -> ConvergenceReport:
    """Strong self-convergence: final-state error of each coarsened grid
    against the finest grid on the same Brownian sample."""
    _check_levels(finest_path, levels)
    reference = integrate(sys, x0, finest_path, scheme).final_state
    dts = []
    errors = []
    for j in range(levels - 1, 0, -1):
        coarse = coarsen(finest_path, 2 ** j)
        final = integrate(sys, x0, coarse, scheme).final_state
        dts.append(coarse.dt)
        errors.append(float(np.linalg.norm(final - reference)))
    return ConvergenceReport(
        label="strong_error_vs_finest", dts=dts, errors=errors, orders=_fitted_orders(errors)
    )


def defect_convergence(
    sys: HamiltonianSystem, x0, finest_path: BrownianPath, scheme: str = "heun", levels: int = 3
) -> ConvergenceReport:
    """Max contact-defect sup norm per step size, finest level included."""
    return _defect_ladder(sys, x0, finest_path, scheme, levels)[0]


def _defect_ladder(
    sys: HamiltonianSystem, x0, finest_path: BrownianPath, scheme: str, levels: int
) -> tuple:
    """``defect_convergence``'s report and the finest level's trajectory."""
    _check_levels(finest_path, levels)
    dts = []
    errors = []
    for j in range(levels - 1, -1, -1):
        coarse = coarsen(finest_path, 2 ** j)
        traj = integrate_augmented(sys, x0, coarse, scheme)
        dts.append(coarse.dt)
        errors.append(contact_defect(traj, sys.chart).max_sup)
    report = ConvergenceReport(
        label="contact_defect_sup", dts=dts, errors=errors, orders=_fitted_orders(errors)
    )
    return report, traj


# ---------------------------------------------------------------------------
# Monte Carlo ensembles
# ---------------------------------------------------------------------------

def _mc_batch(args) -> np.ndarray:
    (sys, x0, dt, n_steps, master_seed, start, count, scheme,
     observable, zero_channels) = args
    d = sys.d
    increments = np.empty((count, d, n_steps))
    _draw_increments(increments.reshape(count, d * n_steps), dt, master_seed, start)
    for k in zero_channels:
        increments[:, k, :] = 0.0
    initial = np.tile(np.asarray(x0, dtype=float), (count, 1))
    finals = integrate_batch_final(sys, initial, increments, dt, scheme)
    return _eval(observable, finals)[:, 0]


def monte_carlo(
    sys: HamiltonianSystem,
    x0,
    T: float,
    dt: float,
    n_paths: int,
    master_seed: int,
    observable,
    t0: float = 0.0,
    scheme: str = "heun",
    workers: int = 1,
    batch_size: int = 1024,
    zero_channels: Sequence[int] = (),
) -> EnsembleStats:
    """Mean/variance/standard error of ``observable(x_T)`` over paths driven
    by independent noise streams 0..n_paths-1.

    Paths are processed in fixed-size batches ordered by stream index, so the
    result is bit-identical for any worker count.  ``zero_channels`` is a
    diagnostic knob that switches off individual noise channels (0-indexed,
    each in 0..d-1); ``n_paths`` must be an integer of at least 2, and
    ``batch_size`` and ``workers`` integers of at least 1.
    """
    _check_count("n_paths", n_paths, 2)
    _check_seed(master_seed)
    n_steps = _n_steps(T - t0, dt)
    _check_count("batch_size", batch_size, 1)
    _check_count("workers", workers, 1)
    zero_channels = _channels(zero_channels, sys.d)
    tape = expr.compile_tape([sys.prepare(observable)], sys.chart.names)
    observable_source = observable if isinstance(observable, str) else expr.to_source(observable)

    batches = []
    start = 0
    while start < n_paths:
        count = min(batch_size, n_paths - start)
        batches.append(
            (sys, x0, float(dt), n_steps, master_seed, start, count, scheme,
             tape, zero_channels)
        )
        start += count

    if workers > 1 and len(batches) > 1:
        # Imported here: no other command pays for the import.  A fork pool
        # starts all its workers at the first submit: start no more than
        # there are batches.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(batches))) as pool:
            parts = list(pool.map(_mc_batch, batches))
    else:
        parts = [_mc_batch(b) for b in batches]
    values = np.concatenate(parts)
    if not np.isfinite(values).all():
        raise NumericalFailure("monte_carlo", "non-finite values")

    mean = float(np.mean(values))
    variance = float(np.var(values, ddof=1))
    return EnsembleStats(
        n_paths=n_paths,
        observable=observable_source,
        mean=mean,
        variance=variance,
        stderr=math.sqrt(variance / n_paths),
    )
