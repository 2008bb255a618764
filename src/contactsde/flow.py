"""Reproducible Brownian paths and Stratonovich integration of the contact
system together with its tangent flow and conformal factor.

Noise pipeline
--------------
Increments are reproducible bit for bit from ``(master_seed, stream_index)``
on every platform:

1. the per-stream seed is element ``stream_index`` of the SplitMix64 output
   sequence started at ``master_seed`` (golden-ratio increment followed by
   the standard SplitMix64 finalizer);
2. that seed feeds a PCG64 generator producing uniform doubles;
3. standard normals come from the polar Box-Muller method, consuming exactly
   two uniforms per attempt and accepting pairs with 0 < s < 1;
4. normals fill the d x n_steps increment matrix row by row and are scaled
   by sqrt(dt).

Schemes
-------
``heun``      predictor-corrector (Euler predictor, trapezoidal corrector).
``midpoint``  implicit Stratonovich midpoint rule, solved by fixed-point
              iteration to tolerance 1e-13 (at most 50 sweeps), tested per
              path: each path keeps the sweep at which its own update met
              ``max|dy| <= 1e-13 * max(1, max|y|)``.

One stepping core serves single paths and batches.  A state has any number
of leading axes (a single path is ``(m,)``, a batch of paths is ``(B, m)``),
so one path gives the same bits alone or as any row of a batch.  Single
paths evaluate the fields through the scalar tapes, which check domains;
batches use the array tapes.

Both schemes are applied unchanged to the augmented system carrying the flow
Jacobian J (the linearization dJ = DX J) and log of the conformal factor
(d log_lambda = -R(H_0) dt - sum_k R(H_k) o dB).  Co-integrating J with the
same internal stages makes J exactly the derivative of the discrete flow map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    IndivisibleFactor,
    InvalidStep,
    MidpointDivergence,
    NumericalFailure,
)
from .geometry import HamiltonianSystem

__all__ = [
    "BrownianPath", "sample_brownian", "coarsen",
    "Trajectory", "AugmentedState", "AugmentedTrajectory",
    "drift_diffusion", "step", "integrate", "integrate_augmented",
    "SCHEMES",
]

SCHEMES = ("heun", "midpoint")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def stream_seed(master_seed: int, stream_index: int) -> int:
    """Seed of the given noise stream: SplitMix64 output #stream_index."""
    return _splitmix64((master_seed + (stream_index + 1) * _GOLDEN) & _MASK64)


def _polar_gaussians(seed: int, count: int) -> np.ndarray:
    """``count`` standard normals via polar Box-Muller over PCG64 uniforms.

    Attempt i always consumes uniforms (2i, 2i+1) of the stream, so the
    output is independent of internal block sizing and is prefix-stable in
    ``count``.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    out = np.empty(count)
    filled = 0
    while filled < count:
        pairs_needed = (count - filled + 1) // 2
        block = max(int(pairs_needed / 0.75) + 8, 16)
        u = gen.random((block, 2))
        xy = 2.0 * u - 1.0
        s = xy[:, 0] ** 2 + xy[:, 1] ** 2
        ok = (s > 0.0) & (s < 1.0)
        xs = xy[ok, 0]
        ys = xy[ok, 1]
        ss = s[ok]
        factor = np.sqrt(-2.0 * np.log(ss) / ss)
        g = np.empty(2 * ss.size)
        g[0::2] = xs * factor
        g[1::2] = ys * factor
        take = min(g.size, count - filled)
        out[filled: filled + take] = g[:take]
        filled += take
    return out


def _increments(d: int, n_steps: int, dt: float, master_seed: int, stream_index: int) -> np.ndarray:
    """The (d, n_steps) increments of one noise stream: its normals fill the
    matrix row by row and are scaled by sqrt(dt)."""
    g = _polar_gaussians(stream_seed(master_seed, stream_index), d * n_steps)
    return (g * math.sqrt(dt)).reshape(d, n_steps)


def _n_steps(span: float, dt: float) -> int:
    """Number of steps of size ``dt`` in ``span``, which ``dt`` must divide
    to relative tolerance 1e-12."""
    n = round(span / dt)
    if n < 1 or abs(n * dt - span) > 1e-12 * max(1.0, abs(span)):
        raise InvalidStep(f"dt {dt!r} does not divide T - t0 = {span!r}")
    return n


@dataclass(frozen=True, eq=False)
class BrownianPath:
    """A seeded grid of Brownian increments shared across schemes and
    refinements.  ``increments[k, j]`` is the increment of channel k over
    step j, distributed N(0, dt)."""

    t0: float
    dt: float
    n_steps: int
    d: int
    increments: np.ndarray
    master_seed: int
    stream_index: int

    @property
    def t_final(self) -> float:
        return self.t0 + self.n_steps * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def with_zeroed_channels(self, channels: Sequence[int]) -> "BrownianPath":
        """Copy of the path with the given (0-indexed) noise channels zeroed.
        Diagnostic helper for isolating the effect of single noise terms."""
        inc = self.increments.copy()
        for k in channels:
            inc[k, :] = 0.0
        inc.setflags(write=False)
        return replace(self, increments=inc)


def sample_brownian(
    d: int, n_steps: int, dt: float, master_seed: int, stream_index: int = 0,
    t0: float = 0.0,
) -> BrownianPath:
    """Draw a reproducible Brownian path on a uniform grid starting at ``t0``.

    ``d = 0`` yields an empty increment matrix (the deterministic case).
    """
    if dt <= 0.0:
        raise InvalidStep(f"dt must be positive, got {dt!r}")
    if n_steps < 0 or d < 0:
        raise InvalidStep("n_steps and d must be nonnegative")
    inc = _increments(d, n_steps, dt, master_seed, stream_index)
    inc.setflags(write=False)
    return BrownianPath(
        t0=float(t0), dt=float(dt), n_steps=n_steps, d=d,
        increments=inc, master_seed=master_seed, stream_index=stream_index,
    )


def coarsen(path: BrownianPath, factor: int) -> BrownianPath:
    """The same sample path on a grid coarsened by ``factor`` (consecutive
    increments summed in blocks)."""
    if factor < 1 or path.n_steps % factor != 0:
        raise IndivisibleFactor(f"factor {factor} does not divide {path.n_steps} steps")
    if factor == 1:
        return path
    n_new = path.n_steps // factor
    inc = path.increments.reshape(path.d, n_new, factor).sum(axis=2)
    inc.setflags(write=False)
    return replace(path, dt=path.dt * factor, n_steps=n_new, increments=inc)


# ---------------------------------------------------------------------------
# One-step maps and the stepping loop (generic over leading path axes)
# ---------------------------------------------------------------------------

def _apply(g, dw):
    """Diffusion columns ``g`` (..., m, d) applied to increments ``dw`` (..., d)."""
    return (g @ dw[..., None])[..., 0]


def _heun_step(drift: Callable, diffusion: Callable, y, dw, dt):
    a0 = drift(y)
    g0 = diffusion(y)
    y_pred = y + a0 * dt + _apply(g0, dw)
    a1 = drift(y_pred)
    g1 = diffusion(y_pred)
    return y + 0.5 * dt * (a0 + a1) + 0.5 * _apply(g0 + g1, dw)


def _sup(a):
    """max|a| over the last axis: one value per path."""
    rows = np.abs(a).reshape(-1, a.shape[-1])
    # numpy reduces a transposed copy much faster than a short last axis.
    return rows.T.copy().max(axis=0).reshape(a.shape[:-1])


def _midpoint_step(drift, diffusion, y, dw, dt, tol=1e-13, max_iter=50):
    def image(z):
        return y + drift(z) * dt + _apply(diffusion(z), dw)

    y_new = image(y)
    done = np.zeros(y.shape[:-1], dtype=bool)
    for _ in range(max_iter):
        y_next = image(0.5 * (y + y_new))
        err = _sup(y_next - y_new)
        # A path that has met its own test keeps that sweep's value.
        y_new = np.where(done[..., None], y_new, y_next)
        done |= err <= tol * np.maximum(1.0, _sup(y_new))
        if done.all():
            return y_new
    raise MidpointDivergence(
        f"midpoint fixed point did not reach {tol:g} within {max_iter} sweeps"
    )


_STEPPERS = {"heun": _heun_step, "midpoint": _midpoint_step}


def _stepper(scheme: str):
    try:
        return _STEPPERS[scheme]
    except KeyError:
        raise InvalidStep(f"unknown scheme {scheme!r}; expected one of {SCHEMES}") from None


def _run(drift, diffusion, y, increments, dt, scheme: str, operation: str, keep: bool):
    """Step ``y`` over the grid of ``increments`` (..., d, n_steps), whose
    leading axes match those of ``y``.  Returns the (n_steps + 1, *y.shape)
    history if ``keep``, else the final value."""
    stepper = _stepper(scheme)
    n_steps = increments.shape[-1]
    if keep:
        history = np.empty((n_steps + 1, *y.shape))
        history[0] = y
    with np.errstate(all="ignore"):
        for j in range(n_steps):
            y = stepper(drift, diffusion, y, increments[..., j], dt)
            if keep:
                history[j + 1] = y
    out = history if keep else y
    if not np.isfinite(out).all():
        raise NumericalFailure(operation, "non-finite values")
    return out


def _state_fields(sys: HamiltonianSystem, y: np.ndarray) -> tuple:
    """Drift and diffusion of the state: scalar tapes for one path, array
    tapes for a (B, dim) batch."""
    if y.ndim == 1:
        return (lambda x: sys.vector_field(0, x)), sys.diffusion_matrix
    return sys.drift_batch, sys.diffusion_batch


def _initial_state(sys: HamiltonianSystem, x0, path: BrownianPath) -> np.ndarray:
    if path.d != sys.d:
        raise InvalidStep(f"path has {path.d} noise channels, system expects {sys.d}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.dim,):
        raise InvalidStep(f"initial state must have length {sys.dim}")
    return x0


# ---------------------------------------------------------------------------
# State-space integration
# ---------------------------------------------------------------------------

def drift_diffusion(sys: HamiltonianSystem, x) -> tuple:
    """Drift vector X_{H_0}(x) and the (dim x d) matrix of diffusion columns
    X_{H_k}(x)."""
    return sys.drift_diffusion(np.asarray(x, dtype=float))


def step(sys: HamiltonianSystem, x, dw, dt: float, scheme: str = "heun") -> np.ndarray:
    """Advance the state by one step of the chosen Stratonovich scheme."""
    x = np.asarray(x, dtype=float)
    dw = np.asarray(dw, dtype=float)
    return _run(*_state_fields(sys, x), x, dw[..., None], float(dt), scheme, "step", False)


@dataclass(eq=False)
class Trajectory:
    """Uniformly spaced time series of states; ``states[i]`` at ``times[i]``."""

    times: np.ndarray
    states: np.ndarray

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def integrate(sys: HamiltonianSystem, x0, path: BrownianPath, scheme: str = "heun") -> Trajectory:
    """Integrate the stochastic contact system over the grid of ``path``."""
    x0 = _initial_state(sys, x0, path)
    states = _run(*_state_fields(sys, x0), x0, path.increments, path.dt, scheme, "integrate", True)
    return Trajectory(times=path.times(), states=states)


# ---------------------------------------------------------------------------
# Augmented integration: state + flow Jacobian + conformal factor
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class AugmentedState:
    """State together with the flow Jacobian J = dx_t/dx_0 and log of the
    conformal factor (log_lambda = 0, J = I at the initial time)."""

    x: np.ndarray
    jacobian: np.ndarray
    log_lambda: float


@dataclass(eq=False)
class AugmentedTrajectory:
    times: np.ndarray
    states: np.ndarray       # (n+1, dim)
    jacobians: np.ndarray    # (n+1, dim, dim)
    log_lambda: np.ndarray   # (n+1,)

    def state(self, i: int) -> AugmentedState:
        return AugmentedState(self.states[i], self.jacobians[i], float(self.log_lambda[i]))

    @property
    def conformal_factor(self) -> np.ndarray:
        return np.exp(self.log_lambda)


def integrate_augmented(
    sys: HamiltonianSystem, x0, path: BrownianPath, scheme: str = "heun"
) -> AugmentedTrajectory:
    """Co-integrate state, tangent flow and conformal factor on one grid.

    The augmented drift/diffusion fields are, per Hamiltonian H_i,

        dx        = X_{H_i}
        dJ        = DX_{H_i}(x) J
        dlog_lam  = -R(H_i)(x)

    applied with the same increments and scheme as the state itself.
    """
    x0 = _initial_state(sys, x0, path)
    dim = sys.dim
    d = sys.d
    n_aug = dim + dim * dim + 1

    def unpack(y):
        return y[:dim], y[dim:-1].reshape(dim, dim)

    def drift(y):
        x, jac = unpack(y)
        out = np.empty(n_aug)
        out[:dim] = sys.vector_field(0, x)
        out[dim:-1] = (sys.vector_field_jacobian(0, x) @ jac).ravel()
        out[-1] = -sys.reeb_rate(0, x)
        return out

    def diffusion(y):
        x, jac = unpack(y)
        out = np.empty((n_aug, d))
        for k in range(d):
            out[:dim, k] = sys.vector_field(k + 1, x)
            out[dim:-1, k] = (sys.vector_field_jacobian(k + 1, x) @ jac).ravel()
            out[-1, k] = -sys.reeb_rate(k + 1, x)
        return out

    y0 = np.concatenate([x0, np.eye(dim).ravel(), [0.0]])
    ys = _run(drift, diffusion, y0, path.increments, path.dt, scheme, "integrate_augmented", True)
    return AugmentedTrajectory(
        times=path.times(), states=ys[:, :dim],
        jacobians=ys[:, dim:-1].reshape(-1, dim, dim), log_lambda=ys[:, -1],
    )


# ---------------------------------------------------------------------------
# Batched integration (one row per path; used by the ensemble runner)
# ---------------------------------------------------------------------------

def integrate_batch_final(
    sys: HamiltonianSystem,
    initial_states: np.ndarray,
    increments: np.ndarray,
    dt: float,
    scheme: str = "heun",
) -> np.ndarray:
    """Final states of many independent paths integrated in lockstep.

    ``initial_states`` is (B, dim) and ``increments`` is (B, d, n_steps).
    Only the final state is kept; intermediate states are discarded.
    """
    states = np.asarray(initial_states, dtype=float)
    return _run(*_state_fields(sys, states), states, increments, dt, scheme,
                "integrate_batch_final", False)
