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

One stepping core serves single paths and batches of the state system and
the augmented one: one stepper per scheme and one loop, ``_run``, drive a
stage through two calls.  ``fields(y)`` evaluates the drift and diffusion
at a state, a single path ``(m,)`` or a batch of paths ``(m, B)``, one row
per coordinate and the paths on the last axis; ``advance`` applies them,
as ``y + a dt + g dw`` or as Heun's trapezoid ``y + 0.5 dt (a0 + a1) +
0.5 (g0 + g1) dw``.  The stages are ``geometry._Stage`` objects, which each
``HamiltonianSystem`` builds once and which alone know their structure and
summation order.  ``step`` and ``integrate_batch_final`` take and return a
batch as ``(B, m)``, one row per path, and convert it once.

The augmented system carries, with the state, the flow Jacobian J (dJ =
DX J) and the log of the conformal factor (d log_lambda = -R(H_0) dt -
sum_k R(H_k) o dB).  Co-integrating J with the same internal stages makes J
exactly the derivative of the discrete flow map, and under Heun the states
are bit-equal to ``integrate``'s.

``_run`` stops with ``NumericalFailure`` at the first non-finite state, so
no stage evaluates a blown-up state.  A domain fault in a batch raises the
``DomainError`` that its first faulting path raises alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

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
    to relative tolerance 1e-12; both must be finite and ``dt`` > 0."""
    if not (math.isfinite(span) and math.isfinite(dt) and dt > 0.0):
        raise InvalidStep(f"need a finite T - t0 and a finite dt > 0, got {span!r} and {dt!r}")
    n = round(span / dt)
    if n < 1 or abs(n * dt - span) > 1e-12 * max(1.0, abs(span)):
        raise InvalidStep(f"dt {dt!r} does not divide T - t0 = {span!r}")
    return n


def _channels(channels: Sequence[int], d: int) -> tuple:
    """``channels`` as a tuple, each a noise channel in 0..d-1."""
    channels = tuple(channels)
    if not all(0 <= k < d for k in channels):
        raise InvalidStep(f"noise channels must lie in 0..{d - 1}, got {list(channels)}")
    return channels


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
        for k in _channels(channels, self.d):
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
    if not (dt > 0.0 and math.isfinite(dt)):
        raise InvalidStep(f"dt must be finite and positive, got {dt!r}")
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
# One-step maps and the stepping loop (a single path (m,) or a batch (m, B))
# ---------------------------------------------------------------------------

def _heun_step(stage, y, dw, dt):
    k0 = stage.fields(y)
    k1 = stage.fields(stage.advance(y, dw, dt, k0))
    return stage.advance(y, dw, dt, k0, k1)


def _sup(a):
    """max|a| over the first axis: one value per path."""
    return np.abs(a).max(axis=0)


def _midpoint_step(stage, y, dw, dt, tol=1e-13, max_iter=50):
    def image(z):
        return stage.advance(y, dw, dt, stage.fields(z))

    y_new = image(y)
    done = np.zeros(y.shape[1:], dtype=bool)
    for _ in range(max_iter):
        y_next = image(0.5 * (y + y_new))
        err = _sup(y_next - y_new)
        # A path that has met its own test keeps that sweep's value.
        y_new = np.where(done, y_new, y_next)
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


def _run(stage, y, increments, dt, scheme: str, operation: str, keep: bool):
    """Step ``y``, (m,) or (m, B), with ``stage`` over the grid of
    ``increments``, (d, n_steps) or (d, n_steps, B) to match.  Returns the
    (n_steps + 1, *y.shape) history if ``keep``, else the final value.
    Raises ``NumericalFailure`` at the first non-finite state, the initial
    one included, so no stage ever evaluates the fields of a blown-up state.
    Each step's increments are gathered once into contiguous memory."""
    stepper = _stepper(scheme)
    n_steps = increments.shape[1]
    if keep:
        history = np.empty((n_steps + 1, *y.shape))
    with np.errstate(all="ignore"):
        for j in range(n_steps + 1):
            if not np.isfinite(y).all():
                raise NumericalFailure(operation, "non-finite values")
            if keep:
                history[j] = y
            if j < n_steps:
                y = stepper(stage, y, np.ascontiguousarray(increments[:, j]), dt)
    return history if keep else y


def _initial_state(sys: HamiltonianSystem, x0, d: int, dt: float, paths=()) -> np.ndarray:
    """``x0`` as floats, one state (dim,) or, given ``paths = (B,)``, a batch
    (B, dim), checked to be stepped on ``sys`` by ``d`` noise channels at
    step ``dt`` > 0; anything else is an ``InvalidStep``."""
    if d != sys.d:
        raise InvalidStep(f"path has {d} noise channels, system expects {sys.d}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidStep(f"dt must be finite and positive, got {dt!r}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape[:-1] != paths:
        raise InvalidStep(
            f"initial states have shape {x0.shape}, increments need {(*paths, sys.dim)}")
    if x0.shape[-1:] != (sys.dim,):
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
    """Advance a state (dim,) with increments (d,), or a batch of states (B,
    dim) with increments (B, d), by one step of the chosen Stratonovich
    scheme; the result has the shape of ``x``."""
    dw = np.asarray(dw, dtype=float)
    if dw.ndim not in (1, 2):
        raise InvalidStep(f"increments must be (d,) or (B, d), got shape {dw.shape}")
    x = _initial_state(sys, x, dw.shape[-1], dt, dw.shape[:-1])
    return _run(sys._state_stage, np.ascontiguousarray(x.T), dw.T[:, None],
                float(dt), scheme, "step", False).T


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
    x0 = _initial_state(sys, x0, path.d, path.dt)
    states = _run(sys._state_stage, x0, path.increments, path.dt, scheme,
                  "integrate", True)
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
        """lambda = exp(log_lambda) per time, by ``_conformal_factor``."""
        return np.array([_conformal_factor(v, "conformal_factor")
                         for v in self.log_lambda.tolist()])


def _conformal_factor(log_lambda: float, operation: str) -> float:
    """lambda = math.exp(log_lambda); an overflow is a ``NumericalFailure``
    of ``operation``."""
    try:
        return math.exp(log_lambda)
    except OverflowError:
        raise NumericalFailure(operation, "conformal factor overflows") from None


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
    x0 = _initial_state(sys, x0, path.d, path.dt)
    dim = sys.dim
    y0 = np.concatenate([x0, np.eye(dim).ravel(), [0.0]])
    ys = _run(sys._augmented_stage, y0, path.increments, path.dt, scheme,
              "integrate_augmented", True)
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
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 3:
        raise InvalidStep(f"increments must be (B, d, n_steps), got shape {increments.shape}")
    states = _initial_state(sys, initial_states, increments.shape[1], dt, increments.shape[:1])
    return _run(sys._state_stage, np.ascontiguousarray(states.T),
                np.moveaxis(increments, 0, -1), dt, scheme, "integrate_batch_final", False).T
