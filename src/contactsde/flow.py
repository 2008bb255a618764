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
at a state, a single path ``(m,)`` or a batch of paths ``(B, m)``;
``advance`` applies them, as ``y + a dt + g dw`` or as Heun's trapezoid
``y + 0.5 dt (a0 + a1) + 0.5 (g0 + g1) dw``, each sum of fields taken entry
by entry before it is applied.

The one stage class works from the structure of a system's roots, which
``HamiltonianSystem`` derives from their expressions at build time.  A
constant root is used as a number and never evaluated; constant zeros are
skipped; one chart guard and one tape call compute the rest, under
``_values``' domain rule.  Row r of the diffusion is applied over its
structural nonzeros only (the roots that are not a constant 0.0 or -0.0),
summed left to right in ascending channel order, ``((g_r,k1 dw_k1 +
g_r,k2 dw_k2) + ...)``, so the bits depend on no matrix product's
summation order.  A single path runs on Python floats and a batch on numpy
columns, which round alike, so a path gives the same bits alone or in any
batch.

The augmented system carries, with the state, the flow Jacobian J (dJ =
DX J) and the log of the conformal factor (d log_lambda = -R(H_0) dt -
sum_k R(H_k) o dB).  Its roots per Hamiltonian are X_H, each entry of DX_H J
summed left to right in ascending c, and -R(H), as expressions over x, J
and log_lambda, so constant folding drops the structural zeros of DX_H.
Co-integrating J with the same internal stages makes J exactly the
derivative of the discrete flow map, and under Heun the states are
bit-equal to ``integrate``'s.

``_run`` stops with ``NumericalFailure`` at the first non-finite state, so
no stage evaluates a blown-up state.  A domain fault in a batch raises the
``DomainError`` that its first faulting path raises alone.
"""
from __future__ import annotations

import functools
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
    to relative tolerance 1e-12."""
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
# One-step maps and the stepping loop (a single path (m,) or a batch (B, m))
# ---------------------------------------------------------------------------

class _Stage:
    """The stage of one of ``sys``'s root sets (``geometry._stage_roots``),
    the state system's or the augmented system's, applied from its structure
    as set out above: ``fields(y)`` is ``HamiltonianSystem._stage_values``,
    and ``advance`` applies each row's constants, skips its constant zeros
    and sums its diffusion left to right in ascending channel order."""

    def __init__(self, sys: HamiltonianSystem, roots):
        self.fields = functools.partial(sys._stage_values, roots)
        self._rows = roots.rows

    def advance(self, y, dw, dt, k0, k1=None):
        """``y + a dt + g dw`` at the fields ``k0``; given ``k1`` too, Heun's
        trapezoid ``y + 0.5 dt (a0 + a1) + 0.5 (g0 + g1) dw``, with each sum
        of fields taken entry by entry before it is applied."""
        if k1 is None:
            k, h = k0, 1.0
        else:
            k, h = [u + v for u, v in zip(k0, k1)], 0.5
        single = y.ndim == 1
        ys, ws = (y.tolist(), dw.tolist()) if single else (y.T, dw.T)
        h_dt = h * dt
        out = []
        for r, (a, row) in enumerate(self._rows):
            v = ys[r]
            if a is not None:
                v = v + h_dt * k[a]
            noise = None
            for c, i in row:
                term = k[i] * ws[c]
                noise = term if noise is None else noise + term
            if noise is not None:
                v = v + (noise if k1 is None else h * noise)
            out.append(v)
        if single:
            return np.array(out)
        # Rows of an (m, B) array: the (B, m) result's columns are contiguous,
        # which the next stage's tape and this kernel read.
        rows = np.empty((len(out), y.shape[0]))
        for r, v in enumerate(out):
            rows[r] = v
        return rows.T


def _heun_step(stage, y, dw, dt):
    k0 = stage.fields(y)
    k1 = stage.fields(stage.advance(y, dw, dt, k0))
    return stage.advance(y, dw, dt, k0, k1)


def _sup(a):
    """max|a| over the last axis: one value per path."""
    rows = np.abs(a).reshape(-1, a.shape[-1])
    # numpy reduces a transposed copy much faster than a short last axis.
    return rows.T.copy().max(axis=0).reshape(a.shape[:-1])


def _midpoint_step(stage, y, dw, dt, tol=1e-13, max_iter=50):
    def image(z):
        return stage.advance(y, dw, dt, stage.fields(z))

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


def _run(stage, y, increments, dt, scheme: str, operation: str, keep: bool):
    """Step ``y`` with ``stage`` over the grid of ``increments`` (..., d,
    n_steps), whose leading axes match those of ``y``.  Returns the
    (n_steps + 1, *y.shape) history if ``keep``, else the final value.
    Raises ``NumericalFailure`` at the first non-finite state, the initial
    one included, so no stage ever evaluates the fields of a blown-up state.
    Each step's increments are gathered once into contiguous memory."""
    stepper = _stepper(scheme)
    n_steps = increments.shape[-1]
    if keep:
        history = np.empty((n_steps + 1, *y.shape))
    with np.errstate(all="ignore"):
        for j in range(n_steps + 1):
            if not np.isfinite(y).all():
                raise NumericalFailure(operation, "non-finite values")
            if keep:
                history[j] = y
            if j < n_steps:
                y = stepper(stage, y, np.ascontiguousarray(increments[..., j]), dt)
    return history if keep else y


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
    stage = _Stage(sys, sys._state_roots)
    return _run(stage, x, dw[..., None], float(dt), scheme, "step", False)


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
    states = _run(_Stage(sys, sys._state_roots), x0, path.increments, path.dt, scheme,
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
    x0 = _initial_state(sys, x0, path)
    dim = sys.dim
    y0 = np.concatenate([x0, np.eye(dim).ravel(), [0.0]])
    ys = _run(_Stage(sys, sys._augmented_roots), y0, path.increments, path.dt, scheme,
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
    states = np.asarray(initial_states, dtype=float)
    return _run(_Stage(sys, sys._state_roots), states, increments, dt, scheme,
                "integrate_batch_final", False)
