"""Reproducible Brownian paths and Stratonovich integration of the contact
system together with its tangent flow and conformal factor.

Noise pipeline
--------------
Increments are reproducible bit for bit from ``(master_seed, stream_index)``
on every platform.  Every draw checks them first (``_check_seed``): the
master seed is an ``int``, not a ``bool``, in [0, 2**64), and the stream
index an ``int`` >= 0; anything else is a ``ConfigError``.

1. the per-stream seed is element ``stream_index`` of the SplitMix64 output
   sequence started at ``master_seed`` (golden-ratio increment followed by
   the standard SplitMix64 finalizer);
2. that seed feeds a PCG64 generator producing uniform doubles, seeded as
   ``np.random.PCG64(seed)`` seeds itself, by numpy's ``SeedSequence``
   hash.  Every draw, one stream or a batch, runs that hash for all its
   seeds in one vectorised pass on uint32 arrays (``_seeding_words``) and
   hands each stream's four words to PCG64 through a minimal
   ``ISeedSequence``;
3. standard normals come from the polar Box-Muller method, consuming exactly
   two uniforms per attempt and accepting pairs with 0 < s < 1.  A stream
   draws one block of pairs, sized for its count with room for rejections,
   and takes the log, division and square root of the pairs it keeps only;
   the rare block that falls short is followed by another;
4. normals fill the d x n_steps increment matrix row by row and are scaled
   by sqrt(dt), written straight into the caller's buffer
   (``_draw_increments``, shared by ``sample_brownian`` and the ensembles).
   An ensemble's batch of several channels holds its increments
   step-major, (d, n_steps, B), so that a step's are d contiguous rows:
   ``_draw_step_major`` draws chunks of streams into a scratch of rows and
   copies each transposed.

Schemes
-------
``heun``      predictor-corrector (Euler predictor, trapezoidal corrector).
``midpoint``  implicit Stratonovich midpoint rule, solved by fixed-point
              iteration to tolerance 1e-13 (at most 50 sweeps), tested per
              path: each path keeps the sweep at which its own update met
              ``max|dy| <= 1e-13 * max(1, max|y|)``.  A batch sweeps only
              its paths that have not: once at most half of a sweep's
              width still sweeps, they move to a narrower one
              (``_midpoint_steps``).

One stepping core serves single paths and batches of every stage, ``_run``:
one run per scheme for a single path and one loop for a batch.  A stage's
``fields(y)`` evaluates the drift and diffusion at a single path, a list of
m Python floats, or at a batch of paths ``(m, B)``, one row per coordinate
and the paths on the last axis; ``advance`` applies them, as ``y + a dt +
g dw`` or as Heun's trapezoid ``y + 0.5 dt (a0 + a1) + 0.5 (g0 + g1) dw``,
through straight-line code that the stage generated from its structure
when it was built.  The stages are ``geometry._Stage`` objects, which each
``HamiltonianSystem`` builds on first use and which alone know their
structure and summation order.

Every single path runs under one protocol, in one call of its scheme's run
(``_RUNS``), ``run(y, ws, dt, rows)``: the state stays in Python floats
from step to step, each state is screened and recorded into an
``array('d')`` history, which ``_run`` reads as an array without a copy,
and the run returns None, or the index of the first non-finite state.
Heun's run is its stage's generated ``heun_run``, which performs exactly
the operations of ``fields`` and ``advance`` in the same order, so the
bits are theirs, with both evaluations of a step written out inline.
Midpoint's is ``_composed_run`` over ``_midpoint_step``, whose images are
``fields`` and ``advance`` and whose per-path test compares floats.

A batch run binds its stage's generated batch steps once (``heun_binder``
and ``image_binder``) to ``(m, B)`` buffers of the run, which ``_loop``
allocates per call, so a shared system stays thread-safe: one Heun step
per parity of its two state buffers, or one midpoint image per pair of
buffers it reads and writes.  Each is a closure of ``dt`` whose grouped
numpy calls run on views and scratch arrays made when it was bound, with
their outputs positional, and with numpy's floating-point flags raising,
which ``_loop`` sets once per batch run.  The increments of a step are
copied into a buffer of the run, d rows, each contiguous when the batch's
increments are step-major, as an ensemble's of several channels are; the
finiteness screen, the midpoint sweep's arithmetic and reductions, and its
moves into narrower sweeps write into arrays of the run, so no step
allocates one (but for a sweep's first move to a width, which makes that
width's).  The sweep's arithmetic runs with the flags ignored, as every
fallback does.

A generated form falls back to ``fields`` and ``advance`` off its hot
text: when a margin at an evaluation is below ``geometry.MARGIN``, or when
an evaluation raises ``ArithmeticError`` or ``ValueError`` (a single path)
or sets a floating-point flag (a batch).  The fallback takes the step in
place and raises exactly their errors, ``SingularChartPoint`` ahead of
``DomainError``; if it returns, the run carries on from its result.

A stage steps only the rows that move (``_Stage.moving``).  The others are
constants of the stage: the augmented stage's J entries that no product
reaches and, when every R(H_i) is a constant zero, log_lambda.  ``_run``
takes and returns states of the full width, and a constant row keeps its
initial value, which the stage's contract fixes (J = I, log_lambda = 0).

The single-path screen is the one rule of every state: one
``math.isfinite`` of the sum of the state's entries, since a sum of finite
floats is non-finite only when it overflows, and only then the entries one
by one.  The generated run applies it inline and ``_composed_run`` in its
loop.  A batch stays ``(m, B)`` arrays.  ``step`` and
``integrate_batch_final`` take and return a batch as ``(B, m)``, one row
per path, and convert it once.

The augmented system carries, with the state, the flow Jacobian J (dJ =
DX J) and the log of the conformal factor (d log_lambda = -R(H_0) dt -
sum_k R(H_k) o dB).  Co-integrating J with the same internal stages makes J
exactly the derivative of the discrete flow map, and under Heun the states
are bit-equal to ``integrate``'s.  ``simulate`` writes only x and lambda,
so it steps a third stage over x and log_lambda (``_integrate_conformal``);
under Heun its rows equal ``integrate_augmented``'s bit for bit.

``_run`` stops with ``NumericalFailure`` at the first non-finite state, so
no stage evaluates a blown-up state.  A domain fault in a batch raises the
``DomainError`` that its first faulting path raises alone: the stage's tape
(``expr.EvalTape``) owns that rule, and the chart's ``_check_margins`` alone
decides, ahead of any fault, whether a path has left the chart.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    IndivisibleFactor,
    InvalidStep,
    MidpointDivergence,
    NumericalFailure,
)
from .geometry import HamiltonianSystem, _composed_image

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


# numpy's SeedSequence hash with its default pool of four words, as PCG64
# seeds itself from a Python int: the entropy words (lo, hi, 0, 0) are
# hashed into the pool, every pool word is mixed into every other, and the
# pool is hashed out into eight 32-bit words.  A seed below 2**32 has no hi
# word, but the pool pads it by hashing 0, which is what hi = 0 does.  The
# hash multipliers advance by a fixed rule, independent of the data, so
# they are constants here.
_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, n: int) -> list:
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return out


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _seeding_words(seeds: Sequence[int]) -> np.ndarray:
    """PCG64's seeding words of each seed, (len(seeds), 4) uint64: row i is
    ``np.random.SeedSequence(seeds[i]).generate_state(4, np.uint64)``, for
    seeds in [0, 2**64), computed for all seeds at once on uint32 arrays,
    whose products wrap modulo 2**32 as the hash's do.  Hash calls that do
    not depend on one another run as the rows of one array operation, each
    row with the multiplier that numpy's call order gives it."""
    seeds = np.array(seeds, dtype=np.uint64).reshape(1, -1)
    a = np.array(_HASH_A, dtype=np.uint32)[:, None]
    b = np.array(_HASH_B, dtype=np.uint32)[:, None]

    def hashmix(v, c, c_next):
        v = (v ^ c) * c_next
        return v ^ (v >> 16)

    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds & _MASK32
    pool[1] = seeds >> 32
    pool = hashmix(pool, a[:4], a[1:5])
    # Word src is mixed into the other three in turn; it does not change
    # while it is, so the three mixes are one operation.
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        k = 4 + 3 * src
        v = (pool[dst] * np.uint32(_MIX_L)
             - hashmix(pool[src], a[k: k + 3], a[k + 1: k + 4]) * np.uint32(_MIX_R))
        pool[dst] = v ^ (v >> 16)
    state = hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], b[:8], b[1:9])
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seeding_words_type():
    """The ``ISeedSequence`` that hands PCG64 words computed ahead; built on
    first use, so that importing this module does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedingWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedingWords


def _polar_normals(gen, out: np.ndarray, scale: float) -> None:
    """Fill ``out`` (1-D) with standard normals times ``scale``, by the polar
    Box-Muller method over ``gen``'s uniforms.

    Attempt i always consumes uniforms (2i, 2i+1) of the stream and is kept
    when 0 < s < 1, so the output is independent of the block size and is
    prefix-stable in ``out.size``.  One block usually suffices: its first
    ``(out.size + 1) // 2`` kept pairs are transformed, the rest of the
    block is discarded; a block that falls short is followed by another.
    """
    count = out.size
    filled = 0
    while filled < count:
        pairs = (count - filled + 1) // 2
        xy = gen.random((max(int(pairs / 0.75) + 8, 16), 2))
        xy *= 2.0
        xy -= 1.0
        sq = xy * xy
        s = sq[:, 0] + sq[:, 1]
        ok = s < 1.0
        ok &= s > 0.0
        kept = ok.nonzero()[0][:pairs]
        ss = s[kept]
        factor = np.sqrt(-2.0 * np.log(ss) / ss)
        g = xy.take(kept, axis=0)
        g *= factor[:, None]
        take = min(g.size, count - filled)
        np.multiply(g.ravel()[:take], scale, out=out[filled: filled + take])
        filled += take


def _check_seed(master_seed, stream_index=0) -> None:
    """The seed rule of every draw: the master seed is an ``int``, not a
    ``bool``, in [0, 2**64), and the stream index an ``int`` >= 0.  Streams
    are seeded modulo 2**64, so a larger or a negative seed would alias
    another.  Anything else is a ``ConfigError`` that names the value."""
    if isinstance(master_seed, bool) or not isinstance(master_seed, int) \
            or not 0 <= master_seed <= _MASK64:
        raise ConfigError(f"master seed must be an integer in [0, 2**64), got {master_seed!r}")
    if isinstance(stream_index, bool) or not isinstance(stream_index, int) or stream_index < 0:
        raise ConfigError(f"stream index must be an integer >= 0, got {stream_index!r}")


def _check_count(name: str, value, minimum: int) -> None:
    """The rule of every count argument (``d``, ``n_steps``, ``n_paths``,
    ``batch_size``, ``workers``, a coarsening ``factor``, a study's
    ``levels``): an ``int``, not a ``bool``, at least ``minimum``.
    Anything else is an ``InvalidStep`` that names the value."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise InvalidStep(f"{name} must be an integer >= {minimum}, got {value!r}")


def _draw_increments(out: np.ndarray, dt: float, master_seed: int, start: int) -> None:
    """Fill ``out``, (count, d * n_steps), with the increments of noise
    streams ``start .. start + count - 1``, one row each: a stream's normals
    fill its (d, n_steps) matrix row by row, scaled by sqrt(dt).  The seeds
    are checked by ``_check_seed`` first."""
    _check_seed(master_seed, start)
    count, n = out.shape
    if n == 0:
        return
    seeds = [stream_seed(master_seed, start + i) for i in range(count)]
    scale = math.sqrt(dt)
    for source, row in zip(map(_seeding_words_type(), _seeding_words(seeds)), out):
        _polar_normals(np.random.Generator(np.random.PCG64(source)), row, scale)


# A step-major draw goes through a scratch of stream rows of at most this size.
_SCRATCH_BYTES = 1 << 20


def _draw_step_major(out: np.ndarray, dt: float, master_seed: int, start: int) -> None:
    """Fill ``out``, (d, n_steps, count), with the increments of noise
    streams ``start .. start + count - 1``, stream i in ``out[..., i]``, so
    that a step's increments are d contiguous rows.  Chunks of streams are
    drawn by ``_draw_increments`` into a scratch of stream rows and copied
    transposed into their columns."""
    d, n, count = out.shape
    columns = out.reshape(d * n, count)
    chunk = max(1, _SCRATCH_BYTES // (out.itemsize * max(1, d * n)))
    scratch = np.empty((min(chunk, count), d * n))
    for i in range(0, count, chunk):
        rows = scratch[:min(chunk, count - i)]
        _draw_increments(rows, dt, master_seed, start + i)
        columns[:, i:i + len(rows)] = rows.T


def _n_steps(span: float, dt: float) -> int:
    """Number of steps of size ``dt`` in ``span = T - t0``: the one grid
    rule of every entry point.  ``span`` and ``dt`` must be finite and
    positive, and ``dt`` must divide ``span`` to relative tolerance 1e-12."""
    if not span > 0.0:
        raise InvalidStep("T must exceed t0")
    if not dt > 0.0:
        raise InvalidStep("dt must be positive")
    if not (math.isfinite(span) and math.isfinite(dt)):
        raise InvalidStep(f"need a finite T - t0 and a finite dt > 0, got {span!r} and {dt!r}")
    steps = span / dt
    if not math.isfinite(steps):
        raise InvalidStep(f"dt {dt!r} is too small for T - t0 = {span!r}")
    n = round(steps)
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
    ``d`` and ``n_steps`` must be integers >= 0, not booleans.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise InvalidStep(f"dt must be finite and positive, got {dt!r}")
    _check_count("d", d, 0)
    _check_count("n_steps", n_steps, 0)
    inc = np.empty((d, n_steps))
    _draw_increments(inc.reshape(1, d * n_steps), dt, master_seed, stream_index)
    inc.setflags(write=False)
    return BrownianPath(
        t0=float(t0), dt=float(dt), n_steps=n_steps, d=d,
        increments=inc, master_seed=master_seed, stream_index=stream_index,
    )


def coarsen(path: BrownianPath, factor: int) -> BrownianPath:
    """The same sample path on a grid coarsened by ``factor`` (consecutive
    increments summed in blocks).  ``factor`` is a count (``_check_count``)
    that divides the path's steps, else ``IndivisibleFactor``."""
    _check_count("factor", factor, 1)
    if path.n_steps % factor != 0:
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

# The midpoint rule: a path's fixed point is met when its update is at most
# ``_MIDPOINT_TOL * max(1, max|y|)``, within ``_MIDPOINT_SWEEPS`` sweeps.
_MIDPOINT_TOL = 1e-13
_MIDPOINT_SWEEPS = 50


def _diverged() -> MidpointDivergence:
    return MidpointDivergence(f"midpoint fixed point did not reach {_MIDPOINT_TOL:g} "
                              f"within {_MIDPOINT_SWEEPS} sweeps")


def _midpoint_step(stage, y, dw, dt):
    """A single path's midpoint step, a list of floats."""
    image = functools.partial(_composed_image, stage, y, dw, dt)
    y_new = image(y)
    for _ in range(_MIDPOINT_SWEEPS):
        y_next = image([0.5 * (u + v) for u, v in zip(y, y_new)])
        # max may skip a NaN of y_next, but that entry fails its own test.
        bound = _MIDPOINT_TOL * max(1.0, *map(abs, y_next))
        if all(abs(u - v) <= bound for u, v in zip(y_next, y_new)):
            return y_next
        y_new = y_next
    raise _diverged()


def _heun_steps(stage, y, w):
    """A batch run's Heun steps, bound once to its buffers: the state ``y``
    (m, B) and a second state buffer take turns as a step's state and its
    result, so step j runs the ``j % 2``-th of the two; both read the
    increments ``w`` (d, B) and share one predictor buffer."""
    bind = stage.heun_binder(y.shape[1])
    p, other = np.empty_like(y), np.empty_like(y)
    return bind(y, w, p, other), bind(other, w, p, y)


class _Sweep:
    """One width of a batch run's midpoint sweep, with arrays of the run:
    the states ``y`` and increments ``w`` that its image reads, the step's
    result ``new``, the midpoint ``z`` (then the sweep's differences), the
    image ``spare`` and the per-path test's reductions and masks.  The
    first ``paths`` of its columns are paths of the step; the others copy
    its first column, so that they sweep on the chart.  A narrower sweep
    took its columns from the columns of ``wider`` that ``index`` names;
    the slot past them takes the gather's writes for the paths that stay
    behind."""

    __slots__ = ("y", "w", "new", "z", "spare", "image", "err", "bound", "done", "todo",
                 "counts", "ranks", "columns", "index", "paths", "wider")

    def __init__(self, y, w, new):
        width = y.shape[1]
        self.y, self.w, self.new = y, w, new
        self.z, self.spare = np.empty_like(y), np.empty_like(y)
        self.err, self.bound = np.empty(width), np.empty(width)
        self.done, self.todo = np.empty(width, dtype=bool), np.empty(width, dtype=bool)
        self.counts, self.ranks = np.empty(width, dtype=np.intp), np.empty(width, dtype=np.intp)
        self.columns, self.index = np.arange(width), np.empty(width + 1, dtype=np.intp)
        self.paths = width

    def test(self) -> int:
        """Test each path's update from ``new`` to ``spare``; a path that has
        not met its test yet takes ``spare``.  Returns the number of paths
        that still sweep."""
        new, z, err, bound, done = self.new, self.z, self.err, self.bound, self.done
        np.maximum.reduce(np.absolute(np.subtract(self.spare, new, out=z), out=z),
                          axis=0, out=err)
        # A path that has met its own test keeps that sweep's value.
        np.copyto(new, self.spare, where=np.logical_not(done, out=self.todo))
        np.maximum.reduce(np.absolute(new, out=z), axis=0, out=bound)
        np.multiply(_MIDPOINT_TOL, np.maximum(1.0, bound, out=bound), out=bound)
        np.logical_or(done, np.less_equal(err, bound, out=self.todo), out=done)
        return self.paths - int(np.count_nonzero(done[:self.paths]))

    def gather(self, wider: "_Sweep", paths: int) -> "_Sweep":
        """Take the ``paths`` paths of ``wider`` that still sweep, in order,
        into the first columns of this sweep, and copies of the first of
        them into the rest.  Returns this sweep."""
        n = wider.paths
        todo, counts, ranks = wider.todo[:n], wider.counts[:n], wider.ranks[:n]
        np.logical_not(wider.done[:n], out=todo)
        np.copyto(counts, todo)
        np.add.accumulate(counts, out=ranks)
        # A path that still sweeps goes to its rank among them less one, a
        # path that has met its test to -1, which wraps to the last slot.
        np.subtract(np.multiply(ranks, counts, out=ranks), 1, out=ranks)
        self.index.put(ranks, wider.columns[:n], mode="wrap")
        index = self.index[:-1]
        index[paths:].fill(index[0])
        # mode="raise" would buffer its output.
        for source, target in ((wider.y, self.y), (wider.w, self.w), (wider.new, self.new)):
            source.take(index, axis=1, out=target, mode="clip")
        self.done.fill(False)
        self.paths, self.wider = paths, wider
        return self

    def scatter(self) -> "_Sweep":
        """Write each path's result into the column of ``wider`` that it
        came from, and return ``wider``.  The copies write nothing: a copy
        left behind by a narrower sweep holds a stale value."""
        paths = self.paths
        index = self.index[:paths]
        for row, target in zip(self.new[:, :paths], self.wider.new):
            target.put(index, row, mode="clip")
        return self.wider


def _midpoint_steps(stage, y, w):
    """A batch run's midpoint steps, bound as ``_heun_steps``' are.  Each
    sweeps in place on the run's buffers with the operations of an
    out-of-place sweep, tested per path: ``z`` holds the midpoint and then
    the sweep's differences, each image goes into ``spare``, and a path that
    has not met its test yet takes it into the step's result.  Once at most
    half of a sweep's width still sweeps, those paths move to the narrowest
    of the halving widths B // 2, B // 4, ..., 1 that holds them, and sweep
    on there; when they have all met their tests, each narrower sweep
    writes its results back into the one it came from.  Each width makes
    its arrays and binds its image once per run, on its first use
    (``_Sweep``); reductions, masks and column indices go into them, so
    only a step that first moves paths to a width allocates.  Per element a
    path runs the operations that it runs at full width, so its bits do not
    depend on where it sweeps.  The paths left behind by a move are no
    longer imaged, so their discarded midpoints can no longer fail the
    step."""
    m, width = y.shape
    bind = stage.image_binder(width)
    other = np.empty_like(y)
    whole = _Sweep(y, w, other)
    # sweeps[k] has width width >> k, made and bound on its first use.
    sweeps = [whole] + [None] * (width.bit_length() - 1)

    def narrow(left):
        k = (width // left).bit_length() - 1
        if sweeps[k] is None:
            part = width >> k
            sweep = _Sweep(np.empty((m, part)), np.empty((w.shape[0], part)), np.empty((m, part)))
            sweep.image = stage.image_binder(part)(sweep.y, sweep.w, sweep.z, sweep.spare)
            sweeps[k] = sweep
        return sweeps[k]

    def steps(y, y_new):
        first, sweep = bind(y, w, y, y_new), bind(y, w, whole.z, whole.spare)

        def step(dt):
            # The images run under the run's raising flags, the sweep's own
            # arithmetic with them ignored, in one block per sweep.
            first(dt)
            whole.y, whole.new, whole.image = y, y_new, sweep
            whole.done.fill(False)
            at = whole
            with np.errstate(all="ignore"):
                np.multiply(0.5, np.add(y, y_new, out=at.z), out=at.z)
            for _ in range(_MIDPOINT_SWEEPS):
                at.image(dt)
                with np.errstate(all="ignore"):
                    left = at.test()
                    if not left:
                        while at is not whole:
                            at = at.scatter()
                        return y_new
                    if 2 * left <= at.z.shape[1]:
                        at = narrow(left).gather(at, left)
                    np.multiply(0.5, np.add(at.y, at.new, out=at.z), out=at.z)
            raise _diverged()
        return step
    return steps(y, other), steps(other, y)


def _composed_run(step):
    """A single path's run, ``run(y, ws, dt, rows)``, of ``step(y, w, dt)``
    on lists of floats, with the protocol of a stage's generated
    ``heun_run``: each state is screened, ``math.isfinite`` of its sum and
    only when that is not finite entry by entry, and appended to ``rows``,
    then stepped with the next increments list of ``ws``.  Returns None
    after the last state, or the index of the first non-finite state, which
    it does not append; ``step`` raises its own errors."""
    def run(y, ws, dt, rows):
        start, ws = len(rows), iter(ws)
        while math.isfinite(sum(y)) or all(map(math.isfinite, y)):
            rows.extend(y)
            if (w := next(ws, None)) is None:
                return None
            y = step(y, w, dt)
        return (len(rows) - start) // len(y)
    return run


# A single path's run per scheme, made for its stage, and a batch run's
# steps bound to its buffers, ``(stage, y, w)``.
_RUNS = {"heun": lambda stage: stage.heun_run,
         "midpoint": lambda stage: _composed_run(functools.partial(_midpoint_step, stage))}
_BATCH_STEPPERS = {"heun": _heun_steps, "midpoint": _midpoint_steps}


def _scheme_run(scheme: str):
    try:
        return _RUNS[scheme]
    except KeyError:
        raise InvalidStep(f"unknown scheme {scheme!r}; expected one of {SCHEMES}") from None


def _single_path(run, y, increments, dt, operation):
    """The (n_steps + 1, m) history of a single path ``y`` (m,) stepped by
    one call of ``run`` over ``increments`` (d, n_steps), read once as one
    list per step.  The run records the history into an ``array('d')``,
    returned as a view of it; when it stops at a state that is not finite:
    ``NumericalFailure``."""
    # Imported on first use, so that importing this module does not.
    from array import array

    rows = array("d")
    if run(y.tolist(), increments.T.tolist(), dt, rows) is not None:
        raise NumericalFailure(operation, "non-finite values")
    return np.frombuffer(rows).reshape(-1, len(y))


def _loop(stage, y, increments, dt, scheme: str, operation: str, keep: bool):
    """``_run``'s loop for a batch ``y`` (m, B), stepped by its stage's
    bound batch steps.  Returns the (n_steps + 1, m, B) history if
    ``keep``, else the final value."""
    n_steps = increments.shape[1]
    if keep:
        history = np.empty((n_steps + 1, *y.shape))
    y, w, finite = y.copy(), np.empty(increments.shape[::2]), np.empty(y.shape, dtype=bool)
    # A run of no steps binds nothing, so it generates no batch form.
    steps = _BATCH_STEPPERS[scheme](stage, y, w) if n_steps else ()
    # The bound steps run with numpy's floating-point flags raising, set
    # once per run; their fallback and the midpoint sweep's arithmetic
    # ignore them.
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        for j in range(n_steps + 1):
            if not np.isfinite(y, out=finite).all():
                raise NumericalFailure(operation, "non-finite values")
            if keep:
                history[j] = y
            if j == n_steps:
                break
            np.copyto(w, increments[:, j])
            y = steps[j & 1](dt)
    return history if keep else y


def _run(stage, y, increments, dt, scheme: str, operation: str, keep: bool):
    """Step ``y``, (m,) or (m, B), with ``stage`` over the grid of
    ``increments``, (d, n_steps) or (d, n_steps, B) to match.  Returns the
    (n_steps + 1, *y.shape) history if ``keep``, else the final value.
    Raises ``NumericalFailure`` at the first non-finite state, the initial
    one included, so no stage ever evaluates the fields of a blown-up state.

    Only the stage's moving rows (``stage.moving``) are stepped; the other
    rows of ``y`` are its constants, and they keep their initial values in
    what is returned, which has the width of ``y``.

    A single path runs in one call of its scheme's run for the stage
    (``_RUNS``, ``_single_path``): its stage's generated ``heun_run``, or
    ``_composed_run`` over the midpoint step, whose per-path test compares
    floats.  A batch is stepped by ``_loop``: it is copied into a state
    buffer of this call and stepped by its stage's generated batch steps,
    bound once to buffers that this call allocates (``_BATCH_STEPPERS``), so
    no two runs, and no two threads, share one.  Each step's increments are
    copied into one of them, d rows that are contiguous when ``increments``
    is a view of a step-major (d, n_steps, B) array, and the finiteness
    screen writes into another, so no step allocates an array but where a
    midpoint sweep first moves paths to a narrower width
    (``_midpoint_steps``); the final value is one of the state buffers."""
    run = _scheme_run(scheme)
    moving = stage.moving
    state = y if moving is None else y[list(moving)]
    if y.ndim == 1:
        values = _single_path(run(stage), state, increments, dt, operation)
        if not keep:
            values = values[-1]
    else:
        values = _loop(stage, state, increments, dt, scheme, operation, keep)
    if moving is None:
        return values
    # The constant rows hold their initial values.
    out = np.empty((*values.shape[:values.ndim - y.ndim], *y.shape))
    out[...] = y
    out[(..., list(moving), *[slice(None)] * (y.ndim - 1))] = values
    return out


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
    return _run(sys._state_stage, x.T, dw.T[:, None],
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


def _integrate_conformal(sys: HamiltonianSystem, x0, path: BrownianPath, scheme: str = "heun"):
    """``(states, log_lambda)`` on the grid of ``path``, (n+1, dim) and
    (n+1,), from the stage over x and log_lambda alone, for ``simulate``,
    which reads no J.  Under Heun both equal ``integrate_augmented``'s bit
    for bit, because no row of x or log_lambda reads J.  Under midpoint the
    per-path test takes its sup over these rows only, so a path may stop at
    another sweep than the augmented system's and differ in its last bits."""
    x0 = _initial_state(sys, x0, path.d, path.dt)
    ys = _run(sys._conformal_stage, np.append(x0, 0.0), path.increments, path.dt, scheme,
              "simulate", True)
    return ys[:, :-1], ys[:, -1]


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

    ``initial_states`` is (B, dim) and ``increments`` is (B, d, n_steps);
    a step reads its increments fastest from a view of a step-major (d,
    n_steps, B) array, as ``_draw_step_major`` fills.  Only the final state
    is kept; intermediate states are discarded.
    """
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 3:
        raise InvalidStep(f"increments must be (B, d, n_steps), got shape {increments.shape}")
    states = _initial_state(sys, initial_states, increments.shape[1], dt, increments.shape[:1])
    return _run(sys._state_stage, states.T,
                np.moveaxis(increments, 0, -1), dt, scheme, "integrate_batch_final", False).T
