"""The noise pipeline against its reference form.

``_polar_gaussians`` and ``_increments`` below are the plain per-stream form
of ``flow``'s pipeline: numpy's ``SeedSequence`` seeds each PCG64 itself,
and every pair of a block is transformed before the kept ones are picked
out.  They are the oracle, as the tree evaluator is for the tapes: through
``sample_brownian`` and through the ensembles' ``_mc_batch``, every
increment must equal theirs bit for bit.
"""
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import contactsde
from contactsde import expr, flow, geometry as geo, verification as ver
from contactsde.errors import ConfigError


def _polar_gaussians(seed, count):
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


def _increments(d, n_steps, dt, master_seed, stream_index):
    g = _polar_gaussians(flow.stream_seed(master_seed, stream_index), d * n_steps)
    return (g * math.sqrt(dt)).reshape(d, n_steps)


MASTER_SEEDS = (0, 1, 7, 2**63, 2**64 - 1)
SHAPES = ((1, 1000), (5, 500), (2, 7), (1, 1), (3, 0))
STREAMS = range(300)
DT = 1e-3


def _batch_increments(monkeypatch, d, n_steps, master_seed, start, count, zero_channels=()):
    """The (count, d, n_steps) increments that ``_mc_batch`` hands to the
    stepper, caught there as handed; the fake stepper returns the initial
    states."""
    caught = []

    def catch(sys_, initial, increments, dt, scheme):
        caught.append(increments)
        return initial

    monkeypatch.setattr(ver, "integrate_batch_final", catch)
    system = geo.HamiltonianSystem(geo.DarbouxChart(1), "z", ["z"] * d)
    observable = expr.compile_tape([system.prepare("z")], system.chart.names)
    ver._mc_batch((system, [0.0, 0.0, 1.0], DT, n_steps, master_seed, start, count,
                   "heun", observable, tuple(zero_channels)))
    (increments,) = caught
    return increments


def _differing_streams(increments, d, n_steps, master_seed, start=0):
    return [start + i for i, inc in enumerate(increments)
            if not np.array_equal(inc, _increments(d, n_steps, DT, master_seed, start + i))]


@pytest.mark.parametrize("d, n_steps", SHAPES)
def test_sample_brownian_matches_the_oracle_bit_for_bit(d, n_steps):
    for master_seed in MASTER_SEEDS:
        for stream in STREAMS:
            path = flow.sample_brownian(d, n_steps, DT, master_seed, stream)
            reference = _increments(d, n_steps, DT, master_seed, stream)
            assert path.increments.shape == (d, n_steps)
            # array_equal on the bits: -0.0 and NaN would pass a float compare.
            assert np.array_equal(path.increments.view(np.uint64), reference.view(np.uint64)), \
                (master_seed, stream)


@pytest.mark.parametrize("d, n_steps", SHAPES)
def test_monte_carlo_batch_matches_the_oracle_bit_for_bit(monkeypatch, d, n_steps):
    for master_seed in MASTER_SEEDS:
        increments = _batch_increments(monkeypatch, d, n_steps, master_seed, 0, len(STREAMS))
        assert increments.shape == (len(STREAMS), d, n_steps)
        assert _differing_streams(increments, d, n_steps, master_seed) == [], master_seed


@pytest.mark.parametrize("d, n_steps, start, count, zero_channels", [
    (1, 1000, 0, 300, ()),
    (1, 1000, 4096, 300, (0,)),
    (1, 1000, 3, 1, ()),
    (2, 1000, 5, 300, (1,)),
    (5, 500, 0, 105, ()),
    (5, 500, 7, 105, (1, 4)),
    (5, 500, 1000, 1, ()),
], ids=["d1", "d1-start-zeroed", "d1-one", "d2-start-zeroed", "d5", "d5-start-zeroed", "d5-one"])
def test_monte_carlo_noise_layout(monkeypatch, d, n_steps, start, count, zero_channels):
    # With several channels _mc_batch draws chunks of streams into a scratch
    # of stream rows and copies each chunk into its columns of a (d,
    # n_steps, count) buffer, so that a step's increments are d contiguous
    # rows; one channel stays stream-major.  Every stream equals its own
    # draw by sample_brownian bit for bit, its zeroed channels 0.0, whichever
    # chunk it fell in: the counts of 300 and 105 end in a partial chunk.
    chunk = flow._SCRATCH_BYTES // (8 * d * n_steps)
    assert count == 1 or (count > chunk and count % chunk), (count, chunk)
    increments = _batch_increments(monkeypatch, d, n_steps, 1, start, count, zero_channels)
    assert increments.shape == (count, d, n_steps)
    buffer = np.moveaxis(increments, 0, -1) if d > 1 else increments
    assert buffer.flags.c_contiguous
    differing = []
    for i in range(count):
        path = flow.sample_brownian(d, n_steps, DT, 1, stream_index=start + i)
        expected = path.with_zeroed_channels(zero_channels).increments
        if increments[i].tobytes() != expected.tobytes():
            differing.append(start + i)
    assert differing == []
    assert all(not increments[:, k].any() for k in zero_channels)


def _first_block_keeps(master_seed, stream, count):
    """How many pairs the first block of ``count`` normals keeps."""
    gen = np.random.Generator(np.random.PCG64(flow.stream_seed(master_seed, stream)))
    xy = 2.0 * gen.random((max(int((count + 1) // 2 / 0.75) + 8, 16), 2)) - 1.0
    s = xy[:, 0] ** 2 + xy[:, 1] ** 2
    return int(np.count_nonzero((s > 0.0) & (s < 1.0)))


def test_streams_whose_first_block_falls_short(monkeypatch):
    # The dissipative ensemble's noise: master seed 1, 4096 streams of 1000
    # normals.  A first block of 674 pairs keeps fewer than 500 on eight of
    # them, which draw a second block.
    short = [s for s in range(4096) if _first_block_keeps(1, s, 1000) < 500]
    assert len(short) == 8 and {783, 977} <= set(short), short
    increments = _batch_increments(monkeypatch, 1, 1000, 1, 0, 4096)
    assert _differing_streams(increments, 1, 1000, 1) == []
    for stream in short:
        path = flow.sample_brownian(1, 1000, DT, 1, stream)
        assert np.array_equal(path.increments, _increments(1, 1000, DT, 1, stream)), stream


_PINNED_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
_STREAM_SEEDS = [flow.stream_seed(m, i) for m in MASTER_SEEDS for i in range(1000)]


def _words_missing_seed_sequence(seeds):
    """The seeds whose ``_seeding_words`` row differs from numpy's own."""
    words = flow._seeding_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    return [s for s, row in zip(seeds, words)
            if not np.array_equal(row, np.random.SeedSequence(s).generate_state(4, np.uint64))]


def test_seeding_words_match_numpy_seed_sequence():
    assert _words_missing_seed_sequence(_PINNED_SEEDS) == []
    assert _words_missing_seed_sequence(_STREAM_SEEDS) == []


def test_negative_control_one_flipped_hash_bit(monkeypatch):
    # Bit 0 of one mixing multiplier flipped: every pinned seed's words and
    # every stream's increments miss (measured: 5 of 5 pinned seeds, 5000 of
    # 5000 stream seeds, 300 of 300 streams through ``sample_brownian`` and
    # 300 of 300 through ``_mc_batch``), where none does above.
    mutated = list(flow._HASH_A)
    mutated[5] ^= 1
    monkeypatch.setattr(flow, "_HASH_A", mutated)
    assert _words_missing_seed_sequence(_PINNED_SEEDS) == _PINNED_SEEDS
    assert len(_words_missing_seed_sequence(_STREAM_SEEDS)) == len(_STREAM_SEEDS)
    increments = _batch_increments(monkeypatch, 1, 1000, 1, 0, len(STREAMS))
    assert _differing_streams(increments, 1, 1000, 1) == list(STREAMS)
    paths = np.array([flow.sample_brownian(1, 1000, DT, 1, s).increments for s in STREAMS])
    assert _differing_streams(paths, 1, 1000, 1) == list(STREAMS)


_BAD_SEEDS = [-1, 2**64, 2**64 + 1, True, 1.5]


@pytest.mark.parametrize("seed", _BAD_SEEDS, ids=["negative", "2^64", "2^64+1", "bool", "float"])
def test_a_master_seed_outside_the_rule_is_a_config_error(seed, monkeypatch):
    # Modulo 2^64, -1, 2^64, 2^64 + 1 and True would name the streams of
    # seeds 2^64 - 1, 0, 1 and 1.  monte_carlo checks before it runs a batch.
    message = rf"master seed must be an integer in \[0, 2\*\*64\), got {seed!r}$"
    with pytest.raises(ConfigError, match=message):
        flow.sample_brownian(1, 5, 0.1, seed)
    monkeypatch.setattr(ver, "_mc_batch", None)
    system = geo.HamiltonianSystem(geo.DarbouxChart(1), "z", ["z"])
    with pytest.raises(ConfigError, match=message):
        ver.monte_carlo(system, [0.0, 0.0, 1.0], T=0.5, dt=0.1, n_paths=4, master_seed=seed,
                        observable="z", workers=2, batch_size=2)


@pytest.mark.parametrize("stream", [-1, True, 1.0])
def test_a_stream_index_outside_the_rule_is_a_config_error(stream):
    with pytest.raises(ConfigError, match=rf"stream index must be an integer >= 0, got {stream!r}$"):
        flow.sample_brownian(1, 5, 0.1, 1, stream)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_the_end_seeds_of_the_rule_draw_their_pinned_streams(seed, monkeypatch):
    for stream in (0, 1, 299):
        path = flow.sample_brownian(2, 7, DT, seed, stream)
        assert path.increments.tobytes() == _increments(2, 7, DT, seed, stream).tobytes()
    assert _differing_streams(_batch_increments(monkeypatch, 2, 7, seed, 0, 300), 2, 7, seed) == []


class _Uniforms:
    """A generator stand-in: the given uniforms, then (0, 0) pairs, which
    the polar method rejects (s = 2)."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, shape):
        n = shape[0] * shape[1]
        head, self.values = self.values[:n], self.values[n:]
        return np.array(head + [0.0] * (n - len(head))).reshape(shape)


def test_polar_transform_rejects_both_ends_and_refills():
    # 3 normals: the first block rejects s = 0 and s = 1 and keeps one pair,
    # so a second block gives the third normal from its first kept pair.
    first = [0.5, 0.5, 0.0, 0.5, 0.75, 0.625]       # s = 0, 1, 0.3125
    gen = _Uniforms(first + [0.0] * (2 * 16 - len(first)) + [0.25, 0.5])   # s = 0.25
    out = np.empty(3)
    flow._polar_normals(gen, out, 0.1)

    def factor(s):
        return math.sqrt(-2.0 * math.log(s) / s)

    expected = [0.5 * factor(0.3125) * 0.1, 0.25 * factor(0.3125) * 0.1, -0.5 * factor(0.25) * 0.1]
    assert out.tolist() == pytest.approx(expected, rel=1e-15, abs=0.0)


_LOADED = ("import sys, contactsde\n{}"
           "print(sorted(m for m in ('concurrent.futures', 'numpy.random') if m in sys.modules))")


@pytest.mark.parametrize("then, loaded", [
    ("", []),
    # The probe's control: drawing a path loads numpy.random.
    ("contactsde.sample_brownian(1, 4, 0.1, 1)\n", ["numpy.random"]),
], ids=["import", "draw"])
def test_importing_the_package_loads_no_process_pool_and_no_numpy_random(then, loaded):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(contactsde.__file__)))
    proc = subprocess.run([sys.executable, "-c", _LOADED.format(then)],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == f"{loaded}\n"
