"""Symbol-wise TIN information density and its Monte Carlo moments.

The density for user k in sub-block l is

    i(x; y) = log2( sum_w exp(-|y - h_k x - w|^2)
                    / ((1/|A_k|) sum_{x'} sum_w exp(-|y - h_k x' - w|^2)) )

where w runs over the received interferer superposition with
multiplicity and A_k is the user's sub-block alphabet.  The exponent is
the squared norm of the unit-variance circular Gaussian kernel.  Means,
variances and third absolute central moments are estimated by plain
Monte Carlo with an exhaustive inner sum, evaluated with max-shifted
(log-sum-exp) stabilization.

The inner sums are evaluated one rail at a time, exactly.  Channel gains
are real magnitudes (ChannelConfig rotates complex gains away), and
every alphabet is a real-scaled Minkowski sum of square QAMs, each the
product of one PAM axis with itself.  So, as multisets, h_k A_k = R x R
and the interferer superposition is V x V for 1-D PAM sums R and V, and

    exp(-|y - a - w|^2) = exp(-(y_re - a_re - w_re)^2) * exp(-(y_im - a_im - w_im)^2)

turns both double sums into products of rail sums, with |A_k| = |R|^2:

    i(x; y) = i_1(x_re; y_re) + i_1(x_im; y_im),

i_1 being the same density on R and V.  A sample costs 2 |R| |V| kernel
cells instead of |A_k| |W| = |R|^2 |V|^2.

Sampling is organized in fixed-size chunks (_CHUNK samples), each
driven by its own counter-based Philox stream keyed on (task seed, chunk
index), the task seed being _task_seed(seed, k, l), so results are
bit-identical no matter how chunks are scheduled across workers.  A
chunk draws the sent point and the interferer point as flat indices into
the 2-D Minkowski-ordered alphabets and reads their coordinates off the
rails, so each received sample is bit for bit the 2-D sum.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import ChannelConfig
from .signaling import (
    DEFAULT_POINT_CAP,
    SchemeSignaling,
    check_component_size,
    iq_indices,
    minkowski_sum,
)

LOG2_E = math.log2(math.e)
#: Gap constant of the constellation-constrained MI bound: log2(5*pi*e/6).
MI_GAP_BITS = math.log2(5.0 * math.pi * math.e / 6.0)

_CHUNK = 4096
#: Fewest Monte Carlo samples estimate_stats accepts.
MIN_SAMPLES = 10_000


@dataclass(frozen=True)
class DensityStats:
    """Sample moments of the information density, in bits per symbol."""

    mi: float
    dispersion: float
    third_moment: float
    std_error: float
    samples: int

    @classmethod
    def zeros(cls) -> "DensityStats":
        return cls(0.0, 0.0, 0.0, 0.0, 0)


def _task_seed(seed: int, k: int, l: int) -> int:
    # common random numbers keyed by (user, sub-block): equal parts present give equal stats
    return (seed * 0x9E3779B9 + k * 65537 + l * 257) & 0x7FFFFFFFFFFFFFFF


def _receive_tables(cfg: ChannelConfig, sig: SchemeSignaling, k: int, l: int) -> tuple:
    """(own, w, own_parts, w_parts): one rail of user k's received alphabet
    and of its interferer multiset in sub-block l.

    own is h_k times the user's transmit axis and w the Minkowski sum of the
    interferers' h-scaled transmit axes, both with multiplicity and in
    Minkowski order; the 2-D alphabets are own x own and w x w, and the
    part tuples locate a 2-D flat index on the rails (iq_indices).  The
    2-D count |A| * |W| is component l's superimposed cardinality, so the
    size cap is superimpose's.
    """
    check_component_size(sig, cfg, l, DEFAULT_POINT_CAP)
    interferers = [i for i in range(l, cfg.users) if i != k]
    w = minkowski_sum((sig.transmit_axis(i, l) * cfg.h[i] for i in interferers), np.float64)
    w_parts = tuple(part for i in interferers for part in sig.parts[(i, l)])
    return sig.transmit_axis(k, l) * cfg.h[k], w, sig.parts[(k, l)], w_parts


def _density_1d(y: np.ndarray, x_idx: np.ndarray, own: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Density in bits of one rail: real samples y, sent rail indices x_idx.

    All samples are evaluated in one pass through one temporary of
    y.size * |R| * |V| values.  check_component_size keeps |R|^2 |V|^2
    within 2^20, so |R| |V| <= 2^10, and a call sees at most _CHUNK = 2^12
    samples: the temporary holds at most 2^22 values, and it is the only
    one of that size alive.
    """
    grid = own[:, None] + w[None, :]  # received rail points, multiplicity kept
    # ex[j, a, b] = exp(-(y_j - own_a - w_b)^2), max-shifted before exponentiating
    ex = y[:, None, None] - grid[None, :, :]
    ex *= ex
    ex -= ex.min(axis=(1, 2), keepdims=True)
    np.exp(np.negative(ex, out=ex), out=ex)
    num = ex[np.arange(y.size), x_idx, :].sum(axis=1)
    den = ex.sum(axis=(1, 2)) / own.size
    return np.log2(num / den)


def _density(y: np.ndarray, x: np.ndarray, own: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Density in bits, i_re + i_im, of rails y[(re, im), j] with sent rail indices x."""
    return _density_1d(y[0], x[0], own, w) + _density_1d(y[1], x[1], own, w)


def information_density(
    y: complex,
    cfg: ChannelConfig,
    sig: SchemeSignaling,
    k: int,
    l: int,
    x_k: complex,
) -> float:
    """Density of one received value given the transmitted point x_k.

    x_k is a point of user k's sub-block alphabet (transmit side, before
    the channel gain).
    """
    own, w, _, _ = _receive_tables(cfg, sig, k, l)
    sent = complex(x_k) * cfg.h[k]
    x = np.array([[np.argmin(np.abs(own - sent.real))], [np.argmin(np.abs(own - sent.imag))]])
    if abs(complex(*own[x[:, 0]]) - sent) > 1e-9 * max(1.0, float(np.abs(own).max())):
        raise ValueError("x_k is not a point of the user's sub-block alphabet")
    y = complex(y)
    return float(_density(np.array([[y.real], [y.imag]]), x, own, w)[0])


def _chunk_draw(seed: int, chunk: int, count: int, tables: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Received rails y[(re, im), j] and sent rail indices x[(re, im), j] of one chunk.

    u_x and u_w pick flat indices into the Minkowski-ordered 2-D alphabets;
    y[0] + 1j * y[1] is bit for bit the 2-D sum of sent point, interferer
    point and noise.
    """
    own, w, own_parts, w_parts = tables
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))
    u_x = rng.random(count)
    u_w = rng.random(count)
    noise = np.stack([rng.standard_normal(count), rng.standard_normal(count)]) * math.sqrt(0.5)
    own_size, w_size = own.size**2, w.size**2
    x_idx = np.minimum((u_x * own_size).astype(np.int64), own_size - 1)
    w_idx = np.minimum((u_w * w_size).astype(np.int64), w_size - 1)
    x = np.stack(iq_indices(x_idx, own_parts))
    y = own[x] + w[np.stack(iq_indices(w_idx, w_parts))] + noise
    return y, x


def estimate_stats(
    cfg: ChannelConfig,
    sig: SchemeSignaling,
    k: int,
    l: int,
    samples: int = 200_000,
    seed: int = 0,
    workers: int = 1,
) -> DensityStats:
    """Monte Carlo moments of the density for user k in sub-block l.

    Chunk c draws from the Philox stream keyed (_task_seed(seed, k, l), c),
    so the result is the one `hetmac region` reports at this seed, at any
    worker count.  `workers` (at least 1) threads share the chunks, thread
    s taking chunks s, s + workers, ...; thread 0 is the caller's own.  A
    sub-block without bits has all-zero stats and samples 0.  The noise
    has unit variance per complex sample, the SNR being carried entirely
    by the scaled constellations and channel gains.
    """
    if not sig.parts[(k, l)]:
        return DensityStats.zeros()
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples for stable moments")
    tables = _receive_tables(cfg, sig, k, l)
    task = _task_seed(seed, k, l)

    def chunk(c: int) -> np.ndarray:
        y, x = _chunk_draw(task, c, min(_CHUNK, samples - c * _CHUNK), tables)
        return _density(y, x, tables[0], tables[1])

    chunks = range((samples + _CHUNK - 1) // _CHUNK)
    stride = min(workers, len(chunks))

    def stripe(s: int) -> list[np.ndarray]:
        return [chunk(c) for c in chunks[s::stride]]

    # the caller runs stripe 0 itself, so one worker starts no thread: a caller
    # waiting on a one-thread pool made a one-worker region run ~9% slower (2-core VM)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rest = [pool.submit(stripe, s) for s in range(1, stride)]
        stripes = [stripe(0), *(f.result() for f in rest)]
    dens = np.concatenate([stripes[c % stride][c // stride] for c in chunks])
    mi = float(dens.mean())
    centered = dens - mi
    # a numpy reduction, not BLAS ddot: its bits and threads would follow the BLAS build
    dispersion = float(np.square(centered).sum() / (samples - 1))
    third = float(np.mean(np.abs(centered) ** 3))
    return DensityStats(
        mi=mi,
        dispersion=dispersion,
        third_moment=third,
        std_error=math.sqrt(dispersion / samples),
        samples=samples,
    )


def mi_lower_bound(alloc, k: int, l: int) -> float:
    """Constant-gap bound: allocated bits minus log2(5*pi*e/6), floored at 0."""
    return max(0.0, alloc.m[k][l] - MI_GAP_BITS)


def tin_sinr(cfg: ChannelConfig, k: int, l: int) -> float:
    """SINR of user k in sub-block l with the other users there treated as noise."""
    return cfg.snr[k] / (1.0 + sum(cfg.snr[i] for i in range(l, cfg.users) if i != k))


def gaussian_tin_mi(cfg: ChannelConfig, k: int, l: int) -> float:
    """TIN rate of Gaussian signaling: log2(1 + SNR_k / (1 + interferer SNRs))."""
    return math.log2(1.0 + tin_sinr(cfg, k, l))
