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

The rail kernel (_density_1d) is grid-major: its one temporary holds
the |R| |V| rail grid points against a chunk's samples, samples on the
contiguous axis, and every step is elementwise, an exact min or an
in-place halving fold (_fold), so a sample's density does not depend on
the batch it is evaluated in.  At the size cap the temporary is 32 MiB
and nothing else is of its size.  Shifted exponents below _EXP_FLOOR =
-700 are raised to it before exp.  exp(-700) ~ 2^-1010 is still a
normal number, so numpy's exp never takes its slow path for results
that underflow to subnormals or 0 (about 9% of the lanes of the
benchmark regions).  A floored lane adds under 2^-1009 to a row sum.
The denominator's largest term is 1, and the sent row's sum holds at
least the drawn point's own term exp(-z^2), z a real noise sample, so
short of |z| near 25 (some 36 standard deviations) the floor's change
lies far below the last bit of either sum.  On the benchmark regions it
moved no bit of any chunk.  For an arbitrary y it keeps a density
finite, about -1010 bits or more, where the unfloored sum underflows
and the density would be -inf.

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
#: Floor of the kernel's shifted exponents: exp(-700) ~ 2^-1010 is normal,
#: clear of the subnormal results below log(2^-1022) ~ -708.4 that put
#: numpy's exp on its slow path (module docstring).
_EXP_FLOOR = -700.0
#: Most values a kernel pass holds: at the size cap, one _CHUNK-sample rail.
_PASS_VALUES = 2**22
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
    """(own, w, own_iq, w_iq): one rail of user k's received alphabet and
    of its interferer multiset in sub-block l, and their rail-index tables.

    own is h_k times the user's transmit axis and w the Minkowski sum of the
    interferers' h-scaled transmit axes, both with multiplicity and in
    Minkowski order; the 2-D alphabets are own x own and w x w.  Column i
    of own_iq (of w_iq) holds the (re, im) rail indices of flat index i
    into the 2-D alphabet (iq_indices), as uint16: a rail has at most 2^10
    points.  The 2-D count |A| * |W| is component l's superimposed
    cardinality, so the size cap is superimpose's, and the two tables hold
    at most 2^20 + 1 columns together.
    """
    check_component_size(sig, cfg, l, DEFAULT_POINT_CAP)
    interferers = [i for i in range(l, cfg.users) if i != k]
    own = sig.transmit_axis(k, l) * cfg.h[k]
    w = minkowski_sum((sig.transmit_axis(i, l) * cfg.h[i] for i in interferers), np.float64)
    w_parts = tuple(part for i in interferers for part in sig.parts[(i, l)])
    return own, w, _iq_table(own.size, sig.parts[(k, l)]), _iq_table(w.size, w_parts)


def _iq_table(rail_size: int, parts) -> np.ndarray:
    flat = np.arange(rail_size**2, dtype=np.uint32)
    return np.stack(iq_indices(flat, parts)).astype(np.uint16)


def _fold(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of a, in place, by halving folds; the sum is a[0].

    Each fold adds the top half onto the bottom half, an odd middle row
    waiting for the next fold.  The order in which one column's entries
    are added depends only on a.shape[0], never on the other axes, and
    no temporary is allocated.
    """
    m = a.shape[0]
    while m > 1:
        h = m // 2
        a[:h] += a[m - h:m]
        m -= h
    return a[0]


def _density_1d(y: np.ndarray, x_idx: np.ndarray, own: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Density in bits of one rail: real samples y, sent rail indices x_idx.

    Grid-major: the one temporary ex[a * |V| + b, j] holds the squared
    distance of sample j to grid point own[a] + w[b], so every pass runs
    along the contiguous sample axis.  Each column is shifted by its
    minimum and negated, floored at _EXP_FLOOR and exponentiated, all in
    place; folding over b gives the per-own-point sums rows[a, j], the
    sent row's entry is the numerator and folding rows over a the
    denominator.  Every step is elementwise, an exact min or a fold of
    adds, so a sample's bits do not depend on the batch it is in.

    check_component_size keeps |R|^2 |V|^2 within 2^20, so |R| |V| <=
    2^10, and _density passes at most _PASS_VALUES // (|R| |V|) samples:
    ex holds at most 2^22 values (32 MiB), and every other array is the
    size of one of its rows or columns.
    """
    n = y.size
    grid = (own[:, None] + w[None, :]).ravel()  # received rail points, multiplicity kept
    ex = y[None, :] - grid[:, None]
    ex *= ex
    # -(d - min d): the max-shifted exponent, 0 at each sample's nearest point
    np.subtract(ex.min(axis=0), ex, out=ex)
    np.maximum(ex, _EXP_FLOOR, out=ex)
    np.exp(ex, out=ex)
    rows = _fold(ex.reshape(own.size, w.size, n).swapaxes(0, 1))  # (|R|, n)
    num = rows[x_idx, np.arange(n)]
    den = _fold(rows) / own.size
    return np.log2(num / den)


def _density(y: np.ndarray, x: np.ndarray, own: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Density in bits, i_re + i_im, of rails y[(re, im), j] with sent rail indices x.

    Both rails go through _density_1d as one run of 2n samples, cut into
    passes of _PASS_VALUES // (|R| |V|) samples so that no temporary
    exceeds _PASS_VALUES values; batch independence keeps the bits of
    two separate rail passes.
    """
    n = y.shape[1]
    ys, xs = y.reshape(-1), x.reshape(-1)
    step = _PASS_VALUES // (own.size * w.size)
    d = np.concatenate([
        _density_1d(ys[s:s + step], xs[s:s + step], own, w) for s in range(0, ys.size, step)
    ])
    return d[:n] + d[n:]


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

    u_x and u_w pick flat indices into the Minkowski-ordered 2-D alphabets,
    which the rail-index tables of _receive_tables map to the rails;
    y[0] + 1j * y[1] is bit for bit the 2-D sum of sent point, interferer
    point and noise.
    """
    own, w, own_iq, w_iq = tables
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))
    # one call per kind draws the same Philox values, in the same order, as one per row
    u_x, u_w = rng.random((2, count))
    noise = rng.standard_normal((2, count))
    noise *= math.sqrt(0.5)
    own_size, w_size = own.size**2, w.size**2
    x_idx = np.minimum((u_x * own_size).astype(np.int64), own_size - 1)
    w_idx = np.minimum((u_w * w_size).astype(np.int64), w_size - 1)
    # take, not fancy indexing: a 2-D fancy gather costs several times more here
    x = own_iq.take(x_idx, axis=1)
    y = own.take(x) + w.take(w_iq.take(w_idx, axis=1)) + noise
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
    a = np.abs(centered)
    third = float(np.mean(a * a * a))
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
