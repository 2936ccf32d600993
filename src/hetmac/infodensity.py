"""Symbol-wise TIN information density and its Monte Carlo moments.

The density for user k in sub-block l is

    i(x; y) = log2( sum_w exp(-|y - h_k x - w|^2)
                    / ((1/|A_k|) sum_{x'} sum_w exp(-|y - h_k x' - w|^2)) )

where w runs over the received interferer superposition with
multiplicity and A_k is the user's sub-block alphabet.  The exponent is
the squared norm of the unit-variance circular Gaussian kernel.  Means
and variances, the two moments the normal approximation reads, are
estimated by plain Monte Carlo with an exhaustive inner sum, evaluated
with max-shifted (log-sum-exp) stabilization.

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
the |R| |V| rail grid points against a batch's samples, samples on the
contiguous axis, and every step is elementwise, an exact min or an
in-place halving fold (_fold), so a sample's density does not depend on
the batch it is evaluated in.  It holds at most _PASS_VALUES values,
32 MiB, and nothing else is of its size.  Shifted exponents below
_EXP_FLOOR = -700 are raised to it before exp.  exp(-700) ~ 2^-1010 is
still a normal number, so numpy's exp never takes its slow path for
results that underflow to subnormals or 0 (about 9% of the lanes of the
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
index), the task seed being _task_seed(seed, k, l); estimate_stats
runs the samples in index order on the calling thread, in batches of at
most _CHUNK whose two rails fill at most one _PASS_VALUES kernel call.
The stream does not depend on the allocation, so _stream draws it once
and keeps it for the next estimate of the same (k, l).  A chunk draws
the sent point and the interferer point as flat indices into the 2-D
Minkowski-ordered alphabets and reads their coordinates off the rails,
so each received sample is bit for bit the 2-D sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ChannelConfig
from .errors import SamplesTooLargeError
from .signaling import SchemeSignaling, iq_indices, received_rail

LOG2_E = math.log2(math.e)
#: Gap constant of the constellation-constrained MI bound: log2(5*pi*e/6).
MI_GAP_BITS = math.log2(5.0 * math.pi * math.e / 6.0)

_CHUNK = 4096
#: Floor of the kernel's shifted exponents: exp(-700) ~ 2^-1010 is normal,
#: clear of the subnormal results below log(2^-1022) ~ -708.4 that put
#: numpy's exp on its slow path (module docstring).
_EXP_FLOOR = -700.0
#: Most values one _density_1d call holds: at the size cap, both rails of 2048 samples.
_PASS_VALUES = 2**22
#: Fewest Monte Carlo samples estimate_stats accepts.
MIN_SAMPLES = 10_000


@dataclass(frozen=True)
class DensityStats:
    """Sample moments of the information density, in bits per symbol."""

    mi: float
    dispersion: float
    samples: int

    @property
    def std_error(self) -> float:
        """Standard error of mi: sqrt(dispersion / samples), 0 without samples."""
        return math.sqrt(self.dispersion / self.samples) if self.samples else 0.0

    @classmethod
    def zeros(cls) -> "DensityStats":
        return cls(0.0, 0.0, 0)


def _task_seed(seed: int, k: int, l: int) -> int:
    # common random numbers keyed by (user, sub-block), not by allocation: equal parts
    # present give equal stats, and every estimate of one (k, l) reads the same _stream
    return (seed * 0x9E3779B9 + k * 65537 + l * 257) & 0x7FFFFFFFFFFFFFFF


def _receive_tables(cfg: ChannelConfig, sig: SchemeSignaling, k: int, l: int) -> tuple:
    """(own, w, own_iq, w_iq): one rail of user k's received alphabet and
    of its interferer multiset in sub-block l, and their rail-index tables.

    own and w are received_rail's, with multiplicity and in Minkowski
    order; the 2-D alphabets are own x own and w x w.  Column i of own_iq
    (of w_iq) holds the (re, im) rail indices of flat index i into the 2-D
    alphabet (iq_indices), as uint16: a rail has at most 2^10 points.  The
    2-D count |A| * |W| is component l's superimposed cardinality, within
    received_rail's size cap, so the two tables hold at most 2^20 + 1
    columns together.
    """
    own, own_parts = received_rail(sig, cfg, [k], l)
    w, w_parts = received_rail(sig, cfg, [i for i in range(l, cfg.users) if i != k], l)
    return own, w, _iq_table(own.size, own_parts), _iq_table(w.size, w_parts)


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

    received_rail's size cap keeps |R|^2 |V|^2 within 2^20, so |R| |V| <=
    2^10, and estimate_stats passes at most _PASS_VALUES // (|R| |V|)
    samples: ex holds at most 2^22 values (32 MiB), and every other array
    is the size of one of its rows or columns.
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
    # rows[a] is ex's row a * |V|: take the numerator off the flat buffer, not by a
    # 2-D fancy gather, and before the fold over a overwrites rows[0]
    flat = x_idx.astype(np.intp) * (w.size * n)
    flat += np.arange(n)
    num = ex.reshape(-1).take(flat)
    den = _fold(rows) / own.size
    return np.log2(num / den)


def _density(y: np.ndarray, x: np.ndarray, own: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Density in bits, i_re + i_im, of rails y[(re, im), j] with sent rail indices x.

    Both rails go through one _density_1d call as a run of 2n samples, so
    the call holds 2n |R| |V| values; batch independence keeps the bits
    of two separate rail calls.
    """
    n = y.shape[1]
    d = _density_1d(y.reshape(-1), x.reshape(-1), own, w)
    return d[:n] + d[n:]


def _per_sample(shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """np.empty for shape[-1] samples (an estimate holds 32 bytes a sample: u 8,
    noise 16, dens 8); numpy's failure to allocate is SamplesTooLargeError."""
    try:
        return np.empty(shape, dtype)
    except (ValueError, MemoryError) as exc:  # past numpy's size range, or out of memory
        msg = f"cannot allocate the arrays of {shape[-1]} samples (about 32 bytes each): {exc}"
        raise SamplesTooLargeError(msg) from None


#: _stream's one-slot cache: ((task seed, samples), u, noise), or None.
_slot: tuple | None = None


def _stream(task: int, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """(u[2, S], noise[2, S]): the common random numbers of one task seed.

    Chunk c, samples c * _CHUNK onward, comes from the Philox stream keyed
    (task, c): two uniform rows, which pick the sent point and the
    interferer point, then two standard normal rows times sqrt(1/2), the
    noise's (re, im).  u holds floor(v * 2^32) of each uniform v, as
    uint32: all _chunk_draw reads of v, in half the bytes of a float.
    The stream of the last call is kept, read-only, in a one-slot cache
    that is emptied before another is drawn, so no two streams are held
    at once.
    """
    global _slot
    if _slot is not None and _slot[0] == (task, samples):
        return _slot[1], _slot[2]
    _slot = None  # drop the old stream before drawing
    u, noise = _per_sample((2, samples), np.uint32), _per_sample((2, samples))
    for s in range(0, samples, _CHUNK):
        n = min(_CHUNK, samples - s)
        key = np.array([task, s // _CHUNK], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        # one call per kind draws the same Philox values, in the same order, as one per row;
        # v * 2^32 is exact and below 2^32, and the cast truncates it
        u[:, s:s + n] = rng.random((2, n)) * 2.0**32
        noise[:, s:s + n] = rng.standard_normal((2, n))
    noise *= math.sqrt(0.5)
    u.flags.writeable = False
    noise.flags.writeable = False
    _slot = ((task, samples), u, noise)
    return u, noise


def release_stream() -> None:
    """Empty _stream's slot: a finished sweep holds no stream, 24 bytes per sample."""
    global _slot
    _slot = None


def _chunk_draw(u: np.ndarray, noise: np.ndarray, tables: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Received rails y[(re, im), j] and sent rail indices x[(re, im), j] of
    a slice u, noise of a _stream.

    u[0] and u[1] pick flat indices into the Minkowski-ordered 2-D
    alphabets.  A rail of 2^m levels (a product of square-QAM axes) is an
    alphabet of 2^(2m) points, so the index floor(v * 2^(2m)) that the
    uniform v picks is the top 2m of its 32 bits in u, exactly.  The
    rail-index tables of _receive_tables map the indices to the rails;
    y[0] + 1j * y[1] is bit for bit the 2-D sum of sent point, interferer
    point and noise.
    """
    own, w, own_iq, w_iq = tables
    x_idx = u[0] >> (32 - 2 * (own.size.bit_length() - 1))
    w_idx = u[1] >> (32 - 2 * (w.size.bit_length() - 1))  # no interferer: shift 32, index 0
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
) -> DensityStats:
    """Monte Carlo moments of the density for user k in sub-block l.

    Chunk c draws from the Philox stream keyed (_task_seed(seed, k, l), c),
    so the result is the one `hetmac region` reports at this seed,
    whatever was estimated before: the stream is the one _stream keeps
    for consecutive calls with the same (k, l).  The kernel batches are
    sized here alone (module docstring).  A sub-block without bits has
    all-zero stats and samples 0.  The noise has unit variance per
    complex sample, the SNR being carried by the constellations and gains.
    """
    if not sig.parts[(k, l)]:
        return DensityStats.zeros()
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples for stable moments")
    tables = _receive_tables(cfg, sig, k, l)
    own, w = tables[:2]
    u, noise = _stream(_task_seed(seed, k, l), samples)
    dens = _per_sample((samples,))
    batch = min(_CHUNK, _PASS_VALUES // (2 * own.size * w.size))  # both rails, one call
    for s in range(0, samples, batch):
        part = slice(s, s + batch)
        y, x = _chunk_draw(u[:, part], noise[:, part], tables)
        dens[part] = _density(y, x, own, w)
    mi = float(dens.mean())
    dens -= mi
    # a numpy reduction, not BLAS ddot: its bits and threads would follow the BLAS build
    dispersion = float(np.square(dens, out=dens).sum() / (samples - 1))
    return DensityStats(mi=mi, dispersion=dispersion, samples=samples)


def tin_sinr(cfg: ChannelConfig, k: int, l: int) -> float:
    """SINR of user k in sub-block l with the other users there treated as noise."""
    return cfg.snr[k] / (1.0 + sum(cfg.snr[i] for i in range(l, cfg.users) if i != k))


def gaussian_tin_mi(cfg: ChannelConfig, k: int, l: int) -> float:
    """TIN rate of Gaussian signaling: log2(1 + SNR_k / (1 + interferer SNRs))."""
    return math.log2(1.0 + tin_sinr(cfg, k, l))
