"""QAM signaling for the layered multiple access scheme.

Translates a feasible bit allocation into per-user, per-sub-block scaled
QAM constellations.  The scale of each uniform QAM part is 2**(e/2)
where e counts the bit levels below that part in the layered model,
with the user's own integer level replaced by its exact log2(SNR); a
per-component normalization factor eta then caps every user's average
transmit power at its budget.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from . import detmac
from .config import ChannelConfig
from .errors import ConstellationTooLargeError, UnsupportedOrderError
from .pipeline import BitAllocation

DEFAULT_POINT_CAP = 1 << 20
SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class Constellation:
    """Square I/Q grid: every point a + 1j * b with a and b on one rail.

    Every alphabet of the layered scheme has this form (real gains on
    Minkowski sums of square QAMs), so the grid is held by its rail: the
    distinct levels in ascending order, built from a rail given with
    multiplicity.
    """

    rail: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rail", np.unique(np.asarray(self.rail, dtype=np.float64)))

    @property
    def cardinality(self) -> int:
        return self.rail.size**2

    @property
    def dmin(self) -> float:
        """Exact minimum distance: the smallest rail gap; 0 for a single point."""
        return float(np.diff(self.rail).min()) if self.rail.size > 1 else 0.0

    @property
    def avg_energy(self) -> float:
        return 2.0 * float(np.mean(self.rail**2))

    @property
    def points(self) -> np.ndarray:
        """The grid ordered by real part, then imaginary part."""
        return (self.rail[:, None] + 1j * self.rail[None, :]).ravel()


def pam_axis(order_bits: int, dmin: float) -> np.ndarray:
    """Zero-mean PAM of spacing dmin with 2**(order_bits // 2) levels, ascending.

    This is the real (and the imaginary) axis of the square QAM with
    2**order_bits points; order 0 gives the single level 0.
    """
    side = 1 << (order_bits // 2)
    return (2.0 * np.arange(side) - (side - 1)) * (dmin / 2.0)


def minkowski_sum(sets: Iterable[np.ndarray]) -> np.ndarray:
    """Multiset sum of point sets with multiplicity, first set slowest-varying."""
    acc = np.zeros(1)
    for pts in sets:
        acc = (acc[:, None] + pts[None, :]).ravel()
    return acc


def regular_qam(order_bits: int, dmin: float) -> Constellation:
    """Square QAM with 2**order_bits points, zero mean, exact minimum distance.

    Only even orders are supported (square grids, the 5G convention).
    """
    if order_bits < 2 or order_bits % 2 != 0:
        raise UnsupportedOrderError(f"order_bits must be even and >= 2, got {order_bits}")
    if dmin <= 0:
        raise ValueError("dmin must be positive")
    return Constellation(pam_axis(order_bits, dmin))


@dataclass(frozen=True)
class ScaledPart:
    """One uniform unit-dmin QAM component of a transmitted symbol."""

    order_bits: int
    scale: float  # transmit amplitude applied to QAM(2**order_bits, 1)

    def axis(self) -> np.ndarray:
        """Real (and imaginary) rail of the scaled part: a PAM."""
        return pam_axis(self.order_bits, 1.0) * self.scale

    @property
    def energy(self) -> float:
        return self.scale * self.scale * ((1 << self.order_bits) - 1) / 6.0


@dataclass
class SchemeSignaling:
    """Per-(user, sub-block) scaled QAM parts plus power bookkeeping.

    energies holds the pre-normalization average energies E[k][l];
    zeta[k][l] is the ratio of actual transmit power to budget.  A
    sub-block with no bits reports zeta 1 when the user transmits in
    another sub-block (its budget is trivially met) and 0 when the user
    is entirely silent.
    """

    parts: dict[tuple[int, int], tuple[ScaledPart, ...]]
    energies: dict[tuple[int, int], float]
    zeta: dict[tuple[int, int], float]

    def transmit_axis(self, k: int, l: int) -> np.ndarray:
        """The transmit alphabet's rail: the Minkowski sum of the part axes."""
        return minkowski_sum(part.axis() for part in self.parts[(k, l)])

    def transmit_points(self, k: int, l: int) -> np.ndarray:
        """The 2-D transmit alphabet with multiplicity, in iq_indices' order:
        a view of the rail, kept for the benchmark's tools; the library
        works on the rail alone."""
        axis = self.transmit_axis(k, l)
        re, im = iq_indices(np.arange(axis.size**2), self.parts[(k, l)])
        return axis[re] + 1j * axis[im]


def iq_indices(flat: np.ndarray, parts: Sequence[ScaledPart]) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) rail indices of flat indices into the 2-D alphabet of parts.

    The one definition of the 2-D Minkowski order.  The alphabet of
    parts p_1, ..., p_n is the multiset sum of their square QAMs, p_1
    slowest-varying; within the QAM of a part with side levels, flat
    index i * side + j is rail level j on the real axis and level i on
    the imaginary axis.  The returned indices address
    minkowski_sum(p.axis() for p in parts), the rail that holds the real
    parts and the imaginary parts alike.
    """
    re = np.zeros_like(flat)
    im = np.zeros_like(flat)
    stride = 1
    for part in reversed(parts):
        side = 1 << (part.order_bits // 2)
        flat, cell = np.divmod(flat, side * side)
        im += (cell // side) * stride
        re += (cell % side) * stride
        stride *= side
    return re, im


def build_scheme(cfg: ChannelConfig, alloc: BitAllocation) -> SchemeSignaling:
    """Translate a feasible bit allocation into scaled QAM signaling.

    detmac.component_layout raises InfeasibleAllocationError at the first
    component whose column breaks a tail-sum constraint of the layered
    region.
    """
    K = cfg.users
    if alloc.users != K:
        raise ValueError("allocation table must have one row per user")
    layouts = [
        detmac.component_layout(cfg.n, m_col, l, alloc.scheme_type)
        for l, m_col in enumerate(alloc.columns)
    ]
    # (order_bits, level_exponent) per QAM part: one part per depth window
    # (start, end], its exponent counting the bit levels below the window
    # with the user's own integer level replaced by the exact log2(SNR_k)
    parts_pre = {(k, l): [] for k in range(K) for l in range(k + 1)}
    for (k, l), layout in parts_pre.items():
        for start, end in layouts[l][k]:
            order = end - start
            if order % 2 != 0:  # possible only for scheme 2 with odd level gaps
                raise UnsupportedOrderError(
                    f"user {k + 1}, sub-block {l + 1}: "
                    f"layered window of {order} bits has no square QAM"
                )
            layout.append((order, (cfg.n[l] - math.log2(cfg.snr[k])) + (cfg.n[l] - end)))
    energies = {
        key: sum(2.0**e * ((1 << order) - 1) / 6.0 for order, e in layout)
        for key, layout in parts_pre.items()
    }
    peaks = [max(energies[(k, l)] for k in range(l, K)) for l in range(K)]
    eta = tuple(1.0 / math.sqrt(peak) if peak > 0 else 1.0 for peak in peaks)

    parts: dict[tuple[int, int], tuple[ScaledPart, ...]] = {}
    zeta: dict[tuple[int, int], float] = {}
    for (k, l), layout in parts_pre.items():
        amp = eta[l] * math.sqrt(cfg.P[k])
        parts[(k, l)] = tuple(ScaledPart(order, amp * 2.0 ** (e / 2.0)) for order, e in layout)
        if layout:
            zeta[(k, l)] = energies[(k, l)] / peaks[l]
        else:
            zeta[(k, l)] = 1.0 if any(alloc.m[k]) else 0.0

    return SchemeSignaling(parts=parts, energies=energies, zeta=zeta)


def _rails_close(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """True when the I/Q grids on two sorted rails of equal size lie within
    atol point for point: grid points differ by sqrt(2) times the largest
    rail difference."""
    return a.size == b.size and SQRT2 * float(np.abs(a - b).max()) <= atol


def schemes_identical(a: SchemeSignaling, b: SchemeSignaling) -> bool:
    """True when both schemes produce the same symbol alphabets everywhere,
    to 1e-9 of the largest point modulus (at least 1)."""
    if set(a.parts) != set(b.parts):
        return False
    for key in a.parts:
        ra = np.sort(a.transmit_axis(*key))
        rb = np.sort(b.transmit_axis(*key))
        atol = 1e-9 * max(1.0, SQRT2 * float(np.abs(ra).max()))
        if not _rails_close(ra, rb, atol):
            return False
    return True


def received_rail(
    sig: SchemeSignaling, cfg: ChannelConfig, users: Sequence[int], l: int
) -> tuple[np.ndarray, tuple[ScaledPart, ...]]:
    """(rail, parts): the Minkowski sum of the users' h-scaled transmit axes
    in sub-block l, with multiplicity, and their parts in the same order,
    so iq_indices(flat, parts) maps the 2-D received alphabet onto the rail.

    Every received alphabet is built here, and only here is its size
    checked: ConstellationTooLargeError when component l's superimposed
    alphabet, prod_{k >= l} 2**bits(k, l) points, exceeds DEFAULT_POINT_CAP.
    """
    cap = DEFAULT_POINT_CAP  # read at call time
    if 1 << sum(p.order_bits for k in range(l, cfg.users) for p in sig.parts[(k, l)]) > cap:
        raise ConstellationTooLargeError(f"superimposed cardinality exceeds cap {cap}")
    rail = minkowski_sum(sig.transmit_axis(k, l) * cfg.h[k] for k in users)
    return rail, tuple(part for k in users for part in sig.parts[(k, l)])


def superimpose(sig: SchemeSignaling, cfg: ChannelConfig, component: int) -> Constellation:
    """Receive-side sum constellation of all users active in one component.

    Exact Minkowski sum of h_k-scaled alphabets; coinciding points are
    merged only on exact binary equality, so a collapse below the product
    cardinality is observable rather than hidden.
    """
    if not 0 <= component < cfg.users:
        raise ValueError("component out of range")
    return Constellation(received_rail(sig, cfg, range(component, cfg.users), component)[0])


@dataclass(frozen=True)
class LadderVerdict:
    """Outcome of checking that a power ladder of QAMs is again a regular QAM."""

    cardinality_ok: bool
    dmin_ok: bool
    zero_mean_ok: bool
    grid_ok: bool
    constellation: Constellation

    @property
    def passed(self) -> bool:
        return self.cardinality_ok and self.dmin_ok and self.zero_mean_ok and self.grid_ok


def verify_lemma2(orders: list[int], delta: float) -> LadderVerdict:
    """Check the ladder superposition sum_k 2**(sum of earlier orders / 2) * QAM_k.

    Builds the superposition of unit-spacing-delta QAMs with the dyadic
    ladder scaling and verifies it is exactly the regular QAM of the
    total order: correct cardinality, minimum distance delta, zero mean,
    and point-for-point grid agreement.  Ladders above 16 bits in all
    are refused.
    """
    if not orders:
        raise ValueError("need at least one order")
    total = sum(orders)
    if total > 16:
        raise ConstellationTooLargeError(f"sum of orders {total} exceeds budget 16")
    layers = []
    cum = 0
    for order in orders:
        layers.append(pam_axis(order, delta) * 2.0 ** (cum / 2.0))
        cum += order
    built = Constellation(minkowski_sum(layers))
    tol = delta * 1e-9
    cardinality_ok = built.cardinality == (1 << total)
    dmin_ok = abs(built.dmin - delta) <= tol
    # the grid's mean is mean(rail) * (1 + 1j)
    zero_mean_ok = SQRT2 * abs(float(np.mean(built.rail))) <= max(tol, 1e-12)
    grid_ok = cardinality_ok and _rails_close(built.rail, regular_qam(total, delta).rail, tol)
    return LadderVerdict(cardinality_ok, dmin_ok, zero_mean_ok, grid_ok, built)


def write_constellation_csv(c: Constellation, path) -> None:
    """Dump the points as 're,im' lines, in Constellation.points order, for
    external plotting."""
    levels = [f"{v:.12g}" for v in c.rail]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re,im\n")
        fh.writelines(f"{re},{im}\n" for re in levels for im in levels)
