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
from .errors import (
    ConstellationTooLargeError,
    InfeasibleAllocationError,
    UnsupportedOrderError,
)
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


def iq_grid(axis: np.ndarray) -> np.ndarray:
    """Square QAM with the given axis on both rails.

    Flat index i * len(axis) + j holds axis[j] + 1j * axis[i]; iq_indices
    inverts this layout.
    """
    re, im = np.meshgrid(axis, axis)
    return (re + 1j * im).ravel()


def minkowski_sum(sets: Iterable[np.ndarray], dtype=np.complex128) -> np.ndarray:
    """Multiset sum of point sets with multiplicity, first set slowest-varying."""
    acc = np.zeros(1, dtype=dtype)
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

    def points(self) -> np.ndarray:
        return iq_grid(self.axis())

    @property
    def energy(self) -> float:
        return self.scale * self.scale * ((1 << self.order_bits) - 1) / 6.0


@dataclass
class SchemeSignaling:
    """Per-(user, sub-block) scaled constellations plus power bookkeeping.

    energies holds the pre-normalization average energies E[k][l]; eta[l]
    is the component normalization 1/sqrt(max energy); zeta[k][l] is the
    ratio of actual transmit power to budget.  A sub-block with no bits
    reports zeta 1 when the user transmits in another sub-block (its
    budget is trivially met) and 0 when the user is entirely silent.
    """

    scheme_type: int
    parts: dict[tuple[int, int], tuple[ScaledPart, ...]]
    eta: tuple[float, ...]
    energies: dict[tuple[int, int], float]
    zeta: dict[tuple[int, int], float]

    @property
    def constellations(self) -> dict[tuple[int, int], Constellation]:
        """Transmit alphabet per (user, sub-block) as an I/Q grid; a
        sub-block without bits is the single point at the origin."""
        return {key: Constellation(self.transmit_axis(*key)) for key in self.parts}

    def transmit_points(self, k: int, l: int) -> np.ndarray:
        """Symbol alphabet with multiplicity: Minkowski sum over the parts."""
        return minkowski_sum(part.points() for part in self.parts[(k, l)])

    def transmit_axis(self, k: int, l: int) -> np.ndarray:
        """One rail of transmit_points: the Minkowski sum of the part axes.

        transmit_points is this axis times itself on the I and Q rails, as
        a multiset; iq_indices maps its flat indices to this axis.
        """
        return minkowski_sum((part.axis() for part in self.parts[(k, l)]), np.float64)


def iq_indices(flat: np.ndarray, parts: Sequence[ScaledPart]) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) rail indices of flat indices into a Minkowski sum of parts.

    flat indexes minkowski_sum(p.points() for p in parts); the returned
    indices address minkowski_sum(p.axis() for p in parts), which holds
    the real parts and the imaginary parts of those points alike.
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


def _part_layout(
    cfg: ChannelConfig, m: tuple[tuple[int, ...], ...], k: int, l: int, scheme_type: int
) -> tuple[tuple[int, float], ...]:
    """(order_bits, level_exponent) for each QAM part of user k, sub-block l.

    Each part corresponds to one depth window of the layered-model
    placement; its exponent counts the bit levels below the window, with
    the user's own integer level replaced by the exact log2(SNR_k).
    Every window must hold an even number of bits so the part is a
    square QAM; odd windows (possible only for scheme 2 with odd level
    gaps and three or more users) are rejected.
    """
    mk = m[k][l]
    if mk == 0:
        return ()
    m_col = [m[i][l] for i in range(l, cfg.users)]
    fragments = detmac.component_layout(cfg.n, m_col, l, scheme_type)[k]
    base = cfg.n[l] - math.log2(cfg.snr[k])
    parts = []
    for start, end in fragments:
        order = end - start
        if order % 2 != 0:
            raise UnsupportedOrderError(
                f"user {k}, sub-block {l}: layered window of {order} bits has no square QAM"
            )
        parts.append((order, base + (cfg.n[l] - end)))
    return tuple(parts)


def build_scheme(cfg: ChannelConfig, alloc: BitAllocation) -> SchemeSignaling:
    """Translate a feasible bit allocation into scaled QAM signaling.

    Raises InfeasibleAllocationError when any tail-sum constraint of the
    layered region is violated (detmac.verify_region).
    """
    m = alloc.m
    K = cfg.users
    for comp in detmac.verify_region(detmac.DetConfig(cfg.n, m)):
        if not comp.feasible:
            raise InfeasibleAllocationError(
                f"component {comp.component}: users {comp.first_user}.. "
                f"load {comp.load} exceeds level {comp.capacity}"
            )

    parts_pre: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {}
    energies: dict[tuple[int, int], float] = {}
    for k in range(K):
        for l in range(k + 1):
            layout = _part_layout(cfg, m, k, l, alloc.scheme_type)
            parts_pre[(k, l)] = layout
            energies[(k, l)] = sum(
                2.0**e * ((1 << order) - 1) / 6.0 for order, e in layout
            )

    eta = []
    for l in range(K):
        peak = max(energies[(k, l)] for k in range(l, K))
        eta.append(1.0 / math.sqrt(peak) if peak > 0 else 1.0)

    parts: dict[tuple[int, int], tuple[ScaledPart, ...]] = {}
    zeta: dict[tuple[int, int], float] = {}
    active = [any(v > 0 for v in m[k]) for k in range(K)]
    for k in range(K):
        for l in range(k + 1):
            amp = eta[l] * math.sqrt(cfg.P[k])
            parts[(k, l)] = tuple(
                ScaledPart(order, amp * 2.0 ** (e / 2.0)) for order, e in parts_pre[(k, l)]
            )
            if not parts[(k, l)]:
                zeta[(k, l)] = 1.0 if active[k] else 0.0
                continue
            peak = max(energies[(i, l)] for i in range(l, K))
            zeta[(k, l)] = energies[(k, l)] / peak

    return SchemeSignaling(
        scheme_type=alloc.scheme_type,
        parts=parts,
        eta=tuple(eta),
        energies=energies,
        zeta=zeta,
    )


def _rails_close(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """True when the I/Q grids on two sorted rails of equal size lie within
    atol point for point: grid points differ by sqrt(2) times the largest
    rail difference."""
    return a.size == b.size and SQRT2 * float(np.abs(a - b).max()) <= atol


def schemes_identical(a: SchemeSignaling, b: SchemeSignaling, rtol: float = 1e-9) -> bool:
    """True when both schemes produce the same symbol alphabets everywhere,
    to rtol of the largest point modulus (at least 1)."""
    if set(a.parts) != set(b.parts):
        return False
    for key in a.parts:
        ra = np.sort(a.transmit_axis(*key))
        rb = np.sort(b.transmit_axis(*key))
        atol = rtol * max(1.0, SQRT2 * float(np.abs(ra).max()))
        if not _rails_close(ra, rb, atol):
            return False
    return True


def check_component_size(sig: SchemeSignaling, cfg: ChannelConfig, l: int, cap: int) -> None:
    """Raise ConstellationTooLargeError when component l's superimposed
    receive alphabet, prod_{k >= l} 2**bits(k, l) points with multiplicity,
    exceeds cap."""
    if 1 << sum(p.order_bits for k in range(l, cfg.users) for p in sig.parts[(k, l)]) > cap:
        raise ConstellationTooLargeError(f"superimposed cardinality exceeds cap {cap}")


def superimpose(
    sig: SchemeSignaling,
    cfg: ChannelConfig,
    component: int,
    point_cap: int = DEFAULT_POINT_CAP,
) -> Constellation:
    """Receive-side sum constellation of all users active in one component.

    Exact Minkowski sum of h_k-scaled alphabets; coinciding points are
    merged only on exact binary equality, so a collapse below the product
    cardinality is observable rather than hidden.
    """
    if not 0 <= component < cfg.users:
        raise ValueError("component out of range")
    check_component_size(sig, cfg, component, point_cap)
    rail = minkowski_sum(
        (sig.transmit_axis(k, component) * cfg.h[k] for k in range(component, cfg.users)),
        np.float64,
    )
    return Constellation(rail)


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


def verify_lemma2(orders: list[int], delta: float, budget_bits: int = 16) -> LadderVerdict:
    """Check the ladder superposition sum_k 2**(sum of earlier orders / 2) * QAM_k.

    Builds the superposition of unit-spacing-delta QAMs with the dyadic
    ladder scaling and verifies it is exactly the regular QAM of the
    total order: correct cardinality, minimum distance delta, zero mean,
    and point-for-point grid agreement.
    """
    if not orders:
        raise ValueError("need at least one order")
    total = sum(orders)
    if total > budget_bits:
        raise ConstellationTooLargeError(f"sum of orders {total} exceeds budget {budget_bits}")
    layers = []
    cum = 0
    for order in orders:
        layers.append(pam_axis(order, delta) * 2.0 ** (cum / 2.0))
        cum += order
    built = Constellation(minkowski_sum(layers, np.float64))
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
