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
from scipy.spatial import cKDTree

from . import detmac
from .config import ChannelConfig
from .errors import (
    ConstellationTooLargeError,
    InfeasibleAllocationError,
    UnsupportedOrderError,
)
from .pipeline import BitAllocation

DEFAULT_POINT_CAP = 1 << 20


@dataclass(frozen=True, eq=False)
class Constellation:
    """Finite set of complex points with its basic geometry."""

    points: np.ndarray
    cardinality: int
    dmin: float
    avg_energy: float

    @classmethod
    def from_points(cls, points: np.ndarray) -> "Constellation":
        pts = np.unique(np.asarray(points, dtype=np.complex128))
        dmin = min_point_distance(pts) if pts.size >= 2 else 0.0
        energy = float(np.mean(np.abs(pts) ** 2)) if pts.size else 0.0
        return cls(pts, int(pts.size), dmin, energy)

    def scaled(self, factor: float) -> "Constellation":
        return Constellation(
            self.points * factor,
            self.cardinality,
            self.dmin * abs(factor),
            self.avg_energy * factor * factor,
        )


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

    Only even orders are supported (square grids, the 5G convention);
    avg energy follows the closed form dmin^2 * (cardinality - 1) / 6.
    """
    if order_bits < 2 or order_bits % 2 != 0:
        raise UnsupportedOrderError(f"order_bits must be even and >= 2, got {order_bits}")
    if dmin <= 0:
        raise ValueError("dmin must be positive")
    cardinality = 1 << order_bits
    energy = dmin * dmin * (cardinality - 1) / 6.0
    return Constellation(iq_grid(pam_axis(order_bits, dmin)), cardinality, float(dmin), energy)


def min_distance(c: Constellation | np.ndarray) -> float:
    """Exact minimum pairwise Euclidean distance."""
    pts = c.points if isinstance(c, Constellation) else np.asarray(c, dtype=np.complex128)
    if pts.size < 2:
        raise ValueError("need at least two points")
    return min_point_distance(pts)


def min_point_distance(pts: np.ndarray) -> float:
    if pts.size <= 512:
        d = np.abs(pts[:, None] - pts[None, :])
        d[np.diag_indices(pts.size)] = np.inf
        return float(d.min())
    xy = np.column_stack([pts.real, pts.imag])
    dist, _ = cKDTree(xy).query(xy, k=2)
    return float(dist[:, 1].min())


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
        """Distinct transmit points with their geometry, per (user, sub-block);
        a sub-block without bits is the single point at the origin."""
        return {key: Constellation.from_points(self.transmit_points(*key)) for key in self.parts}

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


def schemes_identical(a: SchemeSignaling, b: SchemeSignaling, rtol: float = 1e-9) -> bool:
    """True when both schemes produce the same symbol alphabets everywhere."""
    if set(a.parts) != set(b.parts):
        return False
    for key in a.parts:
        pa = np.sort_complex(a.transmit_points(*key))
        pb = np.sort_complex(b.transmit_points(*key))
        if pa.size != pb.size:
            return False
        scale = max(1.0, float(np.abs(pa).max()))
        if not np.allclose(pa, pb, rtol=0.0, atol=rtol * scale):
            return False
    return True


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
    total = 1
    for k in range(component, cfg.users):
        total *= 1 << sum(p.order_bits for p in sig.parts[(k, component)])
        if total > point_cap:
            raise ConstellationTooLargeError(
                f"superimposed cardinality exceeds cap {point_cap}"
            )
    pts = minkowski_sum(
        sig.transmit_points(k, component) * cfg.h[k] for k in range(component, cfg.users)
    )
    return Constellation.from_points(pts)


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
        layers.append(regular_qam(order, delta).points * 2.0 ** (cum / 2.0))
        cum += order
    built = Constellation.from_points(minkowski_sum(layers))
    reference = regular_qam(total, delta)
    tol = delta * 1e-9
    cardinality_ok = built.cardinality == (1 << total)
    dmin_ok = abs(built.dmin - delta) <= tol
    zero_mean_ok = abs(np.mean(built.points)) <= max(tol, 1e-12)
    grid_ok = cardinality_ok and bool(
        np.allclose(
            np.sort_complex(built.points), np.sort_complex(reference.points),
            rtol=0.0, atol=tol,
        )
    )
    return LadderVerdict(cardinality_ok, dmin_ok, zero_mean_ok, grid_ok, built)


def write_constellation_csv(c: Constellation, path) -> None:
    """Dump points as 're,im' lines for external plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re,im\n")
        for p in c.points:
            fh.write(f"{p.real:.12g},{p.imag:.12g}\n")
