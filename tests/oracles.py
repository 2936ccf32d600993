"""Independent reference computations used to check the library.

These deliberately avoid the code paths they validate: the mutual
information oracle integrates with Gauss-Hermite quadrature instead of
Monte Carlo, the density oracle sums over the 2-D alphabets instead of
the library's separable I/Q rails, the one-rail density reference lays
its temporary out sample-major and reduces with numpy sums instead of
the library's grid-major folds, the rank oracle enumerates row subsets
(and decides which draws the full-rank witness sampler keeps), the
scheme-2 layout oracle walks one depth at a time, the deterministic
TIN-rate oracle builds 0/1 generator rows from its own layouts, then
shifts and concatenates them instead of packing one set of row words,
the lattice oracle enumerates allocation tables by brute force, the
distance oracle compares every pair of points, and the constellation
oracles sort and compare 2-D complex points instead of the library's
1-D rails.  The 2-D alphabets come from transmit_points_2d, which lays
out each part's square QAM on its own meshgrid and sums the parts as
complex points, never through the library's rails.  This module imports
nothing from hetmac but hetmac.errors, and reads a scheme only through
its parts.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.polynomial.hermite import hermgauss

from hetmac.errors import InfeasibleAllocationError


def density_moments_quadrature(points: np.ndarray, nodes: int = 64):
    """(mean, variance) of the information density.

    The channel is y = s + z with z ~ CN(0, 1) and s uniform over the
    received points.  Expectation over z uses a tensor Gauss-Hermite
    rule matched to the density exp(-|z|^2) / pi.
    """
    pts = np.asarray(points, dtype=np.complex128)
    m_count = pts.size
    t, w = hermgauss(nodes)
    z = (t[:, None] + 1j * t[None, :]).ravel()
    wz = (w[:, None] * w[None, :]).ravel() / math.pi

    density_rows = []
    for s in pts:
        y = s + z
        d2 = np.abs(y[:, None] - pts[None, :]) ** 2
        shift = d2.min(axis=1, keepdims=True)
        num = np.exp(-(np.abs(y - s) ** 2 - shift[:, 0]))
        den = np.exp(-(d2 - shift)).sum(axis=1) / m_count
        density_rows.append(np.log2(num / den))
    dens = np.stack(density_rows)  # [symbol, node]
    mean = float((dens * wz[None, :]).sum() / m_count)
    var = float((((dens - mean) ** 2) * wz[None, :]).sum() / m_count)
    return mean, var


def mi_quadrature(points: np.ndarray, nodes: int = 64) -> float:
    return density_moments_quadrature(points, nodes)[0]


def tin_mi_quadrature(own: np.ndarray, interferers: np.ndarray, nodes: int = 48) -> float:
    """Mutual information of the TIN density by exhaustive-state quadrature.

    own holds the user's received alphabet, interferers the received
    interference multiset; the channel adds z ~ CN(0, 1).  Every
    (symbol, interference) state is enumerated and z is integrated with
    a tensor Gauss-Hermite rule.
    """
    own = np.asarray(own, dtype=np.complex128)
    w = np.asarray(interferers, dtype=np.complex128)
    t, wt = hermgauss(nodes)
    z = (t[:, None] + 1j * t[None, :]).ravel()
    wz = (wt[:, None] * wt[None, :]).ravel() / math.pi
    grid = own[:, None] + w[None, :]
    total = 0.0
    for a in range(own.size):
        for b in range(w.size):
            y = grid[a, b] + z
            d2 = np.abs(y[:, None, None] - grid[None, :, :]) ** 2
            shift = d2.min(axis=(1, 2), keepdims=True)
            ex = np.exp(-(d2 - shift))
            num = ex[:, a, :].sum(axis=1)
            den = ex.sum(axis=(1, 2)) / own.size
            total += float((np.log2(num / den) * wz).sum())
    return total / grid.size


def transmit_points_2d(sig, k: int, l: int) -> np.ndarray:
    """User k's 2-D transmit alphabet in sub-block l, with multiplicity.

    Each part (a square QAM of unit spacing, scaled) is laid out on a
    meshgrid, the real level fastest, and the parts are summed as complex
    points, the first part slowest-varying: the 2-D Minkowski order.
    """
    acc = np.zeros(1, dtype=np.complex128)
    for part in sig.parts[(k, l)]:
        side = 1 << (part.order_bits // 2)
        levels = (np.arange(side) - (side - 1) / 2) * part.scale
        re, im = np.meshgrid(levels, levels)
        acc = (acc[:, None] + (re + 1j * im).ravel()[None, :]).ravel()
    return acc


def receive_alphabets_2d(cfg, sig, k: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Received 2-D own alphabet h_k*A_k and interferer sum multiset, Minkowski order.

    Built point by point from transmit_points_2d, without the I/Q rails
    the library's density kernel works on.
    """
    own = transmit_points_2d(sig, k, l) * cfg.h[k]
    w = np.zeros(1, dtype=np.complex128)
    for i in range(l, cfg.users):
        if i != k:
            w = (w[:, None] + (transmit_points_2d(sig, i, l) * cfg.h[i])[None, :]).ravel()
    return own, w


def receive_points_2d(cfg, sig, l: int) -> np.ndarray:
    """Component l's 2-D received alphabet: every user's, h-scaled and summed."""
    acc = np.zeros(1, dtype=np.complex128)
    for k in range(l, cfg.users):
        acc = (acc[:, None] + (transmit_points_2d(sig, k, l) * cfg.h[k])[None, :]).ravel()
    return acc


def density_bruteforce_2d(
    y: np.ndarray, x_idx: np.ndarray, own: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """TIN density in bits by the exhaustive sum over every 2-D (own, interferer) pair.

    y holds complex received samples and x_idx the sent indices into own.
    """
    grid = own[:, None] + w[None, :]
    diff = y[:, None, None] - grid[None, :, :]
    d2 = diff.real**2 + diff.imag**2
    ex = np.exp(-(d2 - d2.min(axis=(1, 2), keepdims=True)))
    num = ex[np.arange(y.size), x_idx, :].sum(axis=1)
    den = ex.sum(axis=(1, 2)) / own.size
    return np.log2(num / den)


def density_1d_reference(
    y: np.ndarray, x_idx: np.ndarray, own: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """One-rail TIN density in bits, sample-major and without an exp floor.

    The temporary is laid out (sample, own point, interferer point), the
    exponents go to exp unfloored, and the sums are numpy reductions over
    the two grid axes: another layout and summation order than the
    library's grid-major folds.  A sample whose sent row underflows to 0
    gets -inf.
    """
    grid = own[:, None] + w[None, :]
    ex = y[:, None, None] - grid[None, :, :]
    ex *= ex
    ex -= ex.min(axis=(1, 2), keepdims=True)
    np.exp(np.negative(ex, out=ex), out=ex)
    num = ex[np.arange(y.size), x_idx, :].sum(axis=1)
    den = ex.sum(axis=(1, 2)) / own.size
    with np.errstate(divide="ignore"):
        return np.log2(num / den)


def philox_chunk(seed: int, chunk: int, count: int):
    """(u_x, u_w, noise) of one Monte Carlo chunk, in four calls.

    The stream is Philox keyed on (seed, chunk): uniforms for the sent
    point and the interferer point, then unit-variance complex noise.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))
    u_x = rng.random(count)
    u_w = rng.random(count)
    noise = rng.standard_normal(count) * math.sqrt(0.5) + 1j * (
        rng.standard_normal(count) * math.sqrt(0.5)
    )
    return u_x, u_w, noise


def philox_draw_2d(seed: int, chunk: int, count: int, own: np.ndarray, w: np.ndarray):
    """(y, sent index) of one Monte Carlo chunk drawn on the 2-D alphabets."""
    u_x, u_w, noise = philox_chunk(seed, chunk, count)
    x_idx = np.minimum((u_x * own.size).astype(np.int64), own.size - 1)
    w_idx = np.minimum((u_w * w.size).astype(np.int64), w.size - 1)
    return own[x_idx] + w[w_idx] + noise, x_idx


def rank_by_subsets(rows: list[list[int]]) -> int:
    """GF(2) rank as log2 of the row-span size, by enumerating subsets."""
    words = [sum(b << j for j, b in enumerate(r)) for r in rows]
    span = set()
    for mask in range(1 << len(words)):
        acc = 0
        for i, wrd in enumerate(words):
            if (mask >> i) & 1:
                acc ^= wrd
        span.add(acc)
    return int(math.log2(len(span)))


def full_rank_words(n: int, rng) -> tuple[int, ...]:
    """Row words of a random invertible n x n GF(2) matrix: n words of
    getrandbits(n), drawn again until rank_by_subsets reports rank n."""
    while True:
        words = tuple(rng.getrandbits(n) for _ in range(n))
        if rank_by_subsets([[(w >> j) & 1 for j in range(n)] for w in words]) == n:
            return words


def generator_rows(n, m, component: int, scheme_type: int, blocks=None) -> dict:
    """0/1 generator rows of every user in one component, in the generator frame.

    m is the full allocation table and blocks maps user k to its m_k x m_k
    0/1 block (identity when absent).  Block row j of user k lands on
    row d - 1 - (n[component] - n[k]) of an n[component]-row matrix, d
    being k's j-th depth: scheme 1 stacks the users bottom-anchored by
    suffix sums, weakest deepest; scheme 2 takes the depths of
    component_layout_depthwise.  Callers pass feasible tables.
    """
    nl = n[component]
    users = range(component, len(n))
    m_col = [m[k][component] for k in users]
    if scheme_type == 1:
        depths, tail = {}, 0
        for k in reversed(users):
            mk = m[k][component]
            depths[k] = list(range(nl - tail - mk + 1, nl - tail + 1))
            tail += mk
    else:
        layout = component_layout_depthwise(n, m_col, component)
        depths = {k: [d for a, b in layout[k] for d in range(a + 1, b + 1)] for k in users}
    out = {}
    for k in users:
        mk = m[k][component]
        block = (blocks or {}).get(k) or [[int(i == j) for j in range(mk)] for i in range(mk)]
        rows = [[0] * mk for _ in range(nl)]
        for d, row in zip(depths[k], block):
            rows[d - 1 - (nl - n[k])] = list(row)
        out[k] = rows
    return out


def det_mutual_info_concat(n, generators: dict, k: int, component: int) -> int:
    """TIN rate of user k in one component: rank(all) - rank(interferers).

    Each generator (0/1 rows, n[component] of them) is shifted down by
    n[component] - n[user] as its own row list, the shifted lists are
    concatenated column-wise in user order, once with and once without
    user k, and both ranks are taken by subset enumeration.
    """
    nl = n[component]
    shifted = {}
    for user, rows in generators.items():
        s = nl - n[user]
        shifted[user] = [[0] * len(rows[0]) for _ in range(s)] + rows[: nl - s]

    def concat_rank(users) -> int:
        chosen = [shifted[u] for u in sorted(users)]
        return rank_by_subsets([sum((rows[i] for rows in chosen), []) for i in range(nl)])

    return concat_rank(shifted) - concat_rank(u for u in shifted if u != k)


def component_layout_depthwise(n, m_col, component: int) -> dict:
    """Scheme-2 depth windows of one component, walking one depth at a time.

    The reference for detmac.component_layout(..., scheme_type=2): each
    user, weakest first, fills its exclusive slot flush at the bottom,
    then marks the shallowest free depths below the slot one by one,
    closing a window whenever a taken depth interrupts the run.  A user
    left without room raises InfeasibleAllocationError naming the
    binding tail, found by summing every tail afresh.
    """
    K = len(n)
    nl = n[component]
    taken = [False] * (nl + 1)  # taken[d] marks depth d in 1..nl
    out = {}
    for k in range(K - 1, component - 1, -1):
        m = m_col[k - component]
        if m == 0:
            out[k] = []
            continue
        ceiling = nl - n[k]
        fragments = []
        if k == K - 1:
            slot_end = min(ceiling + m, nl)
            a = slot_end - ceiling
        else:
            slot_end = nl - n[k + 1]
            a = min(m, slot_end - ceiling)
        if a > 0:
            for d in range(slot_end - a + 1, slot_end + 1):
                taken[d] = True
            fragments.append((slot_end - a, slot_end))
        rest = m - a
        run_start = None
        d = slot_end + 1
        while rest > 0 and d <= nl:
            if not taken[d]:
                taken[d] = True
                if run_start is None:
                    run_start = d - 1
                rest -= 1
                if rest == 0:
                    fragments.append((run_start, d))
            elif run_start is not None:
                fragments.append((run_start, d - 1))
                run_start = None
            d += 1
        if rest > 0:
            raise InfeasibleAllocationError(_binding_tail_text(n, m_col, component))
        out[k] = sorted(fragments)
    return out


def _binding_tail_text(n, m_col, component: int) -> str:
    """The infeasibility message naming the tail with the least slack.

    Sums every tail of the column on its own and takes the smallest
    (slack, user) pair, so ties go to the smallest user.
    """
    loads = {k: sum(m_col[k - component:]) for k in range(component, len(n))}
    _, k = min((n[k] - load, k) for k, load in loads.items())
    return f"component {component + 1}: users {k + 1}.. load {loads[k]} exceeds level {n[k]}"


def enumerate_tables_brute(n: tuple[int, ...], even_only: bool) -> set:
    """All allocation tables meeting every tail-sum constraint, by product scan."""
    K = len(n)
    step = 2 if even_only else 1
    ranges = []
    coords = [(k, l) for k in range(K) for l in range(k + 1)]
    for k, l in coords:
        ranges.append(range(0, n[l] + 1, step))
    tables = set()
    for combo in itertools.product(*ranges):
        m = [[0] * (k + 1) for k in range(K)]
        for (k, l), v in zip(coords, combo):
            m[k][l] = v
        ok = True
        for l in range(K):
            for k in range(l, K):
                if sum(m[i][l] for i in range(k, K)) > n[k]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            tables.add(tuple(tuple(r) for r in m))
    return tables


def min_distance_bruteforce(points) -> float:
    """Smallest |p - q| over every pair of positions; 0 when a point repeats."""
    pts = np.asarray(points, dtype=np.complex128)
    best = math.inf
    for i in range(pts.size - 1):
        best = min(best, float(np.abs(pts[i + 1:] - pts[i]).min()))
    return best


def constellation_points_2d(points) -> np.ndarray:
    """Distinct complex points, sorted by real part, then imaginary part."""
    return np.unique(np.asarray(points, dtype=np.complex128))


def schemes_identical_2d(a, b, rtol: float = 1e-9) -> bool:
    """Same alphabets everywhere: sorted 2-D transmit points within rtol of
    the largest modulus (at least 1), point for point."""
    if set(a.parts) != set(b.parts):
        return False
    for key in a.parts:
        pa = np.sort_complex(transmit_points_2d(a, *key))
        pb = np.sort_complex(transmit_points_2d(b, *key))
        if pa.size != pb.size:
            return False
        scale = max(1.0, float(np.abs(pa).max()))
        if not np.allclose(pa, pb, rtol=0.0, atol=rtol * scale):
            return False
    return True


def q_bisection(p: float) -> float:
    """Invert the Gaussian tail by bisection on erfc, to ~1e-12."""
    from scipy.special import erfc

    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * erfc(mid / math.sqrt(2.0)) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
