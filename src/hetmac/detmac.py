"""GF(2) model of the layered multiple access channel.

Each entry of a binary column vector stands for one power level ("bit
pipe"); the channel drops the levels below the noise floor by a down
shift.  Achievable TIN rates reduce to rank identities, so everything
here is small dense GF(2) linear algebra with bit-packed rows.

achieved_rates packs each component's rows straight from the witness
blocks: block row j of user k lands on word row depth - 1 of k's j-th
depth, at k's column offset.  The depths come from component_layout once
per (allocation, scheme) and are shared by every witness.  The ranks of
the packed words still prove that the users' windows are disjoint.
component_generators and build_generator build the same generators as
F2Matrix objects for the library and the test oracles.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InfeasibleAllocationError


@dataclass(frozen=True)
class F2Matrix:
    """Dense GF(2) matrix; bits[i] packs row i with bit j = column j."""

    rows: int
    cols: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.bits) != self.rows:
            raise ValueError("bits must hold one word per row")
        if self.bits and (min(self.bits) < 0 or max(self.bits) >> self.cols):
            raise ValueError("row word has bits beyond the column count")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "F2Matrix":
        if cols is None:
            cols = len(rows[0]) if rows else 0
        words = []
        for r in rows:
            if len(r) != cols:
                raise ValueError("ragged rows")
            words.append(sum((int(v) & 1) << j for j, v in enumerate(r)))
        return cls(len(rows), cols, tuple(words))

    def to_rows(self) -> list[list[int]]:
        return [[(w >> j) & 1 for j in range(self.cols)] for w in self.bits]

    def hstack(self, other: "F2Matrix") -> "F2Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        shift = self.cols
        merged = tuple(a | (b << shift) for a, b in zip(self.bits, other.bits))
        return F2Matrix(self.rows, self.cols + other.cols, merged)

    def matmul(self, other: "F2Matrix") -> "F2Matrix":
        """GF(2) product self @ other."""
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        out = []
        for w in self.bits:
            acc = 0
            j = 0
            while w:
                if w & 1:
                    acc ^= other.bits[j]
                w >>= 1
                j += 1
            out.append(acc)
        return F2Matrix(self.rows, other.cols, tuple(out))

    def shifted_down(self, s: int) -> "F2Matrix":
        """Rows moved down by s; the bottom s rows are truncated."""
        if not 0 <= s <= self.rows:
            raise ValueError("shift outside [0, rows]")
        return F2Matrix(self.rows, self.cols, (0,) * s + self.bits[: self.rows - s])


def _rank_words(words: Iterable[int]) -> int:
    """GF(2) rank of packed row words by an XOR basis.

    Each word is reduced by the basis elements in insertion order, taking
    w ^ b whenever that is smaller, i.e. whenever w holds b's leading bit.
    Every element was reduced the same way by all earlier ones, so it
    holds none of their leading bits: a reduced word holds no leading bit
    of the basis, the leading bits stay distinct, and a nonzero remainder
    is independent of the basis.
    """
    basis: list[int] = []
    for w in words:
        for b in basis:
            x = w ^ b
            if x < w:
                w = x
        if w:
            basis.append(w)
    return len(basis)


def rank_f2(m: F2Matrix) -> int:
    """Rank over GF(2) of the matrix's row words."""
    return _rank_words(m.bits)


def shift_matrix(q: int, s: int) -> F2Matrix:
    """q x q down-shift: left-multiplying moves a column vector down s levels."""
    if not 0 <= s <= q:
        raise ValueError("shift must satisfy 0 <= s <= q")
    return F2Matrix(q, q, tuple((1 << (i - s)) if i >= s else 0 for i in range(q)))


def random_full_rank(n: int, rng: random.Random) -> F2Matrix:
    """Uniform invertible n x n GF(2) matrix via rejection sampling."""
    if n == 0:
        return F2Matrix(0, 0, ())
    while True:
        m = F2Matrix(n, n, tuple([rng.getrandbits(n) for _ in range(n)]))
        if rank_f2(m) == n:
            return m


@dataclass(frozen=True)
class DetConfig:
    """Per-user bit levels n and the per-component bit allocation table m.

    Users are 0-indexed and sorted so that n is nonincreasing; m[k] has
    k+1 entries, one per component the user participates in.  Infeasible
    tables are allowed here: feasibility is a property to verify
    (verify_region), not a construction invariant.
    """

    n: tuple[int, ...]
    m: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if any(v < 0 for v in self.n):
            raise ValueError("bit levels must be nonnegative")
        if any(self.n[i] < self.n[i + 1] for i in range(len(self.n) - 1)):
            raise ValueError("bit levels must be sorted nonincreasing")
        if len(self.m) != len(self.n):
            raise ValueError("allocation table must have one row per user")
        for k, row in enumerate(self.m):
            if len(row) != k + 1:
                raise ValueError(f"allocation row {k} must have {k + 1} entries")
            if any(v < 0 for v in row):
                raise ValueError("allocation entries must be nonnegative")

    @property
    def users(self) -> int:
        return len(self.n)


@dataclass(frozen=True)
class ComponentFeasibility:
    """Binding tail-sum constraint of one component.

    load is sum_{i >= first_user} m[i][component] and capacity is
    n[first_user]; first_user is the tail with the least slack.
    """

    component: int
    first_user: int
    load: int
    capacity: int

    @property
    def slack(self) -> int:
        return self.capacity - self.load

    @property
    def feasible(self) -> bool:
        return self.slack >= 0


def verify_region(cfg: DetConfig) -> tuple[ComponentFeasibility, ...]:
    """Every tail-sum constraint of every component, reduced to the binding one.

    Within component l, users k >= l must satisfy sum_{i>=k} m[i][l] <= n[k];
    the component capacity check alone (k = l) is not sufficient for the
    layered constructions below to exist.  Each component reports its
    tail with the least slack, ties going to the smallest user.
    """
    out = []
    for l in range(cfg.users):
        tails = [
            ComponentFeasibility(l, k, sum(cfg.m[i][l] for i in range(k, cfg.users)), cfg.n[k])
            for k in range(l, cfg.users)
        ]
        out.append(min(tails, key=lambda c: c.slack))
    return tuple(out)


def allocation_feasible(cfg: DetConfig) -> bool:
    """Full region membership: every tail-sum constraint in every component."""
    return all(c.feasible for c in verify_region(cfg))


def component_layout(
    n: Sequence[int], m_col: Sequence[int], component: int, scheme_type: int
) -> dict[int, list[tuple[int, int]]]:
    """Depth windows (start, end] occupied by each user's bits in one component.

    Depths count down from the top of the component's level range
    (depth 0 = strongest level, n[component] = noise floor); user k's
    bits must all lie below its own ceiling depth n[component] - n[k].

    scheme_type 1 stacks the blocks bottom-anchored by suffix sums, so
    the occupied depths are the deepest ones.  scheme_type 2 anchors
    each user at its own ceiling: a block that fits the exclusive slot
    between the user's ceiling and the next user's sits flush at the
    slot's bottom edge; overflow spills into the shallowest depths below
    the slot that the weaker users have left free, each run of
    consecutive depths its own window.  Both rules keep all windows
    disjoint for every allocation meeting the tail-sum constraints.
    """
    K = len(n)
    nl = n[component]
    if len(m_col) != K - component:
        raise ValueError("m_col must cover users component..K-1")
    mm = {k: m_col[k - component] for k in range(component, K)}
    out: dict[int, list[tuple[int, int]]] = {}

    if scheme_type == 1:
        tail = 0
        for k in range(K - 1, component - 1, -1):
            m = mm[k]
            start = nl - tail - m
            if start < nl - n[k]:
                raise InfeasibleAllocationError(
                    f"component {component}: user {k} window rises above its level"
                )
            out[k] = [(start, nl - tail)] if m else []
            tail += m
        return out

    if scheme_type != 2:
        raise ValueError("scheme_type must be 1 or 2")
    taken: set[int] = set()
    for k in range(K - 1, component - 1, -1):
        m, ceiling = mm[k], nl - n[k]
        slot_end = min(ceiling + m, nl) if k == K - 1 else nl - n[k + 1]
        a = min(m, slot_end - ceiling)
        spill = [d for d in range(slot_end + 1, nl + 1) if d not in taken][: m - a]
        if len(spill) < m - a:
            raise InfeasibleAllocationError(
                f"component {component}: no room for user {k}'s {m} bits"
            )
        taken.update(range(slot_end - a + 1, slot_end + 1), spill)
        # each run of consecutive spill depths is its own window, never merged with the slot
        runs: list[tuple[int, int]] = []
        for d in spill:
            if runs and runs[-1][1] == d - 1:
                runs[-1] = (runs[-1][0], d)
            else:
                runs.append((d - 1, d))
        out[k] = ([(slot_end - a, slot_end)] if a > 0 else []) + runs
    return out


def _place_block(
    cfg: DetConfig,
    k: int,
    component: int,
    fragments: Sequence[tuple[int, int]],
    f_block: F2Matrix | None,
) -> F2Matrix:
    """User k's generator: f_block's rows on the depth windows fragments."""
    mk = cfg.m[k][component]
    f = F2Matrix.identity(mk) if f_block is None else f_block
    if (f.rows, f.cols) != (mk, mk):
        raise ValueError(f"F block must be {mk}x{mk}")
    shift = cfg.n[component] - cfg.n[k]
    rows = [0] * cfg.n[component]
    used = 0
    for start, end in fragments:
        for depth in range(start + 1, end + 1):
            rows[depth - 1 - shift] = f.bits[used]
            used += 1
    return F2Matrix(cfg.n[component], mk, tuple(rows))


def build_generator(
    cfg: DetConfig, k: int, component: int, scheme_type: int, f_block: F2Matrix | None = None
) -> F2Matrix:
    """Generator of user k in one component: the full-rank block f_block
    (default identity, the simplest witness) placed on the user's depth
    windows from component_layout, zero rows elsewhere.

    scheme_type 1 gives [zeros; F; zeros; zeros], the block directly
    above the weaker users' windows; scheme_type 2 fills the user's
    exclusive level slot and splits any overflow off below the weaker
    users' windows.
    """
    if not 0 <= component <= k < cfg.users:
        raise ValueError("need component <= user < K")
    m_col = [cfg.m[i][component] for i in range(component, cfg.users)]
    fragments = component_layout(cfg.n, m_col, component, scheme_type)[k]
    return _place_block(cfg, k, component, fragments, f_block)


def component_generators(
    cfg: DetConfig,
    component: int,
    scheme_type: int = 1,
    f_blocks: Mapping[int, F2Matrix] | None = None,
) -> dict[int, F2Matrix]:
    """Generators for every user active in the given component."""
    m_col = [cfg.m[i][component] for i in range(component, cfg.users)]
    layout = component_layout(cfg.n, m_col, component, scheme_type)
    return {
        k: _place_block(cfg, k, component, layout[k], f_blocks.get(k) if f_blocks else None)
        for k in range(component, cfg.users)
    }


def _tin_ranks(words: Sequence[int], masks: Mapping[int, int]) -> dict[int, int]:
    """rank(all) - rank(all but k) for every user k of one component.

    words are the component's packed rows: the rows of [S^(n_l - n_u) G_u]_u
    concatenated by columns in user order, user u's columns under
    masks[u].  "All but k" is every word with k's columns cleared, and
    rank(all) is computed once.  A user's rate equals its bit count only
    when its rows are independent of everyone else's, so the ranks prove
    that the users' windows are disjoint; they never copy the allocation.
    """
    rank_all = _rank_words(words)
    rates = {}
    for user, mask in masks.items():
        keep = ~mask
        # a user without columns leaves every word as it is: rate 0
        rates[user] = rank_all - _rank_words([w & keep for w in words]) if mask else 0
    return rates


def det_mutual_info(
    cfg: DetConfig, generators: Mapping[int, F2Matrix], k: int, component: int
) -> int:
    """TIN rate of user k in one component: rank(all) - rank(interferers).

    Each generator is shifted down by n_l - n_u and packed at its column
    offset, users in ascending order, before the one rank routine runs.
    """
    if k not in generators:
        raise ValueError(f"no generator for user {k}")
    nl = cfg.n[component]
    words = [0] * nl
    masks = {}
    offset = 0
    for user in sorted(generators):
        g = generators[user]
        if g.rows != nl:
            raise ValueError(f"generator for user {user} has {g.rows} rows, expected {nl}")
        shift = nl - cfg.n[user]
        if not 0 <= shift <= nl:
            raise ValueError("shift outside [0, rows]")
        for r, b in enumerate(g.bits[: nl - shift], shift):
            if b:
                words[r] |= b << offset
        masks[user] = ((1 << g.cols) - 1) << offset
        offset += g.cols
    return _tin_ranks(words, masks)[k]


@functools.lru_cache(maxsize=8)
def _depth_rows(cfg: DetConfig, scheme_type: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Packed word row of each bit: [l][k - l][j] = depth - 1 of user k's j-th depth.

    _place_block puts block row j at generator row depth - 1 - (n_l - n_k)
    and the TIN shift moves it down by n_l - n_k, so the two cancel.  The
    rows depend only on (allocation, scheme), so det-verify's witnesses
    of one scheme share them.
    """
    out = []
    for l in range(cfg.users):
        m_col = [cfg.m[i][l] for i in range(l, cfg.users)]
        layout = component_layout(cfg.n, m_col, l, scheme_type)
        out.append(tuple(
            tuple(d for start, end in layout[k] for d in range(start, end))
            for k in range(l, cfg.users)
        ))
    return tuple(out)


def achieved_rates(
    cfg: DetConfig,
    scheme_type: int = 1,
    f_blocks: Mapping[tuple[int, int], F2Matrix] | None = None,
) -> dict[tuple[int, int], int]:
    """TIN rate of every (user, component) pair under the chosen scheme.

    Block row j of user k (f_blocks[(k, l)], the identity 1 << j when
    absent) is packed at word row depth - 1 of k's j-th depth from
    _depth_rows, shifted to k's column offset; the ranks of those words
    are the rates.
    """
    rates = {}
    for l, rows in enumerate(_depth_rows(cfg, scheme_type)):
        words = [0] * cfg.n[l]
        masks = {}
        offset = 0
        for k, depths in enumerate(rows, l):
            mk = cfg.m[k][l]
            f = f_blocks.get((k, l)) if f_blocks else None
            if f is None:
                for j, r in enumerate(depths, offset):
                    words[r] |= 1 << j
            elif (f.rows, f.cols) != (mk, mk):
                raise ValueError(f"F block must be {mk}x{mk}")
            else:
                for r, b in zip(depths, f.bits):
                    words[r] |= b << offset
            masks[k] = ((1 << mk) - 1) << offset
            offset += mk
        for k, r in _tin_ranks(words, masks).items():
            rates[(k, l)] = r
    return rates


def achievability_holds(
    cfg: DetConfig,
    scheme_type: int = 1,
    f_blocks: Mapping[tuple[int, int], F2Matrix] | None = None,
) -> bool:
    """True when every pair attains exactly its allocated bit count."""
    rates = achieved_rates(cfg, scheme_type, f_blocks)
    return all(rates[(k, l)] == cfg.m[k][l] for (k, l) in rates)
