"""GF(2) model of the layered multiple access channel.

Each entry of a binary column vector stands for one power level ("bit
pipe"); the channel drops the levels below the noise floor by a down
shift.  Achievable TIN rates reduce to rank identities, so everything
here is small dense GF(2) linear algebra with bit-packed rows.

component_layout is the one home of the tail-sum rule and of bit
placement, and _depth_rows reads the word row (depth - 1) of every bit
off its layout, computed once per distinct component column and scheme.
achieved_rates packs each user's full-rank block straight into those
rows at its column offset, which is the shifted generator matrix
without building it; the ranks of the words still prove that the
windows are disjoint.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InfeasibleAllocationError


@dataclass(frozen=True)
class F2Matrix:
    """Dense GF(2) matrix, the type of a full-rank witness block; bits[i]
    packs row i with bit j = column j."""

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


def _column(cfg: DetConfig, l: int) -> tuple[int, ...]:
    """Component l's column of the table: m[k][l] for users k = l..K-1."""
    return tuple(cfg.m[k][l] for k in range(l, cfg.users))


def _binding_tail(n: Sequence[int], m_col: Sequence[int], l: int) -> tuple[int, int, int]:
    """(first_user, load, capacity) of component l's tail with the least slack,
    ties going to the smallest user; m_col covers users l..K-1."""
    load, best = 0, None
    for k in range(len(n) - 1, l - 1, -1):
        load += m_col[k - l]
        if best is None or n[k] - load <= best[2] - best[1]:
            best = (k, load, n[k])
    return best


def verify_region(cfg: DetConfig) -> tuple[ComponentFeasibility, ...]:
    """Every tail-sum constraint of every component, reduced to the binding one.

    Within component l, users k >= l must satisfy sum_{i>=k} m[i][l] <= n[k];
    the component capacity check alone (k = l) is not sufficient for the
    layered constructions below to exist.  Each component reports its
    tail with the least slack, ties going to the smallest user.
    """
    return tuple(
        ComponentFeasibility(l, *_binding_tail(cfg.n, _column(cfg, l), l))
        for l in range(cfg.users)
    )


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
    The binding tail-sum check up front is the only feasibility test:
    once every tail fits, the weaker users hold at most n[k] - m[k] of
    the n[k] depths below k's ceiling, so k's bits always find room.

    scheme_type 1 stacks the blocks bottom-anchored by suffix sums, so
    the occupied depths are the deepest ones.  scheme_type 2 anchors
    each user at its own ceiling: a block that fits the exclusive slot
    between the user's ceiling and the next user's sits flush at the
    slot's bottom edge; overflow spills into the shallowest depths below
    the slot that the weaker users have left free, each run of
    consecutive depths its own window.  Both keep the windows disjoint.
    """
    K = len(n)
    nl = n[component]
    if len(m_col) != K - component:
        raise ValueError("m_col must cover users component..K-1")
    if scheme_type not in (1, 2):
        raise ValueError("scheme_type must be 1 or 2")
    first, load, capacity = _binding_tail(n, m_col, component)
    if load > capacity:
        raise InfeasibleAllocationError(
            f"component {component + 1}: users {first + 1}.. load {load} exceeds level {capacity}"
        )
    out: dict[int, list[tuple[int, int]]] = {}
    if scheme_type == 1:
        tail = 0
        for k in range(K - 1, component - 1, -1):
            m = m_col[k - component]
            out[k] = [(nl - tail - m, nl - tail)] if m else []
            tail += m
        return out

    taken: set[int] = set()
    for k in range(K - 1, component - 1, -1):
        m, ceiling = m_col[k - component], nl - n[k]
        slot_end = min(ceiling + m, nl) if k == K - 1 else nl - n[k + 1]
        a = min(m, slot_end - ceiling)
        spill = [d for d in range(slot_end + 1, nl + 1) if d not in taken][: m - a]
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


@functools.lru_cache(maxsize=1024)
def _component_rows(
    n: tuple[int, ...], component: int, m_col: tuple[int, ...], scheme_type: int
) -> tuple[tuple[int, ...], ...]:
    """Word rows of users component..K-1 in one component, off its layout.

    A component's layout depends only on the levels, its column and the
    scheme, so tables that share a column share its rows.
    """
    layout = component_layout(n, m_col, component, scheme_type)
    return tuple(
        tuple(d for start, end in layout[k] for d in range(start, end))
        for k in range(component, len(n))
    )


def _depth_rows(cfg: DetConfig, scheme_type: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Word row of every bit: [l][k - l][j] = depth - 1 of user k's j-th depth in component l.

    A generator in user k's own frame would hold block row j at row
    depth - 1 - (n_l - n_k), and the channel's down shift by n_l - n_k
    moves it back to depth - 1, so the received rows are read off the
    layout directly, once per distinct (levels, component, column,
    scheme) while _component_rows' cache holds it.
    """
    return tuple(
        _component_rows(cfg.n, l, _column(cfg, l), scheme_type)
        for l in range(cfg.users)
    )


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
