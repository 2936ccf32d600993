"""GF(2) model of the layered multiple access channel.

Each entry of a binary column vector stands for one power level ("bit
pipe"); the channel drops the levels below the noise floor by a down
shift.  Achievable TIN rates reduce to rank identities, so everything
here is small dense GF(2) linear algebra with bit-packed rows.

_binding_tail is the one home of the tail-sum rule and of its checks:
every entry point passes a table's columns through it, and it decides
every column feasible_columns lists for enumeration.  component_layout
places a column's bits, and _component_rows reads the word row
(depth - 1) of every bit off it, once per distinct component column and
scheme.  achieved_rates packs each user's full-rank block, m row words
with bit j of word i = entry (i, j), into those rows at its column offset,
the shifted generator matrix without building it, and _component_ranks
turns the words into rates by rank_f2, the one rank routine, for the
identity witness and random witnesses alike; the ranks prove the windows
disjoint.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .errors import InfeasibleAllocationError

if TYPE_CHECKING:  # annotations only, so pipeline may import this module
    from .pipeline import BitAllocation


def rank_f2(words: Iterable[int]) -> int:
    """GF(2) rank of packed row words by an XOR basis.

    Each word is reduced by the basis elements in insertion order, taking
    w ^ b whenever that is smaller, i.e. whenever w holds b's leading bit.
    Every element was reduced the same way by all earlier ones, so it
    holds none of their leading bits: a reduced word holds no leading bit
    of the basis, the leading bits stay distinct, and a nonzero remainder
    is independent of the basis.  A negative word has no row to stand for.
    """
    basis: list[int] = []
    for w in words:
        if w < 0:
            raise ValueError(f"row words must be nonnegative, got {w}")
        for b in basis:
            x = w ^ b
            if x < w:
                w = x
        if w:
            basis.append(w)
    return len(basis)


def random_full_rank(n: int, rng: random.Random) -> tuple[int, ...]:
    """Uniform invertible n x n GF(2) matrix, as n row words, by rejection sampling."""
    while True:
        words = tuple([rng.getrandbits(n) for _ in range(n)])
        if rank_f2(words) == n:
            return words


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


def _binding_tail(n: Sequence[int], m_col: Sequence[int], l: int) -> tuple[int, int, int]:
    """(first_user, load, capacity) of component l's tail with the least slack,
    ties going to the smallest user.  n must be nonnegative and nonincreasing
    and m_col nonnegative and cover users l..K-1, so a table of other than
    len(n) rows fails."""
    if list(n) != sorted(n, reverse=True) or n and n[-1] < 0:
        raise ValueError(f"bit levels must be nonnegative and nonincreasing, got {tuple(n)}")
    if len(m_col) != len(n) - l:
        raise ValueError(f"column {l + 1} must cover users {l + 1}..{len(n)}")
    if min(m_col, default=0) < 0:
        raise ValueError(f"column {l + 1} must hold nonnegative orders, got {tuple(m_col)}")
    load, best = 0, None
    for k in range(len(n) - 1, l - 1, -1):
        load += m_col[k - l]
        if best is None or n[k] - load <= best[2] - best[1]:
            best = (k, load, n[k])
    return best


def feasible_columns(n: Sequence[int], l: int, step: int) -> Iterator[tuple[int, ...]]:
    """Every column of component l in orders of step that _binding_tail
    accepts, each once, lazily.  Each extends a column of component l + 1,
    whose tails already fit, by user l's order: only the tail at l can fail,
    and once a value fails it, every larger one does too."""
    if step < 1:  # count(0, 0) would yield the order 0 forever, and it always fits
        raise ValueError(f"step must be at least 1, got {step}")
    if l == len(n):
        yield ()
        return
    for col in feasible_columns(n, l + 1, step):
        for value in count(0, step):
            _, load, capacity = _binding_tail(n, (value,) + col, l)
            if load > capacity:
                break
            yield (value,) + col


def verify_region(n: tuple[int, ...], alloc: BitAllocation) -> tuple[ComponentFeasibility, ...]:
    """Every tail-sum constraint of every component, reduced to the binding one.

    Within component l, users k >= l must satisfy sum_{i>=k} m[i][l] <= n[k];
    the component capacity check alone (k = l) is not sufficient for the
    layered constructions below to exist.  Each component reports its
    tail with the least slack, ties going to the smallest user.
    """
    return tuple([
        ComponentFeasibility(l, *_binding_tail(n, m_col, l))
        for l, m_col in enumerate(alloc.columns)
    ])


def allocation_feasible(n: tuple[int, ...], alloc: BitAllocation) -> bool:
    """Full region membership: every tail-sum constraint in every component."""
    return all(c.feasible for c in verify_region(n, alloc))


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
    if scheme_type not in (1, 2):
        raise ValueError("scheme_type must be 1 or 2")
    first, load, capacity = _binding_tail(n, m_col, component)
    K = len(n)
    nl = n[component]
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


def _component_ranks(
    nl: int, rows: tuple[tuple[int, ...], ...], blocks: Sequence[Sequence[int] | None] = ()
) -> tuple[int, ...]:
    """TIN rates of users l..K-1 in one component, in user order.

    rows[i] holds the word rows of the i-th user's bits (_component_rows).
    Row word j of that user's block (blocks[i], exactly mk words below
    2**mk, the identity 1 << j when absent or None) is packed at word row
    rows[i][j], shifted to the user's column offset.
    """
    words = [0] * nl
    masks = []
    offset = 0
    for i, depths in enumerate(rows):
        mk = len(depths)
        f = blocks[i] if blocks else None
        if f is None:
            for j, r in enumerate(depths, offset):
                words[r] |= 1 << j
        elif len(f) != mk or not all(0 <= b < 1 << mk for b in f):
            raise ValueError(f"F block must be {mk}x{mk}: {mk} row words below {1 << mk}")
        else:
            for r, b in zip(depths, f):
                words[r] |= b << offset
        masks.append(((1 << mk) - 1) << offset)
        offset += mk
    # rate of k = rank(all) - rank(all but k's columns): a user's rate equals its
    # bit count only when its rows are independent of everyone else's, so the
    # ranks prove that the windows are disjoint and never copy the allocation
    rank_all = rank_f2(words)
    # a user without columns leaves every word as it is: rate 0
    return tuple([
        rank_all - rank_f2([w & ~mask for w in words]) if mask else 0 for mask in masks
    ])


@functools.lru_cache(maxsize=1024)
def _component_rows(
    n: tuple[int, ...], component: int, m_col: tuple[int, ...], scheme_type: int
) -> tuple[tuple[int, ...], ...]:
    """Word rows [k - component][j] = depth - 1 of user k's j-th depth, for
    users component..K-1, read off the component's layout: a generator in
    k's own frame would hold block row j at depth - 1 - (n_l - n_k), and
    the channel's down shift by n_l - n_k moves it back.  The layout
    depends only on the levels, the column and the scheme, so tables that
    share a column share its rows while the cache holds them.
    """
    layout = component_layout(n, m_col, component, scheme_type)
    return tuple(
        tuple(d for start, end in layout[k] for d in range(start, end))
        for k in range(component, len(n))
    )


def achieved_rates(
    n: tuple[int, ...],
    alloc: BitAllocation,
    scheme_type: int,
    f_blocks: Mapping[tuple[int, int], Sequence[int]] | None = None,
) -> dict[tuple[int, int], int]:
    """TIN rate of every (user, component) pair under scheme_type, given
    apart from alloc.scheme_type because det-verify checks both layerings.

    Component l's rates are the ranks of its rows (_component_rows) with
    user k's block f_blocks[(k, l)], its m[k][l] row words, packed in, the
    identity when absent (_component_ranks).
    """
    rates = {}
    for l, column in enumerate(alloc.columns):
        rows = _component_rows(n, l, column, scheme_type)
        blocks = [f_blocks.get((k, l)) for k in range(l, len(n))] if f_blocks else ()
        for k, r in enumerate(_component_ranks(n[l], rows, blocks), l):
            rates[(k, l)] = r
    return rates
