"""End-to-end parameter selection: allocation enumeration and
channel-code parameter derivation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product
from numbers import Real
from typing import Iterator, Sequence

from .config import ChannelConfig
from .errors import EnumerationTooLargeError

DEFAULT_ENUMERATION_CAP = 200_000


def _order(v) -> int:
    """An order as an int; a bool, a non-number, a non-finite number or a
    value int() would change is an error."""
    if isinstance(v, bool) or not isinstance(v, Real) or not math.isfinite(v) or int(v) != v:
        raise ValueError(f"orders must be integers, got {v!r}")
    return int(v)


@dataclass(frozen=True)
class BitAllocation:
    """Modulation orders m[k][l] (bits) per user and sub-block, plus the
    layering used when translating to QAM."""

    m: tuple[tuple[int, ...], ...]
    scheme_type: int = 1

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(tuple(_order(v) for v in row) for row in self.m))
        for k, row in enumerate(self.m):
            if len(row) != k + 1:
                raise ValueError(f"row {k} must have {k + 1} entries")
            if any(v < 0 for v in row):
                raise ValueError("orders must be nonnegative")
        if self.scheme_type not in (1, 2):
            raise ValueError("scheme_type must be 1 or 2")

    @property
    def users(self) -> int:
        return len(self.m)

    def flat(self) -> tuple[int, ...]:
        return tuple(v for row in self.m for v in row)


def _component_tuples(
    n: Sequence[int], component: int, step: int
) -> Iterator[tuple[int, ...]]:
    """All (m_l, ..., m_{K-1}) meeting every tail-sum constraint of one component."""

    # build from the weakest user upward so each prefix already satisfies
    # its own tail constraint sum_{i>=k} m_i <= n_k
    def build(pos: int, acc: tuple[int, ...], tail: int) -> Iterator[tuple[int, ...]]:
        if pos < component:
            yield acc
            return
        cap = n[pos] - tail
        for value in range(0, cap + 1, step):
            yield from build(pos - 1, (value,) + acc, tail + value)

    yield from build(len(n) - 1, (), 0)


def enumerate_allocations(
    cfg: ChannelConfig,
    even_only: bool = True,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[BitAllocation]:
    """Every allocation in the layered rate region, lexicographically ordered.

    Components are independent, so the region is the product of the
    per-component tail-sum polytopes; even_only restricts orders to the
    square-QAM convention.
    """
    n = cfg.n
    K = len(n)
    step = 2 if even_only else 1
    per_component: list[list[tuple[int, ...]]] = []
    total = 1
    # weakest (smallest) components first, each listed only as far as the
    # cap needs, so an oversized region stops after a few tuples
    for l in reversed(range(K)):
        per_component.insert(0, list(islice(_component_tuples(n, l, step), cap // total + 1)))
        total *= len(per_component[0])
        if total > cap:
            raise EnumerationTooLargeError(f"more than {cap} allocations (the enumeration cap)")
    allocations = [
        BitAllocation(
            m=tuple(tuple(chosen[comp][k - comp] for comp in range(k + 1)) for k in range(K))
        )
        for chosen in product(*per_component)
    ]
    allocations.sort(key=lambda a: a.flat())
    return allocations


@dataclass(frozen=True)
class UserCodeParams:
    user: int
    info_bits: int
    codeword_bits: int

    @property
    def rate(self) -> float:
        return self.info_bits / self.codeword_bits if self.codeword_bits else 0.0

    @property
    def degenerate(self) -> bool:
        return self.codeword_bits == 0 or self.info_bits < 1


@dataclass(frozen=True)
class CodeParams:
    entries: tuple[UserCodeParams, ...]


def select_code_params(
    cfg: ChannelConfig, alloc: BitAllocation, rates: Sequence[float]
) -> CodeParams:
    """Information and codeword lengths matching the achievable rates.

    Codeword length counts modulated bits over the sub-blocks; the
    information length floors R_k * N_k so the error-probability bound
    stays valid.
    """
    if len(rates) != cfg.users:
        raise ValueError("need one rate per user")
    entries = []
    for k in range(cfg.users):
        lengths = cfg.subblock_lengths(k)
        codeword = sum(nl * alloc.m[k][l] for l, nl in enumerate(lengths))
        info = max(0, math.floor(rates[k] * cfg.N[k]))
        info = min(info, codeword)
        entries.append(UserCodeParams(user=k, info_bits=info, codeword_bits=codeword))
    return CodeParams(entries=tuple(entries))
