"""End-to-end parameter selection: allocation enumeration and
channel-code parameter derivation.  BitAllocation owns both views of a
table, rows and columns; detmac._binding_tail decides every enumerated column."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice, product
from numbers import Integral, Real
from operator import attrgetter
from typing import Sequence

from . import detmac
from .config import ChannelConfig
from .errors import EnumerationTooLargeError

DEFAULT_ENUMERATION_CAP = 200_000


def _order(v) -> int:
    """An order as an int; a bool, a non-number, a non-finite number or a
    value int() would change is an error.  An int of any size is exact."""
    if type(v) is int:  # the common case, and never a bool: bool is a subclass
        return v
    exact = isinstance(v, Integral) or isinstance(v, Real) and math.isfinite(v) and int(v) == v
    if isinstance(v, bool) or not exact:
        raise ValueError(f"orders must be integers, got {v!r}")
    return int(v)


@dataclass(frozen=True)
class BitAllocation:
    """The one allocation-table type: modulation orders m[k][l] (bits) per
    user and sub-block, the layering used when translating to QAM, and
    columns[l], column l of the table (m[k][l] for k = l..K-1).  The table
    may be infeasible: detmac.verify_region checks it against the levels."""

    m: tuple[tuple[int, ...], ...]
    scheme_type: int = 1
    # derived from m, so neither compared nor shown
    columns: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = tuple([tuple([_order(v) for v in row]) for row in self.m])
        object.__setattr__(self, "m", m)
        if not m:
            raise ValueError("an allocation table needs at least one row")
        for k, row in enumerate(m):
            if len(row) != k + 1:
                raise ValueError(f"row {k} must have {k + 1} entries")
            if min(row) < 0:
                raise ValueError("orders must be nonnegative")
        if self.scheme_type not in (1, 2):
            raise ValueError("scheme_type must be 1 or 2")
        object.__setattr__(
            self, "columns", tuple([tuple([row[l] for row in m[l:]]) for l in range(len(m))])
        )

    @classmethod
    def _from_columns(cls, columns: tuple[tuple[int, ...], ...]):
        """The scheme-1 table whose column view is columns, taken as given:
        for enumerate_allocations, whose columns are valid by construction."""
        m = tuple([tuple([columns[l][k - l] for l in range(k + 1)]) for k in range(len(columns))])
        alloc = object.__new__(cls)
        alloc.__dict__.update(m=m, scheme_type=1, columns=columns)
        return alloc

    @property
    def users(self) -> int:
        return len(self.m)


def enumerate_allocations(cfg: ChannelConfig, even_only: bool = True) -> list[BitAllocation]:
    """Every allocation in the layered rate region, lexicographically ordered.

    The region is the product of per-component column lists, and
    detmac.feasible_columns asks detmac._binding_tail of every column;
    even_only restricts orders to the square-QAM convention.  More than
    DEFAULT_ENUMERATION_CAP allocations raise EnumerationTooLargeError.
    BitAllocation._from_columns builds each table without validating it
    again: its columns are valid by construction.
    """
    n = cfg.n
    step = 2 if even_only else 1
    cap = DEFAULT_ENUMERATION_CAP
    per_component: list[list[tuple[int, ...]]] = []
    total = 1
    # weakest (smallest) components first, each listed only as far as the
    # cap needs, so an oversized region stops after a few columns
    for l in reversed(range(len(n))):
        per_component.insert(0, list(islice(detmac.feasible_columns(n, l, step), cap // total + 1)))
        total *= len(per_component[0])
        if total > cap:
            raise EnumerationTooLargeError(f"more than {cap} allocations (the enumeration cap)")
    # row k of every table has k + 1 entries, so comparing tables row by row
    # orders them as their flat tuples do
    return sorted(map(BitAllocation._from_columns, product(*per_component)), key=attrgetter("m"))


@dataclass(frozen=True)
class UserCodeParams:
    info_bits: int
    codeword_bits: int

    @property
    def rate(self) -> float:
        return self.info_bits / self.codeword_bits if self.codeword_bits else 0.0

    @property
    def degenerate(self) -> bool:
        return self.codeword_bits == 0 or self.info_bits < 1


def select_code_params(
    cfg: ChannelConfig, alloc: BitAllocation, rates: Sequence[float]
) -> tuple[UserCodeParams, ...]:
    """Information and codeword lengths matching the achievable rates, one
    entry per user.

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
        entries.append(UserCodeParams(info_bits=info, codeword_bits=codeword))
    return tuple(entries)
