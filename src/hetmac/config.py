"""Channel scenario description shared by all modules.

Users are stored in canonical order (SNR descending), with the original
input positions recorded so reports can be written back in the caller's
ordering.  Complex channel gains are rotated to real magnitudes on
load; noise variance is fixed at 1, so SNR_k = P_k * h_k**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

_INT_SNAP = 1e-9  # tolerance for log2(SNR) landing on an integer
# the largest bit level whose layered energies 2.0**e stay finite floats
MAX_BIT_LEVEL = 1023


def bit_levels(snr: float) -> int:
    """Nonnegative ceiling of log2(SNR), snapping near-integer values, at
    most MAX_BIT_LEVEL."""
    if not 0 < snr < math.inf:
        raise ConfigError(f"SNR must be positive and finite, got {snr:g}")
    r = math.log2(snr)
    nearest = round(r)
    if abs(r - nearest) < _INT_SNAP:
        r = nearest
    level = max(0, math.ceil(r))
    if level > MAX_BIT_LEVEL:
        raise _past_the_level_cap(10.0 * math.log10(snr), level)
    return level


def _past_the_level_cap(snr_db: float, level: int) -> ConfigError:
    return ConfigError(
        f"SNR of {snr_db:.6g} dB needs {level:.6g} bit levels, "
        f"more than the {MAX_BIT_LEVEL} supported"
    )


def _past_float_range(snr_db: float) -> ConfigError:
    """The error for a finite SNR in dB whose linear value leaves float range:
    only a dB past MAX_BIT_LEVEL overflows, so that one is reported as
    bit_levels does."""
    if snr_db > 0:
        return _past_the_level_cap(snr_db, math.ceil(snr_db / 10.0 * math.log2(10.0)))
    return ConfigError(f"SNR of {snr_db:.6g} dB underflows a float")


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class UserSpec:
    """One uplink user as given in a scenario (pre-sorting)."""

    snr_db: float | None
    blocklength: int
    target_eps: float
    power: float | None = None
    gain: complex | float | None = None

    def resolve(self) -> tuple[float, float, float]:
        """Return (P, |h|, SNR) after defaulting and consistency checks."""
        if self.power is not None and self.gain is not None:
            p = float(self.power)
            h = abs(complex(self.gain))
            snr = p * h * h
            if snr in (0.0, math.inf) and 0 < p < math.inf and 0 < h < math.inf:
                raise _past_float_range(10.0 * math.log10(p) + 20.0 * math.log10(h))
            if self.snr_db is not None:
                given = db_to_linear(self.snr_db)
                if not math.isclose(given, snr, rel_tol=1e-9):
                    raise ConfigError(
                        f"snr_db={self.snr_db} conflicts with power*|gain|^2={snr:g}"
                    )
            return p, h, snr
        if self.power is not None or self.gain is not None:
            raise ConfigError("power and gain must be given together")
        if self.snr_db is None:
            raise ConfigError("user needs snr_db, or power and gain")
        snr = db_to_linear(self.snr_db)
        if snr in (0.0, math.inf) and math.isfinite(self.snr_db):
            raise _past_float_range(self.snr_db)
        return snr, 1.0, snr


@dataclass(frozen=True)
class ChannelConfig:
    """Scenario in canonical (SNR-descending) user order.

    order[i] is the position the i-th canonical user had in the input,
    so original-order reports use order as a permutation.
    """

    snr: tuple[float, ...]
    P: tuple[float, ...]
    h: tuple[float, ...]
    N: tuple[int, ...]
    eps: tuple[float, ...]
    n: tuple[int, ...]
    order: tuple[int, ...]

    def __post_init__(self):
        k = len(self.snr)
        for name in ("P", "h", "N", "eps", "n", "order"):
            if len(getattr(self, name)) != k:
                raise ConfigError(f"{name} must have one entry per user")
        for i, (eps, length) in enumerate(zip(self.eps, self.N)):
            where = f"users[{self.order[i]}]"  # the user's position in the input
            if not 0 < eps < 1:
                raise ConfigError(f"{where}.target_eps must lie in (0, 1), got {eps:g}")
            if length <= 0:
                raise ConfigError(f"{where}.blocklength must be positive, got {length}")
        for i in range(k - 1):
            # users of equal SNR sort by blocklength, so the first user has the higher SNR
            if self.N[i] > self.N[i + 1]:
                raise ConfigError(
                    f"users[{self.order[i]}] has a higher SNR than users[{self.order[i + 1]}] "
                    f"but a longer blocklength ({self.N[i]} > {self.N[i + 1]}); blocklengths "
                    "must be nondecreasing once users are sorted by SNR"
                )

    @classmethod
    def from_users(cls, users: list[UserSpec]) -> "ChannelConfig":
        if not users:
            raise ConfigError("need at least one user")
        resolved = []  # (P, |h|, SNR, bit level) per user, in input order
        for i, u in enumerate(users):
            try:
                p, h, snr = u.resolve()
                resolved.append((p, h, snr, bit_levels(snr)))
            except ConfigError as exc:
                raise ConfigError(f"users[{i}]: {exc}") from exc
        key = sorted(range(len(users)), key=lambda i: (-resolved[i][2], users[i].blocklength, i))
        return cls(
            snr=tuple(resolved[i][2] for i in key),
            P=tuple(resolved[i][0] for i in key),
            h=tuple(resolved[i][1] for i in key),
            N=tuple(users[i].blocklength for i in key),
            eps=tuple(users[i].target_eps for i in key),
            n=tuple(resolved[i][3] for i in key),
            order=tuple(key),
        )

    @property
    def users(self) -> int:
        return len(self.snr)

    def subblock_lengths(self, k: int) -> tuple[int, ...]:
        """Symbols per sub-block for user k: N_l - N_{l-1} with N_{-1} = 0."""
        prev = 0
        out = []
        for l in range(k + 1):
            out.append(self.N[l] - prev)
            prev = self.N[l]
        return tuple(out)

    def to_original(self, values: list) -> list:
        """Reorder canonical per-user values into the input user order."""
        out = [None] * self.users
        for canonical, original in enumerate(self.order):
            out[original] = values[canonical]
        return out
