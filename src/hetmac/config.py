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


def bit_levels(snr: float) -> int:
    """Nonnegative ceiling of log2(SNR), snapping near-integer values."""
    if not 0 < snr < math.inf:
        raise ConfigError(f"SNR must be positive and finite, got {snr:g}")
    r = math.log2(snr)
    nearest = round(r)
    if abs(r - nearest) < _INT_SNAP:
        r = nearest
    return max(0, math.ceil(r))


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
        if any(e <= 0 or e >= 1 for e in self.eps):
            raise ConfigError("target error probabilities must lie in (0, 1)")
        if any(nn <= 0 for nn in self.N):
            raise ConfigError("blocklengths must be positive")
        if any(self.N[i] > self.N[i + 1] for i in range(k - 1)):
            raise ConfigError(
                "blocklengths must be nondecreasing once users are sorted by SNR"
            )

    @classmethod
    def from_users(cls, users: list[UserSpec]) -> "ChannelConfig":
        if not users:
            raise ConfigError("need at least one user")
        resolved = [u.resolve() for u in users]
        key = sorted(
            range(len(users)),
            key=lambda i: (-resolved[i][2], users[i].blocklength, i),
        )
        snr = tuple(resolved[i][2] for i in key)
        return cls(
            snr=snr,
            P=tuple(resolved[i][0] for i in key),
            h=tuple(resolved[i][1] for i in key),
            N=tuple(users[i].blocklength for i in key),
            eps=tuple(users[i].target_eps for i in key),
            n=tuple(bit_levels(s) for s in snr),
            order=tuple(key),
        )

    @property
    def users(self) -> int:
        return len(self.snr)

    @property
    def snr_db(self) -> tuple[float, ...]:
        return tuple(10.0 * math.log10(s) for s in self.snr)

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
