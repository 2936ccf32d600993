"""Exception types shared across the package.

The CLI maps these onto exit codes, so library code should raise the
most specific class that applies rather than bare ValueError.
"""


class ConfigError(ValueError):
    """Scenario or channel configuration is malformed or inconsistent."""


class InfeasibleAllocationError(ValueError):
    """Bit allocation violates the per-component rate-region constraints."""


class UnsupportedOrderError(ValueError):
    """Modulation order outside the supported (even, square-QAM) set."""


class ConstellationTooLargeError(RuntimeError):
    """A superimposed point set would exceed the configured size cap."""


class SamplesTooLargeError(RuntimeError):
    """The Monte Carlo arrays of a sample count cannot be allocated."""


class EnumerationTooLargeError(RuntimeError):
    """Allocation enumeration would exceed the configured cap."""
