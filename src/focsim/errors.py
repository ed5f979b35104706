"""Exception taxonomy.

Numeric-domain failures (a fringe null at a simulated current, an
overflowing or underflowing model value, a settled span of under two
samples) are kept distinct from configuration mistakes so the CLI can map
them to different exit codes: ConfigError exits 2, NumericDomainError 3.
"""

from __future__ import annotations


class FocsimError(Exception):
    """Base class for every library-raised error."""


class ConfigError(FocsimError):
    """Bad configuration input. Carries the offending key path when known."""

    def __init__(self, message: str, key_path: str | None = None):
        self.key_path = key_path
        super().__init__(f"{key_path}: {message}" if key_path else message)


class NumericDomainError(FocsimError):
    """A parameter landed where the model's formulas are undefined."""
