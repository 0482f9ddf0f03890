"""Shared record type for Monte Carlo estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CoverageEstimate", "binomial_std_error"]


def binomial_std_error(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


@dataclass(frozen=True)
class CoverageEstimate:
    """An estimated probability with its standard error."""

    value: float
    std_error: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"estimate must lie in [0, 1], got {self.value}")
        if self.std_error < 0.0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")
