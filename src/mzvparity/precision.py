"""Working-precision policy and the (value, error-bound) result type."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from mpmath import mp

__all__ = ["Approx", "PrecisionContext"]


class Approx(NamedTuple):
    """A numeric value together with an estimated absolute error bound."""

    value: object
    bound: object


@dataclass(frozen=True)
class PrecisionContext:
    """Precision and truncation policy shared by every numeric evaluator.

    digits            target significant decimal digits for returned values
    guard_digits      extra working digits absorbing roundoff/cancellation
    hurwitz_cutoff    index where nested Hurwitz sums switch to tail expansions
    em_terms          Bernoulli correction terms in tail expansions
    expansion_order   truncation order (powers of 1/(z+n)) of tail expansions
    taylor_slack      extra digits requested from the Taylor-coefficient route
    multitangent_cutoff  symmetric cutoff for direct multitangent sums
    """

    digits: int = 30
    guard_digits: int = 15
    hurwitz_cutoff: int = 900
    em_terms: int = 12
    expansion_order: int = 28
    taylor_slack: int = 10
    multitangent_cutoff: int = 100_000

    def __post_init__(self):
        if self.digits < 10:
            raise ValueError("digits must be >= 10")
        if self.guard_digits < 10:
            raise ValueError("guard_digits must be >= 10")
        if self.hurwitz_cutoff < 50:
            raise ValueError("hurwitz_cutoff must be >= 50")

    @property
    def working_dps(self) -> int:
        return self.digits + self.guard_digits

    def residual_bound(self):
        """Default residual tolerance 10^-(digits - 5) for identity checks."""
        with mp.workdps(self.working_dps):
            return mp.mpf(10) ** (-(self.digits - 5))

    def taylor_cutoff(self, z_abs: float) -> int:
        """Default Taylor truncation order for a point of modulus ``z_abs``."""
        z_abs = float(z_abs)
        if z_abs <= 0:
            return 0
        if z_abs > 0.5:
            raise ValueError("Taylor evaluation requires |z| <= 1/2")
        return int(math.ceil((self.digits + self.taylor_slack) / math.log10(1.0 / z_abs)))
