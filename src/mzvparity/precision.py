"""Working-precision policy and the (value, error-bound) result type."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from mpmath import mp

from .errors import DomainError
from .harmonic import _is_int

__all__ = ["Approx", "PrecisionContext"]


class Approx(NamedTuple):
    """A numeric value together with an estimated absolute error bound."""

    value: object
    bound: object


_GUARD_DIGITS = 15  # extra working digits that absorb roundoff and cancellation


@dataclass(frozen=True)
class PrecisionContext:
    """Precision policy shared by every numeric evaluator.

    ``digits`` is the target of significant decimal digits for returned
    values, an int >= 10.  Every evaluator works at ``working_dps``, which
    is ``digits`` plus the :data:`_GUARD_DIGITS` guard digits.

    Truncation parameters are fixed constants of the evaluator that uses
    them (the Hurwitz cutoff and tail expansion in ``hurwitz``, the direct
    multitangent cutoff in ``multitangent``).
    """

    digits: int = 30

    def __post_init__(self):
        if not _is_int(self.digits, 10):
            raise ValueError(f"digits must be an int >= 10, got {self.digits!r}")
        with mp.workdps(self.working_dps):
            object.__setattr__(self, "_residual_bound", mp.mpf(10) ** (-(self.digits - 5)))

    @property
    def working_dps(self) -> int:
        return self.digits + _GUARD_DIGITS

    def residual_bound(self):
        """Default residual tolerance 10^-(digits - 5) for identity checks,
        rounded once, at the working precision, when the context is made."""
        return self._residual_bound


def _requested_dps(ctx: PrecisionContext, dps) -> int:
    """The digits an evaluator is asked for: ``dps``, or the context's
    working precision where it is None.  Anything but an int >= 1 raises
    ValueError, as :class:`PrecisionContext` refuses a non-int precision."""
    if dps is None:
        return ctx.working_dps
    if not _is_int(dps, 1):
        raise ValueError(f"dps must be an int >= 1, got {dps!r}")
    return dps


def _finite(x, name: str):
    """x read by ``mp.mpmathify`` at the current precision, or DomainError
    where it is not finite: the one check of every z and T an evaluator
    reads."""
    v = mp.mpmathify(x)
    if not mp.isfinite(v):
        raise DomainError(f"{name} = {v} is not finite")
    return v
