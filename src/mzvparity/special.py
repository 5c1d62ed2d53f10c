"""Exact special numbers: Bernoulli numbers, even zeta values, all-ones correction.

Everything here is exact rational arithmetic; pi appears only as a formal
even power carried by :class:`PiTerm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from mpmath import bernfrac

from .harmonic import _is_int, _ratio, as_composition

__all__ = ["PiTerm", "bernoulli", "delta", "even_zeta"]


@dataclass(frozen=True)
class PiTerm:
    """An exact rational multiple of an even power of pi."""

    coeff: Fraction
    pi_exp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(*_ratio(self.coeff)))
        if not _is_int(self.pi_exp, 0) or self.pi_exp % 2:
            raise ValueError(f"pi exponent must be an even int >= 0, got {self.pi_exp!r}")

    @classmethod
    def zero(cls) -> "PiTerm":
        return cls(Fraction(0), 0)

    @property
    def is_zero(self) -> bool:
        return not self.coeff

    def __add__(self, other: "PiTerm") -> "PiTerm":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.pi_exp != other.pi_exp:
            raise ValueError("cannot add PiTerms with different pi exponents")
        return PiTerm(self.coeff + other.coeff, self.pi_exp)

    def __mul__(self, other):
        if isinstance(other, PiTerm):
            c = self.coeff * other.coeff
            return PiTerm(c, self.pi_exp + other.pi_exp) if c else PiTerm.zero()
        c = self.coeff * Fraction(*_ratio(other))
        return PiTerm(c, self.pi_exp) if c else PiTerm.zero()

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self) -> "PiTerm":
        return PiTerm(-self.coeff, self.pi_exp)

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        if self.pi_exp == 0:
            return f"{self.coeff}"
        return f"({self.coeff})*pi^{self.pi_exp}"


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (convention B_1 = -1/2), exact, from mpmath."""
    if not _is_int(n, 0):
        raise ValueError(f"Bernoulli index must be an int >= 0, got {n!r}")
    return _bernoulli(n)


@lru_cache(maxsize=256)
def _bernoulli(n: int) -> Fraction:
    p, q = bernfrac(n)
    return Fraction(int(p), int(q))


def even_zeta(m: int) -> PiTerm:
    """zeta(2m) as an exact rational multiple of pi^(2m).

    The coefficient is (-1)^(m+1) * 2^(2m) * B_{2m} / (2 * (2m)!).
    """
    if not _is_int(m, 1):
        raise ValueError(f"even zeta index must be an int >= 1, got {m!r}")
    sign = 1 if m % 2 else -1
    coeff = Fraction(sign * 4**m, 2 * factorial(2 * m)) * bernoulli(2 * m)
    return PiTerm(coeff, 2 * m)


def delta(c) -> PiTerm:
    """All-ones correction term: (-1)^n pi^(2n) / (2n)! when the index is
    2n ones (n >= 0, the empty index included), and 0 otherwise."""
    c = as_composition(c)
    if len(c) % 2 or any(k != 1 for k in c):
        return PiTerm.zero()
    n = len(c) // 2
    sign = -1 if n % 2 else 1
    return PiTerm(Fraction(sign, factorial(2 * n)), 2 * n)
