"""Stuffle regularization: T-polynomials with admissible-word coefficients.

Divergent indices (trailing part 1) are rewritten as polynomials in the
formal symbol T, the regularized value of the single part (1), by peeling
trailing ones with the stuffle relation.  The map is the unique algebra
homomorphism from the harmonic algebra to ``(admissible span)[T]`` that is
the identity on admissible words and sends (1) to T.

:class:`TPoly` is the middle level of the nested sparse maps (T-exponent ->
:class:`~mzvparity.harmonic.WordCombo`); its linear operations come from the
shared sparse-map base in :mod:`mzvparity.harmonic`, and it adds only the
stuffle-based ``TPoly x TPoly`` product and T-specific accessors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

from .harmonic import (
    Composition,
    WordCombo,
    _iadd,
    _SparseMap,
    _stuffle_words,
    as_composition,
    is_admissible,
    star_expand,
    stuffle,
)

__all__ = ["TPoly", "antipode_combo", "clear_caches", "regularize"]


class TPoly(_SparseMap):
    """Polynomial in the regularization symbol T with WordCombo coefficients.

    Every composition stored in any coefficient is admissible.  Ring
    operations are exact; multiplication multiplies coefficients with the
    stuffle product.
    """

    __slots__ = ()

    def __init__(self, coeffs: Union[Mapping, None] = None):
        data: dict = {}
        if coeffs:
            for t, combo in coeffs.items():
                if not isinstance(t, int) or t < 0:
                    raise ValueError(f"T-exponent must be an integer >= 0, got {t!r}")
                if not isinstance(combo, WordCombo):
                    combo = WordCombo(combo)
                if combo.is_zero:
                    continue
                for w in combo.words():
                    if not is_admissible(w):
                        raise ValueError(
                            f"non-admissible word {w!r} in TPoly coefficient"
                        )
                data[t] = combo
        self._data = data

    @classmethod
    def one(cls) -> "TPoly":
        return cls._raw({0: WordCombo.word(())})

    @classmethod
    def from_word(cls, w, coeff=1) -> "TPoly":
        w = as_composition(w)
        if not is_admissible(w):
            raise ValueError(f"word {w!r} is not admissible")
        combo = WordCombo.word(w, coeff)
        return cls._raw({0: combo}) if combo else cls.zero()

    def coeff(self, t: int) -> WordCombo:
        return self._data.get(t, WordCombo.zero())

    @property
    def t_degree(self):
        """Largest T-exponent with nonzero coefficient; None when zero."""
        return max(self._data) if self._data else None

    def words(self):
        for combo in self._data.values():
            yield from combo.words()

    def shift_t(self, n: int) -> "TPoly":
        """Multiply by T^n."""
        if n == 0:
            return self
        return TPoly._raw({t + n: combo for t, combo in self._data.items()})

    def __mul__(self, other):
        if not isinstance(other, TPoly):
            return super().__mul__(other)
        acc: dict = {}
        for s, cs in self._data.items():
            for t, ct in other._data.items():
                _acc_t(acc, s + t, stuffle(cs, ct).items())
        return _freeze(acc)

    def __repr__(self) -> str:
        if not self._data:
            return "0"
        parts = []
        for t in sorted(self._data):
            head = "" if t == 0 else ("T*" if t == 1 else f"T^{t}*")
            parts.append(f"{head}[{self._data[t]!r}]")
        return " + ".join(parts)


def _acc_t(acc: dict, t: int, items, scale=None) -> None:
    """In-place ``acc[t] += scale * items`` on a {t: {word: coeff}} accumulator."""
    terms = acc.setdefault(t, {})
    _iadd(terms, items, scale)
    if not terms:
        del acc[t]


def _freeze(acc: dict) -> TPoly:
    return TPoly._raw({t: WordCombo._raw(terms) for t, terms in acc.items()})


def _acc_reg(acc: dict, w: Composition, q, shift: int = 0) -> None:
    """In-place ``acc += q T^shift reg(w)`` on a {t: {word: coeff}}
    accumulator.  An admissible word is its own regularization."""
    if is_admissible(w):
        _acc_t(acc, shift, ((w, q),))
    else:
        for t, combo in _regularize_divergent(w).items():
            _acc_t(acc, t + shift, combo.items(), q)


# Admissible words take no entry, and there are 2,048 divergent words of
# weight <= 12, the sweep cap.
@lru_cache(maxsize=1 << 13)
def _regularize_divergent(w: Composition) -> TPoly:
    # Peel one trailing 1: in v * (1) the word w occurs with positive
    # multiplicity and every other word has strictly fewer trailing ones, so
    # the recursion terminates.
    v = w[:-1]
    prod = dict(_stuffle_words(v, (1,)))
    mult = prod.pop(w)
    acc: dict = {}
    _acc_reg(acc, v, Fraction(1, mult), 1)
    for word, n in prod.items():
        _acc_reg(acc, word, Fraction(-n, mult))
    return _freeze(acc)


def regularize(x) -> TPoly:
    """Stuffle-regularize a composition or combination into a TPoly.

    Admissible words map to themselves at T-degree 0; the single part (1)
    maps to T; the extension to arbitrary words is forced by requiring an
    algebra homomorphism for the stuffle product, and it is linear, so a
    combination is regularized word by word into one flat accumulator.
    """
    if isinstance(x, WordCombo):
        acc: dict = {}
        for w, q in x.items():
            _acc_reg(acc, w, q)
        return _freeze(acc)
    w = as_composition(x)
    return TPoly.from_word(w) if is_admissible(w) else _regularize_divergent(w)


def antipode_combo(j: int, c) -> TPoly:
    """Alternating star/reversed-plain convolution, regularized.

    Returns the regularized expansion of
    ``sum_{i=0..j} (-1)^i  star(k_1..k_i) * (k_j, ..., k_{i+1})``.
    The result is exactly zero for every j >= 1 and the unit for j = 0.
    """
    c = as_composition(c)
    if not 0 <= j <= len(c):
        raise ValueError(f"j must satisfy 0 <= j <= depth, got j={j} for {c!r}")
    total = TPoly.zero()
    for i in range(j + 1):
        head = star_expand(c[:i])
        seg = c[i:j][::-1]
        prod = stuffle(head, WordCombo.word(seg))
        term = regularize(prod)
        total = total + term if i % 2 == 0 else total - term
    return total


def clear_caches() -> None:
    """Empty the regularized divergent words and the stuffle products of
    bare words."""
    _regularize_divergent.cache_clear()
    _stuffle_words.cache_clear()
