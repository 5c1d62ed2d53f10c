"""Stuffle regularization: T-polynomials with admissible-word coefficients.

Divergent indices (trailing part 1) are rewritten as polynomials in the
formal symbol T, the regularized value of the single part (1), by peeling
trailing ones with the stuffle relation.  The map is the unique algebra
homomorphism from the harmonic algebra to ``(admissible span)[T]`` that is
the identity on admissible words and sends (1) to T.

The regularization is computed in integers.  Let w have r >= 1 trailing
ones and v = w[:-1].  In the stuffle product v * (1) the word w occurs r
times, once for each place of the new 1 in the trailing run, and every
other word u has at most r - 1 trailing ones: a 1 inserted before the run
leaves r - 1 of them, and a 1 merged into a part ends the run sooner.  As
reg is a homomorphism with reg((1)) = T,

    reg(w) = (T reg(v) - sum_u n_u reg(u)) / r.

By induction on r, with an admissible word (r = 0) its own regularization,
(r-1)! reg(v) and (r-1)! reg(u) have integer coefficients (r_u! divides
(r-1)!), and so does r! reg(w) = (r-1)! (T reg(v) - sum_u n_u reg(u)).
Each divergent word caches ``(r!, {t: {word: int}})``.  A combination
sum q_w w is brought to the common denominator D of its q_w and summed in
integers over the largest r! of its words, R (every r! divides it), and
each coefficient of the result is divided by D R once.  Its admissible
words are fixed points of reg and skip the peel: they go straight into
grade t = 0, scaled by R.  Products multiply integer numerators over the
product of the two common denominators.  Over the words of weight <= 10
the reduced denominator of reg(w) is exactly r!.
Reference: Ihara, Kaneko and Zagier, Compositio Math. 142 (2006).

:class:`TPoly` is the middle level of the nested sparse maps (T-exponent ->
:class:`~mzvparity.harmonic.WordCombo`); its linear operations come from the
shared sparse-map base in :mod:`mzvparity.harmonic`, and it adds only the
stuffle-based ``TPoly x TPoly`` product and T-specific accessors.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Union

from .harmonic import (
    Composition,
    WordCombo,
    _add_stuffle,
    _fractions,
    _iadd,
    _numerators,
    _SparseMap,
    _star_ints,
    _stuffle_words,
    as_composition,
    is_admissible,
)

__all__ = ["TPoly", "antipode_combo", "clear_caches", "regularize"]


class TPoly(_SparseMap):
    """Polynomial in the regularization symbol T with WordCombo coefficients.

    Every composition stored in any coefficient is admissible.  Ring
    operations are exact; multiplication multiplies coefficients with the
    stuffle product, in integers.
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

    def __mul__(self, other):
        if not isinstance(other, TPoly):
            return super().__mul__(other)
        Da, a = _numerators({(t, w): q for t, c in self.items() for w, q in c.items()})
        Db, b = _numerators({(t, w): q for t, c in other.items() for w, q in c.items()})
        acc: dict = {}
        for (s, wu), nu in a.items():
            for (t, wv), nv in b.items():
                terms = acc.setdefault(s + t, {})
                for w, k in _stuffle_words(wu, wv):
                    terms[w] = terms.get(w, 0) + nu * nv * k
        return _tpoly(Da * Db, acc)

    def __repr__(self) -> str:
        if not self._data:
            return "0"
        parts = []
        for t in sorted(self._data):
            head = "" if t == 0 else ("T*" if t == 1 else f"T^{t}*")
            parts.append(f"{head}[{self._data[t]!r}]")
        return " + ".join(parts)


def _tpoly(D: int, acc: dict) -> TPoly:
    """The TPoly ``acc / D`` of a {t: {word: int}} map."""
    return TPoly._raw({t: WordCombo._raw(f) for t, ns in acc.items() if (f := _fractions(ns, D))})


def _form(w: Composition) -> tuple:
    """``(r!, r! reg(w))`` for a word w with r trailing ones."""
    return (1, {0: {w: 1}}) if is_admissible(w) else _regularize_divergent(w)


def _acc_regularized(acc: dict, forms, R: int) -> None:
    """In-place ``acc += R reg(sum n w)`` over (n, form of w) pairs on a
    {t: {word: int}} map without zeros; R is a multiple of every r!."""
    for n, (Rw, by_t) in forms:
        for t, part in by_t.items():
            terms = acc.setdefault(t, {})
            _iadd(terms, part.items(), n * (R // Rw))
            if not terms:
                del acc[t]


def _regularize_ints(words: dict) -> tuple:
    """``(R, R reg(sum n w))`` for a {word: int} map, R the largest r! of its words.

    Admissible words are fixed points of reg: they are collected into one
    form of grade t = 0, and only the divergent words are peeled.  That form
    takes the place of the first admissible word, so that the T-grades come
    in the order in which the words first reach them, which is the order in
    which the evaluators add them up in floating point.
    """
    grade0: dict = {}
    forms = []
    for w, n in words.items():
        if not n:
            continue
        if is_admissible(w):
            if not grade0:
                forms.append((1, (1, {0: grade0})))
            grade0[w] = n
        else:
            forms.append((n, _regularize_divergent(w)))
    R = max((Rw for _, (Rw, _) in forms), default=1)
    acc: dict = {}
    _acc_regularized(acc, forms, R)
    return R, acc


# Admissible words take no entry, and there are 2,048 divergent words of
# weight <= 12, the sweep cap.
@lru_cache(maxsize=1 << 13)
def _regularize_divergent(w: Composition) -> tuple:
    # The peel of the module docstring: v has r - 1 trailing ones, so its
    # form carries f = (r-1)!.
    v = w[:-1]
    prod = dict(_stuffle_words(v, (1,)))
    r = prod.pop(w)
    f, by_t = _form(v)
    acc = {t + 1: dict(terms) for t, terms in by_t.items()}
    _acc_regularized(acc, ((-n, _form(u)) for u, n in prod.items()), f)
    return r * f, acc


# regularize(w) of a divergent word, which the Hurwitz evaluator calls per word
@lru_cache(maxsize=1 << 13)
def _regularized_word(w: Composition) -> TPoly:
    return _tpoly(*_regularize_divergent(w))


def regularize(x) -> TPoly:
    """Stuffle-regularize a composition or combination into a TPoly.

    Admissible words map to themselves at T-degree 0; the single part (1)
    maps to T; the extension to arbitrary words is forced by requiring an
    algebra homomorphism for the stuffle product, and it is linear, so a
    combination is regularized over one common denominator, in integers.
    """
    if isinstance(x, WordCombo):
        D, nums = _numerators(x._data)
        R, acc = _regularize_ints(nums)
        return _tpoly(D * R, acc)
    w = as_composition(x)
    return TPoly.from_word(w) if is_admissible(w) else _regularized_word(w)


def antipode_combo(j: int, c) -> TPoly:
    """Alternating star/reversed-plain convolution, regularized.

    Returns the regularized expansion of
    ``sum_{i=0..j} (-1)^i  star(k_1..k_i) * (k_j, ..., k_{i+1})``.
    The result is exactly zero for every j >= 1 and the unit for j = 0.
    """
    c = as_composition(c)
    if not 0 <= j <= len(c):
        raise ValueError(f"j must satisfy 0 <= j <= depth, got j={j} for {c!r}")
    words: dict = {}
    for i in range(j + 1):
        _add_stuffle(words, _star_ints(c[:i]), {c[i:j][::-1]: 1}, -1 if i % 2 else 1)
    return _tpoly(*_regularize_ints(words))


def clear_caches() -> None:
    """Empty the regularized divergent words, in integer and TPoly form,
    and the stuffle products of bare words."""
    _regularize_divergent.cache_clear()
    _regularized_word.cache_clear()
    _stuffle_words.cache_clear()
