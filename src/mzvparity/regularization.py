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
Words are the int keys of :mod:`mzvparity.harmonic`: w is divergent iff
its key is odd, and the peel v = w[:-1] is ``w >> 1``.  Each divergent
word caches ``(r!, {t: {word: int}})`` under its key.  A combination
sum q_w w, stored over one denominator D, is summed in integers over the
largest r! of its words, R (every r! divides it), and the result is
stored over D R.  Its admissible words are fixed points of reg and skip
the peel: they go straight into grade t = 0, scaled by R.  Products multiply integer numerators over the
product of the two common denominators.  Over the words of weight <= 10
the reduced denominator of reg(w) is exactly r!.
Reference: Ihara, Kaneko and Zagier, Compositio Math. 142 (2006).

:class:`TPoly` stores its terms under keys ``(t, word)`` in the shared
integer sparse map of :mod:`mzvparity.harmonic`, and reads as T-exponent ->
:class:`~mzvparity.harmonic.WordCombo`; it adds only the stuffle-based
``TPoly x TPoly`` product and T-specific accessors.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Union

from .harmonic import (
    WordCombo,
    _encode,
    _grade_major,
    _iadd,
    _is_int,
    _SparseMap,
    _storage,
    _stuffle_words,
    is_admissible,
)

__all__ = ["TPoly", "regularize"]


class TPoly(_SparseMap):
    """Polynomial in the regularization symbol T with WordCombo coefficients.

    Every composition stored in any coefficient is admissible.  Ring
    operations are exact; multiplication multiplies coefficients with the
    stuffle product, in integers.
    """

    __slots__ = ()
    _view = WordCombo
    _depth = 1

    def __init__(self, coeffs: Union[Mapping, None] = None):
        terms = []
        for t, combo in (coeffs or {}).items():
            if not _is_int(t, 0):
                raise ValueError(f"T-exponent must be an integer >= 0, got {t!r}")
            if not isinstance(combo, WordCombo):
                combo = WordCombo(combo)
            for w, q in combo.items():
                if not is_admissible(w):
                    raise ValueError(f"non-admissible word {w!r} in TPoly coefficient")
                terms.append(((t, _encode(w)), q))
        super().__init__(terms)

    @classmethod
    def one(cls) -> "TPoly":
        return cls._raw(1, {(0, 0): 1})

    def coeff(self, t: int) -> WordCombo:
        return WordCombo._raw(self._den, {w: n for (s, w), n in self._nums.items() if s == t})

    @property
    def t_degree(self):
        """Largest T-exponent with nonzero coefficient; None when zero."""
        return max((t for t, _ in self._nums), default=None)

    def __mul__(self, other):
        if not isinstance(other, TPoly):
            return super().__mul__(other)
        # grade by grade, so that the product's terms come in the order of
        # a product of the views
        a, b = (_grade_major(x._nums, 1) for x in (self, other))
        acc: dict = {}
        for (s, wu), nu in a.items():
            for (t, wv), nv in b.items():
                for w, k in _stuffle_words(wu, wv):
                    key = (s + t, w)
                    acc[key] = acc.get(key, 0) + nu * nv * k
        return TPoly._raw(self._den * other._den, acc)

    def _format(self, t, combo) -> str:
        return ("" if t == 0 else "T*" if t == 1 else f"T^{t}*") + f"[{combo!r}]"


def _form(w: int) -> tuple:
    """``(r!, r! reg(w))`` for a word w with r trailing ones."""
    return _regularize_divergent(w) if w & 1 else (1, {0: {w: 1}})


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
        if not w & 1:  # admissible
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
def _regularize_divergent(w: int) -> tuple:
    # The peel of the module docstring: v = w >> 1 has r - 1 trailing
    # ones, so its form carries f = (r-1)!; (1,) is the key 1.
    v = w >> 1
    prod = dict(_stuffle_words(v, 1))
    r = prod.pop(w)
    f, by_t = _form(v)
    acc = {t + 1: dict(terms) for t, terms in by_t.items()}
    _acc_regularized(acc, ((-n, _form(u)) for u, n in prod.items()), f)
    return r * f, acc


def regularize(x) -> TPoly:
    """Stuffle-regularize a composition or combination into a TPoly.

    Admissible words map to themselves at T-degree 0; the single part (1)
    maps to T; the extension to arbitrary words is forced by requiring an
    algebra homomorphism for the stuffle product, and it is linear, so a
    combination is regularized over one common denominator, in integers.
    """
    D, words = _storage(x)
    R, acc = _regularize_ints(words)
    return TPoly._raw(D * R, {(t, w): n for t, terms in acc.items() for w, n in terms.items()})
