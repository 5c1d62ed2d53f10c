"""Harmonic (quasi-shuffle) algebra on integer compositions.

A composition is a plain tuple of positive integers ``(k_1, ..., k_d)``,
stored left-to-right; the rightmost slot decides admissibility: the nested
series ``zeta(k_1, ..., k_d) = sum_{0 < m_1 < ... < m_d} prod_j m_j^(-k_j)``
converges exactly when ``k_d >= 2``.  :class:`WordCombo` is a finite
Q-linear combination of compositions with exact rational coefficients; the
stuffle product turns it into the harmonic algebra.  Its linear operations
live in a private sparse-map base class that ``TPoly`` and ``PiGradedExpr``
share.  Products and expansions run on integer numerators over one common
denominator, and build each ``Fraction`` once per result term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice
from math import comb, lcm
from typing import Iterable, Iterator, Mapping, Union

Composition = tuple[int, ...]

__all__ = [
    "Composition",
    "WordCombo",
    "as_composition",
    "compositions_of",
    "compositions_up_to",
    "depth",
    "is_admissible",
    "shift_expand",
    "slot_splits",
    "splits",
    "star_expand",
    "stuffle",
    "weight",
]


def as_composition(parts: Iterable) -> Composition:
    """Normalize an index into a composition tuple, validating all parts."""
    c = tuple(parts)
    for k in c:
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"composition parts must be integers >= 1, got {c!r}")
    return c


def weight(c: Composition) -> int:
    return sum(c)


def depth(c: Composition) -> int:
    return len(c)


def is_admissible(c: Composition) -> bool:
    """True iff the composition is empty or its last part is >= 2."""
    return not c or c[-1] >= 2


def splits(c: Composition) -> Iterator[tuple]:
    """Cuts and slots of the summation chain of ``c``, with parity signs.

    Yields ``(rev_head, k, tail, sign)`` with ``sign = (-1)^weight(head)``:
    first the d+1 cuts ``c = head + tail`` with ``k = 0``, then the d slots
    ``c = head + (k_j,) + tail``.  The head is reversed, as the chain is
    read outward from the split point.  A cut is a slot of weight 0.
    """
    prefix = list(accumulate(c, initial=0))
    for i in range(len(c) + 1):
        yield c[:i][::-1], 0, c[i:], -1 if prefix[i] % 2 else 1
    for j, k in enumerate(c):
        yield c[:j][::-1], k, c[j + 1 :], -1 if prefix[j] % 2 else 1


def slot_splits(c: Composition) -> Iterator[tuple]:
    """Every slot ``c = head + (k_j,) + tail`` with every split a + s + b = k_j.

    Yields ``(rev_head, a, s, b, tail, sign)`` with
    ``sign = (-1)^(weight(head) + a)``: the slots of :func:`splits`, which
    come after its d+1 cuts, then ``a`` outermost and ``b`` ascending.
    """
    for rev_head, k, tail, sign in islice(splits(c), len(c) + 1, None):
        for a in range(k + 1):
            sign_a = -sign if a % 2 else sign
            for b in range(k - a + 1):
                yield rev_head, a, k - a - b, b, tail, sign_a


def compositions_of(w: int) -> Iterator[Composition]:
    """All compositions of ``w``, in lexicographic order."""
    if w < 0:
        return
    if w == 0:
        yield ()
        return
    for first in range(1, w + 1):
        for rest in compositions_of(w - first):
            yield (first,) + rest


def compositions_up_to(max_weight: int) -> Iterator[Composition]:
    """All nonempty compositions of weight 1..max_weight, weight-major then lex."""
    for w in range(1, max_weight + 1):
        yield from compositions_of(w)


def _format_word(c: Composition) -> str:
    return "zeta(" + ",".join(str(k) for k in c) + ")"


def _iadd(acc: dict, items, scale=None) -> None:
    """In-place ``acc += scale * items`` over (key, value) pairs.

    Values are ints, Fractions or sparse maps; ``scale=None`` adds unscaled.
    A key whose value cancels to zero is removed, so ``acc`` never stores
    a zero.
    """
    if scale is not None:
        items = ((k, v * scale) for k, v in items)
    for k, v in items:
        old = acc.get(k)
        if old is not None:
            v = old + v
        if v:
            acc[k] = v
        elif old is not None:
            del acc[k]


class _SparseMap:
    """Immutable finite map from keys to nonzero values, a Q-vector space.

    Shared core of :class:`WordCombo` (word -> Fraction), ``TPoly``
    (T-exponent -> WordCombo) and ``PiGradedExpr`` (pi-exponent -> TPoly):
    zero values are never stored, and every operation returns a fresh map.
    Values of different subclasses are never equal.
    """

    __slots__ = ("_data",)

    @classmethod
    def _raw(cls, data: dict):
        # internal constructor: data already validated and pruned
        self = object.__new__(cls)
        self._data = data
        return self

    @classmethod
    def zero(cls):
        return cls._raw({})

    def items(self):
        return self._data.items()

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    @property
    def is_zero(self) -> bool:
        return not self._data

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        data = dict(self._data)
        _iadd(data, other._data.items())
        return self._raw(data)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        data = dict(self._data)
        _iadd(data, other._data.items(), -1)
        return self._raw(data)

    def __neg__(self):
        return self._raw({k: -v for k, v in self._data.items()})

    def __mul__(self, other):
        q = other if isinstance(other, Fraction) else Fraction(other)
        if not q:
            return self.zero()
        return self._raw({k: v * q for k, v in self._data.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._data == other._data

    def __hash__(self):
        return hash(frozenset(self._data.items()))


class WordCombo(_SparseMap):
    """Finite formal Q-linear combination of compositions.

    Coefficients are exact :class:`fractions.Fraction` values; zero
    coefficients are never stored.  Instances are treated as immutable:
    every operation returns a fresh combination.
    """

    __slots__ = ()

    def __init__(self, terms: Union[Mapping, Iterable, None] = None):
        data: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            _iadd(data, ((as_composition(w), Fraction(q)) for w, q in items))
        self._data = data

    @classmethod
    def word(cls, c: Iterable, coeff=1) -> "WordCombo":
        q = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
        if not q:
            return cls.zero()
        return cls._raw({as_composition(c): q})

    def words(self):
        return self._data.keys()

    def __getitem__(self, word) -> Fraction:
        return self._data.get(tuple(word), Fraction(0))

    def __mul__(self, other) -> "WordCombo":
        if isinstance(other, WordCombo):
            return stuffle(self, other)
        return super().__mul__(other)

    def __repr__(self) -> str:
        if not self._data:
            return "0"
        parts = []
        for w in sorted(self._data):
            q = self._data[w]
            parts.append(f"({q})*{_format_word(w)}")
        return " + ".join(parts)


@lru_cache(maxsize=1 << 16)
def _stuffle_words(u: Composition, v: Composition):
    """Stuffle product of two bare words as a tuple of (word, int) pairs.

    Recursion on the leading parts: with a = u[0], b = v[0],
    u * v = a.(u' * v) + b.(u * v') + (a+b).(u' * v').
    """
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    a = u[0]
    b = v[0]
    acc: dict = {}
    for w, n in _stuffle_words(u[1:], v):
        key = (a,) + w
        acc[key] = acc.get(key, 0) + n
    for w, n in _stuffle_words(u, v[1:]):
        key = (b,) + w
        acc[key] = acc.get(key, 0) + n
    for w, n in _stuffle_words(u[1:], v[1:]):
        key = (a + b,) + w
        acc[key] = acc.get(key, 0) + n
    return tuple(acc.items())


def _numerators(data: dict) -> tuple:
    """``(D, {key: q D})`` for a {key: Fraction} map, D the common denominator."""
    D = lcm(*(q.denominator for q in data.values()))
    return D, {k: q.numerator * (D // q.denominator) for k, q in data.items()}


def _fractions(ints: dict, D: int) -> dict:
    """``{key: Fraction(n, D)}`` over the nonzero values of a {key: int} map."""
    return {k: Fraction(n, D) for k, n in ints.items() if n}


def _add_stuffle(acc: dict, u: dict, v: dict, n: int = 1) -> None:
    """In-place ``acc += n * (u stuffle v)`` over {word: int} maps."""
    for wu, nu in u.items():
        for wv, nv in v.items():
            s = n * nu * nv
            if s:
                for w, k in _stuffle_words(wu, wv):
                    acc[w] = acc.get(w, 0) + s * k


def stuffle(u, v) -> WordCombo:
    """Stuffle (quasi-shuffle) product; accepts compositions or combinations.

    Bilinear, commutative and associative; the empty composition is the
    identity element.  The integer numerators are multiplied over the
    product of the two common denominators.
    """
    Du, nu = _numerators(u._data) if isinstance(u, WordCombo) else (1, {as_composition(u): 1})
    Dv, nv = _numerators(v._data) if isinstance(v, WordCombo) else (1, {as_composition(v): 1})
    acc: dict = {}
    _add_stuffle(acc, nu, nv)
    return WordCombo._raw(_fractions(acc, Du * Dv))


def _star_ints(c: Composition) -> dict:
    """{word: int} form of :func:`star_expand` (distinct separators, distinct words)."""
    d = len(c)
    if d == 0:
        return {(): 1}
    acc: dict = {}
    for mask in range(1 << (d - 1)):
        parts = [c[0]]
        for i in range(1, d):
            if (mask >> (i - 1)) & 1:
                parts[-1] += c[i]
            else:
                parts.append(c[i])
        acc[tuple(parts)] = 1
    return acc


def star_expand(c) -> WordCombo:
    """Expand a star index into the sum of its 2^(d-1) comma/plus contractions.

    Every choice of separator ("keep the comma" or "merge the neighbours")
    contributes the contracted composition with coefficient +1; the empty
    composition expands to itself.
    """
    return WordCombo._raw(_fractions(_star_ints(as_composition(c)), 1))


def _weak_compositions(total: int, slots: int) -> Iterator[tuple]:
    """All tuples of ``slots`` nonnegative integers summing to ``total``."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, slots - 1):
            yield (first,) + rest


def _shift_ints(a: int, c: Composition) -> dict:
    """{word: int} form of :func:`shift_expand` (distinct shifts, distinct words)."""
    sign = -1 if a % 2 else 1
    acc: dict = {}
    for extra in _weak_compositions(a, len(c)):
        coeff = sign
        for k, e in zip(c, extra):
            coeff *= comb(k - 1 + e, e)
        acc[tuple(k + e for k, e in zip(c, extra))] = coeff
    return acc


def shift_expand(a: int, c) -> WordCombo:
    """Expand the a-th Taylor-shift of an index into plain indices.

    Returns ``(-1)^a * sum over a_1+...+a_d = a`` of
    ``prod_j C(k_j - 1 + a_j, a_j) * (k_1 + a_1, ..., k_d + a_d)``,
    the coefficient of z^a in ``prod_j (z + m_j)^(-k_j)`` summed over the
    nested index chain.  For the empty composition the result is 1 when
    a = 0 and 0 otherwise.
    """
    if a < 0:
        raise ValueError("shift order must be >= 0")
    return WordCombo._raw(_fractions(_shift_ints(a, as_composition(c)), 1))
