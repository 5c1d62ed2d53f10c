"""Harmonic (quasi-shuffle) algebra on integer compositions.

A composition is a plain tuple of positive integers ``(k_1, ..., k_d)``,
stored left-to-right; the rightmost slot decides admissibility: the nested
series ``zeta(k_1, ..., k_d) = sum_{0 < m_1 < ... < m_d} prod_j m_j^(-k_j)``
converges exactly when ``k_d >= 2``.  :class:`WordCombo` is a finite
Q-linear combination of compositions with exact rational coefficients; the
stuffle product turns it into the harmonic algebra.  Its linear operations
live in a private sparse-map base class that ``TPoly`` and ``PiGradedExpr``
share.  All three store one positive int denominator and one flat
{key: int} map of numerators, in lowest terms, the key being a word,
``(t, word)`` or ``(pi_exp, t, word)``.  Products, expansions and the
evaluators work on that storage; a ``Fraction`` is built only when a
coefficient is read.  Coefficients from outside must be exact: int or
``Fraction``.

Inside that storage, and everywhere in the exact layer, a word is one int:
the binary digits of its two-letter word, most significant first, part k
written as a 1 followed by k-1 zeros (``_encode``).  So (2,) is 0b10,
(1, 2) is 0b110 and () is 0; the bit length is the weight, ``bit_count()``
the depth, and a word is admissible iff its int is even.  When the last
part is 1, ``w >> 1`` is w[:-1], and the number of trailing 1 bits is the
number r of trailing ones.  The public face (``items()``, ``words()``,
``repr``, the arguments and results of the public functions) speaks in
composition tuples and decodes on read (``_decode``), as it builds
``Fraction``s on read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations, islice
from math import comb, gcd, lcm
from numbers import Rational
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


def _is_int(n, least: int) -> bool:
    """True iff n is an int, not a bool, and n >= least."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= least


def as_composition(parts: Iterable) -> Composition:
    """Normalize an index into a composition tuple, validating all parts."""
    c = tuple(parts)
    for k in c:
        if not _is_int(k, 1):
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
    """All compositions of ``w``, in lexicographic order: the int keys of
    weight w, in descending order; there are none for w < 0."""
    if not _is_int(w, w):  # an int of any sign, not a bool
        raise ValueError(f"a weight must be an int, got {w!r}")
    if w < 0:
        return iter(())
    return map(_decode, range((1 << w) - 1, (1 << w >> 1) - 1, -1))


def compositions_up_to(max_weight: int) -> Iterator[Composition]:
    """All nonempty compositions of weight 1..max_weight, weight-major then lex."""
    if not _is_int(max_weight, max_weight):
        raise ValueError(f"a weight must be an int, got {max_weight!r}")
    return chain.from_iterable(map(compositions_of, range(1, max_weight + 1)))


def _encode(c: Composition) -> int:
    """The int key of a composition (see the module docstring)."""
    w = 0
    for k in c:
        w = (w << k) | (1 << (k - 1))
    return w


def _decode(w: int) -> Composition:
    """The composition of an int key: one part per 1 bit, as long as the
    run of letters that the 1 bit opens."""
    return tuple(len(run) + 1 for run in bin(w)[2:].split("1")[1:])


def _ratio(q) -> tuple:
    """``(numerator, denominator)`` of an exact coefficient, as ints; a float
    would enter as the rational value of its rounding, and raises."""
    if not isinstance(q, Rational):
        raise TypeError(f"exact coefficients must be int or Fraction, got {q!r}")
    return int(q.numerator), int(q.denominator)


def _iadd(acc: dict, items, scale: int) -> None:
    """In-place ``acc += scale * items`` over (key, int) pairs; a key whose
    value cancels to zero is removed, so ``acc`` never stores a zero."""
    for k, v in items:
        v = acc.get(k, 0) + v * scale
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)


def _grades(nums: dict) -> dict:
    """``{key[0]: {rest: n}}`` of a {key: int} map with tuple keys, the rest
    of a key being its tail (unwrapped when it is one part); grades and
    keys keep the order in which they first appear."""
    grades: dict = {}
    for k, n in nums.items():
        grades.setdefault(k[0], {})[k[1] if len(k) == 2 else k[1:]] = n
    return grades


def _grade_major(nums: dict, depth: int) -> dict:
    """``nums`` with the keys of each grade together, over ``depth`` grade
    levels, in the order of :func:`_grades`."""
    if not depth:
        return nums
    return {
        (g, *r) if depth > 1 else (g, r): n
        for g, rest in _grades(nums).items()
        for r, n in _grade_major(rest, depth - 1).items()
    }


class _SparseMap:
    """Immutable finite Q-linear combination of keys, stored in integers.

    Shared core of :class:`WordCombo` (keys: words), ``TPoly`` (keys:
    ``(t, word)``) and ``PiGradedExpr`` (keys: ``(pi_exp, t, word)``): the
    coefficient of a key is ``_nums[key] / _den``, with ``_den > 0``, no
    zero in ``_nums`` and gcd(_den, *_nums) = 1, so equal maps have equal
    storage.  Every operation returns a fresh map; values of different
    subclasses are never equal.  ``items()`` yields each grade (leading key
    part) with its coefficient as a map of the class below (``_view``), in
    the order of :func:`_grades`, and ``len`` counts grades.
    """

    __slots__ = ("_den", "_nums")
    _view = None
    _depth = 0  # grade levels above the word

    def __init__(self, terms=()):
        """Sum of ``q * key`` over (key, q) pairs of exact rationals."""
        ints = [(k, *_ratio(q)) for k, q in terms]
        den = lcm(*(d for _, _, d in ints))
        nums: dict = {}
        for k, n, d in ints:
            nums[k] = nums.get(k, 0) + n * (den // d)
        self._set(den, nums)

    def _set(self, den: int, nums: dict) -> None:
        g = gcd(den, *nums.values())
        self._den = den // g
        self._nums = {k: n // g for k, n in nums.items() if n}

    @classmethod
    def _raw(cls, den: int, nums: dict):
        """The map ``nums / den`` of a {key: int} accumulator, den > 0, which
        is read and not kept: it may be a cached dict."""
        self = object.__new__(cls)
        self._set(den, nums)
        return self

    @classmethod
    def zero(cls):
        return cls._raw(1, {})

    def items(self):
        view, den = self._view, self._den
        return {g: view._raw(den, nums) for g, nums in _grades(self._nums).items()}.items()

    def __len__(self) -> int:
        return len({k[0] for k in self._nums})

    def __bool__(self) -> bool:
        return bool(self._nums)

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def _plus(self, other, sign: int):
        if type(other) is not type(self):
            return NotImplemented
        den = lcm(self._den, other._den)
        nums = {k: n * (den // self._den) for k, n in self._nums.items()}
        scale = sign * (den // other._den)
        for k, n in other._nums.items():
            nums[k] = nums.get(k, 0) + n * scale
        # a grade whose old keys all cancel keeps its place while new keys
        # join it: the zeros are dropped only after the grades are grouped
        return self._raw(den, _grade_major(nums, self._depth))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self._raw(self._den, {k: -n for k, n in self._nums.items()})

    def __mul__(self, other):
        n, d = _ratio(other)
        return self._raw(self._den * d, {k: v * n for k, v in self._nums.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._den, frozenset(self._nums.items())))

    def __repr__(self) -> str:
        grades = dict(self.items())
        return " + ".join(self._format(g, grades[g]) for g in sorted(grades)) or "0"


class WordCombo(_SparseMap):
    """Finite formal Q-linear combination of compositions.

    Coefficients are exact :class:`fractions.Fraction` values when read;
    zero coefficients are never stored.  Instances are treated as
    immutable: every operation returns a fresh combination.
    """

    __slots__ = ()

    def __init__(self, terms: Union[Mapping, Iterable, None] = None):
        items = terms.items() if isinstance(terms, Mapping) else terms or ()
        super().__init__((_encode(as_composition(w)), q) for w, q in items)

    @classmethod
    def word(cls, c: Iterable, coeff=1) -> "WordCombo":
        n, d = _ratio(coeff)
        return cls._raw(d, {_encode(as_composition(c)): n})

    def items(self):
        den = self._den
        return {_decode(w): Fraction(n, den) for w, n in self._nums.items()}.items()

    def words(self):
        return map(_decode, self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def __getitem__(self, word) -> Fraction:
        return Fraction(self._nums.get(_encode(as_composition(word)), 0), self._den)

    def __mul__(self, other) -> "WordCombo":
        if isinstance(other, WordCombo):
            return stuffle(self, other)
        return super().__mul__(other)

    def _format(self, w, q) -> str:
        return f"({q})*zeta(" + ",".join(map(str, w)) + ")"


@lru_cache(maxsize=1 << 16)
def _stuffle_words(u: int, v: int):
    """Stuffle product of two bare words as a tuple of (word, int) pairs.

    Recursion on the leading parts: with a = u[0], b = v[0],
    u * v = a.(u' * v) + b.(u * v') + (a+b).(u' * v').  Every word of a
    product has weight wt(u) + wt(v), so each branch prepends its part to
    a word w with one OR, ``top | w`` with top = 2^(wt(u) + wt(v) - 1);
    u' is u without its top bit.
    """
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    top = 1 << (u.bit_length() + v.bit_length() - 1)
    u1 = u ^ (1 << (u.bit_length() - 1))
    v1 = v ^ (1 << (v.bit_length() - 1))
    acc: dict = {}
    for w, n in chain(_stuffle_words(u1, v), _stuffle_words(u, v1), _stuffle_words(u1, v1)):
        w |= top
        acc[w] = acc.get(w, 0) + n
    return tuple(acc.items())


def _add_stuffle(acc: dict, u: dict, v: dict, n: int = 1) -> None:
    """In-place ``acc += n * (u stuffle v)`` over {word: int} maps."""
    for wu, nu in u.items():
        for wv, nv in v.items():
            s = n * nu * nv
            if s:
                for w, k in _stuffle_words(wu, wv):
                    acc[w] = acc.get(w, 0) + s * k


def _storage(x) -> tuple:
    """``(den, {word: int})`` of a combination, or of one composition."""
    return (x._den, x._nums) if isinstance(x, WordCombo) else (1, {_encode(as_composition(x)): 1})


def stuffle(u, v) -> WordCombo:
    """Stuffle (quasi-shuffle) product; accepts compositions or combinations.

    Bilinear, commutative and associative; the empty composition is the
    identity element.  The integer numerators are multiplied over the
    product of the two common denominators.
    """
    Du, nu = _storage(u)
    Dv, nv = _storage(v)
    acc: dict = {}
    _add_stuffle(acc, nu, nv)
    return WordCombo._raw(Du * Dv, acc)


def _star_ints(w: int) -> dict:
    """{word: 1} form of :func:`star_expand`: a contraction merges a part
    into the one before it, which clears that part's leading 1 bit."""
    stars = [w]
    rest = w ^ (1 << w.bit_length() >> 1)  # w without its top bit
    while rest:  # the leading bits of parts 2, ..., d
        bit = 1 << (rest.bit_length() - 1)
        stars += [x ^ bit for x in stars]
        rest ^= bit
    return dict.fromkeys(stars, 1)


def star_expand(c) -> WordCombo:
    """Expand a star index into the sum of its 2^(d-1) comma/plus contractions.

    Every choice of separator ("keep the comma" or "merge the neighbours")
    contributes the contracted composition with coefficient +1; the empty
    composition expands to itself.
    """
    return WordCombo._raw(1, _star_ints(_encode(as_composition(c))))


def _shift_ints(a: int, w: int) -> dict:
    """{word: int} form of :func:`shift_expand` (distinct shifts, distinct words).

    The shifts a_1 + ... + a_d = a are read, in lexicographic order, from
    the d - 1 bars among a + d - 1 places.
    """
    c = _decode(w)
    if not c:
        return {} if a else {w: 1}
    sign, places = -1 if a % 2 else 1, a + len(c) - 1
    acc: dict = {}
    for bars in combinations(range(places), len(c) - 1):
        extra = [j - i - 1 for i, j in zip((-1, *bars), (*bars, places))]
        coeff = sign
        for k, e in zip(c, extra):
            coeff *= comb(k - 1 + e, e)
        acc[_encode([k + e for k, e in zip(c, extra)])] = coeff
    return acc


def shift_expand(a: int, c) -> WordCombo:
    """Expand the a-th Taylor-shift of an index into plain indices.

    Returns ``(-1)^a * sum over a_1+...+a_d = a`` of
    ``prod_j C(k_j - 1 + a_j, a_j) * (k_1 + a_1, ..., k_d + a_d)``,
    the coefficient of z^a in ``prod_j (z + m_j)^(-k_j)`` summed over the
    nested index chain.  For the empty composition the result is 1 when
    a = 0 and 0 otherwise.
    """
    if not _is_int(a, 0):
        raise ValueError(f"shift order must be an int >= 0, got {a!r}")
    return WordCombo._raw(1, _shift_ints(a, _encode(as_composition(c))))
