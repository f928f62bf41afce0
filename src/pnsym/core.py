"""The graded module PNSym: free rational-linear combinations of mopiscotions.

Basis keys are canonical (reduced) mopiscotions ``(alpha, sigma)``; elements
carry exact coefficients, each an ``int`` when whole and a ``Fraction``
otherwise, and drop zero terms eagerly, so equality is plain key-by-key
coefficient equality.  Three products/coproducts live here:

* :func:`external_mul` -- concatenate compositions, direct-sum permutations
  (mirrors convolution of the twisted operators);
* :func:`internal_mul` -- sum over contingency tables (mirrors composition),
  each table's twist ranked by one walk of the twist's inverse;
* :func:`coproduct` -- entrywise decompositions of the composition.

The antipode and the coproduct read one splitting kernel,
:func:`_key_coproduct`, which grows the splittings one position at a time,
so each prefix is built once.  The antipode runs it only on keys that are not
external products: it is an anti-homomorphism, so a key that splits into
direct-sum blocks gets the product of its blocks' antipodes in reverse
order, through :func:`_add_product`, the kernel of ``external_mul``.  The
products, the coproduct and the antipode sum ints and divide once per call
(:func:`_cleared`); :meth:`_Combination.over` builds the final int or
``Fraction`` coefficients in that one pass.  The internal product has one
kernel, the right factor's memo :class:`_Rows`.
"""

import itertools
import math
from fractions import Fraction

from . import combinatorics as comb

EMPTY_KEY = ((), ())


def key_sort_key(key):
    """Canonical order: degree, then alpha lexicographically, then sigma.

    Within one degree no composition is a prefix of another, so plain
    lexicographic comparison of alpha is total there.
    """
    alpha, sigma = key
    return (sum(alpha), alpha, sigma)


class _Combination:
    """A finite rational combination of hashable keys, zero terms dropped.

    Each coefficient is stored as an ``int`` when it is whole and as a
    ``Fraction`` otherwise.  Equality and addition are type-strict:
    combinations of different kinds never compare equal, even when both are
    zero, and do not add.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {
            key: c.numerator if c.denominator == 1 else c
            for key, c in (terms or {}).items()
            if c
        }

    @classmethod
    def sum(cls, pairs):
        """The combination of the ``(key, coefficient)`` pairs, summed per key."""
        terms = {}
        for key, c in pairs:
            terms[key] = terms.get(key, 0) + c
        return cls(terms)

    @classmethod
    def over(cls, terms, den):
        """The combination of the int sums ``terms`` of a kernel that cleared
        its inputs' denominators (:func:`_cleared`), divided by ``den``.

        One pass drops the zero sums and stores ``c // den`` when ``den``
        divides ``c`` and ``Fraction(c, den)`` otherwise, so ``__init__``'s
        normalizing pass is skipped.
        """
        out = cls.__new__(cls)
        if den == 1:
            out.terms = {key: c for key, c in terms.items() if c}
        else:
            out.terms = {
                key: c // den if c % den == 0 else Fraction(c, den)
                for key, c in terms.items()
                if c
            }
        return out

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.sum(itertools.chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, c):
        c = Fraction(c)
        return type(self)({key: c * v for key, v in self.terms.items()})


class PnsymElement(_Combination):
    """A finite rational combination of mopiscotion basis keys."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, PnsymElement):
            return external_mul(self, other)
        return self.__rmul__(other)

    def __repr__(self):
        return format_element(self)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: key_sort_key(kv[0]))


ZERO = PnsymElement()
UNIT = PnsymElement({EMPTY_KEY: 1})


def from_weak_term(coeff, pair):
    """Single-term element keyed by the reduction of a weak mopiscotion."""
    alpha, sigma = pair
    if not comb.is_weak_composition(alpha):
        raise ValueError(f"not a weak composition: {alpha}")
    if not comb.is_permutation(sigma):
        raise ValueError(f"not a permutation: {sigma}")
    return PnsymElement({comb.reduce_pair(alpha, sigma): Fraction(coeff)})


def basis(alpha, sigma):
    return from_weak_term(1, (tuple(alpha), tuple(sigma)))


def external_mul(f, g):
    """Bilinear extension of F(a;s) . F(b;t) = F(ab; s (+) t), on the int
    sums of :func:`_add_product`."""
    f_terms, f_den = _cleared(f)
    g_terms, g_den = _cleared(g)
    terms = {}
    _add_product(terms, f_terms, g_terms, {})
    return PnsymElement.over(terms, f_den * g_den)


def internal_mul(f, g, *, rows=None):
    """Bilinear extension of the contingency-table product.

    F(a;s) * F(b;t) sums F(flatten(T); tau-of-T) over all tables T with row
    sums a and column sums b, each flattened row-major and paired with the
    substitution permutation of t into s, then reduced.  Keys of unequal
    degree contribute nothing.

    The product is the sum of the rows of ``f``'s keys in a memo of ``g``
    (:class:`_Rows`).  ``rows`` sets only how long that memo lives: without
    it, this call; :func:`composition_powers` passes the memo of its base,
    so each row is computed once for the whole iteration, and ``g`` is
    ignored.  ``rows`` stays keyword-only so that each power's product is
    still a call ``internal_mul(f, g)`` with two positional arguments, which
    the benchmarks' wrappers of this name record.
    """
    return (_Rows(g) if rows is None else rows).product(f)


def composition_powers(base):
    """Yield ``base``, ``base o base``, ... under :func:`internal_mul`, each
    power when it is asked for, and stop after the first power that repeats
    (zero repeats too): every step multiplies by the same base, so the power
    stays the same from then on.  One memo of the base (:class:`_Rows`)
    lives as long as the iteration, so each left key's product with the base
    is computed once for all the powers.
    """
    memo = _Rows(base)
    power = base
    while True:
        yield power
        following = internal_mul(power, base, rows=memo)
        if following == power:
            return
        power = following


class _Rows:
    """A memo of the right factor, the one kernel of :func:`internal_mul`:
    its ``(b, inverse(t), d)`` terms listed by degree, one ``shapes`` cache,
    each output key interned to an int index, and each left key's row -- its
    product with the right factor -- as two flat tuples: the indices and the
    int coefficients.
    """

    __slots__ = ("den", "by_degree", "shapes", "index", "keys", "rows")

    def __init__(self, g):
        g_terms, self.den = _cleared(g)
        self.by_degree = {}
        for (b, t), d in g_terms.items():
            self.by_degree.setdefault(sum(b), []).append((b, comb.inverse(t), d))
        self.shapes = {}
        self.index = {}
        self.keys = []
        self.rows = {}

    def product(self, f):
        """``f`` times the right factor: the rows of ``f``'s keys times their
        int coefficients, summed over the int indices, then mapped back to
        keys and divided once."""
        f_terms, f_den = _cleared(f)
        rows = self.rows
        for key in f_terms:
            if key not in rows:
                rows[key] = self._row(key)
        summed = [0] * len(self.keys)
        for key, c in f_terms.items():
            indices, coeffs = rows[key]
            for i, d in zip(indices, coeffs):
                summed[i] += c * d
        keys = self.keys
        return PnsymElement.over(
            {keys[i]: c for i, c in enumerate(summed) if c}, f_den * self.den
        )

    def _row(self, key):
        """F(a;s) times the right factor, as (indices, coefficients).

        The tables depend only on (a, b), so each shape is enumerated once
        per memo (:func:`_tables`).  The twist's inverse is built directly,
        from the inverses of s and t.  Each table takes as its permutation
        the twist standardized on its nonzero cells, from one walk of the
        inverse: the kept cells are ranked 1, 2, ... in the order the
        inverse visits them, each found through the table's slot array, so
        nothing is sorted.  Each output key is interned as it is found.
        """
        a, s = key
        inv_s = comb.inverse(s)
        index, keys, shapes = self.index, self.keys, self.shapes
        row = {}
        for b, inv_t, d in self.by_degree.get(sum(a), ()):
            inv = comb.wreath_substitute(inv_s, inv_t)
            for slot, alpha, k in _tables(a, b, shapes):
                ranks = [0] * k
                r = 0
                for p in inv:
                    j = slot[p]
                    if j is not None:
                        r += 1
                        ranks[j] = r
                out = (alpha, tuple(ranks))
                i = index.get(out)
                if i is None:
                    i = index[out] = len(keys)
                    keys.append(out)
                row[i] = row.get(i, 0) + d
        return tuple(row), tuple(row.values())


def _cleared(f):
    """The terms of ``f`` times the lcm of their denominators, as ints, and
    that lcm, for :meth:`_Combination.over`; int terms pass through."""
    den = math.lcm(*[c.denominator for c in f.terms.values()])
    if den == 1:
        return f.terms, 1
    return {key: c.numerator * (den // c.denominator) for key, c in f.terms.items()}, den


def _tables(a, b, shapes):
    """The tables with row sums ``a`` and column sums ``b``, in the order of
    :func:`pnsym.combinatorics.contingency_tables`, each as ``(slot, alpha,
    len(alpha))``: ``alpha`` lists its nonzero entries in the row-major
    flattening, and ``slot``, indexed by 1-based position in that
    flattening, holds the index in ``alpha`` of the entry there, or
    ``None``.  ``shapes`` is the caller's cache, keyed by ``(a, b)``.
    """
    tables = shapes.get((a, b))
    if tables is None:
        size = len(a) * len(b) + 1
        tables = shapes[a, b] = []
        for kept, alpha in comb.contingency_tables(a, b):
            slot = [None] * size
            for j, i in enumerate(kept):
                slot[i + 1] = j
            tables.append((slot, alpha, len(alpha)))
    return tables


def degree_component(f, n):
    return PnsymElement(
        {key: c for key, c in f.terms.items() if sum(key[0]) == n}
    )


def counit(f):
    return f.terms.get(EMPTY_KEY, 0)


# ---------------------------------------------------------------------------
# coproduct and tensors


class PnsymTensor(_Combination):
    """Rational combination of ordered pairs of mopiscotion keys."""

    __slots__ = ()

    def __repr__(self):
        return format_tensor(self)

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (key_sort_key(kv[0][0]), key_sort_key(kv[0][1])),
        )


def coproduct(f):
    """Split each key's composition entrywise, keeping the permutation.

    Delta(F(a;s)) = sum of F(b;s) (x) F(c;s) over weak b + c = a, each leg
    reduced.  Distinct splittings may reduce to the same pair of keys, so
    coefficients accumulate, as ints (:func:`_cleared`).
    """
    terms, den = _cleared(f)
    out = {}
    for (alpha, sigma), c in terms.items():
        for pair in _key_coproduct(alpha, sigma):
            out[pair] = out.get(pair, 0) + c
    return PnsymTensor.over(out, den)


def _key_coproduct(alpha, sigma):
    """The reduced legs of each entrywise splitting of F(alpha; sigma), in
    lexicographic order of the left leg's weak composition beta, as a list:
    the one splitting kernel, read by :func:`coproduct` and the antipode.

    The splittings grow one position at a time, each as both legs' nonzero
    values and their supports, bitmasks of positions, so a prefix is built
    once for all the splittings that share it.  Each partial splitting
    spawns b = 0, ..., x at the next entry x (positive, as in every reduced
    key), in that order.  Each mask is some leg's support, so sigma is
    standardized on every mask once, up front: a kept position's rank is
    one more than the number of kept positions below it in value.
    """
    n = len(sigma)
    below = [sum(1 << j for j in range(n) if sigma[j] < v) for v in sigma]
    ranked = [
        tuple([(mask & below[i]).bit_count() + 1 for i in range(n) if mask >> i & 1])
        for mask in range(1 << n)
    ]
    parts = [((), 0, (), 0)]
    bit = 1
    for x in alpha:
        grown = []
        for left, lmask, right, rmask in parts:
            grown.append((left, lmask, right + (x,), rmask | bit))
            for b in range(1, x):
                grown.append((left + (b,), lmask | bit, right + (x - b,), rmask | bit))
            grown.append((left + (x,), lmask | bit, right, rmask))
        parts = grown
        bit <<= 1
    return [
        ((left, ranked[lmask]), (right, ranked[rmask]))
        for left, lmask, right, rmask in parts
    ]


def antipode(f):
    """Antipode via the connected-graded recursion.

    S(F-empty) = F-empty and, for a key x of positive degree,
    S(x) = -x - sum S(x') x'' over the proper part of the coproduct (both
    legs of positive degree).  The proper legs have strictly smaller degree,
    so the recursion terminates; a per-call memo keeps it polynomial.  Only
    keys that are not external products run it: the rest are products of
    their direct-sum blocks, whose antipodes multiply in reverse order
    (:func:`_antipode_key`).  Each S(x) has int coefficients, so ``f``'s
    denominators are cleared first.
    """
    terms, den = _cleared(f)
    memo = {EMPTY_KEY: {EMPTY_KEY: 1}}
    shifts = {}
    out = {}
    for key, c in terms.items():
        for k2, d in _antipode_key(key, memo, shifts).items():
            out[k2] = out.get(k2, 0) + c * d
    return PnsymElement.over(out, den)


def _antipode_key(key, memo, shifts):
    """S(key) as a dict, memoized in ``memo``.

    The external product direct-sums the permutations, so a key with a head
    block (:func:`_head_length`) is the product of that block and the rest,
    and S, an anti-homomorphism, gives S(key) = S(rest) S(head): each factor
    from the memo, multiplied as dicts.  The head is indecomposable.  An
    indecomposable key x runs the recursion S(x) = -x - sum S(x') x'' over
    the proper splitting pairs (x', x'') of x, the right legs of each left
    leg x' summed first.
    """
    if key in memo:
        return memo[key]
    alpha, sigma = key
    i = _head_length(sigma)
    if i:
        head = _antipode_key((alpha[:i], sigma[:i]), memo, shifts)
        rest = _antipode_key((alpha[i:], tuple(x - i for x in sigma[i:])), memo, shifts)
        terms = {}
        _add_product(terms, rest, head, shifts)
    else:
        rights = {}  # per proper left leg x', minus the sum of its right legs
        for left, right in _key_coproduct(alpha, sigma):
            if left[0] and right[0]:  # proper part only
                after = rights.setdefault(left, {})
                after[right] = after.get(right, 0) - 1
        terms = {key: -1}
        for left, after in rights.items():
            _add_product(terms, _antipode_key(left, memo, shifts), after, shifts)
    result = memo[key] = {k2: d for k2, d in terms.items() if d}
    return result


def _head_length(sigma):
    """The least i with 0 < i < len(sigma) such that sigma maps its first i
    positions onto 1..i, or 0 when there is none (sigma is indecomposable)."""
    top = 0
    for i, v in enumerate(sigma[:-1], 1):
        if v > top:
            top = v
        if top == i:
            return i
    return 0


def _add_product(terms, f, g, shifts):
    """Add the external product of the term dicts ``f`` and ``g`` into
    ``terms``: the one kernel of :func:`external_mul` and the antipode.
    ``shifts`` keeps t + len(s), the right half of s (+) t, per (t, len(s))."""
    for (a, s), c in f.items():
        n = len(s)
        for (b, t), d in g.items():
            shifted = shifts.get((t, n))
            if shifted is None:
                shifted = shifts[t, n] = tuple(x + n for x in t)
            k2 = (a + b, s + shifted)
            terms[k2] = terms.get(k2, 0) + c * d


# ---------------------------------------------------------------------------
# rank


def rank(n):
    """Number of mopiscotions of size n: sum of C(n-1, n-k) * k! over k;
    0 for n < 0, where there are none."""
    total = term = 1 if n >= 0 else 0
    for k in range(1, n):  # term k+1 = term k * (n-k)(k+1)/k; k! divides term k
        term = term * (n - k) * (k + 1) // k
        total += term
    return total


# ---------------------------------------------------------------------------
# text and JSON forms


def _format_coeff_term(c, body, first):
    mag = abs(c)
    piece = body if mag == 1 else f"{mag}*{body}"
    if first:
        return piece if c > 0 else f"-{piece}"
    return f" + {piece}" if c > 0 else f" - {piece}"


def format_key(key):
    return comb.format_pair(*key)


def format_element(f):
    if not f.terms:
        return "0"
    out = []
    for key, c in f.sorted_terms():
        out.append(_format_coeff_term(c, "F" + format_key(key), not out))
    return "".join(out)


def format_tensor(t):
    if not t.terms:
        return "0"
    out = []
    for (k1, k2), c in t.sorted_terms():
        body = f"F{format_key(k1)} # F{format_key(k2)}"
        out.append(_format_coeff_term(c, body, not out))
    return "".join(out)


def element_to_json(f):
    return [
        {"coeff": str(c), "alpha": list(key[0]), "sigma": list(key[1])}
        for key, c in f.sorted_terms()
    ]


def tensor_to_json(t):
    return [
        {
            "coeff": str(c),
            "legs": [
                {"alpha": list(k[0]), "sigma": list(k[1])} for k in key
            ],
        }
        for key, c in t.sorted_terms()
    ]


def _rational(sc):
    num = sc.natural()
    if sc.peek() != "/":
        return Fraction(num)
    sc.take("/")
    start = sc.mark()
    den = sc.natural()
    if den == 0:
        raise comb.ParseError("zero denominator", start)
    return Fraction(num, den)


def parse_element(text):
    """Parse the element format, e.g. "3/2*F((1,2);[2,1]) - F((3);[1])".

    Weak keys are accepted and reduced on ingest; "0" denotes the zero
    element.  Whitespace may separate tokens but not split a number (see
    :class:`pnsym.combinatorics.Scanner`).
    """
    if text.strip() == "0":
        return ZERO
    sc = comb.Scanner(text)
    terms = []
    first = True
    while True:
        sign = 1
        ch = sc.peek()
        if ch == "+" and not first:
            sc.take("+")
        elif ch == "-":
            sc.take("-")
            sign = -1
        elif not first:
            raise comb.ParseError("expected '+' or '-' between terms", sc.pos)
        coeff = Fraction(1)
        if sc.peek() and sc.at_digit():
            coeff = _rational(sc)
            if sc.peek() == "*":
                sc.take("*")
        sc.take("F")
        terms.extend(from_weak_term(sign * coeff, sc.pair()).terms.items())
        first = False
        if sc.at_end():
            return PnsymElement.sum(terms)
