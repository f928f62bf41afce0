"""The graded module PNSym: free rational-linear combinations of mopiscotions.

Basis keys are canonical (reduced) mopiscotions ``(alpha, sigma)``; elements
carry exact ``Fraction`` coefficients and drop zero terms eagerly, so equality
is plain key-by-key coefficient equality.  Three products/coproducts live
here:

* :func:`external_mul` -- concatenate compositions, direct-sum permutations
  (mirrors convolution of the twisted operators);
* :func:`internal_mul` -- sum over contingency tables (mirrors composition);
* :func:`coproduct` -- entrywise decompositions of the composition.

A reduced copy of classical NSym (basis ``H_alpha``) is included for
cross-checking the projection ``to_nsym`` and its right inverse
``from_nsym``.
"""

import math
from fractions import Fraction

from . import combinatorics as comb

EMPTY_KEY = ((), ())


def _normalized(terms):
    return {key: c for key, c in terms.items() if c}


def key_sort_key(key):
    """Canonical order: degree, then alpha lexicographically, then sigma.

    Within one degree no composition is a prefix of another, so plain
    lexicographic comparison of alpha is total there.
    """
    alpha, sigma = key
    return (sum(alpha), alpha, sigma)


class PnsymElement:
    """A finite rational combination of mopiscotion basis keys."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _normalized(terms or {})

    def __eq__(self, other):
        return isinstance(other, PnsymElement) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(-1, other))

    def __neg__(self):
        return scale(-1, self)

    def __rmul__(self, c):
        return scale(c, self)

    def __mul__(self, other):
        if isinstance(other, PnsymElement):
            return external_mul(self, other)
        return scale(other, self)

    def __repr__(self):
        return format_element(self)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: key_sort_key(kv[0]))

    def degrees(self):
        return sorted({sum(alpha) for alpha, _ in self.terms})


ZERO = PnsymElement()
UNIT = PnsymElement({EMPTY_KEY: Fraction(1)})


def from_weak_term(coeff, pair):
    """Single-term element keyed by the reduction of a weak mopiscotion."""
    coeff = Fraction(coeff)
    if not coeff:
        return ZERO
    alpha, sigma = pair
    if not comb.is_weak_composition(alpha):
        raise ValueError(f"not a weak composition: {alpha}")
    if not comb.is_permutation(sigma):
        raise ValueError(f"not a permutation: {sigma}")
    return PnsymElement({comb.reduce_pair(alpha, sigma): coeff})


def basis(alpha, sigma):
    return from_weak_term(1, (tuple(alpha), tuple(sigma)))


def add(f, g):
    terms = dict(f.terms)
    for key, c in g.terms.items():
        terms[key] = terms.get(key, Fraction(0)) + c
    return PnsymElement(terms)


def scale(c, f):
    c = Fraction(c)
    if not c:
        return ZERO
    return PnsymElement({key: c * v for key, v in f.terms.items()})


def equals(f, g):
    return f.terms == g.terms


def external_mul(f, g):
    """Bilinear extension of F(a;s) . F(b;t) = F(ab; s (+) t)."""
    terms = {}
    for (a, s), c in f.terms.items():
        for (b, t), d in g.terms.items():
            key = (comb.concat(a, b), comb.direct_sum(s, t))
            terms[key] = terms.get(key, Fraction(0)) + c * d
    return PnsymElement(terms)


def internal_mul(f, g):
    """Bilinear extension of the contingency-table product.

    F(a;s) * F(b;t) sums F(flatten(T); tau-of-T) over all tables T with row
    sums a and column sums b, each flattened row-major and paired with the
    substitution permutation of t into s, then reduced.  Keys of unequal
    degree contribute nothing.
    """
    terms = {}
    for (a, s), c in f.terms.items():
        for (b, t), d in g.terms.items():
            if sum(a) != sum(b):
                continue
            cd = c * d
            twist = comb.wreath_substitute(t, s)
            for table in comb.contingency_tables(a, b):
                key = comb.reduce_pair(comb.flatten_lex(table), twist)
                terms[key] = terms.get(key, Fraction(0)) + cd
    return PnsymElement(terms)


def degree_component(f, n):
    return PnsymElement(
        {key: c for key, c in f.terms.items() if sum(key[0]) == n}
    )


def counit(f):
    return f.terms.get(EMPTY_KEY, Fraction(0))


# ---------------------------------------------------------------------------
# coproduct and tensors


class PnsymTensor:
    """Rational combination of ordered pairs of mopiscotion keys."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _normalized(terms or {})

    def __eq__(self, other):
        return isinstance(other, PnsymTensor) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + c
        return PnsymTensor(terms)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        c = Fraction(c)
        return PnsymTensor({key: c * v for key, v in self.terms.items()})

    def __repr__(self):
        return format_tensor(self)

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (key_sort_key(kv[0][0]), key_sort_key(kv[0][1])),
        )


def tensor_of(f, g):
    """The pure tensor f (x) g of two elements."""
    terms = {}
    for k1, c in f.terms.items():
        for k2, d in g.terms.items():
            terms[(k1, k2)] = terms.get((k1, k2), Fraction(0)) + c * d
    return PnsymTensor(terms)


def coproduct(f):
    """Split each key's composition entrywise, keeping the permutation.

    Delta(F(a;s)) = sum of F(b;s) (x) F(c;s) over weak b + c = a, each leg
    reduced.  Distinct splittings may reduce to the same pair of keys, so
    coefficients accumulate.
    """
    terms = {}
    for (alpha, sigma), c in f.terms.items():
        for beta, gamma in comb.entrywise_splittings(alpha):
            key = (
                comb.reduce_pair(beta, sigma),
                comb.reduce_pair(gamma, sigma),
            )
            terms[key] = terms.get(key, Fraction(0)) + c
    return PnsymTensor(terms)


def tensor_external_mul(s, t):
    """Leg-wise external product of two tensors."""
    terms = {}
    for (a1, a2), c in s.terms.items():
        for (b1, b2), d in t.terms.items():
            left = external_mul(PnsymElement({a1: Fraction(1)}), PnsymElement({b1: Fraction(1)}))
            right = external_mul(PnsymElement({a2: Fraction(1)}), PnsymElement({b2: Fraction(1)}))
            cd = c * d
            for k1, e1 in left.terms.items():
                for k2, e2 in right.terms.items():
                    key = (k1, k2)
                    terms[key] = terms.get(key, Fraction(0)) + cd * e1 * e2
    return PnsymTensor(terms)


def tensor_internal_mul(s, t):
    """Leg-wise internal product of two tensors."""
    terms = {}
    for (a1, a2), c in s.terms.items():
        for (b1, b2), d in t.terms.items():
            left = internal_mul(PnsymElement({a1: Fraction(1)}), PnsymElement({b1: Fraction(1)}))
            right = internal_mul(PnsymElement({a2: Fraction(1)}), PnsymElement({b2: Fraction(1)}))
            cd = c * d
            for k1, e1 in left.terms.items():
                for k2, e2 in right.terms.items():
                    key = (k1, k2)
                    terms[key] = terms.get(key, Fraction(0)) + cd * e1 * e2
    return PnsymTensor(terms)


def antipode(f):
    """Antipode via the connected-graded recursion.

    S(F-empty) = F-empty and, for a key x of positive degree,
    S(x) = -x - sum S(x') x'' over the proper part of the coproduct (both
    legs of positive degree).  The proper legs have strictly smaller degree,
    so the recursion terminates; a per-call memo keeps it polynomial.
    """
    memo = {}
    out = {}
    for key, c in f.terms.items():
        for k2, d in _antipode_key(key, memo).items():
            out[k2] = out.get(k2, Fraction(0)) + c * d
    return PnsymElement(out)


def _antipode_key(key, memo):
    if key == EMPTY_KEY:
        return {EMPTY_KEY: Fraction(1)}
    if key in memo:
        return memo[key]
    alpha, sigma = key
    acc = {key: Fraction(-1)}
    for beta, gamma in comb.entrywise_splittings(alpha):
        if not any(beta) or not any(gamma):
            continue  # proper part only
        left = comb.reduce_pair(beta, sigma)
        right = comb.reduce_pair(gamma, sigma)
        s_left = _antipode_key(left, memo)
        prod = external_mul(
            PnsymElement(dict(s_left)), PnsymElement({right: Fraction(1)})
        )
        for k2, d in prod.terms.items():
            acc[k2] = acc.get(k2, Fraction(0)) - d
    result = _normalized(acc)
    memo[key] = result
    return result


def convolve_maps(phi, psi, f):
    """m . (phi (x) psi) . Delta applied to f, for maps on elements.

    ``phi`` and ``psi`` take and return elements; this is the convolution
    product in which the antipode is the inverse of the identity.
    """
    out = ZERO
    for (k1, k2), c in coproduct(f).terms.items():
        left = phi(PnsymElement({k1: Fraction(1)}))
        right = psi(PnsymElement({k2: Fraction(1)}))
        out = add(out, scale(c, external_mul(left, right)))
    return out


# ---------------------------------------------------------------------------
# rank and basis enumeration


def rank(n):
    """Number of mopiscotions of size n: sum of C(n-1, n-k) * k! over k."""
    if n == 0:
        return 1
    return sum(
        math.comb(n - 1, n - k) * math.factorial(k) for k in range(n + 1)
    )


def basis_keys(n):
    """All canonical basis keys of degree n, in canonical order."""
    yield from sorted(comb.mopiscotions(n), key=key_sort_key)


# ---------------------------------------------------------------------------
# classical NSym (reduced feature set, for cross-checks)


class NsymElement:
    """Rational combination of composition keys ``H_alpha``."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _normalized(terms or {})

    def __eq__(self, other):
        return isinstance(other, NsymElement) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + c
        return NsymElement(terms)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        c = Fraction(c)
        return NsymElement({key: c * v for key, v in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, c in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), len(kv[0]), kv[0])):
            parts.append(f"{c}*H{key}")
        return " + ".join(parts)


def nsym_basis(alpha):
    alpha = tuple(alpha)
    if not comb.is_composition(alpha):
        raise ValueError(f"not a composition: {alpha}")
    return NsymElement({alpha: Fraction(1)})


def to_nsym(f):
    """The projection F(a;s) -> H_a, extended linearly."""
    terms = {}
    for (alpha, _), c in f.terms.items():
        terms[alpha] = terms.get(alpha, Fraction(0)) + c
    return NsymElement(terms)


def from_nsym(h):
    """The injection H_a -> F(a; identity), extended linearly."""
    terms = {}
    for alpha, c in h.terms.items():
        key = (alpha, comb.identity(len(alpha)))
        terms[key] = terms.get(key, Fraction(0)) + c
    return PnsymElement(terms)


def nsym_external_mul(f, g):
    """H_a . H_b = H_(ab): concatenation, extended bilinearly."""
    terms = {}
    for a, c in f.terms.items():
        for b, d in g.terms.items():
            key = comb.concat(a, b)
            terms[key] = terms.get(key, Fraction(0)) + c * d
    return NsymElement(terms)


def nsym_internal_mul(f, g):
    """Contingency-table product with zero entries of the flattening dropped."""
    terms = {}
    for a, c in f.terms.items():
        for b, d in g.terms.items():
            if sum(a) != sum(b):
                continue
            cd = c * d
            for table in comb.contingency_tables(a, b):
                key = tuple(x for x in comb.flatten_lex(table) if x)
                terms[key] = terms.get(key, Fraction(0)) + cd
    return NsymElement(terms)


def nsym_coproduct(f):
    """Entrywise splittings with zeros dropped; plain dict of key pairs."""
    terms = {}
    for alpha, c in f.terms.items():
        for beta, gamma in comb.entrywise_splittings(alpha):
            key = (
                tuple(x for x in beta if x),
                tuple(x for x in gamma if x),
            )
            terms[key] = terms.get(key, Fraction(0)) + c
    return {key: c for key, c in terms.items() if c}


def tensor_to_nsym(t):
    """Apply the NSym projection to both legs of a tensor; plain dict."""
    terms = {}
    for ((a1, _), (a2, _)), c in t.terms.items():
        key = (a1, a2)
        terms[key] = terms.get(key, Fraction(0)) + c
    return {key: c for key, c in terms.items() if c}


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


class _Cursor:
    """Minimal scanner; whitespace is skipped between tokens."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char):
        if self.peek() != char:
            raise comb.ParseError(f"expected {char!r}", self.pos)
        self.pos += 1

    def at_end(self):
        return self.peek() == ""

    def natural(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise comb.ParseError("expected a number", start)
        return int(self.text[start:self.pos])

    def rational(self):
        num = self.natural()
        if self.peek() == "/":
            self.take("/")
            den = self.natural()
            if den == 0:
                raise comb.ParseError("zero denominator", self.pos)
            return Fraction(num, den)
        return Fraction(num)


def _scan_key(cur):
    """Read an F((..);[..]) key starting at the 'F'."""
    cur.skip_ws()
    if cur.peek() != "F":
        raise comb.ParseError("expected 'F'", cur.pos)
    cur.pos += 1
    cur.skip_ws()
    if cur.peek() != "(":
        raise comb.ParseError("expected '(' after F", cur.pos)
    start = cur.pos
    depth = 0
    while cur.pos < len(cur.text):
        ch = cur.text[cur.pos]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                cur.pos += 1
                return comb.parse_pair(cur.text[start:cur.pos])
        cur.pos += 1
    raise comb.ParseError("unbalanced parentheses in basis key", start)


def parse_element(text):
    """Parse the element format, e.g. "3/2*F((1,2);[2,1]) - F((3);[1])".

    Weak keys are accepted and reduced on ingest; "0" denotes the zero
    element; whitespace is ignored everywhere.
    """
    cur = _Cursor(text)
    if cur.peek() == "0":
        mark = cur.pos
        cur.pos += 1
        if cur.at_end():
            return ZERO
        cur.pos = mark
    result = ZERO
    first = True
    while True:
        sign = 1
        ch = cur.peek()
        if ch == "+" and not first:
            cur.take("+")
        elif ch == "-":
            cur.take("-")
            sign = -1
        elif not first:
            raise comb.ParseError("expected '+' or '-' between terms", cur.pos)
        coeff = Fraction(1)
        if cur.peek().isdigit():
            coeff = cur.rational()
            if cur.peek() == "*":
                cur.take("*")
        pair = _scan_key(cur)
        result = add(result, from_weak_term(sign * coeff, pair))
        first = False
        if cur.at_end():
            return result
