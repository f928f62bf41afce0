"""Classical NSym (basis ``H_alpha``) built from its definitions, and the
projection PNSym -> NSym that forgets the twists, with its section.

The bridge tests check the library's products and coproduct against this.
The internal product sums over :func:`pnsym.combinatorics.contingency_tables`
alone and reads none of ``core.internal_mul``'s internals, so the two sides
of a bridge check share no kernel.  Its sums go through its own
:func:`_summed`, so it reads nothing private of the library.

Imported by ``test_core.py``, ``test_coefficients.py`` and
``test_acceptance.py``; not a test module.
"""

from pnsym import combinatorics as comb
from pnsym import core


def _summed(pairs):
    """The ``(key, coefficient)`` pairs summed per key, zeros dropped and
    whole coefficients stored as ``int``."""
    terms = {}
    for key, c in pairs:
        terms[key] = terms.get(key, 0) + c
    return {key: c.numerator if c.denominator == 1 else c for key, c in terms.items() if c}


class NsymElement:
    """Rational combination of composition keys ``H_alpha``, its ``terms``
    in the form :func:`_summed` leaves them."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    @classmethod
    def sum(cls, pairs):
        return cls(_summed(pairs))

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __rmul__(self, c):
        return self.sum((key, c * v) for key, v in self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        ordered = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), len(kv[0]), kv[0]))
        return " + ".join(f"{c}*H{key}" for key, c in ordered)


def nsym_basis(alpha):
    alpha = tuple(alpha)
    if not all(type(a) is int and a >= 1 for a in alpha):
        raise ValueError(f"not a composition: {alpha}")
    return NsymElement({alpha: 1})


def to_nsym(f):
    """The projection F(a;s) -> H_a, extended linearly."""
    return NsymElement.sum((alpha, c) for (alpha, _), c in f.terms.items())


def from_nsym(h):
    """The injection H_a -> F(a; identity), extended linearly."""
    return core.PnsymElement.sum(
        ((alpha, comb.identity(len(alpha))), c) for alpha, c in h.terms.items()
    )


def nsym_external_mul(f, g):
    """H_a . H_b = H_(ab): concatenation, extended bilinearly."""
    return NsymElement.sum(
        (comb.concat(a, b), c * d)
        for a, c in f.terms.items()
        for b, d in g.terms.items()
    )


def nsym_internal_mul(f, g):
    """H_a * H_b sums H over the tables with row sums a and column sums b,
    each read row by row with its zero entries dropped, extended bilinearly.
    Keys of unequal degree have no tables."""
    return NsymElement.sum(
        (values, c * d)
        for a, c in f.terms.items()
        for b, d in g.terms.items()
        for _, values in comb.contingency_tables(a, b)
    )


def nsym_coproduct(f):
    """Entrywise splittings with zeros dropped; plain dict of key pairs."""
    return _summed(
        ((tuple(x for x in beta if x), tuple(x for x in gamma if x)), c)
        for alpha, c in f.terms.items()
        for beta, gamma in comb.entrywise_splittings(alpha)
    )


def tensor_to_nsym(t):
    """Apply the NSym projection to both legs of a tensor; plain dict."""
    return _summed(((a1, a2), c) for ((a1, _), (a2, _)), c in t.terms.items())
