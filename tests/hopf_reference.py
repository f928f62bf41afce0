"""Maps the Hopf-axiom tests compare the library against, built on its
public products and coproduct from their definitions.

Imported by ``test_core.py`` and ``test_acceptance.py``; not a test module.
"""

from fractions import Fraction

from pnsym import core


def _key(key):
    return core.PnsymElement({key: Fraction(1)})


def tensor_of(f, g):
    """The pure tensor f (x) g of two elements."""
    terms = {}
    for k1, c in f.terms.items():
        for k2, d in g.terms.items():
            terms[(k1, k2)] = terms.get((k1, k2), Fraction(0)) + c * d
    return core.PnsymTensor(terms)


def tensor_mul(product, s, t):
    """Leg-wise product of two tensors.

    ``product`` multiplies elements; (a # b)(c # d) = product(a, c) # product(b, d).
    """
    out = core.PnsymTensor()
    for (a1, a2), c in s.terms.items():
        for (b1, b2), d in t.terms.items():
            legs = product(_key(a1), _key(b1)), product(_key(a2), _key(b2))
            out = out + (c * d) * tensor_of(*legs)
    return out


def convolve_maps(phi, psi, f):
    """m . (phi (x) psi) . Delta applied to f, for maps on elements.

    This is the convolution product in which the antipode is the inverse of
    the identity.
    """
    out = core.ZERO
    for (k1, k2), c in core.coproduct(f).terms.items():
        out = out + c * core.external_mul(phi(_key(k1)), psi(_key(k2)))
    return out
