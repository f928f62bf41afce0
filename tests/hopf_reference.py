"""Maps the Hopf-axiom tests compare the library against, built from their
definitions.  The coproduct does not read ``core``'s splitting kernel, and
the antipode built on it neither reads that kernel nor ``core``'s external
product; the rest uses the public products.

Imported by ``test_core.py`` and ``test_acceptance.py``; not a test module.
"""

import itertools
from fractions import Fraction

from pnsym import combinatorics as comb
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
    """Leg-wise product of two tensors, its terms summed once.

    ``product`` multiplies elements; (a # b)(c # d) = product(a, c) # product(b, d).
    """
    return core.PnsymTensor.sum(
        (legs, c * d * e)
        for (a1, a2), c in s.terms.items()
        for (b1, b2), d in t.terms.items()
        for legs, e in tensor_of(
            product(_key(a1), _key(b1)), product(_key(a2), _key(b2))
        ).terms.items()
    )


def coproduct(f):
    """The coproduct from its definition, apart from ``core``'s kernel.

    F(a;s) gives F(b;s) (x) F(a - b;s) for each weak b <= a entrywise, in
    ``itertools.product`` order, each leg reduced by ``comb.reduce_pair``;
    the terms are summed in order of first appearance.
    """
    terms = {}
    for (alpha, sigma), c in f.terms.items():
        for beta in itertools.product(*(range(x + 1) for x in alpha)):
            gamma = tuple(x - b for x, b in zip(alpha, beta))
            pair = comb.reduce_pair(beta, sigma), comb.reduce_pair(gamma, sigma)
            terms[pair] = terms.get(pair, 0) + c
    return core.PnsymTensor(terms)


def convolve_maps(phi, psi, f):
    """m . (phi (x) psi) . Delta applied to f, for maps on elements.

    This is the convolution product in which the antipode is the inverse of
    the identity.  The terms are summed once, by ``PnsymElement.sum``.
    """
    return core.PnsymElement.sum(
        (key, c * d)
        for (k1, k2), c in core.coproduct(f).terms.items()
        for key, d in core.external_mul(phi(_key(k1)), psi(_key(k2))).terms.items()
    )


def antipode(f):
    """The antipode by the connected-graded recursion on :func:`coproduct`,
    each proper term's external product built from ``comb.concat`` and
    ``comb.direct_sum``, not ``core``'s kernel, and the terms summed by
    ``PnsymElement.sum``.

    S(x) = -x - sum S(x') x'' over the coproduct terms of x with both legs
    of positive degree.  Terms come in the order the recursion meets them.
    """
    memo = {}
    return core.PnsymElement.sum(
        (k2, c * d)
        for key, c in f.terms.items()
        for k2, d in _antipode_key(key, memo).terms.items()
    )


def _antipode_key(key, memo):
    if key == core.EMPTY_KEY:
        return core.UNIT
    if key in memo:
        return memo[key]
    acc = [(key, -1)]
    for ((a, s), (b, t)), c in coproduct(_key(key)).terms.items():
        if not a or not b:
            continue  # proper part only
        acc.extend(
            ((comb.concat(a2, b), comb.direct_sum(s2, t)), -c * d)
            for (a2, s2), d in _antipode_key((a, s), memo).terms.items()
        )
    result = core.PnsymElement.sum(acc)
    memo[key] = result
    return result
