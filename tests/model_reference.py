"""Operators of degree m read back as PNSym elements from the free model,
without ``core``.

On ``oracle.TriangularModel(m + 1)`` the generator x(1,m+1) goes to one
distinct monomial, with coefficient 1, under each reduced key of size m
(the ``distinct-images`` verify family).  So the image of x(1,m+1) under a
degree-m combination of the operators p_(alpha,sigma) names that
combination exactly: each monomial of the image is one key.  The table from
monomial to key is built from ``oracle`` and ``comb.mopiscotions`` alone,
so a product checked against it shares none of ``core``'s code.

Imported by ``test_core.py``; not a test module.
"""

from pnsym import combinatorics as comb
from pnsym import oracle


class Decoder:
    """The keys of size ``m``, each read back from its image of x(1,m+1)."""

    def __init__(self, m):
        self.model = oracle.TriangularModel(m + 1)
        self.x = self.model.gen(1, m + 1)
        self.keys = {}
        for key in comb.mopiscotions(m):
            image = self.apply(key, self.x)
            [(word, c)] = image.terms.items()
            assert c == 1 and word not in self.keys, key
            self.keys[word] = key

    def apply(self, key, y):
        """p_key(y) on the model."""
        return oracle.apply_pas(self.model, *key, y)

    def composite(self, f, g):
        """p_f o p_g, for keys ``f`` and ``g`` of size m, as
        ``{key: coefficient}``: its image of x(1,m+1), read back key by key."""
        image = self.apply(f, self.apply(g, self.x))
        return {self.keys[word]: c for word, c in image.terms.items()}
