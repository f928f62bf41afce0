"""Exact computer algebra for twisted projecting operators on graded
bialgebras and for the Hopf algebra their basis keys span.

The working pieces:

- :mod:`pnsym.combinatorics` — compositions, permutations, key reduction,
  contingency tables, and the permutation calculus behind composed operators.
- :mod:`pnsym.core` — the Hopf algebra itself: both products, coproduct,
  antipode and rank.
- :mod:`pnsym.oracle` — free models on which every operator is evaluated
  from first principles.
- :mod:`pnsym.checker` — an expression language for operator identities with
  exact degree-wise zero testing.
- :mod:`pnsym.verify` — the brute-force driver re-checking every structural
  identity on the models.

Import the module you need (``from pnsym import core``); the package itself
re-exports nothing.
"""

__version__ = "0.1.0"
