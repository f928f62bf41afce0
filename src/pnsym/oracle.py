"""Brute-force graded-bialgebra models for verifying operator formulas.

The main model is the free algebra on triangular generators x(i,j) for
1 <= i < j <= n, with x(k,k) treated as the unit, deg x(i,j) = j - i, and

    coproduct(x(i,j)) = sum over i <= k <= j of x(i,k) (x) x(k,j).

Words are tuples of (i,j) letters (unit letters never stored); elements are
rational combinations of words; tensors are combinations of fixed-arity
tuples of words.  Each coefficient is stored as an ``int`` when it is whole
and as a ``Fraction`` otherwise.  Everything -- iterated coproducts, leg-wise
degree projections, the permutation action on tensor factors, and the
twisted operators built from them -- is computed from first principles so
the closed formulas elsewhere in the package can be checked against it.

A second model (free on primitive degree-1 generators, cocommutative) backs
the checks that only hold under cocommutativity.  Both are graded
bialgebras with nothing truncated: products are whole concatenations, the
coproduct is extended to words multiplicatively, and each word's iterated
coproduct is a finite sum.
"""

import itertools
import operator
from fractions import Fraction

from . import combinatorics as comb


def letter_degree(letter):
    # triangular letters are (i,j) pairs of degree j-i; primitive letters
    # are plain ints of degree 1
    if isinstance(letter, tuple):
        return letter[1] - letter[0]
    return 1


def word_degree(word):
    return sum(letter_degree(x) for x in word)


def _summed(pairs):
    """The ``(key, coefficient)`` pairs summed per key, from 0."""
    terms = {}
    for key, c in pairs:
        terms[key] = terms.get(key, 0) + c
    return terms


class FreeElement:
    """Rational combination of words, zero terms dropped and whole
    coefficients stored as ``int``.

    The arithmetic here is kept apart from :mod:`pnsym.core` on purpose:
    the oracle is the reference the core is checked against.
    """

    __slots__ = ("terms",)
    arity = None

    def __init__(self, terms=None):
        self.terms = {
            w: c.numerator if c.denominator == 1 else c
            for w, c in (terms or {}).items()
            if c
        }

    def _like(self, terms):
        return FreeElement(terms)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        if self.arity != other.arity:
            raise ValueError("cannot add tensors of different arities")
        return self._like(
            _summed(itertools.chain(self.terms.items(), other.terms.items()))
        )

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        c = Fraction(c)
        return self._like({key: c * v for key, v in self.terms.items()})

    def __repr__(self):
        return format_free_element(self)


class FreeTensor(FreeElement):
    """Rational combination of arity-k tuples of words.

    The arity is part of the value; mixing arities is an error rather than
    a coercion.
    """

    __slots__ = ("arity",)

    def __init__(self, arity, terms=None):
        for legs in terms or ():
            if len(legs) != arity:
                raise ValueError(f"expected {arity} legs, got {len(legs)}")
        self.arity = arity
        super().__init__(terms)

    def _like(self, terms):
        return FreeTensor(self.arity, terms)

    def __repr__(self):
        return f"FreeTensor({self.arity}, {self.terms!r})"


def element(word, coeff=1):
    if not isinstance(coeff, int):
        coeff = Fraction(coeff)
    return FreeElement({tuple(word): coeff})


def one():
    return FreeElement({(): 1})


def tensor_of_elements(*elements_):
    """Pure tensor of the given elements, multiplied out."""
    terms = {(): 1}
    for e in elements_:
        terms = _summed(
            (legs + (w,), c * d)
            for legs, c in terms.items()
            for w, d in e.terms.items()
        )
    return FreeTensor(len(elements_), terms)


class _FreeModel:
    """What both free models share: the structural memos, each letter's
    splittings and each word's coproducts, that live and die with the
    instance, so no value computed on one model is read on another."""

    def __init__(self):
        self._coproducts = {}  # (k, word) -> ((legs, multiplicity), ...), its k-fold coproduct
        self._splits = {}  # (letter, k) -> its k-leg splittings, see letter_splits

    def letter_splits(self, letter, k):
        """The k-leg splittings of one letter, each as ``(legs, touched)``:
        ``touched`` holds ``(r, degree of leg r)`` for each nonempty leg r."""
        key = (letter, k)
        splits = self._splits.get(key)
        if splits is None:
            splits = self._splits[key] = tuple(
                (legs, tuple((r, word_degree(leg)) for r, leg in enumerate(legs) if leg))
                for legs in self.letter_coproduct_legs(letter, k)
            )
        return splits


class TriangularModel(_FreeModel):
    """Free algebra on x(i,j), 1 <= i < j <= n; vacuous for n = 1."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("model size must be >= 1")
        super().__init__()
        self.n = n

    def generators(self):
        return [
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
        ]

    def gen(self, i, j):
        if not (1 <= i < j <= self.n):
            raise ValueError(f"no generator x({i},{j}) in a size-{self.n} model")
        return element(((i, j),))

    def letter_coproduct_legs(self, letter, k):
        """All k-leg splittings of one generator: chains i = u0 <= ... <= uk = j."""
        i, j = letter
        if k == 0:
            return  # positive degree dies under the counit
        for mids in itertools.combinations_with_replacement(range(i, j + 1), k - 1):
            u = (i,) + mids + (j,)
            yield tuple(
                ((u[r], u[r + 1]),) if u[r] < u[r + 1] else ()
                for r in range(k)
            )


class PrimitiveTensorModel(_FreeModel):
    """Free algebra on primitive degree-1 generators 1..g (cocommutative)."""

    def __init__(self, g):
        if g < 1:
            raise ValueError("need at least one generator")
        super().__init__()
        self.g = g

    def generators(self):
        return list(range(1, self.g + 1))

    def gen(self, a):
        if not (1 <= a <= self.g):
            raise ValueError(f"no generator y({a}) in a {self.g}-generator model")
        return element((a,))

    def letter_coproduct_legs(self, letter, k):
        # primitive: the letter lands in exactly one leg
        for r in range(k):
            yield tuple((letter,) if q == r else () for q in range(k))


# ---------------------------------------------------------------------------
# structural operations


def element_mul(f, g):
    """Product in either model: concatenation of words, bilinear."""
    return FreeElement(_summed(
        (w1 + w2, c * d)
        for w1, c in f.terms.items()
        for w2, d in g.terms.items()
    ))


def _word_delta(model, k, word, target=None):
    """The k-fold coproduct of one word, as {legs: int multiplicity}.

    Each partial splitting carries the degree each leg may still take: with
    ``target`` that is ``target[r]`` less what leg r holds, and a splitting
    is dropped as soon as a leg overshoots, letter by letter, so only the
    legs that can still meet their bounds are ever built.  Without it each
    leg may take the whole word's degree, so nothing is dropped.  Only the
    legs a letter lands in are tested against their room.
    """
    if target is None:
        target = (word_degree(word),) * k
    terms = {((),) * k: (tuple(target), 1)}  # legs -> (room per leg, multiplicity)
    for letter in word:
        new = {}
        for legs, touched in model.letter_splits(letter, k):
            for key, (room, c) in terms.items():
                left = list(room)
                for r, d in touched:
                    left[r] -= d
                    if left[r] < 0:
                        break
                else:
                    merged = tuple(map(operator.add, key, legs))
                    old = new.get(merged)
                    new[merged] = (tuple(left), c + old[1] if old else c)
        terms = new
        if not terms:
            break
    return {legs: c for legs, (_, c) in terms.items()}


def delta_power(model, k, f):
    """The k-fold coproduct as an arity-k tensor.

    Extended to words multiplicatively (the coproduct is an algebra
    morphism); k = 0 is the counit landing in arity-0 tensors, k = 1 the
    identity.  Each word's k-fold coproduct is computed once per model and
    kept there.
    """
    terms = {}
    for word, c in f.terms.items():
        spread = model._coproducts.get((k, word))
        if spread is None:
            spread = model._coproducts[k, word] = tuple(_word_delta(model, k, word).items())
        for legs, mult in spread:
            terms[legs] = terms.get(legs, 0) + c * mult
    return FreeTensor(k, terms)


def m_power(t):
    """Multiply all legs together (in order); arity 0 embeds scalars."""
    return FreeElement(_summed(
        (tuple(x for leg in legs for x in leg), c) for legs, c in t.terms.items()
    ))


def project_multi(t, alpha):
    """Keep the terms whose leg-wise degrees equal alpha entrywise."""
    if len(alpha) != t.arity:
        raise ValueError(
            f"projection of length {len(alpha)} on arity-{t.arity} tensor"
        )
    terms = {
        legs: c
        for legs, c in t.terms.items()
        if all(word_degree(legs[r]) == alpha[r] for r in range(t.arity))
    }
    return FreeTensor(t.arity, terms)


def permute_tensor(t, pi):
    """Left action of pi: leg r of the result is leg pi^{-1}(r) of the input."""
    if len(pi) != t.arity:
        raise ValueError(
            f"permutation of degree {len(pi)} on arity-{t.arity} tensor"
        )
    inv = comb.inverse(pi)
    return FreeTensor(t.arity, _summed(
        (tuple(legs[inv[r] - 1] for r in range(t.arity)), c)
        for legs, c in t.terms.items()
    ))


def degree_part(f, n):
    return FreeElement(
        {w: c for w, c in f.terms.items() if word_degree(w) == n}
    )


def _slot_targets(alpha, sigma):
    """Per-leg degree targets: slot r of the untwisted tensor is leg sigma(r)."""
    if len(sigma) != len(alpha):
        raise ValueError("composition and permutation lengths differ")
    target = [0] * len(alpha)
    for a, s in zip(alpha, sigma):
        target[s - 1] = a
    return target


def apply_pas(model, alpha, sigma, f):
    """The twisted operator m^[k] . P_alpha . sigma^{-1} . coproduct^[k].

    Each word of degree ``sum(alpha)`` is split straight toward its targets
    on every call: leg sigma(r) must end with degree alpha_r, so a partial
    splitting dies once a leg overshoots, and the output word is read off
    the legs in the order sigma(1), ..., sigma(k).  No full tensor is
    built; the literal composition of :func:`delta_power`,
    :func:`permute_tensor`, :func:`project_multi` and :func:`m_power` is
    the reference it is tested against.  A word of another degree, like
    every word under a negative part, has image 0.
    """
    if len(sigma) != len(alpha):
        raise ValueError("composition and permutation lengths differ")
    n = sum(alpha)
    terms = {}
    target = None
    for word, c in f.terms.items():
        # legs sum to the word's degree, so bounded legs meet alpha exactly
        if word_degree(word) != n:
            continue
        if target is None:
            if any(a < 0 for a in alpha):
                break  # no leg has negative degree
            target = _slot_targets(alpha, sigma)
        for legs, mult in _word_delta(model, len(alpha), word, target).items():
            w = tuple(x for s in sigma for x in legs[s - 1])
            terms[w] = terms.get(w, 0) + c * mult
    return FreeElement(terms)


def convolve(model, phi, psi, f):
    """The convolution (phi * psi)(f) = m((phi (x) psi)(coproduct f)), by
    Sweedler expansion in the model."""
    return FreeElement(_summed(
        (w, c * d)
        for (w1, w2), c in delta_power(model, 2, f).terms.items()
        for w, d in element_mul(phi(element(w1)), psi(element(w2))).terms.items()
    ))


def unit_counit(f):
    """The unit after the counit: the constant term of ``f``."""
    return FreeElement({(): f.terms.get((), 0)})


def evaluate_pnsym(model, f, x):
    """Act by an element of PNSym: each basis key acts as its operator."""
    return FreeElement(_summed(
        (w, c * d)
        for (alpha, sigma), c in f.terms.items()
        for w, d in apply_pas(model, alpha, sigma, x).terms.items()
    ))


def apply_pas_on_tensor_square(model, alpha, sigma, t):
    """The twisted operator of the tensor-square bialgebra H (x) H.

    Computed directly from the componentwise structure: coproducts are
    taken leg-wise (each leg bounded by its slot's target) and zipped, the
    permutation moves the zipped slots, the projection filters on total
    slot degree, and multiplication is componentwise.  Input and output are
    arity-2 tensors.
    """
    if t.arity != 2:
        raise ValueError("expected an arity-2 tensor")
    k = len(alpha)
    target = _slot_targets(alpha, sigma)
    out = {}
    for (w, v), c in t.terms.items():
        dw = _word_delta(model, k, w, target)
        dv = _word_delta(model, k, v, target)
        for wlegs, cw in dw.items():
            for vlegs, cv in dv.items():
                # slot r of the untwisted zip holds (wlegs[sigma(r)], vlegs[sigma(r)])
                pairs = tuple(
                    (wlegs[sigma[r] - 1], vlegs[sigma[r] - 1]) for r in range(k)
                )
                if any(
                    word_degree(a) + word_degree(b) != alpha[r]
                    for r, (a, b) in enumerate(pairs)
                ):
                    continue
                left = tuple(x for a, _ in pairs for x in a)
                right = tuple(x for _, b in pairs for x in b)
                key = (left, right)
                out[key] = out.get(key, 0) + c * cw * cv
    return FreeTensor(2, out)


# ---------------------------------------------------------------------------
# text form


def format_word(word):
    if not word:
        return "1"
    pieces = []
    for letter in word:
        if isinstance(letter, tuple):
            pieces.append(f"x({letter[0]},{letter[1]})")
        else:
            pieces.append(f"y({letter})")
    return "".join(pieces)


def format_free_element(f):
    if not f.terms:
        return "0"
    parts = []
    for word, c in sorted(
        f.terms.items(), key=lambda kv: (word_degree(kv[0]), len(kv[0]), kv[0])
    ):
        body = format_word(word)
        mag = abs(c)
        piece = body if (mag == 1 and word) else f"{mag}*{body}"
        if not parts:
            parts.append(piece if c > 0 else f"-{piece}")
        else:
            parts.append(f" + {piece}" if c > 0 else f" - {piece}")
    return "".join(parts)
