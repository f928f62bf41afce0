"""The Hopf algebra of basis keys: products, coproduct, antipode, bridge."""

import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pnsym import combinatorics as comb
from pnsym import core

import hopf_reference
import model_reference
from hopf_reference import convolve_maps, tensor_mul, tensor_of
from nsym_reference import (
    from_nsym,
    nsym_basis,
    nsym_coproduct,
    nsym_external_mul,
    nsym_internal_mul,
    tensor_to_nsym,
    to_nsym,
)
from test_coefficients import canonical
from test_combinatorics import reference_tables


F = core.basis
UNIT = core.UNIT
ZERO = core.ZERO


def keys_up_to(n):
    return [key for s in range(n + 1) for key in comb.mopiscotions(s)]


# strategies ------------------------------------------------------------------

@st.composite
def elements(draw, max_size=3, max_terms=3):
    pool = keys_up_to(max_size)
    picks = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=max_terms))
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=len(picks),
            max_size=len(picks),
        )
    )
    out = ZERO
    for key, c in zip(picks, coeffs):
        out = out + (core.from_weak_term(c, key) if c else ZERO)
    return out


# construction ----------------------------------------------------------------

def test_from_weak_term_reduces_on_ingest():
    assert core.from_weak_term(1, ((0, 1, 1, 0), (4, 2, 3, 1))) == F((1, 1), (1, 2))
    assert core.from_weak_term(1, ((1, 0, 0, 1), (4, 2, 3, 1))) == F((1, 1), (2, 1))
    assert core.from_weak_term(0, ((1,), (1,))) == ZERO
    assert core.from_weak_term(Fraction(-1, 2), ((0,), (1,))) == Fraction(-1, 2) * UNIT


def test_from_weak_term_validates():
    with pytest.raises(ValueError):
        core.from_weak_term(1, ((1, -1), (1, 2)))
    with pytest.raises(ValueError):
        core.from_weak_term(1, ((1, 1), (1, 1)))


@pytest.mark.parametrize("pair", [((1,), (1, 2)), ((True,), (1,)), ((-1,), (1,))])
def test_from_weak_term_validates_a_zero_term_too(pair):
    with pytest.raises(ValueError) as nonzero:
        core.from_weak_term(1, pair)
    with pytest.raises(ValueError) as zero:
        core.from_weak_term(0, pair)
    assert str(zero.value) == str(nonzero.value)


@pytest.mark.parametrize(
    "alpha, sigma",
    [((True, 2), (2, 1)), ((1,), (True,)), ((0, 1), (1, False)), ((1.0,), (1,))],
)
def test_basis_rejects_entries_that_are_not_ints(alpha, sigma):
    with pytest.raises(ValueError):
        core.basis(alpha, sigma)


def test_nsym_basis_rejects_entries_that_are_not_ints():
    with pytest.raises(ValueError):
        nsym_basis((True, 1))


def test_collisions_accumulate():
    f = core.from_weak_term(1, ((1, 0), (1, 2))) + core.from_weak_term(1, ((0, 1), (2, 1)))
    assert f == 2 * F((1,), (1,))


# the two products -------------------------------------------------------------

def test_external_mul_concatenates():
    lhs = core.external_mul(F((1,), (1,)), F((2, 1), (2, 1)))
    assert lhs == F((1, 2, 1), (1, 3, 2))
    assert core.external_mul(UNIT, F((2,), (1,))) == F((2,), (1,))
    assert core.external_mul(F((2,), (1,)), UNIT) == F((2,), (1,))


def test_tables_match_the_reference_tables_in_order():
    # nonzero entries of the row-major flattening, tables in reference order
    for n in range(6):
        for a in comb.compositions(n):
            for b in comb.compositions(n):
                tables = core._tables(a, b, {})
                want = []
                for table in reference_tables(a, b):
                    flat = [x for row in table for x in row]
                    kept = tuple(i for i, x in enumerate(flat) if x)
                    want.append((kept, tuple(flat[i] for i in kept)))
                assert [alpha for _, alpha, _ in tables] == [alpha for _, alpha in want]
                # each table's slot array maps a 1-based flattening position
                # to the index of its nonzero entry there, and nothing else
                for (slot, alpha, k), (kept, _) in zip(tables, want):
                    assert k == len(alpha)
                    assert len(slot) == len(a) * len(b) + 1
                    where = {i + 1: j for j, i in enumerate(kept)}
                    assert slot == [where.get(p) for p in range(len(slot))]


def test_internal_mul_frozen():
    f = F((1, 1), (2, 1))
    assert core.internal_mul(f, f) == F((1, 1), (1, 2)) + F((1, 1), (2, 1))
    # mismatched sizes multiply to zero
    assert core.internal_mul(F((1,), (1,)), F((2,), (1,))) == ZERO
    # the empty key is idempotent
    assert core.internal_mul(UNIT, UNIT) == UNIT


def test_internal_mul_against_single_projection():
    f = F((1, 1), (1, 2))
    assert core.internal_mul(F((2,), (1,)), f) == f
    assert core.internal_mul(f, F((2,), (1,))) == f


def test_per_degree_internal_units():
    """F((n);[1]) is a two-sided unit for the internal product in degree n."""
    for n in range(1, 6):
        unit_n = F((n,), (1,))
        for key in comb.mopiscotions(n):
            b = F(*key)
            assert core.internal_mul(unit_n, b) == b
            assert core.internal_mul(b, unit_n) == b


@given(elements(), elements(), elements())
@settings(max_examples=40, deadline=None)
def test_products_associate(f, g, h):
    assert core.external_mul(core.external_mul(f, g), h) == core.external_mul(
        f, core.external_mul(g, h)
    )
    assert core.internal_mul(core.internal_mul(f, g), h) == core.internal_mul(
        f, core.internal_mul(g, h)
    )


@given(elements(), elements())
@settings(max_examples=40, deadline=None)
def test_products_distribute(f, g):
    h = F((1, 1), (2, 1))
    assert core.external_mul(f + g, h) == core.external_mul(f, h) + core.external_mul(g, h)
    assert core.internal_mul(h, f + g) == core.internal_mul(h, f) + core.internal_mul(h, g)


# the table kernel against a reference written from the definition --------------

def _tables(a, b):
    """Tables with row sums ``a`` and column sums ``b``: rows are candidate
    splittings of each row sum, kept when the column sums come out right."""
    rows = [
        [row for row in itertools.product(range(x + 1), repeat=len(b)) if sum(row) == x]
        for x in a
    ]
    for table in itertools.product(*rows):
        if all(sum(row[j] for row in table) == y for j, y in enumerate(b)):
            yield table


def _reference_internal_mul(f, g):
    terms = {}
    for (a, s), c in f.terms.items():
        for (b, t), d in g.terms.items():
            k, l = len(s), len(t)
            # cell (i, j) of the k x l grid carries k (t(j) - 1) + s(i)
            twist = tuple(k * (t[j] - 1) + s[i] for i in range(k) for j in range(l))
            for table in _tables(a, b):
                flat = tuple(x for row in table for x in row)
                key = comb.reduce_pair(flat, twist)
                terms[key] = terms.get(key, Fraction(0)) + c * d
    return core.PnsymElement(terms)


KEYS_BY_DEGREE = [list(comb.mopiscotions(n)) for n in range(6)]


def _random_element(rng, degrees):
    """Up to five terms with degrees drawn from ``degrees``, with whole and
    fractional coefficients."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        key = rng.choice(KEYS_BY_DEGREE[rng.choice(degrees)])
        terms[key] = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
    return core.PnsymElement(terms)


BRACKET = F((1, 2), (1, 2)) - F((2, 1), (1, 2))


def _bracket_fourth_power():
    """Nonzero, and zero once more multiplied by the bracket (k(1,2) = 5)."""
    power = BRACKET
    for _ in range(3):
        power = _reference_internal_mul(power, BRACKET)
    return power


def _kernel_cases():
    rng = random.Random(20240126)
    for _ in range(40):
        # two degrees up to 5 shared by both factors, 0 (the empty key) at times
        degrees = rng.sample(range(6), 2)
        yield _random_element(rng, degrees), _random_element(rng, degrees)
    # whole and fractional products accumulating on the same two keys
    yield F((1, 1), (2, 1)), 2 * F((1, 1), (1, 2)) + Fraction(1, 3) * F((1, 1), (2, 1))
    # every term of this product cancels
    yield _bracket_fourth_power(), BRACKET
    yield UNIT, UNIT
    yield ZERO, BRACKET


def test_internal_products_match_the_reference():
    for f, g in _kernel_cases():
        got = core.internal_mul(f, g)
        assert got == _reference_internal_mul(f, g)
        assert canonical(got.terms)


def _ranked_by_sorting(key1, key2):
    """F(key1) * F(key2), each table's twist standardized by sorting."""
    (a, s), (b, t) = key1, key2
    twist = comb.wreath_substitute(t, s)
    return core.PnsymElement.sum(
        ((alpha, comb.standardize([twist[i] for i in kept])), 1)
        for kept, alpha in comb.contingency_tables(a, b)
    )


def _rank_cases():
    """Every key pair of degree up to 4; at degree 5, every pair of
    compositions, each with two seeded pairs of permutations."""
    for keys in KEYS_BY_DEGREE[:5]:
        yield from itertools.product(keys, repeat=2)
    rng = random.Random(20241018)
    for a, b in itertools.product(comb.compositions(5), repeat=2):
        for _ in range(2):
            s = tuple(rng.sample(range(1, len(a) + 1), len(a)))
            t = tuple(rng.sample(range(1, len(b) + 1), len(b)))
            yield (a, s), (b, t)


def test_each_table_ranks_its_twist_as_sorting_does():
    for key1, key2 in _rank_cases():
        got = core.internal_mul(core.PnsymElement({key1: 1}), core.PnsymElement({key2: 1}))
        assert got == _ranked_by_sorting(key1, key2), (key1, key2)


@pytest.mark.parametrize("a", [(3, 3), (3, 4)])
def test_tables_with_one_support_each_rank_their_own_twist(a):
    # two tables of a x a share their nonzero cells: [[2,1],[1,2]] and
    # [[1,2],[2,1]] for (3,3), [[2,1],[1,3]] and [[1,2],[2,2]] for (3,4)
    supports = [kept for kept, _ in comb.contingency_tables(a, a)]
    assert len(set(supports)) == len(supports) - 1
    keys = [key for key in comb.mopiscotions(sum(a)) if key[0] == a]
    for key1, key2 in itertools.product(keys, repeat=2):
        f, g = core.PnsymElement({key1: 1}), core.PnsymElement({key2: 1})
        assert core.internal_mul(f, g) == _reference_internal_mul(f, g), (key1, key2)


@st.composite
def mixtures(draw):
    """Two elements of one degree up to 4, their keys of any lengths, so
    that one product meets a set of kept cells under several k * l."""
    keys = KEYS_BY_DEGREE[draw(st.integers(min_value=0, max_value=4))]
    return tuple(
        core.PnsymElement.sum(
            (key, draw(st.integers(min_value=1, max_value=3)))
            for key in draw(st.lists(st.sampled_from(keys), max_size=4))
        )
        for _ in range(2)
    )


@given(mixtures())
# cells 0..3 are kept in a 2 x 2 table, then in a 2 x 3 one: a slot array
# built for one shape would misplace the other's cells
@example((F((2, 2), (1, 2)) + F((3, 1), (2, 1)), F((2, 2), (2, 1)) + F((2, 1, 1), (1, 3, 2))))
@settings(max_examples=60, deadline=None)
def test_products_of_mixed_lengths_match_the_reference(pair):
    f, g = pair
    assert core.internal_mul(f, g) == _reference_internal_mul(f, g)


def test_the_reference_bracket_power_cancels():
    power = _bracket_fourth_power()
    assert power
    assert not _reference_internal_mul(power, BRACKET)


def test_every_internal_product_up_to_size_4_matches_the_free_model():
    # the model side reads no core code: x(1,m+1)'s image of p_f(p_g(.))
    # names the product's keys one monomial each
    pairs = 0
    for m in range(1, 5):
        decoder = model_reference.Decoder(m)
        for f, g in itertools.product(comb.mopiscotions(m), repeat=2):
            got = core.internal_mul(core.PnsymElement({f: 1}), core.PnsymElement({g: 1}))
            assert got.terms == decoder.composite(f, g), (f, g)
            pairs += 1
    assert pairs == 2532


# composition powers and their memo ---------------------------------------------

def _typed(f):
    return {key: (type(c), c) for key, c in f.terms.items()}


@given(elements(max_size=4, max_terms=4), st.lists(elements(max_size=4, max_terms=4), max_size=4))
# fractions on both sides, and a later left factor that shares a key with an
# earlier one, so that it reads a row the memo already holds
@example(
    Fraction(1, 2) * F((1, 1), (2, 1)) + F((2,), (1,)) - Fraction(2, 3) * F((1, 1), (1, 2)),
    [Fraction(3, 4) * F((1, 1), (1, 2)), F((1, 1), (1, 2)) + Fraction(1, 3) * F((2,), (1,))],
)
@settings(max_examples=60, deadline=None)
def test_one_shared_memo_gives_every_reference_product(g, fs):
    # composition_powers relies on this: one memo of the right factor serves
    # different left factors, later ones reading rows earlier ones computed
    rows = core._Rows(g)
    for f in fs + [g, g]:
        got = core.internal_mul(f, g, rows=rows)
        assert _typed(got) == _typed(_reference_internal_mul(f, g))


def test_a_memo_gives_the_square_and_is_keyword_only():
    rows = core._Rows(BRACKET)
    got = core.internal_mul(BRACKET, BRACKET, rows=rows)
    assert _typed(got) == _typed(_reference_internal_mul(BRACKET, BRACKET))
    # the memo is keyword-only, so that a caller's positional arguments stay (f, g)
    with pytest.raises(TypeError):
        core.internal_mul(BRACKET, BRACKET, rows)


def test_an_idempotent_base_yields_one_power():
    powers = core.composition_powers(F((2,), (1,)))
    assert list(itertools.islice(powers, 3)) == [F((2,), (1,))]  # bounded, should it not stop


def test_a_base_whose_powers_keep_changing_keeps_going():
    powers = core.composition_powers(2 * F((1,), (1,)))
    assert list(itertools.islice(powers, 5)) == [c * F((1,), (1,)) for c in (2, 4, 8, 16, 32)]


# products with an all-ones factor, read from closed forms --------------------------

@pytest.mark.parametrize("n", range(5))
def test_all_ones_times_all_ones_is_every_permutation(n):
    ones = (1,) * n
    every = core.PnsymElement.sum(
        ((ones, p), 1) for p in itertools.permutations(range(1, n + 1))
    )
    for s, t in itertools.product(itertools.permutations(range(1, n + 1)), repeat=2):
        assert core.internal_mul(F(ones, s), F(ones, t)) == every, (s, t)


def test_a_product_with_all_ones_on_the_right_does_not_depend_on_s():
    for n in range(1, 5):
        ones = (1,) * n
        for t in itertools.permutations(range(1, n + 1)):
            products = {}
            for a, s in KEYS_BY_DEGREE[n]:
                got = core.internal_mul(F(a, s), F(ones, t))
                assert products.setdefault(a, got) == got, (a, s, t)


def _all_ones_cases():
    """Key pairs with an all-ones side, each with two coefficients: at size
    5, every composition against 1^5 on either side with nine seeded pairs
    of permutations; at size 6, 15 seeded pairs on either side."""
    rng = random.Random(20261020)
    coeffs = (1, 2, -3, Fraction(1, 2), Fraction(-2, 3))

    def key(a):
        return a, tuple(rng.sample(range(1, len(a) + 1), len(a)))

    five = [a for a in comb.compositions(5) for _ in range(9)]
    six = list(comb.compositions(6))
    for right in (True, False):
        for a in five + rng.choices(six, k=15):
            ones = (1,) * sum(a)
            key1, key2 = (key(a), key(ones)) if right else (key(ones), key(a))
            yield key1, rng.choice(coeffs), key2, rng.choice(coeffs)
    # 1^5 against 1^5, and a left 1^5 against right sums (1,4) and (4,1),
    # whose twists t order the column blocks both ways
    for s, t in itertools.product([(3, 1, 5, 2, 4), (1, 2, 3, 4, 5)], repeat=2):
        yield ((1,) * 5, s), 1, ((1,) * 5, t), Fraction(-1, 2)
    for b in ((1, 4), (4, 1)):
        for t in ((1, 2), (2, 1)):
            yield ((1,) * 5, (2, 5, 1, 4, 3)), 2, (b, t), 1


def test_products_with_an_all_ones_side_match_the_reference():
    for key1, c1, key2, c2 in _all_ones_cases():
        f, g = core.PnsymElement({key1: c1}), core.PnsymElement({key2: c2})
        got = core.internal_mul(f, g)
        assert _typed(got) == _typed(_reference_internal_mul(f, g)), (key1, key2)


def _keys_are_tuples_of_ints(f):
    # a gather over one index returns a scalar, not a tuple
    return all(
        type(alpha) is tuple and type(sigma) is tuple
        and all(type(x) is int for x in alpha + sigma)
        for alpha, sigma in f.terms
    )


@pytest.mark.parametrize("right", [False, True], ids=["ones-left", "ones-right"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_small_product_with_an_all_ones_side_matches_the_reference(n, right):
    # every composition b of n against 1^n, with every pair of permutations:
    # the smallest gathers of the closed forms, down to n = 2
    def keys(c):
        return [(c, p) for p in itertools.permutations(range(1, len(c) + 1))]

    for b in comb.compositions(n):
        for key_b, key_ones in itertools.product(keys(b), keys((1,) * n)):
            key1, key2 = (key_b, key_ones) if right else (key_ones, key_b)
            f = core.PnsymElement({key1: Fraction(2, 3)})
            g = core.PnsymElement({key2: -3})
            got = core.internal_mul(f, g)
            assert _typed(got) == _typed(_reference_internal_mul(f, g)), (key1, key2)
            assert got and _keys_are_tuples_of_ints(got), (key1, key2)


@pytest.mark.parametrize("n", range(7))
def test_each_shuffle_list_is_the_blockwise_increasing_permutations(n):
    for c in comb.compositions(n):
        shapes = {}
        found = core._shuffles(c, shapes)
        assert len(found) == math.factorial(n) // math.prod(map(math.factorial, c)), c
        assert len(set(found)) == len(found)
        ends = list(itertools.accumulate(c))
        for w in found:
            assert sorted(w) == list(range(1, n + 1))
            for start, end in zip([0] + ends, ends):
                assert list(w[start:end]) == sorted(w[start:end]), (c, w)
        # the lists share the one cache, under keys of their own
        inverses = core._shuffles(c, shapes, "W inverse")
        assert inverses == [comb.inverse(w) for w in found]
        assert core._shuffles(c, shapes) is found
        assert core._shuffles(c, shapes, "W inverse") is inverses
        if n >= 2:  # each gather maps (0,) + t to t o w, here t the identity
            gathers = core._shuffles(c, shapes, "W gather")
            assert [w_at(tuple(range(n + 1))) for w_at in gathers] == found


# coproduct, counit, grading ---------------------------------------------------

def test_coproduct_frozen():
    t = core.coproduct(F((2,), (1,)))
    expected = tensor_of(UNIT, F((2,), (1,)))
    expected += tensor_of(F((1,), (1,)), F((1,), (1,)))
    expected += tensor_of(F((2,), (1,)), UNIT)
    assert t == expected


def test_coproduct_leg_collision():
    # both middle splittings of (1,1) reduce to the same leg pair
    t = core.coproduct(F((1, 1), (1, 2)))
    middle = ((((1,), (1,)), ((1,), (1,))))
    assert t.terms[middle] == 2


def test_coproduct_is_splitting_sum():
    """Independent reconstruction over entrywise splittings."""
    alpha, sigma = (2, 1), (2, 1)
    expected = core.PnsymTensor()
    for beta in (
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)
    ):
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        if min(gamma) < 0:
            continue
        expected += tensor_of(
            core.from_weak_term(1, (beta, sigma)),
            core.from_weak_term(1, (gamma, sigma)),
        )
    assert core.coproduct(F(alpha, sigma)) == expected


def test_coproduct_matches_reference_in_order():
    # every key of degree <= 5; the mixtures below carry fractions
    for key in keys_up_to(5):
        f = core.basis(*key)
        got, want = core.coproduct(f), hopf_reference.coproduct(f)
        assert list(got.terms.items()) == list(want.terms.items())


def test_coproduct_matches_reference_in_order_at_degree_6():
    # up to four seeded keys of each composition of 6, down to (1,1,1,1,1,1)
    rng = random.Random(20261020)
    by_alpha = {}
    for key in comb.mopiscotions(6):
        by_alpha.setdefault(key[0], []).append(key)
    for keys in by_alpha.values():
        for key in rng.sample(keys, min(4, len(keys))):
            f = core.basis(*key)
            got, want = core.coproduct(f), hopf_reference.coproduct(f)
            assert list(got.terms.items()) == list(want.terms.items()), key


def test_the_splitting_kernel_matches_its_definition_in_order():
    # each weak beta <= alpha in itertools.product order, both legs reduced
    def splittings(alpha, sigma):
        return [
            (comb.reduce_pair(beta, sigma),
             comb.reduce_pair(tuple(x - b for x, b in zip(alpha, beta)), sigma))
            for beta in itertools.product(*(range(x + 1) for x in alpha))
        ]

    rng = random.Random(20261021)
    keys = [((), ()), ((3,), (1,))]
    keys += [((1,) * 6, s) for s in itertools.permutations(range(1, 7))]
    for n in (7, 8):
        keys += [((1,) * n, tuple(rng.sample(range(1, n + 1), n))) for _ in range(12)]
    alpha = (2, 1, 3, 1, 1, 2, 1)
    keys += [(alpha, tuple(rng.sample(range(1, 8), 7))) for _ in range(6)]
    for alpha, sigma in keys:
        assert core._key_coproduct(alpha, sigma) == splittings(alpha, sigma), sigma


@given(elements(max_size=4, max_terms=4))
@settings(max_examples=60, deadline=None)
def test_coproduct_matches_reference_in_order_on_mixtures(f):
    got, want = core.coproduct(f), hopf_reference.coproduct(f)
    assert list(got.terms.items()) == list(want.terms.items())
    assert canonical(got.terms)


def test_elements_and_tensors_do_not_add():
    x = F((1,), (1,))
    with pytest.raises(TypeError):
        UNIT + core.coproduct(x)
    with pytest.raises(TypeError):
        core.coproduct(x) + UNIT
    with pytest.raises(TypeError):
        UNIT - core.coproduct(x)


def test_counit():
    assert core.counit(UNIT) == 1
    assert core.counit(F((1,), (1,))) == 0
    assert core.counit(3 * UNIT + F((2,), (1,))) == 3


def test_degree_component():
    f = UNIT + (F((1,), (1,)) + F((1, 1), (2, 1)))
    assert core.degree_component(f, 0) == UNIT
    assert core.degree_component(f, 2) == F((1, 1), (2, 1))
    assert core.degree_component(f, 5) == ZERO


@given(elements(), elements())
@settings(max_examples=40, deadline=None)
def test_coproduct_is_multiplicative(f, g):
    both = core.coproduct(core.external_mul(f, g))
    assert both == tensor_mul(core.external_mul, core.coproduct(f), core.coproduct(g))
    inner = core.coproduct(core.internal_mul(f, g))
    assert inner == tensor_mul(core.internal_mul, core.coproduct(f), core.coproduct(g))


@given(elements(max_size=3))
@settings(max_examples=40, deadline=None)
def test_coproduct_coassociative_and_cocommutative(f):
    t = core.coproduct(f)
    # cocommutative: swapping the legs is invisible
    swapped = core.PnsymTensor({(k2, k1): c for (k1, k2), c in t.terms.items()})
    assert swapped == t
    # coassociative, expanded into three legs by hand
    left = {}
    right = {}
    for (k1, k2), c in t.terms.items():
        for (k11, k12), d in core.coproduct(core.basis(*k1)).terms.items():
            key = (k11, k12, k2)
            left[key] = left.get(key, Fraction(0)) + c * d
        for (k21, k22), d in core.coproduct(core.basis(*k2)).terms.items():
            key = (k1, k21, k22)
            right[key] = right.get(key, Fraction(0)) + c * d
    assert {k: c for k, c in left.items() if c} == {
        k: c for k, c in right.items() if c
    }


def test_counit_is_a_counit():
    for key in keys_up_to(3):
        f = core.basis(*key)
        t = core.coproduct(f)
        recovered = ZERO
        for (k1, k2), c in t.terms.items():
            recovered = recovered + c * core.counit(core.basis(*k1)) * core.basis(*k2)
        assert recovered == f


# antipode ----------------------------------------------------------------------

def test_antipode_frozen():
    assert core.antipode(F((1,), (1,))) == -1 * F((1,), (1,))
    assert core.antipode(F((2,), (1,))) == -1 * F((2,), (1,)) + F((1, 1), (1, 2))
    assert core.antipode(F((1, 1), (2, 1))) == (
        -1 * F((1, 1), (2, 1)) + 2 * F((1, 1), (1, 2))
    )
    assert core.antipode(UNIT) == UNIT
    assert core.antipode(ZERO) == ZERO


def test_antipode_is_an_involution():
    # PNSym is cocommutative, so S o S = id
    keys = keys_up_to(5)
    assert len(keys) == 326
    for key in keys:
        f = core.basis(*key)
        assert core.antipode(core.antipode(f)) == f, key


def test_antipode_is_convolution_inverse_on_keys():
    for key in keys_up_to(4):
        f = core.basis(*key)
        expected = core.counit(f) * UNIT
        assert convolve_maps(core.antipode, lambda x: x, f) == expected
        assert convolve_maps(lambda x: x, core.antipode, f) == expected


@given(elements(max_size=3))
@settings(max_examples=30, deadline=None)
def test_antipode_is_linear(f):
    g = F((2, 1), (1, 2))
    lhs = core.antipode(f + Fraction(1, 2) * g)
    rhs = core.antipode(f) + Fraction(1, 2) * core.antipode(g)
    assert lhs == rhs


def _same_terms(got, want):
    # the same keys and coefficients, each of the same type; the order of
    # the terms is not compared, since a decomposable key's antipode is
    # built as a product of its blocks' and not in the recursion's order
    assert got.terms == want.terms
    assert [type(c) for c in got.terms.values()] == [
        type(want.terms[key]) for key in got.terms
    ]


def test_antipode_matches_reference_on_keys():
    # every key of degree <= 6, decomposable or not, one antipode call per
    # key: each starts from an empty memo.  The reference shares one memo.
    memo = {}
    decomposable = 0
    for key in keys_up_to(6):
        got = core.antipode(core.basis(*key))
        _same_terms(got, hopf_reference._antipode_key(key, memo))
        assert canonical(got.terms)
        sigma = key[1]
        decomposable += any(max(sigma[:i]) == i for i in range(1, len(sigma)))
    assert decomposable == 793  # of the 1957 keys


@given(elements(max_size=4, max_terms=4))
@settings(max_examples=40, deadline=None)
def test_antipode_matches_reference_on_mixtures(f):
    _same_terms(core.antipode(f), hopf_reference.antipode(f))


@given(elements(), elements())
@example(
    Fraction(1, 2) * F((2, 1), (2, 1)) + Fraction(-2, 3) * F((1,), (1,)),
    Fraction(3, 4) * F((1, 1), (1, 2)) + Fraction(1, 4) * F((1, 2), (2, 1)),
)
@settings(max_examples=40, deadline=None)
def test_antipode_reverses_products(f, g):
    # S is an anti-homomorphism of the external product
    lhs = core.antipode(core.external_mul(f, g))
    rhs = core.external_mul(core.antipode(g), core.antipode(f))
    assert lhs == rhs
    assert canonical(lhs.terms)


# rank and enumeration -----------------------------------------------------------

def test_rank_table():
    assert [core.rank(n) for n in range(8)] == [1, 1, 3, 11, 49, 261, 1631, 11743]


def test_rank_matches_enumeration():
    for n in range(-3, 7):
        assert core.rank(n) == len(list(comb.mopiscotions(n)))


def test_rank_matches_closed_form():
    # k-part compositions of n times the k! twists of each
    def closed(n):
        if n == 0:
            return 1
        return sum(math.comb(n - 1, n - k) * math.factorial(k) for k in range(n + 1))

    assert [core.rank(n) for n in range(300)] == [closed(n) for n in range(300)]


def test_basis_keys_sorted_canonically():
    keys = sorted(comb.mopiscotions(3), key=core.key_sort_key)
    assert keys == [((1, 1, 1), s) for s in itertools.permutations((1, 2, 3))] + [
        ((1, 2), (1, 2)),
        ((1, 2), (2, 1)),
        ((2, 1), (1, 2)),
        ((2, 1), (2, 1)),
        ((3,), (1,)),
    ]


# no state between calls ---------------------------------------------------------

# Run in a fresh interpreter, so that a module-level memo cannot already hold
# every input the batch brings.
_STATE_PROBE = """
import json, random
from fractions import Fraction
from pnsym import checker, combinatorics as comb, core

MODULES = (core, comb, checker)

def bound(module):
    # the module's names, and the attributes of the classes it defines
    for name, value in vars(module).items():
        yield name, value
        if isinstance(value, type) and value.__module__ == module.__name__:
            for attr, v in vars(value).items():
                if not attr.startswith("__"):
                    yield f"{name}.{attr}", v

def sizes():
    # every dict, list and set bound at module level, as a class attribute or
    # as a function default
    out = {}
    for module in MODULES:
        for name, value in bound(module):
            if isinstance(value, (dict, list, set)) and not name.startswith("__"):
                out[f"{module.__name__}.{name}"] = len(value)
            for i, default in enumerate(getattr(value, "__defaults__", None) or ()):
                if isinstance(default, (dict, list, set)):
                    out[f"{module.__name__}.{name} default {i}"] = len(default)
    return out

def checks():
    # a k_value call and a composition power, each with its own memo
    assert checker.k_value(1, 5, 12) == 11
    assert checker.check_zero_on_degree("(p1*p2 - p2*p1)^9", 4).holds

before = sizes()
rng = random.Random(20261019)
keys = [list(comb.mopiscotions(n)) for n in range(6)]
for _ in range(30):
    n = rng.randrange(1, 6)
    f, g = (
        core.PnsymElement.sum(
            (rng.choice(keys[n]), Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
            for _ in range(3)
        )
        for _ in range(2)
    )
    core.internal_mul(f, g)
    core.coproduct(f)
    core.antipode(g)
# products with an all-ones factor on either side, read from the W(c) lists
ones = core.basis((1,) * 5, (3, 1, 5, 2, 4))
other = core.basis((2, 1, 2), (2, 3, 1)) - 2 * core.basis((1, 4), (2, 1))
core.internal_mul(ones, other)
core.internal_mul(other, ones)
core.internal_mul(ones, ones)
checks()
once = sizes()
checks()
cached = [
    f"{module.__name__}.{name}"
    for module in MODULES
    for name, value in bound(module)
    if hasattr(value, "cache_info")
]
print(json.dumps({"before": before, "once": once, "after": sizes(), "cached": cached}))
"""


def test_core_keeps_no_state_between_calls():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(core.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", _STATE_PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    state = json.loads(run.stdout)
    assert state["cached"] == []
    assert state["once"] == state["before"]
    assert state["after"] == state["before"]


# bridge to the untwisted subalgebra ----------------------------------------------

def test_to_nsym_forgets_the_twist():
    f = F((1, 2), (2, 1)) + 2 * F((1, 2), (1, 2))
    assert to_nsym(f) == 3 * nsym_basis((1, 2))


def test_from_nsym_uses_identity_twists():
    h = nsym_basis((2, 1))
    assert from_nsym(h) == F((2, 1), (1, 2))
    # section property: forgetting after embedding is the identity
    for alpha in comb.compositions(4):
        h = nsym_basis(alpha)
        assert to_nsym(from_nsym(h)) == h


def test_nsym_internal_mul_drops_zeros():
    h11 = nsym_basis((1, 1))
    h2 = nsym_basis((2,))
    assert nsym_internal_mul(h11, h11) == 2 * h11
    assert nsym_internal_mul(h2, h11) == h11
    assert nsym_internal_mul(h11, h2) == h11


def test_embedding_fails_for_internal_product():
    """The canonical counterexample in degree 2."""
    h11 = nsym_basis((1, 1))
    lhs = from_nsym(nsym_internal_mul(h11, h11))
    rhs = core.internal_mul(from_nsym(h11), from_nsym(h11))
    assert lhs == 2 * F((1, 1), (1, 2))
    assert rhs == F((1, 1), (1, 2)) + F((1, 1), (2, 1))
    assert lhs != rhs


@given(elements(), elements())
@settings(max_examples=40, deadline=None)
def test_forgetting_respects_all_structure(f, g):
    f_n, g_n = to_nsym(f), to_nsym(g)
    assert to_nsym(core.external_mul(f, g)) == nsym_external_mul(f_n, g_n)
    assert to_nsym(core.internal_mul(f, g)) == nsym_internal_mul(f_n, g_n)
    assert tensor_to_nsym(core.coproduct(f)) == nsym_coproduct(f_n)


@given(elements())
@settings(max_examples=40, deadline=None)
def test_embedding_respects_product_and_coproduct(f):
    h = to_nsym(f)
    g = nsym_basis((1,))
    assert from_nsym(nsym_external_mul(h, g)) == core.external_mul(from_nsym(h), from_nsym(g))
    lifted = core.PnsymTensor()
    for (a, b), c in nsym_coproduct(h).items():
        lifted += c * tensor_of(from_nsym(nsym_basis(a)), from_nsym(nsym_basis(b)))
    assert core.coproduct(from_nsym(h)) == lifted


# text and JSON forms --------------------------------------------------------------

def test_format_element_frozen():
    f = Fraction(3, 2) * F((1, 2), (2, 1)) - F((3,), (1,))
    assert core.format_element(f) == "3/2*F((1,2);[2,1]) - F((3);[1])"
    assert core.format_element(ZERO) == "0"
    assert core.format_element(-1 * F((1,), (1,))) == "-F((1);[1])"
    assert core.format_element(UNIT) == "F(();[])"


def test_format_tensor_frozen():
    t = core.coproduct(F((1, 1), (1, 2)))
    assert core.format_tensor(t) == (
        "F(();[]) # F((1,1);[1,2]) + 2*F((1);[1]) # F((1);[1])"
        " + F((1,1);[1,2]) # F(();[])"
    )
    assert core.format_tensor(core.PnsymTensor()) == "0"


def test_parse_element_frozen():
    f = core.parse_element("3/2*F((1,2);[2,1]) - F((3);[1])")
    assert f == Fraction(3, 2) * F((1, 2), (2, 1)) - F((3,), (1,))
    assert core.parse_element("0") == ZERO
    assert core.parse_element("-F((1);[1])") == -1 * F((1,), (1,))
    # weak keys are accepted and reduced
    assert core.parse_element("F((0,2,0);[2,1,3])") == F((2,), (1,))


def test_parse_element_reports_positions():
    with pytest.raises(comb.ParseError) as info:
        core.parse_element("F((1);[1]) + @")
    assert info.value.position == 13


def test_element_json_shape():
    f = Fraction(1, 2) * F((1,), (1,)) + UNIT
    assert core.element_to_json(f) == [
        {"coeff": "1", "alpha": [], "sigma": []},
        {"coeff": "1/2", "alpha": [1], "sigma": [1]},
    ]
    t = tensor_of(UNIT, F((1,), (1,)))
    assert core.tensor_to_json(t) == [
        {
            "coeff": "1",
            "legs": [
                {"alpha": [], "sigma": []},
                {"alpha": [1], "sigma": [1]},
            ],
        }
    ]


@given(elements(max_size=4, max_terms=4))
@settings(max_examples=60, deadline=None)
def test_parse_format_round_trip(f):
    assert core.parse_element(core.format_element(f)) == f
