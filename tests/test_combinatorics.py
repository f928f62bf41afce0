"""Combinatorial layer: compositions, permutations, reduction, tables."""

import itertools

import pytest
from hypothesis import example, given, strategies as st

from pnsym import combinatorics as comb


# strategies ----------------------------------------------------------------

def permutations(max_degree=5):
    return st.integers(0, max_degree).flatmap(
        lambda k: st.permutations(range(1, k + 1)).map(tuple)
    )


def weak_comps(max_size=5, max_length=5):
    return st.lists(st.integers(0, max_size), max_size=max_length).map(tuple)


small_perms = permutations(4)


# compositions --------------------------------------------------------------

def test_size_and_concat():
    assert comb.concat((1, 2), (3,)) == (1, 2, 3)
    assert sum(comb.concat((3, 1), (2, 0))) == sum((3, 1)) + sum((2, 0)) == 6
    assert comb.concat((), ()) == ()


def test_composition_predicates():
    assert comb.is_weak_composition((3, 0, 1))
    assert not comb.is_weak_composition((3, -1))


@pytest.mark.parametrize("bad", [(True, 2), (1, False), (1.0,), ("1",)])
def test_predicates_reject_entries_that_are_not_ints(bad):
    # a bool is an int subclass and would compare equal to 0 or 1
    assert not comb.is_weak_composition(bad)
    assert not comb.is_permutation(bad)


def test_compositions_of_four():
    comps = list(comb.compositions(4))
    assert len(comps) == 8
    assert all(sum(a) == 4 for a in comps)
    assert len(set(comps)) == 8


def test_compositions_fixed_length():
    assert set(comb.compositions(4, length=2)) == {(1, 3), (2, 2), (3, 1)}
    assert list(comb.compositions(0)) == [()]
    assert list(comb.compositions(0, length=0)) == [()]


def test_weak_compositions():
    found = set(comb.weak_compositions(2, 3))
    assert found == {(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert list(comb.weak_compositions(0, 0)) == [()]
    assert list(comb.weak_compositions(3, 0)) == []


def test_entrywise_splittings():
    pairs = set(comb.entrywise_splittings((1, 1)))
    assert pairs == {
        ((0, 0), (1, 1)),
        ((0, 1), (1, 0)),
        ((1, 0), (0, 1)),
        ((1, 1), (0, 0)),
    }
    assert list(comb.entrywise_splittings(())) == [((), ())]


def _reference_compositions(n, length):
    """Compositions of ``n`` into ``length`` parts, first part outermost."""
    if length == 0:
        return [()] if n == 0 else []
    return [
        (first,) + rest
        for first in range(1, n + 1)
        for rest in _reference_compositions(n - first, length - 1)
    ]


def _reference_splittings(alpha):
    """Entrywise splittings of ``alpha``, first entry's split outermost."""
    if not alpha:
        return [((), ())]
    return [
        ((b,) + beta, (alpha[0] - b,) + gamma)
        for b in range(alpha[0] + 1)
        for beta, gamma in _reference_splittings(alpha[1:])
    ]


def test_composition_order_is_pinned():
    """Mopiscotions, and so verify's case order and labels, follow this order."""
    for n in range(8):
        by_length = [_reference_compositions(n, k) for k in range(n + 2)]
        for k, expected in enumerate(by_length):
            assert list(comb.compositions(n, k)) == expected
        assert list(comb.compositions(n)) == [a for comps in by_length for a in comps]


def test_splitting_order_is_pinned():
    for length in range(5):
        for alpha in itertools.product(range(4), repeat=length):
            assert list(comb.entrywise_splittings(alpha)) == _reference_splittings(alpha)


@given(weak_comps())
def test_splittings_recombine(alpha):
    for beta, gamma in comb.entrywise_splittings(alpha):
        assert tuple(b + g for b, g in zip(beta, gamma)) == alpha


# permutations ---------------------------------------------------------------

def test_identity_and_inverse():
    assert comb.identity(3) == (1, 2, 3)
    assert comb.identity(0) == ()
    assert comb.inverse((3, 1, 2)) == (2, 3, 1)


def test_compose_applies_right_first():
    # (p o q)(x) = p(q(x))
    p, q = (2, 1, 3), (3, 1, 2)
    composed = comb.compose(p, q)
    assert composed == tuple(p[q[x - 1] - 1] for x in (1, 2, 3))
    with pytest.raises(ValueError):
        comb.compose((1,), (1, 2))


@given(small_perms)
def test_inverse_is_two_sided(p):
    assert comb.compose(p, comb.inverse(p)) == comb.identity(len(p))
    assert comb.compose(comb.inverse(p), p) == comb.identity(len(p))


@given(small_perms, small_perms)
def test_direct_sum_shifts_second_block(s, t):
    d = comb.direct_sum(s, t)
    assert comb.is_permutation(d)
    assert d[:len(s)] == s
    assert d[len(s):] == tuple(v + len(s) for v in t)


# the substitution calculus ---------------------------------------------------

def test_wreath_substitute_frozen():
    assert comb.wreath_substitute((2, 1), (1, 2, 3)) == (4, 1, 5, 2, 6, 3)
    assert comb.wreath_substitute((2, 1), (2, 1)) == (4, 2, 3, 1)
    assert comb.wreath_substitute((), ()) == ()
    assert comb.wreath_substitute((1,), (3, 1, 2)) == (3, 1, 2)


def test_wreath_substitute_definition():
    """Position l(i-1)+j goes to k(tau(j)-1)+sigma(i)."""
    sigma, tau = (2, 1, 3), (3, 1, 2)
    k, l = len(sigma), len(tau)
    w = comb.wreath_substitute(tau, sigma)
    for i in range(1, k + 1):
        for j in range(1, l + 1):
            assert w[l * (i - 1) + j - 1] == k * (tau[j - 1] - 1) + sigma[i - 1]


def test_zolotarev_frozen():
    assert comb.zolotarev(2, 3) == (1, 4, 2, 5, 3, 6)
    assert comb.zolotarev(1, 4) == (1, 2, 3, 4)
    assert comb.zolotarev(0, 3) == ()


def test_block_and_interleave_powers():
    assert comb.block_power((2, 1), 3) == (4, 5, 6, 1, 2, 3)
    assert comb.interleave_power((2, 1), 2) == (3, 4, 1, 2)
    assert comb.block_power((1,), 2) == (1, 2)
    assert comb.interleave_power((), 3) == ()


@given(permutations(3), permutations(3))
def test_shuffle_factorization(sigma, tau):
    """tau[sigma] = interleave o zeta^{-1} o block."""
    k, l = len(sigma), len(tau)
    left = comb.compose(
        comb.interleave_power(tau, k),
        comb.compose(comb.inverse(comb.zolotarev(k, l)), comb.block_power(sigma, l)),
    )
    assert left == comb.wreath_substitute(tau, sigma)


@given(permutations(3), permutations(3), permutations(2))
def test_wreath_substitution_is_associative(sigma, tau, ups):
    lhs = comb.wreath_substitute(ups, comb.wreath_substitute(tau, sigma))
    rhs = comb.wreath_substitute(comb.wreath_substitute(ups, tau), sigma)
    assert lhs == rhs


def test_inverse_of_a_wreath_substitution_is_the_swapped_substitution():
    """inverse(t[s]) = inverse(s)[inverse(t)]: how ``internal_mul`` builds
    its twists' inverses."""
    perms = [p for k in range(5) for p in itertools.permutations(range(1, k + 1))]
    for s in perms:
        for t in perms:
            assert comb.inverse(comb.wreath_substitute(t, s)) == comb.wreath_substitute(
                comb.inverse(s), comb.inverse(t)
            )


@given(permutations(4))
def test_wreath_with_trivial_factors(sigma):
    assert comb.wreath_substitute((1,), sigma) == sigma
    k = len(sigma)
    # substituting into the singleton interleaves sigma with itself zero times
    assert comb.wreath_substitute(sigma, (1,)) == comb.interleave_power(sigma, 1)


def test_act_right():
    assert comb.act_right((5, 7), (2, 1)) == (7, 5)
    assert comb.act_right((), ()) == ()


@given(weak_comps(max_length=4), permutations(4), permutations(4))
def test_act_right_is_a_right_action(gamma, pi, rho):
    if not (len(gamma) == len(pi) == len(rho)):
        return
    lhs = comb.act_right(comb.act_right(gamma, pi), rho)
    assert lhs == comb.act_right(gamma, comb.compose(pi, rho))


# standardization and reduction ----------------------------------------------

def test_standardize():
    assert comb.standardize((4, 1, 3)) == (3, 1, 2)
    assert comb.standardize((10,)) == (1,)
    assert comb.standardize(()) == ()
    with pytest.raises(ValueError):
        comb.standardize((2, 2))


def test_reduce_pair_frozen():
    assert comb.reduce_pair((3, 0, 1, 2, 0), (4, 5, 1, 3, 2)) == ((3, 1, 2), (3, 1, 2))
    assert comb.reduce_pair((3, 0, 1, 2, 0), (4, 1, 3, 2, 5)) == ((3, 1, 2), (3, 2, 1))
    assert comb.reduce_pair((), ()) == ((), ())
    assert comb.reduce_pair((0, 0), (2, 1)) == ((), ())


@given(weak_comps(max_length=5).flatmap(
    lambda a: st.permutations(range(1, len(a) + 1)).map(lambda s: (a, tuple(s)))
))
def test_reduce_pair_is_idempotent(pair):
    alpha, sigma = pair
    red = comb.reduce_pair(alpha, sigma)
    assert comb.reduce_pair(*red) == red  # reduced
    assert sum(red[0]) == sum(alpha)


def test_mopiscotion_counts():
    # numbers of keys by size: compositions of n, each with length! twists
    assert len(list(comb.mopiscotions(0))) == 1
    assert len(list(comb.mopiscotions(1))) == 1
    assert len(list(comb.mopiscotions(2))) == 3
    assert len(list(comb.mopiscotions(3))) == 11
    for alpha, sigma in comb.mopiscotions(3):
        assert comb.reduce_pair(alpha, sigma) == (alpha, sigma)


# contingency tables ----------------------------------------------------------

def reference_tables(alpha, beta):
    """The k x l tables with row sums ``alpha`` and column sums ``beta``,
    dense, in lexicographic order of the row-major flattening: rows filled
    one by one by plain recursion, under the column budgets left."""
    alpha, beta = tuple(alpha), tuple(beta)
    if sum(alpha) != sum(beta):
        return

    def row_fills(total, budgets):
        # vectors 0 <= r <= budgets entrywise with sum(r) == total, lex order
        if not budgets:
            if total == 0:
                yield ()
            return
        lo = max(0, total - sum(budgets[1:]))
        hi = min(total, budgets[0])
        for v in range(lo, hi + 1):
            for rest in row_fills(total - v, budgets[1:]):
                yield (v,) + rest

    def fill(i, budgets):
        if i == len(alpha):
            yield ()
            return
        for row in row_fills(alpha[i], budgets):
            remaining = tuple(b - r for b, r in zip(budgets, row))
            for tail in fill(i + 1, remaining):
                yield (row,) + tail

    yield from fill(0, beta)


def densify(table, k, l):
    """The k x l rows of a sparse ``(cells, values)`` table."""
    flat = [0] * (k * l)
    for cell, value in zip(*table):
        flat[cell] = value
    return tuple(tuple(flat[i * l:(i + 1) * l]) for i in range(k))


def dense_tables(alpha, beta):
    return [densify(t, len(alpha), len(beta)) for t in comb.contingency_tables(alpha, beta)]


def test_contingency_tables_frozen():
    tables = dense_tables((1, 1), (1, 1))
    assert tables == [((0, 1), (1, 0)), ((1, 0), (0, 1))] or tables == [
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
    ]
    assert dense_tables((2,), (1, 1)) == [((1, 1),)]
    assert dense_tables((1, 1), (2,)) == [((1,), (1,))]
    assert dense_tables((), ()) == [()]
    assert dense_tables((1,), (2,)) == []


def test_contingency_tables_sparse_edge_cases():
    assert list(comb.contingency_tables((), ())) == [((), ())]
    assert list(comb.contingency_tables((1,), (2,))) == []
    assert list(comb.contingency_tables((2, 1), (1, 1))) == []


def test_contingency_tables_sparse_form_is_row_major():
    # ((1, 0), (0, 2)) keeps cells 0 and 3 of its flattening (1, 0, 0, 2)
    assert ((0, 3), (1, 2)) in list(comb.contingency_tables((1, 2), (1, 2)))
    assert densify(((0, 3), (1, 2)), 2, 2) == ((1, 0), (0, 2))
    assert densify(((), ()), 0, 0) == ()


def test_contingency_tables_match_reference_in_order():
    for n in range(7):
        for alpha in comb.compositions(n):
            for beta in comb.compositions(n):
                got = list(comb.contingency_tables(alpha, beta))
                assert [densify(t, len(alpha), len(beta)) for t in got] == list(
                    reference_tables(alpha, beta)
                )
                assert all(len(cells) == len(values) and all(values) for cells, values in got)


def test_contingency_tables_match_reference_on_deep_tables_of_seven():
    # degree 7 lies past the exhaustive check above.  Row sums of 5 or more
    # parts give the deepest tables and the most rows of total 1; column sums
    # of at most 3 parts keep the reference's plain recursion quick
    for alpha in comb.compositions(7):
        if len(alpha) >= 5:
            for beta in comb.compositions(7):
                if len(beta) <= 3:
                    assert dense_tables(alpha, beta) == list(reference_tables(alpha, beta))


@given(
    st.lists(st.integers(0, 3), max_size=3).map(tuple),
    st.lists(st.integers(0, 3), max_size=3).map(tuple),
)
@example((2,), (0, 2))  # one row: the only table is the column sums
@example((1, 2), (2, 1))  # two rows: the first is the penultimate
@example((2, 0, 1), (1, 2))  # the penultimate row sums to zero
@example((1, 2), (1, 0, 2))  # a row of total 1 beside a zero budget
def test_contingency_tables_match_reference_on_weak_sums(alpha, beta):
    assert dense_tables(alpha, beta) == list(reference_tables(alpha, beta))


@pytest.mark.parametrize("alpha, beta", [((), ()), ((3,), (1, 2)), ((1, 1), (2,)), ((1, 2), (3, 1))])
def test_contingency_tables_returns_an_iterator(alpha, beta):
    # perfbench/tracer.py wraps contingency_tables as a generator and calls
    # next() on what it returns, so a list would break a traced run
    tables = comb.contingency_tables(alpha, beta)
    assert iter(tables) is tables


def test_contingency_tables_marginals():
    alpha, beta = (2, 1), (1, 1, 1)
    tables = dense_tables(alpha, beta)
    assert len(tables) == 3
    for table in tables:
        assert tuple(sum(row) for row in table) == alpha
        assert tuple(sum(col) for col in zip(*table)) == beta


@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple),
    st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple),
)
def test_contingency_transpose_bijection(alpha, beta):
    forward = set(dense_tables(alpha, beta))
    back = {tuple(zip(*t)) for t in dense_tables(beta, alpha)}
    assert forward == back


# text forms -------------------------------------------------------------------

def test_format_round_trips():
    assert comb.format_composition((3, 0, 1)) == "(3,0,1)"
    assert comb.format_composition(()) == "()"
    assert comb.format_permutation((2, 1)) == "[2,1]"
    assert comb.format_pair((1, 2), (2, 1)) == "((1,2);[2,1])"
    assert comb.parse_pair("((1,2);[2,1])") == ((1, 2), (2, 1))
    assert comb.parse_pair("(();[])") == ((), ())


def test_parsers_ignore_whitespace():
    sc = comb.Scanner(" ( 3 , 0 , 1 ) ")
    assert sc.composition() == (3, 0, 1)
    assert sc.at_end()
    sc = comb.Scanner("[ 2 , 1 ]")
    assert sc.permutation() == (2, 1)
    assert sc.at_end()


@pytest.mark.parametrize("bad", ["(3,-1)", "(x)", "3,1", "((1);[1]"])
def test_bad_compositions_rejected(bad):
    with pytest.raises(comb.ParseError):
        if bad.startswith("(("):
            comb.parse_pair(bad)
        else:
            comb.Scanner(bad).composition()


def test_bad_permutation_rejected():
    with pytest.raises(comb.ParseError):
        comb.Scanner("[1,1]").permutation()
    with pytest.raises(comb.ParseError):
        comb.Scanner("[0]").permutation()


@given(weak_comps(), permutations())
def test_pair_text_round_trip(alpha, sigma):
    if len(alpha) != len(sigma):
        return
    text = comb.format_pair(alpha, sigma)
    assert comb.parse_pair(text) == (alpha, sigma)
