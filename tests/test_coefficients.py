"""Every producer stores its coefficients in one canonical form: nonzero, an
``int`` when whole and a ``Fraction`` with denominator above 1 otherwise."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from pnsym import checker, core, oracle
from pnsym import combinatorics as comb

from nsym_reference import tensor_to_nsym, to_nsym


def canonical(terms):
    """Are all the coefficients of a ``terms`` dict in canonical form?"""
    return all(
        c and (type(c) is int or (type(c) is Fraction and c.denominator > 1))
        for c in terms.values()
    )


KEYS = [key for n in range(4) for key in comb.mopiscotions(n)]
# whole Fractions and zero included, so that sums and products can land on them
COEFFICIENTS = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def elements(draw):
    pairs = draw(st.lists(st.tuples(st.sampled_from(KEYS), COEFFICIENTS), max_size=3))
    return sum((core.from_weak_term(c, key) for key, c in pairs), core.ZERO)


@settings(max_examples=100, deadline=None)
@given(elements(), elements())
def test_core_producers(f, g):
    for result in [
        f,
        f - g,
        Fraction(3, 2) * f,
        core.external_mul(f, g),
        core.internal_mul(f, g),
        core.coproduct(f),
        core.antipode(f),
        to_nsym(f),
    ]:
        assert canonical(result.terms), result
    assert canonical(tensor_to_nsym(core.coproduct(f)))


X2, X12, X21 = ((2,), (1,)), ((1, 1), (1, 2)), ((1, 1), (2, 1))
HALF, THIRD, QUARTER = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)


def _whole_and_dropped(whole, zero, key):
    assert whole.terms[key] == 1 and type(whole.terms[key]) is int
    assert key not in zero.terms
    assert canonical(whole.terms) and canonical(zero.terms)


def test_internal_mul_sums_fractions_to_ints_and_zeros():
    # F(2) * F(11;12) and F(11;12) * F(11;12) each hold F(11;12) once
    x, y, g = core.basis(*X2), core.basis(*X12), Fraction(3, 2) * core.basis(*X12)
    _whole_and_dropped(
        core.internal_mul(THIRD * x + THIRD * y, g),
        core.internal_mul(THIRD * x - THIRD * y, g),
        X12,
    )


def test_coproduct_sums_fractions_to_ints_and_zeros():
    # F(1) # F(1) appears once in Delta F(2) and twice in Delta F(11;12)
    middle = (((1,), (1,)), ((1,), (1,)))
    x, y = core.basis(*X2), core.basis(*X12)
    _whole_and_dropped(
        core.coproduct(HALF * y), core.coproduct(HALF * x - QUARTER * y), middle
    )


def test_antipode_sums_fractions_to_ints_and_zeros():
    # S F(2) holds F(11;12) once, S F(11;21) twice
    x, y = core.basis(*X2), core.basis(*X21)
    _whole_and_dropped(
        core.antipode(HALF * y), core.antipode(HALF * x - QUARTER * y), X12
    )


def _over_matches_dividing_each_sum(cls, sums, den):
    got = cls.over(sums, den)
    want = cls({key: Fraction(c, den) for key, c in sums.items()})
    assert got == want
    assert [(key, type(c)) for key, c in got.terms.items()] == [
        (key, type(c)) for key, c in want.terms.items()
    ]
    assert canonical(got.terms)


# int sums as the kernels pass them, zero sums included
SUMS = st.integers(-12, 12)
DENS = st.sampled_from([1, 2, 3, 4, 6])


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(KEYS), SUMS, max_size=5), DENS)
@example({X2: 0, X12: 3, X21: -4}, 1)
@example({X2: 0, X12: 3, X21: -4}, 2)
@example({X2: 0}, 3)
def test_element_over_matches_dividing_each_sum(sums, den):
    _over_matches_dividing_each_sum(core.PnsymElement, sums, den)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.tuples(st.sampled_from(KEYS), st.sampled_from(KEYS)), SUMS, max_size=5),
    DENS,
)
@example({(X2, X12): 0, (X12, X2): 6, (X21, X21): -1}, 1)
@example({(X2, X12): 0, (X12, X2): 6, (X21, X21): -1}, 4)
@example({(X2, X2): 0}, 2)
def test_tensor_over_matches_dividing_each_sum(sums, den):
    _over_matches_dividing_each_sum(core.PnsymTensor, sums, den)


@given(st.lists(
    st.tuples(st.sampled_from(KEYS), st.integers(0, 6), st.integers(1, 3)), min_size=1, max_size=3
))
def test_parsed_elements(terms):
    text = " + ".join(f"{num}/{den}*F{core.format_key(key)}" for key, num, den in terms)
    assert canonical(core.parse_element(text).terms), text


@given(
    st.sampled_from([
        "2 id",
        "1/2 p1 * p2 - S",
        "(p1 - 3/2 p2)^2",
        "id^*3",
        "S o S - id",
        "(2 ue)^*3",
        "1/2 F((1,1);[2,1]) o 4/2 p2",
    ]),
    st.integers(0, 3),
)
def test_expansions(expr, m):
    assert canonical(checker.expand(checker.parse(expr), m).terms)


MODELS = [oracle.TriangularModel(4), oracle.PrimitiveTensorModel(2)]


@st.composite
def free_elements(draw, model):
    words = st.lists(st.sampled_from(model.generators()), max_size=3).map(tuple)
    pairs = draw(st.lists(st.tuples(words, COEFFICIENTS), min_size=1, max_size=3))
    return sum((oracle.element(w, c) for w, c in pairs), oracle.FreeElement({}))


@st.composite
def oracle_cases(draw):
    model = draw(st.sampled_from(MODELS))
    return model, draw(free_elements(model)), draw(free_elements(model))


@settings(max_examples=100, deadline=None)
@given(oracle_cases(), st.sampled_from(KEYS), st.integers(0, 3), elements())
def test_oracle_producers(case, key, k, f):
    model, x, y = case
    alpha, sigma = key
    square = oracle.tensor_of_elements(x, y)
    for result in [
        x,
        x - y,
        oracle.element_mul(x, y),
        oracle.apply_pas(model, alpha, sigma, x),
        oracle.delta_power(model, k, x),
        oracle.convolve(model, lambda e: Fraction(1, 2) * e, lambda e: oracle.degree_part(e, 1), x),
        oracle.evaluate_pnsym(model, f, x),
        square,
        oracle.apply_pas_on_tensor_square(model, alpha, sigma, square),
    ]:
        assert canonical(result.terms), result
