"""Free-model operators: coproduct powers, projections, twisted actions."""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pnsym import combinatorics as comb
from pnsym import core, oracle

from test_coefficients import MODELS, canonical, oracle_cases


F_basis = core.basis

T3 = oracle.TriangularModel(3)
x12 = T3.gen(1, 2)
x13 = T3.gen(1, 3)
x23 = T3.gen(2, 3)


def tensor(*words):
    return oracle.tensor_of_elements(*(oracle.element(w) for w in words))


# free elements and tensors ----------------------------------------------------

def test_zero_coefficients_are_pruned():
    assert x12 - x12 == oracle.FreeElement({})
    assert not (x12 - x12)
    assert bool(x12)
    assert 0 * x13 == oracle.FreeElement({})


def test_tensor_of_elements_is_multilinear():
    t = oracle.tensor_of_elements(x12 + x23, x13)
    assert t == tensor(((1, 2),), ((1, 3),)) + tensor(((2, 3),), ((1, 3),))


def test_tensor_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        tensor(((1, 2),)) + tensor(((1, 2),), ((2, 3),))
    with pytest.raises(ValueError):
        oracle.one() + tensor(((1, 2),))


@pytest.mark.parametrize("other", [1, Fraction(1), None])
def test_oracle_values_do_not_add_to_other_types(other):
    # a non-oracle operand is NotImplemented, so Python raises TypeError
    with pytest.raises(TypeError):
        oracle.one() + other
    with pytest.raises(TypeError):
        other + oracle.one()
    with pytest.raises(TypeError):
        tensor(((1, 2),)) + other


def test_generator_bounds_checked():
    with pytest.raises(ValueError):
        T3.gen(2, 2)
    with pytest.raises(ValueError):
        T3.gen(1, 4)
    with pytest.raises(ValueError):
        oracle.PrimitiveTensorModel(2).gen(3)
    with pytest.raises(ValueError):
        oracle.TriangularModel(0)


def test_triangular_generators_listed_in_lex_order():
    assert T3.generators() == [(1, 2), (1, 3), (2, 3)]
    assert oracle.TriangularModel(1).generators() == []


# coproduct powers -------------------------------------------------------------

def test_coproduct_of_short_generator_has_no_middle():
    assert oracle.delta_power(T3, 2, x12) == tensor((), ((1, 2),)) + tensor(
        ((1, 2),), ()
    )


def test_coproduct_of_long_generator_splits_through_midpoint():
    expected = (
        tensor((), ((1, 3),))
        + tensor(((1, 2),), ((2, 3),))
        + tensor(((1, 3),), ())
    )
    assert oracle.delta_power(T3, 2, x13) == expected


def test_single_power_is_identity():
    f = x13 + 2 * oracle.element_mul(x12, x23)
    assert oracle.delta_power(T3, 1, f) == oracle.FreeTensor(
        1, {(w,): c for w, c in f.terms.items()}
    )


def test_zero_power_is_the_counit():
    assert oracle.delta_power(T3, 0, oracle.one()).terms == {(): Fraction(1)}
    assert oracle.delta_power(T3, 0, x12).terms == {}
    mixed = 3 * oracle.one() + x13
    assert oracle.delta_power(T3, 0, mixed).terms == {(): Fraction(3)}


def test_coproduct_is_multiplicative_on_a_product_word():
    f = oracle.element_mul(x12, x12)
    expected = (
        tensor((), ((1, 2), (1, 2)))
        + 2 * tensor(((1, 2),), ((1, 2),))
        + tensor(((1, 2), (1, 2)), ())
    )
    assert oracle.delta_power(T3, 2, f) == expected


def test_primitive_model_generators_are_primitive():
    model = oracle.PrimitiveTensorModel(3)
    y = model.gen(2)
    assert oracle.delta_power(model, 2, y) == tensor((), (2,)) + tensor((2,), ())


def test_primitive_model_products_keep_every_length():
    model = oracle.PrimitiveTensorModel(1)
    y = model.gen(1)
    power = y
    for n in range(2, 6):
        power = oracle.element_mul(power, y)
        assert power == oracle.element((1,) * n)


def test_primitive_model_coproduct_keeps_whole_word_legs():
    model = oracle.PrimitiveTensorModel(1)
    yyy = oracle.element((1, 1, 1))
    assert oracle.delta_power(model, 1, yyy) == tensor((1, 1, 1))
    assert oracle.delta_power(model, 2, yyy) == (
        tensor((1, 1, 1), ())
        + 3 * tensor((1,), (1, 1))
        + 3 * tensor((1, 1), (1,))
        + tensor((), (1, 1, 1))
    )


@st.composite
def power_cases(draw):
    alpha = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    sigma = tuple(draw(st.permutations(range(1, len(alpha) + 1))))
    return alpha, sigma


# p_(alpha,sigma) sends y^n to the multinomial n! / (alpha_1! ... alpha_k!)
# times y^n: each leg takes alpha_r of the n primitive letters, in any order
@example(((3,), (1,)))
@example(((1, 2), (2, 1)))
@given(power_cases())
def test_twisted_operator_scales_a_primitive_power_by_a_multinomial(case):
    alpha, sigma = case
    n = sum(alpha)
    power = oracle.element((1,) * n)
    multinomial = math.factorial(n) // math.prod(math.factorial(a) for a in alpha)
    model = oracle.PrimitiveTensorModel(1)
    assert oracle.apply_pas(model, alpha, sigma, power) == multinomial * power


@given(st.lists(st.integers(min_value=1, max_value=3), max_size=4))
def test_primitive_model_is_cocommutative(word):
    model = oracle.PrimitiveTensorModel(3)
    f = oracle.element(tuple(word))
    spread = oracle.delta_power(model, 2, f)
    assert oracle.permute_tensor(spread, (2, 1)) == spread


def legwise_product(s, t):
    """The product of two tensors of one arity: leg r of each term multiplies
    leg r of the other's, through ``element_mul``."""
    terms = {}
    for legs1, c in s.terms.items():
        for legs2, d in t.terms.items():
            product = oracle.tensor_of_elements(*(
                oracle.element_mul(oracle.element(a), oracle.element(b))
                for a, b in zip(legs1, legs2)
            ))
            for legs, e in product.terms.items():
                terms[legs] = terms.get(legs, 0) + c * d * e
    return oracle.FreeTensor(s.arity, terms)


# y(1)y(2) squared: its product and the legs of its coproduct are whole words
@example((MODELS[1], oracle.element((1, 2)), oracle.element((1, 2))))
@settings(max_examples=100, deadline=None)
@given(oracle_cases())
def test_both_models_are_bialgebras(case):
    model, f, g = case
    assert oracle.delta_power(model, 2, oracle.element_mul(f, g)) == legwise_product(
        oracle.delta_power(model, 2, f), oracle.delta_power(model, 2, g)
    )


# multiplication and projections -----------------------------------------------

def test_m_power_concatenates_legs():
    t = tensor(((1, 2),), ((2, 3),))
    assert oracle.m_power(t) == oracle.element(((1, 2), (2, 3)))
    assert oracle.m_power(oracle.FreeTensor(0, {(): Fraction(5)})) == 5 * oracle.one()


def test_project_multi_filters_on_legwise_degree():
    spread = oracle.delta_power(T3, 2, x13)
    assert oracle.project_multi(spread, (1, 1)) == tensor(((1, 2),), ((2, 3),))
    assert oracle.project_multi(spread, (0, 2)) == tensor((), ((1, 3),))
    assert oracle.project_multi(spread, (3, 0)) == oracle.FreeTensor(2, {})


def test_project_multi_length_must_match_arity():
    with pytest.raises(ValueError):
        oracle.project_multi(tensor(((1, 2),)), (1, 1))


def test_degree_part_picks_homogeneous_terms():
    f = x12 + oracle.element_mul(x12, x23) + 2 * oracle.one()
    assert oracle.degree_part(f, 1) == x12
    assert oracle.degree_part(f, 0) == 2 * oracle.one()
    assert oracle.degree_part(f, 5) == oracle.FreeElement({})


# leg permutation ----------------------------------------------------------------

def test_permute_tensor_moves_content_by_the_inverse():
    t = tensor(((1, 2),), ((2, 3),), ((1, 3),))
    assert oracle.permute_tensor(t, (2, 3, 1)) == tensor(
        ((1, 3),), ((1, 2),), ((2, 3),)
    )
    assert oracle.permute_tensor(t, (1, 2, 3)) == t


def test_permute_tensor_degree_must_match_arity():
    with pytest.raises(ValueError):
        oracle.permute_tensor(tensor(((1, 2),)), (2, 1))


@given(st.permutations(list(range(1, 4))))
def test_permute_tensor_inverts(pi):
    pi = tuple(pi)
    t = tensor(((1, 2),), ((2, 3),), ((1, 3),)) + 2 * tensor((), ((1, 3),), ())
    roundtrip = oracle.permute_tensor(oracle.permute_tensor(t, pi), comb.inverse(pi))
    assert roundtrip == t


@given(st.permutations(list(range(1, 4))), st.permutations(list(range(1, 4))))
def test_permute_tensor_is_a_left_action(pi, rho):
    pi, rho = tuple(pi), tuple(rho)
    t = tensor(((1, 2),), ((2, 3),), ()) + tensor((), ((1, 3),), ((1, 2),))
    one_step = oracle.permute_tensor(t, comb.compose(pi, rho))
    two_step = oracle.permute_tensor(oracle.permute_tensor(t, rho), pi)
    assert one_step == two_step


# the twisted operators ----------------------------------------------------------

def test_twisted_operator_straight_twist():
    assert oracle.apply_pas(T3, (1, 1), (1, 2), x13) == oracle.element(
        ((1, 2), (2, 3))
    )


def test_twisted_operator_crossed_twist_reverses_the_product():
    assert oracle.apply_pas(T3, (1, 1), (2, 1), x13) == oracle.element(
        ((2, 3), (1, 2))
    )


def test_twisted_operator_single_part_is_a_degree_projection():
    assert oracle.apply_pas(T3, (2,), (1,), x13) == x13
    assert oracle.apply_pas(T3, (1,), (1,), x13) == oracle.FreeElement({})


def test_twisted_operator_empty_key_is_the_counit():
    assert oracle.apply_pas(T3, (), (), x12) == oracle.FreeElement({})
    assert oracle.apply_pas(T3, (), (), 3 * oracle.one()) == 3 * oracle.one()


def test_twisted_operator_negative_part_is_zero():
    # sum(alpha) is deg x(1,2) and no nonempty leg overshoots, yet P_(-1,2) is zero
    for sigma in [(1, 2), (2, 1)]:
        image = oracle.apply_pas(T3, (-1, 2), sigma, x12)
        assert image == literal_pas(T3, (-1, 2), sigma, x12) == oracle.FreeElement({})


def test_twisted_operator_length_mismatch_rejected():
    with pytest.raises(ValueError):
        oracle.apply_pas(T3, (1, 1), (1,), x13)


def weak_pair_pool(size_max, length_max):
    pool = []
    for length in range(length_max + 1):
        for n in range(size_max + 1):
            for alpha in comb.weak_compositions(n, length):
                for sigma in itertools.permutations(range(1, length + 1)):
                    pool.append((alpha, sigma))
    return pool


def probe_elements(model):
    gens = [model.gen(*g) if isinstance(g, tuple) else model.gen(g)
            for g in model.generators()]
    word = oracle.element_mul(gens[0], gens[-1])
    mixed = Fraction(1, 2) * gens[0] + word - 2 * gens[-1]
    return gens + [word, mixed]


@given(st.sampled_from(weak_pair_pool(3, 2)))
def test_unreduced_keys_act_like_their_reductions(pair):
    alpha, sigma = pair
    reduced = comb.reduce_pair(alpha, sigma)
    for f in probe_elements(T3):
        assert oracle.apply_pas(T3, alpha, sigma, f) == oracle.apply_pas(
            T3, reduced[0], reduced[1], f
        )


def projection_convolution(model, alpha, f):
    """Reference: p_alpha_1 * ... * p_alpha_k applied to f, folded left
    through ``oracle.convolve`` and keeping nothing."""
    if not alpha:
        return oracle.unit_counit(f)
    projections = [functools.partial(oracle.degree_part, n=a) for a in alpha]
    return functools.reduce(
        lambda phi, psi: functools.partial(oracle.convolve, model, phi, psi), projections
    )(f)


@given(st.sampled_from([(), (1,), (2,), (1, 1), (2, 1), (1, 1, 1)]))
def test_identity_twist_agrees_with_the_projection_convolution(alpha):
    for f in probe_elements(T3):
        direct = oracle.apply_pas(T3, alpha, comb.identity(len(alpha)), f)
        folded = projection_convolution(T3, alpha, f)
        assert direct == folded


def test_projection_convolution_frozen_values():
    assert projection_convolution(T3, (1, 1), x13) == oracle.element(((1, 2), (2, 3)))
    assert projection_convolution(T3, (), x12) == oracle.FreeElement({})
    assert projection_convolution(T3, (2,), x13) == x13


def literal_pas(model, alpha, sigma, f):
    """Reference: m^[k] . P_alpha . sigma^{-1} . coproduct^[k], one map at a time."""
    spread = oracle.delta_power(model, len(alpha), f)
    twisted = oracle.permute_tensor(spread, comb.inverse(sigma))
    return oracle.m_power(oracle.project_multi(twisted, alpha))


# one model that is not cocommutative and one that is
REFERENCE_MODELS = [oracle.TriangularModel(4), oracle.PrimitiveTensorModel(2)]
T4_x14 = REFERENCE_MODELS[0].gen(1, 4)
COEFFICIENTS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)


def _cut(word, max_degree=6):
    """Longest prefix of ``word`` within ``max_degree``; bounds the reference's cost."""
    total = 0
    for i, letter in enumerate(word):
        total += oracle.letter_degree(letter)
        if total > max_degree:
            return word[:i]
    return word


@st.composite
def pas_cases(draw):
    model = draw(st.sampled_from(REFERENCE_MODELS))
    letters = st.sampled_from(model.generators())
    word = st.lists(letters, max_size=5).map(tuple).map(_cut)
    words = draw(st.lists(word, min_size=1, max_size=3))
    f = oracle.FreeElement({})
    for w in words:
        f = f + oracle.element(w, draw(COEFFICIENTS))
    k = draw(st.integers(0, 4))
    # aim alpha at one input word's degree most of the time, so images are nonzero
    degrees = [oracle.word_degree(w) for w in words]
    n = draw(st.one_of(st.sampled_from(degrees), st.integers(0, 6)))
    alpha = draw(st.sampled_from(list(comb.weak_compositions(n, k)) or [()]))
    sigma = tuple(draw(st.permutations(range(1, len(alpha) + 1))))
    return model, alpha, sigma, f


@example((REFERENCE_MODELS[1], (4,), (1,), oracle.element((1, 2, 1, 2))))
@example((REFERENCE_MODELS[1], (1, 3, 0), (3, 1, 2), oracle.element((1, 2, 2, 1))))
@example((REFERENCE_MODELS[0], (1, 1, 1), (2, 3, 1), Fraction(1, 2) * T4_x14 - x13))
@example((REFERENCE_MODELS[0], (0, 0), (2, 1), 2 * oracle.one() - x12))
@settings(max_examples=300, deadline=None)
@given(pas_cases())
def test_twisted_operator_matches_the_literal_composition(case):
    model, alpha, sigma, f = case
    image = oracle.apply_pas(model, alpha, sigma, f)
    assert image == literal_pas(model, alpha, sigma, f)
    assert canonical(image.terms)


# the splitting kernel and the per-model memos -------------------------------------

def brute_word_delta(model, k, word, target=None):
    """Reference for ``_word_delta``: every choice of one k-leg splitting per
    letter, unpruned, then filtered by the target."""
    terms = {}
    for choice in itertools.product(*(model.letter_coproduct_legs(x, k) for x in word)):
        legs = tuple(tuple(x for split in choice for x in split[r]) for r in range(k))
        if target is None or all(
            oracle.word_degree(leg) <= t for leg, t in zip(legs, target)
        ):
            terms[legs] = terms.get(legs, 0) + 1
    return terms


@st.composite
def split_cases(draw):
    model = draw(st.sampled_from(REFERENCE_MODELS))
    word = tuple(draw(st.lists(st.sampled_from(model.generators()), max_size=4)))
    k = draw(st.integers(0, 4))
    target = draw(st.none() | st.tuples(*[st.integers(0, 4)] * k))
    return model, k, _cut(word), target


# primitive words split whole, with targets and without
@example((REFERENCE_MODELS[1], 2, (1, 2, 1, 2), None))
@example((REFERENCE_MODELS[1], 3, (1, 2, 1), (1, 1, 2)))
@example((REFERENCE_MODELS[1], 1, (2, 2, 2), (3,)))
@example((REFERENCE_MODELS[0], 3, ((1, 4), (1, 2)), (1, 2, 1)))
@example((REFERENCE_MODELS[0], 0, (), ()))
@example((REFERENCE_MODELS[0], 0, ((1, 2),), None))
@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_word_delta_matches_the_brute_force_splitting(case):
    model, k, word, target = case
    assert oracle._word_delta(model, k, word, target) == brute_word_delta(
        model, k, word, target
    )


def test_images_on_a_shared_model_match_the_literal_composition():
    # one model serves every key and probe, so later calls split their
    # words through the letter splittings that earlier calls kept on it
    model = oracle.TriangularModel(4)
    x14 = model.gen(1, 4)
    words = [x14, oracle.element(((1, 2), (2, 4))), oracle.element(((1, 3), (3, 4)))]
    probes = words + [Fraction(1, 2) * words[0] - 2 * words[1] + words[2]]
    keys = weak_pair_pool(3, 3)
    for _ in range(2):
        for alpha, sigma in keys:
            for f in probes:
                assert oracle.apply_pas(model, alpha, sigma, f) == literal_pas(
                    model, alpha, sigma, f
                )


# acting by an element of the algebra --------------------------------------------

def test_evaluate_acts_termwise():
    f = F_basis((1, 1), (1, 2)) + F_basis((2,), (1,))
    assert oracle.evaluate_pnsym(T3, f, x13) == oracle.element(
        ((1, 2), (2, 3))
    ) + x13


def test_evaluate_unit_kills_positive_degree():
    assert oracle.evaluate_pnsym(T3, core.UNIT, x12) == oracle.FreeElement({})
    assert oracle.evaluate_pnsym(T3, core.UNIT, oracle.one()) == oracle.one()


def test_evaluate_respects_coefficients():
    f = Fraction(3, 2) * F_basis((1,), (1,))
    assert oracle.evaluate_pnsym(T3, f, x12) == Fraction(3, 2) * x12


# the tensor-square operator ------------------------------------------------------

def test_tensor_square_operator_fixes_a_split_generator():
    t = tensor(((1, 2),), ())
    assert oracle.apply_pas_on_tensor_square(T3, (1,), (1,), t) == t


def test_tensor_square_operator_projects_on_total_degree():
    t = tensor(((1, 2),), ((1, 2),))
    assert oracle.apply_pas_on_tensor_square(T3, (1,), (1,), t) == oracle.FreeTensor(
        2, {}
    )
    assert oracle.apply_pas_on_tensor_square(T3, (2,), (1,), t) == t


def test_tensor_square_operator_requires_arity_two():
    with pytest.raises(ValueError):
        oracle.apply_pas_on_tensor_square(T3, (1,), (1,), tensor(((1, 2),)))
    with pytest.raises(ValueError):
        oracle.apply_pas_on_tensor_square(T3, (1, 1), (1,), tensor(((1, 2),), ()))


def test_tensor_square_operator_matches_componentwise_action_on_pure_tensors():
    # on f (x) 1 and 1 (x) f the componentwise bialgebra reduces to one factor
    for alpha, sigma in [((1, 1), (1, 2)), ((1, 1), (2, 1)), ((2,), (1,))]:
        acted = oracle.apply_pas_on_tensor_square(
            T3, alpha, sigma, oracle.tensor_of_elements(x13, oracle.one())
        )
        direct = oracle.tensor_of_elements(
            oracle.apply_pas(T3, alpha, sigma, x13), oracle.one()
        )
        assert acted == direct


# text form -----------------------------------------------------------------------

def test_format_word():
    assert oracle.format_word(()) == "1"
    assert oracle.format_word(((1, 2), (2, 3))) == "x(1,2)x(2,3)"
    assert oracle.format_word((3, 1)) == "y(3)y(1)"


def test_format_free_element():
    assert oracle.format_free_element(oracle.FreeElement({})) == "0"
    assert oracle.format_free_element(x12 - x13) == "x(1,2) - x(1,3)"
    f = 2 * oracle.one() - Fraction(1, 2) * x12
    assert oracle.format_free_element(f) == "2*1 - 1/2*x(1,2)"
