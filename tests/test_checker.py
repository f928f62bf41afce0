"""Operator expressions: grammar, expansion, zero tests, nilpotency search."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pnsym import combinatorics as comb
from pnsym import core, oracle
from pnsym.checker import (
    Antipode,
    Basis,
    CompPower,
    Composition,
    ConvPower,
    Convolution,
    CounitUnit,
    Difference,
    Id,
    ParseError,
    Proj,
    ScalarMul,
    Sum,
    check_zero_on_degree,
    expand,
    k_value,
    parse,
)

from test_acceptance import NILPOTENCE_TABLE


F = core.basis


# parsing ----------------------------------------------------------------------

def test_parse_commutator_power():
    assert parse("(p1*p2 - p2*p1)^5") == CompPower(
        Difference(
            Convolution(Proj(1), Proj(2)), Convolution(Proj(2), Proj(1))
        ),
        5,
    )


def test_parse_composition_of_grouped_factors():
    assert parse("(p1*id - 2 id) o (p1*id)^2") == Composition(
        Difference(Convolution(Proj(1), Id()), ScalarMul(Fraction(2), Id())),
        CompPower(Convolution(Proj(1), Id()), 2),
    )


def test_parse_precedence_composition_binds_tighter_than_convolution():
    assert parse("p1*p2 o p3") == Convolution(
        Proj(1), Composition(Proj(2), Proj(3))
    )
    assert parse("p1 o p2 * p3") == Convolution(
        Composition(Proj(1), Proj(2)), Proj(3)
    )


def test_parse_precedence_convolution_binds_tighter_than_sum():
    assert parse("p1 + p2 * p3") == Sum(Proj(1), Convolution(Proj(2), Proj(3)))


def test_parse_sums_are_left_associative():
    assert parse("p1 - p2 - p3") == Difference(
        Difference(Proj(1), Proj(2)), Proj(3)
    )


def test_parse_powers_bind_tightest():
    assert parse("p1 o p2^2") == Composition(Proj(1), CompPower(Proj(2), 2))
    assert parse("p1^*3") == ConvPower(Proj(1), 3)
    assert parse("(p1 + p2)^2") == CompPower(Sum(Proj(1), Proj(2)), 2)


def test_parse_atoms():
    assert parse("p0") == Proj(0)
    assert parse("id") == Id()
    assert parse("S o S") == Composition(Antipode(), Antipode())
    assert parse("ue") == CounitUnit()


def test_parse_scalars_bind_by_juxtaposition():
    assert parse("3/2 p1") == ScalarMul(Fraction(3, 2), Proj(1))
    assert parse("2 id") == ScalarMul(Fraction(2), Id())
    assert parse("-p1") == ScalarMul(Fraction(-1), Proj(1))
    assert parse("- 2 p1") == ScalarMul(Fraction(-2), Proj(1))
    assert parse("p1 * -2 p2") == Convolution(
        Proj(1), ScalarMul(Fraction(-2), Proj(2))
    )


def test_parse_basis_escape_reduces_the_key():
    assert parse("F((1,0,1);[1,3,2])") == Basis((1, 1), (1, 2))
    assert parse("F(();[])") == Basis((), ())


def test_parse_negative_exponent_rejected_with_position():
    with pytest.raises(ParseError) as exc:
        parse("p1 ^ -1")
    assert exc.value.position == 5


def test_parse_unknown_name_rejected():
    with pytest.raises(ParseError):
        parse("q1")
    with pytest.raises(ParseError):
        parse("p1 + @")


def test_parse_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("p1 p2")


def test_parse_bad_basis_escape_reports_offset_position():
    with pytest.raises(ParseError) as exc:
        parse("p1 + F((1,1);[1,1])")
    assert exc.value.position > 5


# syntax-tree nodes ----------------------------------------------------------------

def test_node_equality_is_class_strict():
    p, q = Proj(1), Proj(2)
    assert Sum(p, q) == Sum(Proj(1), Proj(2))
    assert Sum(p, q) != Difference(p, q)
    assert not Sum(p, q) == Difference(p, q)
    assert Convolution(p, q) != Composition(p, q)
    assert CompPower(p, 2) != ConvPower(p, 2)
    assert Id() != Antipode() != CounitUnit() != Id()
    assert Id() == Id()
    assert Proj(1) != (1,) and (1,) != Proj(1)


def test_equal_nodes_hash_equal_and_key_dicts():
    tree, again = parse("(p1*p2 - p2*p1)^5"), parse("(p1*p2 - p2*p1)^5")
    assert tree is not again and hash(tree) == hash(again)
    p, q = Proj(1), Proj(2)
    table = {tree: "power", Sum(p, q): "+", Difference(p, q): "-", Id(): "id", Antipode(): "S"}
    assert len(table) == 5
    assert table[again] == "power"
    assert table[Difference(Proj(1), Proj(2))] == "-"
    assert table[Antipode()] == "S" and CounitUnit() not in table


def test_node_fields_are_read_only():
    for node, field in [
        (Proj(1), "n"),
        (Sum(Proj(1), Proj(2)), "left"),
        (ConvPower(Id(), 2), "exponent"),
        (ScalarMul(Fraction(2), Id()), "coeff"),
        (Basis((1,), (1,)), "alpha"),
    ]:
        with pytest.raises(AttributeError):
            setattr(node, field, None)


def test_node_and_verdict_reprs():
    assert repr(parse("2 id")) == "ScalarMul(coeff=Fraction(2, 1), body=Id())"
    assert repr(parse("(p1*p2 - p2*p1)^5")) == (
        "CompPower(body=Difference(left=Convolution(left=Proj(n=1), right=Proj(n=2)),"
        " right=Convolution(left=Proj(n=2), right=Proj(n=1))), exponent=5)"
    )
    assert repr(parse("S o ue + F((1,1);[2,1])^*3")) == (
        "Sum(left=Composition(left=Antipode(), right=CounitUnit()),"
        " right=ConvPower(body=Basis(alpha=(1, 1), sigma=(2, 1)), exponent=3))"
    )
    assert repr(check_zero_on_degree("p2", 1)) == "Verdict(holds=True, witness=None)"
    assert repr(check_zero_on_degree("p1", 1)) == (
        "Verdict(holds=False, witness=(1, ((1,), (1,))))"
    )


ROUND_TRIP_CORPUS = [
    "p0",
    "p1",
    "id",
    "S",
    "ue",
    "p1 + p2",
    "p1 - p2 - p3",
    "-p1",
    "2 p1",
    "-3/2 p2",
    "p1 * p2",
    "p1 o p2",
    "p1*p2 o p3",
    "(p1 + p2) * p3",
    "p1^3",
    "p2^*2",
    "(p1*p2 - p2*p1)^5",
    "(p1*id - 2 id) o (p1*id)^2",
    "(S o S - id)^2",
    "S * id - ue",
    "F((1,1);[2,1])",
    "F((2);[1]) o F((1,1);[2,1])",
    "1/2 (p1 + p2)^*2 - id o S",
    "(p1 - p2)^0",
]


# the reference printer: parse reads its text back as the same tree
_ATOM = CompPower.level + 1  # binds tighter than any operator


def to_text(e, min_level=Sum.level):
    if isinstance(e, Proj):
        text = f"p{e.n}"
    elif isinstance(e, (Id, Antipode, CounitUnit)):
        text = e.name
    elif isinstance(e, Basis):
        text = "F" + comb.format_pair(e.alpha, e.sigma)
    elif isinstance(e, ScalarMul):
        text = f"{e.coeff} {to_text(e.body, _ATOM)}"
    elif isinstance(e, (CompPower, ConvPower)):
        text = f"{to_text(e.body, _ATOM)}{e.symbol}{e.exponent}"
    else:
        text = f"{to_text(e.left, e.level)} {e.symbol} {to_text(e.right, e.level + 1)}"
    needs_parens = getattr(e, "level", _ATOM) < min_level or (
        # a bare leading minus would re-associate at the sum level
        isinstance(e, ScalarMul) and e.coeff < 0 and min_level > Sum.level
    )
    return f"({text})" if needs_parens else text


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_print_parse_round_trip(text):
    tree = parse(text)
    assert parse(to_text(tree)) == tree


def expressions(max_depth=3):
    basis_keys = [((), ())] + [key for n in (1, 2) for key in comb.mopiscotions(n)]
    atoms = st.one_of(
        st.builds(Proj, st.integers(min_value=0, max_value=3)),
        st.just(Id()),
        st.just(Antipode()),
        st.just(CounitUnit()),
        st.sampled_from([Basis(a, s) for a, s in basis_keys]),
    )
    coeffs = st.fractions(
        min_value=-3, max_value=3, max_denominator=4
    ).filter(lambda c: c != 0)
    exponents = st.integers(min_value=0, max_value=3)

    def extend(children):
        return st.one_of(
            st.builds(Sum, children, children),
            st.builds(Difference, children, children),
            st.builds(Convolution, children, children),
            st.builds(Composition, children, children),
            st.builds(CompPower, children, exponents),
            st.builds(ConvPower, children, exponents),
            st.builds(ScalarMul, coeffs, children),
        )

    return st.recursive(atoms, extend, max_leaves=8)


@given(expressions())
def test_printing_any_tree_reparses_to_the_same_tree(tree):
    assert parse(to_text(tree)) == tree


# expansion --------------------------------------------------------------------

def test_expand_projection_atom():
    assert expand(Proj(2), 3) == F((2,), (1,))
    assert expand(Proj(2), 1) == core.ZERO
    assert expand(Proj(0), 3) == core.UNIT


def test_expand_identity_is_the_truncated_projection_sum():
    assert expand(Id(), 2) == core.UNIT + F((1,), (1,)) + F((2,), (1,))


def test_expand_antipode_alternating_sum():
    assert expand(Antipode(), 1) == core.UNIT - F((1,), (1,))
    expected = core.UNIT
    expected = expected - F((1,), (1,))
    expected = expected - F((2,), (1,))
    expected = expected + F((1, 1), (1, 2))
    assert expand(Antipode(), 2) == expected


def test_expand_counit_unit():
    assert expand(CounitUnit(), 3) == core.UNIT


def test_expand_basis_escape_truncates():
    e = parse("F((1,0,1);[1,3,2])")
    assert expand(e, 2) == F((1, 1), (1, 2))
    assert expand(e, 1) == core.ZERO


def test_expand_is_linear():
    got = expand(parse("2 p1 + p2 - 1/2 p0"), 2)
    expected = 2 * F((1,), (1,)) + F((2,), (1,)) + Fraction(-1, 2) * core.UNIT
    assert got == expected


def test_expand_convolution_is_the_external_product():
    assert expand(parse("p1 * p1"), 2) == F((1, 1), (1, 2))
    assert expand(parse("p1 * p1"), 1) == core.ZERO


def test_expand_composition_is_the_internal_product():
    assert expand(parse("p2 o p2"), 2) == F((2,), (1,))
    assert expand(parse("p1 o p2"), 2) == core.ZERO


def test_expand_zeroth_powers():
    assert expand(parse("(p1 - p2)^0"), 2) == expand(Id(), 2)
    assert expand(parse("(p1 - p2)^*0"), 2) == core.UNIT


@pytest.mark.parametrize(
    "body, n, m",
    [
        ("id", 5, 3),
        ("2 id + p1 - S", 4, 3),
        ("1/2 ue - p2 + F((1,1);[2,1])", 3, 4),
        ("-3 ue + p1 * p1", 6, 2),
        ("p1", 2, 3),
        ("ue", 7, 3),
    ],
)
def test_convolution_power_closed_form_equals_repeated_products(body, n, m):
    base = expand(parse(body), m)
    repeated = core.UNIT
    for _ in range(n):
        repeated = core.PnsymElement(
            {
                key: c
                for key, c in core.external_mul(repeated, base).terms.items()
                if sum(key[0]) <= m
            }
        )
    assert expand(ConvPower(parse(body), n), m) == repeated


def test_expand_accepts_budget_values():
    assert expand(Id(), 2) == expand(parse("p0 + p1 + p2"), 2)
    with pytest.raises(ValueError):
        expand(Id(), -1)


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_truncation_soundness(text):
    e = parse(text)
    full = expand(e, 3)
    for m in range(4):
        assert core.degree_component(full, m) == core.degree_component(
            expand(e, m), m
        )


def identity_inverse_series(m):
    """Convolution inverse of the identity expansion, degree by degree.

    Independent route to the antipode expansion: solve s * (unit + rest) =
    unit iteratively, gaining one exact degree per pass.
    """
    rest = expand(Id(), m) - core.UNIT
    series = core.UNIT
    for _ in range(m):
        product = core.external_mul(series, rest)
        series = core.UNIT - sum(
            (core.degree_component(product, n) for n in range(m + 1)), core.ZERO
        )
    return series


@pytest.mark.parametrize("m", range(6))
def test_antipode_expansion_inverts_the_identity_series(m):
    assert identity_inverse_series(m) == expand(Antipode(), m)


# zero testing -----------------------------------------------------------------

def test_commutator_fifth_power_vanishes_on_degree_three():
    verdict = check_zero_on_degree("(p1*p2 - p2*p1)^5", 3)
    assert verdict.holds
    assert bool(verdict)
    assert verdict.witness is None


def test_commutator_fourth_power_fails_with_canonical_witness():
    verdict = check_zero_on_degree("(p1*p2 - p2*p1)^4", 3)
    assert not verdict.holds
    assert verdict.witness == (Fraction(2), ((1, 1, 1), (1, 2, 3)))


def test_projection_identity_on_degree_two():
    assert check_zero_on_degree("(p1*id - 2 id) o (p1*id)^2", 2).holds


def test_check_zero_accepts_parsed_trees():
    tree = parse("id - ue")
    assert check_zero_on_degree(tree, 0).holds
    verdict = check_zero_on_degree(tree, 1)
    assert not verdict.holds
    assert verdict.witness == (Fraction(1), ((1,), (1,)))


FAILING_CASES = [
    ("(p1*p2 - p2*p1)^4", 3),
    ("S - id", 1),
    ("p1*p1 - 2 p2", 2),
    ("F((1,1);[2,1])", 2),
    ("p1", 1),
]


@pytest.mark.parametrize("text,m", FAILING_CASES)
def test_failing_verdicts_act_nonzero_on_the_free_model(text, m):
    verdict = check_zero_on_degree(text, m)
    assert not verdict.holds
    component = core.degree_component(expand(parse(text), m), m)
    model = oracle.TriangularModel(m + 1)
    image = oracle.evaluate_pnsym(model, component, model.gen(1, m + 1))
    assert image != oracle.FreeElement({})


# nilpotency search --------------------------------------------------------------

def test_k_value_frozen_entries():
    assert k_value(1, 2, 10) == 5
    assert k_value(0, 7, 3) == 1
    assert k_value(3, 3, 5) == 1


@pytest.mark.parametrize(
    "i, j, sizes",
    [
        (1, 5, [2, 7, 16, 55, 146, 485, 1022, 1318, 602, 720, 0]),
        (2, 4, [2, 11, 70, 600, 1044, 1248, 612, 720, 0]),
    ],
)
def test_bracket_powers_support_sizes(i, j, sizes):
    # support size of each successive power of F((i,j);[1,2]) - F((j,i);[1,2]);
    # the powers composition_powers yields through its memo equal the plain
    # repeated products key by key, and the iteration ends right after the
    # zero power
    bracket = F((i, j), (1, 2)) - F((j, i), (1, 2))
    power = None
    got = []
    for memo_power in core.composition_powers(bracket):
        power = bracket if power is None else core.internal_mul(power, bracket)
        assert memo_power.terms == power.terms
        got.append(len(power.terms))
    assert got == sizes
    assert k_value(i, j, len(sizes)) == len(sizes)


# criterion 2's fast set: its table and the symmetric entry (3,2)
FAST_SET = [
    (i, j, k)
    for (i, j), k in sorted({**NILPOTENCE_TABLE, (3, 2): NILPOTENCE_TABLE[2, 3]}.items())
]


@pytest.mark.parametrize("i, j, expected", FAST_SET)
def test_check_agrees_with_the_nilpotence_table(i, j, expected):
    # k_value's agreement with the table is criterion 2's acceptance test
    bracket = f"(F(({i},{j});[1,2]) - F(({j},{i});[1,2]))"
    assert not check_zero_on_degree(f"{bracket}^{expected - 1}", i + j).holds
    assert check_zero_on_degree(f"{bracket}^{expected}", i + j).holds


@pytest.mark.parametrize("i, j, expected", FAST_SET)
def test_the_free_model_recomputes_the_fast_set(i, j, expected):
    # without core: the bracket's operator applied to x(1,i+j+1) until the
    # image vanishes.  x(1,m+1) goes to one distinct monomial under each key of
    # size m, so the k-th image has as many monomials as the k-th power has
    # terms, and vanishes exactly when the power does
    model = oracle.TriangularModel(i + j + 1)

    def bracket(y):
        return oracle.apply_pas(model, (i, j), (1, 2), y) - oracle.apply_pas(
            model, (j, i), (1, 2), y
        )

    image = model.gen(1, i + j + 1)
    sizes = []
    while image and len(sizes) <= expected:  # bounded, should k be wrong
        image = bracket(image)
        sizes.append(len(image.terms))
    assert not image and len(sizes) == expected
    powers = core.composition_powers(F((i, j), (1, 2)) - F((j, i), (1, 2)))
    assert sizes == [len(power.terms) for power in powers]


def test_k_value_not_found_below_the_threshold():
    assert k_value(1, 2, 3) is None


def test_k_value_requires_a_positive_bound():
    with pytest.raises(ValueError):
        k_value(1, 2, 0)


@pytest.mark.parametrize("k", range(5))
def test_squared_antipode_vanishes_to_order_k_on_degree_k(k):
    text = f"(S o S - id)^{max(1, k)}"
    body = Difference(Composition(Antipode(), Antipode()), Id())
    assert parse(text) == CompPower(body, max(1, k))
    assert check_zero_on_degree(text, k).holds
