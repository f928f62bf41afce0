"""The three text readers -- keys, elements, operator expressions -- share one
scanner: error positions index the offending character of the original text,
and no input escapes as anything but a ParseError."""

import pytest
from hypothesis import given, settings, strategies as st

from pnsym import checker, cli, core
from pnsym import combinatorics as comb

from test_checker import to_text

PARSERS = (
    (comb.parse_pair, ""),
    (core.parse_element, "F"),
    (checker.parse, "F"),
)


def position(parse, text):
    with pytest.raises(comb.ParseError) as exc:
        parse(text)
    return exc.value.position


@pytest.mark.parametrize("parse, text, pos", [
    (comb.parse_pair, "((1,x);[1,2])", 4),
    (checker.parse, "F((1,a);[1,2])", 5),
    (core.parse_element, "F((1,a);[1,2])", 5),
    (core.parse_element, "1/0*F((1);[1])", 2),
    (comb.parse_pair, "((²);[1])", 2),
    (core.parse_element, "F((²);[1])", 3),
    (checker.parse, "F((²);[1])", 3),
    (comb.parse_pair, "((1 2);[1])", 4),
    (comb.parse_pair, "((1,1);[1,1])", 7),
    (comb.parse_pair, "((1,1); [1])", 8),
    (checker.parse, "p1 + F((1,1);[2,2])", 13),
])
def test_error_positions(parse, text, pos):
    assert position(parse, text) == pos


def test_a_number_past_the_digit_limit_is_a_parse_error():
    text = "((" + "1" * 5000 + ");[1])"
    try:
        comb.parse_pair(text)  # interpreters without a digit limit read it
    except comb.ParseError as exc:
        assert exc.position == 2


def test_whitespace_separates_tokens_anywhere():
    assert comb.parse_pair(" ( (1 , 12) ;[ 2,1 ] ) ") == ((1, 12), (2, 1))
    assert core.parse_element(" 3 / 2 * F ( (1) ; [1] ) ") == core.parse_element(
        "3/2*F((1);[1])"
    )
    assert checker.parse("F ((1);[1])") == checker.parse("F((1);[1])")


pairs = st.lists(st.integers(0, 12), min_size=1, max_size=5).flatmap(
    lambda alpha: st.tuples(
        st.just(tuple(alpha)),
        st.permutations(range(1, len(alpha) + 1)).map(tuple),
    )
)


@given(pairs, st.data())
def test_a_bad_digit_is_reported_at_its_own_offset(pair, data):
    text = comb.format_pair(*pair)
    i = data.draw(st.sampled_from([i for i, ch in enumerate(text) if ch.isdigit()]))
    bad = text[:i] + "x" + text[i + 1:]
    for parse, prefix in PARSERS:
        assert position(parse, prefix + bad) == len(prefix) + i


@given(st.one_of(st.text(max_size=30), st.text("F()[];,0123/*+-^ pSidueo²", max_size=30)))
@settings(max_examples=300)
def test_any_text_parses_or_raises_a_positioned_parse_error(text):
    for parse, prefix in PARSERS:
        for candidate in (text, prefix + text):
            try:
                parse(candidate)
            except comb.ParseError as exc:
                assert 0 <= exc.position <= len(candidate)


@pytest.mark.parametrize("expr", [
    "(" * 3000 + "p1" + ")" * 3000,
    "+".join(["p1"] * 3000),
    "2 " * 3000 + "p1",
], ids=["parentheses", "sum", "scalars"])
def test_deep_expressions_exit_2_without_a_traceback(capsys, expr):
    code = cli.main(["check", expr, "--degree", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_expressions_at_the_depth_bound_parse_print_and_expand():
    depth = checker.MAX_DEPTH
    parens = "(" * depth + "p1" + ")" * depth
    chain = " + ".join(["p1"] * depth)
    for text in (parens, chain):
        tree = checker.parse(text)
        assert checker.parse(to_text(tree)) == tree
        assert checker.expand(tree, 1)
    assert position(checker.parse, "(" + parens + ")") == depth
    longer = chain + " + p1"
    assert position(checker.parse, longer) == longer.rindex("+")
