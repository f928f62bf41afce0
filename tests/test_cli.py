"""The pnsym command line: output text, JSON mirrors, exit codes."""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from pnsym import cli, oracle


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# element commands ---------------------------------------------------------------

def test_imul(capsys):
    code, out, err = run(capsys, "imul", "F((1,1);[2,1])", "F((1,1);[2,1])")
    assert code == 0
    assert out == "F((1,1);[1,2]) + F((1,1);[2,1])\n"
    assert err == ""


def test_mul_by_the_unit(capsys):
    code, out, _ = run(capsys, "mul", "F(();[])", "F((2);[1])")
    assert code == 0
    assert out == "F((2);[1])\n"


def test_mul_json_mirrors_the_term_list(capsys):
    code, out, _ = run(capsys, "mul", "F(();[])", "F((2);[1])", "--json")
    assert code == 0
    assert json.loads(out) == [{"coeff": "1", "alpha": [2], "sigma": [1]}]
    assert "\n" not in out.strip()


def test_antipode_of_a_primitive(capsys):
    code, out, _ = run(capsys, "antipode", "F((1);[1])")
    assert code == 0
    assert out == "-F((1);[1])\n"


def test_antipode_with_a_twist(capsys):
    code, out, _ = run(capsys, "antipode", "F((1,1);[2,1])")
    assert code == 0
    assert out == "2*F((1,1);[1,2]) - F((1,1);[2,1])\n"


def test_coproduct_text_and_json(capsys):
    code, out, _ = run(capsys, "coproduct", "F((1,1);[1,2])")
    assert code == 0
    assert out == (
        "F(();[]) # F((1,1);[1,2])"
        " + 2*F((1);[1]) # F((1);[1])"
        " + F((1,1);[1,2]) # F(();[])\n"
    )
    code, out, _ = run(capsys, "coproduct", "F((1,1);[1,2])", "--json")
    assert code == 0
    assert json.loads(out) == [
        {"coeff": "1", "legs": [{"alpha": [], "sigma": []},
                                {"alpha": [1, 1], "sigma": [1, 2]}]},
        {"coeff": "2", "legs": [{"alpha": [1], "sigma": [1]},
                                {"alpha": [1], "sigma": [1]}]},
        {"coeff": "1", "legs": [{"alpha": [1, 1], "sigma": [1, 2]},
                                {"alpha": [], "sigma": []}]},
    ]


def test_reduce(capsys):
    for pair, reduced in [
        ("((3,0,1,2,0);[4,5,1,3,2])", "((3,1,2);[3,1,2])"),
        ("((3,0,1,2,0);[4,1,3,2,5])", "((3,1,2);[3,2,1])"),
        ("((1);[1])", "((1);[1])"),
    ]:
        code, out, _ = run(capsys, "reduce", pair)
        assert code == 0
        assert out == reduced + "\n"


def test_parse_failure_exits_2_with_a_diagnostic(capsys):
    code, out, err = run(capsys, "mul", "F((1,1);[oops])", "F(();[])")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["imul", "F((1);[2])", "F((1);[1])"],
    ["coproduct", "F((1,1);[1])"],
    ["antipode", "3/0*F((1);[1])"],
    ["reduce", "((1,2);[1,1])"],
    ["check", "p1+q", "--degree", "1"],
    ["reduce", "((" + "1" * 5000 + ");[1])"],
    ["reduce", "((" + "1" * 5000 + ");[1])", "--json"],
])
def test_bad_input_exits_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


# numeric commands ---------------------------------------------------------------

def test_rank(capsys):
    code, out, _ = run(capsys, "rank", "7")
    assert code == 0
    assert out == "11743\n"
    code, out, _ = run(capsys, "rank", "0")
    assert out == "1\n"
    code, out, _ = run(capsys, "rank", "7", "--json")
    assert json.loads(out) == {"n": 7, "rank": 11743}


def test_a_rank_past_the_digit_limit_prints_in_full(capsys):
    # 5736 digits, past the interpreter's default int-to-text bound
    code, out, err = run(capsys, "rank", "2000")
    assert (code, err) == (0, "")
    assert len(out) == 5737 and out.startswith("9010063036818906658") and out[:-1].isdigit()
    code, out, err = run(capsys, "rank", "2000", "--json")
    assert (code, err) == (0, "")
    value = json.loads(out)
    assert value["n"] == 2000 and len(str(value["rank"])) == 5736


def test_rank_rejects_negative_input(capsys):
    code, out, err = run(capsys, "rank", "-1")
    assert (code, out) == (2, "")
    assert err == "error: argument n: must be nonnegative\n"


def test_check_holding_identity(capsys):
    code, out, _ = run(capsys, "check", "(p1*p2 - p2*p1)^5", "--degree", "3")
    assert code == 0
    assert out == "holds\n"
    code, out, _ = run(
        capsys, "check", "(p1*p2 - p2*p1)^5", "--degree", "3", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"verdict": "holds", "degree": 3}


def test_check_failing_identity_exits_1_with_witness(capsys):
    code, out, _ = run(capsys, "check", "(p1*p2 - p2*p1)^4", "--degree", "3")
    assert code == 1
    assert out == "fails: 2*F((1,1,1);[1,2,3])\n"
    code, out, _ = run(
        capsys, "check", "(p1*p2 - p2*p1)^4", "--degree", "3", "--json"
    )
    assert code == 1
    assert json.loads(out) == {
        "verdict": "fails",
        "degree": 3,
        "witness": {"coeff": "2", "alpha": [1, 1, 1], "sigma": [1, 2, 3]},
    }


def test_check_stops_a_power_once_it_repeats(capsys):
    # p1 is idempotent under composition, so the power is stable after one
    # product; the exponent must not cost one product per step
    code, out, _ = run(capsys, "check", "p1^99999999", "--degree", "2")
    assert code == 0
    assert out == "holds\n"
    code, out, _ = run(capsys, "check", "p1^99999999 - p1", "--degree", "1")
    assert code == 0
    assert out == "holds\n"


def test_check_takes_a_power_beyond_the_machine_word(capsys):
    # a 30-digit exponent is past sys.maxsize; p2 is idempotent, so the
    # power repeats at once and the exponent's size costs nothing
    power = "p2^" + "9" * 30
    code, out, err = run(capsys, "check", power, "--degree", "2")
    assert (code, out, err) == (1, "fails: F((2);[1])\n", "")
    code, out, err = run(capsys, "check", power + " - p2", "--degree", "2")
    assert (code, out, err) == (0, "holds\n", "")


def test_check_convolution_power_costs_at_most_degree_products(capsys):
    # id = ue + p1 + p2 on degree 2, so its n-th power there is
    # n p2 + C(n, 2) p1*p1; a power that keeps changing must not cost one
    # product per step
    code, out, _ = run(capsys, "check", "id^*99999999", "--degree", "2")
    assert code == 1
    assert out == "fails: 4999999850000001*F((1,1);[1,2])\n"


def test_check_with_a_huge_witness_exits_1(capsys):
    # the witness is 2^20000, 6021 digits
    code, out, err = run(capsys, "check", "(2 ue)^*20000", "--degree", "0")
    assert (code, err) == (1, "")
    assert out == f"fails: {2 ** 20000}*F(();[])\n"
    code, out, err = run(capsys, "check", "(2 ue)^*20000", "--degree", "0", "--json")
    assert (code, err) == (1, "")
    assert json.loads(out)["witness"] == {"coeff": str(2 ** 20000), "alpha": [], "sigma": []}


def test_check_expression_error_exits_2(capsys):
    code, out, err = run(capsys, "check", "p1 ^ -1", "--degree", "2")
    assert code == 2
    assert err.startswith("error:")


def test_check_requires_a_degree(capsys):
    code, out, err = run(capsys, "check", "p1")
    assert (code, out) == (2, "")
    assert err == "error: the following arguments are required: --degree\n"


def test_ktable(capsys):
    code, out, _ = run(capsys, "ktable", "1", "3", "--max", "10")
    assert code == 0
    assert out == "7\n"
    code, out, _ = run(capsys, "ktable", "1", "2")
    assert code == 0
    assert out == "5\n"
    code, out, _ = run(capsys, "ktable", "1", "2", "--json")
    assert json.loads(out) == {"i": 1, "j": 2, "max": 12, "k": 5}


def test_ktable_not_found_still_exits_0(capsys):
    code, out, _ = run(capsys, "ktable", "1", "2", "--max", "3")
    assert code == 0
    assert out == "not_found\n"
    code, out, _ = run(capsys, "ktable", "1", "2", "--max", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"i": 1, "j": 2, "max": 3, "k": None}


def test_verify_report_and_exit(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--model-size", "3",
        "--max-size", "2",
        "--family", "degree-projection",
        "--family", "distinct-images",
    )
    assert code == 0
    assert out == (
        "degree-projection: 20 cases, 0 failures\n"
        "distinct-images: 4 cases, 0 failures\n"
        "total: 24 cases, 0 failures\n"
    )


def test_verify_json(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--model-size", "3",
        "--max-size", "2",
        "--family", "degree-projection",
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {
        "families": [{"name": "degree-projection", "cases": 20, "failures": 0}],
        "ok": True,
    }


def test_verify_json_names_the_failing_cases(capsys, monkeypatch):
    # a family with failures keeps the labels of its first three in the JSON
    monkeypatch.setattr(oracle, "evaluate_pnsym", lambda *args: oracle.FreeElement({}))
    code, out, _ = run(
        capsys,
        "verify",
        "--model-size", "3",
        "--max-size", "2",
        "--family", "composition-expansion",
        "--family", "degree-projection",
        "--json",
    )
    assert code == 1
    assert json.loads(out) == {
        "families": [
            {
                "name": "composition-expansion",
                "cases": 156,
                "failures": 61,
                "examples": [
                    "((1);[1]) ((1);[1]) (1,2)",
                    "((1);[1]) ((1);[1]) (2,3)",
                    "((2);[1]) ((2);[1]) (1,3)",
                ],
            },
            {"name": "degree-projection", "cases": 20, "failures": 0},
        ],
        "ok": False,
    }


def test_verify_on_a_model_without_generators(capsys):
    # the size-1 triangular model has no generators; the checks are vacuous
    # there but must still run
    code, out, err = run(capsys, "verify", "--model-size", "1", "--max-size", "1")
    assert code == 0
    assert err == ""
    assert out.endswith("total: 108 cases, 0 failures\n")


def test_verify_bounds_the_model_size(capsys):
    # the bound is checked before any model is built
    code, out, err = run(
        capsys, "verify", "--model-size", str(cli.MAX_MODEL_SIZE + 1), "--max-size", "1"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --model-size must be at most {cli.MAX_MODEL_SIZE}\n"
    code, out, err = run(
        capsys, "verify", "--model-size", str(cli.MAX_MODEL_SIZE), "--max-size", "0",
        "--family", "degree-projection",
    )
    assert code == 0 and err == ""


def test_verify_bounds_the_max_size(capsys):
    # the bound is checked before any model is built
    code, out, err = run(
        capsys, "verify", "--max-size", str(cli.MAX_COMPOSITION_SIZE + 1)
    )
    assert (code, out) == (2, "")
    assert err == f"error: --max-size must be at most {cli.MAX_COMPOSITION_SIZE}\n"
    code, out, err = run(
        capsys, "verify", "--model-size", "1", "--max-size", str(cli.MAX_COMPOSITION_SIZE),
        "--family", "degree-projection",
    )
    assert code == 0 and err == ""


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--max-size" in capsys.readouterr().out


def test_verify_rejects_unknown_family(capsys):
    code, out, err = run(capsys, "verify", "--family", "no-such-family")
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: argument --family: invalid choice: 'no-such-family'")


# determinism ---------------------------------------------------------------------

def test_identical_invocations_are_byte_identical(capsys):
    first = run(capsys, "imul", "F((2,1);[2,1])", "F((1,1,1);[3,1,2])")
    second = run(capsys, "imul", "F((2,1);[2,1])", "F((1,1,1);[3,1,2])")
    assert first == second
    third = run(capsys, "verify", "--model-size", "3", "--max-size", "2")
    fourth = run(capsys, "verify", "--model-size", "3", "--max-size", "2")
    assert third == fourth


# exit-code contract under fuzzing ---------------------------------------------------

# weak compositions of length and degree at most 3
WEAK = [a for k in range(4) for a in itertools.product(range(4), repeat=k) if sum(a) <= 3]


@st.composite
def pair_texts(draw):
    alpha = draw(st.sampled_from(WEAK))
    sigma = draw(st.permutations(range(1, len(alpha) + 1)))
    if draw(st.integers(0, 5)) == 0:  # now and then a list that may not be one
        sigma = draw(st.lists(st.integers(0, 4), max_size=3))
    return f"(({','.join(map(str, alpha))});[{','.join(map(str, sigma))}])"


scalars = st.builds(
    lambda num, den: str(num) if den is None else f"{num}/{den}",
    st.integers(0, 30),
    st.none() | st.integers(0, 4),
)

garbage = st.text("F()[];,0123/*+-^ pSidueo", max_size=20)


@st.composite
def element_texts(draw):
    terms = []
    for i in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(["", "-"] if i == 0 else [" + ", " - "]))
        coeff = draw(st.just("") | scalars.map(lambda c: c + "*"))
        terms.append(f"{sign}{coeff}F{draw(pair_texts())}")
    return "".join(terms)


@st.composite
def expressions(draw):
    parts = []
    for i in range(draw(st.integers(1, 3))):
        atoms = st.sampled_from(["p0", "p1", "p2", "p3", "id", "S", "ue"])
        atom = draw(atoms | pair_texts().map(lambda pair: "F" + pair))
        if draw(st.booleans()):
            atom = f"{draw(scalars)} {atom}"
        if draw(st.booleans()):
            power = draw(st.sampled_from(["^", "^*"]))
            atom = f"({atom}){power}{draw(st.integers(0, 30))}"
        if i:
            parts.append(draw(st.sampled_from(["+", "-", "*", "o"])))
        parts.append(atom)
    return " ".join(parts)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["mul", "imul", "coproduct", "antipode", "reduce", "rank", "check"]
    ))
    flags = draw(st.sampled_from([[], ["--json"]]))
    if command == "rank":
        return [command, *flags, str(draw(st.integers(0, 2500)))]
    if command == "check":
        flags = [*flags, "--degree", str(draw(st.integers(0, 3)))]
        texts = expressions()
    elif command == "reduce":
        texts = pair_texts()
    else:
        texts = element_texts()
    operands = 2 if command in ("mul", "imul") else 1
    # "--" keeps a text that starts with "-" from reading as an option
    return [command, *flags, "--", *(draw(texts | garbage) for _ in range(operands))]


@settings(max_examples=200, deadline=None)
@given(argvs())
@example(["verify", "--model-size", "99999999999", "--max-size", "1"])
@example(["verify", "--max-size", "99999999999"])
@example(["rank", "-1"])
@example(["check", "p1"])
@example(["verify", "--family", "nope"])
@example(["verify", "--model-size", "0"])
def test_every_run_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
    else:
        assert err.getvalue() == "" and out.getvalue().endswith("\n")
