"""The verification driver: family enumeration and reports."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from pnsym import combinatorics as comb
from pnsym import core, oracle, verify


def test_every_family_runs_cases_and_none_fail_at_small_bounds():
    results = verify.run_all(model_size=3, max_size=2)
    assert [r.name for r in results] == list(verify.FAMILIES)
    for r in results:
        assert r.cases > 0, r.name
        assert r.failures == 0, (r.name, r.examples)
        assert r.ok


def test_family_counts_are_deterministic():
    a = verify.run_family("degree-projection", model_size=3, max_size=2)
    b = verify.run_family("degree-projection", model_size=3, max_size=2)
    assert (a.cases, a.failures) == (20, 0)
    assert a == b


def test_case_counts_grow_with_the_bounds():
    small = verify.run_family("distinct-images", model_size=3, max_size=2)
    large = verify.run_family("distinct-images", model_size=4, max_size=3)
    assert small.cases == 4
    assert large.cases == 15
    assert small.failures == large.failures == 0


def test_unknown_family_is_an_error():
    with pytest.raises(KeyError):
        verify.run_family("no-such-family")


def test_run_all_honors_the_name_filter():
    picked = ["wreath-associativity", "degree-projection"]
    results = verify.run_all(model_size=3, max_size=2, names=picked)
    assert [r.name for r in results] == picked


def test_run_all_matches_per_family_runs():
    # one request per family does the same work as one run over the names
    names = ["degree-projection", "iterated-product-merge", "distinct-images"]
    whole = verify.run_all(model_size=3, max_size=2, names=names)
    assert whole == [verify.run_family(n, 3, 2) for n in names]


def test_format_report():
    results = [
        verify.FamilyResult("degree-projection", 20, 0),
        verify.FamilyResult("distinct-images", 4, 1, ("case-label",)),
    ]
    assert verify.format_report(results) == (
        "degree-projection: 20 cases, 0 failures\n"
        "distinct-images: 4 cases, 1 failures\n"
        "total: 24 cases, 1 failures"
    )


def _zero(*args):
    return oracle.FreeElement({})


def _untwisted_only(apply_pas):
    """``apply_pas`` that loses every image whose twist moves leg 1."""
    def broken(model, alpha, sigma, f):
        return _zero() if sigma[:1] not in ((), (1,)) else apply_pas(model, alpha, sigma, f)
    return broken


def _reversed_result(fn):
    return lambda *args: tuple(reversed(fn(*args)))


def test_failing_cases_are_reported_by_label(monkeypatch):
    # the first three failures of each family keep their labels, word for word
    monkeypatch.setattr(oracle, "evaluate_pnsym", _zero)
    monkeypatch.setattr(oracle, "apply_pas", _untwisted_only(oracle.apply_pas))
    monkeypatch.setattr(comb, "interleave_power", _reversed_result(comb.interleave_power))
    results = verify.run_all(
        model_size=3,
        max_size=2,
        names=[
            "composition-expansion",
            "convolution-concatenation",
            "reduction-invariance",
            "cocommutative-collapse",
            "shuffle-factorization",
        ],
    )
    assert [(r.name, r.cases, r.failures, r.examples) for r in results] == [
        ("composition-expansion", 156, 24, (
            "((1);[1]) ((1);[1]) (1,2)",
            "((1);[1]) ((1);[1]) (2,3)",
            "((2);[1]) ((2);[1]) (1,3)",
        )),
        ("convolution-concatenation", 125, 2, (
            "((1);[1]) ((1,1);[2,1]) x(1,2)x(1,3)",
            "((1);[1]) ((1,1);[2,1]) mixed",
        )),
        ("reduction-invariance", 642, 101, (
            "((0,1);[2,1]) (1,2)",
            "((0,1);[2,1]) (2,3)",
            "((1,0);[2,1]) (1,2)",
        )),
        ("cocommutative-collapse", 6, 4, (
            "((1,1);[2,1]) y(1)y(1)",
            "((1,1);[2,1]) y(1)y(2)",
            "((1,1);[2,1]) y(2)y(1)",
        )),
        ("shuffle-factorization", 81, 80, (
            "1 2 (1,) (1, 2)",
            "1 2 (1,) (2, 1)",
            "1 3 (1,) (1, 2, 3)",
        )),
    ]
    # core's products substitute permutations too, so this patch gets a run
    # of its own, after the results above are read
    monkeypatch.setattr(comb, "wreath_substitute", _reversed_result(comb.wreath_substitute))
    (result,) = verify.run_all(model_size=3, max_size=2, names=["wreath-associativity"])
    assert (result.cases, result.failures, result.examples) == (243, 234, (
        "1 1 2 (1,) (1,) (1, 2)",
        "1 1 2 (1,) (1,) (2, 1)",
        "1 2 2 (1,) (1, 2) (1, 2)",
    ))


def _legs_swapped(model, phi, psi, f):
    """``oracle.convolve`` with ``phi`` on the right leg and ``psi`` on the left."""
    return sum(
        (
            c * oracle.element_mul(phi(oracle.element(w2)), psi(oracle.element(w1)))
            for (w1, w2), c in oracle.delta_power(model, 2, f).terms.items()
        ),
        oracle.FreeElement(),
    )


def test_a_wrong_convolution_fails_both_convolution_families(monkeypatch):
    # phi on the right Sweedler leg and psi on the left: the convolution over
    # the opposite coproduct, which the triangular model tells apart
    monkeypatch.setattr(oracle, "convolve", _legs_swapped)
    results = verify.run_all(
        model_size=3,
        max_size=2,
        names=["projection-convolution", "convolution-concatenation"],
    )
    assert [(r.cases, r.failures, r.examples) for r in results] == [
        (100, 8, ("(1,1) (1,3)", "(1,1) mixed", "(0,1,1) (1,3)")),
        (125, 14, (
            "((1);[1]) ((1);[1]) (1,3)",
            "((1);[1]) ((1);[1]) mixed",
            "((1);[1]) ((2);[1]) x(1,2)x(1,3)",
        )),
    ]


def test_a_reversed_internal_product_fails_composition_expansion(monkeypatch):
    # F(b;t) * F(a;s) in place of F(a;s) * F(b;t): the expansion of the
    # composite taken in the wrong order, which a size-4 model tells apart
    internal_mul = core.internal_mul
    monkeypatch.setattr(core, "internal_mul", lambda f, g: internal_mul(g, f))
    result = verify.run_family("composition-expansion", model_size=4, max_size=3)
    assert (result.cases, result.failures) == (15660, 52)
    assert result.examples == (
        "((1,2);[1,2]) ((1,2);[2,1]) (1,4)",
        "((1,2);[1,2]) ((2,1);[1,2]) (1,4)",
        "((1,2);[1,2]) ((2,1);[2,1]) (1,4)",
    )


_STATE_PROBE = """
import json
from pnsym import oracle, verify

def sizes():
    # every dict, list and set bound at module level or as a function default
    out = {}
    for module in (verify, oracle):
        for name, value in vars(module).items():
            if isinstance(value, (dict, list, set)) and not name.startswith("__"):
                out[f"{module.__name__}.{name}"] = len(value)
            for i, default in enumerate(getattr(value, "__defaults__", None) or ()):
                if isinstance(default, (dict, list, set)):
                    out[f"{module.__name__}.{name} default {i}"] = len(default)
    return out

before = sizes()
runs = [
    [repr(verify.run_family(name, 3, 2)) for name in verify.FAMILIES]
    for _ in range(2)
]
cached = [
    f"{module.__name__}.{name}"
    for module in (verify, oracle)
    for name, value in vars(module).items()
    if hasattr(value, "cache_info")
]
print(json.dumps({"before": before, "after": sizes(), "cached": cached, "runs": runs}))
"""


def test_verify_keeps_no_state_between_runs():
    # perfbench makes every family request more than once in one process, so
    # a value kept past its family run would be read again by the next run
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(verify.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", _STATE_PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    state = json.loads(run.stdout)
    first, second = state["runs"]
    assert first == second
    assert state["cached"] == []
    assert state["after"] == state["before"]
