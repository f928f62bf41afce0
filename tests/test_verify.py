"""The verification driver: family enumeration and reports."""

import pytest

from pnsym import verify


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
