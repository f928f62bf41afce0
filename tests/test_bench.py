"""The benchmark harness, ``bench/run.py``, without timing anything: its
pair summary, its interleaving, and its loading of a tree under a second
name."""

import importlib.util
import pathlib
import sys

from pnsym import checker, cli, core

RUN = pathlib.Path(__file__).resolve().parents[1] / "bench" / "run.py"
_spec = importlib.util.spec_from_file_location("bench_run", RUN)
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def test_the_summary_reads_medians_quartiles_and_wins():
    # ratios 0.5, 1, 1.5, 2, 0.25; the tie (2, 2) is a win for neither tree
    times = [(1, 2), (2, 2), (3, 2), (4, 2), (1, 4)]
    assert run.summary(times) == {
        "this_s": 2,
        "other_s": 2,
        "ratio": 1.0,
        "q1": 0.375,
        "q3": 1.75,
        "wins": [2, 2],
    }


def test_pairs_take_turns_going_first_after_one_warm_up_each():
    order = []

    def timer(side, seconds):
        def timed():
            order.append(side)
            return seconds
        return timed

    assert run.pairs(timer("this", 1.0), timer("other", 2.0), 4) == [(1.0, 2.0)] * 4
    assert order == ["this", "other"] * 2 + ["other", "this", "this", "other", "other", "this"]


def test_a_tree_loaded_under_a_second_name_is_a_distinct_copy():
    try:
        checker, second_cli, comb, second, oracle, verify = run.load(
            "pnsym_second", RUN.parents[1] / "src"
        )
        assert second.__name__ == "pnsym_second.core" and second is not core
        assert second_cli.__name__ == "pnsym_second.cli"
        assert second.PnsymElement is not core.PnsymElement
        left, right = "F((1,2);[2,1]) - F((3);[1])", "2*F((2,1);[1,2])"
        got = second.internal_mul(second.parse_element(left), second.parse_element(right))
        want = core.internal_mul(core.parse_element(left), core.parse_element(right))
        assert type(got) is second.PnsymElement
        assert second.format_element(got) == core.format_element(want) != "0"
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "pnsym_second"]:
            del sys.modules[name]


def test_recording_sees_every_splitting_kernel_call_of_the_coproduct_and_antipode():
    # the key_coproduct layer replays these calls, so both callers must look
    # the kernel up in the module at each call
    key = ((1, 2), (2, 1))
    calls = []
    with run.recording(core, "_key_coproduct", calls):
        core.coproduct(core.basis(*key))
        core.antipode(core.basis(*key))
    # the antipode's recursion runs the kernel on smaller keys as well
    assert calls[:2] == [key, key] and len(calls) > 2


def test_cli_requests_capture_their_output(capsys):
    run.cli_requests(cli, [["rank", "3"], ["ktable", "1", "3"]])()
    assert capsys.readouterr().out == ""


def test_the_all_ones_layer_multiplies_every_all_ones_left_key_of_k24():
    calls = []
    with run.recording(core, "internal_mul", calls):
        checker.k_value(2, 4, 12)
    ones, bracket = run.all_ones_k24(core)
    assert all(g == bracket for _, g in calls)
    left = {key for f, _ in calls for key in f.terms if key[0] == (1,) * 6}
    assert set(ones.terms) == left and len(left) == 720
    assert set(ones.terms.values()) == {1}
