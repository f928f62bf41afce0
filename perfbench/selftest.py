"""The benchmark's own tests.

    python3 perfbench/selftest.py

They run the benchmark with short settings (about two minutes on two CPUs),
so they are kept apart from the library's test suite.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(HERE / "reference")]

import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = json.loads((HERE / "declarations.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
COUNT_UNITS = ("count",)


def run(workload, trace, seed=3, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Declarations(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(
            set(BENCHMARK),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in BENCHMARK[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for w in BENCHMARK["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)

    def test_every_metric_is_declared_with_layer_and_effect(self):
        for key in ("end_to_end", "per_layer"):
            self.assertEqual(
                [m["name"] for m in BENCHMARK[key]], list(DECLARED[key]), key
            )
        self.assertEqual(
            [w["name"] for w in BENCHMARK["workloads"]], list(DECLARED["workloads"])
        )


class Runs(unittest.TestCase):
    def test_printed_names_equal_declared(self):
        end_to_end = [m["name"] for m in BENCHMARK["end_to_end"]]
        for w in BENCHMARK["workloads"]:
            result = run(w["name"], 0)
            self.assertEqual(list(result["metrics"]), end_to_end, w["name"])
            self.assertTrue(result["correct"], w["name"])
            self.assertEqual(result["failed"], 0)
        per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
        self.assertEqual(list(run("hopf", 1)["metrics"]), per_layer)

    def test_traced_counts_repeat(self):
        counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in COUNT_UNITS]
        counts.append("combinatorics.contingency_tables.shape_reuse")
        counts.append("core.antipode.input_reuse")
        for workload in ("hopf", "ktable"):
            first, second = run(workload, 1), run(workload, 1)
            self.assertTrue(first["correct"] and second["correct"], workload)
            for name in counts:
                self.assertEqual(
                    first["metrics"][name]["value"], second["metrics"][name]["value"],
                    f"{workload} {name}",
                )

    def test_refuses_to_run_without_the_program(self):
        bare = ROOT / ".perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "hopf",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Pairing(unittest.TestCase):
    def test_program_and_reference_make_the_same_requests(self):
        """The ratios compare like with like: built on either package, a
        workload draws the same hopf calls from one seed."""
        program = workloads.Hopf(7, workloads.PROGRAM)
        reference = workloads.Hopf(7, workloads.REFERENCE)
        self.assertEqual(reference.lib.__name__, "pnsym_ref")
        for _ in range(2 * workloads.HOPF_BATCH):
            (op, fn, args, verdict), (ref_op, ref_fn, ref_args, ref_verdict) = (
                program.next_call(), reference.next_call())
            self.assertEqual((op, fn.__name__, verdict), (ref_op, ref_fn.__name__, ref_verdict))
            if op == "check":
                self.assertEqual(args, ref_args)
            else:
                self.assertEqual([x.terms for x in args], [x.terms for x in ref_args])


class InjectedWrongAnswers(unittest.TestCase):
    """A wrong reference inside the benchmark's checker counts as failed ops."""

    def test_ktable(self):
        wl = workloads.Ktable(0)
        wl.entries = [(1, 2), (1, 3)]
        self.assertEqual(wl.run_pass().failed, 0)
        wl.expected[(1, 2)] = 6
        res = wl.run_pass()
        self.assertEqual((res.attempted, res.failed), (2, 1))

    def test_hopf(self):
        wl = workloads.Hopf(5)
        self.assertEqual(wl.run_pass().failed, 0)
        wl.check_pool = [(text, m, not verdict) for text, m, verdict in wl.check_pool]
        res = wl.run_pass()
        self.assertGreater(res.failed, 0)
        self.assertLess(res.failed, res.attempted)

    def test_hopf_sees_the_permutation(self):
        """Results of the same ops on (alpha; sigma') keys, which project to
        the same NSym images, fail the checks of the (alpha; sigma) ones."""
        from pnsym import core

        wl = workloads.Hopf(5)
        x = core.basis((1, 2), (1, 2)) + core.basis((2, 1), (1, 2))
        y = core.basis((1, 2), (2, 1)) + core.basis((2, 1), (2, 1))
        for op, fn, arity in (("mul", core.external_mul, 2), ("imul", core.internal_mul, 2),
                              ("coproduct", core.coproduct, 1), ("antipode", core.antipode, 1)):
            self.assertTrue(wl._correct(op, (x,) * arity, fn(*(x,) * arity), None), op)
            self.assertFalse(wl._correct(op, (x,) * arity, fn(*(y,) * arity), None), op)

    def test_verify_report(self):
        family = "reduction-invariance"
        report = f"{family}: 11200 cases, 2 failures\ntotal: 11200 cases, 2 failures\n"
        self.assertEqual(workloads._verify_failures(family, 11202, 1, report), 4)
        ok = report.replace("11200", "11202").replace("2 failures", "0 failures")
        self.assertEqual(workloads._verify_failures(family, 11202, 0, ok), 0)
        self.assertEqual(workloads._verify_failures(family, 11202, 1, ok), 1)
        self.assertEqual(workloads._verify_failures("distinct-images", 15, 0, ok), 15)
        self.assertEqual(workloads._verify_failures(family, 11202, 0, "garbled"), 11202)

    def test_verify(self):
        wl = workloads.Verify(0)
        wl.cases = {"distinct-images": 15, "degree-projection": 144}
        self.assertEqual(wl.run_pass().failed, 0)
        wl.cases["distinct-images"] = 16
        res = wl.run_pass()
        self.assertEqual((res.attempted, res.failed), (160, 1))


if __name__ == "__main__":
    unittest.main()
