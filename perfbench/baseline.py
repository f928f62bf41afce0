"""Run every workload with several seeds and summarize the spread.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For each workload this makes RUNS end-to-end runs with seeds 1..RUNS and one
traced run, all with BENCHMARK.json's run length, and reports per end-to-end
metric its unit, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median.  ``--runs 1`` is the quick check
that every workload runs, passes its output checks and prints every metric.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    proc = subprocess.run(
        BENCHMARK["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    facts = json.loads(lines[-2][2:])
    return json.loads(lines[-1]), facts


def summarize(metrics):
    values = [m["value"] for m in metrics]
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"unit": metrics[0]["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    report = {"run_seconds": BENCHMARK["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            result, facts = run(workload, seed, 0)
            results.append(result)
            print(workload, seed, json.dumps(result), file=sys.stderr)
        traced, _ = run(workload, 1, 1)
        report["machine"] = {k: facts[k] for k in ("nproc", "python", "cpu")}
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                name: summarize([r["metrics"][name] for r in results])
                for name in results[0]["metrics"]
            },
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
