"""pnsym benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload {ktable,verify,hopf} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout.  The program is built from
``src/`` there (byte-compiled) and every workload runs in fresh processes
with ``PNSYM_THREADS`` removed from the environment, so set-up time, memory
and any in-program cache belong to that workload alone.

``--trace 0`` prints the end-to-end metrics.  One measuring process runs
passes of the workload's job for about S seconds and makes every request
twice, back to back: on the program and on the reference, a copy of pnsym
frozen in ``perfbench/reference/`` at the commit that defined this
benchmark.  On a shared host the speed a process gets can change by tens
of percent for minutes at a time as other programs come and go, which a
time in seconds cannot tell from a change to the program; the two calls of
a pair meet the host at the same speed, so the ratios of the program's
times to the reference's (``*_rel``) show the program's own speed.  Set-up time is the median over
several fresh processes that import only the program.  ``--trace 1`` runs
the fixed traced job in one fresh process, alternating untraced and traced
passes over the same inputs, and prints the per-layer metrics with the
ratio of the median traced to the median untraced pass time as the
tracing overhead.  ``--seed`` drives the ``hopf`` call stream; ``ktable``
and ``verify`` have fixed inputs.  Metric names and units are the ones
``BENCHMARK.json`` declares.

The last line of standard output is the JSON result; the lines before it
state the machine, the program's times in seconds, the sample counts and
the failure ratio.  A traced run also writes its spans to
``.perfbench_out/``.
"""

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
# set-up is timed in fresh processes that import only the program, half of
# them before the measuring process and half after it
SETUP_SAMPLES = 12
WORKER_TIMEOUT_S = 170


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def worker_env():
    env = dict(os.environ)
    env.pop("PNSYM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(REFERENCE), env.get("PYTHONPATH", "")) if p
    )
    return env


def spawn(workload, seed, mode, seconds=0):
    """Run one worker process to its end; its JSON plus when it was started."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(seconds)],
        cwd=ROOT,
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {mode} worker failed:\n{proc.stderr}")
    out = json.loads(lines[-1])
    out["spawned"] = started
    return out


def p99(values):
    """Nearest-rank 99th percentile, or the median when fewer than ten
    samples would lie beyond it (the one job latency of ktable and verify)."""
    if len(values) < 1000:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def made(op_s):
    """Every latency of the run, skipped requests left out."""
    return [x for p in op_s for x in p if x is not None]


def job_time(workload, op_s):
    """Time of one pass of the job, and the client's request latencies.

    A ktable or verify pass makes the same requests every time and they
    differ in size by design, so the job's time is the sum over its
    requests of each one's median over the passes, and the client's
    request is the whole job.  A hopf pass draws new calls, so the job's
    time is the median whole pass and the latencies are those of the calls.
    The last pass may have skipped requests (``None``)."""
    if WORKLOADS[workload].fixed_job:
        job = sum(
            statistics.median(x for x in request if x is not None)
            for request in zip(*op_s)
        )
        return job, [job]
    whole = [sum(p) for p in op_s if None not in p]
    return statistics.median(whole), made(op_s)


def end_to_end(workload, seed, seconds):
    def setup_samples(n):
        return [spawn(workload, seed, "setup") for _ in range(n)]

    setups = setup_samples(SETUP_SAMPLES // 2)
    run = spawn(workload, seed, "measure", seconds)
    setups += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    setup_s = [p["ready"] - p["spawned"] for p in setups]
    wall, lat = job_time(workload, run["op_s"])
    # every request was made on both packages back to back, so the host ran
    # both at the same speed and the ratios cancel that speed
    wall_rel = sum(made(run["op_s"])) / sum(made(run["ref_op_s"]))
    if WORKLOADS[workload].fixed_job:
        p50_rel = p99_rel = wall_rel
    else:
        ref_lat = made(run["ref_op_s"])
        p50_rel = statistics.median(lat) / statistics.median(ref_lat)
        p99_rel = p99(lat) / p99(ref_lat)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_rel": wall_rel,
        "op_p50_rel": p50_rel,
        "op_p99_rel": p99_rel,
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
    }
    facts = {
        "wall_s": wall,
        "ops_per_s": run["attempted"] / sum(made(run["op_s"])),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p99_ms": p99(lat) * 1000,
        "latency_samples": len(lat),
        "pass_s": [sum(made([p])) for p in run["op_s"]],
        "reference_pass_s": [sum(made([p])) for p in run["ref_op_s"]],
        "setup_s": setup_s,
    }
    return metrics, run["attempted"], run["failed"], facts


def traced(workload, seed):
    run = spawn(workload, seed, "traced")
    facts = {key: run[key] for key in ("spans", "k1_5_support", "untraced_pass_s", "traced_pass_s")}
    return run["per_layer"], run["attempted"], run["failed"], facts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in BENCHMARK["workloads"]], required=True
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "pnsym" / "__init__.py").is_file():
        print(f"error: no pnsym sources under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC / "pnsym"), quiet=1):
        print("error: pnsym sources do not compile", file=sys.stderr)
        return 2

    if args.trace:
        metrics, attempted, failed, facts = traced(args.workload, args.seed)
    else:
        metrics, attempted, failed, facts = end_to_end(args.workload, args.seed, args.seconds)

    facts.update(machine())
    facts["fail_ratio"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": UNITS[name]} for name, v in metrics.items()},
    }
    for name, value in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {UNITS[name]}")
    print("# " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
