"""One workload in one fresh process; ``run.py`` starts it and reads its output.

    python3 perfbench/worker.py WORKLOAD SEED MODE SECONDS

Modes:

* ``setup``   -- import pnsym, build the workload's inputs, report when ready;
* ``measure`` -- set up on the program and on the reference, then run passes
  until the next one would end after SECONDS, making every request on both,
  and report the latency of every request of every pass on each;
* ``traced``  -- trace every layer and run the fixed traced job: rounds of
  one pass on the original functions and one traced pass of the same
  inputs; also writes the spans.

The last line of standard output is one JSON object.  ``ready`` is the
``time.monotonic()`` reading when set-up ended, which the parent compares
with its own reading taken just before it started this process.
"""

import json
import os
import resource
import statistics
import sys
import time

from workloads import K15_SUPPORT, PROGRAM, REFERENCE, WORKLOADS

# rounds of the traced job, each one untraced and one traced pass: ktable
# sets, verify runs, batches of 100 hopf calls
TRACED_ROUNDS = {"ktable": 2, "verify": 2, "hopf": 6}


def _peak_rss_kb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _summary(passes):
    return {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
    }


def measure(name, seed, seconds):
    """Passes of the job for about ``seconds``.  After the first pass, a
    request whose last pass would not end in time is skipped (``None``) and
    the pass it is in is the last.  Every request is made on the program
    and on the reference back to back, the two taking turns to go first, so
    both see the host at the same speed.  The reference's results are not
    checked, but a call of it that raises fails the request's ops."""
    program = WORKLOADS[name](seed, PROGRAM)
    reference = WORKLOADS[name](seed, REFERENCE)
    out = {"op_s": [], "ref_op_s": [], "attempted": 0, "failed": 0}
    pair_s = {}   # request index -> time its pair took in the last pass
    turn = 0
    start = time.perf_counter()
    while True:
        op_s, ref_s = [], []
        for k, (request, twin) in enumerate(zip(program.requests(), reference.requests())):
            t0 = time.perf_counter()
            if out["op_s"] and t0 - start + pair_s[k] > seconds:
                op_s.append(None)
                ref_s.append(None)
                continue
            turn += 1
            if turn % 2:
                ref_exc, ref_latency = twin.time()[1:]
            result, exc, latency = request.time()
            if not turn % 2:
                ref_exc, ref_latency = twin.time()[1:]
            pair_s[k] = time.perf_counter() - t0
            op_s.append(latency)
            ref_s.append(ref_latency)
            out["attempted"] += request.ops
            out["failed"] += request.ops if ref_exc else request.failed(result, exc)
        if any(x is not None for x in op_s):
            out["op_s"].append(op_s)
            out["ref_op_s"].append(ref_s)
        if None in op_s:
            return out


def traced_job(name, seed, tracer, rounds):
    """Untraced and traced passes over the same inputs, in alternating order
    (untraced first in even rounds, traced first in odd ones), so that drift
    and warm-up fall on both sides of the overhead ratio.  Two workload
    objects built from one seed draw the same hopf batches."""
    plain, watched = WORKLOADS[name](seed), WORKLOADS[name](seed)
    watched.untraced = tracer.detached
    done = {False: [], True: []}
    for r in range(rounds):
        for attached in (False, True) if r % 2 == 0 else (True, False):
            if attached:
                done[True].append(watched.run_pass())
            else:
                with tracer.detached():
                    done[False].append(plain.run_pass())
    return done[False], done[True]


def traced(name, seed):
    from tracer import Tracer
    import layers

    tracer = Tracer()
    notes = layers.install(tracer)
    plain, passes = traced_job(name, seed, tracer, TRACED_ROUNDS[name])
    tracer.uninstall()
    out = _summary(plain + passes)
    per_layer, support = layers.metrics(tracer, notes)
    per_layer["trace.overhead_ratio"] = (
        statistics.median(p.seconds for p in passes)
        / statistics.median(p.seconds for p in plain)
    )
    out.update({
        "untraced_pass_s": [p.seconds for p in plain],
        "traced_pass_s": [p.seconds for p in passes],
        "per_layer": per_layer,
        "k1_5_support": support,
        "spans": len(tracer.span_name),
    })
    if name == "ktable" and support != K15_SUPPORT:
        out["failed"] += 1  # the k(1,5) entry grew the wrong powers
    os.makedirs(".perfbench_out", exist_ok=True)
    tracer.write(os.path.join(".perfbench_out", f"spans-{name}-seed{seed}.tsv.gz"))
    return out


def main(argv):
    name, seed, mode, seconds = argv[0], int(argv[1]), argv[2], float(argv[3])
    if mode == "traced":
        out = traced(name, seed)
    else:
        if mode == "setup":
            WORKLOADS[name](seed)
            out = {"ready": time.monotonic()}
        else:
            out = measure(name, seed, seconds)
            out["peak_rss_kb"] = _peak_rss_kb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
