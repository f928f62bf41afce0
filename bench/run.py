"""Time pnsym end to end and layer by layer, and append the result to a
``BENCH_<n>.json`` file.

Run from anywhere, standard library only::

    python3 bench/run.py BENCH_<n>.json LABEL [--src DIR]

``--src`` is the directory holding the ``pnsym`` package to time (default:
this checkout's ``src``), so that two trees can be recorded side by side in
one file; the acceptance suite timed is the one in the ``tests`` directory
beside it.  The package is byte-compiled first, as perfbench does, so that
no timed start-up compiles it.  Each timing is the median of 5 runs.  The
entry records the CPU count and the Python version.

End to end, each run a fresh process: ``pnsym ktable`` on (1,5), (2,4) and
(1,6), the default ``pnsym verify``, and the acceptance suite as
``python -m pytest -q -p no:cacheprovider tests/test_acceptance.py``.
Layers, each timed alone on fixed inputs:

* ``internal_mul`` -- the ``imul`` calls among the first 800 calls of
  perfbench's hopf stream at seed 1, and the products that build the
  composition powers of k(1,5), replayed without the bracket's memo, so
  that each power is computed from scratch;
* ``k_value`` -- ``checker.k_value`` on (1,5) and (2,4) with ktable's
  default bound of 12, in process: the powers with the memo their call
  builds;
* ``contingency_tables`` -- every (row sums, column sums) call those
  ``internal_mul`` calls make, in their order, each stream read to its end;
* ``external_mul``, ``coproduct`` and ``antipode`` -- the ``mul``,
  ``coproduct`` and ``antipode`` calls of the same hopf stream;
* ``apply_pas`` -- every ``oracle.apply_pas`` call of the default
  ``composition-expansion`` verify family, in its order, on a fresh model
  for each run, so that no run reads the letter splittings or the word
  coproducts another run memoized;
* ``verify`` -- ``verify.run_family`` at the default bounds for each family
  in ``VERIFY_FAMILIES`` below (``composition-expansion``,
  ``convolution-concatenation``, ``projection-convolution``,
  ``reduction-invariance`` and ``wreath-associativity``), in process.  A
  family run builds its own models and keeps nothing past its end, so every
  run starts cold.  Its call count is the number of cases it runs.

The inputs are recorded once, before any timing, and are the same for any
tree that computes the same products, except the ``apply_pas`` and
``contingency_tables`` layers': they replay the calls the timed tree makes,
so a tree that calls ``apply_pas`` or ``contingency_tables`` less often
replays fewer calls (``layer_calls`` says how many).  A tree that computes
the products with an all-ones factor in closed form enumerates no tables
for them.
"""

import argparse
import compileall
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KTABLE = [(1, 5), (2, 4), (1, 6)]
HOPF_SEED = 1
HOPF_CALLS = 800
# the verify families timed one by one, in process
VERIFY_FAMILIES = (
    "composition-expansion",
    "convolution-concatenation",
    "projection-convolution",
    "reduction-invariance",
    "wreath-associativity",
)
RUNS = 5


def median_time(fn):
    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def pnsym(src, *argv):
    """One ``pnsym`` command in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys; from pnsym.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )


def acceptance(src):
    """The acceptance suite of the tree holding ``src``, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"],
        cwd=src.parent, env=env, check=True, stdout=subprocess.DEVNULL,
    )


@contextlib.contextmanager
def recording(module, name, calls):
    """Append the positional arguments of every call to ``module.name`` to
    ``calls``; keyword arguments, such as ``internal_mul``'s memo, are passed
    on but not recorded."""
    fn = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    setattr(module, name, recorded)
    try:
        yield
    finally:
        setattr(module, name, fn)


def replay(fn, inputs):
    """A run that makes every recorded call of ``fn``."""
    def run():
        for call in inputs:
            fn(*call)
    return run


def drain_tables(comb, inputs):
    """A run that reads each recorded ``contingency_tables`` stream to its end."""
    def run():
        for a, b in inputs:
            for _ in comb.contingency_tables(a, b):
                pass
    return run


def replay_on_fresh_model(oracle, inputs):
    """A run that makes every recorded ``apply_pas`` call on a new model of
    the recorded size, so that each run starts with empty splitting and
    coproduct memos."""
    size = inputs[0][0].n

    def run():
        model = oracle.TriangularModel(size)
        for _, alpha, sigma, f in inputs:
            oracle.apply_pas(model, alpha, sigma, f)
    return run


def layer_runs(checker, comb, core, oracle, verify):
    """Each layer timing, by name: its run and how many calls it makes."""
    sys.dont_write_bytecode = True  # leave no cache files under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import Hopf

    stream = Hopf(HOPF_SEED, core.__package__)  # inputs of the timed tree's own classes
    calls = [stream.next_call() for _ in range(HOPF_CALLS)]
    hopf = {name: [args for op, _, args, _ in calls if op == name]
            for name in ("mul", "imul", "coproduct", "antipode")}
    k15_imul = []
    with recording(core, "internal_mul", k15_imul):
        checker.k_value(1, 5, 12)
    tables = {}
    for name, imuls in (("hopf", hopf["imul"]), ("k15", k15_imul)):
        tables[name] = []
        with recording(comb, "contingency_tables", tables[name]):
            for args in imuls:
                core.internal_mul(*args)
    pas = []
    with recording(oracle, "apply_pas", pas):
        verify.run_family("composition-expansion")
    families = {
        f"verify {name}": (
            lambda name=name: verify.run_family(name), verify.run_family(name).cases
        )
        for name in VERIFY_FAMILIES
    }
    return {
        "contingency_tables hopf": (drain_tables(comb, tables["hopf"]), len(tables["hopf"])),
        "contingency_tables k15": (drain_tables(comb, tables["k15"]), len(tables["k15"])),
        "internal_mul hopf": (replay(core.internal_mul, hopf["imul"]), len(hopf["imul"])),
        "internal_mul k15": (replay(core.internal_mul, k15_imul), len(k15_imul)),
        **{
            f"k_value {i} {j}": (lambda i=i, j=j: checker.k_value(i, j, 12), 1)
            for i, j in KTABLE[:2]
        },
        "external_mul hopf": (replay(core.external_mul, hopf["mul"]), len(hopf["mul"])),
        "coproduct hopf": (replay(core.coproduct, hopf["coproduct"]), len(hopf["coproduct"])),
        "antipode hopf": (replay(core.antipode, hopf["antipode"]), len(hopf["antipode"])),
        "apply_pas composition-expansion": (replay_on_fresh_model(oracle, pas), len(pas)),
        **families,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path, help="the BENCH_<n>.json file to append to")
    ap.add_argument("label", help="what the entry measures, e.g. a commit")
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    if not compileall.compile_dir(str(src / "pnsym"), quiet=1):
        sys.exit("error: the pnsym sources do not compile")

    sys.path.insert(0, str(src))
    from pnsym import checker, combinatorics as comb, core, oracle, verify

    entry = {
        "label": args.label,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "runs": RUNS,
        "end_to_end_s": {},
        "layers_s": {},
        "layer_calls": {},
    }
    for i, j in KTABLE:
        entry["end_to_end_s"][f"ktable {i} {j}"] = median_time(
            lambda: pnsym(src, "ktable", str(i), str(j))
        )
    entry["end_to_end_s"]["verify"] = median_time(lambda: pnsym(src, "verify"))
    entry["end_to_end_s"]["acceptance"] = median_time(lambda: acceptance(src))
    for name, (run, calls) in layer_runs(checker, comb, core, oracle, verify).items():
        entry["layer_calls"][name] = calls
        entry["layers_s"][name] = median_time(run)

    record = json.loads(args.out.read_text()) if args.out.exists() else {"entries": []}
    record["entries"].append(entry)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    json.dump(entry, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
