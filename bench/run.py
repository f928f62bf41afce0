"""Time this checkout's pnsym against another tree's, end to end and layer by
layer, in interleaved pairs, and append both to a ``BENCH_<n>.json`` file.

Run from anywhere, standard library only::

    python3 bench/run.py BENCH_<n>.json LABEL OTHER_SRC [--pairs N]

``OTHER_SRC`` is the directory holding the other tree's ``pnsym`` package,
such as ``src`` in a copy of another commit made by ``git archive <rev> src
tests``; its acceptance suite is the one in ``OTHER_SRC/../tests``.  To
snapshot one tree, run it against a copy of itself: the ratios then measure
the A/A band, how far one tree reads from itself.  Both packages are
byte-compiled first, as perfbench does, so that no timed start-up compiles
them.

Every row is timed in N pairs (default 15), one run of each tree per pair,
the two trees taking turns going first; one untimed run of each warms up.
The entry holds, per row, both trees' median times in seconds, the median
ratio this/other, its quartiles, and the pairs each tree won, ties counting
for neither; a ratio below 1 means this tree is faster.  It also records
the CPU count, the Python version and N.

End to end, each run a fresh process timed by its CPU time (user plus
system, read from ``resource.getrusage(RUSAGE_CHILDREN)``): ``python -c
"import pnsym.cli"``, ``pnsym rank 7``, ``pnsym ktable`` on (1,5), (2,4) and
(1,6), the default ``pnsym verify``, and the acceptance suite as ``python -m
pytest -q -p no:cacheprovider tests/test_acceptance.py``.

Layers, each timed alone on fixed inputs by ``time.process_time``, both
trees imported in this process (this checkout's as ``pnsym``, the other as
``pnsym_other``, as perfbench imports its frozen reference as
``pnsym_ref``):

* ``internal_mul`` -- the ``imul`` calls among the first 800 calls of
  perfbench's hopf stream at seed 1, and the products that build the
  composition powers of k(1,5), replayed without the bracket's memo, so
  that each power is computed from scratch;
* ``internal_mul all-ones k24`` -- one call, the sum of the 720 keys
  F(1^6; s) times the (2,4) bracket (:func:`all_ones_k24`): exactly the
  rows of k(2,4) whose left key is all ones, each read from its closed form;
* ``k_value`` -- ``checker.k_value`` on (1,5) and (2,4) with ktable's
  default bound of 12: the powers with the memo their call builds;
* ``cli fast set`` -- the nine ``ktable`` requests of criterion 2's fast
  set, each a ``cli.main`` call with its standard output captured, as
  perfbench's ktable workload makes them: the table's work and the CLI's
  per-call cost;
* ``contingency_tables`` -- every (row sums, column sums) call those
  ``internal_mul`` calls make, in their order, each stream read to its end;
* ``external_mul``, ``coproduct`` and ``antipode`` -- the ``mul``,
  ``coproduct`` and ``antipode`` calls of the same hopf stream;
* ``key_coproduct`` -- every ``core._key_coproduct`` call those
  ``coproduct`` and ``antipode`` calls make, in their order: the splitting
  kernel both read;
* ``apply_pas`` -- every ``oracle.apply_pas`` call of the default
  ``composition-expansion`` verify family, in its order, on a fresh model
  for each run, so that no run reads the letter splittings or the word
  coproducts another run memoized;
* ``verify`` -- ``verify.run_family`` at the default bounds for each family
  in ``VERIFY_FAMILIES`` below.  A family run builds its own models and
  keeps nothing past its end, so every run starts cold.  Its call count is
  the number of cases it runs.

Each tree's inputs are built from its own modules, once, before any timing.
They are the same for any two trees that compute the same products, except
the ``apply_pas``, ``contingency_tables`` and ``key_coproduct`` layers':
they replay the calls each tree makes, so a tree that calls one of these
less often replays fewer calls.  A layer row records both trees' call
counts.
"""

import argparse
import compileall
import contextlib
import gc
import importlib
import importlib.util
import io
import itertools
import json
import os
import platform
import resource
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
MODULES = ("checker", "cli", "combinatorics", "core", "oracle", "verify")


def load(name, src):
    """The ``pnsym`` package in ``src``, imported under ``name``: its
    modules in ``layer_runs``'s order."""
    init = src / "pnsym" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return [importlib.import_module(f"{name}.{module}") for module in MODULES]


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


def cli_requests(cli, argvs):
    """A run that makes each ``cli.main`` request, its output captured."""
    def run():
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
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


def all_ones_k24(core):
    """The sum of the 720 keys F(1^6; s) and the (2,4) bracket, F((2,4); 12)
    - F((4,2); 12): the left and right factors of the rows of k(2,4) with an
    all-ones left key."""
    ones = core.PnsymElement(
        {((1,) * 6, s): 1 for s in itertools.permutations(range(1, 7))}
    )
    return ones, core.basis((2, 4), (1, 2)) - core.basis((4, 2), (1, 2))


def layer_runs(checker, cli, comb, core, oracle, verify):
    """Each layer timing, by name: its run and how many calls it makes."""
    sys.dont_write_bytecode = True  # leave no cache files under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import KTABLE_EXPECTED, Hopf

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
    kernel = []
    with recording(core, "_key_coproduct", kernel):
        for name in ("coproduct", "antipode"):
            for args in hopf[name]:
                getattr(core, name)(*args)
    ones, bracket = all_ones_k24(core)
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
        "internal_mul all-ones k24": (lambda: core.internal_mul(ones, bracket), 1),
        **{
            f"k_value {i} {j}": (lambda i=i, j=j: checker.k_value(i, j, 12), 1)
            for i, j in KTABLE[:2]
        },
        "cli fast set": (
            cli_requests(cli, [["ktable", str(i), str(j)] for i, j in KTABLE_EXPECTED]),
            len(KTABLE_EXPECTED),
        ),
        "external_mul hopf": (replay(core.external_mul, hopf["mul"]), len(hopf["mul"])),
        "coproduct hopf": (replay(core.coproduct, hopf["coproduct"]), len(hopf["coproduct"])),
        "antipode hopf": (replay(core.antipode, hopf["antipode"]), len(hopf["antipode"])),
        "key_coproduct hopf": (replay(core._key_coproduct, kernel), len(kernel)),
        "apply_pas composition-expansion": (replay_on_fresh_model(oracle, pas), len(pas)),
        **families,
    }


def end_to_end_runs(src):
    """Each end-to-end timing, by name: a run of one fresh process on the
    tree holding ``src``, returning the process's CPU time."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cli = [sys.executable, "-c",
           "import sys; from pnsym.cli import main; sys.exit(main(sys.argv[1:]))"]
    commands = {
        "import pnsym.cli": [sys.executable, "-c", "import pnsym.cli"],
        "rank 7": [*cli, "rank", "7"],
        **{f"ktable {i} {j}": [*cli, "ktable", str(i), str(j)] for i, j in KTABLE},
        "verify": [*cli, "verify"],
        "acceptance": [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                       "tests/test_acceptance.py"],
    }

    def child_cpu_time(argv):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(argv, cwd=src.parent, env=env, check=True, stdout=subprocess.DEVNULL)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)

    return {name: lambda argv=argv: child_cpu_time(argv) for name, argv in commands.items()}


def cpu_time(run):
    """A run of ``run`` in this process, returning its CPU time."""
    def timed():
        gc.collect()
        t0 = time.process_time()
        run()
        return time.process_time() - t0
    return timed


def pairs(timed, other_timed, n):
    """``n`` pairs of (this time, other time), alternating which goes first,
    after one untimed run of each."""
    timed()
    other_timed()
    out = []
    for i in range(n):
        if i % 2:
            other = other_timed()
            out.append((timed(), other))
        else:
            this = timed()
            out.append((this, other_timed()))
    return out


def summary(times):
    """One row of the entry from its (this, other) pairs."""
    this, other = zip(*times)
    ratios = [a / b for a, b in times]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {
        "this_s": statistics.median(this),
        "other_s": statistics.median(other),
        "ratio": median,
        "q1": q1,
        "q3": q3,
        "wins": [sum(a < b for a, b in times), sum(a > b for a, b in times)],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path, help="the BENCH_<n>.json file to append to")
    ap.add_argument("label", help="what the entry compares, e.g. two commits")
    ap.add_argument("other", type=Path, metavar="OTHER_SRC",
                    help="the directory holding the other pnsym package")
    ap.add_argument("--pairs", type=int, default=15)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    trees = (ROOT / "src", args.other.resolve())
    for src in trees:
        if not (src / "pnsym" / "__init__.py").is_file():
            ap.error(f"no pnsym package in {src}")
        if not compileall.compile_dir(str(src / "pnsym"), quiet=1):
            ap.error(f"the pnsym sources in {src} do not compile")

    entry = {
        "label": args.label,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "pairs": args.pairs,
        "end_to_end": {},
        "layers": {},
    }
    this, other = (end_to_end_runs(src) for src in trees)
    for name in this:
        entry["end_to_end"][name] = summary(pairs(this[name], other[name], args.pairs))
    this = layer_runs(*load("pnsym", trees[0]))
    other = layer_runs(*load("pnsym_other", trees[1]))
    for name, (run, calls) in this.items():
        other_run, other_calls = other[name]
        row = summary(pairs(cpu_time(run), cpu_time(other_run), args.pairs))
        entry["layers"][name] = {"calls": [calls, other_calls], **row}

    record = json.loads(args.out.read_text()) if args.out.exists() else {"entries": []}
    record["entries"].append(entry)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    json.dump(entry, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
