"""Time this checkout's pnsym against another tree's, layer by layer, both
imported in one process.

Run from anywhere, standard library only::

    python3 bench/ab.py OTHER_SRC [--pairs N]

``OTHER_SRC`` is the directory holding the other tree's ``pnsym`` package,
such as another checkout's ``src``.  This checkout's package is imported as
``pnsym`` and the other as ``pnsym_other``, as perfbench imports its frozen
reference as ``pnsym_ref``; nothing is copied, and neither package gets a
cache file.  Each side's inputs are built from its own modules by
``bench/run.py``'s ``layer_runs``, so a layer that replays recorded calls
(``contingency_tables hopf``) replays the calls that side makes; the call
counts are printed.

Each layer in ``LAYERS`` is timed in N pairs (default 15), one run of each
tree per pair, by CPU time (``time.process_time``), the two trees taking
turns going first; one untimed run of each warms up.  Per layer it prints
the median ratio this/other, the quartiles of the ratios, and in how many
pairs this tree was faster.  A ratio below 1 means this tree is faster.

A/A band: in two runs of one tree against itself (2 vCPUs, Python 3.11.7,
15 pairs) every layer's median ratio read 0.985-1.014 and its quartiles
0.954-1.040, so read a median within 0.97-1.03 as no change.
"""

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

from run import ROOT, layer_runs

LAYERS = (
    "internal_mul hopf",
    "k_value 1 5",
    "k_value 2 4",
    "antipode hopf",
    "contingency_tables hopf",
)
MODULES = ("checker", "combinatorics", "core", "oracle", "verify")


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


def cpu_time(run):
    gc.collect()
    t0 = time.process_time()
    run()
    return time.process_time() - t0


def ratios(run, other_run, pairs):
    """This tree's CPU time over the other's, per pair, alternating which
    goes first."""
    run()
    other_run()
    out = []
    for i in range(pairs):
        if i % 2:
            other = cpu_time(other_run)
            this = cpu_time(run)
        else:
            this = cpu_time(run)
            other = cpu_time(other_run)
        out.append(this / other)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", type=Path, help="the directory holding the other pnsym package")
    ap.add_argument("--pairs", type=int, default=15)
    args = ap.parse_args(argv)
    if not (args.other / "pnsym" / "__init__.py").is_file():
        sys.exit(f"error: no pnsym package in {args.other}")
    if args.pairs < 2:
        sys.exit("error: --pairs must be at least 2")
    sys.dont_write_bytecode = True  # leave no cache files in either tree
    this = layer_runs(*load("pnsym", ROOT / "src"))
    other = layer_runs(*load("pnsym_other", args.other.resolve()))

    print(f"{'layer':<24} {'calls':>11} {'median':>7} {'q1':>6} {'q3':>6} {'wins':>6}")
    for name in LAYERS:
        (run, calls), (other_run, other_calls) = this[name], other[name]
        got = ratios(run, other_run, args.pairs)
        q1, median, q3 = statistics.quantiles(got, n=4)
        wins = sum(r < 1 for r in got)
        print(
            f"{name:<24} {calls:>5}/{other_calls:<5} {median:7.3f} {q1:6.3f} {q3:6.3f}"
            f" {wins:>3}/{args.pairs}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
