"""Batch command-line surface.

Single-shot subcommands over the library: products, coproduct, antipode,
key reduction, rank, operator-identity checking, the nilpotence-order table,
and the brute-force verification driver.  Output is deterministic (canonical
term order everywhere), text by default, JSON with ``--json``.

Exit codes: 0 on success (including a "not found" table search), 1 when an
identity check or verification run fails, 2 on bad input, reported as one
``error:`` line: bad text, or an argument missing, unknown or out of range.
"""

import argparse
import json
import sys

from . import checker
from . import combinatorics as comb
from . import core
from . import verify


def _nonnegative(text):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return n


def _positive(text):
    n = _nonnegative(text)
    if n == 0:
        raise argparse.ArgumentTypeError("must be positive")
    return n


# Each handler returns (exit code, text, JSON value); main prints one of the
# two forms.


def _cmd_product(args):
    f = args.product(core.parse_element(args.left), core.parse_element(args.right))
    return 0, core.format_element(f), core.element_to_json(f)


def _cmd_coproduct(args):
    t = core.coproduct(core.parse_element(args.element))
    return 0, core.format_tensor(t), core.tensor_to_json(t)


def _cmd_antipode(args):
    f = core.antipode(core.parse_element(args.element))
    return 0, core.format_element(f), core.element_to_json(f)


def _cmd_reduce(args):
    alpha, sigma = comb.reduce_pair(*comb.parse_pair(args.pair))
    return 0, comb.format_pair(alpha, sigma), {"alpha": list(alpha), "sigma": list(sigma)}


# rank(25205) has 99 997 digits and rank(25206) 100 001, past the print bound
# main sets; a larger n is rejected before the minutes its rank would take
MAX_RANK = 25205


def _cmd_rank(args):
    if args.n > MAX_RANK:
        raise ValueError(f"n must be at most {MAX_RANK}")
    r = core.rank(args.n)
    return 0, str(r), {"n": args.n, "rank": r}


def _cmd_check(args):
    verdict = checker.check_zero_on_degree(checker.parse(args.expr), args.degree)
    if verdict.holds:
        return 0, "holds", {"verdict": "holds", "degree": args.degree}
    coeff, key = verdict.witness
    witness = core.PnsymElement({key: coeff})
    return 1, f"fails: {core.format_element(witness)}", {
        "verdict": "fails",
        "degree": args.degree,
        "witness": core.element_to_json(witness)[0],
    }


def _cmd_ktable(args):
    k = checker.k_value(args.i, args.j, args.max)
    text = "not_found" if k is None else str(k)
    return 0, text, {"i": args.i, "j": args.j, "max": args.max, "k": k}


# verify's bounds (2 CPUs, Python 3.11): at the default --max-size 3, model
# size 12 runs 332 151 cases in about 9 s and 0.5 GB; at the default
# --model-size 4, composition size 4 runs 3 339 054 cases in 12 to 16 s and
# size 5 does not finish in a minute
MAX_MODEL_SIZE = 12
MAX_COMPOSITION_SIZE = 4


def _cmd_verify(args):
    if args.model_size > MAX_MODEL_SIZE:
        raise ValueError(f"--model-size must be at most {MAX_MODEL_SIZE}")
    if args.max_size > MAX_COMPOSITION_SIZE:
        raise ValueError(f"--max-size must be at most {MAX_COMPOSITION_SIZE}")
    results = verify.run_all(
        model_size=args.model_size,
        max_size=args.max_size,
        names=args.family or None,
    )
    ok = all(r.ok for r in results)
    families = []
    for r in results:
        family = {"name": r.name, "cases": r.cases, "failures": r.failures}
        if r.failures:
            family["examples"] = list(r.examples)
        families.append(family)
    return (0 if ok else 1), verify.format_report(results), {"families": families, "ok": ok}


class _Parser(argparse.ArgumentParser):
    """Raises each rejection as ``ValueError``; subparsers share the class."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="pnsym",
        description="Exact computations with twisted projecting operators "
        "and their Hopf algebra of basis keys.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(handler=handler)
        return p

    for name, product, help_text in [
        ("mul", core.external_mul, "concatenation product of two elements"),
        ("imul", core.internal_mul, "internal product of two elements"),
    ]:
        p = add(name, _cmd_product, help_text)
        p.set_defaults(product=product)
        p.add_argument("left")
        p.add_argument("right")

    p = add("coproduct", _cmd_coproduct, "coproduct of an element")
    p.add_argument("element")

    p = add("antipode", _cmd_antipode, "antipode of an element")
    p.add_argument("element")

    p = add("reduce", _cmd_reduce, "reduce a weak key to its canonical form")
    p.add_argument("pair", help="e.g. '((3,0,1,2,0);[4,5,1,3,2])'")

    p = add("rank", _cmd_rank, "number of basis keys of a given size")
    p.add_argument("n", type=_nonnegative, help=f"0 to {MAX_RANK}")

    p = add("check", _cmd_check, "test an operator identity on one degree")
    p.add_argument("expr", help="e.g. '(p1*p2 - p2*p1)^5'")
    p.add_argument("--degree", type=_nonnegative, required=True)

    p = add("ktable", _cmd_ktable, "least vanishing composition power of a bracket")
    p.add_argument("i", type=_nonnegative)
    p.add_argument("j", type=_nonnegative)
    p.add_argument("--max", type=_positive, default=12, help="search bound (default 12)")

    p = add("verify", _cmd_verify, "run the brute-force verification families")
    p.add_argument(
        "--model-size",
        type=_positive,
        default=4,
        help=f"size of the triangular model, 1 to {MAX_MODEL_SIZE} (default 4); "
        "composition-expansion needs 4 or more to catch an internal product "
        "taken in the wrong order",
    )
    p.add_argument(
        "--max-size",
        type=_nonnegative,
        default=3,
        help="largest composition size the families sweep, "
        f"0 to {MAX_COMPOSITION_SIZE} (default 3)",
    )
    p.add_argument(
        "--family",
        action="append",
        choices=sorted(verify.FAMILIES),
        help="run only this family (repeatable)",
    )

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if hasattr(sys, "set_int_max_str_digits"):
            # long exact results print in full; a finite bound keeps int-to-text,
            # quadratic in the digits, short.  Input keeps the Scanner's bound.
            sys.set_int_max_str_digits(100_000)
        code, text, value = args.handler(args)
        print(json.dumps(value) if args.json else text)
    except ValueError as exc:  # ParseError and argument rejections included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
