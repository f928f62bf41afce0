"""Batch command-line surface.

Single-shot subcommands over the library: products, coproduct, antipode,
key reduction, rank, operator-identity checking, the nilpotence-order table,
and the brute-force verification driver.  Output is deterministic (canonical
term order everywhere), text by default, JSON with ``--json``.

Exit codes: 0 on success (including a "not found" table search), 1 when an
identity check or verification run fails, 2 on unparseable input.
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


def _emit_element(f, as_json):
    if as_json:
        print(json.dumps(core.element_to_json(f)))
    else:
        print(core.format_element(f))


def _cmd_mul(args):
    f = core.parse_element(args.left)
    g = core.parse_element(args.right)
    _emit_element(core.external_mul(f, g), args.json)
    return 0


def _cmd_imul(args):
    f = core.parse_element(args.left)
    g = core.parse_element(args.right)
    _emit_element(core.internal_mul(f, g), args.json)
    return 0


def _cmd_coproduct(args):
    t = core.coproduct(core.parse_element(args.element))
    if args.json:
        print(json.dumps(core.tensor_to_json(t)))
    else:
        print(core.format_tensor(t))
    return 0


def _cmd_antipode(args):
    _emit_element(core.antipode(core.parse_element(args.element)), args.json)
    return 0


def _cmd_reduce(args):
    alpha, sigma = comb.reduce_pair(*comb.parse_pair(args.pair))
    if args.json:
        print(json.dumps({"alpha": list(alpha), "sigma": list(sigma)}))
    else:
        print(comb.format_pair(alpha, sigma))
    return 0


def _cmd_rank(args):
    r = core.rank(args.n)
    if args.json:
        print(json.dumps({"n": args.n, "rank": r}))
    else:
        print(r)
    return 0


def _cmd_check(args):
    verdict = checker.check_zero_on_degree(checker.parse(args.expr), args.degree)
    if verdict.holds:
        if args.json:
            print(json.dumps({"verdict": "holds", "degree": args.degree}))
        else:
            print("holds")
        return 0
    coeff, key = verdict.witness
    if args.json:
        print(json.dumps({
            "verdict": "fails",
            "degree": args.degree,
            "witness": {
                "coeff": str(coeff),
                "alpha": list(key[0]),
                "sigma": list(key[1]),
            },
        }))
    else:
        witness = core.format_element(core.PnsymElement({key: coeff}))
        print(f"fails: {witness}")
    return 1


def _cmd_ktable(args):
    k = checker.k_value(args.i, args.j, args.max)
    if args.json:
        print(json.dumps({"i": args.i, "j": args.j, "max": args.max, "k": k}))
    else:
        print("not_found" if k is None else k)
    return 0


def _cmd_verify(args):
    results = verify.run_all(
        model_size=args.model_size,
        max_size=args.max_size,
        names=args.family or None,
    )
    ok = all(r.ok for r in results)
    if args.json:
        print(json.dumps({
            "families": [
                {"name": r.name, "cases": r.cases, "failures": r.failures}
                for r in results
            ],
            "ok": ok,
        }))
    else:
        print(verify.format_report(results))
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
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

    p = add("mul", _cmd_mul, "concatenation product of two elements")
    p.add_argument("left")
    p.add_argument("right")

    p = add("imul", _cmd_imul, "internal product of two elements")
    p.add_argument("left")
    p.add_argument("right")

    p = add("coproduct", _cmd_coproduct, "coproduct of an element")
    p.add_argument("element")

    p = add("antipode", _cmd_antipode, "antipode of an element")
    p.add_argument("element")

    p = add("reduce", _cmd_reduce, "reduce a weak key to its canonical form")
    p.add_argument("pair", help="e.g. '((3,0,1,2,0);[4,5,1,3,2])'")

    p = add("rank", _cmd_rank, "number of basis keys of a given size")
    p.add_argument("n", type=_nonnegative)

    p = add("check", _cmd_check, "test an operator identity on one degree")
    p.add_argument("expr", help="e.g. '(p1*p2 - p2*p1)^5'")
    p.add_argument("--degree", type=_nonnegative, required=True)

    p = add("ktable", _cmd_ktable, "least vanishing composition power of a bracket")
    p.add_argument("i", type=_nonnegative)
    p.add_argument("j", type=_nonnegative)
    p.add_argument("--max", type=_positive, default=12, help="search bound (default 12)")

    p = add("verify", _cmd_verify, "run the brute-force verification families")
    p.add_argument("--model-size", type=_positive, default=4)
    p.add_argument("--max-size", type=_nonnegative, default=3)
    p.add_argument(
        "--family",
        action="append",
        choices=sorted(verify.FAMILIES),
        help="run only this family (repeatable)",
    )

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except comb.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
