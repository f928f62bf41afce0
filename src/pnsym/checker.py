"""Identity checker for natural operators on graded bialgebras.

A tiny expression language over the operators every connected graded
bialgebra carries — the graded projections ``p0, p1, p2, ...``, the identity
``id``, the antipode ``S``, and the unit-counit composite ``ue`` — with
convolution ``*``, composition ``o``, the matching powers ``^*k`` and ``^k``,
rational scalars, and an escape form ``F((..);[..])`` for checking basis-level
identities directly.

Expressions are expanded into exact basis combinations truncated to a degree
budget; an identity holds on degree m exactly when the degree-m component of
that expansion is zero.  Everything is exact rational arithmetic — a verdict
is a proof at that degree, not an approximation.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import combinatorics as comb
from . import core
from .combinatorics import ParseError


# ---------------------------------------------------------------------------
# syntax trees.  Subclasses inherit their base's frozen dataclass methods;
# dataclass equality compares classes exactly, so Sum(a, b) != Difference(a, b).

# binding levels, loosest first; the parser reads them
_LEVEL_SUM, _LEVEL_CONV, _LEVEL_COMP, _LEVEL_POWER = 1, 2, 3, 4


@dataclass(frozen=True)
class Proj:
    n: int


@dataclass(frozen=True)
class _Named:
    """An operator written as a bare name."""


class Id(_Named):
    name = "id"


class Antipode(_Named):
    name = "S"


class CounitUnit(_Named):
    name = "ue"


_NAMED = {cls.name: cls for cls in (Id, Antipode, CounitUnit)}


@dataclass(frozen=True)
class Basis:
    alpha: tuple
    sigma: tuple


@dataclass(frozen=True)
class ScalarMul:
    coeff: Fraction
    body: object


@dataclass(frozen=True)
class _Binary:
    """A left-associative infix operator: ``left symbol right``."""

    left: object
    right: object


class Sum(_Binary):
    symbol, level = "+", _LEVEL_SUM


class Difference(_Binary):
    symbol, level = "-", _LEVEL_SUM


class Convolution(_Binary):
    symbol, level = "*", _LEVEL_CONV


class Composition(_Binary):
    symbol, level = "o", _LEVEL_COMP


@dataclass(frozen=True)
class _Power:
    """``body`` raised to a natural ``exponent``: ``body symbol exponent``."""

    body: object
    exponent: int
    level = _LEVEL_POWER


class CompPower(_Power):
    symbol = "^"


class ConvPower(_Power):
    symbol = "^*"


# ---------------------------------------------------------------------------
# tokenizer


def _tokens(text):
    """Yield (kind, value, position) triples; kinds are self-describing."""
    sc = comb.Scanner(text)
    while not sc.at_end():
        pos = sc.pos
        ch = text[pos]
        if sc.at_digit():
            yield "nat", sc.natural(), pos
        elif ch.isalpha():
            while sc.pos < len(text) and text[sc.pos].isalpha():
                sc.pos += 1
            run = text[pos:sc.pos]
            if run in _NAMED:
                yield "named", _NAMED[run], pos
            elif run == Composition.symbol:
                yield run, None, pos
            elif run == "p" and sc.at_digit():
                yield "proj", sc.natural(), pos
            elif run == "F":
                yield "basis", sc.pair(), pos
            else:
                raise ParseError(f"unknown name {run!r}", pos)
        elif ch in "()+-*/^":
            sc.pos += 1
            yield ch, None, pos
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
    yield "end", None, len(text)


# Bound on the syntax tree's depth and on open parentheses.  The parser
# nests about ten frames per open parenthesis, and expand one or two per tree
# level; this bound keeps both inside Python's default recursion limit of
# 1000 frames.
MAX_DEPTH = 64


class _TokenStream:
    def __init__(self, text):
        self.toks = list(_tokens(text))
        self.pos = 0
        self.open_parens = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def take(self, kind):
        if self.peek()[0] == kind:
            return self.next()
        return None

    def expect(self, kind, what):
        tok = self.take(kind)
        if tok is None:
            found = self.peek()
            raise ParseError(f"expected {what}", found[2])
        return tok


def _bounded(depth, pos):
    if depth > MAX_DEPTH:
        raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
    return depth


# ---------------------------------------------------------------------------
# parser — precedence, tightest first: powers, composition, convolution,
# unary minus, then + and -; scalars bind like atoms (juxtaposition).  Each
# level returns (node, depth of node).

# per binding level, the binary node classes by their token
_JOINS = {
    level: {cls.symbol: cls for cls in (Sum, Difference, Convolution, Composition)
            if cls.level == level}
    for level in (_LEVEL_SUM, _LEVEL_CONV, _LEVEL_COMP)
}


def parse(text):
    ts = _TokenStream(text)
    node, _ = _parse_sum(ts)
    kind, _, pos = ts.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return node


def _chain(ts, operand, joins, first=None):
    """A left-associative run of operands joined by the token kinds in ``joins``."""
    node, depth = first or operand(ts)
    while ts.peek()[0] in joins:
        kind, _, pos = ts.next()
        right, right_depth = operand(ts)
        node = joins[kind](node, right)
        depth = _bounded(max(depth, right_depth) + 1, pos)
    return node, depth


def _parse_sum(ts):
    first = None
    minus = ts.take("-")
    if minus:
        node, depth = _parse_conv(ts)
        if isinstance(node, ScalarMul):
            first = ScalarMul(-node.coeff, node.body), depth
        else:
            first = ScalarMul(Fraction(-1), node), _bounded(depth + 1, minus[2])
    return _chain(ts, _parse_conv, _JOINS[_LEVEL_SUM], first)


def _parse_conv(ts):
    return _chain(ts, _parse_comp, _JOINS[_LEVEL_CONV])


def _parse_comp(ts):
    return _chain(ts, _parse_power, _JOINS[_LEVEL_COMP])


def _parse_power(ts):
    node, depth = _parse_atom(ts)
    caret = ts.take("^")
    if caret:
        power = ConvPower if ts.take("*") else CompPower
        kind, value, pos = ts.peek()
        if kind != "nat":
            raise ParseError("exponent must be a natural number", pos)
        ts.next()
        node = power(node, value)
        depth = _bounded(depth + 1, caret[2])
    return node, depth


def _parse_rational(ts):
    _, p, _ = ts.expect("nat", "a number")
    if ts.take("/"):
        kind, q, pos = ts.peek()
        if kind != "nat":
            raise ParseError("expected a denominator", pos)
        if q == 0:
            raise ParseError("zero denominator", pos)
        ts.next()
        return Fraction(p, q)
    return Fraction(p)


def _parse_atom(ts):
    """An atom after any scalar prefixes, which are read in a loop."""
    scalars = []
    while ts.peek()[0] in ("-", "nat"):
        pos = ts.peek()[2]
        if ts.take("-"):
            if ts.peek()[0] != "nat":
                raise ParseError("expected a number after '-'", ts.peek()[2])
            scalars.append((-_parse_rational(ts), pos))
        else:
            scalars.append((_parse_rational(ts), pos))
    node, depth = _parse_primary(ts)
    for coeff, pos in reversed(scalars):
        node = ScalarMul(coeff, node)
        depth = _bounded(depth + 1, pos)
    return node, depth


def _parse_primary(ts):
    kind, value, pos = ts.next()
    if kind == "proj":
        return Proj(value), 1
    if kind == "named":
        return value(), 1
    if kind == "basis":
        return Basis(*comb.reduce_pair(*value)), 1
    if kind == "(":
        ts.open_parens = _bounded(ts.open_parens + 1, pos)
        node = _parse_sum(ts)
        ts.expect(")", "a closing parenthesis")
        ts.open_parens -= 1
        return node
    raise ParseError("expected an operator expression", pos)


# ---------------------------------------------------------------------------
# expansion


def _truncate(f, m):
    return core.PnsymElement(
        {key: c for key, c in f.terms.items() if sum(key[0]) <= m}
    )


def _expand_id(m):
    out = dict(core.UNIT.terms)
    for n in range(1, m + 1):
        out[((n,), (1,))] = Fraction(1)
    return core.PnsymElement(out)


def _expand_antipode(m):
    """Alternating sum over compositions, identity twists only."""
    out = {}
    for n in range(m + 1):
        for alpha in comb.compositions(n):
            sign = -1 if len(alpha) % 2 else 1
            out[(alpha, comb.identity(len(alpha)))] = Fraction(sign)
    return core.PnsymElement(out)


def _conv_power(base, n, m):
    """The n-th convolution power of ``base``, truncated to degree ``m``.

    Write base = c*UNIT + r with counit(r) = 0.  The unit is central, so the
    binomial theorem gives the sum of C(n, j) c^(n-j) r^(*j) over j <= n;
    r^(*j) starts in degree j, so only j <= m survives the truncation, and
    the power costs at most m products whatever n is.
    """
    c = core.counit(base)
    rest = base - c * core.UNIT
    rest_power = core.UNIT
    out = c ** n * core.UNIT
    for j in range(1, min(n, m) + 1):
        rest_power = _truncate(core.external_mul(rest_power, rest), m)
        out = out + math.comb(n, j) * c ** (n - j) * rest_power
    return out


def expand(e, m):
    """Expansion of an operator expression, truncated to degree ``m``."""
    if m < 0:
        raise ValueError("budget must be nonnegative")
    return _expand(e, m)


def _expand(e, m):
    if isinstance(e, Proj):
        if e.n == 0:
            return core.UNIT
        if e.n > m:
            return core.ZERO
        return core.basis((e.n,), (1,))
    if isinstance(e, Id):
        return _expand_id(m)
    if isinstance(e, Antipode):
        return _expand_antipode(m)
    if isinstance(e, CounitUnit):
        return core.UNIT
    if isinstance(e, Basis):
        return _truncate(core.from_weak_term(1, (e.alpha, e.sigma)), m)
    if isinstance(e, ScalarMul):
        return e.coeff * _expand(e.body, m)
    if isinstance(e, Sum):
        return _expand(e.left, m) + _expand(e.right, m)
    if isinstance(e, Difference):
        return _expand(e.left, m) - _expand(e.right, m)
    if isinstance(e, Convolution):
        return _truncate(core.external_mul(_expand(e.left, m), _expand(e.right, m)), m)
    if isinstance(e, Composition):
        return core.internal_mul(_expand(e.left, m), _expand(e.right, m))
    if isinstance(e, CompPower):
        if e.exponent == 0:
            return _expand_id(m)
        # range, unlike islice, takes exponents beyond sys.maxsize
        powers = core.composition_powers(_expand(e.body, m))
        for _, power in zip(range(e.exponent), powers):
            pass
        return power
    if isinstance(e, ConvPower):
        return _conv_power(_expand(e.body, m), e.exponent, m)
    raise TypeError(f"not an operator expression: {e!r}")


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: tuple = None  # (coefficient, basis key) of one surviving term

    def __bool__(self):
        return self.holds


def check_zero_on_degree(e, m):
    """Does the expression vanish on the degree-m component?"""
    if isinstance(e, str):
        e = parse(e)
    component = core.degree_component(expand(e, m), m)
    if not component:
        return Verdict(True)
    key, coeff = component.sorted_terms()[0]
    return Verdict(False, (coeff, key))


def k_value(i, j, k_max):
    """Smallest k <= k_max with the bracket of p_i and p_j nilpotent of order k.

    Returns the least k such that the k-th composition power of
    F((i,j);id) - F((j,i);id) vanishes, or None when no such k <= k_max
    exists.  The powers come from :func:`pnsym.core.composition_powers`,
    which computes each key's product with the bracket once per call.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    bracket = core.from_weak_term(1, ((i, j), (1, 2))) - core.from_weak_term(
        1, ((j, i), (1, 2))
    )
    # range comes first, so zip asks for no power past the k_max-th
    for k, power in zip(range(1, k_max + 1), core.composition_powers(bracket)):
        if not power:
            return k
    return None
