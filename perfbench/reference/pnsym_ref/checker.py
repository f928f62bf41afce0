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

from dataclasses import dataclass
from fractions import Fraction

from . import combinatorics as comb
from . import core
from .combinatorics import ParseError


# ---------------------------------------------------------------------------
# syntax trees


@dataclass(frozen=True)
class Proj:
    n: int


@dataclass(frozen=True)
class Id:
    pass


@dataclass(frozen=True)
class Antipode:
    pass


@dataclass(frozen=True)
class CounitUnit:
    pass


@dataclass(frozen=True)
class Basis:
    alpha: tuple
    sigma: tuple


@dataclass(frozen=True)
class ScalarMul:
    coeff: Fraction
    body: object


@dataclass(frozen=True)
class Sum:
    left: object
    right: object


@dataclass(frozen=True)
class Difference:
    left: object
    right: object


@dataclass(frozen=True)
class Convolution:
    left: object
    right: object


@dataclass(frozen=True)
class Composition:
    left: object
    right: object


@dataclass(frozen=True)
class CompPower:
    body: object
    exponent: int


@dataclass(frozen=True)
class ConvPower:
    body: object
    exponent: int


@dataclass(frozen=True)
class ExpansionBudget:
    max_degree: int


# ---------------------------------------------------------------------------
# tokenizer


def _tokens(text):
    """Yield (kind, value, position) triples; kinds are self-describing."""
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield "nat", int(text[i:j]), i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            run = text[i:j]
            if run == "o":
                yield "compose", None, i
            elif run == "id":
                yield "id", None, i
            elif run == "S":
                yield "antipode", None, i
            elif run == "ue":
                yield "counit_unit", None, i
            elif run == "p" and j < n and text[j].isdigit():
                k = j
                while k < n and text[k].isdigit():
                    k += 1
                yield "proj", int(text[j:k]), i
                i = k
                continue
            elif run == "F" and j < n and text[j] == "(":
                depth = 0
                k = j
                while k < n:
                    if text[k] == "(":
                        depth += 1
                    elif text[k] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    k += 1
                if depth != 0:
                    raise ParseError("unbalanced parentheses in basis escape", i)
                try:
                    alpha, sigma = comb.parse_pair(text[j:k + 1])
                except ParseError as exc:
                    raise ParseError(exc.message, exc.position + j) from None
                yield "basis", (alpha, sigma), i
                i = k + 1
                continue
            else:
                raise ParseError(f"unknown name {run!r}", i)
            i = j
            continue
        if ch in "()+-*/^":
            yield ch, None, i
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    yield "end", None, n


class _TokenStream:
    def __init__(self, text):
        self.toks = list(_tokens(text))
        self.pos = 0

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


# ---------------------------------------------------------------------------
# parser — precedence, tightest first: powers, composition, convolution,
# unary minus, then + and -; scalars bind like atoms (juxtaposition)


def parse(text):
    ts = _TokenStream(text)
    node = _parse_sum(ts)
    kind, _, pos = ts.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return node


def _negated(node):
    if isinstance(node, ScalarMul):
        return ScalarMul(-node.coeff, node.body)
    return ScalarMul(Fraction(-1), node)


def _parse_sum(ts):
    if ts.take("-"):
        node = _negated(_parse_conv(ts))
    else:
        node = _parse_conv(ts)
    while True:
        if ts.take("+"):
            node = Sum(node, _parse_conv(ts))
        elif ts.take("-"):
            node = Difference(node, _parse_conv(ts))
        else:
            return node


def _parse_conv(ts):
    node = _parse_comp(ts)
    while ts.take("*"):
        node = Convolution(node, _parse_comp(ts))
    return node


def _parse_comp(ts):
    node = _parse_power(ts)
    while ts.take("compose"):
        node = Composition(node, _parse_power(ts))
    return node


def _parse_power(ts):
    node = _parse_atom(ts)
    if ts.take("^"):
        conv_flavor = ts.take("*") is not None
        kind, value, pos = ts.peek()
        if kind != "nat":
            raise ParseError("exponent must be a natural number", pos)
        ts.next()
        node = ConvPower(node, value) if conv_flavor else CompPower(node, value)
    return node


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
    kind, value, pos = ts.peek()
    if kind == "proj":
        ts.next()
        return Proj(value)
    if kind == "id":
        ts.next()
        return Id()
    if kind == "antipode":
        ts.next()
        return Antipode()
    if kind == "counit_unit":
        ts.next()
        return CounitUnit()
    if kind == "basis":
        ts.next()
        return Basis(*comb.reduce_pair(*value))
    if kind == "(":
        ts.next()
        node = _parse_sum(ts)
        ts.expect(")", "a closing parenthesis")
        return node
    if kind == "-":
        ts.next()
        if ts.peek()[0] != "nat":
            raise ParseError("expected a number after '-'", ts.peek()[2])
        coeff = -_parse_rational(ts)
        return ScalarMul(coeff, _parse_atom(ts))
    if kind == "nat":
        coeff = _parse_rational(ts)
        return ScalarMul(coeff, _parse_atom(ts))
    raise ParseError("expected an operator expression", pos)


# ---------------------------------------------------------------------------
# printing (round-trips through parse up to tree equality)

_LEVEL_SUM, _LEVEL_CONV, _LEVEL_COMP, _LEVEL_POWER, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e):
    if isinstance(e, (Sum, Difference)):
        return _LEVEL_SUM
    if isinstance(e, Convolution):
        return _LEVEL_CONV
    if isinstance(e, Composition):
        return _LEVEL_COMP
    if isinstance(e, (CompPower, ConvPower)):
        return _LEVEL_POWER
    return _LEVEL_ATOM


def to_text(e):
    return _print(e, _LEVEL_SUM)


def _print(e, min_level):
    text = _print_raw(e)
    needs_parens = _level(e) < min_level or (
        # a bare leading minus would re-associate at the sum level
        isinstance(e, ScalarMul)
        and e.coeff < 0
        and min_level > _LEVEL_SUM
    )
    if needs_parens:
        return f"({text})"
    return text


def _print_raw(e):
    if isinstance(e, Proj):
        return f"p{e.n}"
    if isinstance(e, Id):
        return "id"
    if isinstance(e, Antipode):
        return "S"
    if isinstance(e, CounitUnit):
        return "ue"
    if isinstance(e, Basis):
        return "F" + comb.format_pair(e.alpha, e.sigma)
    if isinstance(e, ScalarMul):
        return f"{e.coeff} {_print(e.body, _LEVEL_ATOM)}"
    if isinstance(e, Sum):
        return f"{_print(e.left, _LEVEL_SUM)} + {_print(e.right, _LEVEL_CONV)}"
    if isinstance(e, Difference):
        return f"{_print(e.left, _LEVEL_SUM)} - {_print(e.right, _LEVEL_CONV)}"
    if isinstance(e, Convolution):
        return f"{_print(e.left, _LEVEL_CONV)} * {_print(e.right, _LEVEL_COMP)}"
    if isinstance(e, Composition):
        return f"{_print(e.left, _LEVEL_COMP)} o {_print(e.right, _LEVEL_POWER)}"
    if isinstance(e, CompPower):
        return f"{_print(e.body, _LEVEL_ATOM)}^{e.exponent}"
    if isinstance(e, ConvPower):
        return f"{_print(e.body, _LEVEL_ATOM)}^*{e.exponent}"
    raise TypeError(f"not an operator expression: {e!r}")


# ---------------------------------------------------------------------------
# expansion


def _budget_degree(budget):
    if isinstance(budget, ExpansionBudget):
        return budget.max_degree
    return int(budget)


def _truncate(f, m):
    return core.PnsymElement(
        {key: c for key, c in f.terms.items() if comb.size(key[0]) <= m}
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


def expand(e, budget):
    """Expansion of an operator expression, truncated to the budget degree."""
    m = _budget_degree(budget)
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
        return core.scale(e.coeff, _expand(e.body, m))
    if isinstance(e, Sum):
        return core.add(_expand(e.left, m), _expand(e.right, m))
    if isinstance(e, Difference):
        return core.add(_expand(e.left, m), core.scale(-1, _expand(e.right, m)))
    if isinstance(e, Convolution):
        return _truncate(core.external_mul(_expand(e.left, m), _expand(e.right, m)), m)
    if isinstance(e, Composition):
        return core.internal_mul(_expand(e.left, m), _expand(e.right, m))
    if isinstance(e, CompPower):
        if e.exponent == 0:
            return _expand_id(m)
        base = _expand(e.body, m)
        out = base
        for _ in range(e.exponent - 1):
            out = core.internal_mul(out, base)
        return out
    if isinstance(e, ConvPower):
        if e.exponent == 0:
            return core.UNIT
        base = _expand(e.body, m)
        out = base
        for _ in range(e.exponent - 1):
            out = _truncate(core.external_mul(out, base), m)
        return out
    raise TypeError(f"not an operator expression: {e!r}")


def identity_inverse_series(budget):
    """Convolution inverse of the identity expansion, degree by degree.

    Independent route to the antipode expansion: solve s * (unit + rest) =
    unit iteratively, gaining one exact degree per pass.
    """
    m = _budget_degree(budget)
    rest = core.add(_expand_id(m), core.scale(-1, core.UNIT))
    series = core.UNIT
    for _ in range(m):
        series = core.add(
            core.UNIT, core.scale(-1, _truncate(core.external_mul(series, rest), m))
        )
    return series


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
    exists.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    bracket = core.add(
        core.from_weak_term(1, ((i, j), (1, 2))),
        core.from_weak_term(-1, ((j, i), (1, 2))),
    )
    power = bracket
    for k in range(1, k_max + 1):
        if not power:
            return k
        if k < k_max:
            power = core.internal_mul(power, bracket)
    return None


def squared_antipode_check(k):
    """Vanishing order of S∘S - id on the degree-k component."""
    body = Difference(Composition(Antipode(), Antipode()), Id())
    return check_zero_on_degree(CompPower(body, max(1, k)), k)
