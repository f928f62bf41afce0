"""Weak compositions, permutations, and the combinatorial maps between them.

Conventions used throughout the package:

* a weak composition is a tuple of nonnegative ints (a composition has all
  entries positive);
* a permutation is a tuple in one-line notation, 1-indexed: ``p[i-1]`` is the
  image of ``i``;
* a mopiscotion is a pair ``(alpha, sigma)`` of a composition and a
  permutation of the same length.  A weak mopiscotion allows zero entries in
  ``alpha``; :func:`reduce_pair` turns one into its canonical mopiscotion.

Everything here is a pure function on immutable tuples.
"""

import itertools


# ---------------------------------------------------------------------------
# weak compositions


def concat(alpha, beta):
    """Concatenation of two weak compositions."""
    return tuple(alpha) + tuple(beta)


def is_weak_composition(alpha):
    return all(type(a) is int and a >= 0 for a in alpha)


def compositions(n, length=None):
    """All compositions of ``n`` (entries >= 1), optionally of fixed length.

    Yielded in lexicographic order for each length, shortest first when
    ``length`` is None.  A composition of ``n`` into ``k`` parts is a weak
    composition of ``n - k`` with one added to each part.
    """
    if length is None:
        for k in range(n + 1):
            yield from compositions(n, k)
        return
    for weak in weak_compositions(n - length, length):
        yield tuple(a + 1 for a in weak)


def weak_compositions(n, length):
    """All weak compositions of ``n`` into exactly ``length`` parts."""
    if length == 0:
        if n == 0:
            yield ()
        return
    for first in range(0, n + 1):
        for rest in weak_compositions(n - first, length - 1):
            yield (first,) + rest


def entrywise_splittings(alpha):
    """All pairs of weak compositions (beta, gamma) with beta + gamma = alpha
    entrywise (same length as alpha), in lexicographic order of beta."""
    for beta in itertools.product(*(range(a + 1) for a in alpha)):
        yield beta, tuple(a - b for a, b in zip(alpha, beta))


# ---------------------------------------------------------------------------
# permutations (one-line notation, 1-indexed)


def is_permutation(p):
    return all(type(x) is int for x in p) and sorted(p) == list(range(1, len(p) + 1))


def identity(k):
    return tuple(range(1, k + 1))


def compose(p, q):
    """(p o q)(x) = p(q(x)); requires equal lengths."""
    if len(p) != len(q):
        raise ValueError("cannot compose permutations of different degrees")
    return tuple(p[q[x] - 1] for x in range(len(p)))


def inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p, 1):
        inv[v - 1] = i
    return tuple(inv)


def direct_sum(sigma, tau):
    """Permutation acting as sigma on 1..k and as a shifted tau on k+1..k+l."""
    k = len(sigma)
    return tuple(sigma) + tuple(k + t for t in tau)


def wreath_substitute(tau, sigma):
    """The permutation of [k*l] sending l*(i-1)+j to k*(tau(j)-1)+sigma(i).

    Here ``sigma`` has degree k and ``tau`` degree l.  This is the
    permutation attached to a composition of twisted operators; it satisfies
    ``interleave_power(tau,k) o inverse(zolotarev(k,l)) o block_power(sigma,l)
    == wreath_substitute(tau, sigma)``.
    """
    k = len(sigma)
    shifts = [k * (t - 1) for t in tau]
    return tuple([s + shift for s in sigma for shift in shifts])


def zolotarev(k, l):
    """The shuffle of [k*l] sending k*(j-1)+i to l*(i-1)+j.

    Interchanges the row-major and column-major readings of a k x l grid.
    """
    res = [0] * (k * l)
    for i in range(1, k + 1):
        for j in range(1, l + 1):
            res[k * (j - 1) + i - 1] = l * (i - 1) + j
    return tuple(res)


def block_power(sigma, l):
    """The permutation of [k*l] sending l*(i-1)+j to l*(sigma(i)-1)+j.

    Moves around l-sized blocks the way ``sigma`` moves single points.
    """
    k = len(sigma)
    res = [0] * (k * l)
    for i in range(1, k + 1):
        for j in range(1, l + 1):
            res[l * (i - 1) + j - 1] = l * (sigma[i - 1] - 1) + j
    return tuple(res)


def interleave_power(tau, k):
    """The permutation of [k*l] sending k*(j-1)+i to k*(tau(j)-1)+i."""
    l = len(tau)
    res = [0] * (k * l)
    for i in range(1, k + 1):
        for j in range(1, l + 1):
            res[k * (j - 1) + i - 1] = k * (tau[j - 1] - 1) + i
    return tuple(res)


def act_right(gamma, pi):
    """Right action of a permutation on a tuple: entry i becomes gamma[pi(i)]."""
    if len(gamma) != len(pi):
        raise ValueError("tuple and permutation must have the same length")
    return tuple(gamma[pi[i] - 1] for i in range(len(pi)))


def standardize(values):
    """The permutation with the same relative order as ``values``.

    The smallest value maps to 1, the next to 2, and so on.  Duplicate
    values are rejected.
    """
    values = tuple(values)
    rank = {v: r for r, v in enumerate(sorted(values), 1)}
    if len(rank) != len(values):
        raise ValueError("cannot standardize a sequence with duplicates")
    return tuple(map(rank.__getitem__, values))


# ---------------------------------------------------------------------------
# mopiscotions


def reduce_pair(alpha, sigma):
    """Canonical form of a weak mopiscotion.

    Drops the zero entries of ``alpha`` and standardizes the surviving
    values of ``sigma``, e.g. ((3,0,1,2,0), [4,5,1,3,2]) -> ((3,1,2), [3,1,2]).
    """
    if len(alpha) != len(sigma):
        raise ValueError("composition and permutation must have the same length")
    keep = [i for i, a in enumerate(alpha) if a != 0]
    return (
        tuple(alpha[i] for i in keep),
        standardize(sigma[i] for i in keep),
    )


def mopiscotions(n):
    """All mopiscotions (alpha, sigma) with sum(alpha) == n.

    Ordered by length of alpha, then lexicographically on alpha, then on
    sigma's one-line form.
    """
    for alpha in compositions(n):
        for sigma in itertools.permutations(range(1, len(alpha) + 1)):
            yield (alpha, sigma)


# ---------------------------------------------------------------------------
# contingency tables


def contingency_tables(alpha, beta):
    """All k x l nonnegative-integer matrices with row sums ``alpha`` and
    column sums ``beta``, each as ``(cells, values)``: the positions of its
    nonzero entries in the row-major flattening, and those entries.

    Tables come in lexicographic order of the flattening; none when the sums
    disagree, one, ``((), ())``, for alpha = beta = ().  A dynamic program on
    (row index, remaining column budgets), memoized for the call, builds them
    all before the first is yielded.  The last row takes the budgets left, so
    the penultimate row attaches it to each of its fills directly, and a
    row's tails already in the memo are read without a call.
    """
    alpha, beta = tuple(alpha), tuple(beta)
    if sum(alpha) != sum(beta):
        return
    last, l = len(alpha) - 1, len(beta)
    memo = {}

    def with_last_row(fills):
        # each fill of the rows above the last, completed by the budgets left
        base = last * l
        return [
            (cells + tuple([base + j for j, b in enumerate(rest) if b]),
             values + tuple([b for b in rest if b]))
            for cells, values, rest in fills
        ]

    def tables(i, budgets):
        # the fills of rows i.. under ``budgets``, for i < last
        fills = _row_fills(alpha[i], budgets, i * l)
        if i + 1 == last:
            found = with_last_row(fills)
        else:
            found = []
            for cells, values, rest in fills:
                tails = memo.get((i + 1, rest))
                if tails is None:
                    tails = tables(i + 1, rest)
                found += [(cells + tail_cells, values + tail_values)
                          for tail_cells, tail_values in tails]
        memo[i, budgets] = found
        return found

    if not alpha:
        yield (), ()
    else:
        yield from tables(0, beta) if last else with_last_row([((), (), beta)])


def _row_fills(total, budgets, base):
    """The rows ``0 <= r <= budgets`` with sum ``total``, in lex order, as
    ``(cells, values, budgets - r)``, the cells numbered from ``base``.

    A row of total 1 is one 1 in a column with budget left; lex order puts
    the rightmost first, so one right-to-left sweep lists them.  Other rows
    grow column by column from the left.
    """
    if total == 1:
        return [
            ((base + j,), (1,), budgets[:j] + (b - 1,) + budgets[j + 1:])
            for j in range(len(budgets) - 1, -1, -1)
            if (b := budgets[j])
        ]
    fills = [((), (), (), total)]
    after = sum(budgets)
    for cell, b in enumerate(budgets, base):
        after -= b  # the budgets of the columns to the right
        grown = []
        for cells, values, rest, left in fills:
            lo = left - after
            if lo <= 0:
                grown.append((cells, values, rest + (b,), left))
                lo = 1
            for v in range(lo, min(left, b) + 1):
                grown.append((cells + (cell,), values + (v,), rest + (b - v,), left - v))
        fills = grown
    return [fill[:3] for fill in fills]


# ---------------------------------------------------------------------------
# text forms: composition "(3,0,1,2,0)", permutation "[4,5,1,3,2]",
# mopiscotion "((3,1,2);[3,1,2])" -- printed with no spaces; read by Scanner


def format_composition(alpha):
    return "(" + ",".join(str(a) for a in alpha) + ")"


def format_permutation(sigma):
    return "[" + ",".join(str(s) for s in sigma) + "]"


def format_pair(alpha, sigma):
    return "(" + format_composition(alpha) + ";" + format_permutation(sigma) + ")"


class ParseError(ValueError):
    """Malformed textual input; ``position`` is a 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class Scanner:
    """Left-to-right reader of text forms; ``pos`` is an offset into ``text``.

    Whitespace may separate tokens but never splits a number, and digits are
    ASCII ``0``-``9`` only.  A number has at most 4300 digits, the
    interpreter's default bound on converting text to ``int``.  Errors about
    one character point at it; errors about a whole list point at the list's
    opening bracket.
    """

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        """The next character after any whitespace, or "" at the end."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos:self.pos + 1]

    def at_end(self):
        return self.peek() == ""

    def mark(self):
        """The offset of the next token, after any whitespace."""
        self.peek()
        return self.pos

    def at_digit(self):
        """Is the character at ``pos`` itself (no whitespace skipped) a digit?"""
        return "0" <= self.text[self.pos:self.pos + 1] <= "9"

    def take(self, char):
        if self.peek() != char:
            raise ParseError(f"expected {char!r}", self.pos)
        self.pos += 1

    def natural(self):
        start = self.mark()
        while self.at_digit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a nonnegative integer", start)
        if self.pos - start > 4300:
            raise ParseError("number too long", start)
        return int(self.text[start:self.pos])

    def _int_list(self, opener, closer):
        self.take(opener)
        out = []
        if self.peek() != closer:
            out.append(self.natural())
            while self.peek() == ",":
                self.pos += 1
                out.append(self.natural())
        self.take(closer)
        return tuple(out)

    def composition(self):
        """Read "(3,0,1,2,0)" as a weak composition."""
        return self._int_list("(", ")")

    def permutation(self):
        """Read "[4,5,1,3,2]" as a permutation in one-line notation."""
        start = self.mark()
        sigma = self._int_list("[", "]")
        if not is_permutation(sigma):
            raise ParseError(
                f"{format_permutation(sigma)} is not a permutation of 1..{len(sigma)}",
                start,
            )
        return sigma

    def pair(self):
        """Read "((3,1,2);[3,1,2])"; weak entries are accepted."""
        self.take("(")
        alpha = self.composition()
        self.take(";")
        start = self.mark()
        sigma = self.permutation()
        if len(alpha) != len(sigma):
            raise ParseError("composition and permutation lengths differ", start)
        self.take(")")
        return alpha, sigma


def parse_pair(text):
    """Parse "((3,1,2);[3,1,2])" into an (alpha, sigma) pair.

    Weak entries are accepted; the caller decides whether to reduce.
    """
    sc = Scanner(text)
    pair = sc.pair()
    if not sc.at_end():
        raise ParseError("trailing input", sc.pos)
    return pair
