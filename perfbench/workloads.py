"""The three benchmark workloads, with their inputs and output checks.

Each workload is a closed loop with one client: the benchmark makes a library
call, waits for the result, checks it outside the timed region, and only then
makes the next call.  A *pass* is one unit of the workload's fixed job:

* ``ktable`` -- the nine entries of acceptance criterion 2's fast set, each
  through ``cli.main(["ktable", i, j])``;
* ``verify`` -- the default verify (model size 4, max size 3), one
  ``cli.main(["verify", "--family", name])`` request for each of the 17
  families, which together are the work of one ``cli.main(["verify"])``;
* ``hopf``   -- a batch of calls drawn from a seeded stream of ``external_mul``,
  ``internal_mul``, ``coproduct``, ``antipode`` and ``check_zero_on_degree``.

Every pass of ``ktable`` and ``verify`` makes the same requests in the same
order (``fixed_job``), so the time of the job can be taken request by
request; a ``hopf`` pass draws new calls.  A workload is built on one
package, the program or the frozen reference, and makes the same requests
on either.

An *op* is the unit a failure is counted in: a ktable entry, a verify case or
a hopf call.  An op fails on a wrong output or an exception.

The references the checks compare against do not come from the code under
test: criterion 2's table and the ROADMAP's k(1,5) support sizes, the verify
case total, verdicts known from the theory, and products, coproducts and
antipodes computed here from their definitions on full keys (alpha; sigma),
so a wrong permutation fails as surely as a wrong composition.  Apart from
the sampled oracle run, the checks call no pnsym function, so they cannot
warm a cache in ``core`` or ``combinatorics`` between two timed calls.
"""

import contextlib
import importlib
import io
import itertools
import random
import time
from fractions import Fraction

# criterion 2 of the acceptance suite; k(3,2) equals k(2,3)
KTABLE_EXPECTED = {
    (0, 5): 1,
    (3, 3): 1,
    (1, 2): 5,
    (1, 3): 7,
    (1, 4): 9,
    (1, 5): 11,
    (2, 3): 9,
    (2, 4): 9,
    (3, 2): 9,
}

# support sizes of the powers of the (1,5) bracket, as listed in ROADMAP.md
K15_SUPPORT = [2, 7, 16, 55, 146, 485, 1022, 1318, 602, 720, 0]

# cases of each default verify family, as this version runs them; they add
# up to the total of the acceptance suite's default run
VERIFY_FAMILY_CASES = {
    "composition-expansion": 15660,
    "convolution-concatenation": 2048,
    "projection-convolution": 560,
    "reduction-invariance": 11202,
    "degree-projection": 144,
    "cocommutative-collapse": 112,
    "tensor-square-expansion": 256,
    "distinct-images": 15,
    "shuffle-factorization": 1089,
    "wreath-associativity": 9801,
    "iterated-product-merge": 32,
    "iterated-coproduct-merge": 96,
    "product-coproduct-exchange": 32,
    "projection-product-split": 240,
    "projection-coproduct-split": 240,
    "projection-permutation-twist": 290,
    "projection-orthogonality": 234,
}
VERIFY_CASES = 42051
assert sum(VERIFY_FAMILY_CASES.values()) == VERIFY_CASES

# Criterion-3 identities and identities whose verdict follows from the
# definitions (antipode axiom, orthogonal idempotent projections, the grading
# of id, distinct basis keys), all at degree <= 3.
CHECK_POOL = [
    ("(p1*p2 - p2*p1)^5", 3, True),
    ("(p1*p2 - p2*p1)^4", 3, False),
    ("(p1*id - 2 id) o (p1*id)^2", 2, True),
    ("(S o S - id)^2", 2, True),
    ("(S o S - id)^3", 3, True),
    ("S*id - ue", 3, True),
    ("id*S - ue", 3, True),
    ("p1 o p2", 3, True),
    ("p2 o p2 - p2", 2, True),
    ("id - p0 - p1 - p2 - p3", 3, True),
    ("p1*p2 - p2*p1", 3, False),
    ("p1*p1 - p2", 2, False),
]

HOPF_OPS = ("mul", "imul", "coproduct", "antipode", "check")
HOPF_BATCH = 100         # calls per hopf pass
HOPF_MAX_DEGREE = 5
HOPF_ORACLE_SHARE = 50   # one imul result in this many is also run on the oracle
COEFFS = [Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2)]


# ---------------------------------------------------------------------------
# references on full keys (alpha, sigma), from the definitions, on dicts

EMPTY_KEY = ((), ())


def _reduce(alpha, sigma):
    """Drop the zero parts of alpha and standardize what is left of sigma."""
    kept = [(a, s) for a, s in zip(alpha, sigma) if a]
    order = sorted(s for _, s in kept)
    return tuple(a for a, _ in kept), tuple(order.index(s) + 1 for _, s in kept)


def _accumulate(pairs):
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def _tables(rows, cols):
    """Nonnegative integer matrices with the given row and column sums."""
    if not rows:
        if not any(cols):
            yield ()
        return
    first, rest = rows[0], rows[1:]
    for row in itertools.product(*(range(min(first, c) + 1) for c in cols)):
        if sum(row) == first:
            left = tuple(c - r for c, r in zip(cols, row))
            for tail in _tables(rest, left):
                yield (row,) + tail


def _ref_mul(f, g):
    """F(a;s) . F(b;t) = F(ab; s then t shifted past s)."""
    return _accumulate(
        ((a + b, s + tuple(len(s) + x for x in t)), c * d)
        for (a, s), c in f.items()
        for (b, t), d in g.items()
    )


def _ref_imul(f, g):
    """F(a;s) * F(b;t): every table with row sums a and column sums b, read
    row by row, where cell (i, j) carries the value k (t_j - 1) + s_i."""
    def terms():
        for (a, s), c in f.items():
            for (b, t), d in g.items():
                if sum(a) != sum(b):
                    continue
                twist = tuple(len(s) * (tj - 1) + si for si in s for tj in t)
                for table in _tables(a, b):
                    flat = tuple(x for row in table for x in row)
                    yield _reduce(flat, twist), c * d
    return _accumulate(terms())


def _ref_coproduct(f):
    """Delta F(a;s) = sum over entrywise b + c = a of F(b;s) (x) F(c;s), reduced."""
    def terms():
        for (a, s), c in f.items():
            for b in itertools.product(*(range(x + 1) for x in a)):
                rest = tuple(x - y for x, y in zip(a, b))
                yield (_reduce(b, s), _reduce(rest, s)), c
    return _accumulate(terms())


def _ref_antipode_key(key, memo):
    """The antipode is the inverse of id under convolution: S * id = eta eps.
    On a key x of positive degree that reads S(x) + x + sum S(x') x'' = 0,
    the sum over the coproduct terms with both legs of positive degree."""
    if key == EMPTY_KEY:
        return {EMPTY_KEY: 1}
    if key not in memo:
        terms = [(key, -1)]
        for (left, right), c in _ref_coproduct({key: 1}).items():
            if left != EMPTY_KEY and right != EMPTY_KEY:
                prod = _ref_mul(_ref_antipode_key(left, memo), {right: 1})
                terms += [(k, -c * v) for k, v in prod.items()]
        memo[key] = _accumulate(terms)
    return memo[key]


def _ref_antipode(f):
    memo = {}  # per call, so the benchmark's memory does not grow in a run
    return _accumulate(
        (k, c * v) for key, c in f.items() for k, v in _ref_antipode_key(key, memo).items()
    )


# ---------------------------------------------------------------------------
# workloads

# The program under test is the ``pnsym`` package built from ``src/``.  The
# reference is a copy of that package, frozen under the name ``pnsym_ref`` in
# ``perfbench/reference/`` at the commit that defined this benchmark.
PROGRAM = "pnsym"
REFERENCE = "pnsym_ref"


def _keys(n):
    """Every basis key (alpha; sigma) of size n: alpha a composition of n and
    sigma a permutation of its length, by length, then alpha, then sigma."""
    if n == 0:
        return [((), ())]
    comps = [
        tuple(b - a for a, b in zip((0,) + cut, cut + (n,)))
        for k in range(n)
        for cut in itertools.combinations(range(1, n), k)
    ]
    return [
        (alpha, sigma)
        for alpha in sorted(comps, key=lambda a: (len(a), a))
        for sigma in itertools.permutations(range(1, len(alpha) + 1))
    ]


def _cli(cli, *argv):
    """Exit code and standard output of one ``pnsym`` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


class Request:
    """One timed library call: ``call()`` makes it, and ``check(result)``
    returns how many of its ``ops`` failed."""

    __slots__ = ("call", "ops", "check")

    def __init__(self, call, ops, check):
        self.call, self.ops, self.check = call, ops, check

    def time(self):
        """Make the call: its result, the exception it raised (or None), and
        its latency."""
        t0 = time.perf_counter()
        try:
            return self.call(), None, time.perf_counter() - t0
        except Exception as exc:  # an op that raises is a failed op
            return None, exc, time.perf_counter() - t0

    def failed(self, result, exc):
        """Failed ops of one call, checked after its clock has stopped: all
        of them when the call or the check raised."""
        if exc is not None:
            return self.ops
        try:
            return self.check(result)
        except Exception:
            return self.ops


class PassResult:
    """Latency of every timed request of one pass, and its op counts."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0

    @property
    def seconds(self):
        return sum(self.latencies)


class Workload:
    """Built on one package, ``PROGRAM`` or ``REFERENCE``.  Two workloads
    built from one seed make the same requests, whichever package they are
    built on."""

    def __init__(self, seed, package=PROGRAM):
        self.lib = importlib.import_module(package)
        importlib.import_module(package + ".cli")

    def requests(self):
        """The requests of the next pass."""
        raise NotImplementedError

    def run_pass(self):
        res = PassResult()
        for request in self.requests():
            result, exc, seconds = request.time()
            res.latencies.append(seconds)
            res.attempted += request.ops
            res.failed += request.failed(result, exc)
        return res


class Ktable(Workload):
    name = "ktable"
    fixed_job = True

    def __init__(self, seed, package=PROGRAM):
        super().__init__(seed, package)
        self.expected = dict(KTABLE_EXPECTED)
        self.entries = list(KTABLE_EXPECTED)

    def requests(self):
        cli = self.lib.cli
        return [
            Request(
                lambda i=i, j=j: _cli(cli, "ktable", str(i), str(j)),
                1,
                lambda got, k=self.expected[(i, j)]: int(got != (0, f"{k}\n")),
            )
            for i, j in self.entries
        ]


class Verify(Workload):
    name = "verify"
    fixed_job = True

    def __init__(self, seed, package=PROGRAM):
        super().__init__(seed, package)
        self.cases = dict(VERIFY_FAMILY_CASES)

    def requests(self):
        cli = self.lib.cli
        return [
            Request(
                lambda family=family: _cli(cli, "verify", "--family", family),
                cases,
                lambda got, family=family, cases=cases: _verify_failures(family, cases, *got),
            )
            for family, cases in self.cases.items()
        ]


def _verify_failures(family, cases, code, text):
    """Failed cases in the report of one family: reported failures plus
    missing cases.  A report that cannot be read, or whose exit code or
    totals line is wrong, fails as a whole."""
    lines = text.splitlines()
    try:
        (name, counts), (total, totals) = (line.split(": ", 1) for line in lines)
        ran, failures = (int(part.split()[0]) for part in counts.split(", "))
    except ValueError:
        return cases
    if name != family or total != "total" or totals != counts:
        return cases
    failed = failures + max(0, cases - ran)
    if code != 0:
        failed = max(failed, 1)
    return failed


class Hopf(Workload):
    name = "hopf"
    fixed_job = False

    def __init__(self, seed, package=PROGRAM):
        super().__init__(seed, package)
        self.rng = random.Random(seed)
        self.sample_rng = random.Random(f"oracle-sample-{seed}")
        self.pool = [key for n in range(HOPF_MAX_DEGREE + 1) for key in _keys(n)]
        self.check_pool = list(CHECK_POOL)
        # the checks run the oracle; a traced run replaces this with a
        # context that keeps those calls out of the trace
        self.untraced = contextlib.nullcontext

    def _mixture(self):
        keys = self.rng.sample(self.pool, 3)
        return self.lib.core.PnsymElement({k: self.rng.choice(COEFFS) for k in keys})

    def next_call(self):
        """The next (op, function, args, known verdict) of the seeded stream."""
        core = self.lib.core
        op = self.rng.choice(HOPF_OPS)
        if op == "check":
            text, degree, verdict = self.rng.choice(self.check_pool)
            return op, self.lib.checker.check_zero_on_degree, (text, degree), verdict
        if op == "mul":
            return op, core.external_mul, (self._mixture(), self._mixture()), None
        if op == "imul":
            return op, core.internal_mul, (self._mixture(), self._mixture()), None
        if op == "coproduct":
            return op, core.coproduct, (self._mixture(),), None
        return op, core.antipode, (self._mixture(),), None

    def requests(self):
        out = []
        for _ in range(HOPF_BATCH):
            op, fn, args, verdict = self.next_call()
            out.append(Request(
                lambda fn=fn, args=args: fn(*args),
                1,
                lambda result, op=op, args=args, verdict=verdict:
                    int(not self._checked(op, args, result, verdict)),
            ))
        return out

    def _checked(self, op, args, result, verdict):
        with self.untraced():
            return self._correct(op, args, result, verdict)

    def _correct(self, op, args, result, verdict):
        if op == "check":
            return result.holds is verdict
        terms = [x.terms for x in args]
        if op == "mul":
            want = _ref_mul(*terms)
        elif op == "imul":
            want = _ref_imul(*terms)
        elif op == "coproduct":
            want = _ref_coproduct(*terms)
        else:
            want = _ref_antipode(*terms)
        if result.terms != want:
            return False
        if op == "imul" and self.sample_rng.randrange(HOPF_ORACLE_SHARE) == 0:
            return self._imul_on_oracle(*args, result)
        return True

    def _imul_on_oracle(self, f, g, product):
        """The operator of f * g is the composite of the operators of f and g,
        probed on the model's generator of each degree of the product."""
        oracle = self.lib.oracle
        for d in sorted({sum(alpha) for alpha, _ in product.terms}):
            if d == 0:
                continue
            model = oracle.TriangularModel(d + 1)
            x = model.gen(1, d + 1)
            lhs = oracle.evaluate_pnsym(model, product, x)
            if lhs != oracle.evaluate_pnsym(model, f, oracle.evaluate_pnsym(model, g, x)):
                return False
        return True


WORKLOADS = {w.name: w for w in (Ktable, Verify, Hopf)}
