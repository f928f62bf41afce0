"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion is self-contained and recomputes what it claims from the
public API, so a regression anywhere in the kit trips exactly the criteria
it breaks.  Runtime notes assume the default test machine; everything here
is exact arithmetic, so there are no tolerances anywhere.
"""

import itertools
import random
from fractions import Fraction

import pytest

from pnsym import checker, combinatorics as comb, core, oracle, verify

from hopf_reference import convolve_maps, tensor_mul
from nsym_reference import (
    from_nsym,
    nsym_basis,
    nsym_coproduct,
    nsym_external_mul,
    nsym_internal_mul,
    tensor_to_nsym,
    to_nsym,
)


F = core.basis
UNIT = core.UNIT
ZERO = core.ZERO


def _report(num, label, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"[{status}] criterion {num}: {label}")
    assert not problems, (num, label, problems[:5])


def _keys_up_to(n):
    return [key for s in range(n + 1) for key in comb.mopiscotions(s)]


def _mixtures(seed, count, max_size, terms=3):
    """Deterministic pseudo-random elements of degree <= max_size."""
    rng = random.Random(seed)
    pool = _keys_up_to(max_size)
    coeffs = [Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2)]
    out = []
    for _ in range(count):
        f = ZERO
        for key in rng.sample(pool, terms):
            f = f + rng.choice(coeffs) * F(*key)
        out.append(f)
    return out


def _family_problems(name, cases):
    """Problems of one family at the default bounds (4, 3), which must run
    exactly ``cases`` cases: a rewrite that drops or repeats some shows."""
    result = verify.run_family(name, model_size=4, max_size=3)
    if result.cases != cases:
        return [f"{name}: {result.cases} cases ran, expected {cases}"]
    if result.failures:
        return [f"{name}: {result.failures} failures, e.g. {result.examples}"]
    return []


# -------------------------------------------------------------------------
# 1. rank table and independent basis enumeration            (< 1 s)

def test_criterion_1_rank_table():
    problems = []
    expected = [1, 1, 3, 11, 49, 261, 1631, 11743]
    got = [core.rank(n) for n in range(8)]
    if got != expected:
        problems.append(f"rank table {got} != {expected}")
    for n in range(7):
        enumerated = list(comb.mopiscotions(n))
        if len(enumerated) != expected[n]:
            problems.append(f"enumeration at degree {n}: {len(enumerated)}")
        if len(set(enumerated)) != len(enumerated):
            problems.append(f"duplicate keys at degree {n}")
    _report(1, "rank table and basis enumeration", problems)


# -------------------------------------------------------------------------
# 2. nilpotency table                                        (fast set < 1 min)

# k(i, j): the least k with the k-th composition power of the bracket of p_i
# and p_j zero
NILPOTENCE_TABLE = {
    (0, 5): 1,
    (3, 3): 1,
    (1, 2): 5,
    (1, 3): 7,
    (1, 4): 9,
    (1, 5): 11,
    (2, 3): 9,
    (2, 4): 9,
}


def test_criterion_2_nilpotency_table():
    problems = []
    for (i, j), expected in sorted(NILPOTENCE_TABLE.items()):
        got = checker.k_value(i, j, 12)
        if got != expected:
            problems.append(f"k({i},{j}) = {got}, expected {expected}")
    if checker.k_value(3, 2, 12) != checker.k_value(2, 3, 12):
        problems.append("k(2,3) != k(3,2)")
    _report(2, "nilpotency table and symmetry", problems)


def test_criterion_2_extended_entry():
    problems = []
    got = checker.k_value(1, 6, 14)
    if got != 13:
        problems.append(f"k(1,6) = {got}, expected 13")
    _report(2, "extended nilpotency entry k(1,6)", problems)


# -------------------------------------------------------------------------
# 3. identity suite                                          (< 1 min)

def test_criterion_3_identity_suite():
    problems = []
    if not checker.check_zero_on_degree("(p1*p2 - p2*p1)^5", 3).holds:
        problems.append("commutator fifth power should vanish on degree 3")
    if checker.check_zero_on_degree("(p1*p2 - p2*p1)^4", 3).holds:
        problems.append("commutator fourth power should not vanish on degree 3")
    if not checker.check_zero_on_degree("(p1*id - 2 id) o (p1*id)^2", 2).holds:
        problems.append("projection identity should vanish on degree 2")
    for k in (2, 3, 4):
        if not checker.check_zero_on_degree(f"(S o S - id)^{k}", k).holds:
            problems.append(f"(S^2 - id)^{k} should vanish on degree {k}")
    _report(3, "identity suite", problems)


# -------------------------------------------------------------------------
# 4. composition expansion against the free model            (< 5 min)

def test_criterion_4_composition_expansion():
    _report(
        4,
        "operator composition matches internal-product expansion",
        _family_problems("composition-expansion", 15660),
    )


# -------------------------------------------------------------------------
# 5. operator laws on the free models                        (< 5 min)

def test_criterion_5_operator_laws():
    problems = []
    for name, cases in (
        ("convolution-concatenation", 2048),
        ("projection-convolution", 560),
        ("reduction-invariance", 11202),
        ("degree-projection", 144),
        ("tensor-square-expansion", 256),
        ("cocommutative-collapse", 112),
    ):
        problems += _family_problems(name, cases)
    _report(5, "operator laws on the free models", problems)


# -------------------------------------------------------------------------
# 6. permutation lemmas and tensor-calculus lemmas           (< 5 min)

def test_criterion_6_lemma_layer():
    problems = []
    for name, cases in (
        ("shuffle-factorization", 1089),
        ("wreath-associativity", 9801),
        ("iterated-product-merge", 32),
        ("iterated-coproduct-merge", 96),
        ("product-coproduct-exchange", 32),
        ("projection-product-split", 240),
        ("projection-coproduct-split", 240),
        ("projection-permutation-twist", 290),
        ("projection-orthogonality", 234),
    ):
        problems += _family_problems(name, cases)
    _report(6, "lemma layer", problems)


# -------------------------------------------------------------------------
# 7. Hopf/bialgebra axiom suite                              (< 10 min)

def _associativity_problems():
    problems = []
    keys3 = _keys_up_to(3)
    for (a, b, c) in itertools.product(keys3, repeat=3):
        if sum(a[0]) != sum(b[0]) or sum(b[0]) != sum(c[0]):
            continue
        f, g, h = F(*a), F(*b), F(*c)
        left = core.internal_mul(core.internal_mul(f, g), h)
        right = core.internal_mul(f, core.internal_mul(g, h))
        if left != right:
            problems.append(f"internal associativity at {(a, b, c)}")
    keys4 = _keys_up_to(4)
    for (a, b, c) in itertools.product(keys4, repeat=3):
        if sum(a[0]) + sum(b[0]) + sum(c[0]) > 4:
            continue
        f, g, h = F(*a), F(*b), F(*c)
        left = core.external_mul(core.external_mul(f, g), h)
        right = core.external_mul(f, core.external_mul(g, h))
        if left != right:
            problems.append(f"external associativity at {(a, b, c)}")
    for f, g, h in zip(
        _mixtures("assoc-f", 8, 4), _mixtures("assoc-g", 8, 4), _mixtures("assoc-h", 8, 4)
    ):
        if core.external_mul(core.external_mul(f, g), h) != core.external_mul(
            f, core.external_mul(g, h)
        ):
            problems.append("external associativity on a mixture")
        if core.internal_mul(core.internal_mul(f, g), h) != core.internal_mul(
            f, core.internal_mul(g, h)
        ):
            problems.append("internal associativity on a mixture")
    return problems


def _coalgebra_problems():
    problems = []
    targets = [F(*key) for key in _keys_up_to(4)] + _mixtures("coalg", 6, 4)
    for f in targets:
        t = core.coproduct(f)
        swapped = core.PnsymTensor({(k2, k1): c for (k1, k2), c in t.terms.items()})
        if swapped != t:
            problems.append(f"cocommutativity fails on {core.format_element(f)}")
        left = {}
        right = {}
        for (k1, k2), c in t.terms.items():
            for (k11, k12), d in core.coproduct(F(*k1)).terms.items():
                key = (k11, k12, k2)
                left[key] = left.get(key, Fraction(0)) + c * d
            for (k21, k22), d in core.coproduct(F(*k2)).terms.items():
                key = (k1, k21, k22)
                right[key] = right.get(key, Fraction(0)) + c * d
        if {k: c for k, c in left.items() if c} != {
            k: c for k, c in right.items() if c
        }:
            problems.append(f"coassociativity fails on {core.format_element(f)}")
    return problems


def _bialgebra_problems():
    problems = []
    keys4 = _keys_up_to(4)
    pairs = [
        (F(*a), F(*b))
        for a, b in itertools.product(keys4, repeat=2)
        if sum(a[0]) + sum(b[0]) <= 4
    ]
    pairs += list(zip(_mixtures("bialg-f", 6, 4), _mixtures("bialg-g", 6, 4)))
    for f, g in pairs:
        if core.coproduct(core.external_mul(f, g)) != tensor_mul(
            core.external_mul, core.coproduct(f), core.coproduct(g)
        ):
            problems.append("coproduct not multiplicative for the external product")
        if core.coproduct(core.internal_mul(f, g)) != tensor_mul(
            core.internal_mul, core.coproduct(f), core.coproduct(g)
        ):
            problems.append("coproduct not multiplicative for the internal product")
    return problems


def _splitting_sides(f, g, h):
    """Both sides of NSym's splitting formula (f.g)*h = sum (f*h1).(g*h2)."""
    left = core.internal_mul(core.external_mul(f, g), h)
    right = ZERO
    for (k1, k2), c in core.coproduct(h).terms.items():
        right = right + c * core.external_mul(
            core.internal_mul(f, F(*k1)), core.internal_mul(g, F(*k2))
        )
    return left, right


def _convolution_after(model, f, g, h, x):
    """(p_f conv p_g) o p_h applied to x, from the model's own structure."""
    out = oracle.FreeElement()
    inner = oracle.evaluate_pnsym(model, h, x)
    for (w, v), c in oracle.delta_power(model, 2, inner).terms.items():
        out = out + c * oracle.element_mul(
            oracle.evaluate_pnsym(model, f, oracle.element(w)),
            oracle.evaluate_pnsym(model, g, oracle.element(v)),
        )
    return out


def _splitting_problems():
    """The splitting formula is NSym's; PNSym keeps it only up to twists.

    After forgetting the twists both sides agree.  In PNSym itself the left
    side is the operator (p_f conv p_g) o p_h and the right side is not, which
    the minimal counterexample pins and the free models confirm: the right
    side is only faithful on a cocommutative model.
    """
    problems = []
    keys3 = _keys_up_to(3)
    triples = [
        (F(*a), F(*b), F(*c))
        for a, b, c in itertools.product(keys3, repeat=3)
        if sum(a[0]) + sum(b[0]) == sum(c[0])
    ]
    triples += list(
        zip(
            _mixtures("split-f", 6, 2),
            _mixtures("split-g", 6, 2),
            _mixtures("split-h", 6, 4),
        )
    )
    for f, g, h in triples:
        left, right = _splitting_sides(f, g, h)
        if to_nsym(left) != to_nsym(right):
            problems.append(
                "splitting fails after forgetting twists: f=%s, g=%s, h=%s;"
                " (f.g)*h = %s but sum (f*h1).(g*h2) = %s"
                % tuple(core.format_element(e) for e in (f, g, h, left, right))
            )

    f = g = F((1,), (1,))
    h = F((1, 1), (1, 2))
    left, right = _splitting_sides(f, g, h)
    if left != F((1, 1), (1, 2)) + F((1, 1), (2, 1)):
        problems.append(f"splitting counterexample: left side {core.format_element(left)}")
    if right != 2 * F((1, 1), (1, 2)):
        problems.append(f"splitting counterexample: right side {core.format_element(right)}")
    for model, right_faithful in (
        (oracle.TriangularModel(3), False),
        (oracle.PrimitiveTensorModel(2), True),
    ):
        gens = [oracle.element((letter,)) for letter in model.generators()]
        inputs = gens + [
            oracle.element_mul(x, y) for x, y in itertools.product(gens, repeat=2)
        ]
        expected = [_convolution_after(model, f, g, h, x) for x in inputs]
        name = type(model).__name__
        if [oracle.evaluate_pnsym(model, left, x) for x in inputs] != expected:
            problems.append(f"splitting counterexample: left side is not (f.g)*h on {name}")
        right_agrees = [oracle.evaluate_pnsym(model, right, x) for x in inputs] == expected
        if right_agrees != right_faithful:
            verdict = "agrees" if right_agrees else "disagrees"
            problems.append(f"splitting counterexample: right side {verdict} with (f.g)*h on {name}")
    return problems


def _antipode_problems():
    problems = []
    identity = lambda x: x
    targets = [F(*key) for key in _keys_up_to(5)] + _mixtures("antipode", 6, 4)
    for f in targets:
        expected = core.counit(f) * UNIT
        if convolve_maps(core.antipode, identity, f) != expected:
            problems.append("S * id != unit-counit")
        if convolve_maps(identity, core.antipode, f) != expected:
            problems.append("id * S != unit-counit")
    return problems


def test_criterion_7_hopf_axiom_suite():
    problems = (
        _associativity_problems()
        + _coalgebra_problems()
        + _bialgebra_problems()
        + _splitting_problems()
        + _antipode_problems()
    )
    _report(7, "Hopf/bialgebra axiom suite", problems)


# -------------------------------------------------------------------------
# 8. bridge to the untwisted algebra                         (< 1 min)

def test_criterion_8_bridge_suite():
    problems = []
    for f, g in zip(_mixtures("bridge-f", 8, 4), _mixtures("bridge-g", 8, 4)):
        f_n, g_n = to_nsym(f), to_nsym(g)
        if to_nsym(core.external_mul(f, g)) != nsym_external_mul(f_n, g_n):
            problems.append("forgetting does not respect the external product")
        if to_nsym(core.internal_mul(f, g)) != nsym_internal_mul(f_n, g_n):
            problems.append("forgetting does not respect the internal product")
        if tensor_to_nsym(core.coproduct(f)) != nsym_coproduct(f_n):
            problems.append("forgetting does not respect the coproduct")
        if to_nsym(from_nsym(f_n)) != f_n:
            problems.append("section property fails")
    h11 = nsym_basis((1, 1))
    if nsym_internal_mul(h11, h11) != 2 * h11:
        problems.append("untwisted internal product cross-check fails")
    _report(8, "bridge suite", problems)


# -------------------------------------------------------------------------
# 9. linear-independence witness                             (< 1 min)

def test_criterion_9_distinct_images():
    result = verify.run_family("distinct-images", model_size=5, max_size=4)
    problems = []
    if result.cases != 64:
        problems.append(f"expected 64 cases, ran {result.cases}")
    if result.failures:
        problems.append(f"{result.failures} failures, e.g. {result.examples}")
    _report(9, "pairwise distinct operator images", problems)
