"""Brute-force verification driver.

Every structural identity the library relies on is re-checked here against
the free models in :mod:`pnsym.oracle`, from first principles and in exact
arithmetic.  Each *family* enumerates a deterministic set of cases (no
randomness, so reports are byte-identical between runs) and reports how many
cases were run and how many failed.  A family yields one ``(ok, label)`` pair
per case; ``label`` is a zero-argument callable, so only the failures kept as
examples are ever formatted.  A family computes the operands its cases share
once per run: an operator's values are kept through :func:`_remembered`,
each prefix fold of ``projection-convolution`` is built once,
``composition-expansion`` computes the internal product of each pair of
reduced keys, and its images of the generators, once, and every memo is a
local of the run, so nothing it computes outlives the run.

The driver is what ``pnsym verify`` runs.  Families can also be run one at a
time through :func:`run_family`, which the test suite uses to push individual
families beyond the default bounds.
"""

import functools
import itertools
from collections import namedtuple
from fractions import Fraction

from . import combinatorics as comb
from . import core
from . import oracle
from .oracle import FreeTensor, _summed, element


class FamilyResult(
    namedtuple("FamilyResult", "name cases failures examples", defaults=((),))
):
    @property
    def ok(self):
        return self.failures == 0


# ---------------------------------------------------------------------------
# deterministic case material


def _mopiscotions_up_to(n):
    out = []
    for s in range(n + 1):
        out.extend(comb.mopiscotions(s))
    return out


def _weak_pairs_up_to(size_max, length_max, max_zeros=None):
    """All weak mopiscotions (alpha, sigma) with |alpha| <= size_max."""
    out = []
    for s in range(size_max + 1):
        for length in range(length_max + 1):
            for alpha in comb.weak_compositions(s, length):
                if max_zeros is not None and alpha.count(0) > max_zeros:
                    continue
                for sigma in itertools.permutations(range(1, length + 1)):
                    out.append((alpha, sigma))
    return out


def _generator_elements(model):
    """The generators of a triangular model, labelled by their index pairs."""
    return [(comb.format_composition(g), model.gen(*g)) for g in model.generators()]


def _probe_elements(model):
    """Generators plus a couple of fixed composite probes."""
    probes = _generator_elements(model)
    gens = model.generators()
    if len(gens) >= 2:
        w = (gens[0], gens[1])
        probes.append((oracle.format_word(w), element(w)))
        mixed = Fraction(1, 2) * element((gens[0],)) + element(w) - 2 * element((gens[1],))
        probes.append(("mixed", mixed))
    return probes


def _leg_pool(model):
    """Words used to assemble probe tensors, unit leg included."""
    gens = model.generators()
    pool = [()] + [(g,) for g in gens[:4]]
    if len(gens) >= 2:
        pool.append((gens[0], gens[1]))
    return tuple(pool)


def _probe_tensors(model, arity):
    if arity == 0:
        return [FreeTensor(0, {(): 1}), FreeTensor(0, {(): Fraction(3, 2)})]
    pool = _leg_pool(model)
    key1 = tuple(pool[r % len(pool)] for r in range(arity))
    key2 = tuple(pool[(r + 2) % len(pool)] for r in range(arity))
    mixed = _summed([(key1, Fraction(1, 2)), (key2, 2)])
    return [FreeTensor(arity, {key1: 1}), FreeTensor(arity, mixed)]


def _legwise_delta(model, t, k):
    """Apply the k-fold coproduct to every leg, flattening block-wise."""
    pairs = []
    for legs, c in t.terms.items():
        partial = [((), c)]
        for w in legs:
            dw = oracle.delta_power(model, k, element(w))
            partial = [
                (acc + key, cc * d)
                for acc, cc in partial
                for key, d in dw.terms.items()
            ]
        pairs.extend(partial)
    return FreeTensor(t.arity * k, _summed(pairs))


def _block_merge(t, k, length):
    """Concatenate consecutive blocks of ``length`` legs: arity k*length -> k."""
    if t.arity != k * length:
        raise ValueError("arity mismatch")

    def merged(legs):
        return tuple(
            tuple(itertools.chain.from_iterable(legs[b * length:(b + 1) * length]))
            for b in range(k)
        )

    return FreeTensor(k, _summed((merged(legs), c) for legs, c in t.terms.items()))


def _tensor_sum(arity, tensors):
    """The sum of arity-``arity`` tensors, in one pass."""
    return FreeTensor(arity, _summed(pair for t in tensors for pair in t.terms.items()))


def _case_label(*parts):
    return " ".join(str(p) for p in parts)


# ---------------------------------------------------------------------------
# operator families (triangular model unless stated otherwise)


def _fam_composition_expansion(model_size, max_size):
    """Composite of two operators equals the internal-product expansion."""
    model = oracle.TriangularModel(model_size)
    gens = _generator_elements(model)
    strict = _mopiscotions_up_to(max_size)
    # weak keys go through from_weak_term (reduction on ingest)
    weak = _weak_pairs_up_to(max(max_size - 1, 0), max_size)
    # per pair of reduced keys: the generators' images under the operator of
    # their internal product, the right side of every case the pair names
    expansions = {}

    def expansion_images(f, g):
        pair = (*f.terms, *g.terms)
        images = expansions.get(pair)
        if images is None:
            expansion = core.internal_mul(f, g)
            images = expansions[pair] = [oracle.evaluate_pnsym(model, expansion, x) for _, x in gens]
        return images

    for keys in (strict, weak):
        # per key: its operator, its element, and its images of the
        # generators, the inner operand of every case where it acts second
        operators = {key: _remembered(functools.partial(oracle.apply_pas, model, *key)) for key in keys}
        operands = [
            (key, core.from_weak_term(1, key), [operators[key](x) for _, x in gens])
            for key in keys
        ]
        for ((a, s), f, _), ((b, t), g, inner) in itertools.product(operands, operands):
            if sum(a) != sum(b):
                continue
            outer = operators[a, s]
            for (gname, _), y, rhs in zip(gens, inner, expansion_images(f, g)):
                yield outer(y) == rhs, lambda: _case_label(
                    comb.format_pair(a, s), comb.format_pair(b, t), gname
                )


def _fam_convolution_concatenation(model_size, max_size):
    """Convolution of two operators is the operator of the concatenated key."""
    model = oracle.TriangularModel(model_size)
    probes = _probe_elements(model)
    keys = _mopiscotions_up_to(max_size)
    operators = {key: _remembered(functools.partial(oracle.apply_pas, model, *key)) for key in keys}
    for (a, s), (b, t) in itertools.product(keys, keys):
        glued_alpha = comb.concat(a, b)
        glued_sigma = comb.direct_sum(s, t)
        for pname, x in probes:
            lhs = oracle.convolve(model, operators[a, s], operators[b, t], x)
            rhs = oracle.apply_pas(model, glued_alpha, glued_sigma, x)
            yield lhs == rhs, lambda: _case_label(
                comb.format_pair(a, s), comb.format_pair(b, t), pname
            )


def _remembered(op):
    """The operator ``op`` on free elements, keeping each value it returns
    for as long as the returned function lives."""
    values = {}

    def operator(e):
        key = tuple(e.terms.items())
        value = values.get(key)
        if value is None:
            value = values[key] = op(e)
        return value

    return operator


def _fam_projection_convolution(model_size, max_size):
    """Identity-twist operators agree with convolutions of plain projections,
    folded from the Sweedler side with nothing of ``apply_pas``."""
    model = oracle.TriangularModel(model_size)
    probes = _probe_elements(model)
    folds = {(): oracle.unit_counit}  # alpha -> p_alpha_1 * ... * p_alpha_k
    for s in range(max_size + 1):
        for length in range(max_size + 2):
            for alpha in comb.weak_compositions(s, length):
                if alpha:  # alpha[:-1] came earlier: a smaller size or one part fewer
                    last = _remembered(functools.partial(oracle.degree_part, n=alpha[-1]))
                    folds[alpha] = last if len(alpha) == 1 else _remembered(
                        functools.partial(oracle.convolve, model, folds[alpha[:-1]], last)
                    )
                sigma = comb.identity(length)
                for pname, x in probes:
                    lhs = oracle.apply_pas(model, alpha, sigma, x)
                    rhs = folds[alpha](x)
                    yield lhs == rhs, lambda: _case_label(comb.format_composition(alpha), pname)


def _fam_reduction_invariance(model_size, max_size):
    """A weak key and its reduction give the same operator."""
    model = oracle.TriangularModel(model_size)
    gens = _generator_elements(model)
    # a reduced key's images of the generators
    images = functools.cache(lambda key: [oracle.apply_pas(model, *key, x) for _, x in gens])
    for alpha, sigma in _weak_pairs_up_to(max_size, max_size + 2, max_zeros=2):
        for (gname, x), rhs in zip(gens, images(comb.reduce_pair(alpha, sigma))):
            lhs = oracle.apply_pas(model, alpha, sigma, x)
            yield lhs == rhs, lambda: _case_label(comb.format_pair(alpha, sigma), gname)


def _fam_degree_projection(model_size, max_size):
    """Operators kill degrees other than their size and preserve their size."""
    model = oracle.TriangularModel(model_size)
    homogeneous = list(_generator_elements(model))
    homogeneous.append(("x(1,2)x(2,3)", element(((1, 2), (2, 3)))))
    if model_size >= 4:
        homogeneous.append(("x(1,2)x(3,4)", element(((1, 2), (3, 4)))))
        homogeneous.append(("x(1,2)x(2,3)x(3,4)", element(((1, 2), (2, 3), (3, 4)))))
    for alpha, sigma in _mopiscotions_up_to(max_size):
        n = sum(alpha)
        for hname, x in homogeneous:
            degree = oracle.word_degree(next(iter(x.terms)))
            image = oracle.apply_pas(model, alpha, sigma, x)
            if degree != n:
                ok = not image
            else:
                ok = all(oracle.word_degree(w) == n for w in image.terms)
            yield ok, lambda: _case_label(comb.format_pair(alpha, sigma), hname)


def _fam_cocommutative_collapse(model_size, max_size):
    """On a cocommutative model the permutation twist is invisible."""
    model = oracle.PrimitiveTensorModel(2)
    words = []
    for length in range(1, max_size + 1):
        words.extend(itertools.product(model.generators(), repeat=length))
    for alpha, sigma in _mopiscotions_up_to(max_size):
        ident = comb.identity(len(sigma))
        if sigma == ident:
            continue
        for w in words:
            lhs = oracle.apply_pas(model, alpha, sigma, element(w))
            rhs = oracle.apply_pas(model, alpha, ident, element(w))
            yield lhs == rhs, lambda: _case_label(
                comb.format_pair(alpha, sigma), oracle.format_word(w)
            )


def _fam_tensor_square_expansion(model_size, max_size):
    """Operators on a tensor square split over entrywise summands."""
    model = oracle.TriangularModel(model_size)
    legs = [oracle.one(), element(((1, 2),)), element(((1, 3),)), element(((1, 2), (2, 3)))]
    probes = [
        (f"leg{i}x{j}", oracle.tensor_of_elements(f, g))
        for (i, f), (j, g) in itertools.product(enumerate(legs), repeat=2)
    ]
    for alpha, sigma in _mopiscotions_up_to(max_size):
        for pname, t in probes:
            lhs = oracle.apply_pas_on_tensor_square(model, alpha, sigma, t)
            rhs = _tensor_sum(2, (
                c * oracle.tensor_of_elements(
                    oracle.apply_pas(model, beta, sigma, element(w)),
                    oracle.apply_pas(model, gamma, sigma, element(v)),
                )
                for beta, gamma in comb.entrywise_splittings(alpha)
                for (w, v), c in t.terms.items()
            ))
            yield lhs == rhs, lambda: _case_label(comb.format_pair(alpha, sigma), pname)


def _fam_distinct_images(model_size, max_size):
    """Images of one top-degree generator are pairwise distinct monomials."""
    model = oracle.TriangularModel(model_size)
    for s in range(1, min(max_size, model_size - 1) + 1):
        x = model.gen(1, 1 + s)
        seen = set()
        for alpha, sigma in comb.mopiscotions(s):
            image = oracle.apply_pas(model, alpha, sigma, x)
            items = list(image.terms.items())
            ok = len(items) == 1 and items[0][1] == 1 and items[0][0] not in seen
            if items:
                seen.add(items[0][0])
            yield ok, lambda: _case_label(comb.format_pair(alpha, sigma), f"x(1,{1 + s})")


# ---------------------------------------------------------------------------
# permutation-level families


def _fam_shuffle_factorization(model_size, max_size):
    """The composed-operator permutation factors through the shuffle."""
    bound = max_size + 1
    for k in range(1, bound + 1):
        for length in range(1, bound + 1):
            zeta_inv = comb.inverse(comb.zolotarev(k, length))
            for sigma in itertools.permutations(range(1, k + 1)):
                blocks = comb.block_power(sigma, length)
                for tau in itertools.permutations(range(1, length + 1)):
                    lhs = comb.compose(
                        comb.interleave_power(tau, k), comb.compose(zeta_inv, blocks)
                    )
                    rhs = comb.wreath_substitute(tau, sigma)
                    yield lhs == rhs, lambda: _case_label(k, length, sigma, tau)


def _fam_wreath_associativity(model_size, max_size):
    """Substitution of permutations is associative."""
    bound = max_size + 1
    substituted = functools.cache(comb.wreath_substitute)  # for (ups, tau), every sigma
    for k in range(1, bound + 1):
        for length in range(1, bound + 1):
            for m in range(1, max_size + 1):
                for sigma in itertools.permutations(range(1, k + 1)):
                    for tau in itertools.permutations(range(1, length + 1)):
                        inner = comb.wreath_substitute(tau, sigma)
                        for ups in itertools.permutations(range(1, m + 1)):
                            lhs = comb.wreath_substitute(ups, inner)
                            rhs = comb.wreath_substitute(substituted(ups, tau), sigma)
                            yield lhs == rhs, lambda: _case_label(k, length, m, sigma, tau, ups)


# ---------------------------------------------------------------------------
# iterated-structure families (maps in and out of tensor powers)


def _iter_kl(max_size):
    top = min(max_size, 3)
    for k in range(top + 1):
        for length in range(top + 1):
            yield k, length


def _fam_iterated_product_merge(model_size, max_size):
    """Multiplying block-wise then across blocks is one big multiplication."""
    model = oracle.TriangularModel(model_size)
    for k, length in _iter_kl(max_size):
        for i, t in enumerate(_probe_tensors(model, k * length)):
            lhs = oracle.m_power(_block_merge(t, k, length))
            rhs = oracle.m_power(t)
            yield lhs == rhs, lambda: _case_label(k, length, f"t{i}")


def _fam_iterated_coproduct_merge(model_size, max_size):
    """Splitting every leg again is one big splitting."""
    model = oracle.TriangularModel(model_size)
    for k, length in _iter_kl(max_size):
        for pname, x in _generator_elements(model):
            lhs = _legwise_delta(model, oracle.delta_power(model, length, x), k)
            rhs = oracle.delta_power(model, k * length, x)
            yield lhs == rhs, lambda: _case_label(k, length, pname)


def _fam_product_coproduct_exchange(model_size, max_size):
    """Coproduct of a product re-sorts through the shuffle permutation."""
    model = oracle.TriangularModel(model_size)
    for k, length in _iter_kl(max_size):
        zeta = comb.zolotarev(k, length)
        for i, t in enumerate(_probe_tensors(model, length)):
            lhs = oracle.delta_power(model, k, oracle.m_power(t))
            spread = _legwise_delta(model, t, k)
            rhs = _block_merge(oracle.permute_tensor(spread, zeta), k, length)
            yield lhs == rhs, lambda: _case_label(k, length, f"t{i}")


def _projection_splits(max_size):
    """``(k, length, gamma, flats)``: each flat splits every part of the
    k-part degree vector ``gamma`` into ``length`` parts, read row-major."""
    for k, length in _iter_kl(max_size):
        if k * length > 6:
            continue
        for d in range(max_size + 1):
            for gamma in comb.weak_compositions(d, k):
                rows = itertools.product(*(comb.weak_compositions(g, length) for g in gamma))
                yield k, length, gamma, [tuple(itertools.chain.from_iterable(r)) for r in rows]


def _fam_projection_product_split(model_size, max_size):
    """Projecting a block product sums over per-block degree splits."""
    model = oracle.TriangularModel(model_size)
    for k, length, gamma, flats in _projection_splits(max_size):
        for i, t in enumerate(_probe_tensors(model, k * length)):
            lhs = oracle.project_multi(_block_merge(t, k, length), gamma)
            rhs = _tensor_sum(k, (
                _block_merge(oracle.project_multi(t, flat), k, length) for flat in flats
            ))
            yield lhs == rhs, lambda: _case_label(
                k, length, comb.format_composition(gamma), f"t{i}"
            )


def _fam_projection_coproduct_split(model_size, max_size):
    """Projecting before splitting sums over per-leg degree splits."""
    model = oracle.TriangularModel(model_size)
    for k, length, gamma, flats in _projection_splits(max_size):
        for i, t in enumerate(_probe_tensors(model, k)):
            lhs = _legwise_delta(model, oracle.project_multi(t, gamma), length)
            spread = _legwise_delta(model, t, length)
            rhs = _tensor_sum(k * length, (oracle.project_multi(spread, flat) for flat in flats))
            yield lhs == rhs, lambda: _case_label(
                k, length, comb.format_composition(gamma), f"t{i}"
            )


def _fam_projection_permutation_twist(model_size, max_size):
    """Projection after permuting equals permuting a re-indexed projection."""
    model = oracle.TriangularModel(model_size)
    for k in range(min(max_size, 3) + 1):
        for pi in itertools.permutations(range(1, k + 1)):
            for d in range(max_size + 1):
                for gamma in comb.weak_compositions(d, k):
                    for i, t in enumerate(_probe_tensors(model, k)):
                        lhs = oracle.project_multi(oracle.permute_tensor(t, pi), gamma)
                        rhs = oracle.permute_tensor(
                            oracle.project_multi(t, comb.act_right(gamma, pi)), pi
                        )
                        yield lhs == rhs, lambda: _case_label(
                            k, pi, comb.format_composition(gamma), f"t{i}"
                        )


def _fam_projection_orthogonality(model_size, max_size):
    """Distinct projections annihilate each other; equal ones are idempotent."""
    model = oracle.TriangularModel(model_size)
    for k in range(min(max_size, 2) + 1):
        pool = [
            gamma
            for d in range(max_size + 1)
            for gamma in comb.weak_compositions(d, k)
        ]
        for alpha, beta in itertools.product(pool, repeat=2):
            for i, t in enumerate(_probe_tensors(model, k)):
                lhs = oracle.project_multi(oracle.project_multi(t, beta), alpha)
                rhs = oracle.project_multi(t, alpha) if alpha == beta else FreeTensor(k)
                yield lhs == rhs, lambda: _case_label(
                    comb.format_composition(alpha), comb.format_composition(beta), f"t{i}"
                )


FAMILIES = {
    "composition-expansion": _fam_composition_expansion,
    "convolution-concatenation": _fam_convolution_concatenation,
    "projection-convolution": _fam_projection_convolution,
    "reduction-invariance": _fam_reduction_invariance,
    "degree-projection": _fam_degree_projection,
    "cocommutative-collapse": _fam_cocommutative_collapse,
    "tensor-square-expansion": _fam_tensor_square_expansion,
    "distinct-images": _fam_distinct_images,
    "shuffle-factorization": _fam_shuffle_factorization,
    "wreath-associativity": _fam_wreath_associativity,
    "iterated-product-merge": _fam_iterated_product_merge,
    "iterated-coproduct-merge": _fam_iterated_coproduct_merge,
    "product-coproduct-exchange": _fam_product_coproduct_exchange,
    "projection-product-split": _fam_projection_product_split,
    "projection-coproduct-split": _fam_projection_coproduct_split,
    "projection-permutation-twist": _fam_projection_permutation_twist,
    "projection-orthogonality": _fam_projection_orthogonality,
}


def run_family(name, model_size=4, max_size=3):
    """Run one family.  ``model_size`` is the triangular-model size n;
    ``max_size`` bounds the composition sizes the operator families sweep,
    and the permutation-level families derive their degree bounds from it,
    so the defaults (4, 3) exercise wreath degrees up to 4."""
    cases = 0
    failures = 0
    examples = []
    for ok, label in FAMILIES[name](model_size, max_size):
        cases += 1
        if not ok:
            failures += 1
            if len(examples) < 3:
                # before the family moves on, so the label reads this case
                examples.append(label())
    return FamilyResult(name, cases, failures, tuple(examples))


def run_all(model_size=4, max_size=3, names=None):
    """Run the named families (all by default), in order."""
    if names is None:
        names = list(FAMILIES)
    return [run_family(n, model_size, max_size) for n in names]


def format_report(results):
    lines = [f"{r.name}: {r.cases} cases, {r.failures} failures" for r in results]
    total_c = sum(r.cases for r in results)
    total_f = sum(r.failures for r in results)
    lines.append(f"total: {total_c} cases, {total_f} failures")
    return "\n".join(lines)
