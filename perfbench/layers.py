"""Which pnsym functions the traced run wraps, and the per-layer metrics.

Counts are exact and repeat between runs; ``*_s`` values are self times in
seconds (span duration minus child spans), except where a metric says it is
inclusive.  ``tracer.counts`` holds the counters the ``observe`` hooks record
at the same boundaries as the spans.
"""

VERIFY_FAMILIES = (
    "composition-expansion",
    "reduction-invariance",
    "convolution-concatenation",
)


def install(tracer):
    """Wrap every traced function; returns the per-run notes the hooks fill."""
    from pnsym import checker, cli, combinatorics, core, oracle, verify

    notes = {
        "shapes": set(),          # distinct (alpha, beta) table shapes
        "antipode_seen": set(),   # antipode input keys seen so far
        "k_spans": {},            # (i, j) -> k_value span index
        "powers": {},             # k_value span index -> support sizes
        "family_s": {},           # verify family -> inclusive seconds
    }
    add = tracer.add

    def tables(args, items, idx):
        add("contingency_tables.tables", items)
        notes["shapes"].add((tuple(args[0]), tuple(args[1])))

    def internal_mul(args, result, idx):
        f, g = args
        add("internal_mul.key_pairs", len(f.terms) * len(g.terms))
        add("internal_mul.terms_out", len(result.terms))
        parent = tracer.span_parent[idx]
        if parent >= 0 and tracer.names[tracer.span_name[parent]] == "checker.k_value":
            sizes = notes["powers"].setdefault(parent, [len(f.terms)])
            sizes.append(len(result.terms))

    def antipode(args, result, idx):
        seen = notes["antipode_seen"]
        for key in args[0].terms:
            add("antipode.input_keys")
            if key in seen:
                add("antipode.input_keys_seen")
            seen.add(key)

    def delta_power(args, result, idx):
        add("delta_power.terms_out", len(result.terms))

    def k_value(args, result, idx):
        notes["k_spans"][(args[0], args[1])] = idx

    def run_family(args, result, idx):
        name = args[0] if args[0] in VERIFY_FAMILIES else "other"
        notes["family_s"][name] = notes["family_s"].get(name, 0.0) + tracer.span_dur[idx]
        add("verify.cases", result.cases)

    wrap = tracer.wrap
    wrap(combinatorics, "contingency_tables", "combinatorics.contingency_tables",
         tables, generator=True)
    wrap(combinatorics, "reduce_pair", "combinatorics.reduce_pair")
    wrap(combinatorics, "wreath_substitute", "combinatorics.wreath_substitute")
    wrap(combinatorics, "entrywise_splittings", "combinatorics.entrywise_splittings",
         generator=True)
    wrap(core, "internal_mul", "core.internal_mul", internal_mul)
    wrap(core, "antipode", "core.antipode", antipode)
    wrap(core, "coproduct", "core.coproduct")
    wrap(core, "external_mul", "core.external_mul")
    wrap(oracle, "apply_pas", "oracle.apply_pas")
    wrap(oracle, "delta_power", "oracle.delta_power", delta_power)
    wrap(oracle, "evaluate_pnsym", "oracle.evaluate_pnsym")
    wrap(oracle, "project_multi", "oracle.project_multi")
    wrap(oracle, "permute_tensor", "oracle.permute_tensor")
    wrap(oracle, "m_power", "oracle.m_power")
    wrap(checker, "k_value", "checker.k_value", k_value)
    wrap(checker, "check_zero_on_degree", "checker.check_zero_on_degree")
    wrap(checker, "parse", "checker.parse")
    wrap(verify, "run_family", "verify.run_family", run_family)
    wrap(cli, "main", "cli.main")
    return notes


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(tracer, notes):
    """Per-layer metrics of a traced run, and the k(1,5) support sizes."""
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    def span_s(key):
        idx = notes["k_spans"].get(key)
        return tracer.span_dur[idx] if idx is not None else 0.0

    ct = "combinatorics.contingency_tables"
    tables = counts.get("contingency_tables.tables", 0)
    out = {
        f"{ct}.calls": calls(ct),
        f"{ct}.tables": tables,
        f"{ct}.self_s": self_s(ct),
        f"{ct}.shape_reuse": 1.0 - _ratio(len(notes["shapes"]), calls(ct)) if calls(ct) else 0.0,
    }
    for name in ("combinatorics.reduce_pair", "combinatorics.entrywise_splittings"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["combinatorics.wreath_substitute.calls"] = calls("combinatorics.wreath_substitute")

    im = "core.internal_mul"
    terms_out = counts.get("internal_mul.terms_out", 0)
    out.update({
        f"{im}.calls": calls(im),
        f"{im}.key_pairs": counts.get("internal_mul.key_pairs", 0),
        f"{im}.terms_out": terms_out,
        f"{im}.self_s": self_s(im),
        f"{im}.useful_ratio": _ratio(terms_out, tables),
        "core.antipode.input_reuse": _ratio(
            counts.get("antipode.input_keys_seen", 0), counts.get("antipode.input_keys", 0)
        ),
    })
    for name in ("core.antipode", "core.coproduct", "core.external_mul",
                 "oracle.apply_pas", "oracle.delta_power", "oracle.evaluate_pnsym"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["oracle.delta_power.terms_out"] = counts.get("delta_power.terms_out", 0)
    for name in ("oracle.project_multi", "oracle.permute_tensor", "oracle.m_power"):
        out[f"{name}.self_s"] = self_s(name)

    k15 = notes["k_spans"].get((1, 5))
    support = notes["powers"].get(k15, []) if k15 is not None else []
    out.update({
        "checker.k_value.calls": calls("checker.k_value"),
        "checker.k_value.self_s": self_s("checker.k_value"),
        "checker.k_value.k1_5_s": span_s((1, 5)),
        "checker.k_value.k2_4_s": span_s((2, 4)),
        "checker.k_value.k1_5_support_terms": sum(support),
        "checker.check_zero_on_degree.calls": calls("checker.check_zero_on_degree"),
        "checker.check_zero_on_degree.self_s": self_s("checker.check_zero_on_degree"),
        "checker.parse.self_s": self_s("checker.parse"),
    })
    for family in VERIFY_FAMILIES + ("other",):
        out[f"verify.{family}.s"] = notes["family_s"].get(family, 0.0)
    out["verify.cases"] = counts.get("verify.cases", 0)
    out["cli.main.self_s"] = self_s("cli.main")
    return out, support
