"""Output checks and failure accounting for one request.

A request fails when a call raises, a row has alarms, a verdict reads
False or "fail", or a computed fact differs from its reference.  Every
fact checked here is an isomorphism invariant (the polytope, its Ehrhart
data and the complex depend only on the comparability graph and the
isomorphism class), so references are keyed by isomorphism class and
apply to every labelling and every seed.  A fact with no reference, for
example a Buchberger basis size once its guard is raised past n = 4, is
not a mismatch.
"""

from fractions import Fraction

# Reported exactly as computed: the relation fails on some posets by
# design (the one-element poset among them), so False is a result.
MEASURED_VERDICTS = {"enriched_relation.holds"}


def verdicts(payload, prefix=""):
    """(path, value) for every identity verdict in an output: each leaf
    that is a bool or the string "pass" or "fail".  A skipped check has a
    string like "skipped" or None and produces no verdict."""
    if isinstance(payload, dict):
        for key in sorted(payload):
            if prefix == "" and key == "poset":
                continue
            yield from verdicts(payload[key], f"{prefix}{key}.")
    elif isinstance(payload, bool) or payload in ("pass", "fail"):
        yield prefix[:-1], payload


def _trim(values):
    out = [str(Fraction(v)) for v in values]
    while out and out[-1] == "0":
        out.pop()
    return out


def _ehrhart_facts(payload):
    gamma = _trim(payload["gamma"])
    return {
        "L": _trim(payload["L"]),
        "hstar": _trim(payload["hstar"]),
        "gamma": gamma,
        "volume": payload["volume"],
        "W_left": [str(Fraction(g) / 4**i) for i, g in enumerate(map(Fraction, gamma))],
    }


def battery_facts(row):
    """Facts of one `verify_poset` row."""
    facts = _ehrhart_facts(row["ehrhart"]) if "ehrhart" in row else {}
    if isinstance(row.get("complex"), dict) and "f_vector" in row["complex"]:
        facts["f_vector"] = _trim(row["complex"]["f_vector"])
    if "basis_size" in row.get("groebner", {}):
        facts["basis_size"] = row["groebner"]["basis_size"]
    if isinstance(row.get("triangulation"), dict) and "simplices" in row["triangulation"]:
        facts["simplices"] = row["triangulation"]["simplices"]
    return facts


def facts6_facts(ehrhart, complex_):
    """Facts of one `cmd_ehrhart` payload and one `cmd_complex` payload."""
    facts = _ehrhart_facts(ehrhart)
    facts["f_vector"] = _trim(complex_["f"])
    return facts


def check_outputs(workload, outputs):
    """(facts, verdict count, problems) for the parsed outputs of one
    request.  Problems found here need no reference."""
    problems = []
    if workload == "facts6":
        ehrhart, complex_ = outputs
        facts = facts6_facts(ehrhart, complex_)
        found = list(verdicts(complex_))
    else:
        (row,) = outputs
        facts = battery_facts(row)
        found = list(verdicts(row))
        problems.extend(f"alarm: {alarm}" for alarm in row["alarms"])
    for path, value in found:
        if value in (False, "fail") and path not in MEASURED_VERDICTS:
            problems.append(f"verdict {path} = {value!r}")
    if "volume" in facts and facts["volume"] != sum(int(h) for h in facts["hstar"]):
        problems.append("volume != h*(1)")
    if "f_vector" in facts and facts["f_vector"] != facts.get("gamma"):
        problems.append("f-polynomial != gamma polynomial")
    if any(Fraction(w).denominator != 1 for w in facts.get("W_left", ())):
        problems.append("gamma_i is not divisible by 4^i")
    return facts, len(found), problems


def reference_problems(facts, reference):
    """Mismatches between computed facts and the reference, fact by fact;
    a fact missing on either side is not compared."""
    return [
        f"{name}: {facts[name]!r} != reference {reference[name]!r}"
        for name in sorted(facts.keys() & reference.keys())
        if facts[name] != reference[name]
    ]
