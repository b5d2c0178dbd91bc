"""Cross-module identity verification, one poset at a time.

Each row of a verification report records, for one poset, the verdict of
every identity the library asserts, one check per record of CHECKS: its
key, alarm label, failed value, n cap and run function.  The
halved-difference relation between the two order polynomials is reported
as measured, never assumed.

Rows are plain dicts with JSON-friendly values and a deterministic layout.
"""

from copy import copy
from itertools import islice, permutations
from math import factorial

from . import gamma_complex, geometry, partitions, posets, toric
from .errors import IdentityAlarm, SizeLimit

RELABELING_LIMIT = 12
# verify_poset refuses larger bounds.  On a 2-core host, max_m = 16 costs
# the 256-chain's counts check 0.4 s, and the row of two interleaved
# 128-chains 6.4 s against 3.4 s at max_m = 4; truncation = 1024 costs the
# 10-antichain's series check 0.6 s, besides its extension walk.
MAX_M = 16
MAX_TRUNCATION = 1024


def rat_coeffs(poly):
    return [c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}" for c in poly.coeffs]


def int_coeffs(poly):
    return list(poly.coeffs)


def _bijection_failure(poset, max_m):
    """The first failure of the phi/psi bijection between left enriched
    partitions with bound m and the lattice points of m E_P, m = 1..max_m,
    as a message naming m and the offending partition or point; None if
    there is none.

    For each partition f, phi(f) must exist (f keeps the left enriched
    conditions), be a lattice point, keep the signs of f with
    |phi(f)_i| <= |f_i|, and satisfy psi(phi(f)) = f.  That makes phi
    injective with its image inside the lattice points, so the image has
    as many elements as there are lattice points exactly when phi is
    onto.  Then every lattice point is phi(f) for exactly one checked f,
    and psi inverts phi on it: the roundtrip from the points' side needs
    no second pass.  phi and psi come once per poset from
    partitions.roundtrip_maps; the points come from
    geometry.dilation_points (maximal-chain sums), not from psi.

    Only two checks read m (phi(f) is a point of m E_P, psi's top is at
    most m), so a partition met again at a larger m, having passed the
    rest, keeps (phi(f), top) and repeats just those two; the images and
    points are still counted per m, so the first failure is the same."""
    phi, psi = partitions.roundtrip_maps(poset)
    passed = {}
    for m in range(1, max_m + 1):
        points = set(geometry.dilation_points(poset, m))
        images = set()
        for f in partitions.iter_partitions(poset, m, "left"):
            x, top = passed.get(f) or (phi(f), None)
            if x is None:
                return f"at m={m}: f = {f} breaks the left enriched conditions"
            if x not in points:
                return f"at m={m}: phi(f) = {x} is not a lattice point, f = {f}"
            back = f  # psi(phi(f)) = f held when f passed before
            if top is None:
                for a, b in zip(f, x):
                    if (a >= 0) != (b >= 0) or abs(a) < abs(b):
                        return f"at m={m}: phi(f) = {x} breaks the signs or bounds of f = {f}"
                back, top = psi(x)
            if top > m:
                return f"at m={m}: psi rejects phi(f) = {x}, f = {f}"
            if back != f:
                return f"at m={m}: psi(phi(f)) = {back} != f = {f}"
            if m < max_m:  # the last bound meets no partition again
                passed[f] = x, top
            images.add(x)
        if len(images) != len(points):
            missing = min(points - images)
            return f"at m={m}: lattice point {missing} is phi of no partition"
    return None


def _relabelings(n):
    """A deterministic selection of permutations of 1..n (all of them for
    n <= 4, a fixed spread of about RELABELING_LIMIT otherwise)."""
    if n <= 4:
        return list(permutations(range(1, n + 1)))
    everything = permutations(range(1, n + 1))
    return list(islice(everything, 0, None, max(1, factorial(n) // RELABELING_LIMIT)))


def _comparability_failure(poset):
    """Two halves, both exhaustively checkable facts; None if both hold,
    else a message naming the orientation or relabeling, the quantity
    that differed and its two values.

    Reorienting the comparability graph (keeping it identical as a labeled
    graph) leaves the polytope untouched, so the dilation counts must
    agree directly, and the left peak, descent and left order polynomials
    must agree after canonicalization.  The interior-peak polynomial is
    deliberately absent from this half: it is not a reorientation invariant
    (orienting 1<3, 2<3 against 3<1, 3<2 changes it), only a relabeling
    invariant.

    Relabeling (an isomorphism) must preserve everything once both sides
    are canonicalized, interior peaks included.

    A case whose posets were compared already is skipped, as its values
    would be the same: the orientation equal to the input, and each
    relabeling whose natural labeling is the input or one met before.  So
    the first failure, and its message, are those of the full list.
    """
    n = poset.n

    def quantities(counted, canon, with_peak):
        # dilation counts first, as a mismatch there needs nothing else
        yield "dilation counts", [geometry.count_dilation(counted, m) for m in range(1, n + 1)]
        peaks = partitions.peak_polynomials(canon)
        if with_peak:
            yield "peak polynomial", peaks.peak
        yield "left peak polynomial", peaks.left_peak
        yield "descent polynomial", peaks.descent
        yield "left order polynomial", partitions.order_polynomial(canon, "left")

    base = dict(quantities(poset, poset.canonicalized(), True))
    orientations = posets.comparability_orientations(poset)
    cases = [(o, o, o.canonicalized(), False) for o in orientations if o != poset]
    compared = {poset}
    for sigma in _relabelings(n):
        canon = poset.relabeled(sigma).canonicalized()
        if canon not in compared:
            compared.add(canon)
            cases.append((sigma, canon, canon, True))
    for case, counted, canon, with_peak in cases:  # an orientation, or a relabeling's sigma
        for quantity, value in quantities(counted, canon, with_peak):
            if value != base[quantity]:
                name = f"relabeling {case}" if with_peak else f"orientation {sorted(case.pairs)}"
                return f"{name}: {quantity} {value} != {base[quantity]}"
    return None


def kruskal_katona_alarm(f_vector):
    """Alarm text naming the complex f-vector that fails Kruskal-Katona."""
    return f"complex f-vector {list(f_vector)} fails Kruskal-Katona"


def _gamma(poset, alarms, **_):
    data = geometry.hstar_and_gamma(poset)
    ehrhart = {
        "L": rat_coeffs(data.ehrhart),
        "hstar": int_coeffs(data.hstar),
        "gamma": list(data.gamma),
        "volume": data.volume,
    }
    return True, {"ehrhart": ehrhart}


def _volume(poset, alarms, **_):
    return True, {"reflexive": geometry.volume_and_reflexivity(poset).reflexive}


def _counts(poset, alarms, canonical, max_m, guard_points, **_):
    counts = {"max_m": max_m, "pass": True}
    for m in range(1, max_m + 1):
        try:
            left = geometry.count_dilation(poset, m)
            # the frontier DP shares no code with the ideal-chain kernel
            # behind count_dilation, so the two routes are independent
            right = partitions.frontier_count(canonical, m, "left", guard=guard_points)
        except SizeLimit:
            if counts["pass"]:
                raise
            break  # a mismatch below the trip stays a failure
        if left != right:
            counts["pass"] = False
            alarms.append(f"count mismatch at m={m}: {left} != {right}")
    if not counts["pass"]:
        alarms.append("ehrhart_equals_left_order failed")
    return counts, {}


def _series(poset, alarms, canonical, truncation, **_):
    failure = partitions.series_identity_failure(canonical, truncation)
    if failure is not None:
        alarms.append(f"series_identity failed {failure}")
    return {"truncation": truncation, "pass": failure is None}, {}


def _enriched_relation(poset, alarms, canonical, **_):
    relation = partitions.enriched_relation_report(canonical)
    return {
        "left_order": rat_coeffs(relation.left_order),
        "enriched_order": rat_coeffs(relation.enriched_order),
        "halved_difference": rat_coeffs(relation.halved_difference),
        "holds": relation.holds,
    }, {}


def _narrow(poset, alarms, canonical, **_):
    if posets.poset_width(poset) > 2:  # not narrow
        return None, {}
    peaks = partitions.peak_polynomials(canonical)
    if peaks.left_peak != peaks.descent:
        alarms.append(
            "narrow poset descent identity failed: left peak polynomial "
            f"{peaks.left_peak} != descent polynomial {peaks.descent}"
        )
    return peaks.left_peak == peaks.descent, {}


def _bijection(poset, alarms, canonical, max_m, **_):
    max_m = min(3, max_m)
    failure = _bijection_failure(canonical, max_m)
    if failure is not None:
        alarms.append(f"bijection roundtrip failed {failure}")
    return {"max_m": max_m, "pass": failure is None}, {}


def _invariance(poset, alarms, **_):
    failure = _comparability_failure(poset)
    if failure is not None:
        alarms.append(f"comparability invariance failed at {failure}")
    return failure is None, {}


def _hilbert(poset, alarms, **_):
    checks, ok = toric.hilbert_certificate(poset)
    if not ok:
        alarms.append(f"hilbert certificate failed: {list(checks)}")
    return [list(c) for c in checks], {"hilbert_pass": ok}


def _buchberger(poset, alarms, guard_spairs, **_):
    basis_size, agree, verdict = toric.buchberger_outcome(poset, guard_spairs)
    if verdict == "fail":
        alarms.append(
            f"buchberger verification failed: basis size {basis_size}, "
            f"leading terms agree: {agree}"
        )
    variables = len(toric._sign_masks(poset)[0])
    return verdict, {"variables": variables, "basis_size": basis_size, "leading_terms": agree}


def _triangulation(poset, alarms, **_):
    tri = toric.triangulation_extract(poset)
    return {
        "simplices": tri.simplex_count,
        "boundary_f": list(tri.boundary_f_vector),
        "boundary_h": int_coeffs(tri.boundary_h),
        "pass": True,
    }, {}


def _complex(poset, alarms, canonical, **_):
    complex_ = gamma_complex.build_complex(canonical)
    if not complex_.kruskal_katona:
        alarms.append(kruskal_katona_alarm(complex_.f_vector))
    return {
        "f_vector": list(complex_.f_vector),
        "identity": True,
        "kruskal_katona": complex_.kruskal_katona,
    }, {}


# One record per check of a row, in row order: its key path, the label of
# an IdentityAlarm raised inside it, the value it then reads, the largest n
# it runs at (None: no cap) and its run function.  That takes the poset,
# the row's alarm list and, by keyword, the canonical copy and the bounds of
# verify_poset; it adds its own alarms and returns the check's value and a
# dict of the other keys it sets.  It calls the library through module
# attributes, so a patched or traced attribute is the one that runs.
CHECKS = (
    ("gamma_left_peak", "gamma", False, None, _gamma),
    ("volume_extensions", "volume", False, None, _volume),
    ("ehrhart_equals_left_order", "counts", False, None, _counts),
    ("series_identity", "series", False, None, _series),
    ("enriched_relation", "enriched relation", False, None, _enriched_relation),
    ("narrow_left_peak_equals_descent", "narrow", False, None, _narrow),
    ("bijection_roundtrip", "bijection", False, 4, _bijection),
    ("comparability_invariance", "invariance", False, 5, _invariance),
    ("groebner.hilbert_checks", "hilbert", False, None, _hilbert),
    ("groebner.buchberger", "groebner", "fail", 4, _buchberger),
    # toric.EXTRACT_MAX_N (5) bounds `enchain grobner`; the row stops at 4,
    # since n = 5 adds about 4.6 s to a --max-n 5 sweep
    ("triangulation", "triangulation", {"pass": False}, 4, _triangulation),
    ("complex", "complex", {"identity": False}, gamma_complex.COMPLEX_GUARD_N, _complex),
)


def verify_poset(
    poset,
    max_m=4,
    truncation=8,
    guard_points=partitions.FRONTIER_WORK_GUARD,
    guard_spairs=toric.SPAIR_GUARD_DEFAULT,
):
    """Full identity battery for one poset: one pass over CHECKS.  A check
    past its n cap reads "skipped"; a tripped guard makes it read
    "skipped (<reason>)"; an IdentityAlarm raised inside it makes it read
    its failed value and adds the alarm "<label>: <exc>".  Each check adds
    its own alarms, in check order, where it computes its verdict; the
    sweep is never aborted.
    guard_points bounds the work of partitions.frontier_count, the counts
    check's second route, and defaults to partitions.FRONTIER_WORK_GUARD.
    max_m, truncation, guard_points or guard_spairs below 1, max_m past
    MAX_M or truncation past MAX_TRUNCATION raises SizeLimit before any
    check; the guards have no upper bound."""
    for name, value, bound in (
        ("max_m", max_m, MAX_M),
        ("truncation", truncation, MAX_TRUNCATION),
        ("guard_points", guard_points, None),
        ("guard_spairs", guard_spairs, None),
    ):
        if value < 1:
            raise SizeLimit(f"{name} must be at least 1, got {value}")
        if bound is not None and value > bound:
            raise SizeLimit(f"{name} may be at most {bound}, got {value}")
    given = {
        "canonical": poset.canonicalized(),
        "max_m": max_m,
        "truncation": truncation,
        "guard_points": guard_points,
        "guard_spairs": guard_spairs,
    }
    alarms = []
    row = {
        "poset": {
            "n": poset.n,
            "relation": [[a, b] for a in poset.elements() for b in posets._bits(poset._above[a])],
            "covers": sorted(map(list, poset.covers())),
            "naturally_labeled": poset.naturally_labeled,
            "relabeling": None if poset.naturally_labeled else list(poset.topological_order()),
        }
    }
    for path, label, failed, cap, run in CHECKS:
        *parents, key = path.split(".")
        section = row.setdefault(parents[0], {}) if parents else row
        if cap is not None and poset.n > cap:
            section[key] = "skipped"
            continue
        try:
            section[key], extras = run(poset, alarms, **given)
            section.update(extras)
        except SizeLimit as exc:
            section[key] = f"skipped ({exc})"
        except IdentityAlarm as exc:
            alarms.append(f"{label}: {exc}")
            section[key] = copy(failed)  # a failed dict of its own in each row
    row["alarms"] = alarms
    return row
