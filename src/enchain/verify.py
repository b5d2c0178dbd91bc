"""Cross-module identity verification, per poset and in sweeps.

Each row of a verification report records, for one poset, the verdict of
every identity the library asserts: dilation counts against left enriched
partition counts, the gamma vector against the scaled left peak
polynomial, volume against linear extensions, the generating function
identity, the Groebner certificates, the triangulation checks, the
f-polynomial of the decorated-permutation complex, Kruskal-Katona, the
narrow-poset descent coincidence, comparability-graph invariance, and the
measured verdict of the halved-difference relation between the two order
polynomials (reported exactly as computed, never assumed).

Rows are plain dicts with JSON-friendly values and a deterministic layout.
"""

from fractions import Fraction
from itertools import islice, permutations
from math import factorial

from . import gamma_complex, geometry, partitions, posets, toric
from .errors import IdentityAlarm, PointOutsidePolytope, SizeLimit

BUCHBERGER_MAX_N = 4
TRIANGULATION_MAX_N = 4
BIJECTION_MAX_N = 4
INVARIANCE_MAX_N = 5
COMPLEX_MAX_N = 6


def rat_coeffs(poly):
    out = []
    for c in poly.coeffs:
        frac = Fraction(c)
        out.append(int(frac) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}")
    return out


def int_coeffs(poly):
    return list(poly.coeffs)


def _count_partitions_checked(poset, m, kind, guard_points):
    """Partition count by the frontier DP over the definition, which
    shares no code with the ideal-chain kernel behind count_dilation, so
    ehrhart_equals_left_order always compares two independent routes."""
    return partitions.frontier_count(poset, m, kind, guard=guard_points)


def _bijection_failure(poset, max_m):
    """The first failure of the phi/psi bijection between left enriched
    partitions with bound m and the lattice points of m E_P, m = 1..max_m,
    as a message naming m and the offending partition or point; None if
    there is none.

    For each partition f, phi(f) must be a lattice point, keep the signs
    of f with |phi(f)_i| <= |f_i|, and satisfy psi(phi(f)) = f.  That
    makes phi injective with its image inside the lattice points, so the
    image has as many elements as there are lattice points exactly when
    phi is onto.  Then every lattice point is phi(f) for exactly one
    checked f, and psi inverts phi on it: the roundtrip from the points'
    side needs no second pass.  The points come from
    geometry.dilation_points (maximal-chain sums), not from psi_map."""
    for m in range(1, max_m + 1):
        points = set(geometry.dilation_points(poset, m))
        images = set()
        for f in partitions.iter_partitions(poset, m, "left"):
            x = partitions.phi_map(poset, f)
            if x not in points:
                return f"at m={m}: phi(f) = {x} is not a lattice point, f = {f}"
            if any((a >= 0) != (b >= 0) or abs(a) < abs(b) for a, b in zip(f, x)):
                return f"at m={m}: phi(f) = {x} breaks the signs or bounds of f = {f}"
            try:
                back = partitions.psi_map(poset, x, m)
            except PointOutsidePolytope:
                return f"at m={m}: psi rejects phi(f) = {x}, f = {f}"
            if back != f:
                return f"at m={m}: psi(phi(f)) = {back} != f = {f}"
            images.add(x)
        if len(images) != len(points):
            missing = min(points - images)
            return f"at m={m}: lattice point {missing} is phi of no partition"
    return None


def _bijection_roundtrip(poset, max_m):
    """True iff _bijection_failure finds nothing."""
    return _bijection_failure(poset, max_m) is None


def _relabelings(n, limit=12):
    """A deterministic selection of permutations of 1..n (all of them for
    n <= 4, a fixed spread otherwise)."""
    if n <= 4:
        return list(permutations(range(1, n + 1)))
    everything = permutations(range(1, n + 1))
    return list(islice(everything, 0, None, max(1, factorial(n) // limit)))


def _comparability_invariance(poset):
    """Two halves, both exhaustively checkable facts.

    Reorienting the comparability graph (keeping it identical as a labeled
    graph) leaves the polytope untouched, so dilation counts and h* must
    agree directly, and the left peak and descent polynomials must agree
    after canonicalization.  The interior-peak polynomial is deliberately
    absent from this half: it is not a reorientation invariant (orienting
    1<3, 2<3 against 3<1, 3<2 changes it), only a relabeling invariant.

    Relabeling (an isomorphism) must preserve everything once both sides
    are canonicalized, interior peaks included.
    """
    n = poset.n
    base_counts = [geometry.count_dilation(poset, m) for m in range(1, n + 1)]
    base_peaks = partitions.peak_polynomials(poset.canonicalized())
    base_order = partitions.order_polynomial(poset.canonicalized(), "left")
    for other in posets.comparability_orientations(poset):
        counts = [geometry.count_dilation(other, m) for m in range(1, n + 1)]
        if counts != base_counts:
            return False
        canon = other.canonicalized()
        peaks = partitions.peak_polynomials(canon)
        if (
            peaks.left_peak != base_peaks.left_peak
            or peaks.descent != base_peaks.descent
            or partitions.order_polynomial(canon, "left") != base_order
        ):
            return False
    for sigma in _relabelings(n):
        canon = poset.relabeled(sigma).canonicalized()
        counts = [geometry.count_dilation(canon, m) for m in range(1, n + 1)]
        if counts != base_counts:
            return False
        peaks = partitions.peak_polynomials(canon)
        if (
            peaks.peak != base_peaks.peak
            or peaks.left_peak != base_peaks.left_peak
            or peaks.descent != base_peaks.descent
            or partitions.order_polynomial(canon, "left") != base_order
        ):
            return False
    return True


def hilbert_alarm(rows):
    """Alarm text naming the (m, standard, points) rows of the certificate."""
    return f"hilbert certificate failed: {list(rows)}"


def buchberger_alarm(basis_size, agree):
    """Alarm text naming the basis size and the leading-term verdict."""
    return (
        f"buchberger verification failed: basis size {basis_size}, "
        f"leading terms agree: {agree}"
    )


def verify_poset(
    poset,
    max_m=4,
    truncation=8,
    guard_points=geometry.GUARD_POINTS_DEFAULT,
    guard_spairs=toric.SPAIR_GUARD_DEFAULT,
):
    """Full identity battery for one poset; alarms are collected into the
    row instead of aborting the sweep."""
    n = poset.n
    canonical = poset.canonicalized()
    alarms = []
    row = {
        "poset": {
            "n": n,
            "relation": sorted(map(list, poset.pairs)),
            "covers": sorted(map(list, poset.covers())),
            "naturally_labeled": poset.naturally_labeled,
            "relabeling": None if poset.naturally_labeled else list(poset.natural_relabeling),
        }
    }

    try:
        data = geometry.hstar_and_gamma(poset, guard_points=guard_points)
        row["ehrhart"] = {
            "L": rat_coeffs(data.ehrhart),
            "hstar": int_coeffs(data.hstar),
            "gamma": list(data.gamma),
            "volume": data.volume,
        }
        row["gamma_left_peak"] = True
    except SizeLimit as exc:
        row["gamma_left_peak"] = f"skipped ({exc})"
    except IdentityAlarm as exc:
        alarms.append(f"gamma: {exc}")
        row["gamma_left_peak"] = False

    try:
        vol = geometry.volume_and_reflexivity(poset, guard_points=guard_points)
        row["volume_extensions"] = True
        row["reflexive"] = vol.reflexive
    except SizeLimit as exc:
        row["volume_extensions"] = f"skipped ({exc})"
    except IdentityAlarm as exc:
        alarms.append(f"volume: {exc}")
        row["volume_extensions"] = False

    counts = {"max_m": max_m, "pass": True}
    for m in range(1, max_m + 1):
        try:
            left = geometry.count_dilation(poset, m, guard_points=guard_points)
            right = _count_partitions_checked(canonical, m, "left", guard_points)
        except SizeLimit as exc:
            if counts["pass"]:  # a mismatch below the trip stays a failure
                counts = f"skipped ({exc})"
            break
        if left != right:
            counts["pass"] = False
            alarms.append(f"count mismatch at m={m}: {left} != {right}")
    row["ehrhart_equals_left_order"] = counts

    row["series_identity"] = {
        "truncation": truncation,
        "pass": partitions.series_identity_check(canonical, truncation),
    }

    relation = partitions.enriched_relation_report(canonical)
    row["enriched_relation"] = {
        "left_order": rat_coeffs(relation.left_order),
        "enriched_order": rat_coeffs(relation.enriched_order),
        "halved_difference": rat_coeffs(relation.halved_difference),
        "holds": relation.holds,
    }

    predicates = posets.poset_predicates(poset)
    if predicates.narrow:
        peaks = partitions.peak_polynomials(canonical)
        row["narrow_left_peak_equals_descent"] = peaks.left_peak == peaks.descent
    else:
        row["narrow_left_peak_equals_descent"] = None

    bijection = None
    if n <= BIJECTION_MAX_N:
        bijection = _bijection_failure(canonical, min(3, max_m))
        row["bijection_roundtrip"] = {"max_m": min(3, max_m), "pass": bijection is None}
    else:
        row["bijection_roundtrip"] = "skipped"

    if n <= INVARIANCE_MAX_N:
        row["comparability_invariance"] = _comparability_invariance(poset)
    else:
        row["comparability_invariance"] = "skipped"

    grobner = {}
    try:
        checks, ok = toric.hilbert_certificate(
            poset, max_m=3, guard_points=guard_points
        )
        grobner["hilbert_checks"] = [list(c) for c in checks]
        grobner["hilbert_pass"] = ok
        if not ok:
            alarms.append(hilbert_alarm(checks))
    except SizeLimit as exc:
        grobner["hilbert_checks"] = f"skipped ({exc})"
    if n <= BUCHBERGER_MAX_N:
        try:
            basis = toric.generate_groebner_candidates(poset)
            order = toric.construct_order(poset)
            agree = toric.leading_terms_agree(basis, order)
            passed = agree and toric.buchberger_verify(
                basis, order, guard_spairs=guard_spairs
            )
            grobner["variables"] = len(toric.variables_and_map(poset))
            grobner["basis_size"] = len(basis)
            grobner["leading_terms"] = agree
            grobner["buchberger"] = "pass" if passed else "fail"
            if not passed:
                alarms.append(buchberger_alarm(len(basis), agree))
        except SizeLimit as exc:
            grobner["buchberger"] = f"skipped ({exc})"
        except IdentityAlarm as exc:
            grobner["buchberger"] = "fail"
            alarms.append(f"groebner: {exc}")
    else:
        grobner["buchberger"] = "skipped"
    row["groebner"] = grobner

    if n <= TRIANGULATION_MAX_N:
        try:
            tri = toric.triangulation_extract(poset, guard_points=guard_points)
            row["triangulation"] = {
                "simplices": tri.simplex_count,
                "boundary_f": list(tri.boundary_f_vector),
                "boundary_h": int_coeffs(tri.boundary_h),
                "pass": True,
            }
        except SizeLimit as exc:
            row["triangulation"] = f"skipped ({exc})"
        except IdentityAlarm as exc:
            alarms.append(f"triangulation: {exc}")
            row["triangulation"] = {"pass": False}
    else:
        row["triangulation"] = "skipped"

    if n <= COMPLEX_MAX_N:
        try:
            complex_ = gamma_complex.build_complex(canonical)
            row["complex"] = {
                "f_vector": list(complex_.f_vector),
                "identity": True,
                "kruskal_katona": complex_.kruskal_katona,
            }
            if not complex_.kruskal_katona:
                alarms.append("f-vector fails Kruskal-Katona")
        except IdentityAlarm as exc:
            alarms.append(f"complex: {exc}")
            row["complex"] = {"identity": False}
    else:
        row["complex"] = "skipped"

    for key in ("ehrhart_equals_left_order", "series_identity"):
        if isinstance(row.get(key), dict) and row[key].get("pass") is False:
            alarms.append(f"{key} failed")
    if row.get("comparability_invariance") is False:
        alarms.append("comparability invariance failed")
    if row.get("narrow_left_peak_equals_descent") is False:
        alarms.append("narrow poset descent identity failed")
    if bijection is not None:
        alarms.append(f"bijection roundtrip failed {bijection}")

    row["alarms"] = alarms
    return row


def verify_sweep(max_n, **kwargs):
    """Verification rows for every naturally labeled poset with up to
    max_n elements, in the generator's deterministic order."""
    rows = []
    for n in range(1, max_n + 1):
        for poset in posets.all_natural_posets(n):
            rows.append(verify_poset(poset, **kwargs))
    return rows
