"""Acceptance suite: every identity the library asserts, at full stated
scale, with exact equality everywhere (no tolerances exist anywhere).

Each criterion prints one PASS/FAIL line; run with `pytest -s
tests/test_acceptance.py` to watch them stream.
"""

from itertools import permutations, product

import pytest

from enchain import gamma_complex, geometry, partitions, posets, toric, verify
from enchain.polynomials import (
    IntPolynomial,
    gamma_expansion,
    hstar_from_counts,
    kruskal_katona_check,
)

from oracles import comparability_invariance, edge_set, is_left_partition, series_identity_check


def report(number, label, ok):
    print(f"ACCEPTANCE {number:>2} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def natural_posets_up_to(max_n):
    for n in range(1, max_n + 1):
        yield from posets.all_natural_posets(n)


@pytest.fixture(scope="module")
def sweep6():
    """Shared per-poset data for every naturally labeled poset, n <= 6."""
    data = {}
    for poset in natural_posets_up_to(6):
        n = poset.n
        counts = geometry.dilation_counts(poset, n)
        hstar = hstar_from_counts(counts, n)
        peaks = partitions.peak_polynomials(poset)
        data[poset] = {
            "hstar": hstar,
            "gamma": gamma_expansion(hstar, n),
            "peaks": peaks,
            "narrow": posets.poset_predicates(poset).narrow,
        }
    return data


def test_criterion_01_counts_equal_partitions():
    ok = True
    for poset in natural_posets_up_to(5):
        for m in range(1, 5):
            dilation = geometry.count_dilation(poset, m)
            partition_count = sum(
                1 for _ in partitions.iter_partitions(poset, m, "left")
            )
            frontier = partitions.frontier_count(poset, m, "left")
            if not dilation == partition_count == frontier:
                ok = False
    report(1, "lattice point count = left enriched partition count, n<=5 m<=4", ok)


def test_criterion_02_bijection_roundtrip():
    ok = True
    for poset in natural_posets_up_to(4):
        n = poset.n
        for m in range(1, 4):
            for f in partitions.iter_partitions(poset, m, "left"):
                x = partitions.phi_map(poset, f)
                if not geometry.in_enriched_polytope(poset, x, m):
                    ok = False
                if any((a >= 0) != (b >= 0) for a, b in zip(f, x)):
                    ok = False
                back = partitions.psi_map(poset, x, m)
                if back != f or any(abs(a) != abs(b) for a, b in zip(back, f)):
                    ok = False
            for point in product(range(-m, m + 1), repeat=n):
                if not geometry.in_enriched_polytope(poset, point, m):
                    continue
                f = partitions.psi_map(poset, point, m)
                if not is_left_partition(poset, f, m):
                    ok = False
                if partitions.phi_map(poset, f) != point:
                    ok = False
    report(2, "phi/psi mutually inverse with sign preservation, n<=4 m<=3", ok)


def test_criterion_03_gamma_is_scaled_left_peak(sweep6):
    ok = True
    for poset, data in sweep6.items():
        gamma = data["gamma"]
        w_left = data["peaks"].left_peak
        expected = tuple(4**i * w_left.coefficient(i) for i in range(poset.n // 2 + 1))
        if gamma != expected or any(g < 0 for g in gamma):
            ok = False
    report(3, "gamma_i = 4^i [x^i] W_left and gamma >= 0, n<=6", ok)


def test_criterion_04_volume_is_extension_count(sweep6):
    ok = True
    for poset, data in sweep6.items():
        if data["hstar"](1) != 2**poset.n * data["peaks"].extension_count:
            ok = False
    report(4, "h*(1) = 2^n #extensions, n<=6", ok)


def type_b_eulerian(n):
    """Brute-force type-B descent oracle over all signed permutations."""
    coeffs = [0] * (n + 1)
    for w in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            signed = (0,) + tuple(s * x for s, x in zip(signs, w))
            coeffs[sum(1 for i in range(n) if signed[i] > signed[i + 1])] += 1
    return IntPolynomial(coeffs)


def test_criterion_05_antichain_hstar_is_type_b_eulerian():
    ok = type_b_eulerian(2) == IntPolynomial([1, 6, 1])
    ok = ok and type_b_eulerian(3) == IntPolynomial([1, 23, 23, 1])
    for n in range(1, 6):
        poset = posets.poset_from_covers(n, [])
        counts = geometry.dilation_counts(poset, n)
        if hstar_from_counts(counts, n) != type_b_eulerian(n):
            ok = False
    report(5, "antichain h* = type-B Eulerian polynomial, n<=5", ok)


def test_criterion_06_groebner_certificates():
    ok = True
    for poset in natural_posets_up_to(4):
        basis = toric.generate_groebner_candidates(poset)
        for binomial in basis:
            lead = binomial.lead
            if len(lead) != 2 or lead[0] == lead[1] or 0 in lead:
                ok = False
        weights = toric.construct_order(poset)
        if not toric.leading_terms_agree(basis, weights):
            ok = False
        if not toric.buchberger_verify(basis, weights):
            ok = False
    for poset in natural_posets_up_to(5):
        _, adjacency = toric.initial_graph(poset)
        if any(u == v or 0 in (u, v) for u, v in edge_set(adjacency)):
            ok = False
        rows, certified = toric.hilbert_certificate(poset)
        if not certified:
            ok = False
    report(6, "Buchberger passes n<=4; standard monomial counts = L(m) n<=5 m<=3", ok)


def test_criterion_07_triangulation(sweep6):
    ok = True
    for poset in natural_posets_up_to(4):
        # triangulation_extract raises on any violated check: face sizes,
        # origin membership, determinants, face count, boundary h = h*
        tri = toric.triangulation_extract(poset)
        if tri.boundary_h != sweep6[poset]["hstar"]:
            ok = False
        if tri.simplex_count != 2**poset.n * sweep6[poset]["peaks"].extension_count:
            ok = False
    report(7, "flag unimodular triangulation through the origin, n<=4", ok)


def test_criterion_08_complex_f_polynomial(sweep6):
    ok = True
    for poset in natural_posets_up_to(5):
        complex_ = gamma_complex.build_complex(poset)
        expected = sweep6[poset]["peaks"].left_peak.scale_powers(4)
        if complex_.f_polynomial != expected:
            ok = False
        if not kruskal_katona_check(list(complex_.f_vector)):
            ok = False
    four_antichain = posets.poset_from_covers(4, [])
    if gamma_complex.build_complex(four_antichain).f_vector != (1, 72, 80):
        ok = False
    report(8, "f-polynomial of the decorated complex = W_left(4x), n<=5", ok)


def test_criterion_09_series_identity():
    ok = all(
        series_identity_check(poset, 8)
        for poset in natural_posets_up_to(5)
    )
    report(9, "order polynomial series matches peak closed form, M=8 n<=5", ok)


def test_criterion_10_comparability_invariance():
    ok = all(
        comparability_invariance(poset) for poset in natural_posets_up_to(5)
    )
    report(10, "comparability graph determines all reported outputs, n<=5", ok)


def test_criterion_11_narrow_posets(sweep6):
    ok = True
    for poset, data in sweep6.items():
        if data["narrow"] and data["peaks"].left_peak != data["peaks"].descent:
            ok = False
    report(11, "narrow posets: W_left = descent polynomial, n<=6", ok)


def test_criterion_12_relation_verdict_reported():
    single = posets.poset_from_covers(1, [])
    rep = partitions.enriched_relation_report(single)
    ok = (
        list(rep.enriched_order.coeffs) == [0, 2]
        and list(rep.left_order.coeffs) == [1, 2]
        and rep.holds is False
    )
    # the verdict survives, unsuppressed, into the verification report
    row = verify.verify_poset(single)
    relation = row["enriched_relation"]
    ok = ok and relation["holds"] is False
    ok = ok and relation["enriched_order"] == [0, 2]
    ok = ok and relation["left_order"] == [1, 2]
    # and it is evaluated for every poset rather than assumed either way
    for poset in natural_posets_up_to(4):
        evaluated = partitions.enriched_relation_report(poset)
        if evaluated.holds is not False:
            ok = False
    report(12, "halved-difference relation measured and reported per poset", ok)
