from itertools import product

import pytest

from enchain import partitions
from enchain.errors import (
    IdentityViolation,
    InvalidPartition,
    NotNaturallyLabeled,
    PointOutsidePolytope,
    SizeLimit,
)
from enchain.geometry import count_dilation, ehrhart_polynomial, in_enriched_polytope
from enchain.partitions import (
    count_partitions,
    descent_count,
    enriched_relation_report,
    enumerate_partitions,
    is_left_partition,
    iter_partitions,
    left_peak_positions,
    order_polynomial,
    peak_polynomials,
    peak_positions,
    phi_map,
    psi_map,
    series_identity_check,
    series_rhs_coefficient,
)
from enchain.polynomials import IntPolynomial, RatPolynomial
from enchain.posets import all_natural_posets, poset_from_covers, poset_predicates

single = poset_from_covers(1, [])
chain2 = poset_from_covers(2, [(1, 2)])
anti2 = poset_from_covers(2, [])
anti3 = poset_from_covers(3, [])
V = poset_from_covers(3, [(1, 3), (2, 3)])


def brute_force_partitions(poset, m, kind):
    """Filter the full product space by the two defining conditions."""
    values = (
        range(-m, m + 1) if kind == "left" else [v for v in range(-m, m + 1) if v]
    )
    out = []
    for f in product(values, repeat=poset.n):
        ok = True
        for a, b in poset.pairs:
            fa, fb = f[a - 1], f[b - 1]
            if abs(fa) > abs(fb):
                ok = False
            elif abs(fa) == abs(fb):
                if kind == "left" and fb < 0:
                    ok = False
                if kind == "enriched" and fb <= 0:
                    ok = False
            if not ok:
                break
        if ok:
            out.append(f)
    return sorted(out)


class TestEnumeration:
    def test_single_left(self):
        assert sorted(enumerate_partitions(single, 1, "left")) == [(-1,), (0,), (1,)]

    def test_single_enriched(self):
        assert sorted(enumerate_partitions(single, 1, "enriched")) == [(-1,), (1,)]

    def test_two_chain_left(self):
        expected = [(-1, 1), (0, -1), (0, 0), (0, 1), (1, 1)]
        assert sorted(enumerate_partitions(chain2, 1, "left")) == expected

    def test_brute_force_agreement(self):
        for n in (1, 2, 3):
            for poset in all_natural_posets(n):
                for m in (0, 1, 2):
                    for kind in ("left", "enriched"):
                        assert (
                            sorted(enumerate_partitions(poset, m, kind))
                            == brute_force_partitions(poset, m, kind)
                        )

    def test_count_matches_enumeration(self):
        for n in (1, 2, 3, 4, 5):
            for poset in all_natural_posets(n):
                for m in (0, 1, 2, 3):
                    for kind in ("left", "enriched"):
                        enumerated = sum(1 for _ in iter_partitions(poset, m, kind))
                        assert count_partitions(poset, m, kind) == enumerated

    def test_count_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            count_partitions(single, 1, "right")

    def test_requires_natural_labeling(self):
        flipped = poset_from_covers(2, [(2, 1)])
        with pytest.raises(NotNaturallyLabeled):
            enumerate_partitions(flipped, 1, "left")

    def test_guard(self):
        with pytest.raises(SizeLimit):
            enumerate_partitions(poset_from_covers(8, []), 10, "left", guard=100)


class TestOrderPolynomial:
    def test_single_left(self):
        assert order_polynomial(single, "left") == RatPolynomial([1, 2])

    def test_wrong_degree_is_an_alarm(self, monkeypatch):
        constant = RatPolynomial([1])
        monkeypatch.setattr(partitions, "interpolate_at", lambda nodes, values: constant)
        with pytest.raises(IdentityViolation, match="degree 0 != 2"):
            order_polynomial(chain2, "left")

    def test_two_chain_matches_ehrhart(self):
        assert order_polynomial(chain2, "left") == ehrhart_polynomial(chain2)

    def test_two_antichain_enriched(self):
        # no relations, so any nonzero values: (2m)^2
        assert order_polynomial(anti2, "enriched") == RatPolynomial([0, 0, 4])


class TestBijection:
    def test_phi_examples(self):
        assert phi_map(chain2, (0, -1)) == (0, -1)
        assert phi_map(chain2, (1, 1)) == (1, 0)
        assert phi_map(V, (0, 0, 0)) == (0, 0, 0)

    def test_psi_examples(self):
        assert psi_map(chain2, (0, -1), 1) == (0, -1)
        assert psi_map(chain2, (1, 0), 1) == (1, 1)
        assert psi_map(V, (0, 0, 0), 1) == (0, 0, 0)

    def test_phi_rejects_invalid(self):
        with pytest.raises(InvalidPartition):
            phi_map(chain2, (1, -1))  # equal magnitudes need f(2) >= 0

    def test_psi_rejects_outside(self):
        with pytest.raises(PointOutsidePolytope):
            psi_map(chain2, (1, 1), 1)

    def test_roundtrip_small(self):
        for n in (1, 2, 3):
            for poset in all_natural_posets(n):
                for m in (1, 2):
                    for f in iter_partitions(poset, m, "left"):
                        x = phi_map(poset, f)
                        assert in_enriched_polytope(poset, x, m)
                        assert all((a >= 0) == (b >= 0) for a, b in zip(f, x))
                        assert psi_map(poset, x, m) == f
                    for point in product(range(-m, m + 1), repeat=n):
                        if in_enriched_polytope(poset, point, m):
                            f = psi_map(poset, point, m)
                            assert is_left_partition(poset, f, m)
                            assert phi_map(poset, f) == point


class TestPeakStatistics:
    def test_left_peaks_with_sentinel(self):
        assert left_peak_positions((2, 1)) == [1]
        assert left_peak_positions((1, 2)) == []
        assert left_peak_positions((3, 2, 4, 1, 5, 7, 6, 8, 9)) == [1, 3, 6]

    def test_interior_peaks(self):
        assert peak_positions((2, 1)) == []
        assert peak_positions((1, 3, 2)) == [2]

    def test_descents(self):
        assert descent_count((2, 1, 3)) == 1
        assert descent_count((3, 2, 1)) == 2

    def test_three_antichain(self):
        polys = peak_polynomials(anti3)
        assert polys.left_peak == IntPolynomial([1, 5])
        assert polys.peak == IntPolynomial([4, 2])
        assert polys.descent == IntPolynomial([1, 4, 1])

    def test_v_is_narrow(self):
        polys = peak_polynomials(V)
        assert polys.left_peak == IntPolynomial([1, 1])
        assert polys.left_peak == polys.descent

    def test_chain(self):
        poset = poset_from_covers(4, [(1, 2), (2, 3), (3, 4)])
        polys = peak_polynomials(poset)
        one = IntPolynomial([1])
        assert polys.peak == polys.left_peak == polys.descent == one

    def test_narrow_posets_left_peak_equals_descent(self):
        for n in range(1, 6):
            for poset in all_natural_posets(n):
                if poset_predicates(poset).narrow:
                    polys = peak_polynomials(poset)
                    assert polys.left_peak == polys.descent


class TestSeriesIdentity:
    def test_single_element_values(self):
        w_left = peak_polynomials(single).left_peak
        values = [series_rhs_coefficient(w_left, 1, m) for m in range(6)]
        assert values == [1, 3, 5, 7, 9, 11]
        assert series_identity_check(single, 5)

    def test_two_chain(self):
        assert series_identity_check(chain2, 4)

    def test_two_antichain_is_odd_squares(self):
        w_left = peak_polynomials(anti2).left_peak
        assert w_left == IntPolynomial([1, 1])
        for m in range(5):
            assert series_rhs_coefficient(w_left, 2, m) == (2 * m + 1) ** 2
        assert series_identity_check(anti2, 4)


class TestEnrichedRelation:
    def test_single_element_verdict(self):
        report = enriched_relation_report(single)
        assert report.left_order == RatPolynomial([1, 2])
        assert report.enriched_order == RatPolynomial([0, 2])
        assert report.halved_difference == RatPolynomial([1])
        assert not report.holds

    def test_degree_drop_everywhere_small(self):
        # the halved difference always has degree n-1, the left order
        # polynomial degree n, so the relation is measured false
        for n in (1, 2, 3):
            for poset in all_natural_posets(n):
                report = enriched_relation_report(poset)
                assert report.left_order.degree == n
                assert report.halved_difference.degree == n - 1
                assert not report.holds


class TestCountsMatchDilations:
    def test_left_count_equals_lattice_points(self):
        for n in (1, 2, 3, 4):
            for poset in all_natural_posets(n):
                for m in (1, 2, 3):
                    assert count_partitions(poset, m, "left") == count_dilation(
                        poset, m
                    )
