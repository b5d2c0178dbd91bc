import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enchain import gamma_complex, geometry, partitions, posets, verify
from enchain.errors import (
    IdentityViolation,
    InvalidPartition,
    NotNaturallyLabeled,
    PointOutsidePolytope,
    SizeLimit,
)
from enchain.geometry import count_dilation, in_enriched_polytope
from enchain.partitions import (
    count_partitions,
    enriched_relation_report,
    frontier_count,
    iter_partitions,
    left_peak_positions,
    order_polynomial,
    peak_polynomials,
    phi_map,
    psi_map,
    series_rhs_coefficient,
)
from enchain.polynomials import IntPolynomial, RatPolynomial
from enchain.posets import (
    all_natural_posets,
    linear_extensions,
    poset_from_covers,
    poset_predicates,
)

from oracles import (
    bijection_failure_oracle,
    comparability_invariance,
    descent_count,
    ehrhart_polynomial,
    enumerate_partitions,
    frontier_count_oracle,
    is_left_partition,
    left_partition_oracle,
    peak_positions,
    phi_map_oracle,
    psi_map_oracle,
    series_identity_check,
    shifted,
)

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
        with pytest.raises(SizeLimit, match=r"^\d+ partitions exceed guard 100$"):
            enumerate_partitions(poset_from_covers(8, []), 10, "left", guard=100)


@st.composite
def natural_posets(draw, min_n, max_n):
    """A random naturally labeled poset, from relations i < j with i < j."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    relation = draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True))
    return poset_from_covers(n, relation)


class TestFrontierCount:
    """The frontier DP against enumeration and against the ideal-chain
    kernel; criterion 1 of the acceptance suite adds the left kind at
    n <= 5, m = 1..4."""

    def test_matches_enumeration(self):
        for n in (1, 2, 3, 4, 5):
            for poset in all_natural_posets(n):
                assert frontier_count(poset, 0, "left") == 1
                for m in range(5):
                    enumerated = sum(1 for _ in iter_partitions(poset, m, "enriched"))
                    assert frontier_count(poset, m, "enriched") == enumerated

    @given(natural_posets(7, 9), st.integers(0, 2))
    @settings(max_examples=20, deadline=None)
    def test_random_larger_posets(self, poset, m):
        m = min(m, 1) if poset.n == 9 else m
        for kind in ("left", "enriched"):
            enumerated = sum(1 for _ in iter_partitions(poset, m, kind))
            assert frontier_count(poset, m, kind) == enumerated

    def test_six_element_sample_matches_kernel(self):
        for poset in random.Random(6).sample(all_natural_posets(6), 150):
            for m in range(6):
                for kind in ("left", "enriched"):
                    assert frontier_count(poset, m, kind) == count_partitions(poset, m, kind)

    def test_guard_counts_work_units(self):
        # the 2-chain at m = 2: m + 1 units for element 1's values 0..m,
        # then one per base 0..m for element 2
        assert frontier_count(chain2, 2, "left", guard=6) == count_partitions(chain2, 2)
        with pytest.raises(SizeLimit, match="^6 partition DP steps exceed guard 5$"):
            frontier_count(chain2, 2, "left", guard=5)

    def test_guard_trips_while_the_work_grows(self):
        # two stacked 8-antichains: after element 8, |f| on 1..8 takes 0..4
        # freely, 5^8 = 390,625 states, each (kept, base) adding at most
        # m + 1 units of work
        stacked = poset_from_covers(16, [(a, b) for a in range(1, 9) for b in range(9, 17)])
        with pytest.raises(SizeLimit, match="partition DP steps exceed guard 100000$") as trip:
            frontier_count(stacked, 4, "left", guard=10**5)
        assert int(str(trip.value).split()[0]) <= 10**5 + 4 + 1

    def test_work_guard_counts_each_state_value_pair(self):
        # five minimal elements below one top, m = 4: 5 + 25 + ... + 3125
        # pairs for the minimal elements, then one per base 0..4 for the top
        star = poset_from_covers(6, [(i, 6) for i in range(1, 6)])
        assert frontier_count(star, 4, guard=3910) == count_partitions(star, 4)
        with pytest.raises(SizeLimit, match="^3910 partition DP steps exceed guard 3909$"):
            frontier_count(star, 4, guard=3909)

    def test_default_guard_has_headroom_up_to_six(self):
        # the FRONTIER_WORK_GUARD comment: at m = 4, the largest bound of a
        # row by default, no natural poset with n <= 6 needs more than the
        # star's 3,910 units, so no --max-n 6 row reads skipped from it
        assert partitions.FRONTIER_WORK_GUARD >= 3910
        for n in range(1, 7):
            for poset in all_natural_posets(n):
                for kind in ("left", "enriched"):
                    frontier_count(poset, 4, kind, guard=3910)

    def test_work_guard_covers_the_former_state_guard(self):
        # wherever the former body trips on live states, the one work guard
        # trips too: each state added costs at least one unit of work
        state_trips = 0
        for n in (1, 2, 3, 4, 5):
            for poset in all_natural_posets(n):
                for m, kind, guard in product(range(4), ("left", "enriched"), (1, 2, 3, 5, 8, 13, 21, 34)):
                    try:
                        frontier_count_oracle(poset, m, kind, guard=guard)
                    except SizeLimit as exc:
                        if "states" not in str(exc):
                            continue
                        state_trips += 1
                        with pytest.raises(SizeLimit, match=f"partition DP steps exceed guard {guard}$"):
                            frontier_count(poset, m, kind, guard=guard)
        assert state_trips == 8073

    def test_default_guard_trips_on_two_stacked_antichains(self):
        # two stacked 8-antichains at m = 3 need 546,136 units of work
        stacked = poset_from_covers(16, [(a, b) for a in range(1, 9) for b in range(9, 17)])
        bound = partitions.FRONTIER_WORK_GUARD
        with pytest.raises(SizeLimit, match=f"partition DP steps exceed guard {bound}$") as trip:
            frontier_count(stacked, 3)
        assert int(str(trip.value).split()[0]) <= bound + 3 + 1

    def test_matches_former_body_up_to_five(self):
        for n in (1, 2, 3, 4, 5):
            for poset in all_natural_posets(n):
                for m in range(5):
                    for kind in ("left", "enriched"):
                        expected = frontier_count_oracle(poset, m, kind)
                        assert frontier_count(poset, m, kind) == expected, (poset.pairs, m, kind)

    def test_matches_former_body_on_six_element_sample(self):
        rng = random.Random(36)
        for poset in rng.sample(all_natural_posets(6), 300):
            m, kind = rng.randrange(5), rng.choice(("left", "enriched"))
            assert frontier_count(poset, m, kind) == frontier_count_oracle(poset, m, kind), (poset.pairs, m)

    def test_guard_texts_match_former_body(self):
        crown = poset_from_covers(16, [(i, 8 + j) for i in range(1, 9) for j in range(1, 9) if i != j])
        stacked = poset_from_covers(16, [(a, b) for a in range(1, 9) for b in range(9, 17)])
        steps = "262145 partition DP steps exceed guard 262144"
        for poset, m in ((crown, 4), (stacked, 3)):
            for count in (frontier_count, frontier_count_oracle):
                with pytest.raises(SizeLimit) as trip:
                    count(poset, m)
                assert str(trip.value) == steps, (count.__name__, m)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="unknown kind"):
            frontier_count(single, 1, "right")
        with pytest.raises(ValueError, match="nonnegative"):
            frontier_count(single, -1)
        with pytest.raises(NotNaturallyLabeled):
            frontier_count(poset_from_covers(2, [(2, 1)]), 1)


class TestOrderPolynomial:
    def test_single_left(self):
        assert order_polynomial(single, "left") == RatPolynomial([1, 2])

    def test_wrong_degree_is_an_alarm(self, monkeypatch):
        constant = RatPolynomial([1])
        order_polynomial.cache_clear()
        monkeypatch.setattr(partitions, "interpolate", lambda values, start: constant)
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
                            assert left_partition_oracle(poset, f, m)
                            assert phi_map(poset, f) == point

    def test_maps_match_oracles_on_every_vector(self):
        """On every vector of {-m..m}^n, n <= 4, m <= 2: phi_map raises
        exactly when the all-relations oracle rejects the vector, psi_map
        exactly when the polytope membership test does, and otherwise
        both return what their former bodies did."""
        for n in range(1, 5):
            for poset in all_natural_posets(n):
                for m in range(3):
                    for v in product(range(-m, m + 1), repeat=n):
                        valid = left_partition_oracle(poset, v)
                        assert is_left_partition(poset, v, m) == valid
                        if valid:
                            assert phi_map(poset, v) == phi_map_oracle(poset, v)
                        else:
                            with pytest.raises(InvalidPartition):
                                phi_map(poset, v)
                        if in_enriched_polytope(poset, v, m):
                            assert psi_map(poset, v, m) == psi_map_oracle(poset, v, m)
                        else:
                            with pytest.raises(PointOutsidePolytope):
                                psi_map(poset, v, m)

    def test_maps_reject_malformed_input(self):
        assert not is_left_partition(chain2, (0,))
        with pytest.raises(InvalidPartition):
            phi_map(chain2, (0, 0, 0))
        with pytest.raises(PointOutsidePolytope):
            psi_map(chain2, (0,), 1)
        with pytest.raises(PointOutsidePolytope):
            psi_map(chain2, (0, 0.5), 1)
        with pytest.raises(NotNaturallyLabeled):
            phi_map(poset_from_covers(2, [(2, 1)]), (0, 0))


class TestBijectionRoundtrip:
    """verify._bijection_failure finds nothing on every small natural poset
    and a failure under each way of breaking one side of the bijection."""

    def test_passes_up_to_four(self):
        for n in range(1, 5):
            for poset in all_natural_posets(n):
                assert verify._bijection_failure(poset, 3) is None

    def test_phi_merging_two_partitions(self, monkeypatch):
        def merging(phi, psi):
            return (lambda f: phi((0, 0) if f == (0, 1) else f)), psi

        self.patch_maps(monkeypatch, merging)
        assert verify._bijection_failure(chain2, 2) is not None

    def test_psi_flipping_a_sign(self, monkeypatch):
        self.flip_psi(monkeypatch)
        assert verify._bijection_failure(chain2, 2) is not None

    def test_psi_rejecting_a_point(self, monkeypatch):
        def rejecting(phi, psi):
            # a largest chain sum beyond every bound: no dilation holds x
            return phi, lambda x: (psi(x)[0], float("inf"))

        self.patch_maps(monkeypatch, rejecting)
        assert verify._bijection_failure(chain2, 2) == (
            "at m=1: psi rejects phi(f) = (0, 0), f = (0, 0)"
        )

    def test_points_missing_one(self, monkeypatch):
        original = geometry.dilation_points

        def dropping(poset, m):
            return [x for x in original(poset, m) if x != (1, 0)]

        monkeypatch.setattr(geometry, "dilation_points", dropping)
        assert verify._bijection_failure(chain2, 2) is not None

    def test_points_with_one_extra(self, monkeypatch):
        original = geometry.dilation_points

        def adding(poset, m):
            return list(original(poset, m)) + [(m, m)]

        monkeypatch.setattr(geometry, "dilation_points", adding)
        assert verify._bijection_failure(chain2, 2) == (
            "at m=1: lattice point (1, 1) is phi of no partition"
        )

    def test_alarm_names_m_and_partition(self, monkeypatch):
        self.flip_psi(monkeypatch)
        row = verify.verify_poset(chain2)
        assert row["bijection_roundtrip"] == {"max_m": 3, "pass": False}
        assert row["alarms"] == [
            "bijection roundtrip failed at m=1: psi(phi(f)) = (0, -1) != f = (0, 1)"
        ]

    def test_invalid_partition_is_a_failed_row(self, monkeypatch):
        """A partition breaking the conditions fails the check and the row
        carries on; it used to raise InvalidPartition out of the sweep."""

        def invalid(poset, m, kind="left"):
            yield (1, -1)  # equal magnitudes need f(2) >= 0

        monkeypatch.setattr(partitions, "iter_partitions", invalid)
        assert verify._bijection_failure(chain2, 2) == (
            "at m=1: f = (1, -1) breaks the left enriched conditions"
        )
        row = verify.verify_poset(chain2)
        assert row["bijection_roundtrip"] == {"max_m": 3, "pass": False}
        assert row["alarms"] == [
            "bijection roundtrip failed at m=1: f = (1, -1) breaks the left "
            "enriched conditions"
        ]

    def test_matches_the_per_bound_oracle_under_each_fault(self, monkeypatch):
        """Reusing a partition that passed at a smaller bound gives the
        message of the routine that checks every partition at every bound,
        with each fault of this class injected in turn, on every natural
        poset with n <= 3.  The last fault drops a point from m = 2 on, so
        a partition met again at m = 2 fails its lattice-point check."""
        original_points = geometry.dilation_points

        def invalid(poset, m, kind="left"):
            yield (1, -1)

        faults = [
            lambda mp: self.patch_maps(
                mp, lambda phi, psi: ((lambda f: phi((0, 0) if f == (0, 1) else f)), psi)
            ),
            self.flip_psi,
            lambda mp: self.patch_maps(mp, lambda phi, psi: (phi, lambda x: (psi(x)[0], 99))),
            lambda mp: mp.setattr(
                geometry,
                "dilation_points",
                lambda poset, m: [x for x in original_points(poset, m) if x != (1, 0)],
            ),
            lambda mp: mp.setattr(
                geometry,
                "dilation_points",
                lambda poset, m: list(original_points(poset, m)) + [(m, m)],
            ),
            lambda mp: mp.setattr(partitions, "iter_partitions", invalid),
            lambda mp: mp.setattr(
                geometry,
                "dilation_points",
                lambda poset, m: [
                    x for x in original_points(poset, m) if m < 2 or any(x)
                ],
            ),
        ]
        small = [p for n in range(1, 4) for p in all_natural_posets(n)]
        for fault in faults:
            with monkeypatch.context() as mp:
                fault(mp)
                messages = [verify._bijection_failure(p, 3) for p in small]
                assert messages == [bijection_failure_oracle(p, 3) for p in small]
                assert any(messages)

    def test_phi_and_psi_run_once_per_distinct_partition(self, monkeypatch):
        calls = Counter()

        def counting(phi, psi):
            def phi_counted(f):
                calls["phi"] += 1
                return phi(f)

            def psi_counted(x):
                calls["psi"] += 1
                return psi(x)

            return phi_counted, psi_counted

        self.patch_maps(monkeypatch, counting)
        walked = distinct = 0
        for n in range(1, 5):
            for poset in all_natural_posets(n):
                assert verify._bijection_failure(poset, 3) is None
                bounds = [list(iter_partitions(poset, m, "left")) for m in (1, 2, 3)]
                walked += sum(map(len, bounds))
                distinct += len(set().union(*bounds))
        assert (walked, distinct) == (37566, 28474)
        assert calls == {"phi": 28474, "psi": 28474}

    @staticmethod
    def patch_maps(monkeypatch, breaking):
        """Replace partitions.roundtrip_maps by breaking(phi, psi) applied
        to the kernel's own pair."""
        original = partitions.roundtrip_maps
        monkeypatch.setattr(
            partitions, "roundtrip_maps", lambda poset: breaking(*original(poset))
        )

    @classmethod
    def flip_psi(cls, monkeypatch):
        """psi with the sign of its first nonzero coordinate flipped."""

        def flipping(phi, psi):
            def flipped(x):
                f, top = psi(x)
                f = list(f)
                for i, v in enumerate(f):
                    if v:
                        f[i] = -v
                        break
                return tuple(f), top

            return phi, flipped

        cls.patch_maps(monkeypatch, flipping)


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

    def test_left_peaks_past_one_are_interior_peaks(self):
        # the virtual 0 before the word is below every letter
        for n in range(1, 8):
            for w in permutations(range(1, n + 1)):
                assert [p for p in left_peak_positions(w) if p > 1] == peak_positions(w), w

    def test_peak_polynomial_matches_interior_scan(self):
        for n in range(1, 7):
            for poset in all_natural_posets(n):
                counts = Counter(len(peak_positions(w)) for w in linear_extensions(poset))
                expected = IntPolynomial([counts[k] for k in range(n + 1)])
                assert peak_polynomials(poset).peak == expected, poset.pairs

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

    def test_rejects_a_labelling_that_is_not_natural(self):
        # peak_polynomials makes the one natural-label check
        with pytest.raises(NotNaturallyLabeled, match="require a naturally labeled poset"):
            partitions.series_identity_failure(poset_from_covers(2, [(2, 1)]), 2)


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

    def test_value_route_matches_shifted_polynomial(self):
        # the halved difference from the counts against (p(x + 1) - p(x))/2
        # of the interpolated enriched order polynomial
        sixes = all_natural_posets(6)[::8]
        for poset in [p for n in range(1, 6) for p in all_natural_posets(n)] + list(sixes):
            report = enriched_relation_report(poset)
            prime = report.enriched_order
            assert report.halved_difference == (shifted(prime, 1) - prime) * Fraction(1, 2)
            assert report.holds == (report.left_order == report.halved_difference)


class TestCountsMatchDilations:
    def test_left_count_equals_lattice_points(self):
        for n in (1, 2, 3, 4):
            for poset in all_natural_posets(n):
                for m in (1, 2, 3):
                    assert count_partitions(poset, m, "left") == count_dilation(
                        poset, m
                    )


class TestMemo:
    """order_polynomial, peak_polynomials, the extension walk and the
    ideal-chain counts are memoised by the poset's value, never by
    isomorphism class."""

    # two natural labelings of one poset: a 2-chain and an isolated point
    first = poset_from_covers(3, [(1, 2)])
    second = poset_from_covers(3, [(2, 3)])

    @pytest.fixture(autouse=True)
    def cold(self):
        memos = (order_polynomial, peak_polynomials, posets._extension_walk, posets._chain_counts)
        for memo in memos:
            memo.cache_clear()
        yield
        for memo in memos:
            memo.cache_clear()

    def recorder(self, monkeypatch, module, name):
        seen = []
        original = getattr(module, name)

        def record(poset, *args, **kwargs):
            seen.append(poset)
            return original(poset, *args, **kwargs)

        monkeypatch.setattr(module, name, record)
        return seen

    def test_each_labeling_is_computed(self, monkeypatch):
        counted = self.recorder(monkeypatch, partitions, "count_partitions")
        extended = self.recorder(monkeypatch, partitions, "linear_extensions")
        transfers = self.recorder(monkeypatch, posets, "_cover_edges")
        for poset in (self.first, self.second, self.first):
            order_polynomial(poset, "left")
            peak_polynomials(poset)
        assert order_polynomial(self.first, "left") == order_polynomial(self.second, "left")
        assert set(counted) == {self.first, self.second} and len(counted) == 2 * 4
        assert extended == [self.first, self.second]
        assert transfers == [self.first, self.second]

    def test_one_extension_walk_serves_complex_and_peaks(self, monkeypatch):
        extended = self.recorder(monkeypatch, partitions, "linear_extensions")
        for poset in (self.first, self.second):
            complex_ = gamma_complex.build_complex(poset)
            assert complex_.f_polynomial == peak_polynomials(poset).left_peak.scale_powers(4)
        assert extended == [self.first, self.second]
        assert posets._extension_walk.cache_info().misses == 2
        walked = posets.linear_extensions(self.first, statistics=True)
        words = [w for w, _, _ in walked]
        assert words == posets.linear_extensions(self.first)
        assert all(list(peaks) == left_peak_positions(w) for w, peaks, _ in walked)

    def test_labeling_dependent_fault_is_caught(self, monkeypatch):
        assert comparability_invariance(self.first)
        for memo in (order_polynomial, peak_polynomials, posets._extension_walk):
            memo.cache_clear()
        original = partitions.linear_extensions

        def faulty(poset, **kwargs):
            exts = original(poset, **kwargs)
            return exts[:-1] if poset.less(1, 2) else exts

        monkeypatch.setattr(partitions, "linear_extensions", faulty)
        assert not comparability_invariance(self.first)
