from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enchain import geometry, verify
from enchain.errors import SizeLimit
from enchain.geometry import (
    EhrhartData,
    count_dilation,
    dilation_counts,
    dilation_points,
    hstar_and_gamma,
    in_enriched_polytope,
    volume_and_reflexivity,
)
from enchain.partitions import count_partitions, iter_partitions
from enchain.polynomials import IntPolynomial, RatPolynomial
from enchain.posets import all_natural_posets, antichains, comparability_orientations, poset_from_covers

from oracles import (
    dilation_points_oracle,
    ehrhart_polynomial,
    in_chain_polytope,
    lattice_points_ep,
    membership_oracle,
)
from test_partitions import natural_posets

chain2 = poset_from_covers(2, [(1, 2)])
anti2 = poset_from_covers(2, [])
V = poset_from_covers(3, [(1, 3), (2, 3)])
single = poset_from_covers(1, [])


class TestLatticePoints:
    def test_two_chain(self):
        assert lattice_points_ep(chain2) == [
            (-1, 0),
            (0, -1),
            (0, 0),
            (0, 1),
            (1, 0),
        ]

    def test_two_antichain(self):
        assert lattice_points_ep(anti2) == sorted(product((-1, 0, 1), repeat=2))

    def test_single_element(self):
        assert lattice_points_ep(single) == [(-1,), (0,), (1,)]

    def test_supports_are_antichains_and_complete(self):
        for n in range(1, 5):
            for poset in all_natural_posets(n):
                points = set(lattice_points_ep(poset))
                chains = set(antichains(poset))
                # every point's support is an antichain, every signed
                # antichain vector occurs, and the set is centrally symmetric
                for p in points:
                    support = tuple(i + 1 for i, c in enumerate(p) if c)
                    assert support in chains
                    assert tuple(-c for c in p) in points
                assert len(points) == sum(2 ** len(a) for a in chains)
                # agrees with the membership test over the full box
                box = {
                    p
                    for p in product((-1, 0, 1), repeat=n)
                    if in_enriched_polytope(poset, p, 1)
                }
                assert points == box


def box_filter(poset, m):
    """Lattice points of the m-th dilation by scanning the box [-m, m]^n."""
    return [
        p
        for p in product(range(-m, m + 1), repeat=poset.n)
        if in_enriched_polytope(poset, p, m)
    ]


class TestDilationPoints:
    def test_matches_box_filter_in_order(self):
        for n in range(1, 5):
            for poset in all_natural_posets(n):
                for m in range(4):
                    assert list(dilation_points(poset, m)) == box_filter(poset, m)

    def test_unit_dilation_is_signed_antichains(self):
        for n in range(1, 6):
            for poset in all_natural_posets(n):
                assert list(dilation_points(poset, 1)) == lattice_points_ep(poset)

    def test_length_is_count_dilation(self):
        for n in range(1, 6):
            for poset in all_natural_posets(n):
                for m in range(3):
                    assert sum(1 for _ in dilation_points(poset, m)) == count_dilation(
                        poset, m
                    )

    def test_non_natural_labelling(self):
        flipped = poset_from_covers(3, [(3, 1), (3, 2)])
        for m in range(3):
            assert list(dilation_points(flipped, m)) == box_filter(flipped, m)

    def test_matches_the_backtracking_oracle_in_order(self):
        """On every natural poset, m <= 3 for n <= 4 and m <= 2 for n = 5,
        and on every comparability orientation of those with n <= 4, whose
        labels need not be natural."""
        for n in range(1, 6):
            for natural in all_natural_posets(n):
                for poset in comparability_orientations(natural) if n <= 4 else [natural]:
                    for m in range(4 if n <= 4 else 3):
                        expected = list(dilation_points_oracle(poset, m))
                        assert list(dilation_points(poset, m)) == expected, (poset, m)

    def test_negative_dilation(self):
        with pytest.raises(ValueError):
            list(dilation_points(V, -1))

    @given(natural_posets(5, 6), st.integers(0, 2))
    @settings(max_examples=15, deadline=None)
    def test_random_posets_match_box_filter(self, poset, m):
        assert list(dilation_points(poset, m)) == box_filter(poset, m)


class TestCounting:
    def test_examples(self):
        assert count_dilation(chain2, 1) == 5
        assert count_dilation(anti2, 2) == 25
        assert count_dilation(chain2, 2) == 13

    def test_zero_dilation(self):
        assert count_dilation(V, 0) == 1

    def test_brute_force_signed_scan(self):
        for n in range(1, 5):
            for poset in all_natural_posets(n):
                for m in range(1, 4):
                    brute = sum(
                        1
                        for p in product(range(-m, m + 1), repeat=n)
                        if in_enriched_polytope(poset, p, m)
                    )
                    assert count_dilation(poset, m) == brute

    def test_guard(self):
        # only the ideal table guards the counts: 2^9 ideals are well inside it
        assert count_dilation(poset_from_covers(9, []), 1) == 3**9
        with pytest.raises(SizeLimit, match="ideals of size <= 9 exceed guard 65536"):
            count_dilation(poset_from_covers(17, []), 1)

    def test_order_independence(self):
        # a non-naturally labeled orientation counts the same points
        flipped = poset_from_covers(3, [(3, 1), (3, 2)])
        for m in (1, 2, 3):
            assert count_dilation(flipped, m) == count_dilation(V, m)


class TestMembershipOracle:
    def test_vertices(self):
        for poset in (chain2, V):
            for a in antichains(poset):
                point = [0] * poset.n
                for e in a:
                    point[e - 1] = 1
                assert membership_oracle(poset, point)

    def test_outside(self):
        assert not membership_oracle(chain2, [1, 1])

    def test_half_point_on_v(self):
        point = [Fraction(1, 2)] * 3
        assert membership_oracle(V, point) == in_chain_polytope(V, point)

    def test_agreement_on_small_denominators(self):
        grid = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
        for n in (1, 2, 3):
            for poset in all_natural_posets(n):
                for point in product(grid, repeat=n):
                    assert membership_oracle(poset, point) == in_chain_polytope(
                        poset, point
                    )

    def test_agreement_on_selected_four_element_posets(self):
        grid = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
        selected = [
            poset_from_covers(4, []),
            poset_from_covers(4, [(1, 2), (2, 3), (3, 4)]),
            poset_from_covers(4, [(1, 3), (2, 3), (3, 4)]),
            poset_from_covers(4, [(1, 3), (2, 4)]),
        ]
        for poset in selected:
            for point in product(grid, repeat=4):
                assert membership_oracle(poset, point) == in_chain_polytope(
                    poset, point
                )


class TestEhrhart:
    def test_single(self):
        assert ehrhart_polynomial(single) == RatPolynomial([1, 2])

    def test_two_chain(self):
        assert ehrhart_polynomial(chain2) == RatPolynomial([1, 2, 2])

    def test_two_antichain(self):
        # (2m+1)^2
        assert ehrhart_polynomial(anti2) == RatPolynomial([1, 4, 4])

    def test_counts_match_polynomial(self):
        for n in range(1, 5):
            for poset in all_natural_posets(n):
                poly = ehrhart_polynomial(poset)
                for m, count in enumerate(dilation_counts(poset, n + 2)):
                    assert poly(m) == count


class TestHstarGamma:
    def test_three_antichain(self):
        data = hstar_and_gamma(poset_from_covers(3, []))
        assert data.hstar == IntPolynomial([1, 23, 23, 1])
        assert data.gamma == (1, 20)

    def test_chains_give_binomial(self):
        for n in range(1, 6):
            poset = poset_from_covers(n, [(i, i + 1) for i in range(1, n)])
            data = hstar_and_gamma(poset)
            from math import comb

            assert data.hstar == IntPolynomial([comb(n, k) for k in range(n + 1)])
            assert data.gamma == (1,) + (0,) * (n // 2)

    def test_v(self):
        data = hstar_and_gamma(V)
        assert data.hstar == IntPolynomial([1, 7, 7, 1])
        assert data.gamma == (1, 4)

    def test_is_ehrhart_data(self):
        data = hstar_and_gamma(chain2)
        assert isinstance(data, EhrhartData)
        assert data.volume == data.hstar(1)

    def test_palindromic_nonnegative_everywhere(self):
        for n in range(1, 5):
            for poset in all_natural_posets(n):
                data = hstar_and_gamma(poset)
                assert data.hstar.is_palindromic(n)
                assert all(c >= 0 for c in data.hstar.coeffs)
                assert all(g >= 0 for g in data.gamma)


class TestHstarOnce:
    def test_one_computation_per_row(self, monkeypatch):
        # gamma, volume and the triangulation each read the 4-antichain's h*
        calls = []
        original = geometry.hstar_from_counts

        def record(counts, n):
            calls.append(n)
            return original(counts, n)

        monkeypatch.setattr(geometry, "hstar_from_counts", record)
        geometry.ehrhart_and_hstar.cache_clear()
        try:
            row = verify.verify_poset(poset_from_covers(4, []))
        finally:
            geometry.ehrhart_and_hstar.cache_clear()
        assert row["alarms"] == [] and row["triangulation"]["pass"]
        assert calls == [4]

    def test_a_tripped_guard_counts_the_dilations_once_per_row(self, monkeypatch):
        # the 512-chain's interpolation trips its guard; the volume check
        # reads the SizeLimit the gamma check left, not a second count
        calls = []
        for name in ("dilation_counts", "interpolate"):
            monkeypatch.setattr(geometry, name, self.recorded(calls, name, getattr(geometry, name)))
        geometry.ehrhart_and_hstar.cache_clear()
        try:
            row = verify.verify_poset(poset_from_covers(512, [(i, i + 1) for i in range(1, 512)]))
        finally:
            geometry.ehrhart_and_hstar.cache_clear()
        assert row["gamma_left_peak"].startswith("skipped (interpolating 513 values")
        assert row["volume_extensions"] == row["gamma_left_peak"]
        assert calls == ["dilation_counts", "interpolate"]

    @staticmethod
    def recorded(calls, name, function):
        def record(*args):
            calls.append(name)
            return function(*args)

        return record


class TestVolume:
    def test_two_antichain(self):
        result = volume_and_reflexivity(anti2)
        assert result.volume == 8 and result.reflexive

    def test_v(self):
        result = volume_and_reflexivity(V)
        assert result.volume == 16 and result.reflexive

    def test_single(self):
        result = volume_and_reflexivity(single)
        assert result.volume == 2 and result.reflexive


@st.composite
def labelled_posets(draw):
    """A random poset on 6..8 elements under a random labelling."""
    n = draw(st.integers(6, 8))
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    relation = draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True))
    labels = draw(st.permutations(range(1, n + 1)))
    return poset_from_covers(n, relation).relabeled(labels)


class TestIdealChainOracles:
    """The ideal-chain kernel behind count_dilation and count_partitions
    against routes that do not use it, beyond the exhaustive small n."""

    @given(labelled_posets())
    @settings(max_examples=8, deadline=None)
    def test_random_labelled_posets(self, poset):
        assert count_dilation(poset, 1) == len(lattice_points_ep(poset))
        canonical = poset.canonicalized()
        for m in (0, 1, 2):
            for kind in ("left", "enriched"):
                enumerated = sum(1 for _ in iter_partitions(canonical, m, kind))
                assert count_partitions(canonical, m, kind) == enumerated
        # both raise IdentityAlarm when the counts disagree with the
        # linear extensions or the left peak polynomial
        volume_and_reflexivity(poset)
        hstar_and_gamma(poset)
