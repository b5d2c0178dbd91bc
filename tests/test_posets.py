import hashlib
import time
from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import example, given, settings

from enchain import io, posets, verify
from enchain.errors import CycleDetected, LabelOutOfRange, NotAnIdeal, SizeLimit
from enchain.posets import (
    Poset,
    all_natural_posets,
    antichains,
    comparability_orientations,
    ideal_lattice,
    linear_extensions,
    maximal_chains,
    poset_from_covers,
    poset_predicates,
)

from oracles import (
    antichains_oracle,
    chain_counts_oracle,
    comparability_orientations_oracle,
    ideal_lattice_oracle,
    ideal_transfer,
    ideal_transfer_oracle,
    labelled_six_posets,
    make_ideal,
    star,
    star_oracle,
)


def chain(n):
    return poset_from_covers(n, [(i, i + 1) for i in range(1, n)])


def antichain(n):
    return poset_from_covers(n, [])


V = poset_from_covers(3, [(1, 3), (2, 3)])


class TestConstruction:
    def test_v_is_natural(self):
        assert V.naturally_labeled
        assert V.pairs == {(1, 3), (2, 3)}

    def test_transitive_closure(self):
        p = poset_from_covers(3, [(1, 2), (2, 3)])
        assert p.less(1, 3)
        assert p.covers() == ((1, 2), (2, 3))

    def test_reversed_two_chain(self):
        p = poset_from_covers(2, [(2, 1)])
        assert not p.naturally_labeled
        assert p.natural_relabeling == (2, 1)
        assert p.canonicalized().pairs == {(1, 2)}

    def test_cycle(self):
        with pytest.raises(CycleDetected):
            poset_from_covers(2, [(1, 2), (2, 1)])

    def test_self_loop(self):
        with pytest.raises(CycleDetected):
            poset_from_covers(2, [(1, 1)])

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            poset_from_covers(2, [(1, 3)])

    def test_relabel_roundtrip(self):
        q = V.relabeled((3, 1, 2))
        assert q.pairs == {(2, 1), (3, 1)}
        assert q.canonicalized().n == 3


class TestAntichains:
    def test_two_chain(self):
        assert antichains(chain(2)) == [(), (1,), (2,)]

    def test_two_antichain(self):
        assert antichains(antichain(2)) == [(), (1,), (2,), (1, 2)]

    def test_v(self):
        assert antichains(V) == [(), (1,), (2,), (3,), (1, 2)]

    def test_independent_sets_of_comparability_graph(self):
        for n in range(1, 5):
            for poset in all_natural_posets(n):
                edges = set(poset_predicates(poset).comparability_edges)
                expected = sorted(
                    (
                        tuple(s)
                        for k in range(n + 1)
                        for s in combinations(range(1, n + 1), k)
                        if not any(
                            (min(a, b), max(a, b)) in edges for a, b in combinations(s, 2)
                        )
                    ),
                    key=lambda a: (len(a), a),
                )
                assert antichains(poset) == expected

    def test_table_maxima_match_recursive_walk(self):
        for n in range(1, 7):
            for poset in all_natural_posets(n):
                assert antichains(poset) == antichains_oracle(poset), poset.pairs

    @given(labelled_six_posets())
    @example(antichain(6))
    @settings(max_examples=20, deadline=None)
    def test_table_maxima_match_recursive_walk_relabelled(self, poset):
        assert antichains(poset) == antichains_oracle(poset)

    def test_width_is_largest_antichain(self):
        for n in range(1, 6):
            for poset in all_natural_posets(n):
                width = max(len(a) for a in antichains_oracle(poset))
                assert poset_predicates(poset).width == width


class TestMaximalChains:
    def test_two_chain(self):
        assert maximal_chains(chain(2)) == [(1, 2)]

    def test_v(self):
        assert maximal_chains(V) == [(1, 3), (2, 3)]

    def test_three_antichain(self):
        assert maximal_chains(antichain(3)) == [(1,), (2,), (3,)]


class TestLinearExtensions:
    def test_chain_has_one(self):
        for n in (1, 3, 5):
            assert linear_extensions(chain(n)) == [tuple(range(1, n + 1))]

    def test_two_antichain(self):
        assert linear_extensions(antichain(2)) == [(1, 2), (2, 1)]

    def test_v(self):
        assert linear_extensions(V) == [(1, 2, 3), (2, 1, 3)]

    def test_guard(self):
        with pytest.raises(SizeLimit):
            linear_extensions(antichain(11))

    def test_exhaustive_against_filter(self):
        for n in range(1, 5):
            for poset in all_natural_posets(n):
                expected = [
                    w
                    for w in permutations(range(1, n + 1))
                    if all(w.index(a) < w.index(b) for a, b in poset.pairs)
                ]
                assert linear_extensions(poset) == sorted(expected)


class TestIdeals:
    def test_two_chain_lattice(self):
        ideals = ideal_lattice(chain(2))
        assert [sorted(i.elements) for i in ideals] == [[], [1], [1, 2]]

    def test_star_of_disjoint_singletons(self):
        p = antichain(2)
        result = star(p, frozenset({1}), frozenset({2}))
        assert result.elements == frozenset()

    def test_not_an_ideal(self):
        with pytest.raises(NotAnIdeal):
            make_ideal(chain(2), {2})

    def test_label_above_n(self):
        with pytest.raises(LabelOutOfRange):
            make_ideal(chain(2), {5})

    def test_label_zero(self):
        with pytest.raises(LabelOutOfRange):
            make_ideal(chain(2), {0})

    def test_star_label_zero(self):
        with pytest.raises(LabelOutOfRange):
            star(chain(2), {0}, {1})

    def test_lattice_matches_oracle(self):
        for n in range(1, 7):
            for poset in all_natural_posets(n):
                assert ideal_lattice(poset) == ideal_lattice_oracle(poset), poset.pairs
        # 1,024 ideals, where the table's closure under union and intersection
        # rests on its construction and the oracle checks it
        assert ideal_lattice(antichain(10)) == ideal_lattice_oracle(antichain(10))

    def test_star_of_nested_is_smaller(self):
        for n in range(1, 6):
            for poset in all_natural_posets(n):
                ideals = ideal_lattice(poset)
                for i, j in product(ideals, repeat=2):
                    if i.elements <= j.elements:
                        assert star(poset, i, j).elements == i.elements

    def test_star_inside_intersection(self):
        for n in range(1, 6):
            for poset in all_natural_posets(n):
                ideals = ideal_lattice(poset)
                for i, j in combinations(ideals, 2):
                    assert star(poset, i, j).elements <= i.elements & j.elements

    def test_ideals_biject_with_antichains(self):
        for n in range(1, 6):
            for poset in all_natural_posets(n):
                ideals = ideal_lattice(poset)
                assert len(ideals) == len(antichains(poset))
                maxima = sorted(
                    (i.max_elements for i in ideals), key=lambda a: (len(a), a)
                )
                assert maxima == antichains(poset)


class TestStar:
    """star, read off the ideal table, against the frozenset down-closure
    of the maxima it keeps, on every ordered pair of ideals."""

    @staticmethod
    def assert_matches_oracle(poset):
        ideals = ideal_lattice_oracle(poset)
        for i, j in product(ideals, repeat=2):
            assert star(poset, i, j) == star_oracle(poset, i, j), (poset.pairs, i, j)

    def test_every_natural_poset_up_to_five(self):
        for n in (1, 2, 3, 4, 5):
            for poset in all_natural_posets(n):
                self.assert_matches_oracle(poset)

    @given(labelled_six_posets())
    @example(antichain(6))
    @settings(max_examples=10, deadline=None)
    def test_random_six_element_posets(self, poset):
        self.assert_matches_oracle(poset)


class TestIdealTransfer:
    """The interval transfer kept as the counts' oracle, which finds
    minimal elements among the bits of each difference, against a scan
    of every element."""

    def test_every_natural_poset_up_to_five(self):
        for n in (1, 2, 3, 4, 5):
            for poset in all_natural_posets(n):
                assert ideal_transfer(poset) == ideal_transfer_oracle(poset)

    @given(labelled_six_posets())
    @example(antichain(6))
    @settings(max_examples=10, deadline=None)
    def test_random_six_element_posets(self, poset):
        assert ideal_transfer(poset) == ideal_transfer_oracle(poset)


class TestChainCounts:
    """ideal_chain_count, two passes over the cover edges of J(P) per
    bound, against the transfer with one row per interval and against
    closed forms."""

    @staticmethod
    def assert_matches_oracle(poset):
        for from_empty in (False, True):
            counts = [posets.ideal_chain_count(poset, m, from_empty) for m in range(poset.n + 2)]
            assert counts == chain_counts_oracle(poset, poset.n + 1, from_empty), poset.pairs

    def test_every_natural_poset_up_to_six(self):
        for n in range(1, 7):
            for poset in all_natural_posets(n):
                self.assert_matches_oracle(poset)

    @given(labelled_six_posets())
    @example(antichain(6))
    @example(chain(6).relabeled((6, 5, 4, 3, 2, 1)))
    @settings(max_examples=20, deadline=None)
    def test_random_six_element_posets(self, poset):
        self.assert_matches_oracle(poset)

    def test_antichains_count_boxes(self):
        # each element takes any value in [-m, m], or any nonzero one
        for n in range(1, 13):
            for m in range(n + 2):
                assert posets.ideal_chain_count(antichain(n), m) == (2 * m + 1) ** n
                assert posets.ideal_chain_count(antichain(n), m, from_empty=True) == (2 * m) ** n

    def test_chains_count_cross_polytope_points(self):
        # the lattice points of m times the n-dimensional cross-polytope
        for n in range(1, 13):
            for m in range(n + 2):
                expected = sum(2**k * comb(n, k) * comb(m, k) for k in range(n + 1))
                assert posets.ideal_chain_count(chain(n), m) == expected

    def test_resume_matches_cold_start(self):
        poset = poset_from_covers(5, [(1, 3), (2, 3), (2, 4), (4, 5)])
        posets._chain_counts.cache_clear()
        rising = [posets.ideal_chain_count(poset, m) for m in range(7)]
        posets._chain_counts.cache_clear()
        assert posets.ideal_chain_count(poset, 6) == rising[-1]
        assert rising == chain_counts_oracle(poset, 6)


class TestIdealGuard:
    """The ideal walk stops past its guard, stated in ideals."""

    def test_guard_names_the_count(self, monkeypatch):
        monkeypatch.setattr(posets, "IDEAL_GUARD", 100)
        # 1 + 8 + 28 + 56 = 93 ideals up to size 3; the size-3 ideals
        # {1, 2, 3}, {1, 2, 4}, ... add 5, 4, ... of size 4, so the walk
        # stops at 93 + 9 = 102, not after all 70 of size 4
        with pytest.raises(SizeLimit, match=r"^102 ideals of size <= 4 exceed guard 100$"):
            posets._ideal_table.__wrapped__(antichain(8))

    def test_guard_trips_within_a_level(self):
        """The 300-antichain has 45,151 ideals of size <= 2 and 4,455,100
        of size 3; the walk stops within n ideals of the guard."""
        start = time.perf_counter()
        with pytest.raises(SizeLimit, match=r"^65612 ideals of size <= 3 exceed guard 65536$"):
            posets._ideal_table.__wrapped__(antichain(300))
        assert 65612 <= posets.IDEAL_GUARD + 300
        assert time.perf_counter() - start < 1

    def test_guard_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(posets, "IDEAL_GUARD", 256)
        assert len(posets._ideal_table.__wrapped__(antichain(8))) == 256

    def test_no_poset_up_to_twelve_trips_it(self):
        # the 12-antichain has the most ideals of any 12-element poset
        assert len(posets._ideal_table(antichain(12))) == 4096 < posets.IDEAL_GUARD

    def test_counts_past_the_guard_raise(self):
        with pytest.raises(SizeLimit, match="exceed guard 65536"):
            posets.ideal_chain_count(antichain(17), 1)

    def test_verify_row_reads_skipped_past_the_guard(self):
        row = verify.verify_poset(antichain(17))
        reason = "skipped (65545 ideals of size <= 9 exceed guard 65536)"
        assert row["gamma_left_peak"] == reason
        assert row["volume_extensions"] == reason
        assert row["ehrhart_equals_left_order"] == reason
        assert row["enriched_relation"] == reason
        assert row["narrow_left_peak_equals_descent"] == reason
        assert row["groebner"]["hilbert_checks"] == reason
        assert row["alarms"] == []

    def test_a_tripped_guard_is_walked_up_to_once(self):
        """The six checks that trip it (gamma, volume, counts, enriched
        relation, narrow check, Hilbert certificate) share one walk."""
        posets._ideal_table.cache_clear()
        row = verify.verify_poset(antichain(17))
        info = posets._ideal_table.cache_info()
        assert (info.misses, info.hits) == (1, 5)
        digest = hashlib.sha256(io.render_json(row).encode()).hexdigest()
        assert digest == "c0d2f506d99d33b505e620f9738f655baa528c0462f6651249e21fdb6e6277cb"
        with pytest.raises(SizeLimit, match=r"^65545 ideals of size <= 9 exceed guard 65536$"):
            posets._ideal_table(antichain(17))


class TestPredicates:
    def test_v(self):
        pred = poset_predicates(V)
        assert pred.comparability_edges == ((1, 3), (2, 3))
        assert pred.width == 2 and pred.narrow

    def test_three_antichain(self):
        pred = poset_predicates(antichain(3))
        assert pred.comparability_edges == ()
        assert pred.width == 3 and not pred.narrow

    def test_three_chain(self):
        pred = poset_predicates(chain(3))
        assert pred.comparability_edges == ((1, 2), (1, 3), (2, 3))
        assert pred.width == 1 and pred.narrow


class TestGenerators:
    def test_natural_poset_counts(self):
        # independent brute force: subsets of increasing pairs, checked
        # transitively closed with a direct triple loop
        for n in range(1, 5):
            pair_list = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
            count = 0
            for mask in range(1 << len(pair_list)):
                rel = {p for bit, p in enumerate(pair_list) if mask >> bit & 1}
                if all(
                    (a, d) in rel
                    for a, b in rel
                    for c, d in rel
                    if b == c
                ):
                    count += 1
            assert len(all_natural_posets(n)) == count

    def test_known_sizes(self):
        assert [len(all_natural_posets(n)) for n in (1, 2, 3, 4, 5)] == [
            1,
            2,
            7,
            40,
            357,
        ]

    def test_orientations_share_comparability(self):
        for n in range(1, 5):
            for poset in all_natural_posets(n):
                edges = poset_predicates(poset).comparability_edges
                others = comparability_orientations(poset)
                assert poset in others
                for q in others:
                    assert poset_predicates(q).comparability_edges == edges

    def test_orientations_match_the_full_mask_scan(self):
        for n in range(1, 6):
            for poset in all_natural_posets(n):
                assert comparability_orientations(poset) == comparability_orientations_oracle(
                    poset
                )

    @settings(max_examples=10, deadline=None)
    @given(labelled_six_posets())
    def test_orientations_match_the_full_mask_scan_relabelled(self, poset):
        assert comparability_orientations(poset) == comparability_orientations_oracle(poset)

    def test_total_order_orientations(self):
        # the complete comparability graph admits one orientation per
        # permutation
        assert len(comparability_orientations(chain(3))) == 6

    def test_poset_hashable(self):
        assert len({Poset(2, {(1, 2)}), Poset(2, {(1, 2)})}) == 1
