import hashlib
import random
import time
from collections import Counter
from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import example, given, settings

from enchain import gamma_complex, geometry, io, partitions, posets, toric, verify
from enchain.errors import InputError, SizeLimit
from enchain.partitions import left_peak_positions
from enchain.polynomials import IntPolynomial
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
    NotAnIdeal,
    antichains_oracle,
    chain_counts_oracle,
    comparability_orientations_oracle,
    descent_count,
    ideal_lattice_oracle,
    ideal_transfer,
    ideal_transfer_oracle,
    labelled_six_posets,
    labelled_six_relations,
    make_ideal,
    pair_closure,
    pair_facts,
    peak_positions,
    star,
    star_oracle,
    topological_order_oracle,
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
        assert p.topological_order() == (2, 1)
        assert p.canonicalized().pairs == {(1, 2)}

    def test_cycle(self):
        with pytest.raises(InputError, match="^element 1 lies on or above a cycle of the relation$"):
            poset_from_covers(2, [(1, 2), (2, 1)])

    def test_self_loop(self):
        with pytest.raises(InputError, match="^element 1 lies on or above a cycle of the relation$"):
            poset_from_covers(2, [(1, 1)])

    def test_label_out_of_range(self):
        with pytest.raises(InputError, match=r"^label outside 1\.\.2 in cover \(1, 3\)$"):
            poset_from_covers(2, [(1, 3)])

    def test_relabel_roundtrip(self):
        q = V.relabeled((3, 1, 2))
        assert q.pairs == {(2, 1), (3, 1)}
        assert q.canonicalized().n == 3

    def test_only_the_order_is_stored(self):
        assert Poset.__slots__ == ("n", "_above", "_below", "naturally_labeled")
        with pytest.raises(AttributeError):
            V.covers_seen = True

    def test_equal_posets_share_one_covers_entry(self):
        first = poset_from_covers(7, [(1, 5), (2, 5), (5, 7), (3, 6)])
        second = poset_from_covers(7, [(3, 6), (2, 5), (1, 5), (5, 7), (1, 7)])
        assert first == second and first is not second
        before = Poset.covers.cache_info()
        assert first.covers() is second.covers()
        after = Poset.covers.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


class TestTopologicalOrder:
    """Poset.topological_order, and canonicalized() built from it, against
    the greedy min over a set that the bitmask walk replaced."""

    @staticmethod
    def assert_matches_oracle(poset):
        order = topological_order_oracle(poset)
        assert poset.topological_order() == order, poset.pairs
        assert poset.canonicalized() == (poset if poset.naturally_labeled else poset.relabeled(order))

    def test_relabelings_and_orientations_up_to_five(self):
        for n in range(1, 6):
            for natural in all_natural_posets(n):
                for sigma in verify._relabelings(n):
                    self.assert_matches_oracle(natural.relabeled(sigma))
                for orientation in comparability_orientations(natural):
                    self.assert_matches_oracle(orientation)

    def test_random_labelled_seven_element_posets(self):
        rng = random.Random(7)
        for _ in range(50):
            # a random relation along a random order of the labels is acyclic
            order = rng.sample(range(1, 8), 7)
            relation = [(a, b) for a, b in combinations(order, 2) if rng.random() < 0.3]
            self.assert_matches_oracle(poset_from_covers(7, relation))


class TestMaskBuilder:
    """The per-element bitsets against the pair-set closure they replaced."""

    def built(self, n, covers):
        """poset_from_covers(n, covers), its pairs, covers, lower covers and
        natural labelling checked against pair_closure and pair_facts."""
        poset = poset_from_covers(n, covers)
        pairs = pair_closure(n, covers)
        assert poset.pairs == pairs, (n, covers)
        facts = (poset.covers(), poset.lower_covers(), poset.naturally_labeled)
        assert facts == pair_facts(n, pairs), (n, covers)
        return poset

    def same(self, poset, other):
        assert poset == other and hash(poset) == hash(other), (poset, other)
        # relabeled and the orientations hand their below bitsets over: as derived
        assert (poset._below, poset.naturally_labeled) == (other._below, other.naturally_labeled)

    def check_derived(self, poset):
        """relabeled and canonicalized against the pair set relabeled, and
        each comparability orientation against its own pair set: equal
        posets, equal hashes, distinct pair sets unequal."""
        n = poset.n
        reverse, shift = tuple(range(n, 0, -1)), tuple(range(2, n + 1)) + (1,)
        for pi in (reverse, shift, poset.topological_order()):
            pos = {old: new + 1 for new, old in enumerate(pi)}
            relabeled = self.built(n, [(pos[a], pos[b]) for a, b in poset.pairs])
            self.same(poset.relabeled(pi), relabeled)
            self.same(relabeled.relabeled([pos[e] for e in poset.elements()]), poset)
            if pi == poset.topological_order():
                self.same(poset.canonicalized(), relabeled)
        found = comparability_orientations(poset)
        for orientation in found:
            self.same(orientation, self.built(n, sorted(orientation.pairs)))
        assert len(set(found)) == len({o.pairs for o in found}) == len(found)

    def test_every_natural_poset_up_to_five(self):
        for n in range(1, 6):
            naturals = all_natural_posets(n)
            for natural in naturals:
                self.same(self.built(n, sorted(natural.pairs)), natural)  # the full relation
                self.same(self.built(n, natural.covers()[::-1]), natural)
                self.check_derived(natural)
            assert len(set(naturals)) == len({p.pairs for p in naturals}) == len(naturals)

    @settings(max_examples=50, deadline=None)
    @given(labelled_six_relations())
    def test_random_labelled_six_element_relations(self, relation):
        self.check_derived(self.built(6, relation))

    @pytest.mark.parametrize(
        "covers, expected",
        [
            ([(1, 2), (2, 3), (1, 2)], ((1, 2), (2, 3))),  # a duplicated cover
            ([(1, 2), (2, 3), (1, 3)], ((1, 2), (2, 3))),  # a transitive pair as a cover
            ([(3, 2), (2, 1), (3, 2)], ((2, 1), (3, 2))),
            ([(1, 3), (2, 3), (1, 3)], ((1, 3), (2, 3))),
        ],
    )
    def test_redundant_covers(self, covers, expected):
        assert self.built(3, covers).covers() == expected

    @pytest.mark.parametrize(
        "covers",
        [
            [(1, 1)],  # a self-loop
            [(1, 2), (2, 2), (2, 3)],
            [(1, 2), (2, 1)],
            [(1, 2), (2, 3), (3, 1), (3, 4), (5, 1)],  # a 3-cycle with a tail above and below
            [(4, 5), (5, 4), (1, 2), (1, 2)],
        ],
    )
    def test_cycles(self, covers):
        for build in (poset_from_covers, pair_closure):
            with pytest.raises(InputError, match="cycle|precedes itself after closure"):
                build(5, covers)


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

    @staticmethod
    def assert_matches_filter(poset):
        """The walk against the permutations that respect every pair, and
        its first extension against the greedy topological order."""
        expected = [
            w
            for w in permutations(poset.elements())
            if all(w.index(a) < w.index(b) for a, b in poset.pairs)
        ]
        extensions = linear_extensions(poset)
        assert extensions == sorted(expected), poset
        assert extensions[0] == poset.topological_order(), poset

    def test_exhaustive_against_filter(self):
        for n in range(1, 6):
            for poset in all_natural_posets(n):
                self.assert_matches_filter(poset)

    @given(labelled_six_posets())
    @settings(max_examples=30, deadline=None)
    def test_random_labelled_six_posets_against_filter(self, poset):
        self.assert_matches_filter(poset)

    def test_guard_holds_with_statistics(self):
        with pytest.raises(SizeLimit, match=r"^linear extension enumeration guarded at n <= 10$"):
            posets._extension_walk(antichain(11))

    @staticmethod
    def assert_carried_statistics(poset):
        """The walk's three columns, each of length e(P): the words against
        linear_extensions, the left peaks and descent counts against a scan
        of each word, and on a natural poset the peak, left peak and
        descent polynomials against the counts of per-word scans."""
        columns = posets._extension_walk(poset)
        assert len(columns) == 3 and all(type(column) is tuple for column in columns), poset
        words, peak_sets, descent_counts = columns
        assert list(words) == linear_extensions(poset), poset
        assert len(peak_sets) == len(descent_counts) == len(words), poset
        for word, peaks, descents in zip(words, peak_sets, descent_counts):
            assert list(peaks) == left_peak_positions(word), word
            assert descents == descent_count(word), word
        if poset.naturally_labeled:
            polys = partitions.peak_polynomials(poset)
            for poly, statistic in (
                (polys.peak, lambda word: len(peak_positions(word))),
                (polys.left_peak, lambda word: len(left_peak_positions(word))),
                (polys.descent, descent_count),
            ):
                counts = Counter(map(statistic, words))
                assert poly == IntPolynomial([counts[k] for k in range(poset.n + 1)]), poset
            assert polys.extension_count == len(words), poset

    def test_carried_statistics_on_every_natural_poset_up_to_six(self):
        for n in range(1, 7):
            for poset in all_natural_posets(n):
                self.assert_carried_statistics(poset)

    @given(labelled_six_posets())
    @settings(max_examples=30, deadline=None)
    def test_carried_statistics_on_random_labelled_six_posets(self, poset):
        self.assert_carried_statistics(poset)
        self.assert_carried_statistics(poset.canonicalized())

    def test_carried_statistics_on_the_seven_and_eight_antichains(self):
        for n in (7, 8):
            self.assert_carried_statistics(antichain(n))

    def test_each_set_of_peaks_is_one_tuple(self):
        # the 8-antichain's 40,320 words: 34 sets of positions in 1..7, no two adjacent
        _, peak_sets, _ = posets._extension_walk(antichain(8))
        assert len(set(peak_sets)) == len(set(map(id, peak_sets))) == 34


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
        with pytest.raises(InputError, match=r"^label outside 1\.\.2 in \[5\]$"):
            make_ideal(chain(2), {5})

    def test_label_zero(self):
        with pytest.raises(InputError, match=r"^label outside 1\.\.2 in \[0\]$"):
            make_ideal(chain(2), {0})

    def test_star_label_zero(self):
        with pytest.raises(InputError, match=r"^label outside 1\.\.2 in \[0\]$"):
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


class TestTransferGuard:
    """A bound whose transfer passes cost more than TRANSFER_GUARD is
    refused before any pass, by every count that reads the transfer."""

    def test_guard_is_inclusive(self, monkeypatch):
        # the 2-chain's J(P) has 2 cover edges, so a step costs 2 * 2 + 64
        monkeypatch.setattr(posets, "TRANSFER_GUARD", 68 * 10)
        assert posets.ideal_chain_count(chain(2), 10) == 1 + 2 * 2 * 10 + 4 * 45
        message = r"^bound m=11: 748 transfer additions exceed guard 680$"
        with pytest.raises(SizeLimit, match=message):
            posets.ideal_chain_count(chain(2), 11)

    def test_huge_bounds_are_refused_at_once(self):
        message = r"^bound m=100000000: 6800000000 transfer additions exceed guard 33554432$"
        start = time.perf_counter()
        for count in (partitions.count_partitions, geometry.count_dilation):
            with pytest.raises(SizeLimit, match=message):
                count(chain(2), 10**8)
        assert time.perf_counter() - start < 1

    def test_verify_rows_fit_below_it(self):
        # the most a row reads: the enriched relation of the 16-antichain,
        # the widest poset inside the ideal guard, at m = n + 2
        assert 18 * (2 * 16 * 2**15 + 64) <= posets.TRANSFER_GUARD


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
        relation, narrow check, Hilbert certificate) share one walk; the
        volume check reads the SizeLimit that ehrhart_and_hstar kept for
        the gamma check, so five of them ask for the table."""
        posets._ideal_table.cache_clear()
        geometry.ehrhart_and_hstar.cache_clear()
        row = verify.verify_poset(antichain(17))
        info = posets._ideal_table.cache_info()
        assert (info.misses, info.hits) == (1, 4)
        digest = hashlib.sha256(io.render_json(row).encode()).hexdigest()
        assert digest == "c0d2f506d99d33b505e620f9738f655baa528c0462f6651249e21fdb6e6277cb"
        with pytest.raises(SizeLimit, match=r"^65545 ideals of size <= 9 exceed guard 65536$"):
            posets._ideal_table(antichain(17))


def memos():
    """(name, memo) for every memo of the modules that keep per-poset
    facts, each memo once."""
    found = {}
    for module in (posets, geometry, partitions, toric, gamma_complex):
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                found.setdefault(id(value), (f"{module.__name__}.{name}", value))
    return list(found.values())


class TestComputedOncePerRow:
    """A verify_poset row computes each per-poset fact once: the memos
    hold a row's working set, up to the 5-chain's 120 orientations."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """Cold memos, and the posets whose linear extensions are walked."""
        for _, memo in memos():
            memo.cache_clear()
        walked = []
        walk = posets._extension_walk.__wrapped__

        def counted(poset):
            walked.append(poset)
            return walk(poset)

        # a memo of its own, so each call recorded is a walk, whoever asks
        monkeypatch.setattr(posets, "_extension_walk", posets._memo(counted))
        return walked

    def test_sweep_to_four_computes_each_fact_once(self, walks):
        # 168 and 218 are the distinct posets and (poset, from_empty) keys read
        for n in range(1, 5):
            for poset in all_natural_posets(n):
                verify.verify_poset(poset)
        assert len(walks) == len(set(walks)) == 50
        assert posets._ideal_table.cache_info().misses == 168
        assert posets._chain_counts.cache_info().misses == 218

    def test_no_row_repeats_its_work(self, walks):
        """Every natural poset with n <= 5: a row walks no poset's
        extensions twice, and the same row run again misses no memo."""
        for n in range(1, 6):
            for poset in all_natural_posets(n):
                walks.clear()
                verify.verify_poset(poset)
                assert len(walks) == len(set(walks)), poset
                before = {name: memo.cache_info().misses for name, memo in memos()}
                verify.verify_poset(poset)
                after = {name: memo.cache_info().misses for name, memo in memos()}
                assert after == before, poset


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
        assert len({Poset(2, [0, 1 << 2, 0]), Poset(2, [0, 1 << 2, 0])}) == 1
