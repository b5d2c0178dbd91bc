import hashlib
import random
from dataclasses import replace
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings

from enchain import cli, gamma_complex, verify
from enchain.errors import IdentityViolation, MalformedResult, SizeLimit
from enchain.io import render_json
from enchain.gamma_complex import COLORS, DecoratedPermutation, build_complex, grave_acute
from enchain.partitions import left_peak_positions, peak_polynomials
from enchain.polynomials import IntPolynomial
from enchain.posets import all_natural_posets, linear_extensions, poset_from_covers
from oracles import (
    cover_reduce,
    decorate,
    decorated_text,
    eager_colored_views,
    iso_check,
    labelled_six_posets,
    phi_face_map,
    s_p,
    splice_adjacency,
    spliced_adjacent_oracle,
    vertex_adjacent,
)

anti2 = poset_from_covers(2, [])
anti3 = poset_from_covers(3, [])
anti4 = poset_from_covers(4, [])
V = poset_from_covers(3, [(1, 3), (2, 3)])


def left_peaks_oracle(word):
    # independent in-test reimplementation with the leading-zero sentinel
    padded = (0,) + tuple(word)
    return [
        i
        for i in range(1, len(word))
        if padded[i - 1] < padded[i] > padded[i + 1]
    ]


class TestDecorate:
    def test_descent_pair(self):
        decs = decorate((2, 1))
        assert len(decs) == 4
        assert {d.bars for d in decs} == {((1, c),) for c in range(4)}

    def test_identity_word(self):
        assert len(decorate((1, 2))) == 1
        assert decorate((1, 2))[0].bars == ()

    def test_nine_letter_example(self):
        word = (3, 2, 4, 1, 5, 7, 6, 8, 9)
        decs = decorate(word)
        assert len(decs) == 4 ** 3
        wanted = DecoratedPermutation(word, ((1, 2), (3, 1), (6, 0)))
        assert wanted in decs
        assert decorated_text(wanted) == "3|^2 24|^1 157|^0 689"

    def test_counts_match_left_peaks(self):
        for word in permutations(range(1, 5)):
            assert len(decorate(word)) == 4 ** len(left_peaks_oracle(word))

    def test_invalid_bars_rejected(self):
        with pytest.raises(MalformedResult):
            DecoratedPermutation((1, 2), ((1, 0),))
        with pytest.raises(MalformedResult):
            DecoratedPermutation((2, 1), ())
        with pytest.raises(MalformedResult):
            DecoratedPermutation((2, 1), ((1, 4),))


class TestGraveAcute:
    def test_examples(self):
        assert grave_acute((2, 4)) == ((2,), (4,))
        assert grave_acute((2,)) == ((2,), ())
        assert grave_acute((3, 2, 5, 6)) == ((3,), (2, 5, 6))
        assert grave_acute((3, 2, 1, 5, 6)) == ((3, 2), (1, 5, 6))

    def test_rejects_interior_peak(self):
        with pytest.raises(MalformedResult):
            grave_acute((1, 3, 2))

    def test_ascending_block_has_a_one_letter_grave(self):
        # the first letter is claimed, and a one-letter grave needs no check
        assert grave_acute((1, 2, 4)) == ((1,), (2, 4))

    def test_two_letter_grave_is_checked_and_kept(self):
        assert grave_acute((3, 2, 1, 4)) == ((3, 2), (1, 4))

    def test_rising_two_letter_grave_is_refused(self):
        with pytest.raises(
            MalformedResult, match=r"^block \(2, 3, 1, 4\) is not decreasing-then-increasing$"
        ):
            grave_acute((2, 3, 1, 4))


class TestCoverReduce:
    def test_middle_bar_of_running_example(self):
        d = DecoratedPermutation((3, 2, 4, 1, 5, 7, 6, 8, 9), ((1, 2), (3, 1), (6, 0)))
        reduced = cover_reduce(d, 2)
        assert reduced.word == (3, 2, 1, 4, 5, 7, 6, 8, 9)
        assert reduced.bars == ((1, 2), (6, 0))
        assert decorated_text(reduced) == "3|^2 21457|^0 689"

    def test_only_bar_of_two_one(self):
        d = DecoratedPermutation((2, 1), ((1, 3),))
        with pytest.raises(MalformedResult):
            cover_reduce(d, 1)

    def test_only_bar_of_one_three_two(self):
        d = DecoratedPermutation((1, 3, 2), ((2, 1),))
        reduced = cover_reduce(d, 1)
        assert reduced.word == (1, 2, 3) and reduced.bars == ()

    def test_well_formed_covers_stay_in_sp(self):
        for n in (2, 3, 4):
            for poset in all_natural_posets(n):
                elements = set(s_p(poset))
                for d in elements:
                    for i in range(1, d.bar_count() + 1):
                        try:
                            reduced = cover_reduce(d, i)
                        except MalformedResult:
                            continue
                        assert reduced in elements

    def test_grading_drops_by_one(self):
        d = DecoratedPermutation((2, 1, 4, 3), ((1, 0), (3, 1)))
        assert cover_reduce(d, 2).bar_count() == 1


class TestAdjacency:
    def test_splice_across_prefix_lengths(self):
        u = DecoratedPermutation((2, 1, 3, 4), ((1, 0),))
        v = DecoratedPermutation((1, 2, 4, 3), ((3, 1),))
        assert vertex_adjacent(u, v)
        assert vertex_adjacent(v, u)

    def test_repeated_letters_block_adjacency(self):
        u = DecoratedPermutation((2, 1, 3), ((1, 0),))
        v = DecoratedPermutation((1, 3, 2), ((2, 1),))
        assert not vertex_adjacent(u, v)

    def test_equal_prefix_lengths(self):
        u = DecoratedPermutation((2, 1), ((1, 0),))
        v = DecoratedPermutation((2, 1), ((1, 1),))
        assert not vertex_adjacent(u, v)

    def test_absorbed_letter_pair(self):
        # the pair arising from 3|24|1, where the left vertex's decreasing
        # run claims a letter of the right vertex's block
        u = DecoratedPermutation((3, 2, 1, 4), ((1, 0),))
        v = DecoratedPermutation((2, 3, 4, 1), ((3, 1),))
        assert vertex_adjacent(u, v)


class TestComplex:
    def test_two_antichain(self):
        complex_ = build_complex(anti2)
        assert complex_.f_vector == (1, 4)
        assert complex_.edges == ()
        assert [decorated_text(v) for v in complex_.vertices] == [
            "2|^0 1",
            "2|^1 1",
            "2|^2 1",
            "2|^3 1",
        ]

    def test_v_poset(self):
        complex_ = build_complex(V)
        assert complex_.f_vector == (1, 4)

    def test_four_antichain_against_permutation_scan(self):
        one_peak = sum(
            1 for w in permutations(range(1, 5)) if len(left_peaks_oracle(w)) == 1
        )
        two_peak = sum(
            1 for w in permutations(range(1, 5)) if len(left_peaks_oracle(w)) == 2
        )
        assert (one_peak, two_peak) == (18, 5)
        complex_ = build_complex(anti4)
        assert complex_.f_vector == (1, 4 * one_peak, 16 * two_peak)
        assert complex_.f_vector == (1, 72, 80)
        assert complex_.kruskal_katona

    def test_f_polynomial_is_scaled_left_peak(self):
        for n in (1, 2, 3, 4):
            for poset in all_natural_posets(n):
                complex_ = build_complex(poset)
                expected = peak_polynomials(poset).left_peak.scale_powers(4)
                assert complex_.f_polynomial == expected

    def test_decoration_count_identity(self):
        # sum over decorated extensions of x^bars equals W_left(4x)
        for n in (1, 2, 3, 4):
            for poset in all_natural_posets(n):
                counts = {}
                for d in s_p(poset):
                    counts[d.bar_count()] = counts.get(d.bar_count(), 0) + 1
                poly = IntPolynomial(
                    [counts.get(k, 0) for k in range(max(counts) + 1)]
                )
                assert poly == peak_polynomials(poset).left_peak.scale_powers(4)

    def test_guard(self):
        with pytest.raises(SizeLimit):
            build_complex(poset_from_covers(7, []))

    def test_vertices_take_colors_zero_to_three_in_order_by_word(self):
        """The vertices view recolors each (word, peak) base in colors
        0..3, in that order, so every run of four vertices shares a word."""
        posets = [p for n in range(1, 6) for p in all_natural_posets(n)]
        for poset in posets + [poset_from_covers(6, [])]:
            vertices = build_complex(poset).vertices
            for k, vertex in enumerate(vertices):
                assert vertex.bars[0][1] == k % 4
                assert vertex.word == vertices[k - k % 4].word

    def test_no_decorated_permutation_is_validated_per_pair(self, monkeypatch):
        """build_complex takes the left peaks from the extension walk and
        reads the edges off words: it validates no DecoratedPermutation."""
        expected = build_complex(anti4)

        def forbidden(*args, **kwargs):
            raise AssertionError("build_complex validated or mapped an object")

        monkeypatch.setattr(DecoratedPermutation, "__post_init__", forbidden)
        assert build_complex(anti4) == expected
        assert build_complex(poset_from_covers(6, [])).f_vector == (1, 716, 7664, 3904)

    def test_recoloring_checks_color_and_bar_count(self):
        """The vertices view recolors each (word, peak) base through the
        validating constructor: one bar in each of colors 0..3, color 4
        rejected, and a base whose peak is not the word's left peak
        rejected on the view's first read."""
        complex_ = build_complex(poset_from_covers(2, []))
        assert DecoratedPermutation((2, 1), ((1, 3),)) in complex_.vertices
        assert all(vertex.bar_count() == 1 for vertex in complex_.vertices)
        with pytest.raises(MalformedResult):
            DecoratedPermutation((2, 1), ((1, 4),))
        bad = replace(complex_, bases=(((1, 2), 1),), pairs=())
        with pytest.raises(MalformedResult):
            bad.vertices


class TestColoredViews:
    """The complex is stored uncolored: its colored vertices and edges are
    views built on first read, equal to the eager expansion that
    build_complex once made, and nothing on the CLI or verify path reads
    them."""

    @staticmethod
    def assert_views_equal_eager(poset):
        complex_ = build_complex(poset)
        assert "vertices" not in vars(complex_) and "edges" not in vars(complex_)
        assert (complex_.vertices, complex_.edges) == eager_colored_views(complex_), poset
        f_vector = complex_.f_vector + (0, 0)  # f_0 and f_1 are 0 past its length
        assert (len(complex_.vertices), len(complex_.edges)) == f_vector[1:3]

    def test_every_natural_poset_up_to_five(self):
        for n in (1, 2, 3, 4, 5):
            for poset in all_natural_posets(n):
                self.assert_views_equal_eager(poset)

    def test_every_eighth_natural_six_poset(self):
        for poset in all_natural_posets(6)[::8]:
            self.assert_views_equal_eager(poset)

    @given(labelled_six_posets())
    @settings(max_examples=20, deadline=None)
    def test_random_labelled_six_posets(self, poset):
        self.assert_views_equal_eager(poset.canonicalized())

    def test_build_complex_leaves_the_views_unbuilt(self):
        complex_ = build_complex(anti4)
        assert "vertices" not in vars(complex_) and "edges" not in vars(complex_)
        assert len(complex_.bases) == 18 and len(complex_.pairs) == 5
        assert all(left_peak_positions(word) == [peak] for word, peak in complex_.bases)
        assert all(a < b for a, b in complex_.pairs)
        assert len(complex_.vertices) == 72
        assert "vertices" in vars(complex_) and "edges" not in vars(complex_)

    def test_cli_and_verify_color_no_object(self, monkeypatch):
        """With DecoratedPermutation's constructor forbidden, verify_poset
        and cmd_complex on the 6-antichain still succeed, so neither builds
        a decorated permutation or reads the colored views."""
        anti6 = poset_from_covers(6, [])

        def forbidden(self):
            raise AssertionError("a colored vertex was built")

        monkeypatch.setattr(DecoratedPermutation, "__post_init__", forbidden)
        row = verify.verify_poset(anti6)
        assert row["complex"]["f_vector"] == [1, 716, 7664, 3904]
        assert row["complex"]["kruskal_katona"] is True
        assert not row["alarms"]
        out = render_json(cli.cmd_complex(anti6, None))
        digest = Path(__file__).parent / "data" / "complex_anti6.sha256"
        assert hashlib.sha256(out.encode()).hexdigest() == digest.read_text().strip()
        with pytest.raises(AssertionError, match="colored vertex"):
            build_complex(anti4).vertices


class TestColoredTexts:
    """cmd_complex writes each base's four colored texts from its word and
    peak; they are the texts of the colored vertices, and its edges the
    texts of GammaComplex.edges."""

    @staticmethod
    def assert_texts_match_oracle(poset):
        payload = cli.cmd_complex(poset, None)
        complex_ = build_complex(poset.canonicalized())
        texts = [decorated_text(v) for v in complex_.vertices]
        assert payload["vertices"] == texts, poset
        assert payload["edges"] == [(texts[a], texts[b]) for a, b in complex_.edges], poset

    def test_every_natural_poset_up_to_five(self):
        for n in (1, 2, 3, 4, 5):
            for poset in all_natural_posets(n):
                self.assert_texts_match_oracle(poset)

    def test_seeded_random_labellings_of_six_posets(self):
        rng = random.Random(0)
        for poset in rng.sample(all_natural_posets(6), 12):
            self.assert_texts_match_oracle(poset.relabeled(rng.sample(range(1, 7), 6)))

    def test_labels_of_ten_or_more(self, monkeypatch):
        # the word is sliced by letters, not the joined digits by position
        bases = (((2, 10, 1, 11), 2), ((10, 2, 11), 1))
        stub = replace(build_complex(anti2), bases=bases, pairs=((0, 1),))
        monkeypatch.setattr(gamma_complex, "build_complex", lambda poset: stub)
        payload = cli.cmd_complex(anti2, None)
        first = [f"210|^{c} 111" for c in COLORS]
        second = [f"10|^{c} 211" for c in COLORS]
        assert payload["vertices"] == first + second
        assert payload["vertices"] == [decorated_text(v) for v in stub.vertices]
        assert payload["edges"] == [(u, v) for u in first for v in second]


def pair_scan_edges(complex_):
    """The edges of the complex from vertex_adjacent on every pair of
    color-0 vertices, expanded over the colors in build_complex's order."""
    bases = complex_.vertices[::4]
    return tuple(
        (a * 4 + ca, b * 4 + cb)
        for a, b in combinations(range(len(bases)), 2)
        if vertex_adjacent(bases[a], bases[b])
        for ca in range(4)
        for cb in range(4)
    )


def splice_edges(poset):
    """The colored edges in build_complex's order, from the adjacency of
    the splice oracle's filtered pair loop."""
    adj = splice_adjacency(poset)
    return tuple(
        (a * 4 + ca, b * 4 + cb)
        for a, row in enumerate(adj)
        for b in range(a + 1, row.bit_length())
        if row >> b & 1
        for ca in COLORS
        for cb in COLORS
    )


class TestFaceMapEdges:
    """build_complex reads each edge off a two-peak extension through the
    face map; the splice oracle, the pair loop it replaced, checks it on
    every poset it accepts."""

    def test_every_natural_poset_up_to_six(self):
        for n in range(1, gamma_complex.COMPLEX_GUARD_N + 1):
            for poset in all_natural_posets(n):
                assert build_complex(poset).edges == splice_edges(poset), poset

    def test_dropped_one_peak_word_is_an_alarm(self, monkeypatch):
        """Without the one-peak word 2134, the face map's image of 2|14|3
        at its first bar is no vertex: build_complex names the word, and
        the row's complex check fails with an alarm."""
        words = gamma_complex.linear_extensions(anti4, statistics=True)
        assert ((2, 1, 3, 4), (1,), 1) in words and ((2, 1, 4, 3), (1, 3), 2) in words
        kept = tuple(entry for entry in words if entry[0] != (2, 1, 3, 4))
        monkeypatch.setattr(gamma_complex, "linear_extensions", lambda poset, statistics: kept)
        with pytest.raises(IdentityViolation, match=r"\(2, 1, 4, 3\) at bar 1 to \(2, 1, 3, 4\)"):
            build_complex(anti4)
        row = verify.verify_poset(anti4)
        assert row["complex"] == {"identity": False}
        assert [a for a in row["alarms"] if a.startswith("complex: ")] == [
            "complex: face map sends (2, 1, 4, 3) at bar 1 to (2, 1, 3, 4), "
            "not a one-peak extension with its peak at 1"
        ]


class TestPairLoop:
    """A scan of every pair of color-0 vertices through vertex_adjacent
    also finds the complex's edges."""

    def test_every_natural_poset_up_to_five(self):
        for n in (1, 2, 3, 4, 5):
            for poset in all_natural_posets(n):
                complex_ = build_complex(poset)
                assert complex_.edges == pair_scan_edges(complex_)

    def test_six_antichain(self):
        complex_ = build_complex(poset_from_covers(6, []))
        assert complex_.edges == pair_scan_edges(complex_)

    @given(labelled_six_posets())
    @settings(max_examples=30, deadline=None)
    def test_random_labelled_six_posets(self, poset):
        complex_ = build_complex(poset.canonicalized())
        assert complex_.edges == pair_scan_edges(complex_)


def assert_pair_tests_agree(poset):
    """vertex_adjacent, which decides on words, against the object-level
    splice on every ordered pair of color-0 one-bar decorated extensions,
    built by decorate rather than by build_complex."""
    bases = [
        d
        for w in linear_extensions(poset)
        for d in decorate(w)
        if d.bar_count() == 1 and d.bars[0][1] == 0
    ]
    for u in bases:
        for v in bases:
            assert vertex_adjacent(u, v) == spliced_adjacent_oracle(u, v), (u, v)


class TestWordPairTest:
    def test_every_natural_poset_up_to_five(self):
        for n in (1, 2, 3, 4, 5):
            for poset in all_natural_posets(n):
                assert_pair_tests_agree(poset)

    def test_six_antichain(self):
        assert_pair_tests_agree(poset_from_covers(6, []))

    @given(labelled_six_posets())
    @settings(max_examples=30, deadline=None)
    def test_random_labelled_six_posets(self, poset):
        assert_pair_tests_agree(poset.canonicalized())


class TestPhi:
    def test_two_bar_example(self):
        d = DecoratedPermutation((2, 1, 4, 3), ((1, 0), (3, 1)))
        image = phi_face_map(d)
        assert [decorated_text(v) for v in image] == ["2|^0 134", "124|^1 3"]

    def test_no_bars_empty_face(self):
        assert phi_face_map(DecoratedPermutation((1, 2, 3), ())) == []

    def test_single_bar_fixed_point(self):
        d = DecoratedPermutation((2, 1), ((1, 2),))
        assert phi_face_map(d) == [d]

    def test_iso_small(self):
        for n in (1, 2, 3, 4):
            for poset in all_natural_posets(n):
                report = iso_check(poset)
                assert report.bijective
                assert report.grade_preserving
                assert report.covers_consistent
                assert report.element_count == report.face_count

    def test_malformed_frequency_reported(self):
        report = iso_check(anti2)
        assert report.malformed_covers == 4 and report.total_covers == 4

    def test_full_antichain_uses_every_extension(self):
        # for the antichain the decorated extensions are all of Dec_n
        for n in (2, 3):
            poset = poset_from_covers(n, [])
            assert len(linear_extensions(poset)) == len(
                list(permutations(range(1, n + 1)))
            )
            total = sum(
                4 ** len(left_peaks_oracle(w))
                for w in permutations(range(1, n + 1))
            )
            assert len(s_p(poset)) == total
