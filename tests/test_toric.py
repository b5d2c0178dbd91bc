import random
import re
from collections import Counter
from itertools import combinations, combinations_with_replacement
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings

from enchain import gamma_complex, geometry, partitions, posets, toric, verify
from enchain.errors import IdentityViolation, ImageMismatch, Infeasible, SizeLimit
from enchain.gamma_complex import build_complex
from enchain.geometry import count_dilation
from enchain.polynomials import IntPolynomial
from enchain.posets import _bits, _flag_faces, all_natural_posets, poset_from_covers
from enchain.toric import (
    ToricBinomial,
    _symmetries,
    buchberger_verify,
    construct_order,
    generate_groebner_candidates,
    hilbert_certificate,
    initial_graph,
    leading_terms_agree,
    triangulation_extract,
)

from oracles import (
    SignedVariable,
    TermOrder,
    antichain_weights,
    clique_counts_oracle,
    edge_set,
    groebner_candidates_oracle,
    ideal_pairs_oracle,
    incomparable_ideal_pairs,
    independent_sets_oracle,
    initial_graph_oracle,
    labelled_six_posets,
    lattice_points_ep,
    max_of_union,
    normal_form_oracle,
    standard_monomial_oracle,
    standard_sizes_oracle,
    star_oracle,
    variables_and_map,
)

chain2 = poset_from_covers(2, [(1, 2)])
anti2 = poset_from_covers(2, [])
single = poset_from_covers(1, [])


def var_id(poset, antichain, signs):
    return variables_and_map(poset).index(SignedVariable(antichain, signs))


def _reduce_to_zero(poly, lead_map, key_fn):
    """Reference reducer over integer coefficients: repeatedly rewrite
    the largest monomial by the first basis element whose (squarefree
    quadratic) lead divides it; zero means reduction succeeded, an
    irreducible largest monomial can never cancel later and fails."""
    while poly:
        mono = max(poly, key=key_fn)
        coeff = poly.pop(mono)
        divisor = None
        for pair in combinations(sorted(set(mono)), 2):
            if pair in lead_map:
                divisor = pair
                break
        if divisor is None:
            return False
        rest = list(mono)
        rest.remove(divisor[0])
        rest.remove(divisor[1])
        new = tuple(sorted(rest + list(lead_map[divisor])))
        value = poly.get(new, 0) + coeff
        if value:
            poly[new] = value
        elif new in poly:
            del poly[new]
    return True


def _leads_and_tails(binomials, weights):
    leading = TermOrder(weights).leading
    leads = [leading(b.lead, b.tail) for b in binomials]
    tails = [b.tail if lead == b.lead else b.lead for b, lead in zip(binomials, leads)]
    return leads, tails


def _distinct_spairs(binomials, weights):
    """Index pairs of basis elements whose leads share a variable."""
    leads, _ = _leads_and_tails(binomials, weights)
    incidence = {}
    for g, lead in enumerate(leads):
        for v in lead:
            incidence.setdefault(v, []).append(g)
    pairs = set()
    for members in incidence.values():
        pairs.update(combinations(members, 2))
    return pairs


def _lcm_classes(binomials, weights):
    """The distinct lcms of two distinct leads that share a variable."""
    leads = set(_leads_and_tails(binomials, weights)[0])
    return {
        tuple(sorted(set(a) | set(b)))
        for a, b in combinations(leads, 2)
        if set(a) & set(b)
    }


def reference_buchberger(binomials, weights):
    """Buchberger's criterion by leading-monomial reduction of each
    S-polynomial, in sorted pair order."""
    leads, tails = _leads_and_tails(binomials, weights)
    key_fn = TermOrder(weights).monomial_key
    lead_map = {}
    for lead, tail in zip(leads, tails):
        lead_map.setdefault(lead, tail)
    for i, j in sorted(_distinct_spairs(binomials, weights)):
        li, lj = leads[i], leads[j]
        union = tuple(sorted(set(li) | set(lj)))
        m1 = tuple(sorted(tails[i] + tuple(v for v in union if v not in li)))
        m2 = tuple(sorted(tails[j] + tuple(v for v in union if v not in lj)))
        poly = {m1: 1, m2: -1} if m1 != m2 else {}
        if not _reduce_to_zero(poly, lead_map, key_fn):
            return False
    return True


def _drop_index(var, index, idx_map):
    keep = [(e, s) for e, s in zip(var.antichain, var.signs) if e != index]
    reduced = SignedVariable(tuple(e for e, _ in keep), tuple(s for _, s in keep))
    return idx_map[reduced]


def _sign_patterns(support):
    for mask in range(1 << len(support)):
        yield {e: (1 if mask >> i & 1 else -1) for i, e in enumerate(support)}


def _signed_id(antichain, pattern, idx_map):
    return idx_map[SignedVariable(antichain, tuple(pattern[e] for e in antichain))]


def reference_candidates(poset):
    """Both binomial families as [(lead, tail, family)], walked over
    SignedVariable objects and sign dicts: family (1) by shared indices
    of opposite sign, family (2) by incomparable ideal pairs and every
    sign pattern on the union of their maxima."""
    variables = variables_and_map(poset)
    idx_map = {v: i for i, v in enumerate(variables)}
    out = []
    seen = set()

    def add(lead, tail, family):
        if (lead, tail) not in seen:
            seen.add((lead, tail))
            out.append((lead, tail, family))

    sign_of = [dict(zip(v.antichain, v.signs)) for v in variables]
    for u, v in combinations(range(len(variables)), 2):
        for index in sorted(set(sign_of[u]) & set(sign_of[v])):
            if sign_of[u][index] != sign_of[v][index]:
                tail = tuple(
                    sorted(
                        (
                            _drop_index(variables[u], index, idx_map),
                            _drop_index(variables[v], index, idx_map),
                        )
                    )
                )
                add((u, v), tail, 1)
    for ideal_i, ideal_j in incomparable_ideal_pairs(poset):
        a1, a2 = ideal_i.max_elements, ideal_j.max_elements
        max_union = max_of_union(poset, ideal_i, ideal_j)
        max_star = star_oracle(poset, ideal_i, ideal_j).max_elements
        for pattern in _sign_patterns(sorted(set(a1) | set(a2))):
            lead = tuple(
                sorted((_signed_id(a1, pattern, idx_map), _signed_id(a2, pattern, idx_map)))
            )
            tail = tuple(
                sorted(
                    (
                        _signed_id(max_union, pattern, idx_map),
                        _signed_id(max_star, pattern, idx_map),
                    )
                )
            )
            add(lead, tail, 2)
    return out


def reference_edges(poset):
    """Leading-term graph edges: pairs of variables with some element of
    opposite sign (by plus/minus masks), and the signed maxima of every
    incomparable ideal pair."""
    variables = variables_and_map(poset)
    idx_map = {v: i for i, v in enumerate(variables)}
    plus = []
    minus = []
    for v in variables:
        p = q = 0
        for e, s in zip(v.antichain, v.signs):
            if s > 0:
                p |= 1 << e
            else:
                q |= 1 << e
        plus.append(p)
        minus.append(q)
    edges = set()
    for u, v in combinations(range(len(variables)), 2):
        if (plus[u] & minus[v]) or (minus[u] & plus[v]):
            edges.add((u, v))
    for ideal_i, ideal_j in incomparable_ideal_pairs(poset):
        a1, a2 = ideal_i.max_elements, ideal_j.max_elements
        for pattern in _sign_patterns(sorted(set(a1) | set(a2))):
            edges.add(
                tuple(
                    sorted(
                        (_signed_id(a1, pattern, idx_map), _signed_id(a2, pattern, idx_map))
                    )
                )
            )
    return frozenset(edges)


def broken_bases(basis):
    """Three bases that are no longer the full candidate set."""
    return {
        "family_1_dropped": [b for b in basis if b.family != 1],
        "family_1_only": [b for b in basis if b.family == 1],
        "every_7th_dropped": [b for k, b in enumerate(basis) if k % 7],
    }


def duplicate_leads(poset, basis, weights, same_image):
    """Binomials that repeat the lead of a basis element with another tail
    of smaller weight sum (a tie would leave the binomial no lead), taken
    from the monomials the basis mentions: tails with the lead's image
    (the basis stays a Groebner basis) if same_image, else any."""
    variables = variables_and_map(poset)
    monomials = {m for b in basis for m in (b.lead, b.tail)}
    key = {m: sum(weights[v] for v in m) for m in monomials}
    image = {
        m: tuple(map(sum, zip(*(variables[v].image(poset.n) for v in m))))
        for m in monomials
    }
    return [
        ToricBinomial(b.lead, m, b.family)
        for b in basis
        for m in sorted(monomials)
        if m != b.tail
        and key[m] < key[b.lead]
        and (not same_image or image[m] == image[b.lead])
    ]


class LexOrder:
    """Lexicographic order on monomials of one degree, x0 < x1 < ...: the
    reference that lex_weights is checked against."""

    def monomial_key(self, mono):
        return tuple(sorted(mono, reverse=True))

    def leading(self, m1, m2):
        return m1 if self.monomial_key(m1) >= self.monomial_key(m2) else m2


def lex_weights(count):
    """The weights 3^i of count variables, which rank quadratic monomials
    as LexOrder does: for b > d >= c, 3^b >= 3 * 3^d > 3^c + 3^d.  Checked
    here on every pair of quadratic monomials in 6 variables, no two
    distinct ones tying."""
    weights = tuple(3**i for i in range(max(count, 6)))
    lex = LexOrder()
    monomials = list(combinations_with_replacement(range(6), 2))
    for m1 in monomials:
        for m2 in monomials:
            w1, w2 = (weights[a] + weights[b] for a, b in (m1, m2))
            assert (w1 > w2) == (lex.leading(m1, m2) == m1 != m2) and (w1 == w2) == (m1 == m2)
    return weights[:count]


def _image(rule, sigma):
    (a, b), (p, q) = rule
    return tuple(sorted((sigma[a], sigma[b]))), tuple(sorted((sigma[p], sigma[q])))


def _orbit(rule, symmetries):
    """The rules reached from rule by the group the symmetries generate."""
    seen, stack = {rule}, [rule]
    while stack:
        rule = stack.pop()
        for sigma in symmetries:
            image = _image(rule, sigma)
            if image not in seen:
                seen.add(image)
                stack.append(image)
    return seen


class TestVariables:
    def test_two_chain(self):
        labels = [v.label() for v in variables_and_map(chain2)]
        assert labels == ["o", "1-", "1+", "2-", "2+"]

    def test_bijection_with_lattice_points(self):
        for n in (1, 2, 3):
            for poset in all_natural_posets(n):
                variables = variables_and_map(poset)
                images = sorted(v.image(poset.n) for v in variables)
                assert images == lattice_points_ep(poset)

    def test_origin_maps_to_s(self):
        assert variables_and_map(chain2)[0].image(2) == (0, 0)

    def test_mixed_sign_image(self):
        v = SignedVariable((1, 2), (1, -1))
        assert v.image(2) == (1, -1)
        assert v.label() == "1+2-"

    @staticmethod
    def assert_masks_match_oracle(poset):
        """The ids, labels and images of _sign_masks are those of the
        sorted SignedVariable objects of variables_and_map."""
        variables = variables_and_map(poset)
        plus, minus, index = toric._sign_masks(poset)
        expected = [
            tuple(sum(1 << e for e, s in zip(v.antichain, v.signs) if s == sign) for sign in (1, -1))
            for v in variables
        ]
        assert list(zip(plus, minus)) == expected, poset.pairs
        assert index == {pair: vid for vid, pair in enumerate(expected)}
        assert toric.variable_labels(poset) == tuple(v.label() for v in variables)
        assert toric._images(poset) == [v.image(poset.n) for v in variables]

    def test_masks_match_oracle_up_to_five(self):
        for n in (1, 2, 3, 4, 5):
            for poset in all_natural_posets(n):
                self.assert_masks_match_oracle(poset)

    @given(labelled_six_posets())
    @example(poset_from_covers(6, []))
    @settings(max_examples=10, deadline=None)
    def test_masks_match_oracle_random_six_element_posets(self, poset):
        self.assert_masks_match_oracle(poset)


class TestCandidates:
    def test_replaced_tail_is_an_image_mismatch(self, monkeypatch):
        """The first family-(2) binomial of the 2-antichain, x_1- x_2- minus
        x_1-2- x_o, given the tail x_1-2-^2 instead: the packed image sums
        differ, and the alarm names both images."""
        original = toric._family_two

        def replaced(poset):
            entries = original(poset)
            masks, pattern = next(entries)
            yield (masks[0], masks[1], masks[2], masks[2]), pattern
            yield from entries

        monkeypatch.setattr(toric, "_family_two", replaced)
        with pytest.raises(ImageMismatch, match=r"family=2\) maps to \(-1, -1\) vs \(-2, -2\)$"):
            generate_groebner_candidates(anti2)

    def test_candidates_are_named_binomials(self):
        # A ToricBinomial equals the plain tuple of its fields, so the
        # oracle comparison in pair scan order would pass plain tuples too.
        bowtie = poset_from_covers(5, [(1, 3), (2, 3), (3, 4), (3, 5)])
        for poset in [*(p for n in (1, 2, 3, 4) for p in all_natural_posets(n)), bowtie]:
            for b in generate_groebner_candidates(poset):
                assert type(b) is ToricBinomial, (poset.pairs, b)
                lead, tail, family = b
                assert (b.lead, b.tail, b.family) == (lead, tail, family)
                assert lead[0] < lead[1] and tail[0] <= tail[1] and family in (1, 2)
        basis = generate_groebner_candidates(anti2)
        assert repr(basis[0]) == "ToricBinomial(lead=(1, 2), tail=(0, 0), family=1)"
        assert repr(basis[5]) == "ToricBinomial(lead=(3, 4), tail=(1, 1), family=1)"
        assert basis[0] == ((1, 2), (0, 0), 1)

    def test_two_chain_exactly_two(self):
        basis = generate_groebner_candidates(chain2)
        assert len(basis) == 2
        assert all(b.family == 1 for b in basis)
        origin = var_id(chain2, (), ())
        for b in basis:
            assert b.tail == (origin, origin)

    def test_two_antichain_family_two(self):
        basis = generate_groebner_candidates(anti2)
        origin = var_id(anti2, (), ())
        for s1 in (1, -1):
            for s2 in (1, -1):
                lead = tuple(
                    sorted((var_id(anti2, (1,), (s1,)), var_id(anti2, (2,), (s2,))))
                )
                tail = tuple(sorted((var_id(anti2, (1, 2), (s1, s2)), origin)))
                assert any(
                    b.lead == lead and b.tail == tail and b.family == 2 for b in basis
                )

    def test_two_antichain_family_one_at_shared_index(self):
        basis = generate_groebner_candidates(anti2)
        lead = tuple(
            sorted(
                (var_id(anti2, (1, 2), (1, 1)), var_id(anti2, (1, 2), (-1, -1)))
            )
        )
        tail = tuple(
            sorted((var_id(anti2, (2,), (1,)), var_id(anti2, (2,), (-1,))))
        )
        assert any(b.lead == lead and b.tail == tail for b in basis)

    def test_images_balance(self):
        for n in (1, 2, 3, 4):
            for poset in all_natural_posets(n):
                variables = variables_and_map(poset)
                for b in generate_groebner_candidates(poset):
                    left = [0] * n
                    right = [0] * n
                    for vid in b.lead:
                        for e, s in zip(
                            variables[vid].antichain, variables[vid].signs
                        ):
                            left[e - 1] += s
                    for vid in b.tail:
                        for e, s in zip(
                            variables[vid].antichain, variables[vid].signs
                        ):
                            right[e - 1] += s
                    assert left == right
                    if b.family == 2:
                        # cardinality balance: the proof's weight argument
                        assert sum(
                            len(variables[v].antichain) for v in b.lead
                        ) == sum(len(variables[v].antichain) for v in b.tail)

    def test_matches_reference(self):
        cases = [p for n in (1, 2, 3, 4) for p in all_natural_posets(n)]
        for poset in cases + [poset_from_covers(5, [])]:
            got = [(b.lead, b.tail, b.family) for b in generate_groebner_candidates(poset)]
            assert got == reference_candidates(poset), poset.pairs

    def test_leads_squarefree_quadratic_no_origin(self):
        for n in (1, 2, 3, 4):
            for poset in all_natural_posets(n):
                for b in generate_groebner_candidates(poset):
                    assert len(b.lead) == 2
                    assert b.lead[0] != b.lead[1]
                    assert 0 not in b.lead


class TestOrder:
    def test_two_antichain_constraint(self):
        weights = construct_order(anti2)
        w = antichain_weights(anti2, weights)
        assert w[(1,)] + w[(2,)] >= 1 + w[(1, 2)] + w[()]
        assert all(value >= 0 for value in w.values())

    def test_two_chain_closed_form_weights(self):
        # w(I) = 2n|I| - |I|^2 with n = 2 on the ideals {}, {1}, {1, 2}
        weights = construct_order(chain2)
        assert antichain_weights(chain2, weights) == {(): 0, (1,): 3, (2,): 4}

    def test_cardinality_beats_origin(self):
        order = TermOrder(construct_order(chain2))
        pair = (var_id(chain2, (1,), (1,)), var_id(chain2, (1,), (-1,)))
        origin = var_id(chain2, (), ())
        assert order.leading(tuple(sorted(pair)), (origin, origin)) == tuple(
            sorted(pair)
        )

    def test_closed_form_meets_every_margin(self):
        # Each margin row of the walk over incomparable ideal pairs equals
        # 2ab + k(2n - 2c + k) >= 2, with a = |I - J|, b = |J - I|,
        # c = |I cap J| and k = c - |I*J|.  The bound 2 is met, though not
        # on every poset: on 1 < 2, 1 < 3 the one row has I*J empty (k = 1),
        # so its margin is 7.
        margins = []
        for n in (1, 2, 3, 4, 5):
            for poset in all_natural_posets(n):
                w = antichain_weights(poset, construct_order(poset))
                for ideal_i, ideal_j in incomparable_ideal_pairs(poset):
                    product = star_oracle(poset, ideal_i, ideal_j)
                    margin = (
                        w[ideal_i.max_elements]
                        + w[ideal_j.max_elements]
                        - w[max_of_union(poset, ideal_i, ideal_j)]
                        - w[product.max_elements]
                    )
                    a = len(ideal_i.elements - ideal_j.elements)
                    b = len(ideal_j.elements - ideal_i.elements)
                    c = len(ideal_i.elements & ideal_j.elements)
                    k = c - len(product.elements)
                    assert margin == 2 * a * b + k * (2 * n - 2 * c + k) >= 2
                    margins.append(margin)
        assert min(margins) == 2

    def test_margin_shortfall_is_an_alarm(self, monkeypatch):
        # Each row read with its two sides swapped, x_max(I u J) x_max(I*J)
        # as the intended lead, negates its margin, to at most -2 (on the
        # 2-antichain the lead weighs 4 and the tail 6), so the re-check
        # must refuse the weights against it.
        pairs = toric._ideal_pairs

        def swapped(poset):
            return tuple((u, s, i, j) for i, j, u, s in pairs(poset))

        monkeypatch.setattr(toric, "_ideal_pairs", swapped)
        with pytest.raises(Infeasible):
            construct_order(anti2)
        row = verify.verify_poset(anti2)
        assert row["groebner"]["buchberger"] == "fail"
        assert any(alarm.startswith("groebner: ") for alarm in row["alarms"])

    def test_leading_terms_agree_small(self):
        for n in (1, 2, 3, 4):
            for poset in all_natural_posets(n):
                basis = generate_groebner_candidates(poset)
                assert leading_terms_agree(basis, construct_order(poset))

    def test_five_element_margins(self):
        # n = 5 lies beyond BUCHBERGER_MAX_N; the order alone is checked.
        poset = poset_from_covers(5, [(1, 2)])
        weights = construct_order(poset)
        w = antichain_weights(poset, weights)
        assert all(value >= 0 for value in w.values())
        pairs = list(incomparable_ideal_pairs(poset))
        assert pairs
        for ideal_i, ideal_j in pairs:
            lead = w[ideal_i.max_elements] + w[ideal_j.max_elements]
            tail = (
                w[max_of_union(poset, ideal_i, ideal_j)]
                + w[star_oracle(poset, ideal_i, ideal_j).max_elements]
            )
            assert lead - tail >= 1
        assert leading_terms_agree(generate_groebner_candidates(poset), weights)


class TestBuchberger:
    def test_two_chain(self):
        basis = generate_groebner_candidates(chain2)
        assert buchberger_verify(basis, construct_order(chain2))

    def test_two_antichain(self):
        basis = generate_groebner_candidates(anti2)
        assert buchberger_verify(basis, construct_order(anti2))

    def test_deletion_breaks_some_basis(self):
        basis = list(generate_groebner_candidates(anti2))
        weights = construct_order(anti2)
        broken = []
        for drop in range(len(basis)):
            reduced = basis[:drop] + basis[drop + 1 :]
            broken.append(not buchberger_verify(reduced, weights))
        assert any(broken)

    def test_equal_leads_with_distinct_standard_tails_fail(self):
        # x1 x2 - x0^2 is the basis of the one-element poset; a second
        # binomial x1 x2 - x0 x1 leaves an S-pair x0^2 - x0 x1 of two
        # standard monomials, which only the equal-lead branch compares
        basis = list(generate_groebner_candidates(single))
        weights = construct_order(single)
        assert [(b.lead, b.tail) for b in basis] == [((1, 2), (0, 0))]
        broken = basis + [ToricBinomial((1, 2), (0, 1), 1)]
        assert leading_terms_agree(broken, weights)
        assert not reference_buchberger(broken, weights)
        assert not buchberger_verify(broken, weights)

    def test_guard(self):
        basis = generate_groebner_candidates(anti2)
        with pytest.raises(SizeLimit):
            buchberger_verify(basis, construct_order(anti2), guard_spairs=1)

    def test_guard_counts_distinct_pairs(self):
        for n in (1, 2, 3):
            for poset in all_natural_posets(n):
                basis = generate_groebner_candidates(poset)
                weights = construct_order(poset)
                count = len(_lcm_classes(basis, weights))
                assert buchberger_verify(basis, weights, guard_spairs=count)
                with pytest.raises(SizeLimit, match=f"^{count} S-pair lcm classes"):
                    buchberger_verify(basis, weights, guard_spairs=count - 1)

    def test_matches_reference_up_to_three(self):
        for n in (1, 2, 3):
            for poset in all_natural_posets(n):
                basis = list(generate_groebner_candidates(poset))
                weights = construct_order(poset)
                symmetries = _symmetries(poset)
                bases = {"full": basis, **broken_bases(basis)}
                for name, candidate in bases.items():
                    expected = reference_buchberger(candidate, weights)
                    assert buchberger_verify(candidate, weights) == expected, (
                        poset.pairs,
                        name,
                    )
                    assert buchberger_verify(candidate, weights, symmetries=symmetries) == expected

    def test_broken_bases_match_reference_at_four(self):
        verdicts = set()
        for poset in all_natural_posets(4):
            basis = list(generate_groebner_candidates(poset))
            weights = construct_order(poset)
            symmetries = _symmetries(poset)
            for name, candidate in broken_bases(basis).items():
                expected = reference_buchberger(candidate, weights)
                assert buchberger_verify(candidate, weights) == expected, (
                    poset.pairs,
                    name,
                )
                assert buchberger_verify(candidate, weights, symmetries=symmetries) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_random_sub_bases_with_duplicate_leads_match_reference(self):
        # Random sub-bases of the n <= 3 candidate sets, some with extra
        # binomials that repeat a lead with another tail: the equal-lead
        # collapse and the lcm walk against the pair-by-pair reference.
        rng = random.Random(2018)
        posets = [p for n in (1, 2, 3) for p in all_natural_posets(n)]
        seen = Counter()
        for _ in range(150):
            poset = rng.choice(posets)
            basis = list(generate_groebner_candidates(poset))
            weights = construct_order(poset)
            drop = rng.choice((0.0, 0.0, 0.02, 0.2))
            candidate = [b for b in basis if rng.random() >= drop]
            pool = duplicate_leads(poset, basis, weights, rng.random() < 0.7)
            duplicates = rng.randrange(4) if pool else 0
            for _ in range(duplicates):
                extra = rng.choice(pool)
                candidate.insert(rng.randrange(len(candidate) + 1), extra)
            expected = reference_buchberger(candidate, weights)
            assert buchberger_verify(candidate, weights) == expected, (
                poset.pairs,
                candidate,
            )
            assert buchberger_verify(candidate, weights, symmetries=_symmetries(poset)) == expected
            seen[expected, duplicates > 0] += 1
        assert set(seen) == {(v, d) for v in (True, False) for d in (True, False)}

    def test_orbit_closed_deletions_match_reference_up_to_four(self):
        # Dropping a binomial with its whole orbit leaves a rule set that
        # every candidate still maps onto itself, so the walk runs from the
        # centers on a basis that is not a Groebner basis.  Every orbit at
        # n <= 3 (on the 2-antichain, dropping the orbit of x1 x5 - x0 x7
        # leaves a failing triangle whose smallest vertex is no center),
        # the first of each family at n = 4.
        verdicts = Counter()
        for n in (1, 2, 3, 4):
            for poset in all_natural_posets(n):
                basis = list(generate_groebner_candidates(poset))
                weights = construct_order(poset)
                symmetries = _symmetries(poset)
                assert len(symmetries) >= n
                if n < 4:
                    orbits = {frozenset(_orbit((b.lead, b.tail), symmetries)) for b in basis}
                else:
                    firsts = {b.family: (b.lead, b.tail) for b in reversed(basis)}
                    orbits = {frozenset(_orbit(rule, symmetries)) for rule in firsts.values()}
                for orbit in orbits:
                    candidate = [b for b in basis if (b.lead, b.tail) not in orbit]
                    rules = {(b.lead, b.tail) for b in candidate}
                    for sigma in symmetries:
                        assert {_image(r, sigma) for r in rules} == rules
                    expected = reference_buchberger(candidate, weights)
                    assert buchberger_verify(candidate, weights) == expected
                    assert buchberger_verify(candidate, weights, symmetries=symmetries) == expected
                    verdicts[expected] += 1
        assert verdicts[False] > 100

    def test_bad_candidates_are_dropped(self):
        # On 1 < 2 with 3 apart, dropping x3 x5 - x13^2 leaves one failing
        # wedge, which a kept swap of the non-twins 1 and 2 would skip.
        poset = poset_from_covers(3, [(1, 2)])
        basis = list(generate_groebner_candidates(poset))
        weights = construct_order(poset)
        assert (basis[6].lead, basis[6].tail) == ((3, 5), (13, 13))
        plus, minus, index = toric._sign_masks(poset)

        def swapped(mask):  # elements 1 and 2 exchanged, mask bits 1 and 2
            return mask ^ 6 if mask & 6 in (2, 4) else mask

        swap = tuple(index[(swapped(p), swapped(q))] for p, q in zip(plus, minus))
        assert sorted(swap) == list(range(len(plus))) and swap != tuple(range(len(plus)))
        for candidate, expected in ((basis, True), (basis[:6] + basis[7:], False)):
            rules = [(*b.lead, *b.tail) for b in candidate]
            assert toric._centers(rules, [swap]) == toric._centers(rules, ())
            assert buchberger_verify(candidate, weights, symmetries=[swap]) is expected
            assert reference_buchberger(candidate, weights) is expected
        # The failing triangle 12, 13, 23 -> x1^2 of the test below, beside a
        # joinable one on 4, 5, 6: sending 0 and 1 to 4, 2 to 5 and 3 to 6
        # maps every rule to a rule but is no bijection, and kept it would
        # leave 1, 2 and 3 no center.
        weights = lex_weights(7)
        basis = [
            ToricBinomial((1, 2), (0, 1), 1),
            ToricBinomial((1, 3), (0, 1), 1),
            ToricBinomial((2, 3), (1, 1), 1),
            *(ToricBinomial(lead, (4, 4), 1) for lead in ((4, 5), (4, 6), (5, 6))),
        ]
        collapse = (4, 4, 5, 6, 4, 5, 6)
        rules = {(b.lead, b.tail) for b in basis}
        assert {_image(rule, collapse) for rule in rules} < rules
        flat = [(*lead, *tail) for lead, tail in rules]
        assert toric._centers(flat, [collapse]) == toric._centers(flat, ())
        assert not buchberger_verify(basis, weights, symmetries=[collapse])
        assert not reference_buchberger(basis, weights)

    def test_symmetries_cut_the_normal_forms_on_the_four_antichain(self, monkeypatch):
        calls = Counter()
        kernel = toric._normal_form

        def record(mono, lead_map, memo):
            calls[key] += 1
            return kernel(mono, lead_map, memo)

        monkeypatch.setattr(toric, "_normal_form", record)
        poset = poset_from_covers(4, [])
        basis = generate_groebner_candidates(poset)
        weights = construct_order(poset)
        for key in ((), _symmetries(poset)):
            assert buchberger_verify(basis, weights, symmetries=key)
        assert 14 * calls[_symmetries(poset)] <= calls[()]

    def test_checked_wedges_meet_every_orbit(self, monkeypatch):
        # Every wedge (c; x, y) of the lead graph, leads cx and cy, has one
        # the walk checks in its orbit under the kept candidates, and no
        # wedge is checked twice.
        checked = []
        select = toric._checked_wedges

        def record(adjacent, centers, kept):
            for wedge in select(adjacent, centers, kept):
                checked.append(wedge)
                yield wedge

        monkeypatch.setattr(toric, "_checked_wedges", record)
        bowtie = poset_from_covers(5, [(1, 3), (2, 3), (3, 4), (3, 5)])
        totals = Counter()
        for poset in [*(p for n in (1, 2, 3, 4) for p in all_natural_posets(n)), bowtie]:
            basis = generate_groebner_candidates(poset)
            weights = construct_order(poset)
            symmetries = _symmetries(poset)
            rules = {(b.lead, b.tail) for b in basis}
            _, kept = toric._centers([(*lead, *tail) for lead, tail in rules], symmetries)
            assert [sigma for sigma, _ in kept] == list(symmetries)
            checked.clear()
            assert buchberger_verify(basis, weights, symmetries=symmetries)
            done = set(checked)
            assert len(done) == len(checked)
            around = {}
            for x, y in {lead for lead, _ in rules}:
                around.setdefault(x, []).append(y)
                around.setdefault(y, []).append(x)
            wedges = {(c, *pair) for c, ends in around.items() for pair in combinations(sorted(ends), 2)}
            seen = set()
            for wedge in wedges:
                if wedge in seen:
                    continue
                orbit, stack = {wedge}, [wedge]
                while stack:
                    c, x, y = stack.pop()
                    for sigma in symmetries:
                        a, b = sigma[x], sigma[y]
                        image = (sigma[c], a, b) if a < b else (sigma[c], b, a)
                        if image not in orbit:
                            orbit.add(image)
                            stack.append(image)
                assert orbit <= wedges and orbit & done, (poset.pairs, wedge)
                seen |= orbit
            totals["wedges"] += len(wedges)
            totals["checked"] += len(done)
        assert 3 * totals["checked"] < totals["wedges"]

    def test_wrong_tail_on_one_lead_of_a_triangle_fails(self):
        # Leads 12, 13, 23 divide one cubic lcm and form its only class.
        # With x2 x3 -> x0^2 all three rewrites of x1 x2 x3 reach x0^2 x1;
        # with x2 x3 -> x1^2 only the rewrite by 23 (x1^3) differs, so only
        # the third check of the triangle can see it.
        weights = lex_weights(4)
        good = [
            ToricBinomial((1, 2), (0, 1), 1),
            ToricBinomial((1, 3), (0, 1), 1),
            ToricBinomial((2, 3), (0, 0), 1),
        ]
        bad = good[:2] + [ToricBinomial((2, 3), (1, 1), 1)]
        assert leading_terms_agree(bad, weights)
        assert reference_buchberger(good, weights) and buchberger_verify(good, weights)
        assert not reference_buchberger(bad, weights)
        assert not buchberger_verify(bad, weights)
        for rotated in (bad[1:] + bad[:1], bad[2:] + bad[:2]):
            assert not buchberger_verify(rotated, weights)

    def test_weight_tie_is_no_win(self):
        # x0 x2 - x0 x1 on the one-element poset: x1 and x2 sign the one
        # element - and +, both weighing w({1}) = 1, so neither side wins.
        # The tests' TermOrder breaks the tie by grevlex, making x0 x1 the
        # lead; the library refuses to pick one.
        weights = construct_order(single)
        assert weights == (0, 1, 1)
        tie = ToricBinomial((0, 2), (0, 1), 1)
        assert TermOrder(weights).leading(tie.lead, tie.tail) == (0, 1)
        assert not leading_terms_agree([tie], weights)
        message = "^" + re.escape(f"{tie} has no lead: both sides weigh 1") + "$"
        with pytest.raises(IdentityViolation, match=message):
            buchberger_verify([tie], weights)
        full = list(generate_groebner_candidates(single))
        assert leading_terms_agree(full, weights)
        with pytest.raises(IdentityViolation, match=message):
            buchberger_verify(full + [tie], weights)

    def test_square_lead_raises(self):
        # x0 x1 - x2^2 on the one-element poset: the order ranks x2^2 (two
        # signed elements) above x0 x1, so the lead has a repeated variable.
        weights = construct_order(single)
        basis = [ToricBinomial((0, 1), (2, 2), 1)]
        assert not leading_terms_agree(basis, weights)
        with pytest.raises(IdentityViolation, match=r"^lead \(2, 2\) of "):
            buchberger_verify(basis, weights)
        full = list(generate_groebner_candidates(single))
        with pytest.raises(IdentityViolation, match=r"^lead \(2, 2\) of "):
            buchberger_verify(full + basis, weights)


class TestNormalFormKernel:
    def test_matches_generic_rule_up_to_three(self, monkeypatch):
        # Every monomial buchberger_verify normalises is memoised with its
        # normal form; the oracle recomputes each one from scratch.
        calls = []
        kernel = toric._normal_form

        def record(mono, lead_map, memo):
            calls.append((lead_map, memo))
            return kernel(mono, lead_map, memo)

        monkeypatch.setattr(toric, "_normal_form", record)
        degrees = Counter()
        for n in (1, 2, 3):
            for poset in all_natural_posets(n):
                basis = list(generate_groebner_candidates(poset))
                weights = construct_order(poset)
                for candidate in (basis, *broken_bases(basis).values()):
                    calls.clear()
                    buchberger_verify(candidate, weights)
                    if not calls:
                        continue
                    lead_map, memo = calls[0]
                    assert all(call[1] is memo for call in calls)
                    for mono, normal in memo.items():
                        assert normal == normal_form_oracle(mono, lead_map), mono
                        degrees[len(mono)] += 1
        assert set(degrees) == {2, 3} and degrees[3] > 1000

    def test_every_cubic_matches_generic_rule_up_to_three(self):
        # On the broken bases a normal form depends on which divisor is
        # rewritten first, so this pins the sorted-pair divisor order.
        for n in (1, 2, 3):
            for poset in all_natural_posets(n):
                basis = list(generate_groebner_candidates(poset))
                count = len(variables_and_map(poset))
                cubics = list(combinations_with_replacement(range(count), 3))
                for candidate in (basis, *broken_bases(basis).values()):
                    lead_map = {}
                    for b in candidate:
                        lead_map.setdefault(b.lead, b.tail)
                    memo = {}
                    for mono in cubics:
                        expected = normal_form_oracle(mono, lead_map)
                        assert toric._normal_form(mono, lead_map, memo) == expected, mono


def standard_counts(poset):
    """The standard monomial counts of degrees 1, 2 and 3, read off the
    rows of the Hilbert certificate."""
    rows, _ = hilbert_certificate(poset)
    return tuple(standard for _, standard, _ in rows)


class TestStandardMonomials:
    def test_two_chain(self):
        assert standard_counts(chain2)[0] == 5
        assert standard_counts(chain2)[1] == 13

    def test_two_antichain_degree_one(self):
        assert standard_counts(anti2)[0] == 9

    def test_vertex_guard_trips_before_the_graph(self, monkeypatch):
        def unreachable(mask):
            raise AssertionError("variable masks built past the vertex guard")

        monkeypatch.setattr(toric, "_bits", unreachable)
        anti7 = poset_from_covers(7, [])
        consumers = (hilbert_certificate, initial_graph, generate_groebner_candidates, toric._sign_masks)
        for consumer in consumers:
            with pytest.raises(SizeLimit, match="^2187 variables exceed guard 1024$"):
                consumer(anti7)

    def test_one_face_walk_serves_every_degree(self, monkeypatch):
        bounds = []
        original = toric._flag_faces

        def record(adjacency, bound):
            bounds.append(bound)
            return original(adjacency, bound)

        monkeypatch.setattr(toric, "_flag_faces", record)
        hilbert_certificate.cache_clear()
        poset = poset_from_covers(3, [(1, 3)])
        counts = list(standard_counts(poset))
        assert bounds == [3]
        assert counts == [count_dilation(poset, m) for m in (1, 2, 3)]

    def test_certificate(self):
        for n in (1, 2, 3):
            for poset in all_natural_posets(n):
                rows, ok = hilbert_certificate(poset)
                assert ok
                for m, standard, points in rows:
                    assert standard == points == count_dilation(poset, m)

    @pytest.mark.parametrize(
        "poset, rows",
        [
            (anti2, ((1, 9, 9), (2, 29, 25), (3, 65, 49))),
            (poset_from_covers(5, [(1, 3), (2, 3), (3, 4), (3, 5)]), ((1, 19, 19), (2, 153, 149), (3, 735, 679))),
        ],
        ids=["anti2", "bowtie"],
    )
    def test_a_lost_ideal_pair_costs_its_blocks_and_the_certificate(self, monkeypatch, poset, rows):
        """With the last _ideal_pairs row dropped, the graph loses only
        edges between that row's blocks: the signings of A and B that agree
        on A & B, which here is empty, so all 2^|A| * 2^|B| = 4 of them.
        The certificate then counts more standard monomials than points
        from degree 2 on."""
        original = toric._ideal_pairs
        a, b, _, _ = original(poset)[-1]
        _, whole = initial_graph(poset)
        monkeypatch.setattr(toric, "_ideal_pairs", lambda other: original(other)[:-1])
        initial_graph.cache_clear()
        hilbert_certificate.cache_clear()
        try:
            _, cut = initial_graph(poset)
            got, ok = hilbert_certificate(poset)
        finally:
            monkeypatch.undo()
            initial_graph.cache_clear()
            hilbert_certificate.cache_clear()
        plus, minus, _ = toric._sign_masks(poset)
        lost = edge_set(whole) - edge_set(cut)
        assert edge_set(cut) <= edge_set(whole)
        assert {frozenset((plus[u] | minus[u], plus[v] | minus[v])) for u, v in lost} == {frozenset((a, b))}
        assert not a & b and len(lost) == 1 << a.bit_count() << b.bit_count() == 4
        assert not ok and got == rows
        assert got[0][1] == got[0][2] and all(standard > points for _, standard, points in got[1:])

    def test_certificate_degrees_outside_one_to_three_are_refused(self):
        # a certificate with no row compares nothing, so it must not read
        # as a pass
        for max_m in (0, -2):
            with pytest.raises(SizeLimit, match=f"^max_m must be at least 1, got {max_m}$"):
                hilbert_certificate(chain2, max_m=max_m)
        with pytest.raises(SizeLimit, match="^standard monomial counts implemented for m <= 3$"):
            hilbert_certificate(chain2, max_m=4)
        rows, ok = hilbert_certificate(chain2, max_m=1)
        assert rows == ((1, 5, 5),) and ok

    def test_graph_matches_reference(self):
        for n in (1, 2, 3, 4, 5):
            for poset in all_natural_posets(n):
                count, adjacency = initial_graph(poset)
                assert count == len(variables_and_map(poset))
                assert edge_set(adjacency) == reference_edges(poset), poset.pairs

    def test_graph_matches_candidate_leads(self):
        for n in (1, 2, 3, 4):
            for poset in all_natural_posets(n):
                _, adjacency = initial_graph(poset)
                leads = {b.lead for b in generate_groebner_candidates(poset)}
                assert edge_set(adjacency) == leads


class TestBitsetKernels:
    """initial_graph, the Groebner candidates and the Hilbert certificate's
    standard monomial counts against the pair scan and the double loop
    over non-edges that they replaced."""

    @staticmethod
    def oracle_rows(poset):
        """initial_graph_oracle's edges as one neighbour bitset per vertex."""
        count, edges = initial_graph_oracle(poset)
        rows = [0] * count
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return count, tuple(rows)

    def assert_matches_oracles(self, poset):
        assert initial_graph(poset) == self.oracle_rows(poset), poset.pairs
        assert standard_counts(poset) == standard_monomial_oracle(poset), poset.pairs

    def test_every_natural_poset_up_to_five(self):
        for n in (1, 2, 3, 4, 5):
            for poset in all_natural_posets(n):
                self.assert_matches_oracles(poset)

    def test_candidates_in_pair_scan_order_up_to_five(self):
        for n in (1, 2, 3, 4, 5):
            for poset in all_natural_posets(n):
                assert generate_groebner_candidates(poset) == groebner_candidates_oracle(poset), poset.pairs

    def test_graph_on_every_sixteenth_six_element_poset(self):
        for poset in all_natural_posets(6)[::16]:
            assert initial_graph(poset) == self.oracle_rows(poset), poset.pairs

    @given(labelled_six_posets())
    @example(poset_from_covers(6, []))
    @settings(max_examples=10, deadline=None)
    def test_random_six_element_posets(self, poset):
        self.assert_matches_oracles(poset)


class TestFlagFaceKernel:
    """posets._flag_faces against the three enumerations it replaced: the
    loops of the standard monomial count, the independent sets of the
    triangulation and the clique counts of the gamma complex."""

    @staticmethod
    def complement(adjacency):
        full = (1 << len(adjacency)) - 1
        return [full ^ row ^ (1 << u) for u, row in enumerate(adjacency)]

    @staticmethod
    def complex_graph(complex_):
        """The graph on the color-0 vertices of a gamma complex."""
        adjacency = [0] * (len(complex_.vertices) // 4)
        for x, y in complex_.edges:
            if x % 4 == y % 4 == 0:
                adjacency[x // 4] |= 1 << y // 4
                adjacency[y // 4] |= 1 << x // 4
        return adjacency

    def assert_matches_oracles(self, poset):
        n = poset.n
        count, adjacency = initial_graph(poset)
        sizes, _ = _flag_faces(self.complement(adjacency), 3)
        assert sizes[1:] == standard_sizes_oracle(count, adjacency, 3)[1:], poset.pairs

        boundary = [row >> 1 for row in adjacency[1:]]  # the variables but the origin
        faces = independent_sets_oracle(boundary, count - 1)
        by_size = Counter(len(face) for face, _ in faces)
        counts, maximal = _flag_faces(self.complement(boundary), n + 1)
        assert max(by_size) == n and counts == [by_size[k] for k in range(n + 2)]
        assert [tuple(_bits(face)) for face in maximal] == [f for f, is_max in faces if is_max]

        bound = n // 2 + 1
        graph = self.complex_graph(build_complex(poset.canonicalized()))
        expected = clique_counts_oracle(graph, len(graph), bound)
        assert _flag_faces(graph, bound)[0] == expected, poset.pairs

    def test_every_natural_poset_up_to_five(self):
        for n in (1, 2, 3, 4, 5):
            for poset in all_natural_posets(n):
                self.assert_matches_oracles(poset)

    # five draws, not ten: the oracle builds a tuple per face, 423,857 of
    # them on the 6-antichain's boundary
    @given(labelled_six_posets())
    @example(poset_from_covers(6, []))
    @settings(max_examples=5, deadline=None)
    def test_random_six_element_posets(self, poset):
        self.assert_matches_oracles(poset)

    def test_maximal_faces_of_every_size_are_listed(self):
        path = [0b010, 0b101, 0b010]
        triangle = [0b0110, 0b0101, 0b0011, 0]  # with vertex 3 isolated
        assert _flag_faces(path, 3) == ([1, 3, 2, 0], [0b011, 0b110])
        assert _flag_faces(triangle, 4) == ([1, 4, 3, 1, 0], [0b0111, 0b1000])
        # below the bound only: the triangle is counted, not listed
        assert _flag_faces(triangle, 2) == ([1, 4, 3], [0b1000])
        assert _flag_faces([], 2) == ([1, 0, 0], [0])  # the empty face alone
        for graph, bound in ((path, 3), (triangle, 4)):
            counts, maximal = _flag_faces(graph, bound)
            assert counts == clique_counts_oracle(graph, len(graph), bound)
            faces = independent_sets_oracle(self.complement(graph), len(graph))
            assert [tuple(_bits(face)) for face in maximal] == [f for f, m in faces if m]


class TestIdealPairs:
    """_ideal_pairs, four lookups in the ideal table per row, against the
    rows built from the frozenset star and maxima of a union."""

    def test_every_natural_poset_up_to_five(self):
        for n in (1, 2, 3, 4, 5):
            for poset in all_natural_posets(n):
                assert toric._ideal_pairs(poset) == ideal_pairs_oracle(poset), poset.pairs

    @given(labelled_six_posets())
    @example(poset_from_covers(6, []))
    @settings(max_examples=10, deadline=None)
    def test_random_six_element_posets(self, poset):
        assert toric._ideal_pairs(poset) == ideal_pairs_oracle(poset)

    @staticmethod
    def clear_caches():
        for module in (posets, geometry, partitions, toric, gamma_complex):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    def test_table_without_a_union_is_an_alarm(self, monkeypatch):
        """1 < 3 with its top ideal dropped from the table: the first
        incomparable pair, {2} and {1, 3}, has no union there, which every
        toric check reports as an alarm, and the row still completes."""
        poset = poset_from_covers(3, [(1, 3)])
        top = 0b1110
        original = posets._ideal_table

        def dropped(other):
            table = original(other)
            if other != poset:
                return table
            return MappingProxyType({i: m for i, m in table.items() if i != top})

        monkeypatch.setattr(posets, "_ideal_table", dropped)
        monkeypatch.setattr(toric, "_ideal_table", dropped)
        self.clear_caches()
        try:
            message = "ideals [2] and [1, 3] lack a union or meet in the table"
            with pytest.raises(IdentityViolation, match=rf"^{re.escape(message)}$"):
                toric._ideal_pairs(poset)
            row = verify.verify_poset(poset)
        finally:
            monkeypatch.undo()
            self.clear_caches()
        assert row["groebner"]["hilbert_checks"] is False
        assert row["groebner"]["buchberger"] == "fail"
        assert f"hilbert: {message}" in row["alarms"]


class TestTriangulation:
    def test_single_element(self):
        tri = triangulation_extract(single)
        assert tri.simplex_count == 2
        assert tri.boundary_h == IntPolynomial([1, 1])

    def test_two_chain(self):
        tri = triangulation_extract(chain2)
        assert tri.simplex_count == 4
        assert tri.boundary_f_vector == (1, 4, 4)  # a 4-cycle
        assert tri.boundary_h == IntPolynomial([1, 2, 1])

    def test_two_antichain(self):
        tri = triangulation_extract(anti2)
        assert tri.simplex_count == 8
        assert tri.boundary_f_vector == (1, 8, 8)  # an octagon
        assert tri.boundary_h == IntPolynomial([1, 6, 1])

    def test_counts_match_volume(self):
        from enchain.posets import linear_extensions

        for n in (1, 2, 3):
            for poset in all_natural_posets(n):
                tri = triangulation_extract(poset)
                assert tri.simplex_count == 2**n * len(linear_extensions(poset))
                for face in tri.maximal_faces:
                    assert len(face) == n + 1 and face[0] == 0

    def test_guard(self):
        with pytest.raises(SizeLimit):
            triangulation_extract(poset_from_covers(6, []))

    def test_extension_count_comes_from_the_peak_walk(self, monkeypatch):
        from enchain import geometry, partitions, posets

        poset = poset_from_covers(3, [(2, 1)])  # not naturally labelled; 3 extensions
        partitions.peak_polynomials(poset.canonicalized())

        def unreachable(poset):
            raise AssertionError("linear extensions walked a second time")

        for module in (posets, partitions, geometry, toric):
            monkeypatch.setattr(module, "linear_extensions", unreachable, raising=False)
        assert triangulation_extract(poset).simplex_count == 2**3 * 3
        assert geometry.volume_and_reflexivity(poset).volume == 2**3 * 3
