import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enchain import polynomials, verify
from enchain.errors import NegativeHStar, NonInteger, NotPalindromic, SizeLimit
from enchain.polynomials import (
    IntPolynomial,
    RatPolynomial,
    _sturm_level,
    gamma_expansion,
    hstar_from_counts,
    interpolate,
    interpolate_at,
    kruskal_katona_check,
    polynomial_properties,
    real_root_count,
)

from oracles import one_plus_x_power


def cross_polytope_count(m):
    # lattice points of m * conv(+-e1, +-e2): |x| + |y| <= m
    return sum(
        1
        for x in range(-m, m + 1)
        for y in range(-m, m + 1)
        if abs(x) + abs(y) <= m
    )


@pytest.mark.parametrize("poly", [IntPolynomial, RatPolynomial])
class TestSharedArithmetic:
    """The arithmetic both coefficient rings share, run over each."""

    def test_sums_and_differences(self, poly):
        p, q = poly([1, 2]), poly([3, 0, 5])
        assert p + q == q + p == poly([4, 2, 5])
        assert q - p == poly([2, -2, 5])
        assert p - q == poly([-2, 2, -5])
        assert -p == poly([-1, -2])
        assert p - p == poly() and (p - p).is_zero

    def test_products(self, poly):
        p, q = poly([1, 1]), poly([1, -1])
        assert p * q == q * p == poly([1, 0, -1])
        assert p * 3 == 3 * p == poly([3, 3])
        assert p * 0 == 0 * p == poly()
        assert p * poly() == poly() * p == poly()

    def test_evaluation(self, poly):
        ring = int if poly is IntPolynomial else Fraction
        value = poly([1, 2, 1])(3)
        assert value == 16 and type(value) is ring
        zero = poly()(5)
        assert zero == 0 and type(zero) is ring

    def test_coefficients_and_trimming(self, poly):
        ring = int if poly is IntPolynomial else Fraction
        p = poly([1, 2, 0, 0])
        assert p.coeffs == (1, 2) and p.degree == 1
        assert p.coefficient(1) == 2
        assert p.coefficient(5) == 0 and type(p.coefficient(5)) is ring
        assert p.coefficient(-1) == 0
        assert poly([0, 0]).is_zero and poly([0, 0]).degree == -1
        assert poly([0, 0]) == poly()


def test_rational_scalars_on_both_sides():
    p = RatPolynomial([2, 4])
    assert p * Fraction(1, 2) == Fraction(1, 2) * p == RatPolynomial([1, 2])


def test_equality_and_hash_are_type_strict():
    assert IntPolynomial([1]) != RatPolynomial([1])
    assert RatPolynomial([1]) != IntPolynomial([1])
    assert IntPolynomial([1]) != (1,)
    assert hash(IntPolynomial([1, 2])) == hash(IntPolynomial([1, 2]))
    assert hash(RatPolynomial([1, 2])) == hash(RatPolynomial([Fraction(2, 2), 2]))
    assert len({IntPolynomial([1]), RatPolynomial([1])}) == 2


def test_reprs():
    assert repr(IntPolynomial([1, 0, -2, 0])) == "IntPolynomial([1, 0, -2])"
    assert repr(RatPolynomial([Fraction(1, 2), 3])) == "RatPolynomial(['1/2', '3'])"
    assert repr(IntPolynomial()) == "IntPolynomial([])"


@pytest.mark.parametrize("coeff", [0.1, "1/2", None])
def test_rational_ring_rejects_floats_strings_and_none(coeff):
    with pytest.raises(TypeError, match="integer or Fraction coefficient expected"):
        RatPolynomial([coeff])


def test_integer_ring_rejects_fractions():
    with pytest.raises(TypeError, match="integer coefficient expected"):
        IntPolynomial([Fraction(1, 2)])


class TestInterpolate:
    def test_line(self):
        assert interpolate([1, 3, 5]) == RatPolynomial([1, 2])

    def test_constant(self):
        assert interpolate([1, 1, 1]) == RatPolynomial([1])

    def test_cross_polytope_counts(self):
        values = [cross_polytope_count(m) for m in (0, 1, 2)]
        assert values == [1, 5, 13]
        assert interpolate(values) == RatPolynomial([1, 2, 2])

    def test_shifted_nodes(self):
        poly = interpolate_at([1, 2, 3], [3, 5, 7])
        assert poly == RatPolynomial([1, 2])

    @given(st.lists(st.integers(-(10**9), 10**9), max_size=11), st.sampled_from([0, 1]))
    def test_integer_route_matches_rational_oracle(self, values, start):
        # the Ehrhart polynomial's nodes are 0..n, the order polynomial's 1..n+1
        nodes = list(range(start, start + len(values)))
        assert interpolate(values, start) == interpolate_at(nodes, values)

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=7))
    def test_roundtrip(self, coeffs):
        poly = RatPolynomial(coeffs)
        values = [poly(m) for m in range(len(coeffs))]
        assert interpolate(values) == poly

    def test_work_guard_is_checked_before_the_loop(self, monkeypatch):
        # work d^2 * (bits + d * bit_length(start + d)): 2 * 2 * (3 + 2 * 2)
        monkeypatch.setattr(polynomials, "INTERPOLATE_WORK_GUARD", 28)
        assert interpolate([1, 3, 5]) == RatPolynomial([1, 2])
        monkeypatch.setattr(polynomials, "INTERPOLATE_WORK_GUARD", 27)
        with pytest.raises(SizeLimit, match="^interpolating 3 values of up to 3 bits: work 28 exceeds guard 27$"):
            interpolate([1, 3, 5])

    def test_work_guard_bounds_many_small_values(self):
        # 1001 one-bit values take about 10 s without the guard, though
        # d * bits is only 1000
        with pytest.raises(SizeLimit, match="interpolating 1001 values of up to 1 bits"):
            interpolate([1] * 1001)
        assert interpolate([1] * 101) == RatPolynomial([1])
        assert interpolate([]) == RatPolynomial()



def rat_coeffs_oracle(poly):
    """verify.rat_coeffs as it read before it took each coefficient as a
    Fraction: every coefficient converted with Fraction() first."""
    out = []
    for c in poly.coeffs:
        frac = Fraction(c)
        out.append(int(frac) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}")
    return out


class TestFractionCoefficients:
    """interpolate builds each coefficient as one Fraction, RatPolynomial
    keeps a coefficient that is exactly a Fraction, and verify.rat_coeffs
    reads the coefficients as they are."""

    @staticmethod
    def value_lists():
        """Seeded int and Fraction value lists: lengths 1..12, starts
        -3..5, numerators and denominators up to 2^200."""
        rng = random.Random(34)
        for _ in range(120):
            length, start = rng.randint(1, 12), rng.randint(-3, 5)
            bound = 2 ** rng.choice((3, 64, 200))
            if rng.random() < 0.5:
                values = [rng.randint(-bound, bound) for _ in range(length)]
            else:
                values = [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(length)]
            yield values, start

    def test_interpolate_matches_the_rational_oracle(self):
        kinds = set()
        for values, start in self.value_lists():
            poly = interpolate(values, start)
            assert poly == interpolate_at(list(range(start, start + len(values))), values), (values, start)
            assert all(type(c) is Fraction for c in poly.coeffs)
            kinds.add(type(values[0]))
        assert kinds == {int, Fraction}

    def test_rational_ring_keeps_fractions_and_converts_ints(self):
        given = [Fraction(1, 3), Fraction(-7, 2), Fraction(2**200, 3)]
        assert all(kept is c for kept, c in zip(RatPolynomial(given).coeffs, given))
        mixed = RatPolynomial([2, Fraction(1, 2), True, 0])
        assert mixed.coeffs == (Fraction(2), Fraction(1, 2), Fraction(1))
        assert [type(c) for c in mixed.coeffs] == [Fraction] * 3

        class Half(Fraction):
            pass

        converted = RatPolynomial([Half(1, 2)]).coeffs[0]
        assert type(converted) is Fraction and converted == Fraction(1, 2)
        with pytest.raises(TypeError, match="integer or Fraction coefficient expected, got 0.5"):
            RatPolynomial([Fraction(1, 2), 0.5])

    def test_rat_coeffs_reads_as_before(self):
        kinds = set()
        for values, start in self.value_lists():
            for poly in (interpolate(values, start), RatPolynomial(values)):
                got, expected = verify.rat_coeffs(poly), rat_coeffs_oracle(poly)
                assert got == expected and list(map(type, got)) == list(map(type, expected))
                kinds.update(map(type, got))
        assert kinds == {int, str}

class TestHstar:
    def test_segment(self):
        assert hstar_from_counts([1, 3], 1) == IntPolynomial([1, 1])

    def test_cross_polytope(self):
        assert hstar_from_counts([1, 5, 13], 2) == IntPolynomial([1, 2, 1])

    def test_square(self):
        # (2m+1)^2 counts; matches the type-B Eulerian polynomial at n=2
        assert hstar_from_counts([1, 9, 25], 2) == IntPolynomial([1, 6, 1])

    def test_negative_is_alarmed(self):
        with pytest.raises(NegativeHStar):
            hstar_from_counts([1, 0], 1)

    def test_non_integer_is_alarmed(self):
        with pytest.raises(NonInteger):
            hstar_from_counts([1, Fraction(3, 2)], 1)

    @given(st.integers(1, 5), st.data())
    def test_series_reexpansion(self, n, data):
        # h* / (1-x)^(n+1) must reproduce the counts it came from
        counts = [1] + sorted(
            data.draw(st.integers(1, 50), label=f"L({m})") for m in range(1, n + 1)
        )
        try:
            hstar = hstar_from_counts(counts, n)
        except NegativeHStar:
            return
        for m in range(n + 1):
            total = sum(
                hstar.coefficient(i) * comb(m - i + n, n)
                for i in range(0, m + 1)
            )
            assert total == counts[m]


class TestGamma:
    def test_type_b_two(self):
        assert gamma_expansion(IntPolynomial([1, 6, 1]), 2) == (1, 4)

    def test_binomial_basis(self):
        for n in range(1, 7):
            expected = (1,) + (0,) * (n // 2)
            assert gamma_expansion(one_plus_x_power(n), n) == expected

    def test_type_b_three(self):
        assert gamma_expansion(IntPolynomial([1, 23, 23, 1]), 3) == (1, 20)

    def test_not_palindromic(self):
        with pytest.raises(NotPalindromic):
            gamma_expansion(IntPolynomial([1, 1, 0, 1]), 3)

    def test_degree_matters(self):
        assert IntPolynomial([1, 1]).is_palindromic(1)
        assert not IntPolynomial([1, 1]).is_palindromic(2)

    @given(st.integers(1, 8), st.data())
    def test_reconstruction(self, n, data):
        gamma = [
            data.draw(st.integers(-9, 9), label=f"gamma_{i}")
            for i in range(n // 2 + 1)
        ]
        poly = IntPolynomial([])
        for i, g in enumerate(gamma):
            term = IntPolynomial([0] * i + [g]) * one_plus_x_power(n - 2 * i)
            poly = poly + term
        if poly.is_zero:
            return
        expanded = gamma_expansion(poly, n)
        assert list(expanded) == gamma


class TestProperties:
    def test_type_b(self):
        props = polynomial_properties(IntPolynomial([1, 6, 1]))
        assert props.palindromic and props.unimodal and props.log_concave
        assert props.gamma_positive
        assert props.real_root_count == 2  # discriminant 32 > 0

    def test_double_root(self):
        props = polynomial_properties(IntPolynomial([1, 2, 1]))
        assert props.palindromic and props.unimodal and props.log_concave
        assert props.gamma_positive and props.real_root_count == 2

    def test_not_palindromic(self):
        props = polynomial_properties(IntPolynomial([1, 1, 0, 1]))
        assert not props.palindromic and not props.gamma_positive

    def test_no_real_roots(self):
        assert real_root_count(IntPolynomial([1, 0, 1])) == 0

    def test_rational_double_root_and_irrational_roots(self):
        # x^3 - 3x + 1 is irreducible over QQ with three real roots
        cubic = IntPolynomial([1, -3, 0, 1])
        poly = IntPolynomial([-1, 2]) * IntPolynomial([-1, 2]) * cubic
        assert real_root_count(poly) == 5
        assert real_root_count(poly * cubic * IntPolynomial([1, 0, 1])) == 8

    @given(
        st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 3)), min_size=1, max_size=4),
        st.booleans(),
    )
    @settings(deadline=None)
    def test_sturm_vs_known_roots(self, root_mults, add_irreducible):
        roots = {}
        for r, m in root_mults:
            roots[r] = roots.get(r, 0) + m
        poly = IntPolynomial([1])
        for r, m in roots.items():
            for _ in range(m):
                poly = poly * IntPolynomial([-r, 1])
        if add_irreducible:
            poly = poly * IntPolynomial([1, 0, 1])  # no real roots
        assert real_root_count(poly) == sum(roots.values())
        # grid oracle: sign changes of the distinct-root product at
        # half-integers count the distinct roots (never zero on the grid)
        squarefree = IntPolynomial([1])
        for r in roots:
            squarefree = squarefree * IntPolynomial([-r, 1])
        grid = [Fraction(k, 2) for k in range(-13, 14)]
        signs = [1 if squarefree(x) > 0 else -1 for x in grid]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert _sturm_level(RatPolynomial(poly.coeffs))[0] == changes

    @given(st.lists(st.integers(0, 20), min_size=2, max_size=6))
    @settings(deadline=None)
    def test_real_rooted_implies_lc_and_un(self, coeffs):
        poly = IntPolynomial(coeffs)
        if poly.is_zero or poly.degree < 1:
            return
        props = polynomial_properties(poly)
        if props.real_root_count == poly.degree:
            assert props.log_concave
            assert props.unimodal


def colex_sets(size, count):
    """First `count` size-subsets of 1,2,3,... in colexicographic order."""
    out = []
    top = size - 1
    while len(out) < count:
        top += 1
        rest = sorted(
            combinations(range(1, top), size - 1), key=lambda s: tuple(reversed(s))
        )
        for s in rest:
            out.append(frozenset(s) | {top})
            if len(out) == count:
                break
    return out[:count]


def realizable_by_colex(f_vector):
    """Build the compressed family and check it is closed under taking
    subsets; realizability of an f-vector is equivalent to this."""
    families = [ {frozenset()} ]
    for size, count in enumerate(f_vector[1:], start=1):
        families.append(set(colex_sets(size, count)))
    for size in range(len(families) - 1, 0, -1):
        for face in families[size]:
            for smaller in combinations(sorted(face), size - 1):
                if frozenset(smaller) not in families[size - 1]:
                    return False
    return True


class TestKruskalKatona:
    def test_vertices_only(self):
        assert kruskal_katona_check([1, 4])

    def test_too_many_edges(self):
        assert not kruskal_katona_check([1, 3, 4])

    def test_gamma_of_four_antichain(self):
        assert kruskal_katona_check([1, 72, 80])

    def test_full_simplex(self):
        assert kruskal_katona_check([1, 4, 6, 4, 1])

    def test_brute_force_on_six_vertices(self):
        # every f-vector inside the 6-vertex box, against the compressed
        # complex construction
        bounds = [comb(6, k) for k in range(1, 5)]

        def sweep(prefix):
            size = len(prefix)
            if size > len(bounds):
                return
            bound = bounds[size - 1] if size <= len(bounds) else 0
            for value in range(0, bound + 1):
                vector = prefix + [value]
                expected = realizable_by_colex(vector)
                assert kruskal_katona_check(vector) == expected, vector
                if expected and value > 0:
                    sweep(vector)

        sweep([1])
