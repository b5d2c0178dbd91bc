import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from enchain.linprog import feasible_point_eq

from oracles import feasible_point_ge


def reference_feasible_point_eq(rows, rhs):
    """The Phase-I simplex over fractions.Fraction that the fraction-free
    one replaced: Bland's rule, ties in the ratio test to the smaller
    basis index, every row divided by its pivot."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    a = [[Fraction(c) for c in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-c for c in a[i]]
            b[i] = -b[i]
    tab = [a[i] + [Fraction(j == i) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    total = n + m
    obj = [Fraction(0)] * (total + 1)
    for i in range(m):
        for j in range(total + 1):
            obj[j] -= tab[i][j]
    for j in range(n, total):
        obj[j] += 1
    while True:
        enter = next((j for j in range(total) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        piv = tab[leave][enter]
        tab[leave] = [c / piv for c in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [c - f * d for c, d in zip(tab[i], tab[leave])]
        f = obj[enter]
        obj = [c - f * d for c, d in zip(obj, tab[leave])]
        basis[leave] = enter
    if obj[total] != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][total]
    return x


def reference_feasible_point_ge(rows, rhs):
    """{x >= 0 : A x >= b} by surplus variables over the reference."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    eq_rows = [list(row) + [-int(j == i) for j in range(m)] for i, row in enumerate(rows)]
    point = reference_feasible_point_eq(eq_rows, rhs)
    return None if point is None else point[:n]


fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def rational_systems(draw):
    """Up to 6 x 6 systems with denominators up to 4; about half are made
    feasible by drawing a nonnegative point and taking b = A x."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    rows = [[draw(fractions) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        point = [abs(draw(fractions)) for _ in range(n)]
        rhs = [sum(c * v for c, v in zip(row, point)) for row in rows]
    else:
        rhs = [draw(fractions) for _ in range(m)]
    return rows, rhs


def check_eq(rows, rhs, x):
    for row, b in zip(rows, rhs):
        assert sum(Fraction(c) * v for c, v in zip(row, x)) == b


class TestEquality:
    def test_simple(self):
        x = feasible_point_eq([[1, 1], [1, -1]], [2, 0])
        check_eq([[1, 1], [1, -1]], [2, 0], x)

    def test_infeasible_sign(self):
        # x >= 0 with x = -1
        assert feasible_point_eq([[1]], [-1]) is None

    def test_infeasible_system(self):
        # lambda >= 0, sum to 1, but must also hit an unreachable corner
        rows = [[0, 1, 0], [0, 0, 1], [1, 1, 1]]
        assert feasible_point_eq(rows, [1, 1, 1]) is None

    def test_degenerate(self):
        rows = [[1, 1], [2, 2]]
        x = feasible_point_eq(rows, [1, 2])
        check_eq(rows, [1, 2], x)

    def test_all_solutions_nonnegative(self):
        x = feasible_point_eq([[1, -1]], [0])
        assert all(v >= 0 for v in x)

    def test_empty(self):
        assert feasible_point_eq([], []) == []


class TestInequality:
    def test_margin(self):
        rows = [[1, 1, -1, -1]]
        x = feasible_point_ge(rows, [1])
        assert sum(c * v for c, v in zip(rows[0], x)) >= 1
        assert all(v >= 0 for v in x)

    def test_infeasible(self):
        # -x >= 1 with x >= 0
        assert feasible_point_ge([[-1]], [1]) is None

    def test_multiple_rows(self):
        rows = [[1, 0], [0, 1], [-1, -1]]
        rhs = [1, 1, -5]
        x = feasible_point_ge(rows, rhs)
        for row, b in zip(rows, rhs):
            assert sum(c * v for c, v in zip(row, x)) >= b


class TestReference:
    @settings(max_examples=300, deadline=None)
    @given(rational_systems())
    def test_same_vertex_as_fraction_simplex(self, system):
        rows, rhs = system
        assert feasible_point_eq(rows, rhs) == reference_feasible_point_eq(rows, rhs)
        assert feasible_point_ge(rows, rhs) == reference_feasible_point_ge(rows, rhs)

    def test_seeded_systems_hit_both_verdicts(self):
        rng = random.Random(0)
        verdicts = set()
        for _ in range(400):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)] for _ in range(m)]
            rhs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(m)]
            if rng.random() < 0.5:
                point = [Fraction(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(n)]
                rhs = [sum(c * v for c, v in zip(row, point)) for row in rows]
            expected = reference_feasible_point_eq(rows, rhs)
            assert feasible_point_eq(rows, rhs) == expected
            assert feasible_point_ge(rows, rhs) == reference_feasible_point_ge(rows, rhs)
            verdicts.add(expected is None)
        assert verdicts == {True, False}
