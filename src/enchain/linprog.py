"""Exact rational linear feasibility via a fraction-free Phase-I simplex.

One entry point, feasible_point_eq: find x >= 0 with A x = b, or None.
Its inequality form, feasible_point_ge (x >= 0 with A x >= b, by surplus
variables), lives with the tests in tests/oracles.py.

The system is multiplied by one common denominator, so every entry is an
integer, and the tableau stays integral by integer-preserving pivoting
(Edmonds 1967, Bareiss 1968): the true tableau is the integer one divided
by a running denominator, the last pivot.  Pivoting on (r, c) with pivot
p keeps row r and replaces every other entry by
(t[i][j] * p - t[i][c] * t[r][j]) // den, an exact division because every
entry is a minor of the scaled system.  Ratios are compared by
cross-multiplication.

Pivots follow Bland's rule (no cycling, guaranteed termination), with
ties in the ratio test broken by the smaller basis index.  One positive
scale factor and positive pivots change no sign and no ratio order, so
the pivot sequence, and the vertex returned, is the one a simplex over
fractions.Fraction takes on the unscaled system.  Scaling rows by
different factors would reweight the Phase-I objective and is not done.
"""

from fractions import Fraction
from math import lcm


def _integer_system(rows, rhs):
    """The rows and right-hand sides times the least common denominator of
    all their entries, as ints."""
    rows = [[c if type(c) is int else Fraction(c) for c in row] for row in rows]
    rhs = [v if type(v) is int else Fraction(v) for v in rhs]
    scale = lcm(*(c.denominator for row in rows for c in row), *(v.denominator for v in rhs))
    rows = [[c.numerator * (scale // c.denominator) for c in row] for row in rows]
    rhs = [v.numerator * (scale // v.denominator) for v in rhs]
    return rows, rhs


def feasible_point_eq(rows, rhs):
    """Solve {x >= 0 : A x = b} for any feasible x, or return None.

    `rows` is a list of coefficient lists, `rhs` the right-hand sides;
    entries are ints, Fractions or anything Fraction accepts.  Phase I:
    minimize the sum of one artificial variable per row.  The point comes
    back as Fractions.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    a, b = _integer_system(rows, rhs)
    for i in range(m):
        if b[i] < 0:
            a[i] = [-c for c in a[i]]
            b[i] = -b[i]

    # Tableau columns: n structural + m artificial, then the rhs.
    tab = [a[i] + [1 if j == i else 0 for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    total = n + m
    den = 1

    # Reduced costs for minimizing the sum of artificials: c_j minus the
    # basic-cost combination; artificial columns carry unit cost.
    obj = [-sum(col) for col in zip(*tab)]
    for j in range(n, total):
        obj[j] += 1

    while True:
        enter = next((j for j in range(total) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            if tab[i][enter] > 0:
                if leave is None:
                    leave = i
                    continue
                # Compare tab[i][total] / tab[i][enter] with the best ratio.
                here = tab[i][total] * tab[leave][enter]
                best = tab[leave][total] * tab[i][enter]
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            # Unbounded Phase-I objective cannot happen (bounded below by 0).
            raise ArithmeticError("phase-I simplex unbounded")
        den = _pivot(tab, obj, basis, leave, enter, den)

    if obj[total] != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][total], den)
    return x


def _pivot(tab, obj, basis, row, col, den):
    """Integer-preserving pivot on (row, col); returns the new running
    denominator, the pivot."""
    piv = tab[row][col]
    pivot_row = tab[row]
    for i, current in enumerate(tab):
        if i != row:
            tab[i] = _eliminate(current, pivot_row, piv, col, den)
    obj[:] = _eliminate(obj, pivot_row, piv, col, den)
    basis[row] = col
    return piv


def _eliminate(current, pivot_row, piv, col, den):
    f = current[col]
    if f == 0:
        if piv == den:
            return current
        return [c * piv // den for c in current]
    return [(c * piv - f * d) // den for c, d in zip(current, pivot_row)]

