"""Exact dense polynomials over ZZ and QQ, plus shape predicates.

Coefficients are stored ascending by degree with trailing zeros trimmed,
so ``IntPolynomial([1, 2, 1])`` is 1 + 2x + x^2.  Both rings take their
arithmetic from one private base class, `_Polynomial`.  All arithmetic is
exact: integer coefficients are Python ints, rational ones are
``fractions.Fraction``.  Nothing in this module touches floating point,
and no tolerance parameter exists anywhere.

Besides the two coefficient rings the module houses the shape predicates
h-polynomials are classified by (palindromic, unimodal, log-concave,
gamma-positive, exact real-root counts from one Sturm sequence per
multiplicity level) and the Kruskal-Katona realizability test for
f-vectors of simplicial complexes.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import IdentityAlarm, InputError, SizeLimit


def _trim(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


class _Polynomial:
    """The arithmetic both coefficient rings share.  A subclass sets
    `_zero`, the zero of its ring, `_accepts`, the coefficient types it
    converts to that ring, and `_expected`, their name; any other
    coefficient raises TypeError.  A coefficient whose type is exactly
    that of `_zero` is kept as it is.  Every result is built with
    type(self), and equality and hash never mix the two rings."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        ring = type(self._zero)
        kept = []
        for c in coeffs:
            if type(c) is not ring:
                if not isinstance(c, self._accepts):
                    raise TypeError(f"{self._expected} coefficient expected, got {c!r}")
                c = ring(c)
            kept.append(c)
        self.coeffs = _trim(kept)

    @property
    def degree(self):
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def __call__(self, x):
        result = self._zero
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return type(self)(out)

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return type(self)([c * other for c in self.coeffs])
        out = [self._zero] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return type(self)(out)

    __rmul__ = __mul__

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self._zero


class IntPolynomial(_Polynomial):
    """Dense polynomial with arbitrary-precision integer coefficients.

    >>> IntPolynomial([1, 2, 1]).degree
    2
    >>> IntPolynomial([1, 2, 1])(3)
    16
    """

    __slots__ = ()
    _zero = 0
    _accepts = int
    _expected = "integer"

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    def is_palindromic(self, n):
        """True iff x^n * p(1/x) == p(x), i.e. coefficients 0..n read the
        same in both directions.  Trailing zeros up to degree n count, so
        1 + x is palindromic for n=1 but not for n=2."""
        if self.is_zero or self.degree > n:
            return False
        padded = list(self.coeffs) + [0] * (n + 1 - len(self.coeffs))
        return padded == padded[::-1]

    def scale_powers(self, factor):
        """Substitute factor*x for x: coefficient k gets factor^k."""
        return IntPolynomial([c * factor**k for k, c in enumerate(self.coeffs)])


class RatPolynomial(_Polynomial):
    """Dense polynomial with exact rational coefficients, from ints and Fractions."""

    __slots__ = ()
    _zero = Fraction(0)
    _accepts = (int, Fraction)
    _expected = "integer or Fraction"

    def __repr__(self):
        return f"RatPolynomial({[str(c) for c in self.coeffs]})"

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def derivative(self):
        return RatPolynomial([k * c for k, c in enumerate(self.coeffs)][1:])


def poly_remainder(num, den):
    """Remainder of num by a nonzero den over QQ; its degree < deg(den)."""
    rem = list(num.coeffs)
    dcoeffs = den.coeffs
    dd = len(dcoeffs) - 1
    for k in range(len(rem) - 1, dd - 1, -1):
        if c := rem[k] / dcoeffs[-1]:
            for j, d in enumerate(dcoeffs):
                rem[k - dd + j] -= c * d
    return RatPolynomial(rem)


def interpolate_at(nodes, values):
    """The unique polynomial of degree < len(nodes) through the given
    points, by Newton's divided differences over exact rationals."""
    if len(nodes) != len(values):
        raise ValueError("nodes and values must have equal length")
    poly = RatPolynomial()
    basis = RatPolynomial([1])
    for node, value in zip(nodes, values):
        denom = basis(node)
        coeff = (Fraction(value) - poly(node)) / denom
        poly = poly + coeff * basis
        basis = basis * RatPolynomial([-node, 1])
    return poly


# interpolate's loop makes about d^2 steps on numbers of up to bits + d *
# log2(start + d) bits; its time follows that work within 4x.  On a 2-core
# host the 256-chain's counts (1.9e8) take 0.07-0.09 s, the 512-chain's
# (1.7e9) 0.6-1.0 s, and the worst shape at the guard, one-bit values, 0.4 s.
INTERPOLATE_WORK_GUARD = 4 * 10**8


def interpolate(values, start=0):
    """Interpolate values taken at the arguments start, start + 1, ...,
    start + d, where d = len(values) - 1.

    Newton's forward differences D_k of the values give
    d! p(x) = sum_k D_k (d!/k!) (x - start) ... (x - start - k + 1),
    so integer values stay integers until one division by d! at the end.
    interpolate_at, over exact rationals, is the oracle for this route.
    Work past INTERPOLATE_WORK_GUARD, a Fraction's bits being those of its
    numerator and denominator, raises SizeLimit before the loop.

    >>> interpolate([1, 3, 5]).coeffs
    (Fraction(1, 1), Fraction(2, 1))
    """
    d = len(values) - 1
    sizes = (abs(v.numerator).bit_length() + v.denominator.bit_length() - 1 for v in values)
    bits = max(sizes, default=0)
    work = d * d * (bits + d * (abs(start) + d).bit_length())
    if work > INTERPOLATE_WORK_GUARD:
        shape = f"interpolating {d + 1} values of up to {bits} bits"
        raise SizeLimit(f"{shape}: work {work} exceeds guard {INTERPOLATE_WORK_GUARD}")
    scale = factorial(max(d, 0))
    diffs = list(values)
    coeffs = [0] * len(values)
    basis = [1]
    for k in range(len(values)):
        weight = diffs[0] * (scale // factorial(k))
        for i, b in enumerate(basis):
            coeffs[i] += weight * b
        node = start + k
        basis = [0] + basis
        for i in range(len(basis) - 1):
            basis[i] -= node * basis[i + 1]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return RatPolynomial([Fraction(c, scale) for c in coeffs])


def hstar_from_counts(counts, n):
    """h* polynomial of an n-dimensional lattice polytope from its lattice
    point counts at dilations 0..n.

    h*_j = sum_{i=0..j} (-1)^i C(n+1, i) counts[j-i].  The result must have
    nonnegative integer coefficients; a violation signals an upstream
    counting bug and raises IdentityAlarm.
    """
    if len(counts) != n + 1:
        raise ValueError(f"expected {n + 1} counts, got {len(counts)}")
    if counts[0] != 1:
        raise ValueError("count at dilation 0 must be 1")
    coeffs = []
    for j in range(n + 1):
        hj = sum((-1) ** i * comb(n + 1, i) * counts[j - i] for i in range(j + 1))
        if isinstance(hj, Fraction):
            if hj.denominator != 1:
                raise IdentityAlarm(f"h*_{j} = {hj} is not an integer")
            hj = int(hj)
        if hj < 0:
            raise IdentityAlarm(f"h*_{j} = {hj} < 0")
        coeffs.append(hj)
    return IntPolynomial(coeffs)


def gamma_expansion(h, n):
    """Coefficients gamma_0..gamma_{n//2} solving
    h(x) = sum_i gamma_i x^i (1+x)^(n-2i).

    Requires h palindromic with respect to degree n; the change of basis is
    triangular so the expansion is exact and unique.
    """
    if not h.is_palindromic(n):
        raise InputError(f"{h!r} is not palindromic for degree {n}")
    residual = list(h.coeffs) + [0] * (n + 1 - len(h.coeffs))
    gamma = []
    for i in range(n // 2 + 1):
        g = residual[i]
        gamma.append(g)
        if g:
            for k in range(n - 2 * i + 1):
                residual[i + k] -= g * comb(n - 2 * i, k)
    if any(residual):
        raise InputError(f"gamma expansion of {h!r} left a residue")
    return tuple(gamma)


@dataclass(frozen=True)
class PolyProperties:
    palindromic: bool
    unimodal: bool
    log_concave: bool
    gamma_positive: bool
    real_root_count: int


def _is_unimodal(coeffs):
    k = 0
    while k + 1 < len(coeffs) and coeffs[k] <= coeffs[k + 1]:
        k += 1
    while k + 1 < len(coeffs) and coeffs[k] >= coeffs[k + 1]:
        k += 1
    return k == len(coeffs) - 1


def _is_log_concave(coeffs):
    return all(
        coeffs[i] ** 2 >= coeffs[i - 1] * coeffs[i + 1]
        for i in range(1, len(coeffs) - 1)
    )


def _sign_variations(signs):
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a * b < 0)


def _sturm_level(p):
    """The number of distinct real roots of p (degree >= 1), and gcd(p, p')
    up to a nonzero factor, from one Sturm sequence p, p', -rem, ...

    Its sign variations at -oo and +oo count the distinct real roots even
    when p is not squarefree: dividing every entry by the last one,
    gcd(p, p'), flips either all of the signs at a point or none."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero:
        chain.append(-poly_remainder(chain[-2], chain[-1]))
    chain.pop()

    def sgn(x):
        return (x > 0) - (x < 0)

    at_minus = [sgn(q.leading) * (-1) ** q.degree for q in chain]
    at_plus = [sgn(q.leading) for q in chain]
    return _sign_variations(at_minus) - _sign_variations(at_plus), chain[-1]


def real_root_count(f):
    """Number of real roots counted with multiplicity, exactly.

    A root of multiplicity mu appears in the first mu entries of the chain
    f, gcd(f, f'), gcd(gcd, ...) so summing distinct-root counts along the
    chain recovers multiplicities; each level's Sturm sequence ends in the
    next level."""
    p, total = RatPolynomial(f.coeffs), 0
    while p.degree >= 1:
        distinct, p = _sturm_level(p)
        total += distinct
    return total


def polynomial_properties(f):
    """Exact shape flags for a nonzero integer polynomial."""
    if f.is_zero:
        raise ValueError("properties of the zero polynomial are undefined")
    palindromic = f.is_palindromic(f.degree)
    gamma_positive = False
    if palindromic:
        gamma_positive = all(g >= 0 for g in gamma_expansion(f, f.degree))
    return PolyProperties(
        palindromic=palindromic,
        unimodal=_is_unimodal(f.coeffs),
        log_concave=_is_log_concave(f.coeffs),
        gamma_positive=gamma_positive,
        real_root_count=real_root_count(f),
    )


def _macaulay_bound(count, size):
    """Largest possible number of (size+1)-subsets in a complex that has
    `count` subsets of the given size, via the Macaulay cascade of count."""
    if count == 0:
        return 0
    parts = []
    rem = count
    t = size
    while rem > 0 and t >= 1:
        a = t
        while comb(a + 1, t) <= rem:
            a += 1
        parts.append((a, t))
        rem -= comb(a, t)
        t -= 1
    return sum(comb(a, t + 1) for a, t in parts)


def kruskal_katona_check(f_vector):
    """True iff the sequence (f_{-1}=1, f_0, f_1, ...) is the f-vector of
    some simplicial complex, by the Kruskal-Katona pseudopower bounds."""
    f = list(f_vector)
    if not f or f[0] != 1:
        raise ValueError("f-vector must start with f_{-1} = 1")
    if any(not isinstance(c, int) or c < 0 for c in f):
        raise ValueError("f-vector entries must be nonnegative integers")
    for s in range(1, len(f) - 1):
        if f[s + 1] > _macaulay_bound(f[s], s):
            return False
    return True
