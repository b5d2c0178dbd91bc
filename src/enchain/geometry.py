"""The enriched chain polytope of a poset as an implicit point set.

For a poset P on 1..n the enriched chain polytope is the convex hull of
all signed indicator vectors of antichains; it is n-dimensional, centrally
symmetric, and its lattice points are exactly those vectors together with
the origin.  A point x lies in the m-th dilation iff (|x_1|, ..., |x_n|)
lies in m times the chain polytope, i.e. iff the |x_i| sum to at most m
along every maximal chain.  Such a point is determined by its level
ideals I_k = {e : every chain ending at e has |x|-sum <= k}: the nonzero
coordinates are the minimal elements of the steps I_k - I_{k-1}, each
with a free sign.  Dilation counts are therefore weighted counts of ideal
chains I_0 <= ... <= I_m = P, each step I -> J weighing 2^|min(J - I)|,
computed by the transfer map over J(P) in posets.ideal_chain_count.  As
2^|min(J - I)| = #{K : I <= K <= J, K - I inside max K}, a transfer step
is w[K] += w[K - e] over the cover edges of J(P), e in max K, per element
in reverse linear-extension order (summing over subsets of max K), then
in linear-extension order (summing over all K <= J).  The same chains
record left enriched partitions (partitions.roundtrip_maps), so the two
agree; dilation_points lists the points from the maximal-chain sums.

Everything is exact; counts are arbitrary-precision integers and the
Ehrhart polynomial has exact rational coefficients.
"""

from dataclasses import dataclass

from .errors import GammaNegative, IdentityViolation
from .partitions import peak_polynomials
from .polynomials import (
    IntPolynomial,
    RatPolynomial,
    gamma_expansion,
    hstar_from_counts,
    interpolate,
)
from .posets import _memo_with_limit, ideal_chain_count, maximal_chains


def dilation_points(poset, m):
    """Yield the lattice points of m E_P in lexicographic order.

    Backtracks over coordinates 1..n, keeping the running |x|-sum along
    every maximal chain; coordinate e is offered only the values with
    |x_e| <= m minus the largest running sum through e, so every branch
    ends in a point and every point is reached.  Membership is read off
    the maximal chains alone, independently of psi_map's cover DP.  One
    frame walks the tree: stack[e - 1] holds the values coordinate e has
    left."""
    if m < 0:
        raise ValueError("dilation factor must be nonnegative")
    n = poset.n
    chains = maximal_chains(poset)
    through = [[] for _ in range(n + 1)]
    for c, chain in enumerate(chains):
        for e in chain:
            through[e].append(c)
    sums = [0] * len(chains)
    point = [0] * n

    def choices(e):
        room = m - max(sums[c] for c in through[e])
        return iter(range(-room, room + 1))

    stack = [choices(1)]
    while stack:
        e = len(stack)
        for v in stack[-1]:
            point[e - 1] = v
            if e == n:
                yield tuple(point)
            else:
                for c in through[e]:
                    sums[c] += abs(v)
                stack.append(choices(e + 1))
                break
        else:
            stack.pop()  # back at coordinate e - 1, if any: take it off its chains
            for c in through[e - 1]:
                sums[c] -= abs(point[e - 2])


def count_dilation(poset, m):
    """|m E_P  cap  Z^n|, exactly: the weighted count of ideal chains
    I_0 <= ... <= I_m = P with I_0 free, each lattice point recorded by
    its level ideals as in the module docstring.  Past posets.IDEAL_GUARD
    ideals, or posets.TRANSFER_GUARD transfer additions, it raises SizeLimit."""
    return ideal_chain_count(poset, m)


def in_enriched_polytope(poset, point, m=1):
    """Membership of an integer (or rational) point in the m-th dilation of
    the enriched chain polytope: the |x_e| sum to at most m along every
    maximal chain."""
    absolute = [abs(c) for c in point]
    return all(sum(absolute[e - 1] for e in chain) <= m for chain in maximal_chains(poset))


def dilation_counts(poset, max_m):
    return [count_dilation(poset, m) for m in range(max_m + 1)]


@_memo_with_limit
def ehrhart_and_hstar(poset):
    """The Ehrhart polynomial and h* of E_P from its dilation counts 0..n,
    kept by poset value for the gamma, volume and triangulation checks,
    with the SizeLimit of a tripped guard, so a row counts them once."""
    counts = dilation_counts(poset, poset.n)
    return interpolate(counts), hstar_from_counts(counts, poset.n)


@dataclass(frozen=True)
class EhrhartData:
    ehrhart: RatPolynomial
    hstar: IntPolynomial
    gamma: tuple
    volume: int


def hstar_and_gamma(poset):
    """Ehrhart data with the gamma vector of h*.

    Asserts gamma_i >= 0 and the coefficientwise identity
    gamma_i = 4^i * [x^i] W_left with the left peak polynomial, raising
    GammaNegative / IdentityViolation on failure (both would contradict
    facts that hold for every poset, so they are alarms, not data).
    """
    n = poset.n
    ehrhart, hstar = ehrhart_and_hstar(poset)
    if not hstar.is_palindromic(n):
        raise IdentityViolation(f"h* not palindromic at degree {n}: {hstar!r}")
    gamma = gamma_expansion(hstar, n)
    if any(g < 0 for g in gamma):
        raise GammaNegative(f"negative gamma coefficient in {gamma}")
    w_left = peak_polynomials(poset.canonicalized()).left_peak
    expected = tuple(4**i * w_left.coefficient(i) for i in range(n // 2 + 1))
    if gamma != expected:
        raise IdentityViolation(
            f"gamma {gamma} != scaled left peak coefficients {expected}"
        )
    return EhrhartData(
        ehrhart=ehrhart,
        hstar=hstar,
        gamma=gamma,
        volume=hstar(1),
    )


@dataclass(frozen=True)
class VolumeReflexivity:
    volume: int
    reflexive: bool


def volume_and_reflexivity(poset):
    """Normalized volume h*(1), checked against 2^n times the number of
    linear extensions, and reflexivity via palindromicity of h*."""
    n = poset.n
    _, hstar = ehrhart_and_hstar(poset)
    volume = hstar(1)
    extensions = peak_polynomials(poset.canonicalized()).extension_count
    if volume != 2**n * extensions:
        raise IdentityViolation(
            f"volume {volume} != 2^{n} * {extensions} linear extensions"
        )
    return VolumeReflexivity(volume=volume, reflexive=hstar.is_palindromic(n))
