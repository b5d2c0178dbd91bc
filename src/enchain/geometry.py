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
agree; dilation_points lists the points level by level, each coordinate
bounded by the maximal-chain sums of the coordinates before it.

Everything is exact; counts are arbitrary-precision integers and the
Ehrhart polynomial has exact rational coefficients.
"""

from dataclasses import dataclass

from .errors import IdentityAlarm
from .partitions import _slot_reader, peak_polynomials
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

    Coordinate e is offered the values with |x_e| <= m minus the largest
    |x|-sum over the earlier coordinates of a maximal chain through e, so
    every prefix extends to a point and every point is reached.  The points
    are built one coordinate at a time: each level extends every prefix of
    the last by the values ranges[room] lists for it.  Membership is read
    off the maximal chains alone, independently of psi_map's cover DP.  The
    whole sequence is held in memory; the bijection check reads at most
    2,401 points (the 4-antichain at m = 3)."""
    if m < 0:
        raise ValueError("dilation factor must be nonnegative")
    ranges = [tuple(range(-room, room + 1)) for room in range(m + 1)]
    chains = maximal_chains(poset)
    level = [()]
    for e in poset.elements():
        # the 0-based earlier coordinates of each maximal chain through e
        earlier = {tuple(j - 1 for j in c if j < e) for c in chains if e in c} - {()}
        reads = list(map(_slot_reader, map(list, earlier)))
        if not reads:
            level = [x + (v,) for x in level for v in ranges[m]]
        elif len(reads) == 1:
            (read,) = reads
            level = [x + (v,) for x in level for v in ranges[m - sum(map(abs, read(x)))]]
        else:
            level = [x + (v,) for x in level for v in ranges[m - max([sum(map(abs, r(x))) for r in reads])]]
    yield from level


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
    IdentityAlarm on failure (either would contradict facts that hold for
    every poset, so they are alarms, not data).
    """
    n = poset.n
    ehrhart, hstar = ehrhart_and_hstar(poset)
    if not hstar.is_palindromic(n):
        raise IdentityAlarm(f"h* not palindromic at degree {n}: {hstar!r}")
    gamma = gamma_expansion(hstar, n)
    if any(g < 0 for g in gamma):
        raise IdentityAlarm(f"negative gamma coefficient in {gamma}")
    w_left = peak_polynomials(poset.canonicalized()).left_peak
    expected = tuple(4**i * w_left.coefficient(i) for i in range(n // 2 + 1))
    if gamma != expected:
        raise IdentityAlarm(
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
        raise IdentityAlarm(
            f"volume {volume} != 2^{n} * {extensions} linear extensions"
        )
    return VolumeReflexivity(volume=volume, reflexive=hstar.is_palindromic(n))
