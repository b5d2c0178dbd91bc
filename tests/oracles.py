"""Brute-force oracles that only the tests use.

Each one decides a fact about the enriched chain polytope from its
definition, by a route the library does not take: the lattice points of
E_P as signed antichain indicator vectors, and chain-polytope membership
as exact LP feasibility over the antichain vertices.
"""

from fractions import Fraction
from itertools import product

from enchain import linprog
from enchain.errors import SizeLimit
from enchain.posets import antichains


def lattice_points_ep(poset):
    """All lattice points of the enriched chain polytope: every signed
    antichain indicator vector plus the origin, sorted."""
    n = poset.n
    points = []
    for chain in antichains(poset):
        for signs in product((1, -1), repeat=len(chain)):
            coords = [0] * n
            for e, s in zip(chain, signs):
                coords[e - 1] = s
            points.append(tuple(coords))
    return sorted(points)


def membership_oracle(poset, point, max_antichains=4096):
    """Independent membership test for the chain polytope: decide whether
    the nonnegative rational point is a convex combination of antichain
    indicator vectors, by exact LP feasibility.  Used to validate the
    maximal-chain inequality description on small instances."""
    point = [Fraction(c) for c in point]
    if any(c < 0 for c in point):
        raise ValueError("membership oracle expects a nonnegative point")
    chains = antichains(poset)
    if len(chains) > max_antichains:
        raise SizeLimit(f"membership oracle guarded at {max_antichains} antichains")
    rows = [[1 if e in a else 0 for a in chains] for e in poset.elements()]
    rows.append([1] * len(chains))
    rhs = point + [1]
    return linprog.feasible_point_eq(rows, rhs) is not None
