"""Brute-force oracles that only the tests use.

Each one decides a fact from its definition, by a route the library does
not take: the lattice points of E_P as signed antichain indicator vectors,
chain-polytope membership as exact LP feasibility over the antichain
vertices, the face map of the gamma complex as a bijection from all
decorated linear extensions, bar removal included, and monomial normal
forms by the generic rewriting rule for any degree.  The library's
bitset kernels keep their former scans here: the family-(1) leads by a
walk over every pair of variables, which the leading-term graph and the
ordered Groebner candidates are built from, and the graph's degree-3
standard monomials by a double loop over non-edges.  The ideal-chain
counts keep their former kernel, the transfer with one row per interval
I <= J of J(P), itself checked against a scan of every element for the
minimal ones of J - I.  The ideal table keeps the recursive antichain
walk it replaced, which the frozenset lattice and the lattice points of
E_P are built from.  The flag-face kernel behind the Hilbert
certificate, the triangulation and the gamma complex keeps its three
predecessors: the pair and triple loops of the standard monomial count,
the independent-set recursion that built a tuple per face, and the
clique counts that scanned every vertex bit.  The ideal table keeps its
frozenset predecessors here: the ideal lattice by down-closure of each
antichain, the star operation and the maxima of a union, and the rows of
toric._ideal_pairs built from them.
The phi/psi roundtrip kernel keeps the former bodies of phi_map and
psi_map here, with the left enriched conditions checked on every
relation rather than along the covers.  The gamma complex's edges,
which the library reads off the two-peak extensions, keep the splice
route they replaced: phi_face_map on decorated permutations, the
word-level pair test vertex_adjacent with its per-vertex keys, and
splice_adjacency, the filtered pair loop over one-peak vertices that
built the edges with it.  That pair test keeps its object-level
predecessor here too: the two-bar decorated permutation built and
validated, and its face map compared with the pair.  The complex's
colored vertices and edges keep the eager expansion that build_complex
made before the complex kept only its bases, the (word, peak) pairs that
stand for the color-0 vertices, and the pairs between them, and a
decorated permutation keeps here the blocks and the text that only the
tests read.  The bijection
check keeps its per-bound routine, which runs every check on every
partition at every bound, and the comparability orientations keep their
scan of all 2^E edge masks.  The toric ring
variables keep their former objects here: SignedVariable, with its image
and label, built and sorted by variables_and_map, the oracle for the id
order of toric._sign_masks, and the antichain-keyed term-order weights.
The term order keeps its object here: TermOrder, the weight sum with
the graded reverse lexicographic tie-break that the library no longer
needs, as no two sides of a candidate tie in weight; it ranks the
monomials of any degree for the generic reducer of the tests'
reference Buchberger check.
Beside them live helpers that only the tests call: chain-polytope
membership by the maximal-chain inequalities, the inequality form
feasible_point_ge of the exact LP, the Ehrhart polynomial
interpolated from the dilation counts, (1 + x)^k, the shift p(x + c)
that the enriched relation once took its halved difference by (it now
interpolates the differences of the counts), the edge set of an
adjacency bitset list, Hypothesis strategies for randomly labelled
6-element posets and relations, and six library functions no library
path called: is_left_partition, make_ideal, star (with its helper
_ideal_mask), comparability_invariance, series_identity_check and
enumerate_partitions.  The interior peak
scan peak_positions lives here too, as the reference for the peak
polynomial that the library reads off the left peaks, and so does the
descent scan descent_count (moved from partitions), the reference for
the descent counts that the extension walk carries.  The poset
builder keeps the construction it replaced: the relation closed as a
pair set by Warshall's loop, and the covers, lower covers and natural
labelling read off those pairs.  The frontier DP keeps its former body,
which picked each state's kept and read slots by generator expressions
and bounded its live states besides its work, and the topological order
keeps its greedy min over a set of the elements not yet placed.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import NamedTuple

from hypothesis import strategies as st

from enchain import geometry, partitions, toric, verify
from enchain.errors import (
    CycleDetected,
    IdentityViolation,
    InvalidPartition,
    LabelOutOfRange,
    MalformedResult,
    NotAnIdeal,
    PointOutsidePolytope,
    SizeLimit,
)
from enchain.gamma_complex import (
    COLORS,
    DecoratedPermutation,
    build_complex,
    grave_acute,
)
from enchain.geometry import dilation_counts
from enchain.linprog import feasible_point_eq
from enchain.partitions import count_partitions, iter_partitions, left_peak_positions
from enchain.polynomials import IntPolynomial, RatPolynomial, interpolate
from enchain.posets import (
    PosetIdeal,
    _bits,
    _ideal_table,
    _view,
    antichains,
    linear_extensions,
    maximal_chains,
    poset_from_covers,
    poset_predicates,
)


def antichains_oracle(poset):
    """posets.antichains by a recursive walk over the comparability graph
    that does not read the ideal table: every independent set, the empty
    one included, sorted by size then lexicographically."""
    n = poset.n
    comp = [0] * (n + 1)
    for a, b in poset.pairs:
        comp[a] |= 1 << b
        comp[b] |= 1 << a
    out = []

    def extend(prefix, start, excluded):
        out.append(tuple(prefix))
        for j in range(start, n + 1):
            if not excluded >> j & 1:
                prefix.append(j)
                extend(prefix, j + 1, excluded | comp[j])
                prefix.pop()

    extend([], 1, 0)
    out.sort(key=lambda a: (len(a), a))
    return out


def lattice_points_ep(poset):
    """All lattice points of the enriched chain polytope: every signed
    antichain indicator vector plus the origin, sorted."""
    n = poset.n
    points = []
    for chain in antichains_oracle(poset):
        for signs in product((1, -1), repeat=len(chain)):
            coords = [0] * n
            for e, s in zip(chain, signs):
                coords[e - 1] = s
            points.append(tuple(coords))
    return sorted(points)


@dataclass(frozen=True)
class SignedVariable:
    antichain: tuple
    signs: tuple

    def image(self, n):
        coords = [0] * n
        for e, s in zip(self.antichain, self.signs):
            coords[e - 1] = s
        return tuple(coords)

    def label(self):
        if not self.antichain:
            return "o"
        return "".join(
            f"{e}{'+' if s > 0 else '-'}" for e, s in zip(self.antichain, self.signs)
        )


@lru_cache(maxsize=32)
def variables_and_map(poset):
    """All ring variables in the fixed (antichain, signs) order, one per
    lattice point of the enriched chain polytope."""
    out = []
    for a in antichains(poset):
        for mask in range(1 << len(a)):
            signs = tuple(1 if mask >> i & 1 else -1 for i in range(len(a)))
            out.append(SignedVariable(a, signs))
    out.sort(key=lambda v: (v.antichain, v.signs))
    return tuple(out)


def antichain_weights(poset, weights):
    """The per-id weights of toric.construct_order keyed by antichain,
    read through the variables of variables_and_map; the variables of
    one antichain must share one weight (else ValueError)."""
    out = {}
    for v, w in zip(variables_and_map(poset), weights, strict=True):
        if out.setdefault(v.antichain, w) != w:
            raise ValueError(f"antichain {v.antichain} has weights {out[v.antichain]} and {w}")
    return out


class TermOrder:
    """Total monomial order: the sum of the weights, one per variable id,
    then graded reverse lexicographic on the id order."""

    def __init__(self, weights):
        self.weights = tuple(weights)

    def monomial_key(self, mono):
        """Sort key: larger key means larger monomial."""
        return (
            sum(self.weights[v] for v in mono),
            len(mono),
            tuple(-v for v in sorted(mono, reverse=True)),
        )

    def leading(self, m1, m2):
        """The larger of two quadratic monomials (the sides of a candidate
        binomial), by their two weights added unless the sums tie."""
        w = self.weights
        k1, k2 = w[m1[0]] + w[m1[1]], w[m2[0]] + w[m2[1]]
        if k1 == k2:
            k1, k2 = self.monomial_key(m1), self.monomial_key(m2)
        return m1 if k1 >= k2 else m2


def normal_form_oracle(mono, lead_map):
    """Standard monomial reached by rewriting the sorted monomial mono
    with the first lead (in sorted pair order) that divides it, until
    none does: combinations of the distinct variables, the removal of
    the lead and a full re-sort at every step, for monomials of any
    degree and with no memo."""
    while True:
        divisor = next(
            (p for p in combinations(sorted(set(mono)), 2) if p in lead_map), None
        )
        if divisor is None:
            return mono
        rest = list(mono)
        rest.remove(divisor[0])
        rest.remove(divisor[1])
        mono = tuple(sorted(rest + list(lead_map[divisor])))


@st.composite
def labelled_six_posets(draw):
    """A random poset on 6 elements under a random labelling."""
    pairs = list(combinations(range(1, 7), 2))
    relation = draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True))
    labels = draw(st.permutations(range(1, 7)))
    return poset_from_covers(6, relation).relabeled(labels)


@st.composite
def labelled_six_relations(draw):
    """An acyclic relation on 6 elements, repeated pairs allowed, under a
    random labelling, as a list of pairs."""
    pairs = list(combinations(range(1, 7), 2))
    relation = draw(st.lists(st.sampled_from(pairs), max_size=12))
    labels = draw(st.permutations(range(1, 7)))
    return [(labels[a - 1], labels[b - 1]) for a, b in relation]


def pair_closure(n, covers):
    """posets.poset_from_covers before the per-element bitsets became the
    poset's only stored form: the relation's pair set, closed by a
    Warshall loop on the above-masks, with separate scans for self-loops
    and cycles."""
    if n < 1:
        raise LabelOutOfRange(f"poset must have at least one element, got n={n}")
    above = [0] * (n + 1)
    for a, b in covers:
        if not (1 <= a <= n and 1 <= b <= n):
            raise LabelOutOfRange(f"label outside 1..{n} in cover ({a}, {b})")
        if a == b:
            raise CycleDetected(f"relation {a} < {a} is a cycle")
        above[a] |= 1 << b
    for k in range(1, n + 1):
        bit = 1 << k
        for i in range(1, n + 1):
            if above[i] & bit:
                above[i] |= above[k]
    for i in range(1, n + 1):
        if above[i] & (1 << i):
            raise CycleDetected(f"element {i} precedes itself after closure")
    return frozenset(
        (a, b) for a in range(1, n + 1) for b in range(1, n + 1) if above[a] >> b & 1
    )


def pair_facts(n, pairs):
    """What posets.Poset read off its pair set before: the cover pairs,
    sorted, the lower covers of each element (index 0 unused) and the
    natural-labelling flag."""
    below = [0] * (n + 1)
    above = [0] * (n + 1)
    for a, b in pairs:
        below[b] |= 1 << a
        above[a] |= 1 << b
    covers = tuple(sorted((a, b) for a, b in pairs if not above[a] & below[b]))
    lowers = [[] for _ in range(n + 1)]
    for a, b in covers:
        lowers[b].append(a)
    return covers, tuple(map(tuple, lowers)), all(a < b for a, b in pairs)


def edge_set(adjacency):
    """The edges (u, v), u <= v, of a graph given as one neighbour bitset
    per vertex, loops included; a bitset list that is not symmetric
    raises ValueError."""
    edges = set()
    for u, row in enumerate(adjacency):
        for v in range(row.bit_length()):
            if row >> v & 1:
                if not adjacency[v] >> u & 1:
                    raise ValueError(f"{v} is a neighbour of {u}, not {u} of {v}")
                edges.add((min(u, v), max(u, v)))
    return frozenset(edges)


def family_one_oracle(poset):
    """(u, v, e) for every pair of variable ids u < v and every element e
    that the two sign oppositely, e ascending: the family-(1) leads by the
    scan of every pair that toric._sign_index replaced."""
    plus, minus, _ = toric._sign_masks(poset)
    for u, v in combinations(range(len(plus)), 2):
        for e in _bits((plus[u] & minus[v]) | (minus[u] & plus[v])):
            yield u, v, e


def groebner_candidates_oracle(poset):
    """toric.generate_groebner_candidates, in order and without its image
    check, with family (1) from family_one_oracle and family (2) from the
    library's walk of the signed ideal pairs."""
    plus, minus, index = toric._sign_masks(poset)
    family_of = {}
    for u, v, e in family_one_oracle(poset):
        keep = ~(1 << e)
        tail = tuple(sorted(index[(plus[w] & keep, minus[w] & keep)] for w in (u, v)))
        family_of.setdefault(((u, v), tail), 1)
    for masks, pattern in toric._family_two(poset):
        lead = toric._signed_pair(index, masks[0], masks[1], pattern)
        family_of.setdefault((lead, toric._signed_pair(index, masks[2], masks[3], pattern)), 2)
    return tuple(toric.ToricBinomial(lead, tail, f) for (lead, tail), f in family_of.items())


def initial_graph_oracle(poset):
    """The leading-term graph as (vertex count, edge set): family (1) by
    the pair scan of family_one_oracle, family (2) by the library's walk
    of the signed ideal pairs."""
    _, _, index = toric._sign_masks(poset)
    edges = {(u, v) for u, v, _ in family_one_oracle(poset)}
    for masks, pattern in toric._family_two(poset):
        edges.add(toric._signed_pair(index, masks[0], masks[1], pattern))
    return len(index), frozenset(edges)


def standard_monomial_oracle(poset):
    """Degree-1, 2 and 3 standard monomial counts from
    initial_graph_oracle: the independent pairs are the pairs minus the
    edges, the triples come from a double loop over the non-edges u < v
    counting the common non-neighbours above v, and a monomial of degree
    m on an independent set S is one of C(m-1, |S|-1)."""
    count, edges = initial_graph_oracle(poset)
    adj = [0] * count
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << count) - 1
    triples = 0
    for u in range(count):
        for v in range(u + 1, count):
            if not adj[u] >> v & 1:
                above = full >> (v + 1) << (v + 1)
                triples += ((~adj[u] & ~adj[v]) & above).bit_count()
    sizes = (count, comb(count, 2) - len(edges), triples)
    return tuple(
        sum(sizes[k - 1] * comb(m - 1, k - 1) for k in range(1, m + 1)) for m in (1, 2, 3)
    )


def standard_sizes_oracle(count, adjacency, m):
    """The independent sets of sizes 0..m of a graph on count vertices,
    by the loops that the standard monomial count used before the
    flag-face kernel: the pairs minus the edges (half the adjacency
    popcounts), and the triples u < v < w as, for each u and each bit v
    of free (the non-neighbours of u above u), the bits of free above v
    outside adjacency[v].  Size 0 is left at 0, as it was."""
    sizes = [0] * (m + 1)
    sizes[1] = count
    if m >= 2:
        sizes[2] = comb(count, 2) - sum(row.bit_count() for row in adjacency) // 2
    if m >= 3:
        triples = 0
        for u, row in enumerate(adjacency):
            free = ~row >> (u + 1) << (u + 1) & ((1 << count) - 1)
            while free:
                low = free & -free
                free ^= low  # now the bits of free above v
                triples += (free & ~adjacency[low.bit_length() - 1]).bit_count()
        sizes[3] = triples
    return sizes


def independent_sets_oracle(adj, vertex_count):
    """All independent sets as sorted tuples (the flag face enumeration),
    plus a maximality flag per set."""
    full = (1 << vertex_count) - 1
    out = []

    def extend(current, mask, blocked, start):
        addable = ~blocked & ~mask & full
        out.append((tuple(current), addable == 0))
        rest = addable >> start << start  # the addable vertices from start on
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            current.append(v)
            extend(current, mask | low, blocked | adj[v], v + 1)
            current.pop()
            rest ^= low

    extend([], 0, 0, 0)
    return out


def clique_counts_oracle(adj, vertex_count, max_size):
    """Number of cliques of each size up to max_size (size 0 counts the
    empty clique)."""
    counts = [0] * (max_size + 1)
    counts[0] = 1

    def extend(size, candidates, start):
        if size == max_size:
            return
        v = start
        while v < vertex_count:
            if candidates >> v & 1:
                counts[size + 1] += 1
                extend(size + 1, candidates & adj[v], v + 1)
            v += 1

    full = (1 << vertex_count) - 1
    extend(0, full, 0)
    return counts


def _down_closure(poset, subset):
    """The elements below or in subset, as a frozenset, by the order
    relation."""
    return frozenset(
        i for i in poset.elements() if i in subset or any(poset.less(i, e) for e in subset)
    )


def max_of(poset, subset):
    """The maximal elements of a set of labels, ascending, by a scan of
    every pair."""
    return tuple(sorted(e for e in subset if not any(poset.less(e, f) for f in subset)))


def ideal_lattice_oracle(poset):
    """posets.ideal_lattice as frozensets: the down-closure of every
    antichain, the family checked closed under union and intersection,
    sorted by size and then by sorted elements."""
    ideals = [PosetIdeal(_down_closure(poset, a), a) for a in antichains_oracle(poset)]
    seen = {i.elements for i in ideals}
    for i, j in combinations(ideals, 2):
        if i.elements | j.elements not in seen or i.elements & j.elements not in seen:
            raise NotAnIdeal("ideal family not closed under union/intersection")
    ideals.sort(key=lambda i: (len(i.elements), tuple(sorted(i.elements))))
    return ideals


def star_oracle(poset, ideal_i, ideal_j):
    """posets.star on two PosetIdeals: the down-closure of the maxima of
    I cap J that are maxima of I or of J."""
    generators = set(max_of(poset, ideal_i.elements & ideal_j.elements)) & (
        set(ideal_i.max_elements) | set(ideal_j.max_elements)
    )
    elements = _down_closure(poset, generators)
    return PosetIdeal(elements, max_of(poset, elements))


def max_of_union(poset, ideal_i, ideal_j):
    return max_of(poset, ideal_i.elements | ideal_j.elements)


def incomparable_ideal_pairs(poset):
    """The pairs of ideal_lattice_oracle, in combinations order, of which
    neither contains the other."""
    for ideal_i, ideal_j in combinations(ideal_lattice_oracle(poset), 2):
        if not (
            ideal_i.elements <= ideal_j.elements or ideal_j.elements <= ideal_i.elements
        ):
            yield ideal_i, ideal_j


def ideal_pairs_oracle(poset):
    """The rows of toric._ideal_pairs from the frozenset oracles: the
    antichains max I, max J, max(I u J) and max(I*J) as element masks."""
    return tuple(
        tuple(
            sum(1 << e for e in antichain)
            for antichain in (
                ideal_i.max_elements,
                ideal_j.max_elements,
                max_of_union(poset, ideal_i, ideal_j),
                star_oracle(poset, ideal_i, ideal_j).max_elements,
            )
        )
        for ideal_i, ideal_j in incomparable_ideal_pairs(poset)
    )


def ideal_transfer_oracle(poset):
    """The rows of posets._ideal_transfer, with the minimal elements of
    each difference J - I found by a scan of every element."""
    masks = [sum(1 << e for e in ideal.elements) for ideal in ideal_lattice_oracle(poset)]
    rows = []
    for upper in masks:
        row = []
        for index, lower in enumerate(masks):
            if lower & ~upper:
                continue
            diff = upper & ~lower
            inside = [e for e in poset.elements() if diff >> e & 1]
            minimal = sum(1 for e in inside if not any(poset.less(i, e) for i in inside))
            row.append((index, minimal))
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=32)
def ideal_transfer(poset):
    """Transfer map over J(P): for each ideal J, in ideal_lattice order,
    the pairs (index of I, k) over ideals I contained in J, where k is
    the number of minimal elements of J minus I.

    An element x of J - I is minimal there exactly when everything below
    x lies in I, since J is down-closed.  So min(J - I) is front(I) & J,
    where front(I) holds the elements outside I whose whole down-set is
    in I, found once per ideal.  The table lists ideals by size, so every
    I contained in J comes no later than J."""
    masks = list(_ideal_table(poset))
    below = [(e, poset._below[e]) for e in poset.elements()]
    indexed = [
        (index, ideal, sum(1 << e for e, down in below if not (ideal >> e & 1 or down & ~ideal)))
        for index, ideal in enumerate(masks)
    ]
    return tuple(
        tuple(
            [
                (index, (front & upper).bit_count())
                for index, lower, front in indexed[: j + 1]
                if lower | upper == upper
            ]
        )
        for j, upper in enumerate(masks)
    )


def chain_counts_oracle(poset, max_m, from_empty=False):
    """posets.ideal_chain_count for m = 0..max_m, by applying the rows of
    ideal_transfer, one per interval I <= J, max_m times."""
    rows = ideal_transfer(poset)
    weights = [1] + [0] * (len(rows) - 1) if from_empty else [1] * len(rows)
    counts = [weights[-1]]
    for _ in range(max_m):
        weights = [sum(weights[i] << k for i, k in row) for row in rows]
        counts.append(weights[-1])
    return counts


def frontier_count_oracle(poset, m, kind="left", guard=10**8):
    """partitions.frontier_count with its former body: the same states in
    the same order, the same work units, with each state's kept and read
    slots picked by generator expressions.  It has two bounds: more than
    `guard` live states, tested as they grow, and work past
    partitions.FRONTIER_WORK_GUARD; the library keeps only the work bound,
    with `guard` as its limit."""
    partitions._check_partition_args(poset, m, kind)
    lowers = poset.lower_covers()
    last_read = [0] * (poset.n + 1)
    for e in poset.elements():
        for c in lowers[e]:
            last_read[c] = e
    live, work = [], 0
    states = {(): 1}
    for e in poset.elements():
        reads = [live.index(c) for c in lowers[e]]
        keep = [i for i, c in enumerate(live) if last_read[c] > e]
        by_base = {}
        for state, count in states.items():
            key = (tuple(state[i] for i in keep), max((state[i] for i in reads), default=0))
            by_base[key] = by_base.get(key, 0) + count
        free_only = kind == "enriched" and not lowers[e]
        states = {}
        for (kept, base), count in by_base.items():
            if not last_read[e]:
                weight = 2 * (m - base) + (0 if free_only else 1)
                states[kept] = states.get(kept, 0) + count * weight
                work += 1
            else:
                if not free_only:
                    states[kept + (base,)] = states.get(kept + (base,), 0) + count
                for a in range(base + 1, m + 1):
                    states[kept + (a,)] = states.get(kept + (a,), 0) + 2 * count
                work += m - base + (0 if free_only else 1)
            if len(states) > guard:  # tested as they grow, at most m + 1 at a time
                raise SizeLimit(f"{len(states)} partition DP states exceed guard {guard}")
            if work > partitions.FRONTIER_WORK_GUARD:
                raise SizeLimit(f"{work} partition DP steps exceed guard {partitions.FRONTIER_WORK_GUARD}")
        live = [live[i] for i in keep] + ([e] if last_read[e] else [])
    return sum(states.values())


def topological_order_oracle(poset):
    """Poset.topological_order with its former body: the least element
    with nothing unplaced below it, by min over a set of the rest."""
    if poset.naturally_labeled:
        return tuple(poset.elements())
    placed = 0
    order = []
    remaining = set(poset.elements())
    while remaining:
        e = min(i for i in remaining if poset._below[i] & ~placed == 0)
        order.append(e)
        placed |= 1 << e
        remaining.remove(e)
    return tuple(order)


def left_partition_oracle(poset, f, m=None):
    """Whether f is a left enriched partition (with bound m, if given),
    by the two defining conditions along every order relation."""
    if len(f) != poset.n:
        return False
    if m is not None and any(abs(v) > m for v in f):
        return False
    for a, b in poset.pairs:
        fa, fb = f[a - 1], f[b - 1]
        if abs(fa) > abs(fb):
            return False
        if abs(fa) == abs(fb) and fb < 0:
            return False
    return True


def is_left_partition(poset, f, m=None):
    """Whether f is a left enriched partition of the naturally labeled
    poset (with every |f(e)| <= m, if m is given), decided along the
    covers by the roundtrip kernel (moved here from partitions, where no
    library path called it)."""
    if m is not None and any(abs(v) > m for v in f):
        return False
    return partitions.roundtrip_maps(poset)[0](f) is not None


def phi_map_oracle(poset, f):
    """partitions.phi_map before the roundtrip kernel: validate f on every
    relation, then give each non-minimal element i the least
    |f(i)| - |f(j)| over its lower covers j, signed like f(i)."""
    if not left_partition_oracle(poset, f):
        raise InvalidPartition(f"{f} violates the left enriched conditions")
    lowers = poset.lower_covers()
    coords = []
    for i in poset.elements():
        if not lowers[i]:
            coords.append(f[i - 1])
        else:
            d = min(abs(f[i - 1]) - abs(f[j - 1]) for j in lowers[i])
            coords.append(d if f[i - 1] >= 0 else -d)
    return tuple(coords)


def bijection_failure_oracle(poset, max_m):
    """verify._bijection_failure before it kept the partitions that passed:
    every check on every partition at every bound m, through the same
    module attributes (partitions.roundtrip_maps, partitions.iter_partitions,
    geometry.dilation_points), so a test's patches reach both."""
    phi, psi = partitions.roundtrip_maps(poset)
    for m in range(1, max_m + 1):
        points = set(geometry.dilation_points(poset, m))
        images = set()
        for f in partitions.iter_partitions(poset, m, "left"):
            x = phi(f)
            if x is None:
                return f"at m={m}: f = {f} breaks the left enriched conditions"
            if x not in points:
                return f"at m={m}: phi(f) = {x} is not a lattice point, f = {f}"
            for a, b in zip(f, x):
                if (a >= 0) != (b >= 0) or abs(a) < abs(b):
                    return f"at m={m}: phi(f) = {x} breaks the signs or bounds of f = {f}"
            back, top = psi(x)
            if top > m:
                return f"at m={m}: psi rejects phi(f) = {x}, f = {f}"
            if back != f:
                return f"at m={m}: psi(phi(f)) = {back} != f = {f}"
            images.add(x)
        if len(images) != len(points):
            missing = min(points - images)
            return f"at m={m}: lattice point {missing} is phi of no partition"
    return None


def psi_map_oracle(poset, point, m):
    """partitions.psi_map before the roundtrip kernel: the largest chain
    sums of |x| in topological order, signed like x."""
    if len(point) != poset.n or any(not isinstance(c, int) for c in point):
        raise PointOutsidePolytope(f"{point} is not an integer vector of length n")
    lowers = poset.lower_covers()
    sums = [0] * (poset.n + 1)
    for e in poset.topological_order():
        sums[e] = abs(point[e - 1]) + max((sums[c] for c in lowers[e]), default=0)
    if max(sums) > m:
        raise PointOutsidePolytope(f"{point} lies outside the {m}-th dilation")
    return tuple(
        sums[i] if point[i - 1] >= 0 else -sums[i] for i in poset.elements()
    )


def comparability_orientations_oracle(poset):
    """posets.comparability_orientations before its bitmask backtracking:
    every one of the 2^E orientations of the comparability edges, in mask
    order, kept when its relation set is transitively closed."""
    edges = [e for e in poset_predicates(poset).comparability_edges]
    results = []
    for mask in range(1 << len(edges)):
        rel = set()
        for bit, (a, b) in enumerate(edges):
            rel.add((a, b) if not mask >> bit & 1 else (b, a))
        closed = all(
            (a, d) in rel for a, b in rel for c, d in rel if b == c
        )
        if closed:
            results.append(poset_from_covers(poset.n, rel))
    return results


def comparability_invariance(poset):
    """True iff verify._comparability_failure finds no difference (moved
    here from verify, where no library path called it)."""
    return verify._comparability_failure(poset) is None


def series_identity_check(poset, truncation):
    """True iff series_identity_failure finds no disagreement (moved here
    from partitions, where no library path called it)."""
    return partitions.series_identity_failure(poset, truncation) is None


def enumerate_partitions(poset, m, kind="left", guard=10**8):
    """Materialized list of all partitions with bound m, at most `guard` of them
    (moved here from partitions, where no library path called it)."""
    count = count_partitions(poset, m, kind)
    if count > guard:
        raise SizeLimit(f"{count} partitions exceed guard {guard}")
    return list(iter_partitions(poset, m, kind))


def _ideal_mask(poset, elements):
    """The element mask of a down-closed set of labels in 1..n."""
    elements = frozenset(elements)
    if not all(1 <= e <= poset.n for e in elements):
        raise LabelOutOfRange(f"label outside 1..{poset.n} in {sorted(elements)}")
    mask = sum(1 << e for e in elements)
    for e in elements:
        for i in _bits(poset._below[e] & ~mask):
            raise NotAnIdeal(f"{sorted(elements)} is not down-closed ({i} < {e})")
    return mask


def star(poset, ideal_i, ideal_j):
    """The ideal generated by max(I cap J) restricted to max(I) cup max(J);
    a subset of an antichain generates the ideal whose maxima it is (moved
    here from posets, where no library path called it)."""
    table = _ideal_table(poset)
    i, j = (_ideal_mask(poset, getattr(x, "elements", x)) for x in (ideal_i, ideal_j))
    generators = table[i & j] & (table[i] | table[j])
    elements = generators
    for e in _bits(generators):
        elements |= poset._below[e]
    return _view(elements, generators)


def make_ideal(poset, elements):
    """The PosetIdeal of a down-closed set of labels (moved here from
    posets, where no library path called it)."""
    mask = _ideal_mask(poset, elements)
    return _view(mask, _ideal_table(poset)[mask])


def membership_oracle(poset, point, max_antichains=4096):
    """Independent membership test for the chain polytope: decide whether
    the nonnegative rational point is a convex combination of antichain
    indicator vectors, by exact LP feasibility.  Used to validate the
    maximal-chain inequality description on small instances."""
    point = [Fraction(c) for c in point]
    if any(c < 0 for c in point):
        raise ValueError("membership oracle expects a nonnegative point")
    chains = antichains_oracle(poset)
    if len(chains) > max_antichains:
        raise SizeLimit(f"membership oracle guarded at {max_antichains} antichains")
    rows = [[1 if e in a else 0 for a in chains] for e in poset.elements()]
    rows.append([1] * len(chains))
    rhs = point + [1]
    return feasible_point_eq(rows, rhs) is not None


def feasible_point_ge(rows, rhs):
    """Solve {x >= 0 : A x >= b} by adding surplus variables."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    eq_rows = [list(row) + [-1 if j == i else 0 for j in range(m)] for i, row in enumerate(rows)]
    point = feasible_point_eq(eq_rows, rhs)
    if point is None:
        return None
    return point[:n]


def in_chain_polytope(poset, point, m=1):
    """Membership of a nonnegative rational point in m * (chain polytope),
    by the maximal-chain inequalities: sums along every maximal chain are
    at most m."""
    if any(c < 0 for c in point):
        return False
    return all(sum(point[e - 1] for e in chain) <= m for chain in maximal_chains(poset))


def ehrhart_polynomial(poset):
    """Lattice point enumerator of the enriched chain polytope, interpolated
    from the counts at dilations 0..n; degree exactly n, constant term 1."""
    n = poset.n
    poly = interpolate(dilation_counts(poset, n))
    if poly.degree != n or poly.leading <= 0:
        raise IdentityViolation(f"Ehrhart polynomial degenerate: {poly!r}")
    if poly(0) != 1:
        raise IdentityViolation("Ehrhart polynomial has constant term != 1")
    return poly


def one_plus_x_power(k):
    """(1 + x)^k."""
    return IntPolynomial([comb(k, i) for i in range(k + 1)])


def shifted(poly, c):
    """p(x + c) for a RatPolynomial p, by Horner's rule over exact
    rationals (moved here from RatPolynomial.shifted)."""
    result = RatPolynomial()
    for a in reversed(poly.coeffs):
        # result <- result * (x + c) + a
        coeffs = [Fraction(0)] + list(result.coeffs)
        for i, r in enumerate(result.coeffs):
            coeffs[i] += r * c
        coeffs[0] += a
        result = RatPolynomial(coeffs)
    return result


def peak_positions(word):
    """Interior peaks only: positions 2 <= i <= n-1 (moved here from
    partitions, which reads them off the left peaks)."""
    return [
        p + 1
        for p in range(1, len(word) - 1)
        if word[p - 1] < word[p] > word[p + 1]
    ]


def descent_count(word):
    return sum(1 for a, b in zip(word, word[1:]) if a > b)


def decorated_blocks(decorated):
    """The letters between consecutive bars, moved here from
    DecoratedPermutation.blocks."""
    cuts = [0] + [p for p, _ in decorated.bars] + [len(decorated.word)]
    return [decorated.word[a:b] for a, b in zip(cuts, cuts[1:])]


def decorated_text(decorated):
    """The blocks written out with each bar as |^color, moved here from
    DecoratedPermutation.text."""
    parts = []
    for block, bar in zip(decorated_blocks(decorated), list(decorated.bars) + [None]):
        parts.append("".join(str(x) for x in block))
        if bar is not None:
            parts.append(f"|^{bar[1]} ")
    return "".join(parts).rstrip()


def decorate(word):
    """All 4^(left peak count) decorations of a permutation."""
    positions = left_peak_positions(word)
    return [
        DecoratedPermutation(tuple(word), tuple(zip(positions, colors)))
        for colors in product(COLORS, repeat=len(positions))
    ]


def cover_reduce(decorated, bar_index):
    """Remove the bar_index-th bar (1-based) and reorder the two blocks it
    separated as grave(w_i) + sort(acute(w_i) + w_{i+1}), uniformly for
    every block including the first.  When the result's remaining bars
    no longer sit at its left peaks (whenever the first block's head is
    not the minimum of the merged letters), raise MalformedResult rather
    than silently re-barring; iso_check counts how often that happens."""
    if not 1 <= bar_index <= decorated.bar_count():
        raise ValueError(f"bar index {bar_index} out of range")
    blocks = decorated_blocks(decorated)
    i = bar_index - 1
    grave, acute = grave_acute(blocks[i])
    merged = grave + tuple(sorted(acute + blocks[i + 1]))
    word = sum(blocks[:i], ()) + merged + sum(blocks[i + 2 :], ())
    bars = decorated.bars[:i] + decorated.bars[i + 1 :]
    return DecoratedPermutation(word, bars)


def phi_face_map(decorated):
    """The face attached to a decorated permutation: one one-bar vertex
    per bar, built from the sorted letters left of that bar's following
    grave part, the grave part itself, and the sorted letters right of it."""
    blocks = decorated_blocks(decorated)
    word = decorated.word
    vertices = []
    for i, (pos, color) in enumerate(decorated.bars, start=1):
        grave, _ = grave_acute(blocks[i])
        left = tuple(sorted(word[:pos]))
        right = tuple(sorted(word[pos + len(grave) :]))
        vertices.append(DecoratedPermutation(left + grave + right, ((pos, color),)))
    return vertices


class _VertexKey(NamedTuple):
    """The per-vertex half of adjacency, computed once per vertex."""

    vertex: DecoratedPermutation
    position: int  # the bar position p
    prefix: tuple  # word[:p]
    letters: frozenset  # the letters of word[:p]
    grave: tuple  # grave_acute(word[p:])
    acute: tuple


def _vertex_key(vertex):
    if vertex.bar_count() != 1:
        raise ValueError("vertex adjacency is defined for one-bar elements")
    p = vertex.bars[0][0]
    prefix = vertex.word[:p]
    grave, acute = grave_acute(vertex.word[p:])
    return _VertexKey(vertex, p, prefix, frozenset(prefix), grave, acute)


def _spliced_adjacent(ku, kv):
    """The pair half of vertex_adjacent, for keys with
    ku.position < kv.position, decided on words.

    The spliced word must be a permutation whose left peaks are exactly
    the two bar positions, and for each bar the face map's word
    sorted(left) + grave + sorted(right) and bar position must be the
    vertex's own.  The bar colors are the vertices' by construction, and
    a face-map vertex equal to u or v is valid because u and v are."""
    u_word = ku.vertex.word
    n = len(u_word)
    bridge = tuple(sorted(kv.letters.intersection(ku.acute)))
    word = ku.prefix + ku.grave + bridge + kv.grave + kv.acute
    if sorted(word) != list(range(1, n + 1)):
        return False
    first, second = ku.position, ku.position + len(ku.grave) + len(bridge)
    # second == kv.position also follows from the word comparison below
    if second != kv.position or left_peak_positions(word) != [first, second]:
        return False
    for pos, end, target in ((first, second, u_word), (second, n, kv.vertex.word)):
        grave, _ = grave_acute(word[pos:end])
        face = tuple(sorted(word[:pos])) + grave + tuple(sorted(word[pos + len(grave) :]))
        if face != target:
            return False
    return True


def vertex_adjacent(u, v):
    """Adjacency of two one-bar decorated permutations: ordering them by
    increasing-prefix length (strictly; equal lengths are never adjacent),
    splice the first's prefix and decreasing run with the letters shared
    by its increasing rest and the second's prefix, then the second's
    tail.  The pair is adjacent when the composite is a valid two-bar
    decorated permutation whose face map returns exactly this pair, so an
    edge is precisely the image of a two-bar element."""
    ku, kv = _vertex_key(u), _vertex_key(v)
    if ku.position == kv.position:
        return False
    if ku.position > kv.position:
        ku, kv = kv, ku
    return _spliced_adjacent(ku, kv)


def splice_adjacency(poset):
    """The adjacency bitsets of the gamma complex's color-0 vertices, one
    per one-peak linear extension in lexicographic order, by the pair loop
    build_complex ran before it read the edges off the two-peak
    extensions.

    Two filters skip pairs before the splice, and both are necessary
    conditions only: the bar positions differ (vertex_adjacent rejects
    equal ones), and u's bar, grave and bridge fill exactly the letters
    before v's bar, pu + |grave_u| + |bridge| == pv, without which the
    spliced word has the wrong length to be a permutation.  What decides
    is the pair test that vertex_adjacent makes, on words: the spliced
    word is a permutation, its left peaks are the two bar positions, and
    the face map's word and bar position for each bar are the pair's."""
    n = poset.n
    underlying = []
    for w in linear_extensions(poset):
        peaks = left_peak_positions(w)
        if len(peaks) == 1:
            underlying.append(DecoratedPermutation(tuple(w), ((peaks[0], 0),)))

    keys = [_vertex_key(base) for base in underlying]
    by_position = {}
    for b, key in enumerate(keys):
        by_position.setdefault(key.position, []).append(b)
    adj = [0] * len(keys)
    for a, ku in enumerate(keys):
        reach = ku.position + len(ku.grave)  # pv - |bridge|, and |bridge| >= 0
        for pv in range(reach, n):
            for b in by_position.get(pv, ()):
                kv = keys[b]
                if reach + len(kv.letters.intersection(ku.acute)) != pv:
                    continue
                if _spliced_adjacent(ku, kv):
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
    return adj


def eager_colored_views(complex_):
    """The colored vertices and edges of a GammaComplex as build_complex
    once built them eagerly, before the complex kept only its (word, peak)
    bases and pairs: each base in colors 0..3, and each pair of bases in
    every two colors as index pairs into the vertices."""
    underlying, pairs = complex_.bases, complex_.pairs
    vertices = [DecoratedPermutation(w, ((peak, c),)) for w, peak in underlying for c in COLORS]
    edges = [(a * 4 + ca, b * 4 + cb) for a, b in pairs for ca in COLORS for cb in COLORS]
    return tuple(vertices), tuple(edges)


def spliced_adjacent_oracle(u, v):
    """vertex_adjacent by the object-level splice: order the one-bar
    vertices by bar position (equal positions are never adjacent), splice
    u's prefix and grave with the letters shared by its acute and v's
    prefix, then v's tail; build the two-bar DecoratedPermutation, which
    checks its bars against the left peaks, and compare its face map with
    the pair.  The face map raises MalformedResult when one of its
    vertices is not a valid one-bar element."""
    if u.bar_count() != 1 or v.bar_count() != 1:
        raise ValueError("vertex adjacency is defined for one-bar elements")
    if u.bars[0][0] == v.bars[0][0]:
        return False
    if u.bars[0][0] > v.bars[0][0]:
        u, v = v, u
    (pu, cu), (pv, cv) = u.bars[0], v.bars[0]
    grave, acute = grave_acute(u.word[pu:])
    bridge = tuple(sorted(set(v.word[:pv]).intersection(acute)))
    word = u.word[:pu] + grave + bridge + sum(grave_acute(v.word[pv:]), ())
    if sorted(word) != list(range(1, len(u.word) + 1)):
        return False
    bars = ((pu, cu), (pu + len(grave) + len(bridge), cv))
    try:
        composite = DecoratedPermutation(word, bars)
    except MalformedResult:
        return False
    return phi_face_map(composite) == [u, v]


def s_p(poset):
    """All decorated linear extensions."""
    out = []
    for w in linear_extensions(poset):
        out.extend(decorate(w))
    return out


@dataclass(frozen=True)
class IsoReport:
    element_count: int
    face_count: int
    bijective: bool
    grade_preserving: bool
    covers_consistent: bool
    malformed_covers: int
    total_covers: int


def iso_check(poset, max_n=5):
    """Exhaustively verify that phi is a grade-preserving bijection from
    the decorated linear extensions onto the faces of the complex, and
    that removing a bar matches deleting the corresponding vertex from the
    face whenever the removal is well formed (malformed removals are
    counted, not hidden).

    The faces are built from the vertices and edges only, so of size at
    most 2.  That is every face only while n <= 5, where face sizes run
    0 .. n // 2 <= 2; the guard must not be raised past 5 without
    building faces from cliques of every size."""
    if poset.n > max_n:
        raise SizeLimit(f"iso check guarded at n <= {max_n}")
    elements = s_p(poset)
    complex_ = build_complex(poset)
    faces = {frozenset()}
    for v in complex_.vertices:
        faces.add(frozenset([v]))
    for a, b in complex_.edges:
        faces.add(frozenset([complex_.vertices[a], complex_.vertices[b]]))

    images = {}
    grade_ok = True
    for d in elements:
        img = phi_face_map(d)
        images[d] = img
        if len(img) != d.bar_count():
            grade_ok = False
    image_sets = [frozenset(img) for img in images.values()]
    bijective = (
        len(set(image_sets)) == len(elements) and set(image_sets) == faces
    )

    malformed = 0
    total = 0
    covers_ok = True
    element_set = set(elements)
    for d in elements:
        for i in range(1, d.bar_count() + 1):
            total += 1
            try:
                reduced = cover_reduce(d, i)
            except MalformedResult:
                malformed += 1
                continue
            if reduced not in element_set:
                covers_ok = False
                continue
            expected = set(images[d])
            expected.discard(images[d][i - 1])
            if set(images[reduced]) != expected:
                covers_ok = False
    return IsoReport(
        element_count=len(elements),
        face_count=len(faces),
        bijective=bijective,
        grade_preserving=grade_ok,
        covers_consistent=covers_ok,
        malformed_covers=malformed,
        total_covers=total,
    )
