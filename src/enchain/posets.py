"""Finite posets on the label set {1, ..., n} and order-theoretic enumeration.

A poset is stored as its full strict order relation, transitively closed,
which gives its value (equality and hash), and as one bitset per element
of the elements below it and of those above it, which every kernel reads.
Instances are immutable and hashable, safe to share between threads.
Facts derived from a poset (covers, maximal chains, the ideal table, its
cover edges, the ideal-chain counts) are computed once and kept, each in
a slot or a bounded memo keyed by the poset's value; an entry is only
ever filled or replaced whole, so no caller can see a value change.

A poset is *naturally labeled* when i < j as integers whenever i precedes j
in the order.  Operations on enriched partitions require natural labeling;
everything else accepts any labeling.  Every poset offers a companion
relabeling (its lexicographically smallest linear extension) so callers can
canonicalize, which is harmless for the quantities computed here since they
depend only on the comparability graph.
"""

from dataclasses import dataclass
from functools import lru_cache, wraps
from types import MappingProxyType

from .errors import CycleDetected, LabelOutOfRange, SizeLimit

LINEAR_EXTENSION_GUARD = 10
IDEAL_GUARD = 1 << 16


class Poset:
    __slots__ = ("n", "pairs", "_below", "_above", "_covers", "_lowers", "_chains", "_natural")

    def __init__(self, n, pairs):
        """Trusted constructor: `pairs` must already be a strict partial
        order (irreflexive, antisymmetric, transitively closed).  Use
        poset_from_covers() for unvalidated input."""
        self.n = n
        self.pairs = frozenset(pairs)
        below = [0] * (n + 1)
        above = [0] * (n + 1)
        for a, b in self.pairs:
            below[b] |= 1 << a
            above[a] |= 1 << b
        self._below = tuple(below)
        self._above = tuple(above)
        self._covers = None
        self._lowers = None
        self._chains = None
        self._natural = None

    def less(self, a, b):
        return (a, b) in self.pairs

    @property
    def naturally_labeled(self):
        if self._natural is None:
            self._natural = all(a < b for a, b in self.pairs)
        return self._natural

    def elements(self):
        return range(1, self.n + 1)

    def covers(self):
        """Cover pairs (a, b): a precedes b with nothing in between."""
        if self._covers is None:
            covs = []
            for a, b in self.pairs:
                if not (self._above[a] & self._below[b]):
                    covs.append((a, b))
            self._covers = tuple(sorted(covs))
        return self._covers

    def lower_covers(self):
        """Per element (index 0 unused), its lower covers ascending."""
        if self._lowers is None:
            lowers = [[] for _ in range(self.n + 1)]
            for a, b in self.covers():
                lowers[b].append(a)
            self._lowers = tuple(map(tuple, lowers))
        return self._lowers

    def minimal_elements(self):
        return [i for i in self.elements() if not self._below[i]]

    def topological_order(self):
        """Lexicographically smallest linear extension, computed greedily."""
        if self.naturally_labeled:
            return tuple(self.elements())
        placed = 0
        order = []
        remaining = set(self.elements())
        while remaining:
            e = min(i for i in remaining if self._below[i] & ~placed == 0)
            order.append(e)
            placed |= 1 << e
            remaining.remove(e)
        return tuple(order)

    @property
    def natural_relabeling(self):
        """A linear extension to relabel by; identity iff already natural."""
        return self.topological_order()

    def relabeled(self, pi):
        """Relabel so the element pi[k-1] receives the new label k."""
        if sorted(pi) != list(self.elements()):
            raise ValueError(f"not a permutation of 1..{self.n}: {pi}")
        pos = {old: new + 1 for new, old in enumerate(pi)}
        return Poset(self.n, {(pos[a], pos[b]) for a, b in self.pairs})

    def canonicalized(self):
        """Naturally labeled copy via the companion relabeling."""
        if self.naturally_labeled:
            return self
        return self.relabeled(self.natural_relabeling)

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.n == other.n
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.n, self.pairs))

    def __repr__(self):
        return f"Poset({self.n}, {sorted(self.pairs)})"


def poset_from_covers(n, covers):
    """Build a poset from cover (or any acyclic relation) pairs.

    Labels are validated against 1..n, the transitive closure is computed,
    and acyclicity is verified.  The result carries a naturally_labeled
    flag and a companion relabeling (a linear extension) for callers that
    need to canonicalize.
    """
    if n < 1:
        raise LabelOutOfRange(f"poset must have at least one element, got n={n}")
    above = [0] * (n + 1)
    for a, b in covers:
        if not (1 <= a <= n and 1 <= b <= n):
            raise LabelOutOfRange(f"label outside 1..{n} in cover ({a}, {b})")
        if a == b:
            raise CycleDetected(f"relation {a} < {a} is a cycle")
        above[a] |= 1 << b
    # Warshall closure on the above-masks.
    for k in range(1, n + 1):
        bit = 1 << k
        for i in range(1, n + 1):
            if above[i] & bit:
                above[i] |= above[k]
    for i in range(1, n + 1):
        if above[i] & (1 << i):
            raise CycleDetected(f"element {i} precedes itself after closure")
    pairs = {
        (a, b) for a in range(1, n + 1) for b in range(1, n + 1) if above[a] >> b & 1
    }
    return Poset(n, pairs)


def antichains(poset):
    """Every antichain of the poset, the empty one included, sorted by
    size then lexicographically: the maxima of the ideal table's rows, as
    each antichain is the maxima of exactly one ideal."""
    rows = (tuple(_bits(maxima)) for maxima in _ideal_table(poset).values())
    return sorted(rows, key=lambda a: (len(a), a))


def maximal_chains(poset):
    """Every maximal chain, each listed bottom to top, exactly once, as a
    fresh list (the chains are computed once per poset)."""
    if poset._chains is None:
        poset._chains = _walk_maximal_chains(poset)
    return list(poset._chains)


def _walk_maximal_chains(poset):
    uppers = {i: [] for i in poset.elements()}
    for a, b in poset.covers():
        uppers[a].append(b)
    for ups in uppers.values():
        ups.sort()
    chains = []

    def walk(chain):
        top = chain[-1]
        if not uppers[top]:
            chains.append(tuple(chain))
            return
        for nxt in uppers[top]:
            chain.append(nxt)
            walk(chain)
            chain.pop()

    for start in sorted(poset.minimal_elements()):
        walk([start])
    return tuple(chains)


def linear_extensions(poset):
    """All linear extensions as permutations of 1..n, lexicographically."""
    n = poset.n
    if n > LINEAR_EXTENSION_GUARD:
        raise SizeLimit(f"linear extension enumeration guarded at n <= {LINEAR_EXTENSION_GUARD}")
    below = poset._below
    out = []
    perm = []

    def backtrack(placed, remaining):
        if not remaining:
            out.append(tuple(perm))
            return
        for e in sorted(remaining):
            if below[e] & ~placed == 0:
                perm.append(e)
                backtrack(placed | 1 << e, remaining - {e})
                perm.pop()

    backtrack(0, set(poset.elements()))
    return out


@dataclass(frozen=True)
class PosetIdeal:
    """A down-closed subset together with its antichain of maxima."""

    elements: frozenset
    max_elements: tuple


def _bits(mask):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _flag_faces(adjacency, bound):
    """Faces of the flag complex of a loopless graph, one neighbour bitset
    per vertex: its cliques, or, given the complement, its independent
    sets.  Returns the face counts by size 0..bound, the last by popcount,
    and the maximal faces of fewer than bound vertices as masks, in the
    order of a walk that adds vertices in increasing order.

    >>> counts, maximal = _flag_faces([0b1010, 0b0101, 0b1010, 0b0101], 3)
    >>> counts, [tuple(_bits(face)) for face in maximal]  # the 4-cycle 0-1-2-3
    ([1, 4, 4, 0], [(0, 1), (0, 3), (1, 2), (2, 3)])
    """
    counts = [1] + [0] * bound
    maximal = [] if adjacency else [0]

    def extend(face, common, above, size):
        # common: the vertices joined to all of face; above: those past its last
        counts[size + 1] += above.bit_count()
        if size + 1 == bound:
            return
        while above:
            low = above & -above
            above ^= low
            row = adjacency[low.bit_length() - 1]
            if not common & row:
                maximal.append(face | low)
            if size + 2 == bound:  # the faces past face | low, without a call
                counts[bound] += (above & row).bit_count()
            else:
                extend(face | low, common & row, above & row, size + 1)

    everything = (1 << len(adjacency)) - 1
    extend(0, everything, everything, 0)
    return counts, maximal


def _memo_with_limit(walk):
    """lru_cache for a per-poset walk that also keeps the SizeLimit it
    raises, so a poset past the guard is not walked up to it again."""
    @lru_cache(maxsize=32)
    def outcome(poset):
        try:
            return walk(poset)
        except SizeLimit as exc:  # lru_cache keeps no exception
            return exc

    @wraps(walk)
    def memoised(poset):
        value = outcome(poset)
        if isinstance(value, SizeLimit):
            raise SizeLimit(*value.args)
        return value

    memoised.cache_info, memoised.cache_clear = outcome.cache_info, outcome.cache_clear
    return memoised


@_memo_with_limit
def _ideal_table(poset):
    """Every ideal as element mask -> maxima mask, read-only, in
    ideal_lattice order (by size, then by elements); no other code builds
    ideals.  The walk grows J(P) a level at a time from the empty ideal,
    adding to each ideal I every e in front(I), the elements outside I
    whose down-set lies in I.  The maxima of I + e are e and those of I
    not below e; I + e is kept only when e is the largest of them, so each
    ideal is reached once.  A level sorts by bit-reversed mask, descending,
    which orders it by elements.  Past IDEAL_GUARD ideals the walk raises
    SizeLimit, checked as each ideal of the previous level is extended,
    so it stops within IDEAL_GUARD + n ideals; that is memoised too."""
    n = poset.n
    steps = [(e, 1 << e, poset._below[e], 1 << (n - e)) for e in poset.elements()]
    rows = {0: 0}
    level = [(0, 0, 0)]  # (bit-reversed mask, mask, maxima) per ideal
    for size in range(1, n + 1):
        grown = []
        room = IDEAL_GUARD - len(rows)
        for reverse, ideal, maxima in level:
            for e, bit, down, reverse_bit in steps:
                if not (ideal & bit or down & ~ideal):
                    kept = maxima & ~down
                    if not kept >> e:
                        grown.append((reverse | reverse_bit, ideal | bit, kept | bit))
            if len(grown) > room:
                count = len(rows) + len(grown)
                raise SizeLimit(f"{count} ideals of size <= {size} exceed guard {IDEAL_GUARD}")
        grown.sort(reverse=True)
        rows.update((ideal, maxima) for _, ideal, maxima in grown)
        level = grown
    return MappingProxyType(rows)


def _view(elements, maxima):
    return PosetIdeal(frozenset(_bits(elements)), tuple(_bits(maxima)))


def ideal_lattice(poset):
    """All poset ideals (one per antichain of maxima), as a fresh list."""
    return [_view(*row) for row in _ideal_table(poset).items()]


@lru_cache(maxsize=32)
def _cover_edges(poset):
    """The cover edges of J(P) as index pairs (K, K - e) into the ideal
    table, for each maximal element e of K, grouped by e: one tuple per
    element, the elements in linear-extension order."""
    table = _ideal_table(poset)
    index = {ideal: k for k, ideal in enumerate(table)}
    edges = [[] for _ in range(poset.n + 1)]
    for k, (ideal, maxima) in enumerate(table.items()):
        for e in _bits(maxima):
            edges[e].append((k, index[ideal ^ 1 << e]))
    return tuple(tuple(edges[e]) for e in poset.topological_order())


class _ChainCounts:
    """The ideal-chain counts of one poset for m = 0, 1, ..., computed by
    one transfer that later calls resume rather than restart.

    A step is T(w)[J] = sum over ideals I <= J of 2^|min(J - I)| w[I].  As
    2^|min(J - I)| counts the ideals K with I <= K <= J and K - I inside
    max K, T(w)[J] = sum over K <= J of sum over A inside max K of w[K - A].
    Both sums run over the cover edges (K, K - e), e in max K, an element
    at a time, w[K] += w[K - e] in place: the inner one in reverse
    linear-extension order, so the maxima of K - e below e are not yet
    summed over, the outer one in linear-extension order.  A step costs
    2 * sum_K |max K| additions, not one per interval I <= J.

    The state is one immutable pair (counts, weights at the last m).  The
    passes run on a fresh copy of the weights, and the state is replaced
    by a single assignment, so a concurrent caller reads either the old
    prefix or the new one, and both are correct.  Two callers growing it
    at once may keep the shorter prefix; that only costs a recomputation."""

    __slots__ = ("passes", "state")

    def __init__(self, edges, weights):
        self.passes = edges[::-1] + edges
        self.state = ((weights[-1],), tuple(weights))

    def upto(self, m):
        counts, weights = self.state
        if m >= len(counts):
            counts, weights = list(counts), list(weights)
            for _ in range(len(counts), m + 1):
                for pairs in self.passes:
                    for k, i in pairs:
                        weights[k] += weights[i]
                counts.append(weights[-1])
            self.state = (tuple(counts), tuple(weights))
        return counts


@lru_cache(maxsize=64)
def _chain_counts(poset, from_empty):
    size = len(_ideal_table(poset))
    weights = [1] + [0] * (size - 1) if from_empty else [1] * size
    return _ChainCounts(_cover_edges(poset), weights)


def ideal_chain_count(poset, m, from_empty=False):
    """Weighted number of ideal chains I_0 <= I_1 <= ... <= I_m = P in which
    each step I -> J weighs 2^|min(J - I)|; I_0 is any ideal, or only the
    empty one when from_empty is set.

    A map f into {0, +-1, ..., +-m} whose absolute values weakly increase
    along the order is recorded by its level ideals I_k = {e : |f(e)| <= k}.
    Requiring f(y) >= 0 (or > 0) wherever |f| does not increase from a
    lower cover leaves a free sign exactly on the minimal elements of each
    I_k - I_{k-1}, k >= 1.  So this counts the left enriched partitions
    with bound m, and with from_empty (no zero values) the enriched ones
    (Stanley's transfer map, with Stembridge's sign rule).

    As 2^|min(J - I)| = #{K : I <= K <= J, K - I inside max K}, a bound is
    two passes over J(P)'s cover edges, in reverse linear-extension order,
    then in that order (see _ChainCounts); the transfer is kept per (poset,
    from_empty), so a later, larger m resumes where the last one ended."""
    if m < 0:
        raise ValueError("bound must be nonnegative")
    return _chain_counts(poset, from_empty).upto(m)[m]


@dataclass(frozen=True)
class PosetPredicates:
    comparability_edges: tuple
    width: int
    narrow: bool


def poset_predicates(poset):
    """Comparability graph, exact width (maximum antichain size), and the
    narrow flag (width <= 2, i.e. coverable by two chains)."""
    edges = tuple(sorted({(min(a, b), max(a, b)) for a, b in poset.pairs}))
    width = max(maxima.bit_count() for maxima in _ideal_table(poset).values())
    return PosetPredicates(edges, width, width <= 2)


@lru_cache(maxsize=None)
def all_natural_posets(n):
    """Every naturally labeled poset on 1..n (every strict order relation
    contained in the natural total order), deterministically ordered.

    Enumerates bitmasks over the C(n,2) increasing pairs and keeps the
    transitively closed ones; feasible through n = 6 (32768 masks)."""
    pair_list = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    posets = []
    for mask in range(1 << len(pair_list)):
        above = [0] * (n + 1)
        chosen = []
        for bit, (i, j) in enumerate(pair_list):
            if mask >> bit & 1:
                above[i] |= 1 << j
                chosen.append((i, j))
        if all(above[j] & ~above[i] == 0 for i, j in chosen):
            posets.append(Poset(n, chosen))
    return tuple(posets)


def comparability_orientations(poset):
    """The transitive reorientations of this poset's comparability graph,
    in the order of their masks of reversed edges: edges are oriented from
    the last down, as listed first.  A relation a < b that makes a chain
    c < a < b or a < b < d with ends not joined, or joined the other way,
    is refused, as no later edge can close that chain."""
    edges = poset_predicates(poset).comparability_edges
    n = poset.n
    joined = [up | down for up, down in zip(poset._above, poset._below)]
    above, below, results = [0] * (n + 1), [0] * (n + 1), []

    def orient(k):
        if not k:
            results.append(Poset(n, [(a, b) for a in range(1, n + 1) for b in _bits(above[a])]))
            return
        for a, b in (edges[k - 1], edges[k - 1][::-1]):
            if not (below[a] & (above[b] | ~joined[b]) or above[b] & ~joined[a]):
                above[a] ^= 1 << b
                below[b] ^= 1 << a
                orient(k - 1)
                above[a] ^= 1 << b
                below[b] ^= 1 << a

    orient(len(edges))
    return results
