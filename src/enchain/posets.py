"""Finite posets on the label set {1, ..., n} and order-theoretic enumeration.

A poset is stored as one bitset per element of the elements above it,
which gives its value (equality and hash), and of those below it; every
kernel reads these, and the pair set of the relation is only derived for
output.  Instances are immutable and hashable, safe to share between threads.
Facts derived from a poset (covers, lower covers, maximal chains, the linear
extensions with their left peaks and descents, the ideal table, its cover
edges, the ideal-chain counts) are computed once and kept in _memo,
MEMO_SIZE entries per fact keyed by the poset's value: a row of
verify_poset reads up to 120 ideal tables (the 5-chain's orientations), and
a sweep reuses peak and order polynomials across rows from 128 up.  Entries
are only filled or replaced whole, so no caller can see a value change.

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
# The costliest bounds this admits, on a 2-core host: m = 58,254 on the
# 256-chain, 3.4 s; m = 31 on the 16-antichain, 2.4 s and 70 MiB.
TRANSFER_GUARD = 1 << 25
MEMO_SIZE = 128
_memo = lru_cache(maxsize=MEMO_SIZE)


class Poset:
    __slots__ = ("n", "_above", "_below", "naturally_labeled")

    def __init__(self, n, above):
        """Trusted constructor: above[e] is the bitset of the elements above
        e (index 0 unused), which must already be a strict partial order
        (irreflexive, antisymmetric, transitively closed).  Use
        poset_from_covers() for unvalidated input."""
        self.n = n
        self._above = tuple(above)
        below = [0] * (n + 1)
        for a in range(1, n + 1):
            for b in _bits(self._above[a]):
                below[b] |= 1 << a
        self._below = tuple(below)
        self.naturally_labeled = not any(up & ((2 << a) - 1) for a, up in enumerate(self._above))

    def less(self, a, b):
        return bool(self._above[a] >> b & 1)

    @property
    def pairs(self):
        """The order as pairs (a, b), a below b, derived for output only."""
        return frozenset((a, b) for a in self.elements() for b in _bits(self._above[a]))

    def elements(self):
        return range(1, self.n + 1)

    @_memo
    def covers(self):
        """Cover pairs (a, b), ascending: a precedes b with nothing between."""
        up, down = self._above, self._below
        return tuple((a, b) for a in self.elements() for b in _bits(up[a]) if not up[a] & down[b])

    @_memo
    def lower_covers(self):
        """Per element (index 0 unused), its lower covers ascending."""
        lowers = [[] for _ in range(self.n + 1)]
        for a, b in self.covers():
            lowers[b].append(a)
        return tuple(map(tuple, lowers))

    def minimal_elements(self):
        return [i for i in self.elements() if not self._below[i]]

    def topological_order(self):
        """Lexicographically smallest linear extension, computed greedily:
        each step places the lowest unplaced bit with nothing unplaced below."""
        if self.naturally_labeled:
            return tuple(self.elements())
        below, order, unplaced = self._below, [], (1 << self.n + 1) - 2
        while unplaced:
            ready = unplaced
            while True:
                low = ready & -ready
                e = low.bit_length() - 1
                if not below[e] & unplaced:
                    break
                ready ^= low
            order.append(e)
            unplaced ^= low
        return tuple(order)

    def relabeled(self, pi):
        """Relabel so the element pi[k-1] receives the new label k."""
        if sorted(pi) != list(self.elements()):
            raise ValueError(f"not a permutation of 1..{self.n}: {pi}")
        pos = {old: new + 1 for new, old in enumerate(pi)}
        above = [0] * (self.n + 1)
        for a in self.elements():
            for b in _bits(self._above[a]):
                above[pos[a]] |= 1 << pos[b]
        return Poset(self.n, above)

    def canonicalized(self):
        """Naturally labeled copy, relabeled by the topological order."""
        if self.naturally_labeled:
            return self
        return self.relabeled(self.topological_order())

    def __eq__(self, other):
        return isinstance(other, Poset) and self._above == other._above

    def __hash__(self):
        return hash(self._above)

    def __repr__(self):
        return f"Poset({self.n}, {sorted(self.pairs)})"


def poset_from_covers(n, covers):
    """Build a poset from cover (or any acyclic relation) pairs.

    Labels are validated against 1..n.  Kahn's algorithm orders the
    elements topologically, placing an element once all it is given above
    are placed, and leaves some out exactly when the relation has a cycle;
    the transitive closure is then one union per given pair, in reverse
    order.  The result carries a naturally_labeled flag and a companion
    relabeling (a linear extension) for callers that need to canonicalize.
    """
    if n < 1:
        raise LabelOutOfRange(f"poset must have at least one element, got n={n}")
    above, below = [0] * (n + 1), [0] * (n + 1)
    for a, b in covers:
        if not (1 <= a <= n and 1 <= b <= n):
            raise LabelOutOfRange(f"label outside 1..{n} in cover ({a}, {b})")
        above[a] |= 1 << b
        below[b] |= 1 << a
    order, placed = [e for e in range(1, n + 1) if not below[e]], 0
    for e in order:  # grows while it is read
        placed |= 1 << e
        order.extend(b for b in _bits(above[e]) if not below[b] & ~placed)
    if len(order) < n:
        least = next(e for e in range(1, n + 1) if not placed >> e & 1)
        raise CycleDetected(f"element {least} lies on or above a cycle of the relation")
    for e in reversed(order):
        for b in _bits(above[e]):
            above[e] |= above[b]
    return Poset(n, above)


def antichains(poset):
    """Every antichain of the poset, the empty one included, sorted by
    size then lexicographically: the maxima of the ideal table's rows, as
    each antichain is the maxima of exactly one ideal."""
    rows = (tuple(_bits(maxima)) for maxima in _ideal_table(poset).values())
    return sorted(rows, key=lambda a: (len(a), a))


def maximal_chains(poset):
    """Every maximal chain, each listed bottom to top, exactly once, as a
    fresh list (the chains are walked once per poset)."""
    return list(_walk_maximal_chains(poset))


@_memo
def _walk_maximal_chains(poset):
    uppers = {i: [] for i in poset.elements()}
    for a, b in poset.covers():
        uppers[a].append(b)  # ascending, as covers() lists them
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

    for start in poset.minimal_elements():
        walk([start])
    return tuple(chains)


def linear_extensions(poset, statistics=False):
    """All linear extensions as permutations of 1..n, lexicographically,
    as a fresh list; with statistics, the memoised walk itself: a tuple of
    (word, left peak positions, descent count), one per extension."""
    walked = _extension_walk(poset)
    return walked if statistics else [word for word, _, _ in walked]


@_memo
def _extension_walk(poset):
    """The depth-first walk of linear_extensions: each node places, lowest
    first, each unplaced element with nothing unplaced below it.  A prefix
    carries its last letter, whether the step into it rose (a virtual 0
    precedes the word, so the first step rises), its left peaks, 1-based,
    and its descent count, so a word's statistics come with it and no word
    is scanned again.  Each set of peaks is one tuple, shared by every word
    that has it (the 9-antichain's 362,880 words share 55)."""
    n = poset.n
    if n > LINEAR_EXTENSION_GUARD:
        raise SizeLimit(f"linear extension enumeration guarded at n <= {LINEAR_EXTENSION_GUARD}")
    below = poset._below
    out = []
    shared = {}

    def walk(prefix, unplaced, last, rose, peaks, descents):
        ready = unplaced
        while ready:
            low = ready & -ready
            ready ^= low
            e = low.bit_length() - 1
            if below[e] & unplaced:
                continue
            word, rest = prefix + (e,), unplaced ^ low
            if e > last:
                if rest:
                    walk(word, rest, e, True, peaks, descents)
                else:
                    out.append((word, peaks, descents))
            else:  # a descent, and a left peak at last if the step into it rose
                fallen = peaks
                if rose:
                    fallen = peaks + (len(prefix),)
                    fallen = shared.setdefault(fallen, fallen)
                if rest:
                    walk(word, rest, e, False, fallen, descents + 1)
                else:
                    out.append((word, fallen, descents + 1))

    walk((), (1 << n + 1) - 2, 0, False, (), 0)
    return tuple(out)


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
    """_memo for a per-poset walk that also keeps the SizeLimit it
    raises, so a poset past the guard is not walked up to it again."""
    @_memo
    def outcome(poset):
        try:
            return walk(poset)
        except SizeLimit as exc:  # _memo keeps no exception
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


@_memo
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
    2 * sum_K |max K| additions, not one per interval I <= J.  Charging
    64 more for the count it keeps, a bound whose steps cost more than
    TRANSFER_GUARD raises SizeLimit before any step.

    The state is one immutable pair (counts, weights at the last m).  The
    passes run on a fresh copy of the weights, and the state is replaced
    by a single assignment, so a concurrent caller reads either the old
    prefix or the new one, and both are correct.  Two callers growing it
    at once may keep the shorter prefix; that only costs a recomputation."""

    __slots__ = ("passes", "step", "state")

    def __init__(self, edges, weights):
        self.passes = edges[::-1] + edges
        self.step = 2 * sum(map(len, edges)) + 64
        self.state = ((weights[-1],), tuple(weights))

    def upto(self, m):
        if (cost := m * self.step) > TRANSFER_GUARD:
            raise SizeLimit(f"bound m={m}: {cost} transfer additions exceed guard {TRANSFER_GUARD}")
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


@_memo
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


def poset_width(poset):
    """Exact width, the maximum antichain size: every antichain is the
    maxima of one ideal of the table."""
    return max(maxima.bit_count() for maxima in _ideal_table(poset).values())


def poset_predicates(poset):
    """Comparability graph, exact width (maximum antichain size), and the
    narrow flag (width <= 2, i.e. coverable by two chains)."""
    up, down = poset._above, poset._below
    edges = tuple((a, b) for a in poset.elements() for b in _bits(up[a] | down[a]) if a < b)
    width = poset_width(poset)
    return PosetPredicates(edges, width, width <= 2)


@_memo
def all_natural_posets(n):
    """Every naturally labeled poset on 1..n (every strict order relation
    contained in the natural total order), deterministically ordered.

    Enumerates bitmasks over the C(n,2) increasing pairs and keeps the
    transitively closed ones; feasible through n = 6 (32768 masks)."""
    pair_list = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    posets = []
    for mask in range(1 << len(pair_list)):
        above = [0] * (n + 1)
        for bit, (i, j) in enumerate(pair_list):
            if mask >> bit & 1:
                above[i] |= 1 << j
        if all(above[j] & ~above[i] == 0 for i in range(1, n) for j in _bits(above[i])):
            posets.append(Poset(n, above))
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
            results.append(Poset(n, above))
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
