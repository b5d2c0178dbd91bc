"""Toric ideal of the enriched chain polytope and its quadratic basis.

One polynomial-ring variable per lattice point (a signed antichain; the
empty antichain gives the origin variable), addressed by the bitmasks of
the elements it signs + and - (_sign_masks).  The monomial map sends a
variable to the Laurent monomial t^(signed indicator) * s, so a binomial
lies in the toric ideal iff its two monomials have equal images.

The candidate Groebner basis has two families of quadratic binomials.
Each family is defined in one place, and the candidates, the margin
check of the term order and the leads-only leading-term graph all read
it:

  (1) _family_one yields (u, v, e) for variables u < v and each element e
      they sign oppositely, e ascending: x_u x_v minus the pair with e
      dropped from both.  The leading-term graph takes the same leads
      per element, as (variables signing e +) x (variables signing e -);
  (2) _ideal_pairs holds (max I, max J, max(I u J), max(I*J)) for each
      incomparable pair of ideals, in combinations(ideal_lattice) order,
      where I*J is the ideal generated by max(I cap J) restricted to
      max(I) u max(J).  _family_two signs each entry by every pattern on
      max(I) u max(J), the submasks of that support in increasing order:
      x_max(I) x_max(J) minus x_max(I u J) x_max(I*J).  One pattern covers
      every index, so a shared index gets consistent signs.

The term order compares weight sums first, a variable weighing
w(I) = 2n|I| - |I|^2 for the ideal I its antichain generates (a closed
form under which every intended lead wins; construct_order gives the
proof), then breaks ties by graded reverse lexicographic order.
Verification is Buchberger's criterion: every S-pair of basis elements
with non-coprime leading terms must reduce to zero.  Each S-polynomial
is a difference of two monomials, and its verdict is whether their
memoised monomial normal forms are equal.  That is sound because
rewriting by a binomial keeps the coefficients +-1, each rewrite
strictly lowers the monomial in the term order, and Buchberger's
criterion does not depend on the order of the pairs.  Pairs are checked
per lcm class (Gebauer and Moeller's chain criterion): elements of equal
lead need one tail once their tails agree, and when three leads divide
one cubic lcm, S(i, j) = S(i, k) + S(k, j), so two checks cover the
class, and the guard counts those classes before any is checked.  A
second, cheaper certificate counts standard monomials of the initial
ideal (multisets supported on independent sets of the leading-term
graph, which is held as one neighbour bitset per variable) and compares
them with the dilation counts.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import (
    FaceCountMismatch,
    IdentityViolation,
    ImageMismatch,
    Infeasible,
    NonUnimodularSimplex,
    SizeLimit,
)
from .geometry import GUARD_POINTS_DEFAULT, count_dilation, dilation_counts
from .polynomials import IntPolynomial, hstar_from_counts
from .posets import _max_of, antichains, ideal_lattice, linear_extensions, star

SPAIR_GUARD_DEFAULT = 2_000_000
GUARD_VERTICES = 1024
EXTRACT_MAX_N = 5


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


@lru_cache(maxsize=32)
def _sign_masks(poset):
    """Per variable id, the bitmasks (bit e for element e) of the elements
    it signs + and -, and the map from a (plus, minus) pair to the id."""
    plus = []
    minus = []
    for v in variables_and_map(poset):
        plus.append(sum(1 << e for e, s in zip(v.antichain, v.signs) if s > 0))
        minus.append(sum(1 << e for e, s in zip(v.antichain, v.signs) if s < 0))
    index = {pair: vid for vid, pair in enumerate(zip(plus, minus))}
    return tuple(plus), tuple(minus), index


def _family_one(poset):
    """(u, v, e) for every pair of variable ids u < v and every element e
    that the two sign oppositely, e ascending."""
    plus, minus, _ = _sign_masks(poset)
    for u, v in combinations(range(len(plus)), 2):
        opposite = (plus[u] & minus[v]) | (minus[u] & plus[v])
        while opposite:
            low = opposite & -opposite
            yield u, v, low.bit_length() - 1
            opposite ^= low


@lru_cache(maxsize=32)
def _ideal_pairs(poset):
    """(max I, max J, max(I union J), max(I*J)) for every incomparable
    pair of poset ideals, in combinations(ideal_lattice) order."""
    return tuple(
        (
            i.max_elements,
            j.max_elements,
            _max_of(poset, i.elements | j.elements),
            star(poset, i, j).max_elements,
        )
        for i, j in combinations(ideal_lattice(poset), 2)
        if not (i <= j or j <= i)
    )


def _family_two(poset):
    """For every _ideal_pairs entry, in order, its four antichains as
    element bitmasks and each sign pattern on the support max I u max J:
    the submasks of the support in increasing order (bit e set means e
    is signed +)."""
    for entry in _ideal_pairs(poset):
        masks = tuple(sum(1 << e for e in antichain) for antichain in entry)
        support = masks[0] | masks[1]
        pattern = 0
        while True:
            yield masks, pattern
            if pattern == support:
                break
            pattern = (pattern - support) & support


def _signed_pair(index, mask_a, mask_b, pattern):
    """Sorted ids of two antichains signed + on pattern and - elsewhere."""
    a = index[(mask_a & pattern, mask_a & ~pattern)]
    b = index[(mask_b & pattern, mask_b & ~pattern)]
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class ToricBinomial:
    lead: tuple  # intended initial monomial, a sorted pair of variable ids
    tail: tuple
    family: int


@lru_cache(maxsize=8)
def generate_groebner_candidates(poset):
    """Both binomial families, deduplicated (a binomial keeps the first
    family that gives it), each verified to lie in the toric ideal by
    image equality (an ImageMismatch is an alarm)."""
    plus, minus, index = _sign_masks(poset)
    family_of = {}
    for u, v, e in _family_one(poset):
        keep = ~(1 << e)
        tail = tuple(sorted(index[(plus[w] & keep, minus[w] & keep)] for w in (u, v)))
        family_of.setdefault(((u, v), tail), 1)
    for masks, pattern in _family_two(poset):
        lead = _signed_pair(index, masks[0], masks[1], pattern)
        family_of.setdefault((lead, _signed_pair(index, masks[2], masks[3], pattern)), 2)

    out = tuple(ToricBinomial(lead, tail, f) for (lead, tail), f in family_of.items())
    images = [v.image(poset.n) for v in variables_and_map(poset)]
    for b in out:
        left, right = (tuple(map(sum, zip(images[x], images[y]))) for x, y in (b.lead, b.tail))
        if left != right:
            raise ImageMismatch(f"binomial {b} maps to {left} vs {right}")
    return out


class TermOrder:
    """Total monomial order: the sum of the antichain weights, then graded
    reverse lexicographic on the fixed variable order."""

    def __init__(self, poset, antichain_weights):
        self.weights = tuple(
            antichain_weights[v.antichain] for v in variables_and_map(poset)
        )
        self.antichain_weights = dict(antichain_weights)

    def monomial_key(self, mono):
        """Sort key: larger key means larger monomial."""
        return (
            sum(self.weights[v] for v in mono),
            len(mono),
            tuple(-v for v in sorted(mono, reverse=True)),
        )

    def leading(self, m1, m2):
        """The larger monomial, by weight sums alone unless they tie."""
        k1, k2 = (sum(self.weights[v] for v in m) for m in (m1, m2))
        if k1 == k2:
            k1, k2 = self.monomial_key(m1), self.monomial_key(m2)
        return m1 if k1 >= k2 else m2


def _ideal_weight(n, size):
    """w(I) = 2n|I| - |I|^2 for an ideal of `size` elements."""
    return 2 * n * size - size * size


def construct_order(poset):
    """The term order weighting the variables of antichain A by w(I), I
    the ideal that A generates, and a check that every family-(2) lead
    wins by its proven margin of 2 (a shortfall raises Infeasible).

    Family (1): dropping e from an antichain drops e from its ideal, and
    w(k) = 2nk - k^2 rises strictly on 0..n, so each lead variable
    outweighs the tail variable it becomes.  Family (2): for incomparable ideals I, J let
    a = |I - J|, b = |J - I|, c = |I cap J| and k = c - |I*J| >= 0, as
    I*J lies in I cap J.  The linear terms of w(I) + w(J) - w(I u J) -
    w(I*J) leave 2nk and the squares leave 2ab - 2ck + k^2, so the margin
    is 2ab + k(2n - 2c + k) >= 2, since a, b >= 1 and c <= n."""
    n = poset.n
    weights = {
        ideal.max_elements: _ideal_weight(n, len(ideal.elements))
        for ideal in ideal_lattice(poset)
    }
    for entry in _ideal_pairs(poset):
        w_i, w_j, w_union, w_star = (weights[a] for a in entry)
        if w_i + w_j - w_union - w_star < 2:
            raise Infeasible(f"ideal pair {entry} misses the margin of 2")
    return TermOrder(poset, weights)


def leading_terms_agree(binomials, order):
    """True iff the intended first monomial of every binomial really is
    its initial monomial under the order."""
    return all(order.leading(b.lead, b.tail) == b.lead for b in binomials)


def _normal_form(mono, lead_map, memo):
    """Standard monomial reached from a sorted monomial of degree 2 or 3
    by rewriting with the first lead that divides it, until none does:
    (a, b), (a, c), (b, c), the order of combinations(sorted(set(mono)),
    2) as no lead is a square.  Every monomial met is memoised."""
    chain = []
    while mono not in memo:
        chain.append(mono)
        if len(mono) == 2:
            # a standard monomial is memoised as its own normal form
            mono = lead_map.get(mono) or memo.setdefault(mono, mono)
            continue
        a, b, c = mono
        tail, x = lead_map.get((a, b)), c
        if tail is None:
            tail, x = lead_map.get((a, c)), b
            if tail is None:
                tail, x = lead_map.get((b, c)), a
        if tail is None:
            memo[mono] = mono
            continue
        p, q = tail
        mono = (x, p, q) if x <= p else (p, x, q) if x <= q else (p, q, x)
    normal = memo[mono]
    for seen in chain:
        memo[seen] = normal
    return normal


def buchberger_verify(binomials, order, guard_spairs=SPAIR_GUARD_DEFAULT):
    """True iff every S-pair with non-coprime leading terms reduces to
    zero modulo the basis (coprime leads reduce to zero automatically).
    A lead that is not a sorted pair of distinct variables (possible only
    when leading_terms_agree is False) raises IdentityViolation.  The
    guard counts the cubic lcm classes that the walk below checks, one
    per pair of distinct leads at a shared variable less two per triangle
    of leads, before any reduction.  Tails are normalised once, as tail*x
    rewrites to NF(tail)*x; the comments below say why one tail per lead
    and one check per lcm suffice."""
    pairs, lead_map = [], {}
    for b in binomials:
        lead = order.leading(b.lead, b.tail)
        tail = b.tail if lead == b.lead else b.lead
        if not lead[0] < lead[1]:
            raise IdentityViolation(f"lead {lead} of {b} is not squarefree")
        pairs.append((lead, tail))
        lead_map.setdefault(lead, tail)
    # Distinct squarefree quadratic leads cx, cy meet at one variable c
    # and have the cubic lcm cxy, reached once from c, or, when xy is a
    # lead too, once from the triangle's three vertices together.
    adjacent = {}
    for u, v in lead_map:
        adjacent[u] = adjacent.get(u, 0) | 1 << v
        adjacent[v] = adjacent.get(v, 0) | 1 << u
    wedges = sum(comb(mask.bit_count(), 2) for mask in adjacent.values())
    triangles = sum((adjacent[u] & adjacent[v]).bit_count() for u, v in lead_map) // 3
    classes = wedges - 2 * triangles
    if classes > guard_spairs:
        raise SizeLimit(f"{classes} S-pair lcm classes exceed guard {guard_spairs}")

    memo = {}
    memo_get = memo.get
    # The S-pair of two equal leads is the difference of their tails.
    # Once those agree, one tail stands for them all: for i, i' of equal
    # lead and L = lcm(lead, lead_j), S(i', j) = (L/lead)*S(i', i) + S(i, j).
    reduced = {}
    for lead, tail in pairs:
        normal = memo_get(tail) or _normal_form(tail, lead_map, memo)
        if reduced.setdefault(lead, normal) != normal:
            return False
    neighbours = {}
    for (u, v), tail in reduced.items():
        neighbours.setdefault(u, []).append((v, tail))
        neighbours.setdefault(v, []).append((u, tail))
    for c, others in neighbours.items():
        others.sort()
        for k, (x, tail_x) in enumerate(others):
            for y, tail_y in others[k + 1 :]:
                # Leads cx, cy have lcm L = cxy, and the S-pair of leads i, j
                # dividing L is r_i - r_j, r_i being L rewritten by lead i.
                # If xy is a lead k too, S(i, j) = S(i, k) + S(k, j): two
                # checks, made from the triangle's smallest vertex.
                tail_xy = reduced.get((x, y))
                if tail_xy is not None and x < c:
                    continue
                # the sorted cubics tail_x * y and tail_y * x, inline and
                # memo first, as this loop is where the time goes
                p, q = tail_x
                m1 = (y, p, q) if y <= p else (p, y, q) if y <= q else (p, q, y)
                p, q = tail_y
                m2 = (x, p, q) if x <= p else (p, x, q) if x <= q else (p, q, x)
                n1 = memo_get(m1) or _normal_form(m1, lead_map, memo)
                if n1 != (memo_get(m2) or _normal_form(m2, lead_map, memo)):
                    return False
                if tail_xy is not None:
                    p, q = tail_xy
                    m3 = (c, p, q) if c <= p else (p, c, q) if c <= q else (p, q, c)
                    if n1 != _normal_form(m3, lead_map, memo):
                        return False
    return True


def _bits(mask):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=8)
def initial_graph(poset):
    """Leading-term graph: one vertex per variable, one edge per intended
    initial monomial (all of which are squarefree, quadratic, and avoid
    the origin variable), as (vertex count, adjacency) with adjacency[u]
    the bitset of the neighbours of u.

    Family (1) joins u and v when they sign some element e oppositely, so
    u gains every variable signing e - for each e it signs +, and every
    variable signing e + for each e it signs -: per-element bitsets, not
    a walk over pairs.  Family (2) adds the lead of every _family_two
    entry."""
    plus, minus, index = _sign_masks(poset)
    origin = index[(0, 0)]
    if origin != 0:
        raise IdentityViolation(f"origin variable has index {origin}, not 0")
    signs_plus = [0] * (poset.n + 1)
    signs_minus = [0] * (poset.n + 1)
    for u, (p, q) in enumerate(zip(plus, minus)):
        for e in _bits(p):
            signs_plus[e] |= 1 << u
        for e in _bits(q):
            signs_minus[e] |= 1 << u
    adjacency = []
    for p, q in zip(plus, minus):
        row = 0
        for e in _bits(p):
            row |= signs_minus[e]
        for e in _bits(q):
            row |= signs_plus[e]
        adjacency.append(row)
    for masks, pattern in _family_two(poset):
        u, v = _signed_pair(index, masks[0], masks[1], pattern)
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    if adjacency[0]:
        v = next(_bits(adjacency[0]))
        raise IdentityViolation(f"initial graph edge (0, {v}) meets the origin")
    for u, row in enumerate(adjacency):
        if row >> u & 1:
            raise IdentityViolation(f"initial graph has a loop at vertex {u}")
    return len(index), tuple(adjacency)


def standard_monomial_count(poset, m):
    """Number of degree-m monomials outside the initial ideal: multisets
    of size m supported on independent sets of the leading-term graph,
    counted as sum over nonempty independent sets S of C(m-1, |S|-1).
    Independent pairs are the pairs minus the edges (half the adjacency
    popcounts); independent triples u < v < w are, for each u and each
    bit v of free (the non-neighbours of u above u), the bits of free
    above v outside adjacency[v]."""
    if m == 0:
        return 1
    # one variable per signed antichain, counted before the graph, whose work is count^2
    count = sum(2 ** len(a) for a in antichains(poset))
    if count > GUARD_VERTICES:
        raise SizeLimit(f"{count} variables exceed guard {GUARD_VERTICES}")
    if m > 3:
        raise SizeLimit("standard monomial counts implemented for m <= 3")
    _, adjacency = initial_graph(poset)
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
    return sum(sizes[k] * comb(m - 1, k - 1) for k in range(1, m + 1))


@lru_cache(maxsize=8)
def hilbert_certificate(poset, max_m=3, guard_points=GUARD_POINTS_DEFAULT):
    """Per-degree comparison of standard monomial counts with the lattice
    point counts of the dilations; equality for every degree certifies
    that the leading-term graph generates the correct initial ideal.
    Returns the rows (m, standard, points) as a tuple and the verdict;
    computed once per (poset, max_m, guard_points), which the Groebner
    checks and triangulation_extract share."""
    rows = []
    ok = True
    for m in range(1, max_m + 1):
        standard = standard_monomial_count(poset, m)
        points = count_dilation(poset, m, guard_points=guard_points)
        rows.append((m, standard, points))
        ok = ok and standard == points
    return tuple(rows), ok


def _int_det(rows):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _independent_sets(adj, vertex_count):
    """All independent sets as sorted tuples (the flag face enumeration),
    plus a maximality flag per set."""
    full = (1 << vertex_count) - 1
    out = []

    def extend(current, mask, blocked, start):
        addable = ~blocked & ~mask & full
        out.append((tuple(current), addable == 0))
        for v in range(start, vertex_count):
            if not blocked >> v & 1:
                current.append(v)
                extend(current, mask | 1 << v, blocked | adj[v], v + 1)
                current.pop()

    extend([], 0, 0, 0)
    return out


@dataclass(frozen=True)
class TriangulationData:
    maximal_faces: tuple
    boundary_f_vector: tuple
    boundary_h: IntPolynomial
    simplex_count: int


def triangulation_extract(poset, guard_points=GUARD_POINTS_DEFAULT):
    """Faces of the unimodular triangulation induced by the initial ideal:
    independent sets of the leading-term graph.  Checks that every maximal
    face has n+1 vertices including the origin, spans a simplex of
    determinant +-1, that there are 2^n * #extensions of them, and that
    the boundary complex (faces avoiding the origin) has h-polynomial
    equal to h* of the polytope."""
    n = poset.n
    if n > EXTRACT_MAX_N:
        raise SizeLimit(f"triangulation extraction guarded at n <= {EXTRACT_MAX_N}")
    rows, ok = hilbert_certificate(poset, max_m=3, guard_points=guard_points)
    if not ok:
        raise IdentityViolation(f"initial ideal certificate failed: {list(rows)}")
    vertex_count, adjacency = initial_graph(poset)
    variables = variables_and_map(poset)
    faces = _independent_sets(adjacency, vertex_count)

    maximal = [f for f, is_max in faces if is_max]
    for face in maximal:
        if len(face) != n + 1 or 0 not in face:
            raise FaceCountMismatch(
                f"maximal face {face} does not have n+1 vertices with the origin"
            )
        det = _int_det([variables[v].image(n) for v in face if v != 0])
        if det not in (1, -1):
            raise NonUnimodularSimplex(f"face {face} has determinant {det}")
    expected = 2**n * len(linear_extensions(poset))
    if len(maximal) != expected:
        raise FaceCountMismatch(f"{len(maximal)} maximal faces, expected {expected}")

    f_vector = [0] * (n + 1)
    for face, _ in faces:
        if 0 in face:
            continue
        if len(face) > n:
            raise FaceCountMismatch(f"boundary face {face} larger than n")
        f_vector[len(face)] += 1

    h_coeffs = [0] * (n + 1)
    for i, fi in enumerate(f_vector):
        # f_{i-1} x^i (1-x)^(n-i)
        for k in range(n - i + 1):
            h_coeffs[i + k] += fi * comb(n - i, k) * (-1) ** k
    boundary_h = IntPolynomial(h_coeffs)

    hstar = hstar_from_counts(dilation_counts(poset, n, guard_points=guard_points), n)
    if boundary_h != hstar:
        raise IdentityViolation(
            f"boundary h-polynomial {boundary_h!r} != h* {hstar!r}"
        )
    return TriangulationData(
        maximal_faces=tuple(sorted(maximal)),
        boundary_f_vector=tuple(f_vector),
        boundary_h=boundary_h,
        simplex_count=len(maximal),
    )
