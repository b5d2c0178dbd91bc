"""Toric ideal of the enriched chain polytope and its quadratic basis.

One polynomial-ring variable per lattice point (a signed antichain; the
empty antichain gives the origin variable), held only as the bitmasks
of the elements it signs + and - (_sign_masks), ids in (antichain, signs)
order; labels are built for output alone.  The monomial map sends a
variable to the Laurent monomial t^(signed indicator) * s, so a binomial
lies in the toric ideal iff its two monomials have equal images.

The candidate Groebner basis has two families of quadratic binomials,
each defined in one place.  A candidate is a ToricBinomial, the named
tuple (lead, tail, family).  The candidates read both; the margin check
of the term order reads the rows of (2); the leading-term graph reads
only the leads, of (1) per element and of (2) as whole blocks:

  (1) _sign_index holds, per element e, the bitsets of the variables
      signing e + and e -; a pair u < v across the two, with e, gives
      x_u x_v minus the pair with e dropped from both.  The candidates
      sort those (u, v, e), a pair scan's order, and the graph ORs one
      bitset per element into each row;
  (2) _ideal_pairs holds (max I, max J, max(I u J), max(I*J)) as masks
      read off the ideal table, one row per incomparable pair of ideals in
      combinations(ideal_lattice) order, where I*J is the ideal generated
      by max(I cap J) restricted to max(I) u max(J).  _family_two signs
      each entry by every pattern on max(I) u max(J), the submasks of that
      support in increasing order: x_max(I) x_max(J) minus
      x_max(I u J) x_max(I*J).  One pattern covers every index, so a
      shared index gets consistent signs.  With (1), that joins every
      signing of max I to every signing of max J, so the graph joins the
      whole blocks of incomparable ideals (see initial_graph).

The term order is its weights: a variable weighs w(I) = 2n|I| - |I|^2
for the ideal I its antichain generates, and a binomial's lead is the
side whose two weights add up to more, a tie leaving it none.  Under
that closed form every intended lead outweighs its tail (construct_order
gives the proof), so the weights alone decide each lead, and every term
order refining them picks the same leads (Sturmfels 1996, ch. 1).
Verification is Buchberger's criterion: every S-pair of basis elements
with non-coprime leading terms must reduce to zero.  Each S-polynomial
is a difference of two monomials, and its verdict is whether their
memoised monomial normal forms are equal.  That is sound because
rewriting by a binomial keeps the coefficients +-1, each rewrite
strictly lowers the monomial's weight sum, and Buchberger's
criterion does not depend on the order of the pairs.  Pairs are checked
per lcm class (Gebauer and Moeller's chain criterion): elements of equal
lead need one tail once their tails agree, and when three leads divide
one cubic lcm, S(i, j) = S(i, k) + S(k, j), so two checks cover the
class, and the guard counts those classes before any is checked.
Flipping the sign of one element, or swapping two twin elements (same
strict up-set and down-set), maps E_P, the weights and so the rules
onto themselves (Sturmfels, Groebner Bases and Convex Polytopes, 1996,
ch. 4 and 8).  buchberger_verify keeps each such candidate once it has
checked it rule by rule, and checks a wedge of leads cx, cy only at a
center c, a variable that no kept candidate moves up (at least one per
orbit), and only when no kept candidate fixing c maps {x, y} to a larger
pair: at least one wedge of every orbit, and the guard still counts
every class.  A second, cheaper
certificate, hilbert_certificate, counts standard monomials of the
initial ideal (multisets supported on independent sets of the
leading-term graph, held as one neighbour bitset per variable) and
compares them with the dilation counts.  Those sets, and the faces of
the triangulation, are read from the complement graph by
posets._flag_faces, the flag-complex kernel that gamma_complex shares.
_sign_masks refuses more than GUARD_VERTICES variables before it builds
any, so every consumer shares one count.
"""

from collections import namedtuple
from dataclasses import dataclass
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
from .geometry import count_dilation, ehrhart_and_hstar
from .partitions import peak_polynomials
from .polynomials import IntPolynomial
from .posets import _bits, _flag_faces, _ideal_table, _memo

SPAIR_GUARD_DEFAULT = 2_000_000
GUARD_VERTICES = 1024
EXTRACT_MAX_N = 5


@_memo
def _sign_masks(poset):
    """Per variable id, the bitmasks (bit e for element e) of the elements
    it signs + and -, and the map from a (plus, minus) pair to the id.
    Ids run in (antichain, signs) order: the table's maxima sorted as
    element tuples, then within one antichain the patterns k = 0, 1, ...
    read with its first element as the high bit (a set bit signs +).
    More than GUARD_VERTICES variables raise SizeLimit before any is built."""
    table = _ideal_table(poset)
    count = sum(1 << maxima.bit_count() for maxima in table.values())
    if count > GUARD_VERTICES:
        raise SizeLimit(f"{count} variables exceed guard {GUARD_VERTICES}")
    plus = []
    minus = []
    for antichain in sorted(tuple(_bits(maxima)) for maxima in table.values()):
        patterns = [0]
        for e in antichain:
            patterns = [p | q for p in patterns for q in (0, 1 << e)]
        plus.extend(patterns)
        minus.extend(patterns[-1] ^ p for p in patterns)
    index = {pair: vid for vid, pair in enumerate(zip(plus, minus))}
    return tuple(plus), tuple(minus), index


def _images(poset):
    """Per variable id, its lattice point: 1 on plus, -1 on minus, else 0."""
    plus, minus, _ = _sign_masks(poset)
    elements = range(1, poset.n + 1)
    return [tuple((p >> e & 1) - (q >> e & 1) for e in elements) for p, q in zip(plus, minus)]


def variable_labels(poset):
    """Per variable id, its label for output: "o" for the origin, else
    each element of its antichain followed by its sign, e.g. "1+2-"."""
    plus, minus, _ = _sign_masks(poset)
    return tuple(
        "".join(f"{e}{'+' if p >> e & 1 else '-'}" for e in _bits(p | q)) or "o"
        for p, q in zip(plus, minus)
    )


@_memo
def _sign_index(poset):
    """Per element e (index 0 unused), the bitsets of the variable ids that
    sign e + and of those that sign e -: family (1) pairs the two."""
    plus, minus, _ = _sign_masks(poset)
    signs_plus = [0] * (poset.n + 1)
    signs_minus = [0] * (poset.n + 1)
    for u, (p, q) in enumerate(zip(plus, minus)):
        for e in _bits(p):
            signs_plus[e] |= 1 << u
        for e in _bits(q):
            signs_minus[e] |= 1 << u
    return tuple(signs_plus), tuple(signs_minus)


@_memo
def _ideal_pairs(poset):
    """(max I, max J, max(I union J), max(I*J)) as element bitmasks for
    every incomparable pair of poset ideals, in combinations(ideal_lattice)
    order.  max(I*J) is max(I cap J) & (max I | max J), as a subset of an
    antichain generates the ideal whose maxima it is.  A table that lacks
    the union or intersection of a pair is not a lattice, and raises
    IdentityViolation naming both ideals."""
    maxima = _ideal_table(poset)
    rows = []
    for (i, max_i), (j, max_j) in combinations(maxima.items(), 2):
        if i & ~j and j & ~i:
            if i | j not in maxima or i & j not in maxima:
                pair = f"{list(_bits(i))} and {list(_bits(j))}"
                raise IdentityViolation(f"ideals {pair} lack a union or meet in the table")
            rows.append((max_i, max_j, maxima[i | j], maxima[i & j] & (max_i | max_j)))
    return tuple(rows)


def _family_two(poset):
    """For every _ideal_pairs entry, in order, its four antichain masks
    and each sign pattern on the support max I u max J: the submasks of
    the support in increasing order (bit e set means e is signed +)."""
    for masks in _ideal_pairs(poset):
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


ToricBinomial = namedtuple("ToricBinomial", "lead tail family")
ToricBinomial.__doc__ = """A candidate binomial as the named tuple (lead, tail, family): lead,
its intended initial monomial, and tail are sorted pairs of variable
ids, and family is 1 or 2.  Being a tuple, it equals the plain tuple of
its three fields."""


def generate_groebner_candidates(poset):
    """Family (1) in (u, v, e) order, then family (2) in _family_two
    order, each verified to lie in the toric ideal by image equality (an
    ImageMismatch is an alarm).  No binomial comes twice: a family-(1)
    lead signs e both ways and a family-(2) lead signs each element of its
    support one way, so no lead is in both; in (1) a tail variable lacks
    e, so another e gives another tail; in (2) a lead fixes its ideal pair
    and its pattern.  A variable signing no element both ways has its
    image in -1..1, packed 3 bits a coordinate as +1 on plus and -1 on
    minus: two sums of two images differ by at most 4 < 8 a coordinate,
    so packed sums agree iff the images do."""
    plus, minus, index = _sign_masks(poset)
    for vid, (p, q) in enumerate(zip(plus, minus)):
        if p & q:
            raise ImageMismatch(f"variable {vid} signs {list(_bits(p & q))} both + and -")
    signs_plus, signs_minus = _sign_index(poset)
    rows = []  # (u, v, e, id of u less e, id of v less e), u < v
    for e in poset.elements():
        bit = 1 << e
        ups = [(u, index[(plus[u] ^ bit, minus[u])]) for u in _bits(signs_plus[e])]
        downs = [(v, index[(plus[v], minus[v] ^ bit)]) for v in _bits(signs_minus[e])]
        rows += [(u, v, e, a, b) if u < v else (v, u, e, b, a) for u, a in ups for v, b in downs]
    rows.sort()
    new = tuple.__new__
    out = [new(ToricBinomial, ((u, v), (a, b) if a < b else (b, a), 1)) for u, v, _, a, b in rows]
    for masks, pattern in _family_two(poset):
        lead = _signed_pair(index, masks[0], masks[1], pattern)
        out.append(new(ToricBinomial, (lead, _signed_pair(index, masks[2], masks[3], pattern), 2)))

    packed = [
        sum(1 << 3 * e for e in _bits(p)) - sum(1 << 3 * e for e in _bits(q)) for p, q in zip(plus, minus)
    ]
    for b in out:
        (x, y), (z, w), _ = b
        if packed[x] + packed[y] != packed[z] + packed[w]:
            images = _images(poset)
            left, right = (tuple(map(sum, zip(images[p], images[q]))) for p, q in b[:2])
            raise ImageMismatch(f"binomial {b} maps to {left} vs {right}")
    return tuple(out)


def construct_order(poset):
    """The term order's weights, one per variable id: a variable signing
    antichain A weighs w(I) = 2n|I| - |I|^2, I the ideal that A generates,
    and every family-(2) lead is checked to win by its proven margin of 2
    (a shortfall raises Infeasible).

    Family (1): dropping e from an antichain drops e from its ideal, and
    w(k) = 2nk - k^2 rises strictly on 0..n, so each lead variable
    outweighs the tail variable it becomes.  Family (2): for incomparable ideals I, J let
    a = |I - J|, b = |J - I|, c = |I cap J| and k = c - |I*J| >= 0, as
    I*J lies in I cap J.  The linear terms of w(I) + w(J) - w(I u J) -
    w(I*J) leave 2nk and the squares leave 2ab - 2ck + k^2, so the margin
    is 2ab + k(2n - 2c + k) >= 2, since a, b >= 1 and c <= n."""
    table = _ideal_table(poset)
    weights = {maxima: (2 * poset.n - i.bit_count()) * i.bit_count() for i, maxima in table.items()}
    for entry in _ideal_pairs(poset):
        w_i, w_j, w_union, w_star = (weights[a] for a in entry)
        if w_i + w_j - w_union - w_star < 2:
            pair = tuple(tuple(_bits(a)) for a in entry)
            raise Infeasible(f"ideal pair {pair} misses the margin of 2")
    plus, minus, _ = _sign_masks(poset)
    return tuple(weights[p | q] for p, q in zip(plus, minus))


def leading_terms_agree(binomials, weights):
    """True iff the intended lead of every binomial outweighs its tail:
    its two weights add up to more (a tie is no win)."""
    w = weights
    return all(w[a] + w[b] > w[c] + w[d] for (a, b), (c, d), _ in binomials)


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


def _symmetries(poset):
    """Candidate symmetries of E_P as permutations of variable ids, read
    off the _sign_masks index: the sign flip of each element e, then the
    swap of each element i with its next twin j > i (elements with the
    same strict up-set and down-set, which makes them incomparable).  Each
    maps E_P, its ideal weights and so its rules onto themselves;
    buchberger_verify keeps a candidate only once it has checked that."""
    plus, minus, index = _sign_masks(poset)
    above, below = poset._above, poset._below
    out = []
    for e in poset.elements():
        bit = 1 << e
        out.append(tuple(index[(p & ~bit | q & bit, q & ~bit | p & bit)] for p, q in zip(plus, minus)))
    for i in poset.elements():
        twins = (j for j in range(i + 1, poset.n + 1) if above[j] == above[i] and below[j] == below[i])
        j = next(twins, None)
        if j is None:
            continue
        pair = 1 << i | 1 << j  # a mask holding one of the two holds the other after the swap
        out.append(
            tuple(
                index[tuple(m ^ pair if (m & pair).bit_count() == 1 else m for m in masks)]
                for masks in zip(plus, minus)
            )
        )
    return tuple(out)


def _centers(rules, symmetries):
    """The bitset of the variables u with sigma(u) <= u for every kept
    candidate sigma, and the kept candidates as (sigma, that bitset for
    sigma alone) pairs, in the order given.  rules lists each rule lead ab
    -> tail pq as the flat 4-tuple (a, b, p, q), a < b and p <= q.  A
    candidate is kept when it is a permutation of range(len(sigma)),
    covers every id in the rules and maps each rule to a rule.  The
    maximum of every orbit is a center."""
    known = set(rules)
    top = max(map(max, known), default=-1)
    centers, kept = (1 << top + 1) - 1, []
    for sigma in symmetries:
        if len(sigma) <= top or sorted(sigma) != list(range(len(sigma))):
            continue
        for a, b, p, q in rules:
            a, b, p, q = sigma[a], sigma[b], sigma[p], sigma[q]
            if a > b:
                a, b = b, a
            if p > q:
                p, q = q, p
            if (a, b, p, q) not in known:
                break
        else:
            lowered = sum(1 << u for u in range(top + 1) if sigma[u] <= u)
            centers &= lowered
            kept.append((sigma, lowered))
    return centers, tuple(kept)


def _checked_wedges(adjacent, centers, kept):
    """The wedges (c, x, y), x < y, of leads cx and cy that
    buchberger_verify checks, adjacent[u] being the bitset of the v with
    uv a lead: c is a center, and no kept (sigma, lowered) pair of
    _centers with sigma(c) = c maps {x, y} to a larger pair, pairs
    compared as (larger id, smaller id).  Bitsets select each center's
    y, then each y's x, so a skipped pair costs no step of a loop."""
    tests = []
    for sigma, lowered in kept:
        inverse = [0] * len(sigma)
        for u, v in enumerate(sigma):
            inverse[v] = u
        below, mask = [], 0  # below[y]: the ids x with sigma(x) < y
        for u in inverse:
            below.append(mask)
            mask |= 1 << u
        tests.append((sigma, lowered, inverse, below))
    for c, around in adjacent.items():
        if not centers >> c & 1:
            continue
        fixing = [test for test in tests if test[0][c] == c]
        # {x, y} passes sigma when sigma(y) <= y and either sigma fixes y
        # and sigma(x) <= x, or sigma(x) < y, or sigma(x) = y, sigma(y) <= x
        ys = around
        for _, lowered, _, _ in fixing:
            ys &= lowered
        for y in _bits(ys):
            xs = around & ((1 << y) - 1)
            for sigma, lowered, inverse, below in fixing:
                if sigma[y] == y:
                    xs &= lowered
                else:
                    u = inverse[y]
                    xs &= below[y] | (sigma[y] <= u) << u
            for x in _bits(xs):
                yield c, x, y


def buchberger_verify(binomials, weights, guard_spairs=SPAIR_GUARD_DEFAULT, symmetries=()):
    """True iff every S-pair with non-coprime leading terms reduces to
    zero modulo the basis (coprime leads reduce to zero automatically).
    weights holds one weight per variable id, and each binomial's lead is
    its side of larger weight sum.  A binomial whose sides weigh the same,
    or whose lead is not a sorted pair of distinct variables (possible
    only when leading_terms_agree is False), raises IdentityViolation.  The
    guard counts the cubic lcm classes of all pairs of distinct leads at
    a shared variable, less two per triangle of leads, before any
    reduction: a bound on the checks the walk makes.  Tails are
    normalised once, as tail*x rewrites to NF(tail)*x; the comments below
    say why one tail per lead and one check per lcm suffice.

    symmetries holds candidate permutations of the variable ids (index u
    gives the image of u).  Only those _centers keeps count, so a wrong
    candidate can cost time but not change the verdict.  A wedge (c; x, y)
    of leads cx, cy is checked only at a center c, and only when no kept
    candidate that fixes c maps {x, y} to a larger pair, pairs compared
    as (larger id, smaller id).  Why that is sound:
      1. every rule lead -> tail strictly lowers the weight sum, and a
         rewrite keeps the degree, so rewriting terminates: the monomials
         of one degree have finitely many weight sums;
      2. two rewrites of one monomial by coprime leads join at once;
         any other pair is a multiple of an equal-lead pair or of a
         degree-3 wedge cxy of leads cx, cy, and joinability survives
         multiplication;
      3. a kept sigma maps rules onto rules, and so does its inverse, so
         a wedge and its image under the group G they generate are
         joinable together, and the orbit of any wedge holds one whose
         apex is a center, as the maximum of the apex's orbit is one;
      4. the stabilizer of a center c in G maps the wedges at c onto
         themselves, and the largest pair {x, y} in the orbit of one of
         them under it passes the test, as every kept sigma that fixes c
         lies in that stabilizer and maps {x, y} into the same orbit;
      5. so equal normal forms on the checked wedges, with every lead's
         tails checked, give local confluence on all cubics, hence (Newman,
         Ann. Math. 1942) confluence: every S-pair reduces to zero.
    A checked wedge whose xy is a lead too closes a triangle, and both of
    the triangle's checks are made from it.  With no candidate kept every
    variable is a center and every wedge is checked."""
    w = weights
    rules, lead_map = [], {}
    for b in binomials:
        (x, y), (p, q), _ = b
        margin = w[x] + w[y] - w[p] - w[q]
        if margin < 0:
            x, y, p, q = p, q, x, y
        elif not margin:
            raise IdentityViolation(f"{b} has no lead: both sides weigh {w[x] + w[y]}")
        if not x < y:
            raise IdentityViolation(f"lead {(x, y)} of {b} is not squarefree")
        rules.append((x, y, p, q))
        lead_map.setdefault((x, y), (p, q))
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
    centers, kept = _centers(rules, symmetries)

    memo = {}
    memo_get = memo.get
    # The S-pair of two equal leads is the difference of their tails.
    # Once those agree, one tail stands for them all: for i, i' of equal
    # lead and L = lcm(lead, lead_j), S(i', j) = (L/lead)*S(i', i) + S(i, j).
    # A quadratic tail is standard unless it is a lead itself, as only
    # a lead equal to a quadratic divides it.
    reduced = {}
    for x, y, p, q in rules:
        tail = (p, q)
        normal = (memo_get(tail) or _normal_form(tail, lead_map, memo)) if tail in lead_map else tail
        if reduced.setdefault((x, y), normal) != normal:
            return False
    for c, x, y in _checked_wedges(adjacent, centers, kept):
        # Leads cx, cy have lcm L = cxy, and the S-pair of leads i, j
        # dividing L is r_i - r_j, r_i being L rewritten by lead i: the
        # sorted cubics tail_y * x and tail_x * y, inline and memo first,
        # as this loop is where the time goes
        p, q = reduced[(c, y) if c < y else (y, c)]
        m1 = (x, p, q) if x <= p else (p, x, q) if x <= q else (p, q, x)
        p, q = reduced[(c, x) if c < x else (x, c)]
        m2 = (y, p, q) if y <= p else (p, y, q) if y <= q else (p, q, y)
        n1 = memo_get(m1) or _normal_form(m1, lead_map, memo)
        if n1 != (memo_get(m2) or _normal_form(m2, lead_map, memo)):
            return False
        # If xy is a lead k too, S(i, j) = S(i, k) + S(k, j): two checks.
        if adjacent[y] >> x & 1:
            p, q = reduced[x, y]
            m3 = (c, p, q) if c <= p else (p, c, q) if c <= q else (p, q, c)
            if n1 != (memo_get(m3) or _normal_form(m3, lead_map, memo)):
                return False
    return True


def buchberger_outcome(poset, guard_spairs=SPAIR_GUARD_DEFAULT):
    """The Buchberger verdict on the candidates under the constructed
    order, as (basis size, leading terms agree, "pass" or "fail"); the
    S-pairs are reduced only when the leading terms agree, walking only
    from the centers of the poset's _symmetries."""
    basis = generate_groebner_candidates(poset)
    weights = construct_order(poset)
    agree = leading_terms_agree(basis, weights)
    passed = agree and buchberger_verify(
        basis, weights, guard_spairs=guard_spairs, symmetries=_symmetries(poset)
    )
    return len(basis), agree, "pass" if passed else "fail"


@_memo
def initial_graph(poset):
    """Leading-term graph: one vertex per variable, one edge per intended
    initial monomial (all of which are squarefree, quadratic, and avoid
    the origin variable), as (vertex count, adjacency) with adjacency[u]
    the bitset of the neighbours of u.

    Family (1) joins u and v when they sign some element e oppositely, so
    u gains, from _sign_index, every variable signing e - for each e it
    signs +, and every variable signing e + for each e it signs -: one
    bitset per element, not a walk over pairs.  Family (2) joins whole
    blocks: in an _ideal_pairs entry with A = max I and B = max J, (1)
    joins the signings of A and B that disagree somewhere on A & B, and
    (2) those that agree there, as _family_two uses every sign pattern on
    A | B, so every signing of A is joined to every signing of B, the
    contiguous ids from index[(0, B)] on.  Each antichain keeps the OR of
    its partners' blocks, two whole-block ORs an entry, and each row starts
    from its antichain's."""
    plus, minus, index = _sign_masks(poset)
    origin = index[(0, 0)]
    if origin != 0:
        raise IdentityViolation(f"origin variable has index {origin}, not 0")
    partners = {}  # antichain -> OR of the id blocks of the antichains it is joined to
    for a, b, _, _ in _ideal_pairs(poset):
        for mask, other in ((a, b), (b, a)):
            block = ((1 << (1 << other.bit_count())) - 1) << index[(0, other)]
            partners[mask] = partners.get(mask, 0) | block
    signs_plus, signs_minus = _sign_index(poset)
    adjacency = []
    for p, q in zip(plus, minus):
        row = partners.get(p | q, 0)
        for e in _bits(p):
            row |= signs_minus[e]
        for e in _bits(q):
            row |= signs_plus[e]
        adjacency.append(row)
    if adjacency[0]:
        v = next(_bits(adjacency[0]))
        raise IdentityViolation(f"initial graph edge (0, {v}) meets the origin")
    for u, row in enumerate(adjacency):
        if row >> u & 1:
            raise IdentityViolation(f"initial graph has a loop at vertex {u}")
    return len(index), tuple(adjacency)


@_memo
def hilbert_certificate(poset, max_m=3):
    """Per-degree comparison of standard monomial counts with the lattice
    point counts of the dilations; equality for every degree certifies
    that the leading-term graph generates the correct initial ideal.
    A degree-m standard monomial is a multiset of size m on an independent
    set S of the graph, one of C(m-1, |S|-1) on S, and one bound-3 walk of
    the flag-face kernel on the complement graph counts those S.  Returns
    the rows (m, standard, points), m = 1..max_m, and the verdict; the
    library takes the default, and max_m below 1, whose certificate would
    have no row, or past 3 raises SizeLimit."""
    if max_m < 1:
        raise SizeLimit(f"max_m must be at least 1, got {max_m}")
    if max_m > 3:
        raise SizeLimit("standard monomial counts implemented for m <= 3")
    count, adjacency = initial_graph(poset)
    full = (1 << count) - 1
    sizes, _ = _flag_faces([full ^ row ^ (1 << u) for u, row in enumerate(adjacency)], 3)
    rows = tuple(
        (m, sum(sizes[k] * comb(m - 1, k - 1) for k in range(1, m + 1)), count_dilation(poset, m))
        for m in range(1, max_m + 1)
    )
    return rows, all(standard == points for _, standard, points in rows)


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


@dataclass(frozen=True)
class TriangulationData:
    maximal_faces: tuple
    boundary_f_vector: tuple
    boundary_h: IntPolynomial
    simplex_count: int


def triangulation_extract(poset):
    """Faces of the unimodular triangulation induced by the initial ideal:
    independent sets of the leading-term graph.  Its origin is isolated,
    so the boundary faces (those avoiding it) are the independent sets of
    the other variables, and each maximal face is a maximal boundary face
    plus the origin.  Checks that no boundary face exceeds n vertices, that
    every maximal face has n+1 and determinant +-1, that there are
    2^n * #extensions of them, and that the boundary h-polynomial is h*."""
    n = poset.n
    if n > EXTRACT_MAX_N:
        raise SizeLimit(f"triangulation extraction guarded at n <= {EXTRACT_MAX_N}")
    rows, ok = hilbert_certificate(poset)
    if not ok:
        raise IdentityViolation(f"initial ideal certificate failed: {list(rows)}")
    vertex_count, adjacency = initial_graph(poset)
    images = _images(poset)
    full = (1 << vertex_count) - 1
    # vertex u >= 1 of the leading-term graph is vertex u - 1 here
    boundary = [(full ^ row ^ (1 << u)) >> 1 for u, row in enumerate(adjacency)][1:]
    counts, boundary_maximal = _flag_faces(boundary, n + 1)
    if counts[n + 1]:
        raise FaceCountMismatch(f"{counts[n + 1]} boundary faces larger than n")

    maximal = [(0, *(v + 1 for v in _bits(face))) for face in boundary_maximal]
    for face in maximal:
        if len(face) != n + 1:
            raise FaceCountMismatch(f"maximal face {face} does not have n+1 vertices")
        det = _int_det([images[v] for v in face[1:]])
        if det not in (1, -1):
            raise NonUnimodularSimplex(f"face {face} has determinant {det}")
    expected = 2**n * peak_polynomials(poset.canonicalized()).extension_count
    if len(maximal) != expected:
        raise FaceCountMismatch(f"{len(maximal)} maximal faces, expected {expected}")

    f_vector = counts[: n + 1]
    h_coeffs = [0] * (n + 1)
    for i, fi in enumerate(f_vector):
        # f_{i-1} x^i (1-x)^(n-i)
        for k in range(n - i + 1):
            h_coeffs[i + k] += fi * comb(n - i, k) * (-1) ** k
    boundary_h = IntPolynomial(h_coeffs)

    _, hstar = ehrhart_and_hstar(poset)
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
