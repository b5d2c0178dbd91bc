"""Toric ideal of the enriched chain polytope and its quadratic basis.

One polynomial-ring variable per lattice point (a signed antichain; the
empty antichain gives the origin variable).  The monomial map sends a
variable to the Laurent monomial t^(signed indicator) * s, so a binomial
lies in the toric ideal iff its two monomials have equal images.

The candidate Groebner basis has two families of quadratic binomials:

  (1) two variables sharing an index with opposite signs, minus the pair
      with that index dropped from both;
  (2) for incomparable poset ideals I, J and a consistent sign pattern,
      x_max(I) x_max(J) minus x_max(I union J) x_max(I*J), where I*J is
      the ideal generated by max(I cap J) restricted to max(I) u max(J).

The term order compares total antichain cardinality first, then a
rational weight per antichain found by exact LP feasibility (family (2)
leads must win by a margin of at least 1), then a fixed graded reverse
lexicographic tiebreak.  Verification is Buchberger's criterion: every
S-pair of basis elements with non-coprime leading terms must reduce to
zero.  Each S-polynomial is a difference of two monomials, and its verdict
is whether their memoised monomial normal forms are equal.  That is sound
because rewriting by a binomial keeps the coefficients +-1, each rewrite
strictly lowers the monomial in the term order, and Buchberger's
criterion does not depend on the order of the pairs.  A second, cheaper
certificate counts standard monomials of the initial ideal (multisets
supported on independent sets of the leading-term graph) and compares
them with the dilation counts.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm

from . import linprog
from .errors import (
    FaceCountMismatch,
    IdentityViolation,
    ImageMismatch,
    Infeasible,
    NonUnimodularSimplex,
    SizeLimit,
)
from .geometry import count_dilation, dilation_counts
from .polynomials import IntPolynomial, hstar_from_counts
from .posets import antichains, ideal_lattice, linear_extensions, star

SPAIR_GUARD_DEFAULT = 2_000_000


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
def _var_index(poset):
    return {v: i for i, v in enumerate(variables_and_map(poset))}


@dataclass(frozen=True)
class ToricBinomial:
    lead: tuple  # intended initial monomial, a sorted pair of variable ids
    tail: tuple
    family: int


def _image_of(mono, variables, n):
    coords = [0] * n
    for vid in mono:
        for e, s in zip(variables[vid].antichain, variables[vid].signs):
            coords[e - 1] += s
    return tuple(coords)


def _check_image(binomial, variables, n):
    left = _image_of(binomial.lead, variables, n)
    right = _image_of(binomial.tail, variables, n)
    if left != right:
        raise ImageMismatch(
            f"binomial {binomial} maps to {left} vs {right}"
        )


def _drop_index(var, index, idx_map):
    keep = [(e, s) for e, s in zip(var.antichain, var.signs) if e != index]
    reduced = SignedVariable(tuple(e for e, _ in keep), tuple(s for _, s in keep))
    return idx_map[reduced]


def _sign_patterns(support):
    for mask in range(1 << len(support)):
        yield {e: (1 if mask >> i & 1 else -1) for i, e in enumerate(support)}


def _signed_id(antichain, pattern, idx_map):
    return idx_map[SignedVariable(antichain, tuple(pattern[e] for e in antichain))]


@lru_cache(maxsize=8)
def generate_groebner_candidates(poset):
    """Both binomial families, deduplicated, each verified to lie in the
    toric ideal by image equality (an ImageMismatch is an alarm)."""
    n = poset.n
    variables = variables_and_map(poset)
    idx_map = _var_index(poset)
    out = []
    seen = set()

    sign_of = [dict(zip(v.antichain, v.signs)) for v in variables]
    for u, v in combinations(range(len(variables)), 2):
        common = set(sign_of[u]) & set(sign_of[v])
        for index in sorted(common):
            if sign_of[u][index] != sign_of[v][index]:
                lead = (u, v)
                tail = tuple(
                    sorted(
                        (
                            _drop_index(variables[u], index, idx_map),
                            _drop_index(variables[v], index, idx_map),
                        )
                    )
                )
                key = (lead, tail)
                if key not in seen:
                    seen.add(key)
                    out.append(ToricBinomial(lead, tail, family=1))

    ideals = ideal_lattice(poset)
    for ideal_i, ideal_j in combinations(ideals, 2):
        if ideal_i.elements <= ideal_j.elements or ideal_j.elements <= ideal_i.elements:
            continue
        a1, a2 = ideal_i.max_elements, ideal_j.max_elements
        union = frozenset(ideal_i.elements | ideal_j.elements)
        max_union = tuple(
            sorted(
                e
                for e in union
                if not any(poset.less(e, f) for f in union)
            )
        )
        max_star = star(poset, ideal_i, ideal_j).max_elements
        # One sign pattern covers every index, so an index shared between
        # the two antichains automatically gets consistent signs.
        support = sorted(set(a1) | set(a2))
        for pattern in _sign_patterns(support):
            lead = tuple(
                sorted((_signed_id(a1, pattern, idx_map), _signed_id(a2, pattern, idx_map)))
            )
            tail = tuple(
                sorted(
                    (
                        _signed_id(max_union, pattern, idx_map),
                        _signed_id(max_star, pattern, idx_map),
                    )
                )
            )
            key = (lead, tail)
            if key not in seen:
                seen.add(key)
                out.append(ToricBinomial(lead, tail, family=2))

    for binomial in out:
        _check_image(binomial, variables, n)
    return tuple(out)


class TermOrder:
    """Total monomial order: total antichain cardinality, then the
    LP-certified antichain weights, then graded reverse lexicographic on
    the fixed variable order."""

    def __init__(self, poset, antichain_weights):
        variables = variables_and_map(poset)
        denom = lcm(*[w.denominator for w in antichain_weights.values()], 1)
        self.w_card = tuple(len(v.antichain) for v in variables)
        self.w_poset = tuple(
            int(antichain_weights[v.antichain] * denom) for v in variables
        )
        self.antichain_weights = dict(antichain_weights)

    def monomial_key(self, mono):
        """Sort key: larger key means larger monomial."""
        return (
            sum(self.w_card[v] for v in mono),
            sum(self.w_poset[v] for v in mono),
            len(mono),
            tuple(-v for v in sorted(mono, reverse=True)),
        )

    def leading(self, m1, m2):
        return m1 if self.monomial_key(m1) >= self.monomial_key(m2) else m2


def construct_order(poset):
    """Find nonnegative antichain weights making every family-(2) lead win
    by margin >= 1, by exact rational LP feasibility, and package them
    into a term order.  The program is always expected to be feasible;
    infeasibility is raised as an alarm."""
    ideals = ideal_lattice(poset)
    columns = {ideal.max_elements: i for i, ideal in enumerate(ideals)}
    rows = []
    seen_rows = set()
    for ideal_i, ideal_j in combinations(ideals, 2):
        if ideal_i.elements <= ideal_j.elements or ideal_j.elements <= ideal_i.elements:
            continue
        union = ideal_i.elements | ideal_j.elements
        max_union = tuple(
            sorted(e for e in union if not any(poset.less(e, f) for f in union))
        )
        max_star = star(poset, ideal_i, ideal_j).max_elements
        row = [Fraction(0)] * len(ideals)
        row[columns[ideal_i.max_elements]] += 1
        row[columns[ideal_j.max_elements]] += 1
        row[columns[max_union]] -= 1
        row[columns[max_star]] -= 1
        key = tuple(row)
        if key not in seen_rows:
            seen_rows.add(key)
            rows.append(row)
    if rows:
        solution = linprog.feasible_point_ge(rows, [Fraction(1)] * len(rows))
        if solution is None:
            raise Infeasible("no nonnegative weight vector with unit margins")
        for row in rows:
            if sum(c * w for c, w in zip(row, solution)) < 1:
                raise Infeasible("weight vector fails a margin constraint")
    else:
        solution = [Fraction(0)] * len(ideals)
    weights = {ideal.max_elements: solution[i] for i, ideal in enumerate(ideals)}
    return TermOrder(poset, weights)


def leading_terms_agree(binomials, order):
    """True iff the intended first monomial of every binomial really is
    its initial monomial under the order."""
    return all(order.leading(b.lead, b.tail) == b.lead for b in binomials)


def _merge(mono_a, mono_b):
    return tuple(sorted(mono_a + mono_b))


def _remove_pair(mono, pair):
    out = list(mono)
    out.remove(pair[0])
    out.remove(pair[1])
    return tuple(out)


def _normal_form(mono, lead_map, memo):
    """Standard monomial reached by rewriting mono with the first lead
    (in sorted pair order) that divides it, until none does.  Every
    monomial met on the way is memoised with the final result."""
    chain = []
    while mono not in memo:
        chain.append(mono)
        divisor = next(
            (p for p in combinations(sorted(set(mono)), 2) if p in lead_map), None
        )
        if divisor is None:
            memo[mono] = mono
            break
        mono = _merge(_remove_pair(mono, divisor), lead_map[divisor])
    normal = memo[mono]
    for seen in chain:
        memo[seen] = normal
    return normal


def buchberger_verify(binomials, order, guard_spairs=SPAIR_GUARD_DEFAULT):
    """True iff every S-pair with non-coprime leading terms reduces to
    zero modulo the basis (coprime leads reduce to zero automatically).

    The S-polynomial of leads (v, a) and (v, b) is tail_i*b - tail_j*a,
    and of two equal leads tail_i - tail_j.  Rewriting keeps the
    coefficients +-1, so it reduces to zero iff both monomials have the
    same normal form.  Pairs are walked inside each lead variable's
    group; a pair of equal leads is visited in its first variable's group
    only.  The guard counts the distinct pairs before any reduction."""
    leads = []
    tails = []
    for b in binomials:
        lead = order.leading(b.lead, b.tail)
        tail = b.tail if lead == b.lead else b.lead
        leads.append(lead)
        tails.append(tail)
    lead_map = {}
    for lead, tail in zip(leads, tails):
        lead_map.setdefault(lead, tail)

    incidence = {}
    for g, lead in enumerate(leads):
        for v in lead:
            incidence.setdefault(v, []).append(g)
    # Distinct squarefree quadratic leads share at most one variable, so
    # only a pair of equal leads sits in two groups.
    spairs = sum(comb(len(members), 2) for members in incidence.values()) - sum(
        comb(c, 2) for c in Counter(leads).values()
    )
    if spairs > guard_spairs:
        raise SizeLimit(f"{spairs} S-pairs exceed guard {guard_spairs}")

    memo = {}
    for v, members in incidence.items():
        for i, j in combinations(members, 2):
            li, lj = leads[i], leads[j]
            if li == lj:
                if v != li[0]:
                    continue
                m1, m2 = tails[i], tails[j]
            else:
                a = li[1] if li[0] == v else li[0]
                b = lj[1] if lj[0] == v else lj[0]
                m1 = _merge(tails[i], (b,))
                m2 = _merge(tails[j], (a,))
            if _normal_form(m1, lead_map, memo) != _normal_form(m2, lead_map, memo):
                return False
    return True


@lru_cache(maxsize=8)
def initial_graph(poset):
    """Leading-term graph: one vertex per variable, one edge per intended
    initial monomial (all of which are squarefree, quadratic, and avoid
    the origin variable)."""
    variables = variables_and_map(poset)
    idx_map = _var_index(poset)
    n = poset.n
    plus = []
    minus = []
    for v in variables:
        p = q = 0
        for e, s in zip(v.antichain, v.signs):
            if s > 0:
                p |= 1 << e
            else:
                q |= 1 << e
        plus.append(p)
        minus.append(q)
    edges = set()
    for u, v in combinations(range(len(variables)), 2):
        if (plus[u] & minus[v]) or (minus[u] & plus[v]):
            edges.add((u, v))
    ideals = ideal_lattice(poset)
    for ideal_i, ideal_j in combinations(ideals, 2):
        if ideal_i.elements <= ideal_j.elements or ideal_j.elements <= ideal_i.elements:
            continue
        a1, a2 = ideal_i.max_elements, ideal_j.max_elements
        support = sorted(set(a1) | set(a2))
        for pattern in _sign_patterns(support):
            pair = tuple(
                sorted((_signed_id(a1, pattern, idx_map), _signed_id(a2, pattern, idx_map)))
            )
            edges.add(pair)
    origin = idx_map[SignedVariable((), ())]
    if origin != 0:
        raise IdentityViolation(f"origin variable has index {origin}, not 0")
    for u, v in edges:
        if u == v or origin in (u, v):
            raise IdentityViolation(
                f"initial graph edge ({u}, {v}) is a loop or meets the origin"
            )
    return len(variables), frozenset(edges)


def _adjacency_masks(vertex_count, edges):
    adj = [0] * vertex_count
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def standard_monomial_count(poset, m, guard_vertices=1024):
    """Number of degree-m monomials outside the initial ideal: multisets
    of size m supported on independent sets of the leading-term graph,
    counted as sum over nonempty independent sets S of C(m-1, |S|-1)."""
    if m == 0:
        return 1
    count, edges = initial_graph(poset)
    if count > guard_vertices:
        raise SizeLimit(f"{count} variables exceed guard {guard_vertices}")
    if m > 3:
        raise SizeLimit("standard monomial counts implemented for m <= 3")
    sizes = [0] * (m + 1)
    sizes[1] = count
    if m >= 2:
        sizes[2] = comb(count, 2) - len(edges)
    if m >= 3:
        adj = _adjacency_masks(count, edges)
        full = (1 << count) - 1
        triples = 0
        for u in range(count):
            for v in range(u + 1, count):
                if not adj[u] >> v & 1:
                    above = full >> (v + 1) << (v + 1)
                    triples += ((~adj[u] & ~adj[v]) & above).bit_count()
        sizes[3] = triples
    return sum(sizes[k] * comb(m - 1, k - 1) for k in range(1, m + 1))


def hilbert_certificate(poset, max_m=3):
    """Per-degree comparison of standard monomial counts with the lattice
    point counts of the dilations; equality for every degree certifies
    that the leading-term graph generates the correct initial ideal."""
    rows = []
    ok = True
    for m in range(1, max_m + 1):
        standard = standard_monomial_count(poset, m)
        points = count_dilation(poset, m)
        rows.append((m, standard, points))
        ok = ok and standard == points
    return rows, ok


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


def triangulation_extract(poset, max_n=5):
    """Faces of the unimodular triangulation induced by the initial ideal:
    independent sets of the leading-term graph.  Checks that every maximal
    face has n+1 vertices including the origin, spans a simplex of
    determinant +-1, that there are 2^n * #extensions of them, and that
    the boundary complex (faces avoiding the origin) has h-polynomial
    equal to h* of the polytope."""
    n = poset.n
    if n > max_n:
        raise SizeLimit(f"triangulation extraction guarded at n <= {max_n}")
    rows, ok = hilbert_certificate(poset, max_m=3)
    if not ok:
        raise IdentityViolation(f"initial ideal certificate failed: {rows}")
    vertex_count, edges = initial_graph(poset)
    variables = variables_and_map(poset)
    adj = _adjacency_masks(vertex_count, edges)
    faces = _independent_sets(adj, vertex_count)

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

    hstar = hstar_from_counts(dilation_counts(poset, n), n)
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
