"""Enriched and left enriched partitions of a naturally labeled poset.

A *left enriched partition* with bound m maps each element to
{0, +-1, ..., +-m} so that along every order relation x < y:

  (i)  |f(x)| <= |f(y)|;
  (ii) |f(x)| = |f(y)|  implies  f(y) >= 0.

An *enriched partition* maps into {+-1, ..., +-m} with (ii) strengthened
to f(y) > 0.  Both conditions only need enforcing along covers: absolute
values are weakly increasing along chains, so an equality across a longer
relation forces equality along the covers in between.

The number of left enriched partitions with bound m equals the number of
lattice points of the m-th dilate of the enriched chain polytope;
roundtrip_maps realizes the bijection explicitly as one pair of closures
per poset, which phi_map and psi_map wrap.  Partitions are counted two
ways: count_partitions reads them off ideal chains through the transfer
kernel that also counts lattice points, and frontier_count walks the
elements in natural order, keeping only the absolute values that later
elements still read, which makes it an independent route for the
verifier.  Peak statistics over linear extensions (with the convention
that a virtual 0 precedes the first letter for *left* peaks) and their
generating polynomials live here too, in posets._memo by poset value
like the order polynomials.  No word is scanned for them: the walk
posets._extension_walk carries each prefix's left peaks and descent
count, and its memo entry holds three columns, the words, their left
peaks and their descent counts.  peak_polynomials counts the last two
whole, and the gamma complex zips the first two; an extension's
interior peaks are its left peaks past position 1.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import comb
from operator import itemgetter

from . import posets
from .errors import IdentityAlarm, InputError, SizeLimit
from .polynomials import IntPolynomial, RatPolynomial, interpolate
from .posets import _memo, ideal_chain_count

# The default bound on frontier_count's work (and so on --guard-points),
# one unit per (state, value) pair it adds.  The costliest trip on a 2-core
# host: 0.56 s and 59 MiB peak RSS (four stacked 7-antichains, m = 4); a
# natural poset with n <= 6 needs at most 3,910 at m = 4 (five minimal
# elements below one top).
FRONTIER_WORK_GUARD = 1 << 18


def _require_natural(poset):
    """Raise InputError unless the poset is naturally labeled; canonicalize
    with Poset.canonicalized() first."""
    if not poset.naturally_labeled:
        raise InputError(
            "enriched partition operations require a naturally labeled poset"
        )


def _check_partition_args(poset, m, kind):
    """The checks every partition enumeration and count makes first."""
    _require_natural(poset)
    if m < 0:
        raise ValueError("bound must be nonnegative")
    if kind not in ("left", "enriched"):
        raise ValueError(f"unknown kind {kind!r}")


def iter_partitions(poset, m, kind="left"):
    """Yield every partition with bound m as a tuple indexed by element,
    lexicographically in each element's choice order.

    Element e takes the largest absolute value `base` among its lower
    covers with the nonnegative sign (condition (ii)), or any larger
    absolute value up to m with either sign, smallest first; for the
    enriched kind a minimal element avoids 0.  The partitions are built
    one element at a time in natural order: each level extends every
    prefix of the last by the values admitted[base] lists for it.  The
    whole sequence is held in memory: cmd_partitions lists at most 5,000
    partitions, and the bijection check at most 2,401 (the 4-antichain at
    m = 3)."""
    _check_partition_args(poset, m, kind)
    pairs = [(b, -b) for b in range(1, m + 1)]
    admitted = [(base, *chain.from_iterable(pairs[base:])) for base in range(m + 1)]
    level = [()]
    for covers in poset.lower_covers()[1:]:
        slots = [c - 1 for c in covers]
        if not slots:
            values = admitted[0][kind == "enriched" :]
            level = [f + (v,) for f in level for v in values]
        elif len(slots) == 1:
            (c,) = slots
            level = [f + (v,) for f in level for v in admitted[abs(f[c])]]
        else:
            level = [f + (v,) for f in level for v in admitted[max([abs(f[c]) for c in slots])]]
    yield from level


def count_partitions(poset, m, kind="left"):
    """Number of partitions with bound m, without materializing them.

    A partition is recorded by its level ideals I_k = {e : |f(e)| <= k};
    an element takes a free sign exactly when it is minimal in its step
    I_k - I_{k-1}, k >= 1.  So the count is posets.ideal_chain_count, with
    I_0 free for the left kind and I_0 empty (no zero values) for the
    enriched kind.  Cross-checked against full enumeration in the test
    suite.
    """
    _check_partition_args(poset, m, kind)
    return ideal_chain_count(poset, m, from_empty=kind == "enriched")


def frontier_count(poset, m, kind="left", guard=FRONTIER_WORK_GUARD):
    """Number of partitions with bound m, counted straight from the
    definition by a dynamic programme over the elements in natural order.

    Its state holds |f| of the *live* elements: those already valued that a
    later element still reads as a lower cover.  An element whose lower
    covers reach at most `base` takes |f| = base with weight 1 (the sign is
    forced) and each larger |f| up to m with weight 2; for the enriched
    kind a minimal element takes |f| in 1..m, each with weight 2.  Per
    element, C-level readers (_slot_reader) of the kept and the read slots
    are mapped over the states, with no Python loop per slot.  The DP
    shares nothing with the ideal lattice or the psi map, so it is an
    independent route to the counts of posets.ideal_chain_count.  Its one
    bound is on work, one unit per (state, value) pair added: past `guard`
    units, tested as the states grow, it raises SizeLimit, and on such a
    poset the counts keep one route."""
    _check_partition_args(poset, m, kind)
    lowers = poset.lower_covers()
    last_read = [0] * (poset.n + 1)
    for e in poset.elements():
        for c in lowers[e]:
            last_read[c] = e
    live, work = [], 0
    states = {(): 1}
    # tails[a] = (a,), built only when some element is read later: a
    # minimal one then adds m + 1 states, or m, anyway
    tails = [(a,) for a in range(m + 1)] if any(last_read) else []
    for e in poset.elements():
        keep = [i for i, c in enumerate(live) if last_read[c] > e]
        reads = [live.index(c) for c in lowers[e]]
        bases = map(max, map(_slot_reader(reads), states)) if reads else repeat(0)
        by_base = {}
        for key, count in zip(zip(map(_slot_reader(keep), states), bases), states.values()):
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
                    state = kept + tails[base]
                    states[state] = states.get(state, 0) + count
                double = 2 * count
                for tail in tails[base + 1 :]:
                    state = kept + tail
                    states[state] = states.get(state, 0) + double
                work += m - base + (0 if free_only else 1)
            if work > guard:
                raise SizeLimit(f"{work} partition DP steps exceed guard {guard}")
        live = [live[i] for i in keep] + ([e] if last_read[e] else [])
    return sum(states.values())


def _slot_reader(slots):
    """The C-level reader of a DP state's values at ascending slots, as a
    tuple: one slice if they run contiguously (none or one too), else an itemgetter."""
    first = slots[0] if slots else 0
    if slots == list(range(first, first + len(slots))):
        return itemgetter(slice(first, first + len(slots)))
    return itemgetter(*slots)


def roundtrip_maps(poset):
    """The phi/psi bijection of a naturally labeled poset as a pair of
    closures (phi, psi) over 0-based lower covers read once; the
    bijection check takes them once per poset, so they are not memoised.

    phi(f) is the lattice point of a left enriched partition f: a minimal
    element keeps its value, any other element i gets the least
    |f(i)| - |f(j)| over its lower covers j, signed like f(i).  It is None
    when f has the wrong length or breaks a condition along a cover, which
    is enough (see the module docstring).

    psi(x) is the pair (partition, top) for an integer vector x of length
    n: element i gets the largest sum of |x_j| along chains ending at i,
    signed like x_i, and top is the largest of those sums, so x lies in
    the m-th dilation exactly when top <= m.  Natural labels list every
    lower cover before its element, so one pass in label order suffices;
    an element with one lower cover reads it without max()."""
    _require_natural(poset)
    n = poset.n
    lowers = poset.lower_covers()
    # per element: its lower cover if it has just one (else -1), and all of them
    shape = [(c[0] - 1 if len(c) == 1 else -1, tuple(j - 1 for j in c)) for c in lowers[1:]]

    def phi(f):
        if len(f) != n:
            return None
        coords = []
        for i, (one, covs) in enumerate(shape):
            v = f[i]
            if not covs:
                coords.append(v)
                continue
            # the largest |f| below i decides both conditions at once
            base = abs(f[one]) if one >= 0 else max([abs(f[j]) for j in covs])
            if v >= 0:
                if v < base:
                    return None
                coords.append(v - base)
            else:
                if -v <= base:
                    return None
                coords.append(v + base)
        return tuple(coords)

    def psi(x):
        sums = []
        out = []
        top = 0
        for i, (one, covs) in enumerate(shape):
            v = x[i]
            s = v if v >= 0 else -v
            if covs:
                s += sums[one] if one >= 0 else max([sums[j] for j in covs])
            sums.append(s)
            out.append(s if v >= 0 else -s)
            if s > top:
                top = s
        return tuple(out), top

    return phi, psi


def phi_map(poset, f):
    """Lattice point of the dilated enriched chain polytope attached to a
    left enriched partition (the phi of roundtrip_maps)."""
    x = roundtrip_maps(poset)[0](f)
    if x is None:
        raise InputError(f"{f} violates the left enriched conditions")
    return x


def psi_map(poset, point, m):
    """Left enriched partition attached to a lattice point of the m-th
    dilation (the psi of roundtrip_maps)."""
    _require_natural(poset)
    if len(point) != poset.n or any(not isinstance(c, int) for c in point):
        raise InputError(f"{point} is not an integer vector of length n")
    f, top = roundtrip_maps(poset)[1](point)
    if top > m:
        raise InputError(f"{point} lies outside the {m}-th dilation")
    return f


def left_peak_positions(word):
    """Positions i (1-based, 1 <= i <= n-1) with w[i-1] < w[i] > w[i+1],
    where a virtual 0 precedes the word."""
    out = []
    for p in range(len(word) - 1):
        prev = word[p - 1] if p > 0 else 0
        if prev < word[p] > word[p + 1]:
            out.append(p + 1)
    return out


@dataclass(frozen=True)
class PeakPolynomials:
    peak: IntPolynomial
    left_peak: IntPolynomial
    descent: IntPolynomial
    extension_count: int


@_memo
def peak_polynomials(poset):
    """Peak, left peak, and descent generating polynomials over all linear
    extensions.  All three evaluate to the extension count at 1.

    Memoised by the poset's value (n and relation), never by isomorphism
    class: two labelings of one poset are computed separately, which is
    what the relabeling-invariance check compares.  The left peaks and
    descent counts are columns of the walk's memo entry
    (posets._extension_walk), counted whole: the shared peak tuples by one
    Counter, the descent counts by one tuple.count per value."""
    _require_natural(poset)
    words, peak_sets, descent_counts = posets._extension_walk(poset)
    n = poset.n
    pk = [0] * (n + 1)
    pkl = [0] * (n + 1)
    for left_peaks, count in Counter(peak_sets).items():
        # a left peak past position 1 is an interior peak: the virtual 0 is below every letter
        pk[len(left_peaks) - (left_peaks[:1] == (1,))] += count
        pkl[len(left_peaks)] += count
    polys = PeakPolynomials(
        peak=IntPolynomial(pk),
        left_peak=IntPolynomial(pkl),
        descent=IntPolynomial(list(map(descent_counts.count, range(n + 1)))),
        extension_count=len(words),
    )
    if not polys.peak(1) == polys.left_peak(1) == polys.descent(1) == len(words):
        raise IdentityAlarm(
            f"peak polynomials at 1 ({polys.peak(1)}, {polys.left_peak(1)}, "
            f"{polys.descent(1)}) != {len(words)} linear extensions"
        )
    return polys


@_memo
def order_polynomial(poset, kind="left"):
    """The polynomial agreeing with the partition counts at every bound
    m >= 1, interpolated from the counts at m = 1..n+1 (the counts are
    defined for positive bounds; the value at 0 comes from the
    interpolant).  Memoised by the poset's value, like peak_polynomials."""
    n = poset.n
    values = [count_partitions(poset, m, kind) for m in range(1, n + 2)]
    poly = interpolate(values, start=1)
    if poly.degree != n:
        raise IdentityAlarm(f"order polynomial degree {poly.degree} != {n}")
    return poly


def series_rhs_coefficient(w_left, n, m):
    """Coefficient of x^m in sum_i w_i 4^i x^i (1+x)^(n-2i) / (1-x)^(n+1),
    expanded exactly over the integers."""
    total = 0
    for i in range(w_left.degree + 1):
        wi = w_left.coefficient(i)
        if not wi or m < i:
            continue
        inner = sum(
            comb(n - 2 * i, k) * comb(m - i - k + n, n)
            for k in range(0, min(n - 2 * i, m - i) + 1)
        )
        total += wi * 4**i * inner
    return total


def series_identity_failure(poset, truncation):
    """Compare the generating function of left enriched partition counts
    with its closed form in terms of the left peak polynomial, coefficient
    by coefficient up to the truncation order: None if they agree, else a
    message naming the first m and the two coefficients."""
    n = poset.n
    w_left = peak_polynomials(poset).left_peak
    for m in range(truncation + 1):
        lhs = count_partitions(poset, m, "left")
        rhs = series_rhs_coefficient(w_left, n, m)
        if lhs != rhs:
            return f"at m={m}: {lhs} left partitions != series coefficient {rhs}"
    return None


@dataclass(frozen=True)
class EnrichedRelationReport:
    """Measured verdict on the halved-difference relation between the two
    order polynomials.  The relation is evaluated, never assumed; the
    verdict is reported per poset exactly as computed."""

    left_order: RatPolynomial
    enriched_order: RatPolynomial
    halved_difference: RatPolynomial
    holds: bool


def enriched_relation_report(poset):
    """Evaluate whether the left enriched order polynomial equals half of
    the forward difference of the enriched order polynomial.  Both sides
    have degree at most n and agree with the counts at every m >= 1, so
    the verdict is 2 * left(m) == enriched(m + 1) - enriched(m) on the
    integer counts at m = 1..n+1.  The halved difference is interpolated
    once from those integer differences and halved at the end."""
    n = poset.n
    left = [count_partitions(poset, m, "left") for m in range(1, n + 2)]
    counts = [count_partitions(poset, m, "enriched") for m in range(1, n + 3)]
    differences = [b - a for a, b in zip(counts, counts[1:])]
    return EnrichedRelationReport(
        left_order=order_polynomial(poset, "left"),
        enriched_order=order_polynomial(poset, "enriched"),
        halved_difference=interpolate(differences, start=1) * Fraction(1, 2),
        holds=all(2 * a == d for a, d in zip(left, differences)),
    )
