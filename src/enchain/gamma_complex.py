"""Decorated permutations and the flag complex realizing the gamma vector.

A decorated permutation is a permutation with a bar after every left peak
position, each bar colored 0..3, so a permutation with k left peaks has
4^k decorations.  Within each block between bars the word decomposes as a
strictly decreasing part (the grave) followed by a strictly increasing
part (the acute); the split used everywhere is the shortest nonempty
decreasing prefix with increasing remainder (see grave_acute).  A word
that admits no such split raises MalformedResult.

Vertices of the complex are the one-bar decorated linear extensions; two
vertices are adjacent exactly when splicing them yields a valid two-bar
decorated permutation mapping back to the pair under the face map; faces
are the cliques, counted by posets._flag_faces, the flag-complex kernel
that the toric triangulation shares.  The face map phi sends a decorated
permutation with k bars to a k-set of vertices, one per bar.  The pair
test runs on words: it finds the spliced word's left peaks once and
compares the face map's words with the pair's, so no decorated
permutation is built per pair.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .errors import IdentityViolation, MalformedResult, SizeLimit
from .partitions import extension_peaks, left_peak_positions, peak_polynomials
from .polynomials import IntPolynomial, kruskal_katona_check
from .posets import _bits, _flag_faces

COMPLEX_GUARD_N = 6
COLORS = range(4)


def grave_acute(block):
    """Split a block into its decreasing part and increasing part.

    The split is the shortest nonempty strictly decreasing prefix whose
    remainder is strictly increasing (the complement of the longest
    increasing suffix, with the first letter claimed when the whole block
    ascends).  Minimality matters: it is the unique convention stable
    under the bar-removal merge, because the merged-in letters always
    start below the decreasing part's last letter, so recomputing the
    split returns the same decreasing part (cover_reduce in the test
    oracles is that merge)."""
    if not block:
        return (), ()
    j = len(block) - 1
    while j > 0 and block[j - 1] < block[j]:
        j -= 1
    if j == 0:
        j = 1
    grave, acute = block[:j], block[j:]
    if any(a <= b for a, b in zip(grave, grave[1:])):
        raise MalformedResult(f"block {block} is not decreasing-then-increasing")
    return grave, acute


@dataclass(frozen=True)
class DecoratedPermutation:
    word: tuple
    bars: tuple  # ((position, color), ...), position = letters before the bar

    def __post_init__(self):
        positions = [p for p, _ in self.bars]
        if positions != left_peak_positions(self.word):
            raise MalformedResult(
                f"bars {positions} are not the left peaks of {self.word}"
            )
        if any(c not in COLORS for _, c in self.bars):
            raise MalformedResult(f"bar colors must lie in 0..3: {self.bars}")

    def blocks(self):
        cuts = [0] + [p for p, _ in self.bars] + [len(self.word)]
        return [self.word[a:b] for a, b in zip(cuts, cuts[1:])]

    def bar_count(self):
        return len(self.bars)

    def text(self):
        parts = []
        for block, bar in zip(self.blocks(), list(self.bars) + [None]):
            parts.append("".join(str(x) for x in block))
            if bar is not None:
                parts.append(f"|^{bar[1]} ")
        return "".join(parts).rstrip()

    def __lt__(self, other):
        return (self.word, self.bars) < (other.word, other.bars)

    def recolored(self, color):
        """This one-bar element with its bar in `color`.  The bar of self
        already sits at the word's left peak, so only the color is checked
        and the left peaks are not recomputed."""
        if self.bar_count() != 1:
            raise ValueError("recoloring is defined for one-bar elements")
        if color not in COLORS:
            raise MalformedResult(f"bar colors must lie in 0..3: {color}")
        return _trusted(self.word, ((self.bars[0][0], color),))


def _trusted(word, bars):
    """A DecoratedPermutation whose bars are known to sit at the word's
    left peaks with valid colors, built without recomputing the peaks."""
    out = object.__new__(DecoratedPermutation)
    object.__setattr__(out, "word", word)
    object.__setattr__(out, "bars", bars)
    return out


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


@dataclass(frozen=True)
class GammaComplex:
    vertices: tuple  # one-bar DecoratedPermutation, sorted: four per word, colors 0..3
    edges: tuple  # index pairs into vertices
    f_vector: tuple  # (1, f_0, f_1, ...) by face size
    f_polynomial: IntPolynomial
    kruskal_katona: bool


def build_complex(poset):
    """The flag complex on one-bar decorated linear extensions, with its
    f-polynomial checked against the left peak polynomial evaluated at 4x
    (vertices differing only in bar color are distinct, which accounts for
    the factor 4^size on each face).

    Adjacency is decided on the color-0 vertices, one key each.  Two
    filters skip pairs before the splice, and both are necessary
    conditions only: the bar positions differ (vertex_adjacent rejects
    equal ones), and u's bar, grave and bridge fill exactly the letters
    before v's bar, pu + |grave_u| + |bridge| == pv, without which the
    spliced word has the wrong length to be a permutation.  What decides
    is the pair test that vertex_adjacent makes, on words: the spliced
    word is a permutation, its left peaks are the two bar positions, and
    the face map's word and bar position for each bar are the pair's.

    The words and their left peaks come from partitions.extension_peaks,
    the walk that peak_polynomials reads too, in lexicographic order, so
    each color-0 vertex is built once from its known peak and the
    vertices come out sorted."""
    n = poset.n
    if n > COMPLEX_GUARD_N:
        raise SizeLimit(f"complex construction guarded at n <= {COMPLEX_GUARD_N}")
    underlying = [
        _trusted(w, ((peaks[0], 0),))
        for w, peaks in extension_peaks(poset)
        if len(peaks) == 1
    ]

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

    gamma_length = n // 2 + 1  # face sizes run 0 .. n//2
    plain, _ = _flag_faces(adj, gamma_length)
    overflow = plain[gamma_length]
    f_vector = tuple(plain[k] * 4**k for k in range(gamma_length))
    f_polynomial = IntPolynomial(f_vector)

    expected = peak_polynomials(poset).left_peak.scale_powers(4)
    if overflow or f_polynomial != expected:
        raise IdentityViolation(
            f"f-polynomial {f_polynomial!r} != scaled left peak polynomial "
            f"{expected!r} (faces beyond gamma length: {overflow})"
        )

    vertices = [base.recolored(c) if c else base for base in underlying for c in COLORS]
    pairs = [(a, b) for a, row in enumerate(adj) for b in _bits(row >> a << a)]
    edges = [(a * 4 + ca, b * 4 + cb) for a, b in pairs for ca in COLORS for cb in COLORS]
    return GammaComplex(
        vertices=tuple(vertices),
        edges=tuple(edges),
        f_vector=f_vector,
        f_polynomial=f_polynomial,
        kruskal_katona=kruskal_katona_check(list(f_vector)),
    )


def phi_face_map(decorated):
    """The face attached to a decorated permutation: one one-bar vertex
    per bar, built from the sorted letters left of that bar's following
    grave part, the grave part itself, and the sorted letters right of it."""
    blocks = decorated.blocks()
    word = decorated.word
    vertices = []
    for i, (pos, color) in enumerate(decorated.bars, start=1):
        grave, _ = grave_acute(blocks[i])
        left = tuple(sorted(word[:pos]))
        right = tuple(sorted(word[pos + len(grave) :]))
        vertices.append(DecoratedPermutation(left + grave + right, ((pos, color),)))
    return vertices
