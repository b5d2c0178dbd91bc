"""Decorated permutations and the flag complex realizing the gamma vector.

A decorated permutation is a permutation with a bar after every left peak
position, each bar colored 0..3, so a permutation with k left peaks has
4^k decorations.  Within each block between bars the word decomposes as a
strictly decreasing part (the grave) followed by a strictly increasing
part (the acute); the split used everywhere is the shortest nonempty
decreasing prefix with increasing remainder (see grave_acute).  A word
that admits no such split raises MalformedResult.

Vertices of the complex are the one-bar decorated linear extensions,
four to a word, one per bar color.  The complex is stored uncolored, as
plain data: its bases are (word, peak) pairs, the one-peak extensions
with their left peaks, which stand for the color-0 vertices, and its
pairs are the edges between bases.  Bar colors pass through the face map
unchanged, so the colors are applied only where the complex is written
out (cli.cmd_complex writes each base's colored texts from its word and
peak).  GammaComplex builds its colored vertices, each a validated
DecoratedPermutation, and its edges on their first read; only the tests
and the benchmark's item count read them.  The face map
sends a decorated permutation with k bars to a k-set of vertices, one
per bar, so the pairs are the images of the two-bar decorated extensions
with their bars in color 0, and build_complex reads them off the
extensions with two left peaks.  It takes the words with their left
peaks from the memo entry of posets.linear_extensions, whose walk carries
each prefix's left peaks, so no word is scanned for them; the
validating constructor of DecoratedPermutation alone scans its word
(partitions.left_peak_positions).  The faces are the cliques, counted by
posets._flag_faces, the flag-complex kernel that the toric triangulation
shares.  The tests keep the routes this one replaced as its oracles
(tests/oracles.py): phi_face_map on decorated permutations,
vertex_adjacent, which splices two vertices into a word and checks that
the word maps back, splice_adjacency, the pair loop that built the edges
with it, and the eager expansion of the colored vertices and edges.  So
do a decorated permutation's blocks and text, which only the tests read.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import IdentityViolation, MalformedResult, SizeLimit
from .partitions import left_peak_positions, peak_polynomials
from .polynomials import IntPolynomial, kruskal_katona_check
from .posets import _bits, _flag_faces, linear_extensions

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
    oracles is that merge).  A one-letter grave needs no check."""
    if not block:
        return (), ()
    j = len(block) - 1
    while j > 0 and block[j - 1] < block[j]:
        j -= 1
    if j == 0:
        j = 1
    grave, acute = block[:j], block[j:]
    if j > 1 and any(a <= b for a, b in zip(grave, grave[1:])):
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

    def bar_count(self):
        return len(self.bars)


@dataclass(frozen=True)
class GammaComplex:
    bases: tuple  # (word, peak), one per one-peak extension, sorted: the color-0 vertices
    pairs: tuple  # index pairs (a, b) into bases, a < b, sorted: the uncolored edges
    f_vector: tuple  # (1, f_0, f_1, ...) by face size, colored faces counted
    f_polynomial: IntPolynomial
    kruskal_katona: bool

    @cached_property
    def vertices(self):
        """Each base in colors 0..3, four to a word, built and validated
        on first read."""
        return tuple(
            DecoratedPermutation(word, ((peak, c),)) for word, peak in self.bases for c in COLORS
        )

    @cached_property
    def edges(self):
        """Index pairs into vertices: each pair's two bases in every two
        colors, built on first read."""
        return tuple(
            (a * 4 + ca, b * 4 + cb) for a, b in self.pairs for ca in COLORS for cb in COLORS
        )


def _face_vertex(index, word, bar, block):
    """The index of the base that the face map sends the bar at
    position `bar` of `word` to, `block` being the letters that bar opens:
    the word sorted(word[:bar]) + grave + the rest sorted, grave the
    decreasing part of the block.  index maps each one-peak extension to
    (its base index, its peak); a word that is not one, or whose peak
    is not at the bar, raises IdentityViolation naming it."""
    grave, _ = grave_acute(block)
    face = (*sorted(word[:bar]), *grave, *sorted(word[bar + len(grave) :]))
    b, peak = index.get(face, (None, None))
    if peak != bar:
        raise IdentityViolation(
            f"face map sends {word} at bar {bar} to {face}, "
            f"not a one-peak extension with its peak at {bar}"
        )
    return b


def build_complex(poset):
    """The flag complex on one-bar decorated linear extensions, stored
    uncolored, with its f-polynomial checked against the left peak
    polynomial evaluated at 4x (vertices differing only in bar color are
    distinct, which accounts for the factor 4^size on each face).

    The pairs are the face map's images of the two-bar decorated
    extensions, built on the bases: for every extension with left peaks
    p < q, the bases of its bars at p and q (_face_vertex, with blocks
    w[p:q] and w[q:]) are one pair.  Bar colors pass through the face map
    unchanged, so each pair stands for 16 colored edges, which nothing
    here builds.

    The words and their left peaks come from the memoised walk of
    posets.linear_extensions (with statistics), the entry whose counts
    peak_polynomials reads, in lexicographic order, so each base is read
    off with its known peak and the bases come out sorted.  The oracles
    in tests/oracles.py check the pairs by splicing pairs of vertices
    (vertex_adjacent, splice_adjacency)."""
    n = poset.n
    if n > COMPLEX_GUARD_N:
        raise SizeLimit(f"complex construction guarded at n <= {COMPLEX_GUARD_N}")
    words = linear_extensions(poset, statistics=True)
    bases = tuple((w, peaks[0]) for w, peaks, _ in words if len(peaks) == 1)
    index = {w: (b, peak) for b, (w, peak) in enumerate(bases)}

    adj = [0] * len(bases)
    for w, peaks, _ in words:
        if len(peaks) == 2:
            p, q = peaks
            a, b = _face_vertex(index, w, p, w[p:q]), _face_vertex(index, w, q, w[q:])
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

    return GammaComplex(
        bases=bases,
        pairs=tuple((a, b) for a, row in enumerate(adj) for b in _bits(row >> a << a)),
        f_vector=f_vector,
        f_polynomial=f_polynomial,
        kruskal_katona=kruskal_katona_check(list(f_vector)),
    )

