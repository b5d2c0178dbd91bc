"""Seeded benchmark inputs, built without the library's own generators.

A naturally labelled poset on 1..n is held here as a tuple of strict
down-set bit masks, element i (0-based) at index i.  The benchmark
enumerates them itself by one-point extension, so its inputs do not change
when the library's enumeration order does: on a natural labelling the
element labelled n is maximal, so its down-set is any down-set of the
poset on 1..n-1.

Posets are grouped into isomorphism classes by a canonical form.  The
per-poset work of every workload depends on the class and hardly on the
labelling, so a pass that takes one labelling of each class costs nearly
the same for every seed; only the labellings and the order change.
"""

import random
from itertools import permutations, product

WORKLOADS = ("battery4", "battery5", "facts6")


def natural_posets(n):
    """Every naturally labelled poset on 1..n, in a fixed order."""
    level = [()]
    for k in range(n):
        level = [
            below + (d,)
            for below in level
            for d in range(1 << k)
            if all(not d >> i & 1 or below[i] & ~d == 0 for i in range(k))
        ]
    return level


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _relation_code(below, order):
    """The relation relabelled so that order[k] becomes k, as one integer."""
    n = len(below)
    pos = {old: new for new, old in enumerate(order)}
    code = 0
    for j in range(n):
        for i in _bits(below[j]):
            code |= 1 << (pos[i] * n + pos[j])
    return code


def canonical_key(below):
    """A string naming the isomorphism class of the poset.

    Elements are sorted by an isomorphism-invariant signature; the key is
    the smallest relation code over the permutations that keep that
    order, which is the same for every labelling of the class."""
    n = len(below)
    above = [0] * n
    for j, d in enumerate(below):
        for i in _bits(d):
            above[i] |= 1 << j
    degree = [(below[i].bit_count(), above[i].bit_count()) for i in range(n)]
    sig = [
        (
            degree[i],
            tuple(sorted(degree[j] for j in _bits(below[i]))),
            tuple(sorted(degree[j] for j in _bits(above[i]))),
        )
        for i in range(n)
    ]
    blocks = {}
    for i in sorted(range(n), key=lambda i: sig[i]):
        blocks.setdefault(sig[i], []).append(i)
    groups = [permutations(blocks[s]) for s in sorted(blocks)]
    code = min(
        _relation_code(below, [e for part in choice for e in part])
        for choice in product(*groups)
    )
    return f"{n}:{code}"


def iso_classes(n):
    """{class key: naturally labelled members in enumeration order},
    classes in key order."""
    classes = {}
    for below in natural_posets(n):
        classes.setdefault(canonical_key(below), []).append(below)
    return dict(sorted(classes.items()))


def covers(below):
    """Cover pairs (a, b), labels 1-based, of a poset given by down-sets."""
    out = []
    for j, d in enumerate(below):
        for i in _bits(d):
            if not any(below[k] >> i & 1 for k in _bits(d)):
                out.append((i + 1, j + 1))
    return out


def relabel(pairs, perm):
    """Give the element labelled k the label perm[k - 1]."""
    return [(perm[a - 1], perm[b - 1]) for a, b in pairs]


def pass_inputs(workload, seed, pass_index):
    """The requests of one pass: a list of (slot, class key, n, cover pairs).

    battery4  every naturally labelled poset with n <= 4, seed-shuffled.
    battery5  one naturally labelled poset per isomorphism class with
              n = 5 (63 classes), the labelling drawn by seed.
    facts6    one poset per isomorphism class with n = 6 (318 classes),
              given a random labelling drawn by seed, usually not natural.

    The slot numbers the request before shuffling: the same poset in every
    pass of battery4, the same isomorphism class in the other workloads.
    """
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    requests = []
    if workload == "battery4":
        for n in range(1, 5):
            for key, members in iso_classes(n).items():
                requests.extend((key, n, covers(below)) for below in members)
    elif workload == "battery5":
        for key, members in iso_classes(5).items():
            requests.append((key, 5, covers(rng.choice(members))))
    elif workload == "facts6":
        for key, members in iso_classes(6).items():
            perm = rng.sample(range(1, 7), 6)
            requests.append((key, 6, relabel(covers(rng.choice(members)), perm)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    requests = [(slot,) + request for slot, request in enumerate(requests)]
    rng.shuffle(requests)
    return requests
