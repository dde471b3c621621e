"""Reference implementations the tests compare the library against.

``recursive_walk`` is the search's fail-first tree walked one Python call
per node, as ``lingeo.search`` walked it before it expanded whole blocks
of nodes; ``brute_force_minimal`` scans every subset.
"""

from itertools import combinations

from lingeo.blocking import is_blocking, is_minimal
from lingeo.pg import Geometry, PointSet
from lingeo.search import _hyperplane_masks, mask_is_minimal


def recursive_walk(g: Geometry, max_size: int):
    """(nodes, pruned, leaves, duplicates, catalog keys) of the search tree
    of minimal blocking sets of size <= ``max_size``, walked recursively."""
    masks, misses = _hyperplane_masks(g)
    points = range(g.num_points)
    memo: set = set()
    found: list = []
    nodes = pruned = leaves = duplicates = 0

    def leaf(s):
        nonlocal leaves, duplicates
        leaves += 1
        if s in memo:
            duplicates += 1
        else:
            memo.add(s)
            if mask_is_minimal(masks, s):
                found.append(tuple(x for x in points if s >> x & 1))

    def descend(unblocked, s, size):
        nonlocal nodes, pruned
        nodes += 1
        if not unblocked:
            leaf(s)
            return
        # fail-first: an unblocked hyperplane misses s, so all its points are
        # addable, and every hyperplane of PG(n, q) has the same size; the
        # one with the fewest addable points is the lowest unblocked one
        low = unblocked & -unblocked
        free = masks[low.bit_length() - 1]
        if size + 1 == max_size:
            # every child s | x is at the cap: a leaf when x lies on every
            # unblocked hyperplane, else a pruned node, so count the children
            # in closed form and send only the leaves down the leaf path;
            # no call of descend is ever at the cap
            on_all = free
            rest = unblocked ^ low
            while rest and on_all:
                low = rest & -rest
                on_all &= masks[low.bit_length() - 1]
                rest ^= low
            children = free.bit_count()
            nodes += children
            pruned += children - on_all.bit_count()
            while on_all:
                low = on_all & -on_all
                leaf(s | low)
                on_all ^= low
            return
        while free:
            low = free & -free
            descend(unblocked & misses[low.bit_length() - 1], s | low,
                    size + 1)
            free ^= low

    descend((1 << len(masks)) - 1, 0, 0)
    return nodes, pruned, leaves, duplicates, sorted(found)


def brute_force_minimal(g: Geometry, max_size: int) -> list:
    """Independent oracle: scan every subset of size <= max_size."""
    out = []
    pts = range(g.num_points)
    for size in range(1, max_size + 1):
        for combo in combinations(pts, size):
            b = PointSet(g, list(combo))
            blocking, _ = is_blocking(b)
            if not blocking:
                continue
            minimal, _ = is_minimal(b)
            if minimal:
                out.append(tuple(combo))
    return sorted(out)
