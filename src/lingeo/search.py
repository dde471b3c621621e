"""Exhaustive enumeration of small minimal blocking sets in tiny geometries.

Depth-first over partial point sets.  At every node the unblocked
hyperplane with the fewest addable points is selected (fail-first,
lowest index on ties) and each of its points is a child; a child still
unblocked at the size cap is cut off (``pruned``).  Any two
hyperplanes of PG(n, q), n >= 2, meet, so a lower bound from pairwise
disjoint unblocked hyperplanes never cuts more.  Leaves are kept when
the set is a minimal blocking set; duplicates are removed with a memo of
the sets already reached, so the catalog is complete and duplicate-free.

The tree is walked in blocks of nodes of one size, held as numpy arrays:
per node the unblocked hyperplanes and the point set, as (F, W) uint64
bitmask rows with W = ceil(bits / 64).  Both tables are read off
``blocking.hyperplane_incidence`` of every point, the same incidence that
``blocking.analyze`` reads for a set.  Every hyperplane of PG(n, q) has
the same size, and an unblocked one misses the set, so the fail-first
choice is the lowest unblocked hyperplane: per row, the first nonzero
word and its lowest set bit.  One step expands a whole block.  Rows with
no unblocked hyperplane are leaves; every other row takes one child per
point x of its chosen hyperplane, with unblocked mask ``u & misses[x]``
and set ``s | x``, gathered from one table per hyperplane.  The
children are pushed in slices of ``BLOCK_ROWS // (points per
hyperplane)`` rows, so a slice expands to at most ``BLOCK_ROWS`` rows and
the stack holds at most about (size cap) x ``BLOCK_ROWS`` rows: 16 B a
row while both masks fit one word.

A block one point below the cap is not pushed: each child s | x is at
the cap, a leaf when ``u & misses[x]`` is 0 and a pruned node otherwise,
so the children are counted and only the leaves' sets are built.
``nodes`` and ``pruned`` count every node of the tree the recursive walk
(kept in the tests as the oracle) visits, but most of them (five in six
on PG(2, 5) to size 7) only as counts, so nodes per second measures
nodes accounted for per second of the whole walk.  After the walk the
leaf rows become Python ints, deduplicated through one set, and
minimality is the exact tangent test of the definition on the
distinct leaves: every point of the set is the only point of the set on
some hyperplane.

Each entry's report is built from the same masks: the popcounts of
(hyperplane & set) are its hyperplane intersection sizes, which give the
exponent and the span (``blocking.minimal_blocking_report``), and the
leaf tests have proved it blocking and minimal.  In the plane the lines
are the hyperplanes, so the popcounts are also the line sizes of the
1-mod-p check and the line exponent.  Above the plane an entry of q + 1
points spanning a line is that line, which meets every other line in at
most one point; only the other entries take a line census.
``blocking.analyze`` stays the oracle these reports are tested against.
``verify_catalog`` certifies only the entries that are not lines, and
only then imports ``structure``, so a catalog of lines never compiles the
certifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocking import hyperplane_incidence, minimal_blocking_report
from .census import line_census
from .pg import Geometry, PointSet, lex_points


class SearchError(Exception):
    pass


class GuardExceeded(SearchError):
    pass


_DEFAULT_GUARD = 100
BLOCK_ROWS = 1 << 14        # node rows one step of the walk may create


@dataclass
class SearchConfig:
    geometry: Geometry
    max_size: int | None = None
    parallel_width: int = 1
    seed: int = 0
    guard: int = _DEFAULT_GUARD

    def __post_init__(self):
        q = self.geometry.fs.q
        if self.max_size is None:
            # largest size strictly below the "small" threshold 3(q+1)/2
            self.max_size = (3 * (q + 1) - 1) // 2
        if self.max_size < q + 1:
            raise SearchError(
                f"max_size {self.max_size} is below the line size {q + 1}")


@dataclass
class SearchResult:
    catalog: list                  # PointSets, sorted by index tuple
    reports: list                  # BlockingReport per entry
    nodes: int = 0
    pruned: int = 0
    leaves: int = 0
    duplicates: int = 0
    line_sizes: list = field(default_factory=list)  # per entry, sorted


def _hyperplane_masks(g: Geometry):
    """(masks, misses): every hyperplane as a point bitmask, and per point
    the bitmask of the hyperplanes that miss it, both read off the
    hyperplane incidence of all of PG(n, q)."""
    every = (1 << g.num_hyperplanes) - 1
    masks = [0] * g.num_hyperplanes
    misses = []
    for x, row in enumerate(hyperplane_incidence(
            g, lex_points(g.n, g.fs.q)).tolist()):
        through = 0
        for h in row:
            masks[h] |= 1 << x
            through |= 1 << h
        misses.append(every & ~through)
    return masks, misses


def mask_is_minimal(masks, s: int) -> bool:
    """Whether the blocking set ``s`` (a point bitmask) is minimal.

    ``masks`` holds every hyperplane as a point bitmask.  A blocking set is
    minimal exactly when each of its points has a tangent hyperplane, one
    that meets the set in that point alone.
    """
    tangent_points = 0
    for m in masks:
        hit = m & s
        if hit & (hit - 1) == 0:
            tangent_points |= hit
    return tangent_points == s


def _words(ints, bits: int):
    """Python int bitmasks as rows of ceil(bits / 64) uint64 words, the
    lowest word first."""
    width = -(-bits // 64)
    return np.array([[m >> 64 * j & 0xFFFF_FFFF_FFFF_FFFF
                      for j in range(width)] for m in ints],
                    dtype=np.uint64).reshape(len(ints), width)


def _ints(rows) -> list:
    """uint64 word rows, the lowest word first, as Python ints."""
    out = rows[:, 0].tolist()
    for j in range(1, rows.shape[1]):
        out = [m | w << 64 * j for m, w in zip(out, rows[:, j].tolist())]
    return out


def _or_words(rows):
    """The OR of the words of each row, over the last axis: a few ORs of
    columns, where a reduce over so short an axis is slow."""
    acc = rows[..., 0]
    for j in range(1, rows.shape[-1]):
        acc = acc | rows[..., j]
    return acc


def _lowest_bit(u):
    """Per row of ``u`` (no row 0), the index of its lowest set bit."""
    if u.shape[1] == 1:
        j, w = 0, u[:, 0]
    else:
        j = (u != 0).argmax(axis=1)
        w = u[np.arange(len(u)), j]
    # w & -w is the lowest set bit alone, a power of two and so exact in
    # float64, whose exponent frexp reads
    return 64 * j + np.frexp((w & -w).astype(np.float64))[1] - 1


def _walk(masks, misses, num_points: int, max_size: int):
    """(nodes, pruned, leaf sets as Python ints) of the fail-first tree
    below the empty set, walked in blocks (see the module docstring)."""
    hpoints = np.array([[x for x in range(num_points) if m >> x & 1]
                        for m in masks], dtype=np.intp)
    per = hpoints.shape[1]
    # per hyperplane, per point of it: the hyperplanes missing the point,
    # and the point as a set
    hmiss = _words(misses, len(masks))[hpoints]
    hbit = _words([1 << x for x in range(num_points)], num_points)[hpoints]
    slice_rows = max(1, BLOCK_ROWS // per)
    stack = [(_words([(1 << len(masks)) - 1], len(masks)),
              np.zeros((1, hbit.shape[2]), dtype=np.uint64), 0)]
    nodes = pruned = 0
    leaves = []
    while stack:
        u, s, size = stack.pop()
        nodes += len(u)
        open_rows = _or_words(u) != 0
        if not open_rows.all():
            leaves.append(s[~open_rows])
            u, s = u[open_rows], s[open_rows]
            if not len(u):
                continue
        h = _lowest_bit(u)
        child_u = hmiss[h]
        child_u &= u[:, None, :]
        if size + 1 == max_size:
            # every child is at the cap: a leaf when it blocks every
            # hyperplane, else pruned
            leaf = _or_words(child_u) == 0
            found = int(np.count_nonzero(leaf))
            nodes += leaf.size
            pruned += leaf.size - found
            if found:
                row, col = np.nonzero(leaf)
                leaves.append(hbit[h[row], col] | s[row])
            continue
        child_s = hbit[h]
        child_s |= s[:, None, :]
        child_u = child_u.reshape(-1, u.shape[1])
        child_s = child_s.reshape(-1, s.shape[1])
        for lo in range(0, len(child_u), slice_rows):
            stack.append((child_u[lo:lo + slice_rows],
                          child_s[lo:lo + slice_rows], size + 1))
    return nodes, pruned, _ints(np.concatenate(leaves))


def enumerate_minimal(cfg: SearchConfig) -> SearchResult:
    """Complete catalog of minimal blocking sets of size <= cfg.max_size.

    The children of a node at size ``max_size - 1`` are counted in closed
    form (see the module docstring); ``nodes``, ``pruned``, ``leaves`` and
    ``duplicates`` are those of the full DFS tree.
    """
    g = cfg.geometry
    if g.num_points > cfg.guard:
        raise GuardExceeded(
            f"{g.num_points} points exceeds the guard ({cfg.guard}); "
            "override the guard to force the run")
    masks, misses = _hyperplane_masks(g)
    nodes, pruned, leaves = _walk(masks, misses, g.num_points, cfg.max_size)
    distinct = set(leaves)
    found = sorted((tuple(x for x in range(g.num_points) if s >> x & 1), s)
                   for s in distinct if mask_is_minimal(masks, s))
    result = SearchResult(catalog=[], reports=[], nodes=nodes, pruned=pruned,
                          leaves=len(leaves),
                          duplicates=len(leaves) - len(distinct))
    q = g.fs.q
    # the hyperplanes through a line: 1 + q + ... + q^(n-2)
    through_line = (q ** (g.n - 1) - 1) // (q - 1)
    for key, s in found:
        b = PointSet(g, list(key))
        sizes = [(m & s).bit_count() for m in masks]
        if g.n == 2:
            # in the plane the lines are the hyperplanes
            lines = sorted(set(sizes))
        elif len(key) == q + 1 and sizes.count(q + 1) == through_line:
            # q + 1 points spanning a line are the line, which meets every
            # other line in at most one point
            lines = [1, q + 1] if g.n > 1 else [q + 1]
        else:
            lines = sorted(line_census(b).hist)
        result.catalog.append(b)
        result.line_sizes.append(lines)
        result.reports.append(minimal_blocking_report(b, sizes, lines))
    return result


def verify_catalog(res: SearchResult) -> dict:
    """1-mod-p, exponent, and linearity verdicts for every catalog entry."""
    entries = []
    alarms = []
    for b, rep, lines in zip(res.catalog, res.reports, res.line_sizes,
                             strict=True):
        fs = b.geometry.fs
        mod_ok = all(s == 0 or (s - 1) % fs.p == 0 for s in lines)
        if not mod_ok:
            alarms.append(sorted(int(i) for i in b.indices))
        is_line = rep.size == fs.q + 1 and rep.span_dim == 1
        if is_line:
            verdict = "line"
            labels = None
        else:
            from .structure import (NoSecant, NotSmallMinimal,
                                    certify_linearity)
            try:
                # the certifier makes its own census, a mode "full" pass
                # collecting the short secants: the only one in the plane,
                # whose entries have none, and a second one above it
                cert = certify_linearity(b, rep)
                verdict = "linear" if cert.verified else "unverified"
                labels = cert.hypothesis_labels
            except NoSecant:
                verdict = "no-short-secant"
                labels = None
            except NotSmallMinimal:
                # a cap at or above 3(q+1)/2 admits sets that are not small
                verdict = "not-small-minimal"
                labels = None
        entries.append({
            "points": [int(i) for i in b.indices],
            "size": rep.size,
            "one_mod_p": mod_ok,
            "exponent_e": rep.exponent_e,
            "linearity": verdict,
            "outside_hypotheses": (labels is not None
                                   and not labels["inside"]),
        })
    return {"entries": entries, "one_mod_p_alarms": alarms,
            "total": len(entries)}
