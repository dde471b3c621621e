"""Exhaustive enumeration of small minimal blocking sets in tiny geometries.

Depth-first over partial point sets.  At every node the unblocked
hyperplane with the fewest addable points is selected (fail-first,
lowest index on ties) and each of its points is a child; a child still
unblocked at the size cap is cut off (``pruned``).  Any two
hyperplanes of PG(n, q), n >= 2, meet, so a lower bound from pairwise
disjoint unblocked hyperplanes never cuts more.  Leaves are kept when
the set is a minimal blocking set; duplicates are removed with a memo of
the sets already reached, so the catalog is complete and duplicate-free.

Points and hyperplanes are held as Python int bitmasks, both read off
one table: ``blocking.hyperplane_incidence`` of every point, the same
incidence that ``blocking.analyze`` reads for a set.  The set of
unblocked hyperplanes is passed down the DFS as one int and updated
incrementally (adding point x clears the hyperplanes through x), and the
fail-first choice is its lowest set bit, so a step costs a few big-int
operations.  At a leaf, minimality is the exact tangent test of the
definition on the hyperplane masks: every point of the set is the only
point of the set on some hyperplane.

A node one point below the cap is not descended from: each of its
children s | x is at the cap, a leaf when x lies on every unblocked
hyperplane and a pruned node otherwise.  The AND of the unblocked
hyperplane masks gives the leaves, which take the one leaf path, and
popcounts give the rest.  ``nodes`` and ``pruned`` still count every node
of the same tree, but most of them (five in six on PG(2, 5) to size 7)
are counted without a call, so nodes per second measures nodes accounted
for, not nodes visited.

Each entry's report is built from the same masks: the popcounts of
(hyperplane & set) are its hyperplane intersection sizes, which give the
exponent and the span (``blocking.minimal_blocking_report``), and the
leaf tests have proved it blocking and minimal.  In the plane the lines
are the hyperplanes, so the popcounts are also the line sizes of the
1-mod-p check and the line exponent, and no entry takes a line census;
above the plane each entry takes one.  ``blocking.analyze`` stays the
oracle these reports are tested against.  ``verify_catalog`` certifies
only the entries that are not lines, and only then imports ``structure``,
so a catalog of lines never compiles the certifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .blocking import (hyperplane_incidence, is_blocking, is_minimal,
                       minimal_blocking_report)
from .census import line_census
from .pg import Geometry, PointSet, lex_points


class SearchError(Exception):
    pass


class GuardExceeded(SearchError):
    pass


_DEFAULT_GUARD = 100


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
    points = range(g.num_points)
    max_size = cfg.max_size
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
                found.append((tuple(x for x in points if s >> x & 1), s))

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
    result = SearchResult(catalog=[], reports=[], nodes=nodes, pruned=pruned,
                          leaves=leaves, duplicates=duplicates)
    for key, s in sorted(found):
        b = PointSet(g, list(key))
        sizes = [(m & s).bit_count() for m in masks]
        # in the plane the lines are the hyperplanes
        lines = sorted(set(sizes)) if g.n == 2 else sorted(line_census(b).hist)
        result.catalog.append(b)
        result.line_sizes.append(lines)
        result.reports.append(minimal_blocking_report(b, sizes, lines))
    return result


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
