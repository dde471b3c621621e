"""Exhaustive enumeration of small minimal blocking sets in tiny geometries.

Depth-first over partial point sets.  At every node the unblocked
hyperplane with the fewest addable points is selected (fail-first,
lowest index on ties) and each of its points is branched on.  A node is
pruned when the current size plus a matching-style lower bound (a
greedily built family of pairwise disjoint unblocked hyperplanes, each
demanding one new point) already exceeds the size cap.  Leaves are kept
when the set is a minimal blocking set; duplicates are removed with a
sorted-index-tuple memo so the catalog is complete and duplicate-free.

Every hyperplane is held as a Python int bitmask over point indices, so
all blocking tests are O(#hyperplanes) word operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .blocking import analyze, is_blocking, is_minimal
from .census import line_census
from .pg import Geometry, PointSet, points_of
from .structure import NoSecant, certify_linearity


class SearchError(Exception):
    pass


class GuardExceeded(SearchError):
    pass


_DEFAULT_GUARD = 100


@dataclass
class SearchConfig:
    geometry: Geometry
    max_size: int | None = None
    dedup: str = "memo"            # "memo" or "none"
    parallel_width: int = 1
    seed: int = 0
    guard: int = _DEFAULT_GUARD
    prune: bool = True

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


def _hyperplane_masks(g: Geometry) -> list:
    masks = []
    for d in range(g.num_hyperplanes):
        h = g.hyperplane_subspace(g.coords_of(d))
        m = 0
        for idx in points_of(h).indices:
            m |= 1 << int(idx)
        masks.append(m)
    return masks


def _disjoint_lower_bound(masks, unblocked) -> int:
    """Number of pairwise disjoint unblocked hyperplanes (greedy)."""
    used = 0
    count = 0
    for i in unblocked:
        m = masks[i]
        if m & used == 0:
            used |= m
            count += 1
    return count


def enumerate_minimal(cfg: SearchConfig) -> SearchResult:
    """Complete catalog of minimal blocking sets of size <= cfg.max_size."""
    g = cfg.geometry
    if g.num_points > cfg.guard:
        raise GuardExceeded(
            f"{g.num_points} points exceeds the guard ({cfg.guard}); "
            "override the guard to force the run")
    masks = _hyperplane_masks(g)
    nh = len(masks)
    max_size = cfg.max_size
    memo: set = set()
    result = SearchResult(catalog=[], reports=[])
    found: list = []

    def blocking_state(points_mask):
        return [i for i in range(nh) if masks[i] & points_mask == 0]

    def descend(chosen, points_mask):
        result.nodes += 1
        unblocked = blocking_state(points_mask)
        if not unblocked:
            result.leaves += 1
            key = tuple(sorted(chosen))
            if cfg.dedup != "none":
                if key in memo:
                    result.duplicates += 1
                    return
                memo.add(key)
            b = PointSet(g, list(key))
            minimal, _ = is_minimal(b)
            if minimal:
                if cfg.dedup == "none" and key in {k for k, _ in found}:
                    result.duplicates += 1
                else:
                    found.append((key, b))
            return
        if len(chosen) >= max_size:
            result.pruned += 1
            return
        if cfg.prune:
            lb = _disjoint_lower_bound(masks, unblocked)
            if len(chosen) + lb > max_size:
                result.pruned += 1
                return
        # fail-first: unblocked hyperplane with fewest addable points
        best = None
        for i in unblocked:
            free = masks[i] & ~points_mask
            c = free.bit_count()
            if best is None or c < best[0]:
                best = (c, i, free)
        _, _, free = best
        while free:
            low = free & -free
            idx = low.bit_length() - 1
            descend(chosen + [idx], points_mask | low)
            free ^= low

    descend([], 0)
    keys = sorted(k for k, _ in found)
    by_key = dict(found)
    for k in keys:
        b = by_key[k]
        result.catalog.append(b)
        result.reports.append(analyze(b))
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
    for b, rep in zip(res.catalog, res.reports):
        fs = b.geometry.fs
        census = line_census(b)
        mod_ok = all(s == 0 or (s - 1) % fs.p == 0 for s in census.hist)
        if not mod_ok:
            alarms.append(sorted(int(i) for i in b.indices))
        is_line = rep.size == fs.q + 1 and rep.span_dim == 1
        if is_line:
            verdict = "line"
            labels = None
        else:
            try:
                cert = certify_linearity(b, rep, census=census)
                verdict = "linear" if cert.verified else "unverified"
                labels = cert.hypothesis_labels
            except NoSecant:
                verdict = "no-short-secant"
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
