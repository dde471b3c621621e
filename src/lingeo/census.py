"""Vectorized incidence censuses driven by per-point quotient grouping.

The workhorse trick: for a fixed point P of a set B, two other points
Q, Q' lie on the same line through P iff their images in the quotient
space PG(V / <P>) coincide.  Quotient images are computed with numpy
field arithmetic and packed into int64 keys, so grouping the ~|B| points
around each P costs one np.unique call.  This keeps censuses of
16k-point sets in multi-billion-point ambient spaces tractable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pg import Geometry, PointSet, normalize_rows, space_size


def _pack_width(q: int) -> int:
    return max(1, int(q - 1).bit_length())


def pack_rows(rows: np.ndarray, q: int) -> np.ndarray:
    """Pack small-code rows into int64 keys (or keep 2-D when too wide)."""
    w = _pack_width(q)
    if w * rows.shape[1] <= 63:
        out = np.zeros(rows.shape[0], dtype=np.int64)
        for j in range(rows.shape[1]):
            out = (out << w) | rows[:, j]
        return out
    return rows  # caller must unique along axis=0


def quotient_rows(geometry: Geometry, basis, rows: np.ndarray) -> np.ndarray:
    """Normalized images of rows in the quotient by the subspace whose
    RREF rows are ``basis`` (a normalized point is a one-row basis).  An
    RREF row's coefficient in a vector is the vector's pivot-column entry."""
    fs = geometry.fs
    basis = np.atleast_2d(np.asarray(basis, dtype=np.int64))
    pivots = np.argmax(basis != 0, axis=1)
    red = fs.vsub(rows, fs.vmatmul(rows[:, pivots], basis))
    return normalize_rows(fs, np.delete(red, pivots, axis=1))


@dataclass
class LineCensus:
    """Histogram of |L ∩ B| over lines meeting B, plus per-point counts.

    ``per_point_secants`` / ``per_point_tangents`` may be None when the
    census was computed in pair mode without collecting every secant
    size (the histogram itself is always exact).
    """

    point_set: PointSet
    hist: dict                      # size -> number of lines
    per_point_secants: np.ndarray   # lines through P with >= 2 points of B
    per_point_tangents: np.ndarray  # lines through P meeting B in {P} only
    per_point_by_size: dict         # size -> np.ndarray of counts per point
    secants: dict = field(default_factory=dict)  # size -> (S, size) index array
    _collected: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)  # size -> census collecting it

    def lines_meeting(self) -> int:
        return sum(self.hist.values())

    def pair_count_identity(self) -> bool:
        m = self.point_set.card
        total = sum(s * (s - 1) // 2 * c for s, c in self.hist.items())
        return total == m * (m - 1) // 2

    def secant_members(self, size: int) -> np.ndarray:
        """(S, size) array of member indices, one sorted row per secant."""
        return self.secants.get(size, np.zeros((0, size), dtype=np.int64))

    def with_secants(self, size: int) -> "LineCensus":
        """This census if it holds the size-``size`` secants, else a census
        of the same set collecting them: one pass, cached for later calls,
        in full mode when longer lines would shadow them in pair mode.
        """
        if size in self.secants:
            return self
        if size not in self._collected:
            shadowed = any(k > size for k in self.hist)
            self._collected[size] = line_census(
                self.point_set, collect_sizes=[size],
                mode="full" if shadowed else "auto")
        return self._collected[size]


_PAIR_MODE_THRESHOLD = 4096


def line_census(b: PointSet, collect_sizes=(), mode: str = "auto") -> LineCensus:
    """Exact census of all lines meeting B, grouped around each point.

    ``collect_sizes`` lists intersection sizes whose secants should be
    returned as explicit (S, size) index arrays (each secant reported
    once, one sorted row each).  Two strategies:

    * ``"full"``: every point is grouped against all other points, so
      per-point tangent/secant counts come out directly.
    * ``"pair"``: each point is grouped only against higher-index points
      (half the work).  A line of size k then appears as one group of
      each size k-1, ..., 1, so the exact histogram follows from the
      telescoping identity N_k = c_{k-1} - c_k, where c_s counts groups
      of size s.  Explicit collection of size-s secants is only sound
      when no line is longer than s; otherwise this mode raises.

    ``"auto"`` picks pair mode for large sets.  Points are processed in
    blocks with one combined sort per block, so a 16k-point set costs a
    few hundred vectorized passes rather than 16k small ones.
    """
    g = b.geometry
    fs = g.fs
    coords = b.coords()
    idx = b.indices
    m = b.card
    d = g.n + 1
    lines_through_point = space_size(fs.q, g.n - 1)
    collect_sizes = set(collect_sizes)
    if m == 1:
        n_tan = np.full(1, lines_through_point, dtype=np.int64)
        return LineCensus(b, {1: lines_through_point},
                          np.zeros(1, dtype=np.int64), n_tan, {},
                          {s: np.zeros((0, s), dtype=np.int64)
                           for s in collect_sizes})
    if mode == "auto":
        mode = "pair" if m > _PAIR_MODE_THRESHOLD else "full"
    if mode not in ("full", "pair"):
        raise ValueError(f"unknown census mode: {mode!r}")
    w = _pack_width(fs.q)
    keybits = w * d
    if keybits > 62:
        raise ValueError("field too wide for packed line keys")
    marker = fs.q - 1  # key digit for a zero coordinate
    self_key = 0
    for _ in range(d):
        self_key = (self_key << w) | marker
    scoords = fs.spread_codes(coords)
    # block size: keep block-id bits inside an int64 next to the key
    bs = max(1, min(1 << (62 - keybits), max(1, (1 << 21) // m)))
    pair = mode == "pair"
    secants: dict = {s: [] for s in collect_sizes}
    hist: dict = {}
    group_counts: dict = {}           # pair mode: group size -> #groups
    n_sec = np.zeros(m, dtype=np.int64)
    n_tan = np.zeros(m, dtype=np.int64)
    by_size: dict = {}
    for i0 in range(0, m, bs):
        i1 = min(i0 + bs, m)
        nb = i1 - i0
        j0 = i0 if pair else 0        # pair mode: only columns j >= i0
        mc = m - j0
        pc = coords[i0:i1]                       # (nb, d)
        piv = np.argmax(pc != 0, axis=1)
        alpha = coords[j0:, piv].T               # (nb, mc)
        if scoords is not None:
            # discrete logs of coords[j] - alpha * pc, per coordinate
            lr = fs.vmulsub_spread_log(scoords[None, j0:, :],
                                       alpha[:, :, None], pc[:, None, :])
        else:
            red = fs.vsub(np.broadcast_to(coords[j0:], (nb, mc, d)),
                          fs.vmul(alpha[:, :, None], pc[:, None, :]))
            lr = fs.vlog(red)
        # canonical projective key per quotient row: log-ratios against the
        # leading nonzero coordinate, zero coordinates marked q-1.  The
        # all-marker key belongs to each block point's own zero row.
        lead = np.argmax(lr >= 0, axis=2)
        lead_log = np.take_along_axis(lr, lead[:, :, None], axis=2)
        rel = (lr - lead_log) % (fs.q - 1) if fs.q > 2 else lr - lead_log
        rel = np.where(lr < 0, marker, rel)
        keys = np.zeros((nb, mc), dtype=np.int64)
        for j in range(d):
            keys = (keys << w) | rel[:, :, j]
        if pair:
            # merge columns j <= i (the lower triangle of the block) into
            # each point's self-group so only j > i members are counted
            keys[:, :nb][np.tril(np.ones((nb, nb), dtype=bool))] = self_key
        flat = (np.arange(nb, dtype=np.int64)[:, None] << keybits | keys).ravel()
        order = np.argsort(flat, kind="stable")  # stable: members stay sorted
        sflat = flat[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(sflat)) + 1))
        counts = np.diff(np.concatenate((starts, [sflat.size])))
        gpos = (sflat[starts] >> keybits)        # block-local point position
        gkey = sflat[starts] & ((1 << keybits) - 1)
        real = gkey != self_key                  # drop each point's self-group
        gpos_r = gpos[real]
        counts_r = counts[real]
        starts_r = starts[real]
        if pair:
            for v, c in zip(*np.unique(counts_r, return_counts=True)):
                group_counts[int(v)] = group_counts.get(int(v), 0) + int(c)
        else:
            n_groups = np.bincount(gpos_r, minlength=nb)
            n_sec[i0:i1] = n_groups
            n_tan[i0:i1] = lines_through_point - n_groups
            sizes = counts_r + 1
            # histogram contribution: each k-line is seen from k members
            for v in np.unique(sizes).tolist():
                sel = sizes == v
                arr = by_size.setdefault(v, np.zeros(m, dtype=np.int64))
                np.add.at(arr, i0 + gpos_r[sel], 1)
                hist[v] = hist.get(v, 0) + int(sel.sum())
        for s in collect_sizes:
            gsel = np.flatnonzero(counts_r == s - 1)
            if gsel.size == 0:
                continue
            offs = starts_r[gsel][:, None] + np.arange(s - 1)[None, :]
            mem = idx[j0 + order[offs] % mc]     # ascending within each group
            own = idx[i0 + gpos_r[gsel]]
            if pair:
                # every member is above the group's own point already
                keep = np.ones(gsel.size, dtype=bool)
            else:
                # report each secant once, at its lowest-index member
                keep = mem[:, 0] > own
            if np.any(keep):
                full = np.concatenate([own[keep, None], mem[keep]], axis=1)
                full.sort(axis=1)
                secants[s].append(full)
    if pair:
        # N_k = c_{k-1} - c_k: each k-line yields one group of every size < k
        top = max(group_counts) if group_counts else 0
        for k in range(2, top + 2):
            n = group_counts.get(k - 1, 0) - group_counts.get(k, 0)
            if n < 0:
                raise AssertionError("inconsistent pair-mode group counts")
            if n:
                hist[k] = n
        shadow = {s for s in collect_sizes
                  if any(k > s for k in hist if k >= 2)}
        if shadow:
            raise ValueError(
                f"secants of sizes {sorted(shadow)} are shadowed by longer "
                "secants; use mode='full' to collect them")
        point_slots = sum(k * c for k, c in hist.items())
        hist[1] = m * lines_through_point - point_slots
        if hist[1] == 0:
            del hist[1]
    else:
        # each secant of size k was counted k times
        hist = {s: (c if s == 1 else c // s) for s, c in hist.items()}
        hist[1] = hist.get(1, 0) + int(n_tan.sum())
        if hist[1] == 0:
            del hist[1]
    out_secants = {}
    for s, chunks in secants.items():
        if chunks:
            arr = np.concatenate(chunks, axis=0)
            arr = arr[np.lexsort(arr.T[::-1])]
        else:
            arr = np.zeros((0, s), dtype=np.int64)
        out_secants[s] = arr
    if pair:
        for s, arr in out_secants.items():
            counts_s = np.zeros(m, dtype=np.int64)
            if arr.shape[0]:
                # idx is sorted, so searchsorted inverts idx -> position
                np.add.at(counts_s, np.searchsorted(idx, arr.ravel()), 1)
            by_size[s] = counts_s
            n_sec += counts_s
        if all(s in collect_sizes for s in hist if s >= 2):
            # every secant is on record, so totals follow
            n_tan = lines_through_point - n_sec
        else:
            n_sec = None
            n_tan = None
    return LineCensus(b, hist, n_sec, n_tan, by_size, out_secants)


def groups_through_point(b: PointSet, i: int):
    """Partition of B \\ {P_i} into the lines through P_i.

    Returns a list of np arrays of point indices, one per line, sorted by
    quotient key so the order is reproducible.
    """
    g = b.geometry
    coords = b.coords()
    others = np.delete(coords, i, axis=0)
    oidx = np.delete(b.indices, i)
    keys = pack_rows(quotient_rows(g, coords[i], others), g.fs.q)
    if keys.ndim == 1:
        uniq, inverse = np.unique(keys, return_inverse=True)
    else:
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    sorted_inv = inverse[order]
    boundaries = np.flatnonzero(np.diff(sorted_inv)) + 1
    return [oidx[chunk] for chunk in np.split(order, boundaries)]
