"""Vectorized incidence censuses driven by per-point quotient grouping.

The workhorse trick: for a fixed point P of a set B, two other points
Q, Q' lie on the same line through P iff their images in the quotient
space PG(V / <P>) coincide.  ``line_census`` takes a block of points P at
a time, computes the quotient images of B around each of them with numpy
field arithmetic, one coordinate at a time on 2-D arrays, and packs each
image into one canonical int64 key (discrete logs relative to the
leading nonzero coordinate) tagged with P's block position.  One sort of
the block's keys then puts each line through each P in one run.  This
keeps censuses of 16k-point sets in multi-billion-point ambient spaces
tractable.  Every census also keeps the secants of its longest line
size, which for the linear sets the checks are about are the short
(q0+1)-secants, so one pass serves every check.
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

    ``secants`` holds the asked-for sizes and, when it is at least 3, the
    longest line size.  ``per_point_secants`` / ``per_point_tangents``
    are None when the census was computed in pair mode and some secant
    size is not collected (the histogram itself is always exact).
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
        """This census if it holds the size-``size`` secants (always so
        for its longest lines), else a census of the same set collecting
        them: one pass, cached for later calls, in full mode when longer
        lines would shadow them in pair mode.
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


def _block_keys(fs, coords_t, scoords, pc, j0: int, w: int) -> np.ndarray:
    """(nb, mc) canonical quotient keys of the points j >= j0 around each
    block point ``pc`` (normalized rows), built one coordinate at a time.

    Coordinate k of the image of point j is coords[j, k] - alpha * pc[k],
    alpha = coords[j, pivot of pc]; its discrete log is taken relative to
    the row's leading nonzero coordinate (so every scalar multiple gets
    the same key) and a zero coordinate gets the digit q-1, so each block
    point's own zero row gets the all-(q-1) key.
    """
    q = fs.q
    piv = np.argmax(pc != 0, axis=1)
    alpha = coords_t[piv, j0:]                       # (nb, mc)
    logs = []
    for k in range(pc.shape[1]):
        if scoords is not None:
            lr = fs.vmulsub_spread_log(scoords[k, j0:], alpha, pc[:, k:k + 1])
        else:
            lr = fs.vlog(fs.vsub(coords_t[k, j0:],
                                 fs.vmul(alpha, pc[:, k:k + 1])))
        logs.append(lr)
    # log of the leading nonzero coordinate: last to first, nonzero wins
    lead = logs[-1].copy()
    for lr in logs[-2::-1]:
        np.copyto(lead, lr, where=lr >= 0)
    keys = np.zeros(alpha.shape, dtype=np.int64)
    for lr in logs:
        zero = lr < 0
        lr -= lead                                   # in -(q-2)..q-2
        np.add(lr, q - 1, out=lr, where=lr < 0)
        np.copyto(lr, q - 1, where=zero)
        keys <<= w
        keys |= lr
    return keys


def line_census(b: PointSet, collect_sizes=(), mode: str = "auto") -> LineCensus:
    """Exact census of all lines meeting B, grouped around each point.

    ``collect_sizes`` lists intersection sizes whose secants should be
    returned as explicit (S, size) index arrays (each secant reported
    once, one sorted row each).  The secants of the longest line size
    are always collected when that size is at least 3.  Two strategies:

    * ``"full"``: every point is grouped against all other points, so
      per-point tangent/secant counts come out directly.
    * ``"pair"``: each point is grouped only against higher-index points
      (half the work).  A line of size k then appears as one group of
      each size k-1, ..., 1, so the exact histogram follows from the
      telescoping identity N_k = c_{k-1} - c_k, where c_s counts groups
      of size s.  Explicit collection of size-s secants is only sound
      when no line is longer than s; otherwise this mode raises.  Per
      point counts exist when every secant size is collected.

    ``"auto"`` picks pair mode for large sets.  Points are processed in
    blocks: the keys of a block (one int64 per point pair, see
    ``_block_keys``) are tagged with the block point's position and
    sorted once, and each run of equal keys is one line through that
    point.  A 16k-point set costs a few hundred vectorized passes rather
    than 16k small ones.
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
    self_key = 0                      # the zero row's key: all digits q-1
    for _ in range(d):
        self_key = (self_key << w) | (fs.q - 1)
    coords_t = np.ascontiguousarray(coords.T)        # (d, m)
    scoords = fs.spread_codes(coords_t)
    # block size: keep block-id bits inside an int64 next to the key
    bs = max(1, min(1 << (62 - keybits), max(1, (1 << 21) // m)))
    pair = mode == "pair"
    # size -> chunks of (S, size) position rows; the longest size seen so
    # far (longest) is collected too, and dropped when a longer line shows up
    chunks: dict = {s: [] for s in collect_sizes}
    longest = 0
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
        keys = _block_keys(fs, coords_t, scoords, coords[i0:i1], j0, w)
        if pair:
            # merge columns j <= i (the lower triangle of the block) into
            # each point's self-group so only j > i members are counted
            keys[:, :nb][np.tril(np.ones((nb, nb), dtype=bool))] = self_key
        keys |= np.arange(nb, dtype=np.int64)[:, None] << keybits
        flat = keys.ravel()
        order = np.argsort(flat)
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
                arr[i0:i1] += np.bincount(gpos_r[sel], minlength=nb)
                hist[v] = hist.get(v, 0) + int(sel.sum())
        k = int(counts_r.max()) + 1 if counts_r.size else 0
        if k > longest:
            if longest not in collect_sizes:
                chunks.pop(longest, None)
            longest = k
        for s in collect_sizes | ({longest} if longest >= 3 else set()):
            gsel = np.flatnonzero(counts_r == s - 1)
            if gsel.size == 0:
                continue
            offs = starts_r[gsel][:, None] + np.arange(s - 1)[None, :]
            mem = j0 + order[offs] % mc          # member positions
            own = i0 + gpos_r[gsel]
            if not pair:
                # report each secant once, at its lowest member (in pair
                # mode every member is above the group's own point)
                keep = mem.min(axis=1) > own
                mem, own = mem[keep], own[keep]
            rows = np.concatenate([own[:, None], mem], axis=1)
            rows.sort(axis=1)
            chunks.setdefault(s, []).append(rows)
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
    secants = {}
    for s, parts in chunks.items():
        pos = (np.concatenate(parts, axis=0) if parts
               else np.zeros((0, s), dtype=np.int64))
        # positions follow index order (idx is sorted), so rows sort alike
        pos = pos[np.lexsort(pos.T[::-1])]
        if pair:
            by_size[s] = np.bincount(pos.ravel(), minlength=m)
            n_sec += by_size[s]
        secants[s] = idx[pos]
    if pair:
        if all(s in secants for s in hist if s >= 2):
            # every secant is on record, so totals follow
            n_tan = lines_through_point - n_sec
        else:
            n_sec = None
            n_tan = None
    return LineCensus(b, hist, n_sec, n_tan, by_size, secants)


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
