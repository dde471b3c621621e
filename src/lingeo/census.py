"""Vectorized incidence censuses driven by per-point quotient grouping.

The workhorse trick: for a fixed point P of a set B, two other points Q,
Q' lie on the same line through P iff their images in the quotient space
PG(V / <P>) coincide.  ``line_census`` takes a block of points P at a
time, computes the quotient images of B around each of them with numpy
field arithmetic, one free coordinate at a time on 2-D arrays, and packs
each image into one canonical int64 key (discrete logs relative to the
first free coordinate, or to the leading nonzero one when that is zero).
The points of B are normalized and sorted by leading column, so Q's
coefficient on P, its entry at P's pivot, is 0 or 1 for every Q from P's
leading column on: those products are integer ones, and only the points
before them pay a field product.  One sort of each row of the block's
keys then puts each line through each P in one run.  This keeps censuses
of 16k-point sets in multi-billion-point ambient spaces tractable.
The sets the checks are about meet every line in 1 mod p^e points, so
none has a 2-secant and each secant is found whole from any of its
points: ``line_census`` first runs an anchor census, which quotients all
of B by a few greedily chosen points at a time and stops once every
pair of B lies on a line found (623 anchors of a 4,681-point rank-5
linear set of PG(3, 2^12)).  Its first batch is a probe: a set whose
probe keeps a 2-point line gets the one-pass pair or full kernel
instead, unless the probe anchored every point, which makes it a whole
census.  Every census keeps the secants of its longest line size,
which for those linear sets are the short (q0+1)-secants, so one pass
serves every check; an anchor census collects any size, no longer line
shadowing it, and counts every size per point.  Secants are kept as
rows of positions into B, the form in which every check reads them:
16-bit positions up to 65,536 points, int32 above (``position_dtype``,
which every array of positions takes its type from; a check that
computes with positions widens them first).  Each secant is held once:
as each block's result is reached its rows are copied into one array
per size, reserved for the most secants of that size B can have and
trimmed at the end (``_SecantRows``), and let go.  A kernel block sorts
its own rows; the anchor census builds each row sorted (a line's other
members come ascending from the kernel, and the anchor sinks into
place: ``_sink_last``) and orders its array once at the end, in place.
This is the only grouping routine in production: point exponents read
its per-point counts, the certifier its secant rows, and the
tangent-only point search runs on its kernel.  Hyperplane questions
(blocking, minimality, the exponent) read
``blocking.hyperplane_incidence`` instead, in the plane too, where the
hyperplanes are the lines and both give the same numbers.

The same kernel (``quotient_keys`` and ``row_groups``) quotients by any
block of subspaces given by reduced bases of k rows: points (k = 1),
quotienting all of B, for the line census and for the lines through the
anchors of ``structure.plane_block_data``'s secants; and secant lines
(k = 2) for that plane census, quotienting per secant only one member
of each line through its anchor (``take``), not B.  The logs of B's
coordinates are taken once per kernel call, and the field work runs in
cache-sized row tiles (``TILE_ELEMS``) inside each sorted block
(``BLOCK_ELEMS``).  The scalar ``quotient_rows`` and ``pack_rows``
serve only ``structure.plane_census``, the plane kernel's test oracle,
which quotients all of B by one secant.

Blocks are independent, and the kernel's sorts, gathers and ufuncs release
the GIL, so ``map_blocks`` runs them on a pool of ``threads`` worker
threads (clamped to the CPUs and to the blocks; one worker is a plain
generator).  The process keeps one pool, built on first use and rebuilt
only when a call asks for another worker count (``_pool_map``), so a
census's batches, the subline batches and the plane blocks all run on
the same threads.  Each thread, a worker or the caller on one worker,
keeps the kernel's tile-sized temporaries in buffers of its own
(``scratch``), grown once and written by ``out=`` ufuncs and ``take``,
so the tiles, blocks and batches of a run, its stages included, neither
allocate them nor fault their pages in again; what a block returns is
always its own.
``split_blocks`` gives each of w workers blocks of ``BLOCK_ELEMS // w``
elements, so the elements in flight do not grow; an anchor batch is cut
into two blocks per worker within that budget.
``map_blocks`` yields the results in block order, and the callers fold
each one in as it comes and let it go, so every thread count gives the
same census and no caller holds all blocks' results at once.
``line_census`` and ``structure``'s subline and plane checks go through
it, so ``BLOCK_ELEMS`` is the one memory budget.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .pg import Geometry, PointSet, distinct, normalize_rows, space_size


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
    longest line size, as rows of positions into ``point_set.indices``
    (16-bit positions up to 65,536 points, int32 above:
    ``position_dtype``; the form every check reads them in;
    ``secant_members`` gives the point indices), one sorted row per
    secant, the rows ordered by their two lowest members: one array per
    size, written once as the census blocks come in.
    ``per_point_by_size`` counts the lines of each size through each
    point: every size on an anchor or full-mode census, the collected
    sizes on a pair-mode one.  ``per_point_secants`` (and so
    ``per_point_tangents``) is None when the census was computed in pair
    mode and some secant size is not collected (the histogram itself is
    always exact).  ``threads`` is the worker count it was asked for,
    which ``with_secants`` passes on; ``strategy`` ("anchor", "pair" or
    "full") and ``rows`` (the points B was quotiented by, a discarded
    anchor probe included) say how it was computed.
    """

    point_set: PointSet
    hist: dict                      # size -> number of lines
    per_point_secants: np.ndarray   # lines through P with >= 2 points of B
    per_point_by_size: dict         # size -> np.ndarray of counts per point
    secants: dict = field(default_factory=dict)  # size -> (S, size) positions
    threads: int = field(default=1, compare=False)
    strategy: str = field(default="full", compare=False)
    rows: int = field(default=0, compare=False)
    _collected: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)  # sizes -> census collecting them

    @property
    def per_point_tangents(self):
        """Lines through P meeting B in {P} only, per point, or None."""
        if self.per_point_secants is None:
            return None
        g = self.point_set.geometry
        return space_size(g.fs.q, g.n - 1) - self.per_point_secants

    def lines_meeting(self) -> int:
        return sum(self.hist.values())

    def pair_count_identity(self) -> bool:
        m = self.point_set.card
        total = sum(s * (s - 1) // 2 * c for s, c in self.hist.items())
        return total == m * (m - 1) // 2

    def secant_members(self, size: int) -> np.ndarray:
        """(S, size) array of member indices, one sorted row per secant."""
        rows = self.secants.get(size, np.zeros(
            (0, size), dtype=position_dtype(self.point_set.card)))
        return self.point_set.indices[rows]

    def with_secants(self, *sizes: int) -> "LineCensus":
        """This census if it holds the secants of every size in ``sizes``
        (always so for its longest lines), else a census of the same set
        collecting them all: one pass, cached for later calls (any cached
        census that holds them serves).  On the paper's sets that pass is
        an anchor census, which collects any size; if its probe falls
        back, it runs in full mode when longer lines would shadow one of
        the sizes in pair mode.
        """
        want = frozenset(sizes)
        for c in (self, *self._collected.values()):
            if want <= c.secants.keys():
                return c
        shadowed = any(k > min(want) for k in self.hist)
        self._collected[want] = line_census(
            self.point_set, collect_sizes=sorted(want),
            mode="full" if shadowed else "auto", threads=self.threads)
        return self._collected[want]

    def stats(self) -> dict:
        """How this census was computed, with the passes ``with_secants``
        ran for it: its strategy, the points B was quotiented by over
        all passes, and the number of passes."""
        runs = (self, *self._collected.values())
        return {"strategy": self.strategy,
                "rows": sum(c.rows for c in runs), "passes": len(runs)}


_PAIR_MODE_THRESHOLD = 4096
POSITION_LIMIT = 1 << 16    # most points whose positions are held in 16 bits
BLOCK_ELEMS = 1 << 19       # (row, column) elements in flight, over all workers
TILE_ELEMS = 1 << 15        # elements per cache-sized step inside a block
_WORD_BITS = 63             # bits of a non-negative int64 sort key


def position_dtype(m: int):
    """The dtype of positions into a set of ``m`` points, and of counts
    bounded by ``m``: uint16 up to ``POSITION_LIMIT`` points, int32 above.
    A consumer that computes with positions widens them first: numpy
    keeps ``uint16 * int`` in uint16."""
    return np.uint16 if m <= POSITION_LIMIT else np.int32


def block_rows(width: int) -> int:
    """Rows per sorted kernel block whose rows are ``width`` long."""
    return max(1, BLOCK_ELEMS // max(1, width))


def tile_rows(width: int) -> int:
    """Rows per cache-sized step whose rows are ``width`` long."""
    return max(1, TILE_ELEMS // max(1, width))


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(threads: int, blocks: int, cpus: int | None = None) -> int:
    """Worker threads for ``blocks`` blocks: ``threads`` clamped to the
    CPUs (``cpus``, by default this process's) and to the blocks."""
    if cpus is None:
        cpus = _cpus()
    return max(1, min(threads, cpus, blocks))


def split_blocks(n: int, width: int, threads: int):
    """(block starts, rows per block, workers) for ``n`` rows ``width``
    long: the fewest equal blocks of at most ``BLOCK_ELEMS // w``
    elements, w = ``worker_count(threads, n)``, on w workers or one per
    block if fewer, so work beyond one such block is split."""
    workers = worker_count(threads, n)
    blocks = max(1, -(-n // block_rows(width * workers)))
    rows = max(1, -(-n // blocks))
    return range(0, n, rows), rows, worker_count(workers, blocks)


_pool = None                    # (workers, the process's one thread pool)
_pool_lock = threading.Lock()
_scratch = threading.local()    # name -> this thread's buffer (``scratch``)


def _pool_map(fn, starts, workers: int):
    """``fn`` submitted for every start to the process's one thread pool,
    of exactly ``workers`` threads: built on first use and kept while
    calls ask for that many.  A call that asks for another count shuts
    the pool down, waiting for the blocks already submitted, and builds
    one of its own count, so the process never holds more threads, nor
    their ``scratch``, than the largest count asked.  The blocks are
    submitted under the lock, so no other caller shuts the pool down
    before they are queued."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != workers:
            from concurrent.futures import ThreadPoolExecutor

            if _pool is not None:
                _pool[1].shutdown()
            _pool = workers, ThreadPoolExecutor(
                workers, thread_name_prefix="lingeo")
        return _pool[1].map(fn, starts)


def _forget_pool():
    """In a forked child: the parent's pool threads do not exist there."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def map_blocks(fn, starts, threads: int):
    """``fn(s)`` for each s in ``starts``, yielded in block order, on
    ``worker_count(threads, len(starts))`` threads: a plain generator for
    one, else the ``map`` of the process's pool of that many threads
    (``_pool_map``; the kernels release the GIL).  Each result is handed
    over as it is reached and held no longer, so a caller that folds it
    in and lets go holds one block's result, plus those of later blocks
    that finished first.  A block that raises raises here, and the
    blocks not yet started are dropped.  ``fn`` must return arrays it
    owns, never ``scratch``: they cross threads and outlive the block.
    Nor may it call ``map_blocks`` on more than one worker: it would wait
    on blocks queued behind it on the pool, or on the pool's shutdown."""
    workers = worker_count(threads, len(starts))
    if workers == 1:
        yield from map(fn, starts)
        return
    yield from _pool_map(fn, starts, workers)


def scratch(name: str, shape, dtype=np.int64) -> np.ndarray:
    """This thread's buffer ``name``, as a C-contiguous array of
    ``shape`` and ``dtype`` holding what its last use left.  Each thread
    (a pool's worker, or the caller on one worker) keeps one buffer per
    name, grown to the most bytes asked and reused across tiles, blocks,
    batches and stages, so the kernels neither allocate nor fault in
    temporaries of a tile's size.  A buffer serves one use at a time,
    and no array in it leaves the block that filled it."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    buf = _scratch.__dict__.get(name)
    if buf is None or buf.size < size:
        buf = _scratch.__dict__[name] = np.empty(size, dtype=np.uint8)
    return buf[:size].view(dtype).reshape(shape)


def free_columns(piv: np.ndarray, d: int) -> np.ndarray:
    """For each row of pivot columns ``piv`` (nb, k), the other d-k
    columns of 0..d-1 in increasing order."""
    is_piv = np.zeros((piv.shape[0], d), dtype=bool)
    is_piv[np.arange(piv.shape[0])[:, None], piv] = True
    return np.argsort(is_piv, axis=1, kind="stable")[:, :d - piv.shape[1]]


def kernel_operands(fs, coords: np.ndarray):
    """B's (m, d) coordinates prepared once for ``quotient_keys``: the
    (d, m) codes, their zero-safe logs and each point's leading column
    (ascending when B is in index order, as ``lex_points`` sorts)."""
    codes = np.ascontiguousarray(coords.T)
    return codes, fs.vlog0(codes), np.argmax(coords != 0, axis=1)


def quotient_keys(fs, operands, basis: np.ndarray, j0: int = 0,
                  cols: bool = False, merge_lower: bool = False,
                  take: np.ndarray | None = None):
    """Sort keys of the canonical quotient images of the points j >= j0
    of B by each subspace of a block, or, with ``take`` (nb, mc), of the
    points at row r's positions ``take[r]`` by row r's subspace (``j0``
    and ``merge_lower`` then do not apply).

    ``operands`` is ``kernel_operands`` of B, a point set in index order;
    ``basis`` is (nb, k, d), one reduced basis per row (row r of it is 1
    at its own pivot column and 0 at the others'): a normalized point
    (k = 1) or the reduced rows of a line (k = 2).  Only the d-k free
    columns of a basis carry information; there coordinate c of point
    j's image is coords[j, c] - sum_r alpha_r * basis[r, c], alpha_r =
    coords[j, pivot_r].  For a point basis P with pivot p, alpha is 0 or
    1 at every column Q whose leading column is p or later (Q is
    normalized), so the image coordinate is one ``fs.vsubmul01_log0``,
    with no log-domain product where subtraction works on codes.  B is
    sorted by leading column, so the other columns are a prefix, found
    by ``searchsorted``; they, and every ``take`` row, take the products
    as log sums from B's logs, taken once, in ``fs.vmulsub_log0``.  Both
    return zero-safe logs.
    The image becomes d-k digits: each coordinate's log relative to the
    leading nonzero one (so every scalar multiple gets the same digits),
    or q-1 for a zero coordinate, so the points of the subspace itself
    get all digits q-1.  The lead is the first free coordinate, whose
    digit is then 0: a key is the OR of the other digits, each read from
    a table shifted to its place.  Only the images whose first
    coordinate is zero (about 1 in q) are redone with the leading
    nonzero coordinate as the lead, from the coordinates saved at their
    positions.  The work runs in cache-sized row tiles, cut at the prefix
    into a log-product part and a 0/1 part, each in this thread's
    buffers (``scratch``): a coordinate's logs, the work of its
    subtraction, the lead folded into a base, each pivot's log sums on
    the prefix, and, where the tile's rows differ or ``take`` is given,
    the gathered operands and their index.  So a tile allocates only its
    redo positions; the words are the call's own.

    Returns (words, self_words, jbits): the digits packed ``w`` bits
    each into one (nb, mc) integer array (int32 when it fits 31 bits),
    with the column index in the low ``jbits`` bits when ``cols``; or,
    for a key too wide for that, arrays of at most 63 // w digits each
    and ``jbits`` 0.  ``self_words`` are the zero image's words (without
    column bits).  ``merge_lower`` (pair-mode censuses, where row r is
    the point in column r) gives each row's columns up to its own the
    zero image, so they join the row's own group.
    """
    codes, logs, leads = operands
    nb, k, d = basis.shape
    q = fs.q
    z = fs.zero_log
    w = _pack_width(q)
    mc = codes.shape[1] - j0 if take is None else take.shape[1]
    nd = d - k
    jbits = int(mc - 1).bit_length() if cols else 0
    if w * nd + jbits > _WORD_BITS:
        per, jbits = max(1, _WORD_BITS // w), 0
    else:
        per = nd
    spans = [(a, min(a + per, nd)) for a in range(0, nd, per)]
    self_words = []
    for a, b in spans:
        key = 0
        for _ in range(a, b):
            key = (key << w) | (q - 1)
        self_words.append(key)
    piv = np.argmax(basis != 0, axis=2)                  # (nb, k)
    free = free_columns(piv, d)
    bf = np.take_along_axis(basis, free[:, None, :], axis=2)  # (nb, k, nd)
    lb = fs.vlog0(bf)
    # columns before ``split[r]`` take log-domain products
    if take is None and k == 1:
        split = np.maximum(np.searchsorted(leads, piv[:, 0]) - j0, 0)
    else:
        split = np.full(nb, mc)
    # a key of at most 31 bits sorts as int32, twice as fast
    dtype = np.int32 if w * per + jbits <= 31 else np.int64
    # tables[s]: the digit table shifted past s digits and the column bits
    table = _digit_table(fs).astype(dtype)
    tables = [table << (w * s + jbits) for s in range(per)]
    col = np.arange(mc, dtype=dtype)
    words = [np.empty((nb, mc), dtype=dtype) for _ in spans]
    # digit i >= 1 goes into its span's word through its shifted table
    digits = {i: (kw, tables[b - 1 - i])
              for kw, (a, b) in zip(words, spans) for i in range(max(a, 1), b)}
    step = tile_rows(mc)
    for r0 in range(0, nb, step):
        r1 = min(r0 + step, nb)
        cut = int(split[r0:r1].max())
        for lo, hi in ((0, cut), (cut, mc)):
            if lo == hi:
                continue
            shape = (r1 - r0, hi - lo)

            def tile_of(a, c, name):
                """Columns lo..hi-1 of coordinate c[r] of row r's points,
                from the (d, m) operand a, for the tile's rows: a view
                when one row serves the tile, else gathered into this
                thread's buffer ``name`` by one flat gather (twice as
                fast as indexing by two arrays)."""
                if take is None and (c == c[0]).all():
                    return a[c[0], None, j0 + lo:j0 + hi]
                idx = scratch("index", shape)
                np.add((c * a.shape[1])[:, None],
                       col[None, lo:hi] + j0 if take is None
                       else take[r0:r1, lo:hi], out=idx)
                return np.take(a.ravel(), idx, out=scratch(name, shape),
                               mode="clip")

            x = scratch("logs", shape)      # one image coordinate's logs
            work = scratch("work", shape)
            if lo < cut:
                # each pivot's log sum with coordinate 0's basis entry, in
                # its own buffer, moved on to the next coordinate's by the
                # difference of the entries
                sums = [np.add(tile_of(logs, piv[r0:r1, r], f"lead{r}"),
                               lb[r0:r1, r, :1], out=scratch(f"lead{r}", shape))
                        for r in range(k)]
            else:
                alpha = tile_of(codes, piv[r0:r1, 0], "lead0")   # 0 or 1
            for i in range(nd):
                if lo < cut:
                    for r, s in enumerate(sums):
                        if i:
                            s += lb[r0:r1, r, i:i + 1] - lb[r0:r1, r, i - 1:i]
                    # the codes may sit in work, where their difference
                    # with the products is taken
                    fs.vmulsub_log0(tile_of(codes, free[r0:r1, i], "work"),
                                    sums, out=x, work=work)
                else:
                    fs.vsubmul01_log0(tile_of(codes, free[r0:r1, i], "codes"),
                                      alpha, bf[r0:r1, 0, i:i + 1],
                                      out=x, work=work)
                if i == 0:
                    # lead = first coordinate: x - lead + q-2 is in
                    # 0..2q-4 for a nonzero coordinate and above 2q-4
                    # for a zero one (see _digit_table); a zero lead
                    # gives garbage, redone below from the coordinates
                    # saved at its positions
                    redo = np.flatnonzero(x == z)
                    sub = [np.full(redo.size, z)]
                    base = np.subtract(q - 2, x, out=scratch("base", shape))
                    # a digit is read off before the next coordinate
                    # needs work
                    digit = scratch("work", shape, dtype)
                    for kw in words:
                        kw[r0:r1, lo:hi] = col[lo:hi] if jbits else 0
                    continue
                sub.append(x.ravel()[redo])
                x += base
                kw, table = digits[i]
                tile = kw[r0:r1, lo:hi]
                np.bitwise_or(tile, np.take(table, x, out=digit, mode="clip"),
                              out=tile)
            if redo.size:
                # the leading nonzero coordinate's log, 0 on an all-zero
                # image: last to first, nonzero wins
                lead = np.zeros(redo.size, dtype=np.int64)
                for v in sub[:0:-1]:
                    np.copyto(lead, v, where=v != z)
                base = (q - 2) - lead
                rr, cc = np.divmod(redo, hi - lo)
                cc += lo
                for kw, (a, b) in zip(words, spans):
                    key = col[cc] if jbits else np.zeros(redo.size, dtype)
                    for i in range(a, b):
                        key |= tables[b - 1 - i].take(sub[i] + base)
                    kw[r0 + rr, cc] = key
        if merge_lower:
            low = col[None, :r1] <= np.arange(r0, r1)[:, None]
            for kw, self_word in zip(words, self_words):
                key = self_word << jbits | col[:r1] if jbits else self_word
                np.copyto(kw[r0:r1, :r1], key, where=low)
    return words, self_words, jbits


@functools.lru_cache(maxsize=16)
def _digit_table(fs) -> np.ndarray:
    """Digit of (log - lead log + q - 2) for a quotient coordinate: the
    relative log mod q-1 when the coordinate is nonzero, q-1 when zero
    (its zero-safe log, ``fs.zero_log``, puts it past 2q-4).  Built once
    per field and read-only."""
    q = fs.q
    x = np.arange(fs.zero_log + q - 1, dtype=np.int64)
    table = np.where(x <= 2 * q - 4, (x - (q - 2)) % max(1, q - 1), q - 1)
    table.flags.writeable = False
    return table


def row_groups(words: list, self_words: list, jbits: int, cols: bool = False):
    """Runs of equal keys within each row of a ``quotient_keys`` block.

    Returns (starts, counts, pos, own, members): the start of each run
    in the row-major sorted order, its length, its row, whether it is
    the row's zero-image group, and, when ``cols``, the column of every
    sorted element (else None), as a position (``position_dtype``: 16
    bits up to 65,536 columns, int32 above).  One word, with its
    ``jbits`` column bits when ``cols``, is sorted row by row; otherwise
    the block is sorted by ``np.lexsort`` with the row as the primary key.
    """
    nb, mc = words[0].shape
    size = nb * mc
    brk = np.zeros(size, dtype=bool)
    brk[::mc] = True
    members = None
    if len(words) == 1 and (jbits or not cols):
        words[0].sort(axis=1)
        flat = words[0].ravel()
        if jbits:
            # column bits straight into positions, without a wide temporary
            members = np.empty(size, dtype=position_dtype(mc))
            np.bitwise_and(flat, (1 << jbits) - 1, out=members,
                           casting="unsafe")
            flat >>= jbits
        brk[1:] |= flat[1:] != flat[:-1]
        starts = np.flatnonzero(brk)
        own = flat[starts] == self_words[0]
    else:
        tag = np.repeat(np.arange(nb, dtype=np.int64), mc)
        order = np.lexsort([kw.ravel() for kw in words[::-1]] + [tag])
        ordered = [kw.ravel()[order] for kw in words]
        for sw in ordered:
            brk[1:] |= sw[1:] != sw[:-1]
        starts = np.flatnonzero(brk)
        own = np.ones(starts.size, dtype=bool)
        for sw, self_word in zip(ordered, self_words):
            own &= sw[starts] == self_word
        if cols:
            members = (order % mc).astype(position_dtype(mc))
    counts = np.diff(np.append(starts, size))
    return starts, counts, starts // mc, own, members


class _SecantRows:
    """The secant rows a census collects, by size, as its blocks hand
    them over.  Each size gets one array, reserved for the most
    s-secants B can have (two points span one line, so at most
    m(m-1) / (s(s-1))), written in arrival order and trimmed in place at
    the end, so the secants are held once.  The longest size seen so far
    is collected too; its array is dropped when a longer line shows up,
    unless that size was asked for.  With ``count_points`` it also
    counts, per size, the rows through each point."""

    def __init__(self, m: int, asked, count_points: bool):
        self.m = m
        self.asked = frozenset(asked)
        self.count_points = count_points
        self.slots: dict = {}   # size -> [rows, rows written, counts]
        self.longest = 0
        for s in self.asked:
            self._reserve(s)

    def _reserve(self, s: int):
        m = self.m
        self.slots[s] = [
            np.empty((m * (m - 1) // (s * (s - 1)) if s > 1 else 0, s),
                     dtype=position_dtype(m)), 0,
            np.zeros(m, dtype=np.int64) if self.count_points else None]

    def wanted(self, k: int) -> frozenset:
        """The sizes a block whose longest line has ``k`` points cuts
        rows of."""
        return self.asked | {k} if k >= 3 else self.asked

    def add(self, k: int, rows: dict):
        """Fold in one block's rows (size -> (S, size) part), ``k`` its
        longest line: each part is copied into place and let go at once,
        before the next block's result is taken."""
        if k > self.longest:
            if self.longest not in self.asked:
                self.slots.pop(self.longest, None)
            self.longest = k
            if k >= 3 and k not in self.slots:
                self._reserve(k)
        while rows:
            s, part = rows.popitem()
            slot = self.slots.get(s)
            if slot is not None:
                slot[0][slot[1]:slot[1] + len(part)] = part
                slot[1] += len(part)
                if self.count_points:
                    slot[2] += np.bincount(part.ravel(), minlength=self.m)

    def finish(self):
        """(size -> rows, size -> rows through each point, when counted).
        Each array is trimmed in place (no view of it exists): the rows
        never written were never touched, and their address space goes
        back."""
        secants, counts = {}, {}
        for s, (pos, at, per) in self.slots.items():
            pos.resize((at, s), refcheck=False)
            secants[s] = pos
            if per is not None:
                counts[s] = per
        return secants, counts


def _add_tangents(hist: dict, m: int, lines_through_point: int):
    """Put the tangents into ``hist``: each point lies on
    ``lines_through_point`` lines, and those not on a secant are
    tangents."""
    hist[1] = m * lines_through_point - sum(k * c for k, c in hist.items())
    if hist[1] == 0:
        del hist[1]


def _sort_rows(rows: np.ndarray, m: int):
    """Order secant rows by their two lowest members, in place, one
    column at a time: two points span one line, so the pair is a total
    order.  The key is int32 while m^2 fits.  ``take`` gathers each
    column, which it first copies out whole: twice as fast as indexing
    the strided column.  Whole rows would move in one gather, but
    through a copy of them all."""
    key = rows[:, 0].astype(np.int32 if m * m < 1 << 31 else np.int64)
    key *= m
    key += rows[:, 1]
    order = np.argsort(key)
    del key
    for c in range(rows.shape[1]):
        rows[:, c] = rows[:, c].take(order)


def _sink_last(part: np.ndarray):
    """Sort each column of a member-major (s, S) ``part`` in place, given
    that its rows but the last are ascending: the last row's entry sinks
    to its place by s-1 compare-exchanges of two contiguous rows, in
    place of a sort of each secant."""
    low = np.empty_like(part[0])
    for i in range(part.shape[0] - 2, -1, -1):
        np.minimum(part[i], part[i + 1], out=low)
        np.maximum(part[i], part[i + 1], out=part[i + 1])
        part[i] = low


def _probe_passes(sizes) -> bool:
    """Whether an anchor census whose first batch kept lines of
    ``sizes`` goes on.  A set with 2-point lines is not of the paper's
    kind: its pairs are not covered by a few anchors' lines, and the
    one-pass kernels serve it better."""
    return 2 not in sizes


def _anchor_census(b: PointSet, coords, operands, collect_sizes, threads):
    """The anchor census of B, or None when its first batch keeps a
    2-point line and leaves a pair unseen; and the rows it quotiented.

    ``unseen[p]`` counts the pairs at p on no line found yet.  Each
    batch anchors the points with the most (lowest index on ties) and
    quotients all of B by each, so every group is a whole line through
    its anchor, of any size.  A line is kept at its first anchor in
    anchoring order only, and its members' counts, ``unseen`` and the
    collected rows take it in.  When ``unseen`` is zero, every pair of B
    lies on a line found, so every secant is.  The first batch, the
    probe, is one tile's rows, kept small since a fallback discards it;
    a probe that leaves no pair unseen is kept whatever its sizes.  The
    rest are half a block's rows.  On a rank-5 linear set of PG(3, 2^12)
    whole blocks take a tenth more anchors, and quarter blocks a
    twentieth fewer, in blocks too small to gain on two workers.

    A size's rows are built member-major, (s, S): the line's other
    members, which come ascending out of ``row_groups``, then the anchor
    in the last row.  ``_sink_last`` moves the anchor to its place with
    s-1 passes over contiguous rows, and ``_SecantRows`` copies the
    transposed view into its (S, s) array.
    """
    fs = b.geometry.fs
    m = b.card
    secants = _SecantRows(m, collect_sizes, count_points=False)
    rank = np.full(m, m, dtype=np.int32)       # anchoring order; m: none yet
    unseen = np.full(m, m - 1, dtype=np.int64)
    by_size: dict = {}
    anchored = 0

    def anchor_block(anchors):
        """By size, the lines first found at ``anchors``: through each
        point, the count, and the member rows of the sizes to collect;
        and the longest of them."""
        starts, counts, gpos, own, cols = row_groups(
            *quotient_keys(fs, operands, coords[anchors, None, :], cols=True),
            cols=True)
        # a line is kept at its first anchor: no other member is anchored
        # before it (the groups partition each row)
        first = np.minimum.reduceat(rank[cols], starts)
        kept = np.flatnonzero(~own & (first > rank[anchors][gpos]))
        sizes = counts[kept] + 1
        k = int(sizes.max(initial=0))
        wanted = secants.wanted(k)
        found, rows = {}, {}
        for s in distinct(sizes).tolist():
            sel = kept[sizes == s]
            # member-major, the anchor last; a block's element offsets
            # fit int32
            offs = (starts[sel].astype(np.int32)
                    + np.arange(s - 1, dtype=np.int32)[:, None])
            part = np.empty((s, sel.size), dtype=cols.dtype)
            part[:-1] = cols[offs]
            part[-1] = anchors[gpos[sel]]
            found[s] = np.bincount(part.ravel(), minlength=m)
            if s in wanted:
                _sink_last(part)
                rows[s] = part.T
        return found, k, rows

    batch = tile_rows(m)
    while True:
        live = np.flatnonzero(unseen > 0)
        if live.size == 0:
            break
        if live.size > batch:
            live = np.sort(live[np.argsort(-unseen[live],
                                           kind="stable")[:batch]])
        rank[live] = np.arange(anchored, anchored + live.size)
        # within the block budget; on several workers two blocks each, so
        # one that finishes early takes another while the batch's last
        # blocks run
        workers = worker_count(threads, live.size)
        pieces = 1 if workers == 1 else 2 * workers
        nb = min(-(-live.size // pieces), block_rows(m * workers))
        blocks = [live[i:i + nb] for i in range(0, live.size, nb)]
        for found, k, parts in map_blocks(anchor_block, blocks, threads):
            for s, per in found.items():
                by_size[s] = per + by_size.get(s, 0)
                unseen -= (s - 1) * per
            secants.add(k, parts)
        # every line through an anchor is found by the end of its batch
        if unseen[live].any() or (unseen < 0).any():
            raise AssertionError("inconsistent anchor census counts")
        # a probe that left no pair unseen is a whole census, of any sizes
        if not anchored and unseen.any() and not _probe_passes(by_size):
            return None, live.size
        anchored += live.size
        batch = max(1, block_rows(m) // 2)
    collected, _ = secants.finish()
    for part in collected.values():
        _sort_rows(part, m)
    hist = {s: int(by_size[s].sum()) // s for s in sorted(by_size)}
    g = b.geometry
    _add_tangents(hist, m, space_size(fs.q, g.n - 1))
    n_sec = sum(by_size.values(), np.zeros(m, dtype=np.int64))
    return LineCensus(b, hist, n_sec, by_size, collected, threads, "anchor",
                      anchored), anchored


def line_census(b: PointSet, collect_sizes=(), mode: str = "auto",
                threads: int = 1) -> LineCensus:
    """Exact census of all lines meeting B, grouped around each point.

    ``collect_sizes`` lists intersection sizes whose secants should be
    returned as explicit (S, size) arrays of positions in B (16-bit
    positions up to 65,536 points, int32 above: ``position_dtype``; each
    secant reported once, one sorted row each, the rows ordered by their
    two lowest members).  The secants of the longest line size are
    always collected when that size is at least 3.  Three strategies:

    * ``"anchor"`` (modes ``"auto"`` and ``"full"``): the sets the
      checks are about have an exponent e, so every line meets them in
      1 mod p^e points: no line is a 2-secant, and each secant is found
      whole from any of its points.  So the census quotients all of B by
      a few anchors at a time, chosen greedily, and stops once every
      pair of B lies on a line found (``_anchor_census``): 623 anchors
      of 4,681 on a rank-5 linear set of PG(3, 2^12).  It collects any
      size, since no line shadows another, and counts every size per
      point.  Its first batch is a probe: if it keeps a 2-point line and
      leaves a pair unseen, the set is not of that kind, its work is
      discarded and one of the kernels below runs instead (``"pair"``
      for ``"auto"`` above ``_PAIR_MODE_THRESHOLD`` points, else
      ``"full"``).
    * ``"full"``: every point is grouped against all other points, so
      per-point tangent/secant counts come out directly.
    * ``"pair"``: each point is grouped only against higher-index points
      (half the work).  A line of size k then appears as one group of
      each size k-1, ..., 1, so the exact histogram follows from the
      telescoping identity N_k = c_{k-1} - c_k, where c_s counts groups
      of size s.  Explicit collection of size-s secants is only sound
      when no line is longer than s; otherwise this mode raises.  Per
      point counts exist when every secant size is collected.  Mode
      ``"pair"`` runs this kernel with no probe.

    Points are processed in blocks: the keys of a block (one per point
    pair, with the member's column in the low bits, see
    ``quotient_keys``) are sorted row by row, and each run of equal keys
    is one line through that row's point (``row_groups``).  In the
    kernels a secant is cut at its lowest member, so each block's secant
    rows start in its own points: the block sorts them by their two
    lowest members.  The anchor census cuts each line at its first
    anchor, builds its row sorted, and orders the rows once at the end,
    in place.  Keys too wide for one int64 with their column bits are
    grouped by ``np.lexsort`` instead, so every field up to 2^16 and
    every dimension whose point indices fit int64 has an exact path.
    ``threads`` workers census blocks at once (``map_blocks``); their
    counts and secant rows are merged in block order, whatever order the
    blocks finish in.

    Each collected size gets an array of the most secants of that size
    B can have, written as the blocks come in and trimmed in place
    (``_SecantRows``), so the secants are held once, beside one block's
    result.  When a longer line shows up in a later block, the shorter
    size's array is dropped whole unless that size was asked for.  The
    reservation takes m(m-1)/(s-1) positions of address space (0.4 GB at
    m = 20,000 and s = 3), but pages never written are never resident,
    and the trim returns the address space; a host that does not
    overcommit memory must have that much to spare.
    """
    g = b.geometry
    fs = g.fs
    m = b.card
    lines_through_point = space_size(fs.q, g.n - 1)
    collect_sizes = set(collect_sizes)
    if mode not in ("auto", "full", "pair"):
        raise ValueError(f"unknown census mode: {mode!r}")
    if m == 1:
        return LineCensus(b, {1: lines_through_point},
                          np.zeros(1, dtype=np.int64), {},
                          {s: np.zeros((0, s), dtype=position_dtype(1))
                           for s in collect_sizes}, threads,
                          "pair" if mode == "pair" else "full", 0)
    coords = b.coords()
    operands = kernel_operands(fs, coords)
    probed = 0
    if mode != "pair":
        census, probed = _anchor_census(b, coords, operands, collect_sizes,
                                        threads)
        if census is not None:
            return census
        if mode == "auto":
            mode = "pair" if m > _PAIR_MODE_THRESHOLD else "full"
    pair = mode == "pair"
    block_starts, bs, workers = split_blocks(m, m, threads)
    position = position_dtype(m)
    secants = _SecantRows(m, collect_sizes, count_points=pair)

    def census_block(i0):
        """The groups around the points i0..i1-1: pair mode, group size ->
        number of groups; full mode, line size -> lines per point of the
        block.  Also the block's longest line and, by size, its secant
        rows of that size and of the collected sizes."""
        i1 = min(i0 + bs, m)
        nb = i1 - i0
        j0 = i0 if pair else 0        # pair mode: only columns j >= i0
        # pair mode merges columns j <= i into each point's self-group, so
        # only j > i members are counted
        # the keys are let go once grouped: only their columns are kept
        starts, counts, gpos, own, cols = row_groups(
            *quotient_keys(fs, operands, coords[i0:i1, None, :], j0,
                           cols=True, merge_lower=pair), cols=True)
        real = ~own                              # drop each point's self-group
        gpos, counts, starts = gpos[real], counts[real], starts[real]
        if pair:
            per = np.bincount(counts)
            v = np.flatnonzero(per)
            sizes = dict(zip(v.tolist(), per[v].tolist()))
        else:
            # each k-line is seen from its k members
            sizes = {v: np.bincount(gpos[counts == v - 1], minlength=nb)
                     for v in (distinct(counts) + 1).tolist()}
        k = int(counts.max()) + 1 if counts.size else 0
        rows = {}
        for s in secants.wanted(k):
            gsel = np.flatnonzero(counts == s - 1)
            # a group's members come ascending (their columns are in the
            # sort key, and the sorts keep column order among equal keys)
            if not pair:
                # report each secant once, at its lowest member (in pair
                # mode every member is above the group's own point)
                gsel = gsel[cols[starts[gsel]] > gpos[gsel] + i0]
            if gsel.size == 0:
                continue
            # a block's element offsets fit int32
            offs = (starts[gsel].astype(np.int32)[:, None]
                    + np.arange(s - 1, dtype=np.int32))
            part = np.empty((gsel.size, s), dtype=position)
            part[:, 0] = i0 + gpos[gsel]
            part[:, 1:] = cols[offs]             # member positions
            part[:, 1:] += j0
            # each row's lowest member lies in this block, and two points
            # span one line, so the two lowest members order the rows
            rows[s] = part[np.argsort(part[:, 0].astype(np.int64) * m
                                      + part[:, 1])]
        return sizes, k, rows

    hist: dict = {}
    group_counts: dict = {}           # pair mode: group size -> #groups
    by_size: dict = {}
    # blocks hold ascending ranges of lowest members, so block order is
    # row order
    for i0, (sizes, k, rows) in zip(
            block_starts, map_blocks(census_block, block_starts, workers)):
        if pair:
            for v, c in sizes.items():
                group_counts[v] = group_counts.get(v, 0) + c
        else:
            for v, per in sizes.items():
                arr = by_size.setdefault(v, np.zeros(m, dtype=np.int64))
                arr[i0:i0 + per.size] = per
                hist[v] = hist.get(v, 0) + int(per.sum())
        secants.add(k, rows)
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
    else:
        # each secant of size k was counted k times
        hist = {s: c // s for s, c in hist.items()}
    _add_tangents(hist, m, lines_through_point)
    rows, counts = secants.finish()
    by_size.update(counts)
    n_sec = sum(by_size.values(), np.zeros(m, dtype=np.int64))
    if pair and not all(s in rows for s in hist if s >= 2):
        n_sec = None        # some secant is not on record
    return LineCensus(b, hist, n_sec, by_size, rows, threads, mode,
                      probed + m)
