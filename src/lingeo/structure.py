"""Structural analysis of small minimal blocking sets.

Everything here is an executable check: subline/subplane recognition,
the quantitative bounds on sizes and secant counts, the classification
of planes through secants, and the constructive linearity certifier
(lift the short secants through one anchor into the reduced space, span
them, and verify the resulting subspace reproduces the set exactly).
The checks read a census's short secants as rows of positions into B;
the batch subline test reads one affine coordinate per member, with the
scalar ``is_subline`` as its oracle.  It is the one subline test: the
certifier lifts the secants through its anchor that pass it, in one
batch.  The block plane census reads each secant from the lines through
its lowest member, which the census kernel's row of that member gives,
with the scalar ``plane_census`` as its oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .census import (LineCensus, kernel_operands, line_census, map_blocks,
                     pack_rows, position_dtype, quotient_keys, quotient_rows,
                     row_groups, scratch, split_blocks, tile_rows)
from .pg import PointSet, Subspace, distinct, span
from .reduction import SpreadContext


class StructureError(Exception):
    pass


class NotCollinear(StructureError):
    pass


class WrongSize(StructureError):
    pass


class NotPlanar(StructureError):
    pass


class NotASecant(StructureError):
    pass


class UnknownBound(StructureError):
    pass


class NoSecant(StructureError):
    pass


class NotSmallMinimal(StructureError):
    pass


# ---------------------------------------------------------------------------
# sublines


def _line_parameters(b: PointSet):
    """Each point of a collinear set as (a, b) w.r.t. the carrier's basis."""
    g = b.geometry
    coords = [tuple(int(x) for x in c) for c in b.coords()]
    carrier = span(g, coords)
    if carrier.dim != 1:
        raise NotCollinear(f"span has dimension {carrier.dim}")
    p0, p1 = carrier.pivots
    return [(c[p0], c[p1]) for c in coords], carrier


def _moebius_to_standard(fs, pts):
    """2x2 matrix sending pts[0], pts[1], pts[2] to (1:0), (0:1), (1:1)."""
    (a0, b0), (a1, b1), (a2, b2) = pts
    det = fs.sub(fs.mul(a0, b1), fs.mul(b0, a1))
    di = fs.inv(det)
    al = fs.mul(di, fs.sub(fs.mul(a2, b1), fs.mul(b2, a1)))
    be = fs.mul(di, fs.sub(fs.mul(a0, b2), fs.mul(b0, a2)))
    # columns of M^-1 are al*p0 and be*p1; invert the 2x2
    m00, m10 = fs.mul(al, a0), fs.mul(al, b0)
    m01, m11 = fs.mul(be, a1), fs.mul(be, b1)
    d2 = fs.sub(fs.mul(m00, m11), fs.mul(m01, m10))
    d2i = fs.inv(d2)
    return (
        (fs.mul(d2i, m11), fs.mul(d2i, fs.neg(m01))),
        (fs.mul(d2i, fs.neg(m10)), fs.mul(d2i, m00)),
    )


def is_subline(s: PointSet, e: int) -> bool:
    """True iff s is a subline PG(1, p^e) of its carrier line.

    The unique projectivity sending three points of s to infinity, 0, 1
    must map the rest into the subfield GF(p^e).
    """
    fs = s.geometry.fs
    if fs.t % e != 0:
        return False
    q0 = fs.p ** e
    if s.card != q0 + 1:
        raise WrongSize(f"expected {q0 + 1} points, got {s.card}")
    params, _ = _line_parameters(s)
    if q0 + 1 == 3:
        return True  # projectivities are 3-transitive
    m, sub = _moebius_to_standard(fs, params[:3]), fs.subfield(e)
    for a, b in params[3:]:
        na = fs.add(fs.mul(m[0][0], a), fs.mul(m[0][1], b))
        nb = fs.add(fs.mul(m[1][0], a), fs.mul(m[1][1], b))
        if nb == 0:
            return False
        if fs.div(na, nb) not in sub:
            return False
    return True


def _line_pivots(codes, leads, i, j):
    """The two pivot columns of the reduced bases of the lines through
    the points of B at positions i and j (arrays, or one of them a
    position), in increasing order.  ``codes`` and ``leads`` are B's
    (d, m) codes and its points' leading columns, as ``kernel_operands``
    gives them, or ``_affine_operands``.

    The first pivot is the lower of the two leading columns.  The second
    is the higher one, or, where they are equal, the first column where
    the two normalized points differ: the leading column of their
    difference, the line's one point that is 0 at the first pivot.
    """
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    li, lj = leads.take(i), leads.take(j)
    piv1 = np.maximum(li, lj)
    same = li == lj
    # last to first, so the first column that differs is kept
    for c in range(codes.shape[0] - 1, 0, -1):
        np.copyto(piv1, c, where=same & (codes[c].take(i) != codes[c].take(j)))
    return np.minimum(li, lj), piv1


def _line_bases(fs, operands, i, j):
    """Reduced bases of the lines through the points of B at positions i
    and j, i the lower of each pair (so it leads at the first pivot):
    (S, 2, d) rows with 1 at their own pivot (``_line_pivots``) and 0 at
    the other's.  ``operands`` is ``kernel_operands`` of B."""
    codes, _, leads = operands
    piv0, piv1 = _line_pivots(codes, leads, i, j)
    u, v = codes[:, i].T, codes[:, j].T
    # a normalized point is 1 at the first pivot, or 0 for the line's one
    # point off it, so v - a_v u is that point: an integer product
    r1 = fs.vsub(v, (leads[j] == piv0)[:, None] * u)
    rows = np.arange(r1.shape[0])
    r1 = fs.vmul(fs.vinv(r1[rows, piv1])[:, None], r1)
    r0 = fs.vsub(u, fs.vmul(u[rows, piv1][:, None], r1))
    return np.stack([r0, r1], axis=1)


def _affine_operands(b: PointSet):
    """B's (d, m) codes and its points' leading columns for
    ``sublines_pass_batch``, the codes with each point's leading entry,
    its 1, read as q: where that column is a line's second pivot, the
    point is the line's one point off the first, at infinity.  Taken once
    per check."""
    fs = b.geometry.fs
    codes, _, leads = kernel_operands(fs, b.coords())
    codes = codes.copy()
    codes[leads, np.arange(b.card)] = fs.q
    return codes, leads


@functools.lru_cache(maxsize=16)
def _subline_tables(fs, e: int):
    """The inverse of each code, 0 for 0; and whether a difference L of
    two zero-safe logs, read at L + ``fs.zero_log``, is the log
    difference of two nonzero elements whose ratio lies in GF(p^e)*: L
    divisible by (q-1)/(p^e-1).  Built once per field and read-only."""
    q, z = fs.q, fs.zero_log
    inv = np.zeros(q, dtype=np.int64)
    inv[1:] = fs.vinv(np.arange(1, q))
    diff = np.arange(-z, z + 1)
    step = (q - 1) // (fs.p ** e - 1)
    ratio = (np.abs(diff) <= q - 2) & (diff % step == 0)
    for table in (inv, ratio):
        table.flags.writeable = False
    return inv, ratio


def sublines_pass_batch(b: PointSet, rows, e: int,
                        operands=None) -> np.ndarray:
    """Vectorized is_subline over many same-size secants of B.

    ``rows`` is an (S, q0+1) array of positions into ``b.indices``, one
    secant per row, as ``LineCensus.secants`` holds them, its members in
    any order.  ``operands`` is ``_affine_operands(b)``, taken by the
    caller once for many calls, or here.  Returns a boolean verdict per
    secant.

    A normalized point of the line that is 1 at its first pivot
    (``_line_pivots``) is E + t O, t its entry at the second pivot and O
    the line's one point that is 0 at the first (t = infinity), so t is
    one gather of the codes.  The first member, t0, is sent to infinity
    by lambda = 1/(t - t0), which sends O to 0; a row whose first member
    is O has the next member sent there instead.  With lambda_1 and
    lambda_2 the next two members, the row is a subline exactly when
    every (lambda_k - lambda_1) / (lambda_2 - lambda_1), k >= 3, lies in
    GF(q0)*: a log difference divisible by (q-1)/(q0-1), read from a
    table.  A member costs one gather, two subtractions, one inverse and
    one log.  The entries are gathered member-major, (q0+1, S).
    """
    fs = b.geometry.fs
    codes, leads = _affine_operands(b) if operands is None else operands
    inv, ratio = _subline_tables(fs, e)
    rows = np.asarray(rows)
    _, piv1 = _line_pivots(codes, leads, rows[:, 0], rows[:, 1])
    # one flat gather; the positions are widened by the int64 offsets
    t = np.take(codes, rows.T + piv1 * codes.shape[1])
    # O takes the t of the member sent to infinity, so t - t0 is 0 and
    # its inverse 0: member 0's, or member 1's where O is member 0
    k, c = np.divmod(np.flatnonzero(t == fs.q), t.shape[1])
    t[k, c] = t[np.where(k, 0, 1), c]
    lam = inv.take(fs.vsub(t[1:], t[0]))
    del t
    lx = fs.vsubmul01_log0(lam[1:], 1, lam[0])
    lx[1:] -= lx[0] - fs.zero_log
    return ratio.take(lx[1:]).all(axis=0)


def _short_secants(b: PointSet, q0: int, census: LineCensus | None,
                   threads: int = 1):
    """``census`` with its (q0+1)-secants collected; without one, a single
    pass in mode "full", which can collect any size (an anchor census, or
    the full kernel when its probe falls back)."""
    if census is None:
        return line_census(b, collect_sizes=[q0 + 1], mode="full",
                           threads=threads)
    return census.with_secants(q0 + 1)


def check_sublines(b: PointSet, e: int, census: LineCensus | None = None,
                   threads: int = 1) -> dict:
    """Verify every (p^e+1)-secant of B is a subline; list violations.

    ``census`` is reused, its short secants collected at most once
    (``census.with_secants``).  The secants run in batches on ``threads``
    workers, sized under the census's block budget (``split_blocks``,
    ``map_blocks``), violations listed in secant order.
    """
    q0 = b.geometry.fs.p ** e
    secants = _short_secants(b, q0, census, threads).secants[q0 + 1]
    operands = _affine_operands(b)
    # a batch's temporaries (the gather's index and t, then t - t0 and
    # lambda, then lambda_k - lambda_1 and its logs) come to under 4 int64
    # per secant member at any time
    starts, bs, workers = split_blocks(secants.shape[0], 4 * (q0 + 1),
                                       threads)

    def bad_rows(lo):
        part = secants[lo:lo + bs]
        return part[~sublines_pass_batch(b, part, e, operands)]

    bad = map_blocks(bad_rows, starts, workers)
    violations = [tuple(row) for part in bad
                  for row in b.indices[part].tolist()]
    return {"checked": int(secants.shape[0]), "violations": violations}


def is_subplane(s: PointSet, q0: int) -> bool:
    """True iff s is a subplane of order q0 of its carrier plane.

    Read off one line census: every line meets s in 1 or q0+1 points and
    every (q0+1)-secant is a subline (``check_sublines``).  Then the
    q0^2+q0+1 points, every pair on exactly one (q0+1)-secant, form a
    symmetric 2-design, so any two of its secants meet inside s.
    """
    g = s.geometry
    fs = g.fs
    if s.card != q0 * q0 + q0 + 1:
        raise WrongSize(f"expected {q0 * q0 + q0 + 1} points, got {s.card}")
    coords = [tuple(int(x) for x in c) for c in s.coords()]
    if span(g, coords).dim != 2:
        raise NotPlanar("points do not span a plane")
    e = 1
    while fs.p ** e < q0:
        e += 1
    if fs.p ** e != q0 or fs.t % e != 0:
        return False
    census = line_census(s)
    if set(census.hist) - {1, q0 + 1}:
        return False
    return not check_sublines(s, e, census)["violations"]


# ---------------------------------------------------------------------------
# quantitative bounds


BOUND_FORMULAS = {
    "size": "q0^h + q0^(h-1) + q0^(h-2) + 3*q0^(h-3)",
    "secants_per_point": "q0^(h-1) - 4*q0^(h-2) + 1",
    "blokhuis_secants": "(q - kappa + 1)/p^eP + 1",
    "double_exponent_secants": "q0^(h-2) - q0^(h-3) - q0^(h-4) - 3*q0^(h-5) + 1",
    "plane_min": "q0^2 + q0 + 1",
    "plane_gap": "2*q0^2 + q0 + 1",
    "plane_cap": "q0^3 + q0^2 + q0 + 1",
    "good_planes": "q0^(h-2) - 4*q0^(h-3) + 1",
}

_MIN_H = {"size": 3, "secants_per_point": 2, "double_exponent_secants": 5,
          "good_planes": 3}


def bound_value(name: str, q0: int, h: int = 0, extra: dict | None = None):
    """Exact value of a named bound; (value, informational_flag).

    Below the bound's minimum h, terms with negative exponents are
    dropped and the result is flagged informational.
    """
    extra = extra or {}

    def terms(pairs):
        info = h < _MIN_H.get(name, 0)
        val = sum(c * q0 ** ex for c, ex in pairs if ex >= 0)
        return val, info

    if name == "size":
        return terms([(1, h), (1, h - 1), (1, h - 2), (3, h - 3)])
    if name == "secants_per_point":
        return terms([(1, h - 1), (-4, h - 2), (1, 0)])
    if name == "double_exponent_secants":
        return terms([(1, h - 2), (-1, h - 3), (-1, h - 4), (-3, h - 5), (1, 0)])
    if name == "good_planes":
        return terms([(1, h - 2), (-4, h - 3), (1, 0)])
    if name == "plane_min":
        return q0 * q0 + q0 + 1, False
    if name == "plane_gap":
        return 2 * q0 * q0 + q0 + 1, False
    if name == "plane_cap":
        return q0 ** 3 + q0 ** 2 + q0 + 1, False
    if name == "blokhuis_secants":
        from fractions import Fraction

        q, kappa, pe = extra["q"], extra["kappa"], extra["p_eP"]
        return Fraction(q - kappa + 1, pe) + 1, False
    raise UnknownBound(name)


# ---------------------------------------------------------------------------
# plane censuses


@dataclass
class PlaneCensus:
    """Planes through one secant that carry points of B off the secant."""

    secant: tuple
    planes: list          # list of (plane_key, size, good) triples
    good_count: int
    bad_count: int


def plane_census(b: PointSet, secant, q0: int) -> PlaneCensus:
    """Classify the planes through a (q0+1)-secant as good or bad.

    A good plane carries exactly q0^2+q0+1 points of B, not all
    collinear; planes whose B-part is the secant alone are not listed.
    """
    g = b.geometry
    fs = g.fs
    if g.n < 3:
        raise NotASecant("plane census needs ambient dimension >= 3")
    secant = tuple(int(i) for i in secant)
    if len(secant) != q0 + 1 or not all(i in b for i in secant):
        raise NotASecant("not a (q0+1)-secant of B")
    line = span(g, [g.coords_of(i) for i in secant[:2]])
    if line.dim != 1:
        raise NotASecant("secant points are not collinear")
    rest_idx = b.indices[~np.isin(b.indices, np.array(secant, dtype=np.int64))]
    if rest_idx.size == 0:
        return PlaneCensus(secant, [], 0, 0)
    red = quotient_rows(g, line.basis, g.coords_of_indices(rest_idx))
    keys = pack_rows(red, fs.q)
    if keys.ndim == 1:
        uniq, counts = np.unique(keys, return_counts=True)
    else:
        uniq, counts = np.unique(keys, axis=0, return_counts=True)
    planes = []
    target = q0 * q0 + q0 + 1
    good = bad = 0
    for key, cnt in zip(
            (uniq.tolist() if keys.ndim == 1 else map(tuple, uniq.tolist())),
            counts.tolist()):
        size = cnt + q0 + 1
        is_good = size == target  # off-line points make it non-collinear
        planes.append((key, size, is_good))
        good += is_good
        bad += not is_good
    return PlaneCensus(secant, planes, good, bad)


@dataclass
class PlaneData:
    """Plane census of many secants at once, one entry per secant row:
    its good plane count and its smallest plane size (0 when no plane
    through it holds a point of B off it), plus the distinct sizes of
    all these planes."""

    good: np.ndarray
    min_size: np.ndarray
    sizes: list


def _anchor_lines(b: PointSet, operands, anchors: np.ndarray, threads: int):
    """The lines through each anchor that meet B in 2 or more points.

    ``anchors`` are positions into B.  Returns two (len(anchors), width)
    arrays of positions (``position_dtype``: 16 bits up to 65,536 points,
    int32 above), width the most such lines through one anchor: row i
    holds one member other than ``anchors[i]`` of each line through it and
    that line's size less one, padded with the anchor itself at weight 0.

    They are the census kernel's rows: all of B is quotiented by each
    anchor, and each run of a row but the anchor's own is one line through
    it (``quotient_keys``, ``row_groups``), in blocks under the census's
    budget (``split_blocks``, ``map_blocks``).
    """
    fs = b.geometry.fs
    position = position_dtype(b.card)
    starts, bs, workers = split_blocks(anchors.size, b.card, threads)

    def block_lines(a0):
        """Per anchor of the block its line count, and its lines' first
        members and sizes less one, flat in row order."""
        rows = anchors[a0:a0 + bs]
        runs, counts, row, own, members = row_groups(
            *quotient_keys(fs, operands, b.coords()[rows, None, :],
                           cols=True), cols=True)
        lines = ~own
        return (np.bincount(row[lines], minlength=rows.size),
                members[runs[lines]], counts[lines].astype(position))

    # the width is known only once every block's rows are in, so the
    # unpadded parts are held until then: at most twice the result
    parts = list(map_blocks(block_lines, starts, workers))
    width = max(int(n.max()) for n, _, _ in parts)
    reps = np.repeat(anchors.astype(position)[:, None], width, axis=1)
    weights = np.zeros(reps.shape, dtype=position)
    for a0 in starts:
        n, first, size = parts.pop(0)       # let go once copied
        filled = np.arange(width) < n[:, None]
        reps[a0:a0 + n.size][filled] = first
        weights[a0:a0 + n.size][filled] = size
    return reps, weights


def plane_block_data(b: PointSet, secants, q0: int,
                     threads: int = 1) -> PlaneData:
    """``plane_census`` of every (q0+1)-secant in ``secants`` (an (S, q0+1)
    array of positions into B), as block kernels.  The members each
    kernel row quotients, and their weights, are held as positions
    (``position_dtype``: 16 bits up to 65,536 points, int32 above), as a
    census's secants are.

    Secant L is read from its first (lowest) member P: every point of B
    off L lies on one line M != L through P that meets B twice or more,
    so |plane ∩ B| = |L| + the sum of |M| - 1 over the M in the plane.
    One member of each such M (``_anchor_lines``) is quotiented by L
    (``quotient_keys`` with two-row bases and ``take``) and sorted within
    L's row, with its column; a run of equal keys is one plane and weighs
    the sum of its lines' |M| - 1.  L's own member and the padding make
    the dropped zero-image run.  A secant costs the lines through its
    anchor, not |B|.  The anchors' rows are built first, and then blocks
    of secants, both on ``threads`` workers (``census.map_blocks``).
    """
    fs = b.geometry.fs
    sec = np.asarray(secants).reshape(-1, q0 + 1)
    ns = sec.shape[0]
    good = np.zeros(ns, dtype=np.int64)
    min_size = np.zeros(ns, dtype=np.int64)
    sizes: set = set()
    if ns:
        operands = kernel_operands(fs, b.coords())
        anchors, aid = np.unique(sec[:, 0], return_inverse=True)
        reps, weights = _anchor_lines(b, operands, anchors, threads)
        width = reps.shape[1]
        target = q0 * q0 + q0 + 1
        block_starts, bs, workers = split_blocks(ns, width, threads)

        def plane_block(s0):
            """Fill the block's rows of good and min_size; its plane sizes."""
            s1 = min(s0 + bs, ns)
            at = aid[s0:s1]
            basis = _line_bases(fs, operands, sec[s0:s1, 0], sec[s0:s1, 1])
            starts, _counts, row, own, members = row_groups(
                *quotient_keys(fs, operands, basis, cols=True,
                               take=reps[at]), cols=True)
            # each member's weight, in flat gathers of a row tile at a
            # time whose index sits in this thread's buffer (``scratch``),
            # into the columns' own array when it has the weights' type (a
            # tile's index is built before its columns are overwritten);
            # the sums stay int32 (at most |B|), so the weights get no
            # int64 copy
            got = (members if members.dtype == weights.dtype
                   else np.empty(members.shape, dtype=weights.dtype))
            step = tile_rows(width)
            for r0 in range(0, s1 - s0, step):
                r1 = min(r0 + step, s1 - s0)
                idx = scratch("index", (r1 - r0, width))
                np.add((at[r0:r1] * width)[:, None],
                       members[r0 * width:r1 * width].reshape(-1, width),
                       out=idx)
                np.take(weights, idx, mode="clip",
                        out=got[r0 * width:r1 * width].reshape(-1, width))
            del members
            off = np.add.reduceat(got, starts, dtype=np.int32)
            row, size = row[~own], off[~own] + q0 + 1
            # off-line points make a plane non-collinear, so size decides
            good[s0:s1] = np.bincount(row[size == target], minlength=s1 - s0)
            if not row.size:
                return []
            # runs come in row order: each row's first run opens its segment
            first = np.flatnonzero(np.diff(row, prepend=-1))
            min_size[s0 + row[first]] = np.minimum.reduceat(size, first)
            return distinct(size).tolist()

        for part in map_blocks(plane_block, block_starts, workers):
            sizes.update(part)
    return PlaneData(good, min_size, sorted(sizes))


def distinct_plane_sizes(b: PointSet, secants) -> dict:
    """Map canonical plane -> |B ∩ plane| over all planes through the secants."""
    g = b.geometry
    out: dict = {}
    for sec in secants:
        line = span(g, [g.coords_of(int(sec[0])), g.coords_of(int(sec[1]))])
        pc = plane_census(b, sec, len(sec) - 1)
        for key, size, _good in pc.planes:
            # resolve the quotient key back to a canonical plane basis
            out_key = _plane_canonical(b, line, key)
            out[out_key] = size
    return out


def _plane_canonical(b: PointSet, line: Subspace, key):
    g = b.geometry
    fs = g.fs
    # unpack quotient key to quotient coords, then to a representative point
    w = max(1, int(fs.q - 1).bit_length())
    ncols = (g.n + 1) - 2
    if isinstance(key, tuple):
        qc = list(key)
    else:
        qc = []
        k = int(key)
        for _ in range(ncols):
            qc.append(k & ((1 << w) - 1))
            k >>= w
        qc.reverse()
    # insert zeros at the line's pivot positions
    full = []
    it = iter(qc)
    for j in range(g.n + 1):
        full.append(0 if j in line.pivots else next(it))
    plane = span(g, list(line.basis) + [tuple(full)])
    return plane.basis


# ---------------------------------------------------------------------------
# lemma suite


def _entry(check, bound, measured, status, note=""):
    d = {"check": check, "formula": BOUND_FORMULAS.get(check, ""),
         "bound": str(bound), "measured": str(measured), "status": status}
    if note:
        d["note"] = note
    return d


def run_lemma_suite(b: PointSet, report, census: LineCensus | None = None,
                    plane_secant_cap: int | None = None,
                    threads: int = 1) -> list:
    """Run every quantitative check against B and its blocking report.

    ``report`` is a blocking_core BlockingReport.  Checks that need the
    small-minimal hypothesis run INFORMATIONAL when it is not
    established.  ``census`` is reused, its short secants collected at
    most once (``census.with_secants``).  ``plane_secant_cap`` bounds
    (deterministically, lowest secants first) how many secants get their
    one plane census, which feeds every plane check; None means all.
    ``threads`` workers run the plane blocks (``plane_block_data``),
    which read each secant from the lines through its lowest member, not
    from all of B.
    """
    g = b.geometry
    fs = g.fs
    q = fs.q
    q0, h = report.q0, report.h
    entries = []
    hyp_ok = bool(report.is_blocking and report.is_minimal and report.is_small)
    applic = "PASS" if hyp_ok else "INFORMATIONAL"

    def status(ok, informational=False):
        if informational or not hyp_ok:
            return "INFORMATIONAL"
        return "PASS" if ok else "FAIL"

    if h is None:
        return [_entry("size", "-", b.card, "INFORMATIONAL",
                       "exponent does not divide the field degree")]
    census = _short_secants(b, q0, census, threads)

    # size upper bound
    bound, info = bound_value("size", q0, h)
    entries.append(_entry("size", bound, b.card,
                          status(b.card <= bound, info or q0 < 7)))

    # short-secant count per point, on points that lie on at least one
    bound, info = bound_value("secants_per_point", q0, h)
    per_pt = census.per_point_by_size.get(q0 + 1)
    if per_pt is None:
        entries.append(_entry("secants_per_point", bound, 0, "INFORMATIONAL",
                              "no short secants"))
    else:
        relevant = per_pt[per_pt > 0]
        measured = int(relevant.min()) if relevant.size else 0
        entries.append(_entry("secants_per_point", bound, measured,
                              status(measured >= bound, info or q0 < 7)))

    # total secants per point, plane case only, using kappa and e_P
    if g.n == 2 and report.point_exponents is not None:
        kappa = b.card - q
        sec_per_point = census.per_point_secants
        worst_ok = True
        worst = None
        for pos, e_p in enumerate(report.point_exponents):
            bnd, _ = bound_value("blokhuis_secants", q0,
                                 extra={"q": q, "kappa": kappa,
                                        "p_eP": fs.p ** e_p})
            if sec_per_point[pos] < bnd:
                worst_ok = False
            if worst is None or sec_per_point[pos] - bnd < worst[0]:
                worst = (sec_per_point[pos] - bnd, int(sec_per_point[pos]), bnd)
        # a point of a line (h = 1) lies on one secant, the line itself;
        # the bound does not cover that trivial case
        entries.append(_entry("blokhuis_secants", worst[2] if worst else "-",
                              worst[1] if worst else "-",
                              status(worst_ok, h < 2)))
        # points with doubled exponent
        bound, info = bound_value("double_exponent_secants", q0, h)
        doubled = [pos for pos, e_p in enumerate(report.point_exponents)
                   if e_p == 2 * report.exponent_e]
        if doubled:
            measured = int(min(sec_per_point[pos] for pos in doubled))
            entries.append(_entry("double_exponent_secants", bound, measured,
                                  status(measured >= bound, info or q0 < 7)))
        else:
            entries.append(_entry("double_exponent_secants", bound, "-",
                                  "INFORMATIONAL", "no point has exponent 2e"))

    # plane checks: one block plane census over the secants, from the
    # lines through each secant's lowest member.  A plane has
    # the same |B ∩ plane| from every secant in it, and the size checks
    # need only min, max and the gap, so distinct sizes suffice.
    if g.n == 2:
        plane_sizes = {b.card}
    else:
        secants = census.secants[q0 + 1]
        capped = plane_secant_cap is not None and len(secants) > plane_secant_cap
        if plane_secant_cap is not None:
            secants = secants[:plane_secant_cap]
        bound, info = bound_value("good_planes", q0, h)
        planes = plane_block_data(b, secants, q0, threads)
        plane_sizes = set(planes.sizes)
        all_bad = planes.good == 0
        # latter case: all listed planes carry many points off the line
        dichotomy_ok = not (
            np.any(all_bad & (planes.min_size > 0)
                   & (planes.min_size < q0 ** 3 + q0 + 1))
            or np.any(planes.good[~all_bad] < bound))
        worst_good = (int(planes.good[~all_bad].min())
                      if np.any(~all_bad) else None)
        all_bad_per_point = np.bincount(secants[all_bad].ravel(),
                                        minlength=b.card)

    if plane_sizes:
        pm, _ = bound_value("plane_min", q0)
        pgap, _ = bound_value("plane_gap", q0)
        pcap, _ = bound_value("plane_cap", q0)
        lo, hi = min(plane_sizes), max(plane_sizes)
        # the plane dichotomy needs a proper subfield (h >= 2)
        trivial_subfield = h < 2
        entries.append(_entry("plane_min", pm, lo,
                              status(lo >= pm, trivial_subfield)))
        gap_ok = all(not (pm < s < pgap) for s in plane_sizes)
        entries.append(_entry("plane_gap", pgap,
                              hi, status(gap_ok, trivial_subfield)))
        spanning = report.span_dim == h - 1
        entries.append(_entry("plane_cap", pcap, hi,
                              status(hi <= pcap, trivial_subfield)
                              if spanning else "OUTSIDE_HYPOTHESES",
                              "" if spanning else
                              "set does not span an (h-1)-space"))

    # good-plane dichotomy and the at-most-one-all-bad-secant check
    if g.n >= 3:
        note = "secant sample capped" if capped else ""
        entries.append(_entry("good_planes", bound,
                              worst_good if worst_good is not None else "-",
                              status(dichotomy_ok, info or q0 < 7), note))
        most_bad = int(all_bad_per_point.max(initial=0))
        entries.append(_entry("one_all_bad_secant", 1, most_bad,
                              status(most_bad <= 1), note))
    return entries


# ---------------------------------------------------------------------------
# linearity certification


@dataclass
class LinearityCertificate:
    anchor_index: int
    x_coords: tuple
    lifted_lines: np.ndarray    # (L, 2, h(n+1)) reduced bases of lifted lines
    skipped: np.ndarray         # (K, q0+1) point indices of non-sublines
    xi: Subspace | None
    xi_dim: int
    verified: bool
    hypothesis_labels: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "anchor_index": int(self.anchor_index),
            "x": [int(c) for c in self.x_coords],
            "lifted": len(self.lifted_lines),
            "skipped": len(self.skipped),
            "xi_dim": int(self.xi_dim),
            "xi_basis": [[int(c) for c in row] for row in self.xi.basis]
            if self.xi is not None else None,
            "verified": bool(self.verified),
            "hypotheses": self.hypothesis_labels,
        }


def check_span_hypotheses(p: int, q0: int, h: int, span_dim: int) -> dict:
    """Labels for the main-theorem hypotheses; checks still run outside them.

    The theorem covers a small minimal blocking set with exponent e in
    PG(n, p^t), p prime, that spans an (h-1)-space, h = t/e, when
    p > 5h - 11; ``inside`` is exactly these two conditions.  The other
    two labels are not hypotheses of the theorem and stay out of
    ``inside``: ``q0_ge_7`` is the range in which ``run_lemma_suite``
    enforces its quantitative bounds (below it they read INFORMATIONAL),
    and ``h_gt_3`` marks h >= 4, past the planar cases h = 2 (Baer
    subplanes) and h = 3 that were settled before this theorem.
    """
    p_ok = p > 5 * h - 11
    spans = span_dim == h - 1
    return {
        "h_gt_3": h > 3,
        "p_gt_5h_minus_11": p_ok,
        "q0_ge_7": q0 >= 7,
        "spans_h_minus_1": spans,
        "inside": p_ok and spans,
    }


_MAX_ANCHORS = 5            # anchor points tried, lowest position first
_MAX_X_PER_ANCHOR = 3       # reduced points tried per anchor


def certify_linearity(b: PointSet, report,
                      census: LineCensus | None = None) -> LinearityCertificate:
    """Rediscover B as a linear set B(xi) by lifting secant sublines.

    Anchors (a point P of B on a short secant, then a reduced point x of
    its spread element) are tried lowest-index-first, so runs are
    reproducible bit for bit.  The secants through P are the census's
    (q0+1)-secant rows that hold its position; those that pass
    ``sublines_pass_batch`` are lifted and the rest skipped, since only a
    subline is the image of a reduced line.  With x = eps(v) and Q1, Q2
    the next two members (coordinates w1, w2), the lifted line is
    <eps(v), eps(mu w1)>, where w2 = a v + b w1 by Cramer's rule on the
    line's two pivot columns and mu = b / a.  xi is the span of every
    lifted line, and B = B(xi) is checked exactly.  ``census`` is reused,
    its short secants collected at most once (``census.with_secants``).
    """
    g = b.geometry
    fs = g.fs
    if not (report.is_blocking and report.is_minimal and report.is_small):
        raise NotSmallMinimal("certification needs a small minimal blocking set")
    if report.h is None:
        raise NotSmallMinimal("exponent does not divide the field degree")
    e, q0, h = report.exponent_e, report.q0, report.h
    census = _short_secants(b, q0, census)
    secants = census.secants[q0 + 1]
    per_pt = census.per_point_by_size.get(q0 + 1)
    if per_pt is None or not np.any(per_pt > 0):
        raise NoSecant(f"no ({q0 + 1})-secant exists")
    labels = check_span_hypotheses(fs.p, q0, h, report.span_dim)
    ctx = SpreadContext(g, e)
    coords = b.coords()
    operands = _affine_operands(b)
    # the certificate when no anchor has a subline to lift
    last = LinearityCertificate(
        -1, (), np.empty((0, 2, ctx.reduced.n + 1), dtype=np.int64),
        np.empty((0, q0 + 1), dtype=np.int64), None, -1, False, labels)
    for pos in np.flatnonzero(per_pt > 0)[:_MAX_ANCHORS].tolist():
        through = secants[np.any(secants == pos, axis=1)]
        ok = sublines_pass_batch(b, through, e, operands)
        if not ok.any():
            continue
        skipped = b.indices[through[~ok]]
        passing = through[ok]
        others = passing[passing != pos].reshape(-1, q0)
        w1, w2 = coords[others[:, 0]], coords[others[:, 1]]
        i, j = _line_pivots(*operands, pos, others[:, 0])
        rows = np.arange(w1.shape[0])
        w1i, w1j, w2i, w2j = w1[rows, i], w1[rows, j], w2[rows, i], w2[rows, j]
        den = fs.vinv(fs.vsub(fs.vmul(w2i, w1j), fs.vmul(w2j, w1i)))
        spread_pts = ctx.spread_element(coords[pos]).coords_array()
        for x in spread_pts[:_MAX_X_PER_ANCHOR]:
            v = ctx.eps_inv_rows(x[None, :])[0]
            # w2 = a v + b w1 by Cramer's rule on columns i, j; mu = b / a
            mu = fs.vmul(fs.vsub(fs.vmul(v[i], w2j), fs.vmul(v[j], w2i)), den)
            ys = ctx.eps_rows(fs.vmul(mu[:, None], w1))
            lifted = np.stack([np.broadcast_to(x, ys.shape), ys], axis=1)
            xi = Subspace(ctx.reduced, np.vstack([x, ys]).tolist())
            verified = xi.dim == h and ctx.linear_set_from_subspace(xi) == b
            cert = LinearityCertificate(int(b.indices[pos]),
                                        tuple(x.tolist()), lifted, skipped,
                                        xi, xi.dim, verified, labels)
            if verified:
                return cert
            last = cert
    return last
