"""Blocking-set predicates: blocking, minimal, small, exponents, projection.

Every hyperplane answer is read off one point-hyperplane incidence,
``hyperplane_incidence``: the hyperplanes through each point of B, from
the closed-form basis of the duals through that point.  With |H ∩ B|
at each entry (``_hyperplane_profile``):

* B is blocking when every hyperplane index occurs; the first gap in the
  sorted indices is the lowest unblocked hyperplane;
* a point's tangent hyperplanes are its entries of size 1.  B is minimal
  when every point has one, and the lowest is the point's witness;
* the exponent e is read off the sizes.

This ``cover`` strategy needs |B| * (hyperplanes through a point) to stay
below ``_COVER_LIMIT``.  Beyond it (``structural``) minimality rests on
a seeded search for a tangent hyperplane per point
(``randomized_tangent_witnesses``): found witnesses are exact proofs,
and the method never certifies a false positive.

The line-based exponent is always computed alongside as a cross-check,
and is the only one available when the hyperplane family is out of
reach.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .census import (LineCensus, block_rows, free_columns, kernel_operands,
                     line_census, quotient_keys, row_groups, tile_rows)
from .pg import (Geometry, GeometryError, PointSet, Subspace, distinct,
                 lex_points, normalize_rows, space_size)

_COVER_LIMIT = 50_000_000
_WITNESS_TRIALS = 400


class BlockingError(Exception):
    pass


class NotBlocking(BlockingError):
    pass


class QInB(BlockingError):
    pass


class QInH(BlockingError):
    pass


class HyperplaneFamilyTooLarge(BlockingError):
    pass


@dataclass
class BlockingReport:
    size: int
    kappa: int
    is_blocking: bool
    is_minimal: bool
    is_small: bool
    exponent_e: int | None
    exponent_e_lines: int | None
    q0: int | None
    h: int | None
    h_integral: bool
    span_dim: int
    point_exponents: list | None = None
    strategy: str = ""
    witnesses: dict = field(default_factory=dict)

    def to_json(self) -> str:
        d = {k: getattr(self, k) for k in (
            "size", "kappa", "is_blocking", "is_minimal", "is_small",
            "exponent_e", "exponent_e_lines", "q0", "h", "h_integral",
            "span_dim", "strategy")}
        d["point_exponents"] = self.point_exponents
        d["witnesses"] = self.witnesses
        return json.dumps(d, sort_keys=True)


# ---------------------------------------------------------------------------
# hyperplane machinery


def _duals_through(fs, coef: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Hyperplane duals through normalized points, one per coefficient row.

    The duals through a point P with pivot column ``piv`` (P[piv] = 1)
    have the closed-form basis e_f - P_f e_piv, f != piv: coefficients c
    give the dual with c_f at each f and -sum_f c_f P_f at ``piv``.
    ``coef`` (..., n) and ``points`` (..., n+1) broadcast over their
    leading axes: one point per coefficient row, one point for all rows,
    or a block of points (nb, 1, n+1) against shared rows (k, n), which
    gives (nb, k, n+1).  Each point's columns are found once, however
    many rows share it.  The duals come unnormalized.
    """
    nf = coef.shape[-1]
    piv = np.argmax(points != 0, axis=-1)
    free = free_columns(piv.reshape(-1, 1), nf + 1).reshape(piv.shape + (nf,))
    prods = fs.vmul(coef, np.take_along_axis(points, free, axis=-1))
    at_piv = prods[..., 0]
    for f in range(1, nf):
        at_piv = fs.vadd(at_piv, prods[..., f])
    neg = fs.vneg(at_piv)
    duals = np.empty(neg.shape + (nf + 1,), dtype=np.int64)
    for j in range(nf + 1):
        # column j holds c_j left of the pivot and c_(j-1) right of it
        c = np.where(j < piv, coef[..., min(j, nf - 1)],
                     coef[..., max(j - 1, 0)])
        duals[..., j] = np.where(j == piv, neg, c)
    return duals


def hyperplane_incidence(g: Geometry, coords: np.ndarray) -> np.ndarray:
    """(m, k) indices of the k hyperplanes through each of m normalized
    points ``coords``: row i lists the duals through point i once each,
    the points of PG(n-1, q) as coefficients on their closed-form basis
    (``_duals_through``).  Blocks of points (``block_rows`` of their k
    duals) take one ``_duals_through`` and one ``index_of_rows`` each."""
    coef = lex_points(g.n - 1, g.fs.q)
    k, d = coef.shape[0], g.n + 1
    out = np.empty((len(coords), k), dtype=np.int64)
    step = block_rows(k * d)
    for i0 in range(0, len(coords), step):
        duals = _duals_through(g.fs, coef, coords[i0:i0 + step, None, :])
        out[i0:i0 + step] = g.index_of_rows(
            duals.reshape(-1, d)).reshape(-1, k)
    return out


def _hyperplane_profile(b: PointSet):
    """(incidence, sizes, met, counts): B's ``hyperplane_incidence`` with
    |H ∩ B| at each of its entries, and every hyperplane meeting B,
    sorted, with its |H ∩ B|."""
    g = b.geometry
    per_point = space_size(g.fs.q, g.n - 1)
    if b.card * per_point > _COVER_LIMIT:
        raise HyperplaneFamilyTooLarge(
            f"{b.card} x {per_point} dual enumerations needed")
    inc = hyperplane_incidence(g, b.coords())
    # the runs of a sorted copy, and each entry's run by searchsorted, a
    # block of rows at a time (np.unique's inverse holds several times the
    # incidence); the block's entries go in sorted, where searchsorted is
    # many times faster than on scattered keys
    flat = np.sort(inc, axis=None)
    edge = np.ones(flat.size + 1, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=edge[1:-1])
    met = flat[edge[:-1]]
    del flat
    counts = np.diff(np.flatnonzero(edge))
    sizes = np.empty_like(inc)
    step = block_rows(inc.shape[1])
    for i0 in range(0, len(inc), step):
        part = inc[i0:i0 + step].ravel()
        order = np.argsort(part)
        sizes[i0:i0 + step].ravel()[order] = counts[
            np.searchsorted(met, part[order])]
    return inc, sizes, met, counts


def _first_unblocked(g: Geometry, met: np.ndarray):
    """(verdict, witness): whether the sorted ``met`` holds every
    hyperplane index, else its first gap, the lowest unblocked one."""
    gaps = np.flatnonzero(met != np.arange(met.size))
    first = int(gaps[0]) if gaps.size else met.size
    return (True, None) if first == g.num_hyperplanes else (False, first)


def is_blocking(b: PointSet):
    """(verdict, witness): witness is the lowest unblocked hyperplane
    index, or None."""
    return _first_unblocked(b.geometry, _hyperplane_profile(b)[2])


def tangent_counts(b: PointSet) -> np.ndarray:
    """Tangent-hyperplane count for every member of B, in position order."""
    return np.count_nonzero(_hyperplane_profile(b)[1] == 1, axis=1)


def randomized_tangent_witnesses(b: PointSet, seed: int = 0):
    """Seeded search for a tangent hyperplane at every point of B, for
    geometries whose dual family is too large to enumerate.

    Candidates are drawn on the closed-form basis of the duals through
    each point (``_duals_through``).  The search runs in rounds.  Each
    round makes one seeded draw
    ``rng.integers(0, q, (pending, n))``, a coefficient row for every
    point still without a witness, in point order (an all-zero row is a
    spent trial), and evaluates all the candidate duals on all of B, in
    cache-sized (candidate, point) blocks against B's coordinates, whose
    logs are taken once.  A candidate is a witness when P is the only
    point of B on it, so every witness returned is exact; a point still
    without one after ``_WITNESS_TRIALS`` rounds proves nothing.  Reports
    record only ``all_found``, never the witnesses, so the draw order
    (not that of a point-by-point search) does not reach them.

    Returns (witness dual per member index, all_found).
    """
    fs = b.geometry.fs
    rng = np.random.default_rng(seed)
    coords = b.coords()
    m, d = coords.shape
    log_b = fs.vlog0(coords.T)                             # (d, m)
    bs = tile_rows(m)
    witnesses = {}
    pending = np.arange(m)
    for _ in range(_WITNESS_TRIALS):
        if pending.size == 0:
            break
        coef = rng.integers(0, fs.q, (pending.size, d - 1))
        live = coef.any(axis=1)
        pts, coef = pending[live], coef[live]
        duals = _duals_through(fs, coef, coords[pts])
        log_d = fs.vlog0(duals)
        tangent = np.zeros(pts.size, dtype=bool)
        for c0 in range(0, pts.size, bs):
            c1 = min(c0 + bs, pts.size)
            vals = fs.vexp0(log_d[c0:c1, :1] + log_b[0])
            for k in range(1, d):
                vals = fs.vadd(vals, fs.vexp0(log_d[c0:c1, k:k + 1] + log_b[k]))
            tangent[c0:c1] = np.count_nonzero(vals == 0, axis=1) == 1
        for i in np.flatnonzero(tangent):
            witnesses[int(b.indices[pts[i]])] = tuple(int(x) for x in duals[i])
        done = np.zeros(m, dtype=bool)
        done[pts[tangent]] = True
        pending = pending[~done[pending]]
    return dict(sorted(witnesses.items())), pending.size == 0


def is_minimal(b: PointSet):
    """(verdict, witnesses): per point its lowest tangent hyperplane, or
    the points without one."""
    g = b.geometry
    inc, sizes, met, _ = _hyperplane_profile(b)
    blocking, w = _first_unblocked(g, met)
    if not blocking:
        raise NotBlocking(f"unblocked hyperplane {w}")
    tangent = sizes == 1
    bad = np.flatnonzero(~tangent.any(axis=1))
    if bad.size:
        return False, {"inessential": [int(b.indices[i]) for i in bad]}
    lowest = np.where(tangent, inc, g.num_hyperplanes).min(axis=1)
    return True, {"tangents": dict(zip(b.indices.tolist(), lowest.tolist()))}


def _exponent_from_sizes(sizes, p: int, t: int):
    g = 0
    for s in sizes:
        g = math.gcd(g, int(s) - 1)
        if g == 1:
            return 0
    e = 0
    while g % p == 0 and e < t:
        g //= p
        e += 1
    return e


def _exponent_from_line_sizes(sizes, p: int, t: int):
    """Exponent from the sizes of lines meeting B (or a point of it).

    With no secant among them every size is 1 and no subfield is singled
    out, so the exponent is 0, as for coprime sizes.  (Hyperplane sizes
    all 1 are another matter: the line PG(1, q) itself has exponent t.)
    """
    if all(int(s) < 2 for s in sizes):
        return 0
    return _exponent_from_sizes(sizes, p, t)


def exponent(b: PointSet):
    """(e, q0, h, h_integral) from hyperplane intersections.

    Raises HyperplaneFamilyTooLarge when the dual family cannot be
    enumerated; use ``exponent_from_lines`` then.
    """
    g = b.geometry
    _, _, met, counts = _hyperplane_profile(b)
    if met.size != g.num_hyperplanes:
        raise NotBlocking("set does not block every hyperplane")
    return _exponent_from_profile(g.fs, counts)


def _exponent_from_profile(fs, counts: np.ndarray):
    return _exponent_tuple(_exponent_from_sizes(distinct(counts), fs.p, fs.t),
                           fs)


def exponent_from_lines(b: PointSet, census: LineCensus | None = None):
    if census is None:
        census = line_census(b)
    fs = b.geometry.fs
    sizes = [s for s in census.hist if s >= 1]
    e = _exponent_from_line_sizes(sizes, fs.p, fs.t)
    return _exponent_tuple(e, fs)


def _exponent_tuple(e, fs):
    if e == 0:
        return 0, None, None, False
    q0 = fs.p ** e
    integral = fs.t % e == 0
    return e, q0, (fs.t // e if integral else None), integral


def all_point_exponents(b: PointSet, census: LineCensus) -> list:
    """e_P of every point of B, in position order: the largest e with every
    line through P meeting B in 1 mod p^e (0 when no secant passes
    through P).

    The sizes of the secants through P are those with a nonzero count at
    P in ``census.per_point_by_size``.  A census without per-point
    counts (the pair kernel with a size left uncollected) is replaced by
    one census in mode "full", which counts every size per point.
    """
    if census.per_point_secants is None:
        census = line_census(b, mode="full")
    fs = b.geometry.fs
    by_size = census.per_point_by_size.items()
    return [_exponent_from_line_sizes([s for s, n in by_size if n[pos]],
                                      fs.p, fs.t)
            for pos in range(b.card)]


# ---------------------------------------------------------------------------


def analyze(b: PointSet, assume_blocking: bool | None = None,
            with_point_exponents: bool = False, seed: int = 0,
            census: LineCensus | None = None) -> BlockingReport:
    """Full BlockingReport for B, choosing feasible strategies.

    ``assume_blocking=True`` records a construction-certified blocking
    property when the hyperplane family is too large to enumerate.
    """
    g = b.geometry
    fs = g.fs
    if census is None:
        census = line_census(b)
    size = b.card
    small = size < 3 * (fs.q + 1) / 2
    span_dim = b.span_dim()
    line_exponent = exponent_from_lines(b, census)
    e_lines = line_exponent[0]
    witnesses: dict = {}
    try:
        _, sizes, met, counts = _hyperplane_profile(b)
    except HyperplaneFamilyTooLarge:
        strategy = "structural"
        blocking = bool(assume_blocking)
        if assume_blocking:
            witnesses["blocking_certificate"] = "construction"
        e, q0, h, integral = line_exponent
        # minimality presupposes blocking: search witnesses only then
        minimal = blocking and randomized_tangent_witnesses(b, seed=seed)[1]
        witnesses["minimality_method"] = "randomized-witness"
    else:
        strategy = "cover"
        blocking, w = _first_unblocked(g, met)
        if w is not None:
            witnesses["unblocked_hyperplane"] = w
        if blocking:
            e, q0, h, integral = _exponent_from_profile(fs, counts)
            bad = np.flatnonzero(~np.any(sizes == 1, axis=1))
            minimal = not bad.size
            if not minimal:
                witnesses["inessential"] = [int(b.indices[i]) for i in bad]
        else:
            e = q0 = h = None
            integral = False
            minimal = False
    pexp = all_point_exponents(b, census) if with_point_exponents else None
    return BlockingReport(
        size=size, kappa=size - fs.q, is_blocking=blocking,
        is_minimal=minimal, is_small=bool(small), exponent_e=e,
        exponent_e_lines=e_lines, q0=q0, h=h, h_integral=integral,
        span_dim=span_dim, point_exponents=pexp, strategy=strategy,
        witnesses=witnesses)


def minimal_blocking_report(b: PointSet, hyperplane_sizes,
                            line_sizes) -> BlockingReport:
    """The report ``analyze`` gives B, for B known to be a minimal blocking
    set, from |H ∩ B| of every hyperplane H and the sizes of the lines
    meeting B, with no census or hyperplane profile of its own.

    The exponents follow the rules ``analyze`` applies to the same sizes.
    The hyperplanes containing B are those of size |B|: through a subspace
    of dimension d pass 1 + q + ... + q^(n-d-1) of them, which gives the
    span.  ``search`` holds these sizes as bitmask popcounts.
    """
    g = b.geometry
    fs = g.fs
    size = b.card
    e, q0, h, integral = _exponent_from_profile(fs, hyperplane_sizes)
    containing = sum(s == size for s in hyperplane_sizes)
    span_dim, through = g.n, 1
    while containing > 0:
        containing -= through
        through *= fs.q
        span_dim -= 1
    return BlockingReport(
        size=size, kappa=size - fs.q, is_blocking=True, is_minimal=True,
        is_small=size < 3 * (fs.q + 1) / 2, exponent_e=e,
        exponent_e_lines=_exponent_from_line_sizes(line_sizes, fs.p, fs.t),
        q0=q0, h=h, h_integral=integral, span_dim=span_dim, strategy="cover")


# ---------------------------------------------------------------------------
# projection


def project(b: PointSet, q_coords, h: Subspace):
    """Project B from a point onto a hyperplane, re-coordinatized to PG(n-1,q).

    Returns (image PointSet, image Geometry).
    """
    g = b.geometry
    fs = g.fs
    qc = g.normalize(q_coords)
    if g.index_of(qc) in b:
        raise QInB("projection center lies in the set")
    if h.dim != g.n - 1:
        raise GeometryError("projection target must be a hyperplane")
    if h.contains_coords(qc):
        raise QInH("projection center lies in the target hyperplane")
    dual = np.array(g.dual_of_hyperplane(h), dtype=np.int64)
    coords = b.coords()
    qv = np.array(qc, dtype=np.int64)
    dq = fs.vmatmul(qv, dual)
    dp = fs.vmatmul(coords, dual)
    # image point = (dual.P) Q - (dual.Q) P, which lies on QP and on H
    img = fs.vsub(fs.vmul(dp[:, None], qv[None, :]), fs.vmul(dq, coords))
    # points of B already on H project to themselves (dp == 0 gives -dq * P)
    img = normalize_rows(fs, img)
    # re-coordinatize: coefficients w.r.t. the RREF basis of H live at pivots
    small = Geometry(g.n - 1, fs)
    reco = img[:, list(h.pivots)]
    return PointSet(small, small.index_of_rows(reco)), small


def find_tangent_only_point(b: PointSet):
    """First point (in index order) off B lying only on tangent lines.

    A block of candidate points off B is a block of one-row bases for the
    census kernel (``quotient_keys``): a candidate is tangent-only exactly
    when B's images in its quotient are all distinct, that is, when its
    row splits into |B| runs.  Blocks double from one candidate, so an
    early hit stays cheap, up to the kernel's block size.
    """
    g = b.geometry
    fs = g.fs
    operands = kernel_operands(fs, b.coords())
    most = block_rows(b.card)
    start, size = 0, 1
    while start < g.num_points:
        cand = np.arange(start, min(start + size, g.num_points))
        cand = cand[~np.isin(cand, b.indices)]
        if cand.size:
            block = quotient_keys(fs, operands,
                                  g.coords_of_indices(cand)[:, None, :])
            row = row_groups(*block)[2]
            hits = np.flatnonzero(np.bincount(row, minlength=cand.size)
                                  == b.card)
            if hits.size:
                return int(cand[hits[0]])
        start += size
        size = min(2 * size, most)
    return None


# ---------------------------------------------------------------------------
# reduction to a minimal blocking set


def reduce_to_minimal(b: PointSet, order: str = "lex", seed: int = 0,
                      verify_orders: int = 0) -> PointSet:
    """Strip points without tangent hyperplanes until the set is minimal.

    ``order`` is "lex" (lowest index first) or "random" (seeded).  With
    ``verify_orders`` > 0 and |B| < 2q the result is recomputed under
    that many random orders and must be identical.
    """
    blocking, w = is_blocking(b)
    if not blocking:
        raise NotBlocking(f"unblocked hyperplane {w}")

    def run(strategy_rng):
        cur = b
        while True:
            counts = tangent_counts(cur)
            loose = np.flatnonzero(counts == 0)
            if loose.size == 0:
                return cur
            if strategy_rng is None:
                drop = int(cur.indices[loose[0]])
            else:
                drop = int(cur.indices[strategy_rng.choice(loose)])
            cur = cur.remove(drop)

    result = run(None if order == "lex" else np.random.default_rng(seed))
    if verify_orders and b.card < 2 * b.geometry.fs.q:
        for k in range(verify_orders):
            other = run(np.random.default_rng(seed + 1 + k))
            if other != result:
                raise BlockingError(
                    "reduction is order-dependent below the 2q threshold")
    return result
