"""Ready-made point sets: lines, subgeometries, and linear blocking sets."""

from __future__ import annotations

import numpy as np

from .gf import FieldSpec
from .pg import Geometry, GeometryError, PointSet, points_of, space_size
from .reduction import SpreadContext


def full_line(g: Geometry) -> PointSet:
    """The line through the first two unit points."""
    return points_of(g.line_through((1,) + (0,) * g.n,
                                    (0, 1) + (0,) * (g.n - 1)))


def subgeometry(g: Geometry, e: int, carrier_dim: int | None = None) -> PointSet:
    """The canonical subgeometry PG(m, p^e) inside PG(n, p^t).

    With carrier_dim = m < n the subgeometry occupies the subspace
    spanned by the first m+1 coordinates (e.g. a planar Baer subplane of
    a 3-space).  e = t/2 gives Baer subgeometries.
    """
    m = g.n if carrier_dim is None else carrier_dim
    if not 1 <= m <= g.n:
        raise GeometryError(
            f"carrier dimension {m} is outside 1..{g.n} for PG({g.n}, {g.fs.q})")
    # B(U) for U the GF(p^e)-span of the first m+1 unit vectors
    return SpreadContext(g, e).linear_set_from_vectors(
        np.eye(m + 1, g.n + 1, dtype=np.int64))


def _trace(fs: FieldSpec, x: int, e: int) -> int:
    """Trace of GF(p^t) onto GF(p^e): sum of x^(p^(e*i))."""
    h = fs.t // e
    out = 0
    for i in range(h):
        out = fs.add(out, fs.frobenius(x, e * i))
    return out


def trace_trick_vectors(fs: FieldSpec, e: int):
    """Generators of the plane linear blocking set {(x, Tr(x), c)}."""
    h = fs.t // e
    # generators x = delta^i sweeping a GF(q0)-basis of GF(q), plus (0, 0, 1)
    delta = fs.p if fs.t > 1 else 1
    gens = [(fs.pow_(delta, i), _trace(fs, fs.pow_(delta, i), e), 0)
            for i in range(h)]
    gens.append((0, 0, 1))
    return gens


def trace_linear_set(g: Geometry, e: int) -> PointSet:
    """B(U) for U = {(x, Tr(x), c)} in PG(2, q); rank h+1 over GF(p^e)."""
    if g.n != 2:
        raise ValueError("trace construction lives in a plane")
    ctx = SpreadContext(g, e)
    return ctx.linear_set_from_vectors(trace_trick_vectors(g.fs, e))


_MAX_TRIES = 60


def random_linear_blocking_set(g: Geometry, e: int, rank: int, seed: int):
    """A rank-``rank`` linear set B(U) from seeded random generators.

    Retries, up to ``_MAX_TRIES`` draws, until the generators are
    GF(q0)-independent and the set is scattered enough to have short
    secants (|B| near its maximum), which in practice also makes it
    minimal.  Returns (PointSet, ctx, vectors).
    """
    fs = g.fs
    ctx = SpreadContext(g, e)
    rng = np.random.default_rng(seed)
    target = space_size(ctx.q0, rank - 1)
    best = None
    for _ in range(_MAX_TRIES):
        vecs = [tuple(int(x) for x in rng.integers(0, fs.q, g.n + 1))
                for _ in range(rank)]
        if ctx.reduced_rank(vecs) != rank:
            continue
        b = ctx.linear_set_from_vectors(vecs)
        if b.card == target:
            return b, ctx, vecs
        if best is None or b.card > best[0].card:
            best = (b, ctx, vecs)
    if best is None:
        raise RuntimeError("could not generate an independent vector family")
    return best
