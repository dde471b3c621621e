import hashlib
import itertools

import numpy as np
import pytest

from lingeo.gf import make_field
from lingeo.pg import PointSet, Subspace, build_geometry, space_size
from lingeo.reduction import SpreadContext


def test_eps_roundtrip_random():
    """eps and eps^-1 are inverse on every code of every coordinate."""
    for p, t, e, n in [(7, 2, 1, 2), (2, 6, 2, 3), (3, 4, 2, 1), (5, 3, 3, 1)]:
        g = build_geometry(n, make_field(p, t))
        ctx = SpreadContext(g, e)
        codes = np.arange(g.fs.q, dtype=np.int64)
        # column j runs through all q codes, each column in its own order
        rows = np.stack([np.roll(codes, 7 * j) for j in range(n + 1)], axis=1)
        assert np.array_equal(ctx.eps_inv_rows(ctx.eps_rows(rows)), rows)
        small = ctx.eps_rows(rows)
        assert np.array_equal(ctx.eps_rows(ctx.eps_inv_rows(small)), small)


# sha256 of expand_table.tobytes(), recorded from a GF(p) digit-matrix
# inverse: pins the basis {1, d, ..., d^(h-1)}, which the round trip, true
# for any basis, does not
_EXPAND_TABLE_SHA256 = {
    (2, 12, 3): "e35391efc6d74dcf7074fa49e8da75704a0ba04372423d28128bb8b720f413b5",
    (3, 4, 2): "00212a83674a85ba2e0a199476c7311802a83a3946429ac6bafdfa4f58cd09f8",
    (11, 4, 2): "4b341b330873dbdeb542cc74c6e9e162627baac5e48bdefe676eb40fd673c665",
    (3, 10, 5): "8e42bda35122790354898ed88bacb203787c52547369d2c62ae062d592269bd8",
}


@pytest.mark.parametrize("p,t,e", sorted(_EXPAND_TABLE_SHA256))
def test_expand_table_digest(field, p, t, e):
    ctx = SpreadContext(build_geometry(1, field(p, t)), e)
    digest = hashlib.sha256(ctx.expand_table.tobytes()).hexdigest()
    assert digest == _EXPAND_TABLE_SHA256[p, t, e]


def test_eps_is_additive_and_q0_linear():
    g = build_geometry(1, make_field(7, 3))
    ctx = SpreadContext(g, 1)
    fs = g.fs
    rng = np.random.default_rng(1)
    a = rng.integers(0, fs.q, size=(50, 2), dtype=np.int64)
    b = rng.integers(0, fs.q, size=(50, 2), dtype=np.int64)
    assert np.array_equal(ctx.eps_rows(fs.vadd(a, b)),
                          ctx.small_field.vadd(ctx.eps_rows(a), ctx.eps_rows(b)))
    # scaling by a subfield element acts diagonally
    lam = int(ctx.embed_np[3])
    lam0 = 3
    lhs = ctx.eps_rows(fs.vmul(a, lam))
    rhs = ctx.small_field.vmul(ctx.eps_rows(a), lam0)
    assert np.array_equal(lhs, rhs)


def test_spread_partitions_pg5_7():
    """The spread elements of the points of PG(2, 49) partition PG(5, 7)."""
    g = build_geometry(2, make_field(7, 2))
    ctx = SpreadContext(g, 1)
    seen = set()
    for i in range(g.num_points):
        el = ctx.spread_element(g.coords_of(i))
        assert el.dim == 1
        pts = el.point_set()
        assert pts.card == 8
        for idx in pts.indices:
            assert int(idx) not in seen
            seen.add(int(idx))
    assert len(seen) == ctx.reduced.num_points == 19608


def test_big_point_of_reduced_is_inverse_of_spread():
    g = build_geometry(2, make_field(7, 2))
    ctx = SpreadContext(g, 1)
    rng = np.random.default_rng(2)
    for i in rng.integers(0, g.num_points, size=20):
        coords = g.coords_of(int(i))
        el = ctx.spread_element(coords)
        back = ctx.eps_inv_rows(el.coords_array()[:3])
        assert [g.normalize(v) for v in back.tolist()] == [coords] * 3


def _brute_force_linear_set(ctx, gens):
    """Every nonzero GF(q0)-combination of the generators, by scalar field
    arithmetic on the embedded subfield, as a set of normalized points."""
    g, fs = ctx.big, ctx.big.fs
    idx = set()
    for lam in itertools.product(ctx.sub.embed_table, repeat=len(gens)):
        v = [0] * (g.n + 1)
        for c, gen in zip(lam, gens):
            v = [fs.add(x, fs.mul(c, int(y))) for x, y in zip(v, gen)]
        if any(v):
            idx.add(g.index_of(v))
    return PointSet(g, sorted(idx))


@pytest.mark.parametrize("n,p,t,e", [(2, 7, 2, 1), (2, 3, 4, 2), (3, 2, 6, 2),
                                     (3, 2, 6, 3), (1, 7, 3, 1)])
def test_linear_set_from_vectors_matches_brute_force(n, p, t, e):
    g = build_geometry(n, make_field(p, t))
    ctx = SpreadContext(g, e)
    rng = np.random.default_rng(3)
    for rank in range(1, 5):
        gens = rng.integers(1, g.fs.q, size=(rank, n + 1), dtype=np.int64)
        b = ctx.linear_set_from_vectors(gens)
        assert b == _brute_force_linear_set(ctx, gens), rank
        pi = Subspace(ctx.reduced, ctx.eps_rows(gens))
        assert ctx.linear_set_from_subspace(pi) == b


def test_linear_set_rank_size_bound():
    g = build_geometry(2, make_field(7, 2))
    ctx = SpreadContext(g, 1)
    vecs = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    b = ctx.linear_set_from_vectors(vecs)
    assert ctx.reduced_rank(vecs) == 3
    assert b.card <= space_size(7, 2)


def test_trace_linear_set_size(trace_343):
    # rank-4 linear set of a trace construction in PG(2, 343): 393 points
    assert trace_343.card == 393
