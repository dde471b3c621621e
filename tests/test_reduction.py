import numpy as np

from lingeo.gf import make_field
from lingeo.pg import Subspace, build_geometry, space_size
from lingeo.reduction import SpreadContext


def test_eps_roundtrip_random():
    g = build_geometry(2, make_field(7, 2))
    ctx = SpreadContext(g, 1)
    rng = np.random.default_rng(0)
    rows = rng.integers(0, g.fs.q, size=(200, 3), dtype=np.int64)
    back = ctx.eps_inv_rows(ctx.eps_rows(rows))
    assert np.array_equal(back, rows)


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


def test_linear_set_from_vectors_matches_subspace():
    """B(U) computed upstairs equals B(pi) for pi = span of eps(U)."""
    g = build_geometry(2, make_field(7, 2))
    ctx = SpreadContext(g, 1)
    rng = np.random.default_rng(3)
    for _ in range(5):
        vecs = rng.integers(0, g.fs.q, size=(3, 3), dtype=np.int64)
        if not vecs.any(axis=1).all():
            continue
        b1 = ctx.linear_set_from_vectors(vecs)
        pi = Subspace(ctx.reduced, ctx.eps_rows(vecs))
        b2 = ctx.linear_set_from_subspace(pi)
        assert b1 == b2


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
