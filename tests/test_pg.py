import numpy as np
import pytest

from lingeo.gf import make_field
from lingeo.pg import (
    EqualPoints,
    Geometry,
    GeometryError,
    GeometryTooLarge,
    PointSet,
    Subspace,
    build_geometry,
    intersect,
    lex_points,
    line_through,
    normalize_rows,
    points_of,
    set_meet,
    space_size,
    span,
)


@pytest.fixture(scope="module")
def pg2_4():
    return build_geometry(2, make_field(2, 2))


@pytest.fixture(scope="module")
def pg2_49():
    return build_geometry(2, make_field(7, 2))


def test_point_counts(pg2_49):
    assert pg2_49.num_points == 2451
    assert pg2_49.num_hyperplanes == 2451
    g = build_geometry(2, make_field(7, 3))
    assert g.num_points == 117993  # 343^2 + 343 + 1
    g5 = build_geometry(5, make_field(7, 1))
    assert g5.num_points == 19608


def test_index_bijection(pg2_4):
    for i in range(pg2_4.num_points):
        c = pg2_4.coords_of(i)
        assert pg2_4.index_of(c) == i
        assert c[next(j for j, v in enumerate(c) if v)] == 1


def test_index_of_rows_matches_scalar(pg2_49):
    rng = np.random.default_rng(1)
    idx = rng.integers(0, pg2_49.num_points, 200)
    rows = pg2_49.coords_of_indices(idx)
    # scale rows randomly to exercise normalization
    fs = pg2_49.fs
    scale = rng.integers(1, fs.q, 200)
    scaled = fs.vmul(scale[:, None], rows)
    assert np.array_equal(pg2_49.index_of_rows(scaled), idx)


# char 2, a prime field in 3-space, and an odd extension field (Zech)
@pytest.mark.parametrize("n,p,t", [(2, 2, 2), (3, 3, 1), (2, 3, 2)])
def test_point_reads_match_row_kernels(n, p, t):
    g = build_geometry(n, make_field(p, t))
    fs = g.fs
    idx = np.arange(g.num_points)
    rows = g.coords_of_indices(idx)
    scaled = fs.vmul((idx % (fs.q - 1) + 1)[:, None], rows)
    assert np.array_equal(normalize_rows(fs, scaled), rows)
    assert np.array_equal(g.index_of_rows(scaled), idx)
    for i, row, srow in zip(idx.tolist(), rows.tolist(), scaled.tolist()):
        # Python ints, not numpy scalars: project prints these tuples
        for got in (g.coords_of(i), g.normalize(srow)):
            assert got == tuple(row)
            assert all(type(c) is int for c in got)
        got = g.index_of(srow)
        assert got == i and type(got) is int


def test_point_reads_refuse_bad_input(pg2_4):
    for bad in (-1, pg2_4.num_points):
        with pytest.raises(GeometryError, match=f"point index {bad} out of"):
            pg2_4.coords_of(bad)
    for read in (pg2_4.normalize, pg2_4.index_of):
        with pytest.raises(GeometryError,
                           match="zero vector is not a projective point"):
            read((0, 0, 0))


def test_point_indices_stop_at_int64():
    # PG(62, 2) has 2^63 - 1 points, the largest index space that fits
    fs = make_field(2, 1)
    g = build_geometry(62, fs)
    assert g.num_points == 2 ** 63 - 1
    for i in (0, 2 ** 62 - 1, 2 ** 62, g.num_points - 1):
        assert g.index_of(g.coords_of(i)) == i
    for n, f in ((63, fs), (70, fs), (10 ** 9, fs), (16, make_field(2, 4))):
        with pytest.raises(GeometryTooLarge, match="2\\^63 - 1 points"):
            build_geometry(n, f)


def test_lex_points_in_index_order():
    assert lex_points(0, 5).tolist() == [[1]]
    for k, p, t in ((1, 3, 1), (2, 2, 2), (3, 2, 1)):
        g = build_geometry(k, make_field(p, t))
        assert np.array_equal(lex_points(k, g.fs.q),
                              g.coords_of_indices(np.arange(g.num_points)))


def test_line_through_basics(pg2_4):
    l = line_through(pg2_4, (1, 0, 0), (0, 1, 0))
    assert l.dim == 1
    assert l.num_points() == 5
    assert l == line_through(pg2_4, (0, 1, 0), (1, 0, 0))
    with pytest.raises(EqualPoints):
        line_through(pg2_4, (1, 0, 0), (1, 0, 0))
    l2 = line_through(pg2_4, (1, 0, 0), (0, 0, 1))
    assert points_of(l2).card == 5


def test_unique_line_through_pairs_pg2_4(pg2_4):
    for i in range(pg2_4.num_points):
        for j in range(i + 1, pg2_4.num_points):
            l = pg2_4.line_through(pg2_4.coords_of(i), pg2_4.coords_of(j))
            pts = points_of(l)
            assert i in pts and j in pts
            assert pts.card == 5


def test_span_dims(pg2_49):
    p = (1, 0, 0)
    assert span(pg2_49, [p]).dim == 0
    frame = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert span(pg2_49, frame).dim == 2


def test_points_of_counts(pg2_49):
    l = line_through(pg2_49, (1, 0, 0), (0, 1, 0))
    assert points_of(l).card == 50
    g = build_geometry(3, make_field(5, 2))
    plane = Subspace(g, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    assert points_of(plane).card == 651
    whole = Subspace(pg2_49, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert points_of(whole).card == pg2_49.num_points


def test_span_pointsof_roundtrip(pg2_4):
    l = line_through(pg2_4, (1, 2, 3), (0, 1, 1))
    pts = points_of(l)
    again = span(pg2_4, [tuple(int(x) for x in c) for c in pts.coords()])
    assert again == l


def test_hyperplane_counts(pg2_4):
    ls = list(pg2_4.hyperplanes())
    assert len(ls) == 21
    assert len(set(ls)) == 21
    pt = Subspace(pg2_4, [(1, 1, 1)])
    through = list(pg2_4.hyperplanes_through(pt))
    assert len(through) == 5
    assert all(h.contains_coords((1, 1, 1)) for h in through)


def test_planes_through_line():
    g = build_geometry(3, make_field(7, 2))
    l = Subspace(g, [(1, 0, 0, 0), (0, 1, 0, 0)])
    through = list(g.hyperplanes_through(l))
    assert len(through) == 50


def test_duality_counts(pg2_4):
    pt = Subspace(pg2_4, [(1, 0, 1)])
    n_through = sum(1 for _ in pg2_4.hyperplanes_through(pt))
    some_line = next(pg2_4.hyperplanes())
    assert n_through == points_of(some_line).card


def test_intersect(pg2_4):
    l1 = line_through(pg2_4, (1, 0, 0), (0, 1, 0))
    l2 = line_through(pg2_4, (1, 0, 0), (0, 0, 1))
    meet = intersect(l1, l2)
    assert meet.dim == 0
    assert meet.basis == ((1, 0, 0),)
    g3 = build_geometry(3, make_field(2, 2))
    skew1 = Subspace(g3, [(1, 0, 0, 0), (0, 1, 0, 0)])
    skew2 = Subspace(g3, [(0, 0, 1, 0), (0, 0, 0, 1)])
    assert intersect(skew1, skew2) is None
    plane = Subspace(g3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    assert intersect(skew1, plane) == skew1


def test_set_meet(pg2_4):
    l = line_through(pg2_4, (1, 0, 0), (0, 1, 0))
    b = points_of(l)
    assert set_meet(b, l).card == 5
    l2 = line_through(pg2_4, (0, 0, 1), (1, 1, 1))
    met = set_meet(b, l2)
    assert met.card == 1


def test_baer_subplane_meets(pg2_49):
    """A Baer subplane of PG(2,49) meets every line in 1 or 8 points."""
    fs = pg2_49.fs
    sub = fs.subfield(1)
    pts = []
    for i in range(space_size(7, 2)):
        small = Geometry(2, make_field(7, 1))
        c = small.coords_of(i)
        pts.append(tuple(sub.embed(x) for x in c))
    b = PointSet.from_coords(pg2_49, pts)
    assert b.card == 57
    assert span(pg2_49, pts).dim == 2
    counts = set()
    for h in pg2_49.hyperplanes():
        counts.add(set_meet(b, h).card)
    assert counts == {1, 8}


def _random_subspace(g, rng, dim):
    while True:
        picks = rng.choice(g.num_points, dim + 1, replace=False)
        s = Subspace(g, g.coords_of_indices(picks).tolist())
        if s.dim == dim:
            return s


# char 2, a prime field and an odd extension field, in planes and 3-space
@pytest.mark.parametrize("n,p,t", [(2, 2, 2), (3, 3, 1), (2, 3, 2),
                                   (3, 2, 2)])
def test_set_meet_equals_point_set_intersection(n, p, t):
    g = build_geometry(n, make_field(p, t))
    rng = np.random.default_rng(10 * n + p + t)
    for dim in range(n + 1):
        for _ in range(4):
            s = _random_subspace(g, rng, dim)
            pts = s.point_set()
            # sets smaller and larger than s, holding some of its points
            for size in (max(1, pts.card // 2), 2 * pts.card + 3):
                size = min(size, g.num_points)
                inside = rng.choice(pts.indices, min(size, pts.card) // 2,
                                    replace=False)
                b = PointSet(g, np.concatenate([
                    inside, rng.choice(g.num_points, size - inside.size,
                                       replace=False)]))
                assert set_meet(b, s) == b.intersection(pts)


@pytest.mark.parametrize("n,p,t", [(3, 3, 1), (3, 2, 2), (2, 3, 2),
                                   (4, 2, 1)])
def test_intersect_equals_point_set_meet(n, p, t):
    g = build_geometry(n, make_field(p, t))
    rng = np.random.default_rng(10 * n + p + t)
    seen = set()
    for _ in range(60):
        a, b = (_random_subspace(g, rng, int(rng.integers(0, n)))
                for _ in range(2))
        both = a.point_set().intersection(b.point_set())
        meet = intersect(a, b)
        if both.card == 0:
            assert meet is None
        else:
            assert meet.point_set() == both
        seen.add(both.card == 0)
    assert seen == {True, False}
