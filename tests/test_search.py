import pytest

from lingeo.blocking import analyze, is_blocking, is_minimal
from lingeo.census import line_census
from lingeo.constructions import subgeometry
from lingeo.gf import make_field
from lingeo.pg import PointSet, build_geometry, points_of
from lingeo.search import (GuardExceeded, SearchConfig, SearchError,
                           _hyperplane_masks, brute_force_minimal,
                           enumerate_minimal, mask_is_minimal,
                           verify_catalog)


def catalog_keys(res):
    return [tuple(int(i) for i in b.indices) for b in res.catalog]


@pytest.fixture(scope="module")
def pg_2_4():
    return build_geometry(2, make_field(2, 2))


@pytest.fixture(scope="module")
def pg_2_4_catalog(pg_2_4):
    return enumerate_minimal(SearchConfig(pg_2_4))


@pytest.fixture(scope="module")
def pg_2_5_catalog():
    g = build_geometry(2, make_field(5, 1))
    return enumerate_minimal(SearchConfig(g, max_size=7))


def test_pg_2_2_matches_brute_force():
    g = build_geometry(2, make_field(2, 1))
    cfg = SearchConfig(g)
    assert cfg.max_size == 4
    res = enumerate_minimal(cfg)
    assert catalog_keys(res) == brute_force_minimal(g, cfg.max_size)
    # exactly the 7 lines of the Fano plane
    assert len(res.catalog) == 7
    assert all(r.size == 3 and r.span_dim == 1 for r in res.reports)


def test_pg_2_3_matches_brute_force():
    g = build_geometry(2, make_field(3, 1))
    cfg = SearchConfig(g)
    assert cfg.max_size == 5
    res = enumerate_minimal(cfg)
    assert catalog_keys(res) == brute_force_minimal(g, cfg.max_size)
    assert all(r.is_blocking and r.is_minimal and r.size <= 5
               for r in res.reports)
    assert len(res.catalog) == 13
    # the counts the removed disjoint-hyperplane bound also produced
    assert (res.nodes, res.pruned, res.leaves, res.duplicates) == (
        1301, 768, 208, 102)


@pytest.mark.parametrize("n, p, max_size, counters, entries", [
    # the cap is the line size: a point's children are all at the cap
    (2, 2, 3, (40, 18, 9, 2), 7),
    # pruned is 0: every child at the cap is a leaf
    (3, 2, 7, (10690, 0, 9163, 7252), 203),
])
def test_cap_level_counters(n, p, max_size, counters, entries):
    g = build_geometry(n, make_field(p, 1))
    res = enumerate_minimal(SearchConfig(g, max_size=max_size))
    assert len(res.catalog) == entries
    assert (res.nodes, res.pruned, res.leaves, res.duplicates) == counters


def test_pg_3_2_matches_brute_force():
    # hyperplanes are planes: a cap-level child must lie on several
    g = build_geometry(3, make_field(2, 1))
    res = enumerate_minimal(SearchConfig(g, max_size=4))
    assert catalog_keys(res) == brute_force_minimal(g, 4)
    assert len(res.catalog) == 35
    assert (res.nodes, res.pruned, res.leaves, res.duplicates) == (
        2458, 1176, 931, 544)


def test_pg_2_4_lines_only_at_max_5(pg_2_4):
    res = enumerate_minimal(SearchConfig(pg_2_4, max_size=5))
    assert len(res.catalog) == 21
    assert all(r.size == 5 and r.span_dim == 1 for r in res.reports)


def test_pg_2_4_full_catalog(pg_2_4, pg_2_4_catalog):
    assert SearchConfig(pg_2_4).max_size == 7
    res = pg_2_4_catalog
    # pins the DFS order and bound: catalog_index.json records the counts
    assert (res.nodes, res.pruned, res.leaves, res.duplicates) == (
        94406, 67494, 8031, 5547)
    sizes = sorted(r.size for r in res.reports)
    assert len(res.catalog) == 381
    assert sizes.count(5) == 21 and sizes.count(7) == 360
    report = verify_catalog(res)
    assert report["one_mod_p_alarms"] == []
    verdicts = {e["linearity"] for e in report["entries"]}
    assert verdicts == {"line", "linear"}
    non_lines = [e for e in report["entries"] if e["linearity"] != "line"]
    assert len(non_lines) == 360
    # certified, but outside the theorem's hypotheses: a Baer subplane of
    # PG(2, 4) spans a plane, where h - 1 = 1 asks for a line
    assert all(e["outside_hypotheses"] for e in non_lines)


def test_pg_2_5_catalog_and_counters(pg_2_5_catalog):
    res = pg_2_5_catalog
    assert len(res.catalog) == 31
    assert all(r.size == 6 and r.span_dim == 1 for r in res.reports)
    assert (res.nodes, res.pruned, res.leaves, res.duplicates) == (
        335707, 278640, 1116, 430)


@pytest.mark.parametrize("n, p, t, max_size", [
    (2, 2, 1, 5), (2, 3, 1, 6), (2, 2, 2, 7), (2, 5, 1, 7), (3, 2, 1, 4),
    (1, 3, 1, 4)])
def test_mask_reports_match_analyze(request, n, p, t, max_size):
    # the reports built from the DFS's hyperplane popcounts against the
    # hyperplane profile and line census of each entry
    if (n, p, t, max_size) == (2, 2, 2, 7):
        res = request.getfixturevalue("pg_2_4_catalog")
    elif (n, p, t, max_size) == (2, 5, 1, 7):
        res = request.getfixturevalue("pg_2_5_catalog")
    else:
        g = build_geometry(n, make_field(p, t))
        res = enumerate_minimal(SearchConfig(g, max_size=max_size))
    assert res.catalog
    for b, rep, lines in zip(res.catalog, res.reports, res.line_sizes,
                             strict=True):
        assert rep.to_json() == analyze(b).to_json()
        assert lines == sorted(line_census(b).hist)


def test_mask_leaf_test_agrees_with_is_minimal(pg_2_4, pg_2_4_catalog):
    g = pg_2_4
    masks, misses = _hyperplane_masks(g)
    lines = [points_of(g.hyperplane_subspace(g.coords_of(d)))
             for d in range(g.num_hyperplanes)]
    assert masks == [sum(1 << int(i) for i in line.indices)
                     for line in lines]
    assert misses == [sum(1 << d for d, line in enumerate(lines)
                          if x not in line) for x in range(g.num_points)]
    baer = [subgeometry(g, 1)] + [b for b in pg_2_4_catalog.catalog
                                  if b.card == 7][::40]
    assert len(lines) == 21 and len(baer) == 10

    def plus_point(b, k):
        outside = [x for x in range(g.num_points) if x not in b]
        return PointSet(g, [*b.indices, outside[k % len(outside)]])

    cases = [(b, True) for b in lines + baer]
    cases += [(plus_point(b, k), False) for k, b in enumerate(lines + baer)]
    for b, want in cases:
        assert is_blocking(b)[0]
        s = sum(1 << int(i) for i in b.indices)
        assert is_minimal(b)[0] is want
        assert mask_is_minimal(masks, s) is want


def test_determinism_across_width():
    g = build_geometry(2, make_field(3, 1))
    a = enumerate_minimal(SearchConfig(g, parallel_width=1))
    b = enumerate_minimal(SearchConfig(g, parallel_width=8))
    assert catalog_keys(a) == catalog_keys(b)


def test_guard():
    g = build_geometry(2, make_field(5, 2))
    with pytest.raises(GuardExceeded):
        enumerate_minimal(SearchConfig(g))
    # override lets a run start (not executed here: it would be huge)


def test_max_size_floor():
    g = build_geometry(2, make_field(2, 1))
    with pytest.raises(SearchError):
        SearchConfig(g, max_size=2)
