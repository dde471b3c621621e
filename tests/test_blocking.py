import tracemalloc

import numpy as np
import pytest

from lingeo import blocking
from lingeo.census import line_census
from lingeo.constructions import random_linear_blocking_set, subgeometry
from lingeo.gf import make_field
from lingeo.pg import (PointSet, build_geometry, lex_points, line_through,
                       points_of, set_meet, span)


def brute_unblocked(b):
    """Indices of the hyperplanes missing B, in increasing order."""
    return [d for d, h in enumerate(b.geometry.hyperplanes())
            if set_meet(b, h).card == 0]


def brute_is_blocking(b):
    return not brute_unblocked(b)


def brute_is_minimal(b):
    if not brute_is_blocking(b):
        return False
    for idx in b.indices:
        if brute_is_blocking(b.remove(int(idx))):
            return False
    return True


def test_line_is_minimal_blocking(line_49):
    rep = blocking.analyze(line_49)
    assert rep.is_blocking and rep.is_minimal and rep.is_small
    assert rep.exponent_e == 2 and rep.q0 == 49 and rep.h == 1
    assert rep.exponent_e_lines == 2
    assert rep.span_dim == 1
    assert rep.strategy == "cover"


def test_baer_is_minimal_blocking(baer_49):
    rep = blocking.analyze(baer_49)
    assert rep.is_blocking and rep.is_minimal and rep.is_small
    assert rep.exponent_e == 1 and rep.q0 == 7 and rep.h == 2
    assert rep.size == 57 and rep.kappa == 8
    assert rep.span_dim == 2


def test_blocking_matches_brute_force_small():
    rng = np.random.default_rng(7)
    for n, p, size in ((2, 3, 6), (3, 2, 4)):
        g = build_geometry(n, make_field(p, 1))
        verdicts = set()
        for _ in range(10):
            b = PointSet(g, rng.choice(g.num_points, size, replace=False))
            unblocked = brute_unblocked(b)
            # the witness is the lowest unblocked hyperplane
            assert blocking.is_blocking(b) == (
                (False, unblocked[0]) if unblocked else (True, None))
            verdicts.add(not unblocked)
            if not unblocked:
                minimal, _ = blocking.is_minimal(b)
                assert minimal == brute_is_minimal(b)
        assert verdicts == {True, False}


def test_hyperplane_incidence_matches_brute_force():
    for g in (build_geometry(2, make_field(2, 2)),
              build_geometry(3, make_field(2, 1))):
        every = PointSet(g, np.arange(g.num_points))
        on = [set(set_meet(every, h).indices.tolist())
              for h in g.hyperplanes()]
        inc = blocking.hyperplane_incidence(g, lex_points(g.n, g.fs.q))
        assert inc.shape == (g.num_points, len(lex_points(g.n - 1, g.fs.q)))
        for x, row in enumerate(inc.tolist()):
            assert sorted(row) == [d for d in range(g.num_hyperplanes)
                                   if x in on[d]]


def per_point_incidence(g, coords):
    """Oracle for ``hyperplane_incidence``: one ``_duals_through`` call
    per point."""
    coef = lex_points(g.n - 1, g.fs.q)
    out = np.empty((len(coords), coef.shape[0]), dtype=np.int64)
    for i, c in enumerate(coords):
        out[i] = g.index_of_rows(blocking._duals_through(g.fs, coef, c))
    return out


# blocks of 6 points leave a short last block on each geometry
@pytest.mark.parametrize("block", ["default", "six_points"])
@pytest.mark.parametrize("n,p,t", [(2, 5, 1), (3, 3, 1), (2, 3, 2)])
def test_hyperplane_incidence_matches_per_point(monkeypatch, block, n, p, t):
    g = build_geometry(n, make_field(p, t))
    coords = lex_points(n, g.fs.q)
    k = len(lex_points(n - 1, g.fs.q))
    if block == "six_points":
        monkeypatch.setattr("lingeo.census.BLOCK_ELEMS", 6 * k * (n + 1))
        assert g.num_points % 6
    got = blocking.hyperplane_incidence(g, coords)
    assert got.dtype == np.int64
    assert np.array_equal(got, per_point_incidence(g, coords))


def _scalar_tangents(b):
    """Per member index, its tangent hyperplanes in increasing order, from
    a scalar evaluation of every hyperplane form on every point of B."""
    g = b.geometry
    coords = b.coords().tolist()
    out = {int(i): [] for i in b.indices}
    for d in range(g.num_hyperplanes):
        dual = g.coords_of(d)
        on = [int(i) for i, c in zip(b.indices, coords)
              if _scalar_form(g.fs, dual, c) == 0]
        if len(on) == 1:
            out[on[0]].append(d)
    return out


@pytest.mark.parametrize("name", ["baer_9", "rank5_pg3_16", "baer_pg3_16"])
def test_is_minimal_witness_is_lowest_tangent(request, name):
    if name == "baer_9":
        b = subgeometry(build_geometry(2, make_field(3, 2)), 1)
    elif name == "baer_pg3_16":
        # PG(3, 4) in PG(3, 16): blocking, but every point inessential
        b = subgeometry(build_geometry(3, make_field(2, 4)), 2)
    else:
        b = request.getfixturevalue(name)
    tangents = _scalar_tangents(b)
    assert blocking.tangent_counts(b).tolist() == [
        len(tangents[int(i)]) for i in b.indices]
    inessential = [i for i, ts in tangents.items() if not ts]
    if inessential:
        want = (False, {"inessential": inessential})
    else:
        want = (True, {"tangents": {i: ts[0] for i, ts in tangents.items()}})
    assert blocking.is_minimal(b) == want
    assert want[0] == (name != "baer_pg3_16")


def test_point_exponent_line(line_49):
    assert blocking.all_point_exponents(line_49, line_census(line_49)) \
        == [2] * 50


def test_point_exponents_baer(baer_49):
    assert blocking.all_point_exponents(baer_49, line_census(baer_49)) \
        == [1] * 57


def _scalar_point_exponent(b, pos):
    """e_P from a scalar grouping of B \\ {P} into the lines through P."""
    g = b.geometry
    coords = [tuple(c) for c in b.coords().tolist()]
    lines = {}
    for c in coords[:pos] + coords[pos + 1:]:
        basis = g.line_through(coords[pos], c).basis
        lines[basis] = lines.get(basis, 0) + 1
    sizes = {k + 1 for k in lines.values()}
    e = 0
    while sizes and e < g.fs.t and all((s - 1) % g.fs.p ** (e + 1) == 0
                                       for s in sizes):
        e += 1
    return e


@pytest.fixture(scope="module")
def exponent_sets(baer_49, line_49):
    off = next(i for i in range(line_49.geometry.num_points)
               if i not in line_49)
    g64 = build_geometry(2, make_field(2, 6))
    return {"baer_49": baer_49, "line_49": line_49,
            "one_point": PointSet(line_49.geometry, [off]),
            "line_plus_point": line_49.add(off),
            "rank4_pg2_64": random_linear_blocking_set(g64, 2, 4, seed=0)[0]}


@pytest.mark.parametrize("name", ["baer_49", "line_49", "one_point",
                                  "line_plus_point", "rank4_pg2_64"])
@pytest.mark.parametrize("mode", ["full", "pair"])
def test_all_point_exponents_from_census(exponent_sets, name, mode):
    b = exponent_sets[name]
    want = [_scalar_point_exponent(b, pos) for pos in range(b.card)]
    # a pair-mode census with an uncollected secant size has no per-point
    # counts (line_plus_point, rank4_pg2_64): one full census stands in
    census = line_census(b, mode=mode)
    assert blocking.all_point_exponents(b, census) == want


def test_full_pg1_keeps_exponent_t():
    # every hyperplane (a point) of PG(1, 49) meets the whole line once,
    # yet the set has a secant, the line itself: e = t on both readings
    g = build_geometry(1, make_field(7, 2))
    rep = blocking.analyze(PointSet(g, np.arange(g.num_points)))
    assert rep.strategy == "cover"
    assert rep.exponent_e == 2 and rep.q0 == 49 and rep.h == 1
    assert rep.exponent_e_lines == 2


def test_one_point_has_no_exponent(pg2_49):
    b = PointSet(pg2_49, [0])
    assert blocking.exponent_from_lines(b) == (0, None, None, False)
    assert blocking.all_point_exponents(b, line_census(b)) == [0]


def test_line_plus_points_not_minimal(line_49):
    g = line_49.geometry
    extra = [i for i in range(g.num_points) if i not in line_49][:3]
    fat = line_49
    for i in extra:
        fat = fat.add(i)
    rep = blocking.analyze(fat)
    assert rep.is_blocking and not rep.is_minimal
    assert sorted(rep.witnesses["inessential"]) == sorted(extra)
    red = blocking.reduce_to_minimal(fat, verify_orders=5)
    assert red == line_49


def test_project_planar_baer(planar_baer_3d):
    b = planar_baer_3d
    g = b.geometry
    q_idx = blocking.find_tangent_only_point(b)
    assert q_idx is not None
    qc = g.coords_of(q_idx)
    h = g.hyperplane_subspace((0,) * g.n + (1,))
    if h.contains_coords(qc):
        h = g.hyperplane_subspace((1,) + (0,) * g.n)
    img, small = blocking.project(b, qc, h)
    assert small.n == 2 and img.card == b.card
    rep = blocking.analyze(img)
    assert rep.is_blocking and rep.is_minimal and rep.is_small


def _scalar_tangent_only_point(b):
    g = b.geometry
    coords = [tuple(c) for c in b.coords().tolist()]
    for x in range(g.num_points):
        if x not in b:
            lines = {g.line_through(g.coords_of(x), c).basis for c in coords}
            if len(lines) == b.card:
                return x
    return None


@pytest.mark.parametrize("block", ["default", "three_rows"])
def test_find_tangent_only_point_matches_scalar(monkeypatch, block):
    g5 = build_geometry(2, make_field(5, 1))
    late = PointSet(g5, [8, 9, 14, 17, 22])       # first hit: point 23
    # no hit: every candidate, of every leading column, is searched, in
    # odd (Zech) and even characteristic
    baer_9 = subgeometry(build_geometry(2, make_field(3, 2)), 1)
    baer_4 = subgeometry(build_geometry(2, make_field(2, 2)), 1)
    sets = {"late": late, "baer_9": baer_9, "baer_4": baer_4}
    want = {name: _scalar_tangent_only_point(b) for name, b in sets.items()}
    assert want == {"late": 23, "baer_9": None, "baer_4": None}
    if block == "three_rows":
        # blocks of 1, 2, then 3 candidates: the hit lies past several
        monkeypatch.setattr("lingeo.census.BLOCK_ELEMS", 3 * late.card)
    for name, b in sets.items():
        assert blocking.find_tangent_only_point(b) == want[name]


def test_duals_through_a_point_each_once():
    g = build_geometry(3, make_field(3, 1))
    coef = lex_points(g.n - 1, g.fs.q)
    for idx in (0, 7, 25, 39):
        point = g.coords_of(idx)
        got = g.index_of_rows(blocking._duals_through(g.fs, coef,
                                                      np.array(point)))
        want = [h for h in range(g.num_hyperplanes)
                if _scalar_form(g.fs, g.coords_of(h), point) == 0]
        assert sorted(got.tolist()) == want


def test_project_rejects_center_in_set(baer_49):
    g = baer_49.geometry
    h = g.hyperplane_subspace((0, 0, 1))
    qc = g.coords_of(int(baer_49.indices[0]))
    with pytest.raises(blocking.QInB):
        blocking.project(baer_49, qc, h)


def test_exponent_from_lines_agrees(baer_49, trace_343):
    for b in (baer_49, trace_343):
        census = line_census(b)
        e_h = blocking.exponent(b)[0]
        e_l = blocking.exponent_from_lines(b, census)[0]
        assert e_h == e_l


def test_hyperplane_profile_holds_few_incidence_copies(monkeypatch,
                                                      trace_343):
    # the profile sorts one copy of the incidence; the hyperplanes met,
    # their counts and the sizes hold at most one incidence each, and the
    # sizes are looked up in blocks, here of an eighth of the incidence.
    # np.unique with return_inverse held 7.75 incidences above it.
    g = trace_343.geometry
    inc = blocking.hyperplane_incidence(g, trace_343.coords())
    monkeypatch.setattr("lingeo.census.BLOCK_ELEMS", inc.size // 8)
    met, counts = np.unique(inc, return_counts=True)
    tracemalloc.start()
    try:
        got = blocking._hyperplane_profile(trace_343)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - inc.nbytes <= 3.5 * inc.nbytes
    for x, y in zip(got, (inc, counts[np.searchsorted(met, inc)], met,
                          counts)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_one_hyperplane_profile_per_check(baer_49, planar_baer_3d,
                                          monkeypatch):
    calls = []
    real = blocking._hyperplane_profile

    def counting(b):
        calls.append(b)
        return real(b)

    monkeypatch.setattr(blocking, "_hyperplane_profile", counting)
    assert blocking.is_minimal(baer_49)[0]
    assert len(calls) == 1
    calls.clear()
    rep = blocking.analyze(planar_baer_3d)
    assert rep.strategy == "cover" and rep.is_minimal
    assert len(calls) == 1


def _scalar_form(fs, dual, point):
    acc = 0
    for a, x in zip(dual, point):
        acc = fs.add(acc, fs.mul(int(a), int(x)))
    return acc


@pytest.mark.parametrize("name", ["baer_49", "planar_baer_3d", "trace_343",
                                  "rank5_pg3_16"])
def test_tangent_witnesses_are_exact(request, name):
    b = request.getfixturevalue(name)
    fs = b.geometry.fs
    witnesses, all_found = blocking.randomized_tangent_witnesses(b, seed=3)
    assert all_found and sorted(witnesses) == [int(i) for i in b.indices]
    coords = b.coords()
    for k, (idx, dual) in enumerate(witnesses.items()):
        # the hyperplane meets B in its own point and nowhere else
        zeros = [int(b.indices[j]) for j, c in enumerate(coords)
                 if _scalar_form(fs, dual, c) == 0]
        assert zeros == [idx]


def test_tangent_witnesses_miss_an_inessential_point(line_49):
    g = line_49.geometry
    off = next(i for i in range(g.num_points) if i not in line_49)
    b = line_49.add(off)
    witnesses, all_found = blocking.randomized_tangent_witnesses(b)
    # every line through the extra point meets the full line again
    assert not all_found
    assert sorted(witnesses) == [int(i) for i in line_49.indices]


def test_tangent_witnesses_do_not_depend_on_block_size(baer_49, monkeypatch):
    want = blocking.randomized_tangent_witnesses(baer_49, seed=5)
    for elems in (1, 3 * baer_49.card, 1 << 30):
        monkeypatch.setattr("lingeo.census.TILE_ELEMS", elems)
        assert blocking.randomized_tangent_witnesses(baer_49, seed=5) == want
    other = blocking.randomized_tangent_witnesses(baer_49, seed=6)
    assert other[1] and other[0] != want[0]


def test_structural_analyze_reads_line_exponent_once(monkeypatch):
    # 5 points of PG(4, 2^13): far too many hyperplanes to enumerate
    g = build_geometry(4, make_field(2, 13))
    unit = np.eye(5, dtype=np.int64)
    b = PointSet.from_coords(g, [unit[0], unit[0] + unit[1], unit[1],
                                 unit[2] + unit[3], unit[4]])
    calls = []
    real = blocking.exponent_from_lines

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(blocking, "exponent_from_lines", counting)
    rep = blocking.analyze(b)
    assert rep.strategy == "structural" and len(calls) == 1
    assert rep.witnesses["minimality_method"] == "randomized-witness"


def test_structural_analyze_searches_witnesses_only_when_blocking(
        baer_49, monkeypatch):
    calls = []
    real = blocking.randomized_tangent_witnesses

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(blocking, "randomized_tangent_witnesses", counting)
    monkeypatch.setattr(blocking, "_COVER_LIMIT", 0)
    rep = blocking.analyze(baer_49)
    assert rep.strategy == "structural" and not rep.is_minimal
    assert rep.witnesses["minimality_method"] == "randomized-witness"
    assert calls == []
    rep = blocking.analyze(baer_49, assume_blocking=True)
    assert rep.is_blocking and rep.is_minimal and len(calls) == 1
    assert rep.witnesses["minimality_method"] == "randomized-witness"


def test_trace_set_report(trace_343):
    rep = blocking.analyze(trace_343)
    assert rep.is_blocking and rep.is_minimal and rep.is_small
    assert rep.size == 393
    assert rep.exponent_e == 1 and rep.q0 == 7 and rep.h == 3


def test_report_json_deterministic(baer_49):
    r1 = blocking.analyze(baer_49).to_json()
    r2 = blocking.analyze(baer_49).to_json()
    assert r1 == r2
    import json
    d = json.loads(r1)
    assert d["size"] == 57


def test_span_dim_matches_rref_span(corpus, rank5_pg3_81, rank5_pg3_16):
    # the corpus spans planes, and a line of it spans a proper subspace;
    # add the rank-5 sets of PG(3, q), a line of PG(3, 8) and one point
    g = build_geometry(3, make_field(2, 3))
    line = points_of(line_through(g, (1, 0, 0, 0), (0, 1, 1, 0)))
    sets = [b for _name, b, _e in corpus]
    sets += [rank5_pg3_81, rank5_pg3_16, line, PointSet(g, [5])]
    for b in sets:
        want = span(b.geometry, [tuple(int(x) for x in c)
                                 for c in b.coords()]).dim
        assert b.span_dim() == want
    assert [b.span_dim() for b in sets] == [1, 2, 2, 2, 2, 3, 3, 3, 1, 0]
