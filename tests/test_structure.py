import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from lingeo import blocking, structure
from lingeo import census as census_module
from lingeo.census import line_census
from lingeo.constructions import random_linear_blocking_set
from lingeo.gf import make_field
from lingeo.pg import PointSet, Subspace, build_geometry, lex_points
from lingeo.reduction import SpreadContext


def test_bound_values_exact():
    assert structure.bound_value("size", 7, 3) == (402, False)
    assert structure.bound_value("secants_per_point", 7, 3) == (22, False)
    assert structure.bound_value("secants_per_point", 7, 4) == (148, False)
    assert structure.bound_value("plane_min", 7) == (57, False)
    assert structure.bound_value("plane_gap", 7) == (106, False)
    assert structure.bound_value("plane_cap", 7) == (400, False)
    assert structure.bound_value("good_planes", 7, 4) == (22, False)
    assert structure.bound_value("good_planes", 11, 4) == (78, False)
    val, info = structure.bound_value(
        "blokhuis_secants", 7, extra={"q": 49, "kappa": 8, "p_eP": 7})
    assert val == Fraction(42, 7) + 1 == 7 and not info


def test_bound_values_below_min_h_are_informational():
    val, info = structure.bound_value("size", 7, 2)
    assert info and val == 7 ** 2 + 7 + 1
    val, info = structure.bound_value("good_planes", 7, 2)
    assert info and val == 2


def test_is_subline_canonical():
    fs = make_field(7, 2)
    g = build_geometry(1, fs)
    sub = fs.subfield(1)
    rows = [(0, 1)] + [g.normalize((1, sub.embed(c))) for c in range(7)]
    s = PointSet.from_coords(g, rows)
    assert structure.is_subline(s, 1)
    # swap one point for an off-subfield one: must fail
    off = next(i for i in range(g.num_points)
               if i not in s and g.coords_of(i)[0] == 1)
    bad = s.remove(int(s.indices[-1])).add(off)
    assert not structure.is_subline(bad, 1)


def test_batch_agrees_with_scalar(baer_49):
    census = line_census(baer_49, collect_sizes=[8])
    rows = census.secants[8]
    verdicts = structure.sublines_pass_batch(baer_49, rows, 1)
    g = baer_49.geometry
    for row, v in zip(baer_49.indices[rows], verdicts):
        assert structure.is_subline(PointSet(g, row), 1) == bool(v)
    assert verdicts.all()


# char 2, and two odd extension fields (Zech addition)
@pytest.mark.parametrize("p,t,e", [(2, 6, 3), (7, 2, 1), (3, 10, 5)])
def test_batch_sublines_match_scalar_on_mixed_rows(field, p, t, e):
    fs = field(p, t)
    g = build_geometry(2, fs)
    q0 = p ** e
    rng = np.random.default_rng(p * 100 + t * 10 + e)
    # B is a whole line, spanned by u and v; rows are (q0+1)-subsets of it
    uv = np.array([[1, 2, 3], [0, 1, int(rng.integers(1, fs.q))]])
    b = PointSet(g, g.index_of_rows(fs.vmatmul(lex_points(1, fs.q), uv)))

    def positions(params):
        idx = g.index_of_rows(fs.vmatmul(np.array(params), uv))
        return np.searchsorted(b.indices, idx)

    sub = fs.subfield(e).members()
    # the line's one point that is 0 at its first pivot column, v
    off = positions([(0, 1)])[0]
    rows = []
    for k in range(24):
        while True:
            a, c, d0, d1 = (int(x) for x in rng.integers(0, fs.q, 4))
            if k % 4 == 0:
                a = 0       # infinity goes to v
            if fs.sub(fs.mul(a, d1), fs.mul(c, d0)):
                break
        # image of GF(q0) + infinity under (x : 1) -> (a x + c : d0 x + d1)
        params = [(fs.add(fs.mul(a, x), c), fs.add(fs.mul(d0, x), d1))
                  for x in sub] + [(a, d0)]
        row = positions(params)
        if k % 3 == 1:      # one point swapped for another of the line
            row[rng.integers(q0 + 1)] = rng.choice(
                np.setdiff1d(np.arange(b.card), row))
        elif k % 3 == 2:    # any q0+1 points of the line
            row = rng.choice(b.card, q0 + 1, replace=False)
            if k % 4 == 0 and off not in row:
                row[0] = off
        row = rng.permutation(row)
        if k < 8 and off in row:
            # v first, then second: it sets the line's first pivot
            # (_line_pivots) from either end of the pair
            at = np.flatnonzero(row == off)[0]
            row[[at, k // 4]] = row[[k // 4, at]]
        rows.append(row)
    rows = np.array(rows)
    got = structure.sublines_pass_batch(b, rows, e)
    want = [structure.is_subline(PointSet(g, b.indices[row]), e)
            for row in rows]
    assert got.tolist() == want
    assert all(want[::3]) and not any(want[2::3])
    with_off = np.array([off in row for row in rows])
    assert rows[0, 0] == off and rows[4, 1] == off
    assert np.any(with_off & want) and np.any(with_off & ~np.array(want))


# random rank-5 linear sets of PG(3, q): characteristic 2 and odd
# extension fields (Zech subtraction), e = 1, 2 and 3
@pytest.mark.parametrize("p,t,e", [(3, 4, 1), (2, 4, 2), (3, 4, 2), (2, 6, 3)])
def test_batch_sublines_match_scalar_on_census_rows(field, p, t, e):
    fs = field(p, t)
    g = build_geometry(3, fs)
    q0 = p ** e
    b = random_linear_blocking_set(g, e, 5, seed=t)[0]
    secants = line_census(b, collect_sizes=[q0 + 1]).secants[q0 + 1]
    coords = b.coords()
    rng = np.random.default_rng(p * 100 + t * 10 + e)
    # 20 rows that hold their line's one point off its first pivot, O (its
    # leading column is above the other members'), and 20 that do not
    lead = np.argmax(coords != 0, axis=1)[secants]
    has_o = lead.max(axis=1) > lead.min(axis=1)
    census_rows = np.vstack([
        secants[np.sort(rng.choice(np.flatnonzero(w), 20, replace=False))]
        for w in (has_o, ~has_o)])
    permuted = rng.permuted(census_rows, axis=1)
    for k in range(20):     # O first, second or third
        at = np.argmax(np.argmax(coords[permuted[k]] != 0, axis=1))
        permuted[k, [at, k % 3]] = permuted[k, [k % 3, at]]
    # one member of each row swapped for a point of its line off B: O
    # itself in every other row without it
    extra = []
    for k, row in enumerate(census_rows):
        u, v = coords[row[0]], coords[row[1]]
        line = np.vstack([fs.vadd(u, fs.vmul(np.arange(fs.q)[:, None], v)), v])
        idx = g.index_of_rows(line)
        off = ~np.isin(idx, b.indices)
        if k >= 20 and k % 2:
            off &= line[:, np.argmax((u != 0) | (v != 0))] == 0
        extra.append(rng.choice(idx[off]))
    big = b.union(PointSet(g, np.array(extra)))
    # the rows as 16-bit positions into B and the points off it
    census_rows, permuted = (
        np.searchsorted(big.indices, b.indices[r]).astype(np.uint16)
        for r in (census_rows, permuted))
    swapped = permuted.copy()
    swapped[np.arange(40), rng.integers(0, q0 + 1, 40)] = np.searchsorted(
        big.indices, extra)
    rows = np.vstack([census_rows, permuted, swapped])
    got = structure.sublines_pass_batch(big, rows, e)
    want = [structure.is_subline(PointSet(g, big.indices[row]), e)
            for row in rows]
    assert got.tolist() == want
    # a census row is a subline in any order; any three points fix a
    # subline, and q0 >= 3 of its points are left, so every swapped row
    # fails
    assert all(want[:80]) and not any(want[80:])


def test_16_bit_positions_past_their_products_match_wide_ones(field):
    # about 17,000 points of PG(3, 64): from position 16,384 on, a position
    # times n+1 = 4 no longer fits 16 bits, so a consumer that computed
    # with 16-bit positions before widening them would gather other points
    fs = field(2, 6)
    g = build_geometry(3, fs)
    q0 = 8
    rng = np.random.default_rng(4)
    sub = np.array(fs.subfield(3).members())
    sublines = []           # PG(1, 8): u + x v over x in GF(8), and v
    for _ in range(300):
        u, v = g.coords_of_indices(rng.choice(g.num_points, 2, replace=False))
        sublines.append(np.vstack([fs.vadd(u, fs.vmul(sub[:, None], v)), v]))
    idx = g.index_of_rows(np.concatenate(sublines))
    b = PointSet(g, np.concatenate(
        [idx, rng.choice(g.num_points, 14_500, replace=False)]))
    assert b.card * (g.n + 1) > 1 << 16
    assert census_module.position_dtype(b.card) == np.uint16
    rows = np.sort(np.searchsorted(b.indices, idx).reshape(-1, q0 + 1), axis=1)
    # and as many rows of any points at such high positions
    high = np.arange(1 << 14, b.card)
    rows = np.vstack([rows] + [np.sort(rng.choice(high, q0 + 1, replace=False))
                               for _ in range(300)])
    assert (rows.max(axis=1) >= 1 << 14).all()
    narrow, wide = rows.astype(np.uint16), rows.astype(np.int64)
    got = structure.sublines_pass_batch(b, narrow, 3)
    assert np.array_equal(got, structure.sublines_pass_batch(b, wide, 3))
    assert got[:300].all() and not got[300:].all()
    # the plane kernel's members, quotiented by the lines of the rows
    operands = census_module.kernel_operands(fs, b.coords())
    basis = structure._line_bases(fs, operands, rows[:, 0], rows[:, 1])
    keys = [census_module.quotient_keys(fs, operands, basis, cols=True,
                                        take=take)[0]
            for take in (narrow, wide)]
    assert all(np.array_equal(a, w) for a, w in zip(*keys))


def test_check_sublines_corpus(baer_49, trace_343):
    out = structure.check_sublines(baer_49, 1)
    assert out["checked"] == 57 and out["violations"] == []
    out = structure.check_sublines(trace_343, 1)
    assert out["checked"] > 0 and out["violations"] == []


def test_check_sublines_flags_random_set(baer_49):
    g = baer_49.geometry
    rng = np.random.default_rng(11)
    b = PointSet(g, rng.choice(g.num_points, 57, replace=False))
    out = structure.check_sublines(b, 1)
    # a random 57-point set has 8-secants only by accident; none required
    assert out["violations"] == [] or len(out["violations"]) <= out["checked"]


def test_is_subplane(baer_49, planar_baer_3d):
    assert structure.is_subplane(baer_49, 7)
    assert structure.is_subplane(planar_baer_3d, 7)
    g = baer_49.geometry
    off = next(i for i in range(g.num_points) if i not in baer_49)
    bad = baer_49.remove(int(baer_49.indices[0])).add(off)
    assert not structure.is_subplane(bad, 7)
    with pytest.raises(structure.WrongSize):
        structure.is_subplane(baer_49.add(off), 7)
    g3 = planar_baer_3d.geometry
    # a point off the carrier plane x3 = 0
    off3 = next(i for i in range(g3.num_points) if g3.coords_of(i)[3])
    with pytest.raises(structure.NotPlanar):
        structure.is_subplane(
            planar_baer_3d.remove(int(planar_baer_3d.indices[0])).add(off3),
            7)


def test_plane_census_planar_baer(planar_baer_3d):
    b = planar_baer_3d
    census = line_census(b, collect_sizes=[8])
    secants = census.secant_members(8)
    assert len(secants) == 57
    for sec in secants[:5]:
        pc = structure.plane_census(b, sec, 7)
        # only the carrier plane holds points of B off the secant, and it is good
        assert pc.good_count == 1 and pc.bad_count == 0


def test_lemma_suite_baer(baer_49):
    rep = blocking.analyze(baer_49, with_point_exponents=True)
    entries = structure.run_lemma_suite(baer_49, rep)
    by = {e["check"]: e for e in entries}
    # the size bound starts at h = 3; at h = 2 it is reported, not enforced
    assert by["size"]["status"] == "INFORMATIONAL"
    assert by["blokhuis_secants"]["measured"] == "8"
    assert by["blokhuis_secants"]["bound"] == "7"
    assert by["blokhuis_secants"]["status"] == "PASS"
    assert all(e["status"] != "FAIL" for e in entries)


def test_lemma_suite_trace(trace_343):
    rep = blocking.analyze(trace_343, with_point_exponents=True)
    entries = structure.run_lemma_suite(trace_343, rep)
    by = {e["check"]: e for e in entries}
    assert by["size"]["bound"] == "402" and by["size"]["measured"] == "393"
    assert by["size"]["status"] == "PASS"
    assert by["secants_per_point"]["bound"] == "22"
    assert all(e["status"] != "FAIL" for e in entries)


def test_lemma_suite_planar_baer(planar_baer_3d):
    rep = blocking.analyze(planar_baer_3d, with_point_exponents=True)
    entries = structure.run_lemma_suite(planar_baer_3d, rep)
    assert all(e["status"] != "FAIL" for e in entries)
    by = {e["check"]: e for e in entries}
    assert "good_planes" in by and "one_all_bad_secant" in by


@pytest.fixture(scope="module")
def all_bad_3d(planar_baer_3d):
    """The planar Baer subplane of PG(3, 49) without one point, plus two
    points off its plane: the 8-secants that miss the removed point see
    only bad planes (56 points, or 9)."""
    g = planar_baer_3d.geometry
    rest = planar_baer_3d.remove(int(planar_baer_3d.indices[0]))
    return rest.union(PointSet.from_coords(g, [(0, 0, 0, 1), (0, 1, 3, 1)]))


@pytest.fixture(scope="module")
def trace_3d(trace_343):
    """``trace_343`` in the plane x3 = 0 of PG(3, 343): lines of 1, 8 and
    50 points, and one plane, of 393 points, through each 8-secant."""
    g = build_geometry(3, trace_343.geometry.fs)
    coords = trace_343.coords()
    return PointSet.from_coords(
        g, np.hstack([coords, np.zeros((len(coords), 1), dtype=np.int64)]))


@pytest.fixture(scope="module")
def trace_3d_off(trace_3d):
    """``trace_3d`` and one point off its plane: lines of 1, 2, 8 and 50
    points, and planes of 393 and 9 points through each 8-secant."""
    return trace_3d.add(trace_3d.geometry.index_of((0, 0, 0, 1)))


@pytest.fixture(scope="module")
def rank5_pg3_81_off(rank5_pg3_81):
    """``rank5_pg3_81`` and its six lowest points off it: lines of 2, 4, 5
    and 6 points, 722 of them 2-secants, so an anchor's row mixes its
    4-secants with 2-secant members."""
    g = rank5_pg3_81.geometry
    off = [i for i in range(g.num_points) if i not in rank5_pg3_81][:6]
    b = rank5_pg3_81
    for i in off:
        b = b.add(i)
    return b


@pytest.fixture(scope="module")
def rank6_pg4_243():
    """Rank-6 GF(3)-linear set of PG(4, 3^5) spanned by e1 ... e5 and
    (3, 9, 1, 0, 0): 364 points on 10,998 4-secants and one 13-point
    line."""
    g = build_geometry(4, make_field(3, 5))
    vecs = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    vecs.append((3, 9, 1, 0, 0))
    return SpreadContext(g, 1).linear_set_from_vectors(vecs)


def _census(b, q0):
    return line_census(b, collect_sizes=[q0 + 1], mode="full")


def _anchor_width(census, secants):
    """The most lines of 2 or more points through one anchor: the width of
    a plane kernel row."""
    return int(census.per_point_secants[np.unique(secants[:, 0])].max())


# secants sampled (seeded) per set; the other sets check every secant
_PLANE_SAMPLE = {"rank6_pg4_243": 300}


@pytest.mark.parametrize("name,q0", [("planar_baer_3d", 7),
                                     ("rank5_pg3_81", 3),
                                     ("rank5_pg3_16", 2),
                                     ("all_bad_3d", 7),
                                     ("trace_3d", 7),
                                     ("trace_3d_off", 7),
                                     ("rank5_pg3_81_off", 3),
                                     ("rank6_pg4_243", 3)])
@pytest.mark.parametrize("words", ["one", "lexsort"])
def test_plane_block_data_matches_scalar(request, monkeypatch, name, q0,
                                         words):
    # every secant of each set, mixed line sizes in all_bad_3d (2, 3, 7, 8),
    # the trace sets (8 and 50, and 2 with the point off the plane) and
    # rank5_pg3_81_off (2, 4, 5 and 6); a seeded sample of 300 of the
    # 10,998 4-secants of rank6_pg4_243, in PG(4, q), whose anchors also
    # lie on its 13-point line
    b = request.getfixturevalue(name)
    census = _census(b, q0)
    secants = census.secants[q0 + 1]
    assert len(secants) > 40
    if name in _PLANE_SAMPLE:
        pick = np.random.default_rng(0).choice(len(secants),
                                               _PLANE_SAMPLE[name],
                                               replace=False)
        secants = secants[np.sort(pick)]
    # 40 secants per block and 3 per tile: several of each
    width = _anchor_width(census, secants)
    monkeypatch.setattr("lingeo.census.BLOCK_ELEMS", 40 * width)
    monkeypatch.setattr("lingeo.census.TILE_ELEMS", 3 * width)
    if words == "lexsort":
        monkeypatch.setattr("lingeo.census._WORD_BITS",
                            int(b.geometry.fs.q - 1).bit_length())
    _assert_matches_scalar(b, structure.plane_block_data(b, secants, q0),
                           secants, q0)


def _assert_matches_scalar(b, got, secants, q0):
    """``plane_block_data``'s ``got`` against one ``plane_census`` per
    secant."""
    sizes = set()
    for i, sec in enumerate(b.indices[secants]):
        pc = structure.plane_census(b, sec, q0)
        assert got.good[i] == pc.good_count
        assert got.min_size[i] == min((size for _k, size, _g in pc.planes),
                                      default=0)
        sizes.update(size for _k, size, _g in pc.planes)
    assert got.sizes == sorted(sizes)


def test_plane_block_data_on_pair_mode_secants(all_bad_3d):
    # a pair-mode census holds the 8-secants, the longest lines, but not
    # the 2-, 3- and 7-secants, so it counts no secants per point; the
    # plane kernel's row widths come from the anchors' own rows
    census = line_census(all_bad_3d, mode="pair")
    assert census.per_point_secants is None and set(census.secants) == {8}
    secants = census.secants[8]
    _assert_matches_scalar(all_bad_3d,
                           structure.plane_block_data(all_bad_3d, secants,
                                                      7),
                           secants, 7)


def test_plane_lines_take_no_census_pass(monkeypatch, rank5_pg3_81,
                                         trace_3d_off, all_bad_3d):
    # the lines through each anchor are read off its census-kernel row,
    # whatever sizes a census of B holds: every line of rank5_pg3_81 that
    # meets it twice is a 4-secant; trace_3d_off has lines of 2, 8 and 50
    # points, and its census holds only the 50-secants; all_bad_3d has
    # lines of 2, 3, 7 and 8 points, and its census holds only the
    # 8-secants
    rank5 = line_census(rank5_pg3_81)
    trace = line_census(trace_3d_off, mode="full")
    assert set(trace.hist) == {1, 2, 8, 50} and set(trace.secants) == {50}
    bad = line_census(all_bad_3d)
    assert set(bad.hist) == {1, 2, 3, 7, 8} and set(bad.secants) == {8}
    runs = [(rank5_pg3_81, rank5.secants[4][:50], 3),
            (trace_3d_off, _census(trace_3d_off, 7).secants[8][:50], 7),
            (all_bad_3d, bad.secants[8], 7)]
    passes = []
    census_pass = census_module.line_census

    def counted(*args, **kwargs):
        passes.append(kwargs)
        return census_pass(*args, **kwargs)

    monkeypatch.setattr(census_module, "line_census", counted)
    for b, secants, q0 in runs:
        for _ in range(2):
            structure.plane_block_data(b, secants, q0)
    assert passes == []


def _scalar_plane_entries(b, report, census, cap):
    """The plane entries of the bound suite from one scalar
    ``plane_census`` per secant (the suite's earlier loop)."""
    q0, h = report.q0, report.h
    secants = census.secant_members(q0 + 1)
    capped = cap is not None and len(secants) > cap
    if cap is not None:
        secants = secants[:cap]
    bound, info = structure.bound_value("good_planes", q0, h)
    plane_sizes, dichotomy_ok, worst_good, all_bad = set(), True, None, {}
    for sec in secants:
        pc = structure.plane_census(b, sec, q0)
        plane_sizes.update(size for _k, size, _g in pc.planes)
        if pc.good_count == 0:
            for i in sec:
                all_bad[i] = all_bad.get(i, 0) + 1
            if any(size < q0 ** 3 + q0 + 1 for _k, size, _g in pc.planes):
                dichotomy_ok = False
        else:
            dichotomy_ok &= pc.good_count >= bound
            if worst_good is None or pc.good_count < worst_good:
                worst_good = pc.good_count

    def status(ok, informational=False):
        return "INFORMATIONAL" if informational else ("PASS" if ok else "FAIL")

    pm, pgap, pcap = (structure.bound_value(k, q0)[0]
                      for k in ("plane_min", "plane_gap", "plane_cap"))
    out = []
    if plane_sizes:
        lo, hi = min(plane_sizes), max(plane_sizes)
        out.append(structure._entry("plane_min", pm, lo,
                                    status(lo >= pm, h < 2)))
        out.append(structure._entry(
            "plane_gap", pgap, hi,
            status(all(not pm < s < pgap for s in plane_sizes), h < 2)))
        out.append(structure._entry(
            "plane_cap", pcap, hi,
            status(hi <= pcap, h < 2) if report.span_dim == h - 1
            else "OUTSIDE_HYPOTHESES",
            "" if report.span_dim == h - 1
            else "set does not span an (h-1)-space"))
    note = "secant sample capped" if capped else ""
    out.append(structure._entry(
        "good_planes", bound, worst_good if worst_good is not None else "-",
        status(dichotomy_ok, info or q0 < 7), note))
    out.append(structure._entry(
        "one_all_bad_secant", 1, max(all_bad.values(), default=0),
        status(all(v <= 1 for v in all_bad.values())), note))
    return out


@pytest.mark.parametrize("name,report_of", [("planar_baer_3d", None),
                                            ("rank5_pg3_81", None),
                                            ("all_bad_3d", "planar_baer_3d")])
@pytest.mark.parametrize("cap", [None, 20])
def test_lemma_suite_plane_entries_match_scalar_census(request, name,
                                                       report_of, cap):
    b = request.getfixturevalue(name)
    rep = blocking.analyze(request.getfixturevalue(report_of or name))
    # statuses read PASS / FAIL only under the small-minimal hypothesis
    rep = dataclasses.replace(rep, is_blocking=True, is_minimal=True,
                              is_small=True)
    census = line_census(b, collect_sizes=[rep.q0 + 1], mode="full")
    want = _scalar_plane_entries(b, rep, census, cap)
    checks = {e["check"] for e in want}
    got = [e for e in structure.run_lemma_suite(b, rep, census=census,
                                                plane_secant_cap=cap)
           if e["check"] in checks]
    assert got == want
    if name == "all_bad_3d":
        one_bad = {e["check"]: e for e in got}["one_all_bad_secant"]
        assert one_bad["status"] == "FAIL" and int(one_bad["measured"]) > 1


def test_pair_mode_census_with_shadowed_secants(trace_343):
    # 8-secants lie under 50-point lines, which pair mode cannot collect
    census = line_census(trace_343, mode="pair")
    assert max(census.hist) > 8
    rep = blocking.analyze(trace_343, with_point_exponents=True)
    assert (structure.check_sublines(trace_343, 1, census=census)
            == structure.check_sublines(trace_343, 1))
    assert (structure.run_lemma_suite(trace_343, rep, census=census)
            == structure.run_lemma_suite(trace_343, rep))
    assert (structure.certify_linearity(trace_343, rep,
                                        census=census).to_json_dict()
            == structure.certify_linearity(trace_343, rep).to_json_dict())
    # the collection is cached beside the census, which stays as it was
    assert census.with_secants(8) is census.with_secants(8)
    assert 8 not in census.secants and census.per_point_secants is None


def test_certify_baer(baer_49):
    rep = blocking.analyze(baer_49)
    cert = structure.certify_linearity(baer_49, rep)
    assert cert.verified and cert.xi_dim == 2
    ctx = SpreadContext(baer_49.geometry, 1)
    assert ctx.linear_set_from_subspace(cert.xi) == baer_49
    labels = cert.hypothesis_labels
    # p = 7 > 5h - 11 = -1, but a Baer subplane spans a plane, not a line
    assert labels["p_gt_5h_minus_11"] and not labels["spans_h_minus_1"]
    assert not labels["inside"]
    # labels outside the theorem's hypotheses, under their own names
    assert labels["q0_ge_7"] and not labels["h_gt_3"]


def test_span_hypotheses_test_p_not_q0():
    # PG(n, 2^16) with e = 4: q0 = 16 > 5h - 11 = 9, but p = 2 is not
    labels = structure.check_span_hypotheses(2, 16, 4, 3)
    assert labels["spans_h_minus_1"] and labels["q0_ge_7"]
    assert not labels["p_gt_5h_minus_11"] and not labels["inside"]
    assert structure.check_span_hypotheses(11, 11, 4, 3)["inside"]
    assert not structure.check_span_hypotheses(11, 11, 4, 2)["inside"]


@pytest.fixture(scope="module")
def subline_and_non_subline_49(pg2_49):
    """Two 8-secants of PG(2, 49) through (1:0:0), the lowest point: the
    subline {(1:c:0) : c in GF(7)} + (0:1:0), and {(1:0:c) : c = 0..7} on
    y = 0, not a subline, as x (code 7) is off the subline GF(7) + oo
    through 0, 1, 2.  Its next four points lie on the second secant only,
    so the first anchor's certificate is the last one made."""
    return PointSet(pg2_49, list(range(8)) + [49 * c for c in range(1, 7)]
                    + [pg2_49.index_of((0, 1, 0))])


@pytest.mark.parametrize("name,report_of,skipped", [
    pytest.param("baer_49", None, 0, id="baer_49"),
    pytest.param("trace_343", None, 0, id="trace_343"),
    pytest.param("subline_and_non_subline_49", "baer_49", 1,
                 id="subline_and_non_subline_49")])
def test_certify_lifts_the_short_secants_through_its_anchor(
        request, name, report_of, skipped):
    b = request.getfixturevalue(name)
    rep = blocking.analyze(request.getfixturevalue(report_of or name))
    cert = structure.certify_linearity(b, rep)
    assert cert.verified == (skipped == 0)
    # the (q0+1)-secants through the anchor, from a scalar grouping
    g = b.geometry
    anchor = g.coords_of(cert.anchor_index)
    lines = {}
    for i, c in zip(b.indices.tolist(), b.coords().tolist()):
        if i != cert.anchor_index:
            lines.setdefault(g.line_through(anchor, c).basis,
                             [cert.anchor_index]).append(i)
    # brute force: the reduced line <x, y>, y in Q1's spread element,
    # that maps onto the secant; a secant with none is skipped
    ctx = SpreadContext(g, rep.exponent_e)
    lifted, n_skipped = set(), 0
    for members in lines.values():
        if len(members) != rep.q0 + 1:
            continue
        s = PointSet(g, members)
        q1 = g.coords_of(min(members[1:]))
        found = [line for y in ctx.spread_element(q1).coords_array().tolist()
                 for line in [Subspace(ctx.reduced, [cert.x_coords, y])]
                 if ctx.linear_set_from_subspace(line) == s]
        assert len(found) <= 1
        lifted.update(found)
        n_skipped += not found
    assert n_skipped == len(cert.skipped) == skipped
    assert lifted == {Subspace(ctx.reduced, line.tolist())
                      for line in cert.lifted_lines}
    assert cert.xi.basis == Subspace(
        ctx.reduced, [r for line in lifted for r in line.basis]).basis


def test_certify_trace(trace_343):
    rep = blocking.analyze(trace_343)
    cert = structure.certify_linearity(trace_343, rep)
    assert cert.verified and cert.xi_dim == 3
    ctx = SpreadContext(trace_343.geometry, 1)
    assert ctx.linear_set_from_subspace(cert.xi) == trace_343


def test_certify_rejects_non_minimal(line_49):
    g = line_49.geometry
    fat = line_49.add(next(i for i in range(g.num_points) if i not in line_49))
    rep = blocking.analyze(fat)
    with pytest.raises(structure.NotSmallMinimal):
        structure.certify_linearity(fat, rep)
