from fractions import Fraction

import numpy as np
import pytest

from lingeo import blocking, structure
from lingeo.census import line_census
from lingeo.gf import make_field
from lingeo.pg import PointSet, build_geometry
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
    secants = np.array(census.secant_members(8), dtype=np.int64)
    verdicts = structure.sublines_pass_batch(baer_49, secants, 1)
    g = baer_49.geometry
    for row, v in zip(secants, verdicts):
        assert structure.is_subline(PointSet(g, row), 1) == bool(v)
    assert verdicts.all()


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


def test_is_subplane(baer_49):
    assert structure.is_subplane(baer_49, 7)
    g = baer_49.geometry
    off = next(i for i in range(g.num_points) if i not in baer_49)
    bad = baer_49.remove(int(baer_49.indices[0])).add(off)
    assert not structure.is_subplane(bad, 7)


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


def test_lemma_suite_one_plane_census_per_secant(planar_baer_3d, monkeypatch):
    rep = blocking.analyze(planar_baer_3d)
    census = line_census(planar_baer_3d, collect_sizes=[8])
    calls = []
    real = structure.plane_census

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(structure, "plane_census", counting)
    structure.run_lemma_suite(planar_baer_3d, rep, census=census)
    assert len(calls) == census.secant_members(8).shape[0] > 0


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
    assert cert.hypothesis_labels["q0_ge_7"]
    assert not cert.hypothesis_labels["h_gt_3"]


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
