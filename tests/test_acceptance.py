"""Acceptance gate: nine timed end-to-end criteria, one summary line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines as they complete.  Heavy artifacts (corpus censuses, blocking
reports) are computed inside the first criterion that needs them and
shared with later ones through session fixtures, so each reported time
covers the real verification work done for that criterion.
"""

import time

import numpy as np
import pytest

from lingeo.blocking import (analyze, find_tangent_only_point,
                             project, reduce_to_minimal)
from lingeo.cli import main as cli_main
from lingeo.constructions import random_linear_blocking_set
from lingeo.fileio import write_point_set
from lingeo.gf import make_field
from lingeo.pg import PointSet, build_geometry
from lingeo.reduction import SpreadContext
from lingeo.search import (SearchConfig, brute_force_minimal,
                           enumerate_minimal, verify_catalog)
from lingeo.structure import certify_linearity, check_sublines, run_lemma_suite

_PRIME_POWERS_128 = [
    (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
    (3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3),
    (7, 1), (7, 2), (11, 1), (11, 2), (13, 1), (17, 1), (19, 1),
    (23, 1), (29, 1), (31, 1), (37, 1), (41, 1), (43, 1), (47, 1),
    (53, 1), (59, 1), (61, 1), (67, 1), (71, 1), (73, 1), (79, 1),
    (83, 1), (89, 1), (97, 1), (101, 1), (103, 1), (107, 1),
    (109, 1), (113, 1), (127, 1),
]


def _report(n, detail, t0):
    print(f"criterion {n}: PASS — {detail} ({time.time() - t0:.1f}s)")


def _axioms_hold(fs, a, b, c):
    """Vectorized field-axiom checks over given element-code arrays."""
    ok = np.array_equal(fs.vadd(fs.vadd(a, b), c), fs.vadd(a, fs.vadd(b, c)))
    ok &= np.array_equal(fs.vmul(fs.vmul(a, b), c), fs.vmul(a, fs.vmul(b, c)))
    ok &= np.array_equal(fs.vmul(a, fs.vadd(b, c)),
                         fs.vadd(fs.vmul(a, b), fs.vmul(a, c)))
    ok &= np.array_equal(fs.vadd(a, b), fs.vadd(b, a))
    ok &= np.array_equal(fs.vmul(a, b), fs.vmul(b, a))
    return bool(ok)


@pytest.fixture(scope="session")
def corpus_reports(corpus, corpus_censuses):
    """name -> BlockingReport, exact where the hyperplane family allows."""
    out = {}
    for name, b, e in corpus:
        assume = True if name == "scattered-pg3-11^4" else None
        out[name] = analyze(b, assume_blocking=assume,
                            census=corpus_censuses[name])
    return out


def test_criterion_1_field_and_geometry_substrate():
    t0 = time.time()
    # exhaustive axioms for every field of order <= 128
    for p, t in _PRIME_POWERS_128:
        fs = make_field(p, t)
        q = fs.q
        e = np.arange(q, dtype=np.int64)
        a, b, c = (x.ravel() for x in np.meshgrid(e, e, e, indexing="ij",
                                                  sparse=False, copy=False))
        assert _axioms_hold(fs, a, b, c), f"axiom failure in GF({q})"
        # identities and inverses, exhaustively per element
        assert np.array_equal(fs.vadd(e, 0), e)
        assert np.array_equal(fs.vmul(e, 1), e)
        assert np.all(fs.vadd(e, fs.vneg(e)) == 0)
        nz = e[1:]
        assert np.all(fs.vmul(nz, fs.vinv(nz)) == 1)
    # sampled axioms in GF(7^5)
    fs = make_field(7, 5)
    rng = np.random.default_rng(0)
    a, b, c = rng.integers(0, fs.q, (3, 100_000))
    assert _axioms_hold(fs, a, b, c)
    nz = a[a != 0]
    assert np.all(fs.vmul(nz, fs.vinv(nz)) == 1)
    # PG(2,49): 2451 points and 2451 lines
    g = build_geometry(2, make_field(7, 2))
    assert g.num_points == 2451 and g.num_hyperplanes == 2451
    # field reduction of PG(2,49): the induced line spread of PG(5,7)
    # partitions its 19608 points into 2451 lines of 8
    ctx = SpreadContext(g, 1)
    assert ctx.reduced.num_points == 19608
    seen = []
    for i in range(g.num_points):
        rows = ctx.spread_element(g.coords_of(i)).coords_array()
        assert rows.shape[0] == 8
        seen.append(ctx.reduced.index_of_rows(rows))
    allpts = np.concatenate(seen)
    assert np.unique(allpts).size == 19608 == allpts.size
    dt = time.time() - t0
    assert dt < 10
    _report(1, f"{len(_PRIME_POWERS_128)} fields exhaustive, GF(7^5) sampled, "
            "PG(2,49)=2451/2451, PG(5,7) spread partitions 19608", t0)


def test_criterion_2_one_mod_p_exhaustive(request, corpus):
    t0 = time.time()
    censuses = request.getfixturevalue("corpus_censuses")
    details = []
    for name, b, e in corpus:
        p = b.geometry.fs.p
        census = censuses[name]
        # pair-count identity certifies the census saw every point pair
        assert census.pair_count_identity(), name
        bad = [s for s in census.hist if s % p not in (0, 1)]
        assert not bad, f"{name}: sizes {bad} violate 1 mod {p}"
        details.append(f"{name}:{sum(census.hist.values())} lines")
    dt = time.time() - t0
    assert dt < 120
    _report(2, "; ".join(details), t0)


def test_criterion_3_secant_sublines(corpus, corpus_censuses):
    t0 = time.time()
    total = 0
    for name, b, e in corpus:
        res = check_sublines(b, e, corpus_censuses[name])
        assert res["violations"] == [], name
        assert res["checked"] > 0, name
        total += res["checked"]
    dt = time.time() - t0
    assert dt < 60
    _report(3, f"{total} short secants are all sublines", t0)


def test_criterion_4_lemma_bound_suite(corpus, corpus_censuses,
                                       corpus_reports):
    t0 = time.time()
    lines = []
    for name, b, e in corpus:
        cap = 30 if b.card > 4096 else None
        entries = run_lemma_suite(b, corpus_reports[name],
                                  corpus_censuses[name],
                                  plane_secant_cap=cap)
        bad = [en for en in entries if en["status"] == "FAIL"]
        assert not bad, f"{name}: {bad}"
        n_pass = sum(en["status"] == "PASS" for en in entries)
        n_info = sum(en["status"] == "INFORMATIONAL" for en in entries)
        lines.append(f"{name}:{n_pass}P/{n_info}I")
    # spot values: size bound 402 at q0=7,h=3; Baer secants-per-point 8 >= 7
    trace_b = next(b for n, b, _ in corpus if n == "trace-pg2-343")
    trace = run_lemma_suite(trace_b, corpus_reports["trace-pg2-343"],
                            corpus_censuses["trace-pg2-343"])
    size_en = next(en for en in trace if en["check"] == "size")
    assert size_en["bound"] == "402" and int(size_en["measured"]) <= 402
    dt = time.time() - t0
    assert dt < 300
    _report(4, " ".join(lines), t0)


def test_criterion_5_certifier_round_trip(corpus, corpus_censuses,
                                          corpus_reports):
    t0 = time.time()
    jobs = [(7, 2, 3, 2, 9), (7, 3, 4, 3, 8), (11, 3, 4, 3, 8)]
    done = 0
    for p, t, rank, h, count in jobs:
        g = build_geometry(2, make_field(p, t))
        for seed in range(count):
            b, ctx, vecs = random_linear_blocking_set(g, 1, rank, seed=seed)
            rep = analyze(b)
            assert rep.is_blocking and rep.is_minimal and rep.is_small
            cert = certify_linearity(b, rep)
            assert cert.verified and cert.xi_dim == h, (p, t, seed)
            assert cert.hypothesis_labels, (p, t, seed)
            done += 1
    # the rank-5 instance over GF(11^4), reusing its census and report
    name = "scattered-pg3-11^4"
    big = next(b for n, b, _ in corpus if n == name)
    cert = certify_linearity(big, corpus_reports[name],
                             census=corpus_censuses[name])
    assert cert.verified and cert.xi_dim == 4
    done += 1
    dt = time.time() - t0
    assert dt < 600
    _report(5, f"{done} linear sets certified with B(xi) = B", t0)


def test_criterion_6_unique_reducibility(line_49):
    t0 = time.time()
    g = line_49.geometry
    extras = [i for i in range(g.num_points) if i not in line_49][:3]
    fat = line_49.union(PointSet(g, extras))
    assert fat.card == 53 and fat.card < 2 * g.fs.q
    results = {reduce_to_minimal(fat, order="random", seed=s)
               for s in range(20)}
    assert results == {line_49}
    _report(6, "20 seeded reduction orders all reach the same line", t0)


def test_criterion_7_exhaustive_small_catalogs():
    t0 = time.time()
    # oracle cross-check on the two smallest planes
    for p in (2, 3):
        g = build_geometry(2, make_field(p, 1))
        cfg = SearchConfig(g)
        res = enumerate_minimal(cfg)
        ours = {frozenset(int(i) for i in b.indices) for b in res.catalog}
        brute = {frozenset(combo)
                 for combo in brute_force_minimal(g, cfg.max_size)}
        assert ours == brute, f"PG(2,{p})"
    # complete catalog in PG(2,4) up to size 7
    g4 = build_geometry(2, make_field(2, 2))
    res = enumerate_minimal(SearchConfig(g4, max_size=7))
    assert len(res.catalog) == 381
    ver = verify_catalog(res)
    assert ver["one_mod_p_alarms"] == []
    kinds = {}
    for en in ver["entries"]:
        kinds[en["linearity"]] = kinds.get(en["linearity"], 0) + 1
        assert en["linearity"] in ("line", "linear"), en
    assert kinds == {"line": 21, "linear": 360}
    dt = time.time() - t0
    assert dt < 300
    _report(7, "PG(2,4): 21 lines + 360 linear sets; "
            "PG(2,2)/PG(2,3) match the subset oracle", t0)


def test_criterion_8_projection(planar_baer_3d):
    t0 = time.time()
    g = planar_baer_3d.geometry
    center = find_tangent_only_point(planar_baer_3d)
    assert center is not None
    qc = g.coords_of(center)
    dual = next(d for d in np.eye(g.n + 1, dtype=np.int64).tolist()
                if g.fs.vmatmul(qc, d) != 0)
    img, small = project(planar_baer_3d, qc, g.hyperplane_subspace(dual))
    rep = analyze(img)
    assert rep.is_blocking and rep.is_minimal and rep.is_small
    dt = time.time() - t0
    assert dt < 30
    _report(8, f"projected image of size {img.card} is small minimal "
            f"blocking in PG(2,{small.fs.q})", t0)


def test_criterion_9_thread_determinism(tmp_path, baer_49, trace_343):
    t0 = time.time()
    inputs = {}
    for name, b in (("baer", baer_49), ("trace", trace_343)):
        pf = tmp_path / f"{name}.txt"
        write_point_set(pf, b)
        inputs[name] = pf
    runs = [
        ("verify-baer", ["verify", str(inputs["baer"])]),
        ("verify-trace", ["verify", str(inputs["trace"]),
                          "--checks", "1modp,sublines,lemmas,certify"]),
        ("search-pg24", ["search", "--p", "2", "--t", "2", "--n", "2"]),
    ]
    compared = 0
    for label, argv in runs:
        blobs = []
        for th in ("1", "8"):
            out = tmp_path / f"{label}-t{th}"
            code = cli_main(argv + ["--threads", th, "--out", str(out)])
            assert code == 0, (label, th)
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())
                     if f.name != "manifest.json"}
            assert files, label
            blobs.append(files)
        assert blobs[0] == blobs[1], f"{label}: reports differ across threads"
        compared += len(blobs[0])
    _report(9, f"{compared} report files byte-identical for threads 1 vs 8",
            t0)
