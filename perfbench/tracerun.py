"""Traced run: the CLI's call sequence timed layer by layer from outside.

``verify_pipeline`` and ``search_pipeline`` make the same public calls as
``cmd_verify`` / ``cmd_search``, in the same order and with the same
arguments; each call is a *pipeline* span.  The probes then repeat work
that those calls hide (a census with collected secants, the blocking
sub-steps, the plane census, gf kernels sized like one census block) as
*probe* spans.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

from lingeo import blocking, structure
from lingeo.census import line_census
from lingeo.fileio import read_point_set
from lingeo.gf import make_field
from lingeo.pg import build_geometry, right_nullspace
from lingeo.search import SearchConfig, enumerate_minimal, verify_catalog


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, op, kind):
        rec = {"name": name, "op": op, "kind": kind,
               "parent": self._open[-1] if self._open else None}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_time(self, i):
        """Span duration minus the part its (sequential) children cover."""
        rec = self.spans[i]
        kids = sum(s["end"] - s["start"] for s in self.spans if s["parent"] == i)
        return rec["end"] - rec["start"] - kids

    def layer_times(self, op, kind):
        """name -> summed self time of the spans of one op and kind."""
        out = {}
        for i, s in enumerate(self.spans):
            if s["op"] == op and s["kind"] == kind and s["parent"] is not None:
                out[s["name"]] = out.get(s["name"], 0.0) + self.self_time(i)
        return out

    def root(self, op):
        return next(s for s in self.spans if s["op"] == op
                    and s["kind"] == "pipeline" and s["parent"] is None)

    def write(self, path):
        path.write_text(json.dumps(self.spans, indent=1) + "\n")


# ---------------------------------------------------------------------------
# pipelines: one traced op each


def verify_pipeline(tr: Tracer, op, wl, path):
    with tr.span("cli.verify", op, "pipeline"):
        with tr.span("fileio.read_point_set", op, "pipeline"):
            b = read_point_set(path)
        with tr.span("census.line_census", op, "pipeline"):
            census = line_census(b)
        with tr.span("blocking.analyze", op, "pipeline"):
            report = blocking.analyze(b, seed=0,
                                      with_point_exponents=(b.geometry.n == 2),
                                      census=census)
        e = report.exponent_e
        sublines = None
        if e and b.geometry.fs.t % e == 0:
            with tr.span("structure.check_sublines", op, "pipeline"):
                sublines = structure.check_sublines(b, e, census=census)
        with tr.span("structure.run_lemma_suite", op, "pipeline"):
            lemmas = structure.run_lemma_suite(b, report, census=census,
                                               plane_secant_cap=wl.cap)
        with tr.span("structure.certify_linearity", op, "pipeline"):
            try:
                cert = structure.certify_linearity(b, report, census=census)
                cert = cert.to_json_dict()
            except structure.StructureError as exc:
                cert = str(exc)
    return {"b": b, "census": census, "report": report, "sublines": sublines,
            "lemmas": lemmas, "cert": cert}


def verify_consistency(wl, res, out) -> list:
    """Pipeline results against the CLI report of the same input."""
    doc, checks = wl.read_report(out)
    problems = []
    hist = res["census"].hist
    if checks["1modp"]["detail"] != f"line sizes {sorted(hist)}":
        problems.append(f"histogram sizes {sorted(hist)} vs {checks['1modp']}")
    if hist.get(wl.line_sizes[1]) != wl.short_secants:
        problems.append(f"histogram {hist}: want {wl.short_secants} short secants")
    if json.loads(res["report"].to_json()) != doc["report"]:
        problems.append("blocking report (verdicts) differs")
    sub = res["sublines"]
    detail = (f"{sub['checked']} short secants checked, "
              f"{len(sub['violations'])} violations") if sub else None
    if checks.get("sublines", {}).get("detail") != detail:
        problems.append(f"sublines {detail} vs {checks.get('sublines')}")
    if res["lemmas"] != doc["lemmas"]:
        problems.append("lemma entries differ")
    cert = res["cert"]
    if isinstance(cert, str):
        if checks["certify"]["detail"] != cert:
            problems.append("certifier error differs")
    elif cert != doc["certificate"]:
        problems.append("certificate differs")
    return problems


def search_pipeline(tr: Tracer, op, wl, path):
    with tr.span("cli.search", op, "pipeline"):
        with tr.span("gf.make_field", op, "pipeline"):
            fs = make_field(wl.p, wl.t, "auto")
        with tr.span("pg.build_geometry", op, "pipeline"):
            g = build_geometry(wl.n, fs)
        cfg = SearchConfig(g, max_size=wl.max_size, seed=0,
                           parallel_width=wl.threads, guard=100)
        with tr.span("search.enumerate_minimal", op, "pipeline"):
            res = enumerate_minimal(cfg)
        with tr.span("search.verify_catalog", op, "pipeline"):
            ver = verify_catalog(res)
    return {"res": res, "ver": ver}


def search_consistency(wl, res, out) -> list:
    index, _ = wl.read_catalog(out)
    r, ver = res["res"], res["ver"]
    problems = []
    for key, mine in (("total", len(r.catalog)), ("nodes", r.nodes),
                      ("pruned", r.pruned), ("entries", ver["entries"]),
                      ("one_mod_p_alarms", ver["one_mod_p_alarms"])):
        if index[key] != mine:
            problems.append(f"{key} differs from the CLI report")
    return problems


# ---------------------------------------------------------------------------
# probes


def _median_time(fn, reps=3, calls=1):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def gf_bytes_per_elem(fs):
    """Modelled bytes moved per element by vmul / vadd.

    Every numpy pass of the current implementation counts its operands
    read and its result written (int64 8 bytes, bool 1 byte); a table
    gather reads one table entry per element.
    """
    vmul = 4 * 24 + 9 + 9 + 3 + 17          # 2 log gathers, add, exp gather, masks, where
    if fs.p == 2:
        vadd = 24                            # xor
    elif fs.t == 1:
        vadd = 24 + 16                       # add, mod
    else:
        vadd = 4 * 24                        # 2 spread gathers, add, unspread gather
    return {"vmul": vmul, "vadd": vadd}


def census_block_elems(m, fs, n):
    """Elements of one line-census block for an m-point set."""
    d = n + 1
    keybits = max(1, int(fs.q - 1).bit_length()) * d
    bs = max(1, min(1 << (62 - keybits), max(1, (1 << 21) // m)))
    return min(bs, m) * m * d


def gf_probes(fs, elems, seed):
    rng = np.random.default_rng(seed)
    a, b = (rng.integers(0, fs.q, elems) for _ in range(2))
    calls = max(1, 1_000_000 // elems)
    per = 1e6 / elems
    nbytes = gf_bytes_per_elem(fs)
    return {
        "gf.vmul_melem_s": _median_time(lambda: fs.vmul(a, b), calls=calls) * per,
        "gf.vadd_melem_s": _median_time(lambda: fs.vadd(a, b), calls=calls) * per,
        "gf.vmul_bytes_per_elem": nbytes["vmul"],
        "gf.vadd_bytes_per_elem": nbytes["vadd"],
    }


def _census_counts(census):
    hist = census.hist
    return (sum(hist.values()), sum(c for s, c in hist.items() if s >= 2))


def verify_probes(tr: Tracer, op, wl, res, seed):
    b, report, census = res["b"], res["report"], res["census"]
    fs, g = b.geometry.fs, b.geometry
    m = b.card
    out = {}
    with tr.span("probes", op, "probe"):
        with tr.span("gf.kernels", op, "probe"):
            out.update(gf_probes(fs, census_block_elems(m, fs, g.n), seed))
        with tr.span("gf.make_field", op, "probe"):
            out["gf.make_field_s"] = _median_time(
                lambda: make_field(fs.p, fs.t, fs.modulus))
        with tr.span("pg.right_nullspace", op, "probe") as sp:
            for c in b.coords():
                right_nullspace(fs, [tuple(int(x) for x in c)])
        out["pg.right_nullspace_s"] = sp["end"] - sp["start"]
        collected = None
        if report.q0:
            with tr.span("census.collect", op, "probe") as sp:
                collected = line_census(b, collect_sizes=[report.q0 + 1])
            out["census.collect_s"] = sp["end"] - sp["start"]
        if report.strategy == "structural":
            with tr.span("blocking.randomized_tangent_witnesses", op, "probe") as sp:
                wit, _ = blocking.randomized_tangent_witnesses(b, seed=0)
            out["blocking.witness_s"] = sp["end"] - sp["start"]
            out["blocking.witness_found_ratio"] = len(wit) / m
        if g.n >= 3 and collected is not None:
            secants = collected.secant_members(report.q0 + 1)[:wl.cap]
            with tr.span("structure.distinct_plane_sizes", op, "probe") as sp:
                planes = structure.distinct_plane_sizes(b, secants)
            out["structure.plane_s"] = sp["end"] - sp["start"]
            out["structure.planes"] = len(planes)
    lines, secants = _census_counts(census)
    out.update({
        "census.lines": lines, "census.secants": secants,
        # a pair-mode census without collected sizes has no per-point counts
        "census.pair_mode": int(census.per_point_secants is None),
        "structure.sublines_checked": res["sublines"]["checked"]
        if res["sublines"] else 0,
        "_census_pairs": m * (m - 1) // 2,
    })
    return out


def _is_line(rep, fs):
    return rep.size == fs.q + 1 and rep.span_dim == 1


def search_probes(tr: Tracer, op, wl, res, seed):
    r = res["res"]
    catalog, reports = r.catalog, r.reports
    fs, g = catalog[0].geometry.fs, catalog[0].geometry
    biggest = max(b.card for b in catalog)
    out = {}
    lines = secants = pairs = 0
    with tr.span("probes", op, "probe"):
        with tr.span("gf.kernels", op, "probe"):
            out.update(gf_probes(fs, census_block_elems(biggest, fs, g.n), seed))
        with tr.span("gf.make_field", op, "probe"):
            out["gf.make_field_s"] = _median_time(
                lambda: make_field(fs.p, fs.t, fs.modulus))
        with tr.span("pg.right_nullspace", op, "probe"):
            for b in catalog:
                for c in b.coords():
                    right_nullspace(fs, [tuple(int(x) for x in c)])
        # what verify_catalog and the leaf checks do per entry, summed
        with tr.span("census.line_census", op, "probe"):
            for b in catalog:
                lc, sc = _census_counts(line_census(b))
                lines, secants = lines + lc, secants + sc
                pairs += b.card * (b.card - 1) // 2
        with tr.span("census.collect", op, "probe"):
            for b, rep in zip(catalog, reports):
                if rep.q0 and not _is_line(rep, fs):
                    line_census(b, collect_sizes=[rep.q0 + 1])
        with tr.span("blocking.analyze", op, "probe"):
            for b in catalog:
                blocking.analyze(b)
        with tr.span("blocking.is_blocking", op, "probe") as sp:
            for b in catalog:
                blocking.is_blocking(b)
        out["blocking.is_blocking_s"] = sp["end"] - sp["start"]
        with tr.span("blocking.is_minimal", op, "probe") as sp:
            for b in catalog:
                blocking.is_minimal(b)
        out["blocking.is_minimal_ms"] = (sp["end"] - sp["start"]) * 1e3 / len(catalog)
        with tr.span("structure.certify_linearity", op, "probe"):
            for b, rep in zip(catalog, reports):
                if not _is_line(rep, fs):
                    try:
                        structure.certify_linearity(b, rep)
                    except structure.NoSecant:
                        pass
    probe = tr.layer_times(op, "probe")
    out.update({
        "census.line_census_s": probe["census.line_census"],
        "census.collect_s": probe["census.collect"],
        "blocking.analyze_s": probe["blocking.analyze"],
        "structure.certify_s": probe["structure.certify_linearity"],
        "pg.right_nullspace_s": probe["pg.right_nullspace"],
        "census.lines": lines, "census.secants": secants,
        "census.pair_mode": 0,
        "search.nodes": r.nodes, "search.leaves": r.leaves,
        "search.duplicates": r.duplicates, "search.pruned": r.pruned,
        "search.unique_leaf_ratio": (r.leaves - r.duplicates) / r.leaves,
        "_census_pairs": pairs,
    })
    return out


# pipeline span -> per-layer metric
PIPELINE_METRICS = {
    "fileio.read_point_set": "fileio.read_s",
    "census.line_census": "census.line_census_s",
    "blocking.analyze": "blocking.analyze_s",
    "structure.check_sublines": "structure.check_sublines_s",
    "structure.run_lemma_suite": "structure.lemma_suite_s",
    "structure.certify_linearity": "structure.certify_s",
    "search.enumerate_minimal": "search.enumerate_s",
    "search.verify_catalog": "search.verify_catalog_s",
}


def layer_metrics(tr: Tracer, op, untraced_wall, probe_metrics, names):
    """Every per-layer metric of one traced op; 0 for a layer the op skips."""
    pipe = tr.layer_times(op, "pipeline")
    root = tr.root(op)
    m = dict.fromkeys(names, 0.0)
    for span, metric in PIPELINE_METRICS.items():
        if span in pipe:
            m[metric] = pipe[span]
    m.update({k: v for k, v in probe_metrics.items() if not k.startswith("_")})
    if m["census.line_census_s"] > 0:
        m["census.pairs_per_s"] = probe_metrics["_census_pairs"] / m["census.line_census_s"]
    if m["search.enumerate_s"] > 0:
        m["search.nodes_per_s"] = m["search.nodes"] / m["search.enumerate_s"]
    m["cli.overhead_s"] = untraced_wall - sum(pipe.values())
    m["trace.overhead_s"] = (root["end"] - root["start"]) - untraced_wall
    return m


PIPELINES = {
    "verify": (verify_pipeline, verify_consistency, verify_probes),
    "search": (search_pipeline, search_consistency, search_probes),
}
