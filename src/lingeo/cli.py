"""Command-line interface: build, verify, search, project.

Every run writes exactly one ``manifest.json`` (command echo, parsed
options, versions, wall time, the process's CPU seconds and minor page
faults where the platform reports them, outcome) into the output
directory; ``verify``'s outcome also says how its line census ran
(``LineCensus.stats``: strategy, points quotiented, passes).  Report
files contain no timing or machine-dependent data, so identical inputs
produce byte-identical reports regardless of ``--threads``.

``--threads`` (at least 1) is the worker count of ``verify``'s block
kernels: the line census, the subline batches and the plane blocks of
the lemma suite (``census.map_blocks``, clamped to the CPUs and the
blocks).  ``search`` accepts it and runs on one thread; ``build`` and
``project`` have no such option.  ``build linear-set --e`` and
``verify --plane-secant-cap``, when given, must be at least 1 as well.
``verify`` reads the subfield exponent e of its subline check off the
blocking report, as the certifier does.

Exit codes: 0 success / all checks pass; 1 at least one FAIL;
2 validation or parse error; 3 resource limit: the search guard tripped
without --force, a field above the 2^16 limit of the field tables, or a
space with more than 2^63 - 1 points, past the int64 point indices
(no flag overrides either limit).

Each command imports the modules that only it needs when it runs:
``verify`` imports ``structure``, ``search`` imports ``search`` and
``build`` imports ``constructions``.  A run with no bytecode cache
compiles every lingeo module it imports, and ``structure`` takes the
longest, so ``search`` and ``project`` do not pay for it; ``search``
imports it only to certify an entry that is not a line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__, blocking
from .census import line_census
from .fileio import (ParseError, parse_codes, point_set_to_text,
                     read_point_set, read_reduced_subspace, read_vectors,
                     write_point_set)
from .gf import FieldError, FieldTooLarge, make_field
from .pg import GeometryError, GeometryTooLarge, build_geometry
from .reduction import ReductionError, SpreadContext

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_GUARD = 3


def _versions():
    return {"lingeo": __version__, "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3])}


def _usage():
    """This process's CPU seconds and minor page faults so far, where
    the platform has ``resource``."""
    try:
        import resource
    except ImportError:
        return {}
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": round(ru.ru_utime + ru.ru_stime, 3),
            "minor_faults": ru.ru_minflt}


def _write_manifest(out, args, started, outcome):
    man = {
        "command": " ".join(args.argv),
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("func", "argv") and v is not None},
        "versions": _versions(),
        "wall_time_s": round(time.monotonic() - started, 3),
        **_usage(),
        "outcome": outcome,
    }
    (out / "manifest.json").write_text(json.dumps(man, indent=2,
                                                  default=str) + "\n")


def _outdir(args):
    from pathlib import Path
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _field(args):
    modulus = "auto"
    if getattr(args, "modulus", None):
        modulus = tuple(int(c) for c in args.modulus.split(","))
    return make_field(args.p, args.t, modulus)


# ---------------------------------------------------------------------------
# build


def cmd_build(args):
    from .constructions import full_line, subgeometry

    started = time.monotonic()
    out = _outdir(args)
    fs = _field(args)
    g = build_geometry(args.n, fs)
    if args.what == "line":
        b = full_line(g)
        label = "line"
    elif args.what == "baer-subplane":
        if fs.t % 2 != 0:
            raise FieldError("a Baer subgeometry needs an even field degree")
        b = subgeometry(g, fs.t // 2, carrier_dim=args.carrier_dim)
        label = "baer-subplane"
    else:  # linear-set
        e = args.e
        if e is None or fs.t % e != 0:
            raise FieldError("--e must divide --t for a linear set")
        ctx = SpreadContext(g, e)
        if args.source == "from-vectors":
            vecs = read_vectors(args.vectors, fs, g.n + 1)
            b = ctx.linear_set_from_vectors(vecs)
        else:
            pi = read_reduced_subspace(args.subspace, ctx.reduced)
            b = ctx.linear_set_from_subspace(pi)
        label = f"linear-set-{args.source}"
    report = blocking.analyze(b)
    write_point_set(out / "points.txt", b, comments=[label])
    (out / "report.json").write_text(report.to_json() + "\n")
    (out / "field.json").write_text(fs.to_json() + "\n")
    print(f"{label}: {b.card} points in PG({g.n}, {fs.q}); "
          f"blocking={report.is_blocking} minimal={report.is_minimal} "
          f"small={report.is_small}")
    _write_manifest(out, args, started, {"size": b.card,
                                         "is_blocking": report.is_blocking})
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


_ALL_CHECKS = ("1modp", "sublines", "lemmas", "certify")


def cmd_verify(args):
    from . import structure

    started = time.monotonic()
    out = _outdir(args)
    checks = [c.strip() for c in args.checks.split(",")] if args.checks \
        else list(_ALL_CHECKS)
    for c in checks:
        if c not in _ALL_CHECKS:
            raise ParseError(f"unknown check '{c}'")
    b = read_point_set(args.input)
    fs = b.geometry.fs
    census = line_census(b, threads=args.threads)
    report = blocking.analyze(b, with_point_exponents=(b.geometry.n == 2),
                              census=census)
    entries = []

    def add(check, status, detail):
        entries.append({"check": check, "status": status, "detail": detail})
        print(f"{check}: {status} ({detail})")

    add("blocking", "PASS" if report.is_blocking else "FAIL",
        f"size {report.size}")
    add("minimal", "PASS" if report.is_minimal else "FAIL",
        "every point lies on a tangent hyperplane" if report.is_minimal
        else str(report.witnesses))
    if "1modp" in checks:
        bad = [s for s in census.hist if (s - 1) % fs.p != 0]
        add("1modp", "PASS" if not bad else "FAIL",
            f"line sizes {sorted(census.hist)}")
    if "sublines" in checks:
        e = report.exponent_e
        if not e or fs.t % e != 0:
            add("sublines", "INFORMATIONAL", "no usable subfield exponent")
        else:
            res = structure.check_sublines(b, e, census=census,
                                           threads=args.threads)
            add("sublines",
                "PASS" if not res["violations"] else "FAIL",
                f"{res['checked']} short secants checked, "
                f"{len(res['violations'])} violations")
    if "lemmas" in checks:
        lemma_entries = structure.run_lemma_suite(
            b, report, census=census, plane_secant_cap=args.plane_secant_cap,
            threads=args.threads)
        for le in lemma_entries:
            add(f"lemma:{le['check']}", le["status"],
                f"bound {le['bound']} measured {le['measured']}"
                + (f"; {le['note']}" if le.get("note") else ""))
        entries_lemmas = lemma_entries
    else:
        entries_lemmas = []
    cert_dict = None
    if "certify" in checks:
        try:
            cert = structure.certify_linearity(b, report, census=census)
            cert_dict = cert.to_json_dict()
            add("certify", "PASS" if cert.verified else "FAIL",
                f"xi_dim {cert.xi_dim}, h {report.h}")
        except structure.StructureError as exc:
            add("certify", "INFORMATIONAL", str(exc))
    doc = {"report": json.loads(report.to_json()), "checks": entries,
           "lemmas": entries_lemmas, "certificate": cert_dict}
    (out / "verify_report.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")
    failed = any(x["status"] == "FAIL" for x in entries)
    _write_manifest(out, args, started,
                    {"failed_checks": sum(x["status"] == "FAIL"
                                          for x in entries),
                     "census": census.stats()})
    return EXIT_FAIL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# search


def cmd_search(args):
    from .search import SearchConfig, enumerate_minimal, verify_catalog

    started = time.monotonic()
    out = _outdir(args)
    fs = _field(args)
    g = build_geometry(args.n, fs)
    cfg = SearchConfig(g, max_size=args.max_size, parallel_width=args.threads,
                       guard=10 ** 9 if args.force else 100)
    res = enumerate_minimal(cfg)
    ver = verify_catalog(res)
    blocks = []
    for k, b in enumerate(res.catalog):
        blocks.append(point_set_to_text(b, comments=[f"entry {k}"]))
    (out / "catalog.txt").write_text("\n".join(blocks))
    index = {
        "geometry": {"n": g.n, "p": fs.p, "t": fs.t,
                     "modulus": list(fs.modulus)},
        "max_size": cfg.max_size,
        "total": len(res.catalog),
        "nodes": res.nodes,
        "pruned": res.pruned,
        "entries": ver["entries"],
        "one_mod_p_alarms": ver["one_mod_p_alarms"],
    }
    (out / "catalog_index.json").write_text(
        json.dumps(index, indent=2, sort_keys=True) + "\n")
    print(f"search PG({g.n}, {fs.q}) max_size {cfg.max_size}: "
          f"{len(res.catalog)} minimal blocking sets "
          f"({res.nodes} nodes, {res.pruned} pruned)")
    _write_manifest(out, args, started, {"catalog_size": len(res.catalog)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# project


def cmd_project(args):
    started = time.monotonic()
    out = _outdir(args)
    b = read_point_set(args.input)
    g = b.geometry
    if args.center:
        qc = g.normalize(parse_codes(args.center.split(","), g.n + 1, g.fs.q,
                                     "--center"))
    else:
        q_idx = blocking.find_tangent_only_point(b)
        if q_idx is None:
            raise GeometryError("no point off the set lies on tangents only; "
                                "give --center explicitly")
        qc = g.coords_of(q_idx)
    if args.hyperplane:
        h = g.hyperplane_subspace(parse_codes(
            args.hyperplane.split(","), g.n + 1, g.fs.q, "--hyperplane",
            "hyperplane"))
    else:
        h = g.hyperplane_subspace((0,) * g.n + (1,))
        if h.contains_coords(qc):
            h = g.hyperplane_subspace((1,) + (0,) * g.n)
    before = blocking.analyze(b)
    img, small = blocking.project(b, qc, h)
    after = blocking.analyze(img)
    write_point_set(out / "image.txt", img,
                    comments=[f"projection from {list(qc)}"])
    (out / "report_before.json").write_text(before.to_json() + "\n")
    (out / "report_after.json").write_text(after.to_json() + "\n")
    print(f"projected {b.card} points of PG({g.n}, {g.fs.q}) from {list(qc)} "
          f"onto PG({small.n}, {g.fs.q}): image size {img.card}, "
          f"blocking={after.is_blocking} minimal={after.is_minimal} "
          f"small={after.is_small}")
    _write_manifest(out, args, started, {"image_size": img.card})
    return EXIT_OK


# ---------------------------------------------------------------------------


def _common(sub, need_geometry=True, threaded=True):
    if need_geometry:
        sub.add_argument("--p", type=int, required=True, help="characteristic")
        sub.add_argument("--t", type=int, required=True, help="field degree")
        sub.add_argument("--n", type=int, default=2,
                         help="projective dimension (default 2)")
        sub.add_argument("--modulus",
                         help="comma-separated modulus coefficients c0,..,ct")
    if threaded:
        sub.add_argument("--threads", type=int, default=1)
    sub.add_argument("--out", required=True, help="output directory")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="lingeo",
        description="blocking sets and linear sets in PG(n, q)")
    subs = ap.add_subparsers(dest="cmd", required=True)

    bp = subs.add_parser("build", help="construct a point set and report")
    bsub = bp.add_subparsers(dest="what", required=True)
    for what in ("line", "baer-subplane"):
        w = bsub.add_parser(what)
        _common(w, threaded=False)
        w.add_argument("--carrier-dim", type=int, default=None,
                       help="embed the subgeometry in a smaller subspace")
        w.set_defaults(func=cmd_build, what=what, source=None)
    lp = bsub.add_parser("linear-set")
    lp.add_argument("source", choices=["from-vectors", "from-subspace"])
    _common(lp, threaded=False)
    lp.add_argument("--e", type=int, help="subfield degree (divides t)")
    lp.add_argument("--vectors", help="vector file (one big vector per line)")
    lp.add_argument("--subspace", help="RED subspace file over GF(q0)")
    lp.set_defaults(func=cmd_build, what="linear-set", carrier_dim=None)

    vp = subs.add_parser("verify", help="run checks against a point-set file")
    vp.add_argument("input", help="point-set interchange file")
    _common(vp, need_geometry=False)
    vp.add_argument("--checks", help="comma list of "
                    "1modp,sublines,lemmas,certify (default all)")
    vp.add_argument("--plane-secant-cap", type=int, default=None)
    vp.set_defaults(func=cmd_verify)

    sp = subs.add_parser("search", help="enumerate small minimal blocking sets")
    _common(sp)
    sp.add_argument("--max-size", type=int, default=None)
    sp.add_argument("--force", action="store_true",
                    help="override the geometry-size guard")
    sp.set_defaults(func=cmd_search)

    pp = subs.add_parser("project", help="project a set from a point")
    pp.add_argument("input", help="point-set interchange file")
    _common(pp, need_geometry=False, threaded=False)
    pp.add_argument("--center", help="projection point codes c0,..,cn "
                    "(default: first tangent-only point)")
    pp.add_argument("--hyperplane", help="target hyperplane dual codes")
    pp.set_defaults(func=cmd_project)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = ap.parse_args(argv)
    args.argv = argv
    try:
        for name in ("threads", "e", "plane_secant_cap"):
            value = getattr(args, name, None)
            if value is not None and value < 1:
                raise ParseError(f"--{name.replace('_', '-')} must be >= 1")
        return args.func(args)
    # an except clause's classes are looked up only once an error is
    # raised, so the command modules' errors are imported then, and no
    # command loads another's modules
    except _guard_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except _invalid_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _guard_errors():
    from .search import GuardExceeded

    return GuardExceeded, FieldTooLarge, GeometryTooLarge


def _invalid_errors():
    from .structure import StructureError

    return (ParseError, FieldError, GeometryError, ReductionError,
            blocking.BlockingError, StructureError, FileNotFoundError,
            ValueError)


if __name__ == "__main__":
    sys.exit(main())
