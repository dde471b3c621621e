"""The benchmark's workloads: inputs made from the seed, the CLI command of
one op, and the exact outputs and verdicts every op must show.

Each workload stresses a different mix of lingeo's layers (see README.md).
The expected values below hold for every seed, not just the ones tried:
the generator insists on a scattered linear set (|B| at its maximum), and
for a scattered set the line-size histogram is fixed by counting points
and point pairs on lines.  The verdict evidence is recomputed per run.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

import evidence

# sha256 of each op's report files (manifest.json excluded), per seed, as
# measured when the benchmark was defined.  A change that must keep reports
# byte-identical shows "recorded: match" on these seeds.
RECORDED_REPORT_SHA256 = {
    "verify-space": {
        0: "bde32770cfd5553f647d11b831b7d41e27fb8a0d0b7563a646bfd71d3f87e08c",
        1: "bde32770cfd5553f647d11b831b7d41e27fb8a0d0b7563a646bfd71d3f87e08c",
        2: "bde32770cfd5553f647d11b831b7d41e27fb8a0d0b7563a646bfd71d3f87e08c",
        3: "652269392dbc765a02313652fdec5255c869212b318f13b8fc9419173c19f8b8",
        4: "652269392dbc765a02313652fdec5255c869212b318f13b8fc9419173c19f8b8",
        5: "652269392dbc765a02313652fdec5255c869212b318f13b8fc9419173c19f8b8",
        6: "bde32770cfd5553f647d11b831b7d41e27fb8a0d0b7563a646bfd71d3f87e08c",
        7: "bde32770cfd5553f647d11b831b7d41e27fb8a0d0b7563a646bfd71d3f87e08c",
        8: "bde32770cfd5553f647d11b831b7d41e27fb8a0d0b7563a646bfd71d3f87e08c",
        9: "bde32770cfd5553f647d11b831b7d41e27fb8a0d0b7563a646bfd71d3f87e08c",
    },
    # the seed varies nothing in search-pg5
    "search-pg5": dict.fromkeys(range(10), "e46068b9178b597c8cd8759d95e5a3d31ce2dd31304f37cc787e916fcccf85de"),
}


def report_digest(out: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(out.iterdir()):
        if f.name != "manifest.json":
            h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def _check(problems, ok, msg):
    if not ok:
        problems.append(msg)


class Verify:
    """``lingeo verify`` on a seeded random scattered linear set B(U)."""

    kind = "verify"
    yardstick = "numpy"     # the op is mostly numpy census and plane work

    def __init__(self, name, why, *, p, t, n, e, rank, threads, cap, size,
                 exit_codes, line_sizes, short_secants):
        self.name, self.why = name, why
        self.p, self.t, self.n, self.e, self.rank = p, t, n, e, rank
        self.h = t // e
        self.threads, self.cap, self.size = threads, cap, size
        self.exit_codes, self.line_sizes = exit_codes, line_sizes
        self.short_secants = short_secants

    def make_input(self, seed: int, inp: Path):
        """Build B(U) from the seed and write it; runs in the set-up child."""
        from lingeo.constructions import random_linear_blocking_set
        from lingeo.fileio import write_point_set
        from lingeo.gf import make_field
        from lingeo.pg import build_geometry

        g = build_geometry(self.n, make_field(self.p, self.t))
        b, ctx, vecs = random_linear_blocking_set(g, self.e, self.rank, seed)
        if b.card != self.size:
            raise SystemExit(f"seed {seed}: {b.card} points, want {self.size}")
        write_point_set(inp / "points.txt", b, comments=[f"{self.name} seed {seed}"])
        # known to the benchmark only: the program gets points.txt alone
        (inp / "construction.json").write_text(json.dumps(
            {"rank": ctx.reduced_rank(vecs), "h": self.h, "size": b.card}))

    def argv(self, inp: Path, out: Path):
        argv = ["verify", str(inp / "points.txt"), "--threads", str(self.threads),
                "--out", str(out)]
        if self.cap is not None:
            argv += ["--plane-secant-cap", str(self.cap)]
        return argv

    @staticmethod
    def read_report(out: Path):
        doc = json.loads((out / "verify_report.json").read_text())
        return doc, {c["check"]: c for c in doc["checks"]}

    def check(self, out: Path, rc) -> list:
        """Exact output checks of one op; returns the problems found."""
        problems = []
        _check(problems, rc in self.exit_codes, f"exit code {rc}")
        _, checks = self.read_report(out)
        c = checks.get("1modp", {})
        _check(problems, c.get("status") == "PASS"
               and c.get("detail") == f"line sizes {self.line_sizes}",
               f"1modp: {c}")
        c = checks.get("sublines", {})
        _check(problems, c.get("status") == "PASS" and c.get("detail") ==
               f"{self.short_secants} short secants checked, 0 violations",
               f"sublines: {c}")
        return problems

    def evidence(self, inp: Path, seed: int) -> dict:
        """property -> (holds, evidence) for the verdicts B is known to have."""
        con = json.loads((inp / "construction.json").read_text())
        fs, coords = evidence.read_points(inp / "points.txt")
        w = evidence.tangent_witnesses(fs, coords, seed)
        found = int(np.count_nonzero(w.any(axis=1)))
        return {
            # U meets the (hn)-dim reduced image of every hyperplane in
            # V(h(n+1), q0) as soon as rank(U) + hn > h(n+1)
            "blocking": (con["rank"] > con["h"],
                         f"GF(q0)-rank {con['rank']} > h = {con['h']}"),
            # found < |B| proves nothing either way: not counted
            "minimal": (True if found == coords.shape[0] else None,
                        f"own tangent witnesses at {found}/{coords.shape[0]} points"),
        }

    def wrong_verdicts(self, out: Path, ev: dict) -> int:
        _, checks = self.read_report(out)
        wrong = 0
        for prop, (holds, _) in ev.items():
            status = checks.get(prop, {}).get("status")
            if holds is not None and status in ("PASS", "FAIL"):
                wrong += (status == "PASS") != holds
        return wrong


class Search:
    """``lingeo search`` for the complete small-minimal catalog of PG(2, q)."""

    kind = "search"
    yardstick = "python"    # the op is mostly the interpreted DFS

    def __init__(self, name, why, *, p, t, max_size, threads, total, lines,
                 linear):
        self.name, self.why = name, why
        self.p, self.t, self.n, self.max_size = p, t, 2, max_size
        self.threads, self.cap = threads, None
        self.total, self.lines, self.linear = total, lines, linear

    def make_input(self, seed: int, inp: Path):
        """The plane itself is the input: the seed has nothing to vary."""
        from lingeo.gf import make_field
        from lingeo.pg import build_geometry

        g = build_geometry(self.n, make_field(self.p, self.t))
        (inp / "construction.json").write_text(json.dumps(
            {"points": g.num_points, "seed": seed}))

    def argv(self, inp: Path, out: Path):
        return ["search", "--p", str(self.p), "--t", str(self.t), "--n", str(self.n),
                "--max-size", str(self.max_size), "--threads", str(self.threads),
                "--out", str(out)]

    @staticmethod
    def read_catalog(out: Path):
        """Index JSON and each entry's coordinates from catalog.txt."""
        index = json.loads((out / "catalog_index.json").read_text())
        blocks = re.split(r"^# entry \d+\n", (out / "catalog.txt").read_text(),
                          flags=re.M)
        entries = []
        for block in filter(None, blocks):
            _header, *rows = block.strip().splitlines()
            entries.append(np.array([[int(x) for x in r.split()] for r in rows],
                                    dtype=np.int64))
        return index, entries

    def check(self, out: Path, rc) -> list:
        problems = []
        _check(problems, rc == 0, f"exit code {rc}")
        index, entries = self.read_catalog(out)
        kinds = [e["linearity"] for e in index["entries"]]
        _check(problems, index["total"] == self.total == len(entries),
               f"{index['total']} entries, {len(entries)} in catalog.txt")
        _check(problems, kinds.count("line") == self.lines
               and kinds.count("linear") == self.linear,
               f"{kinds.count('line')} lines + {kinds.count('linear')} linear")
        _check(problems, index["one_mod_p_alarms"] == [], "1-mod-p alarms")
        fs = evidence.OwnField(self.p, self.t, index["geometry"]["modulus"])
        lines = evidence.plane_lines(fs)
        bad = sum(not all(evidence.catalog_entry_evidence(fs, lines, c)[:2])
                  for c in entries)
        _check(problems, bad == 0, f"{bad} entries not minimal blocking sets")
        return problems

    def evidence(self, inp: Path, seed: int) -> dict:
        return {}   # computed per op from the catalog it wrote

    def wrong_verdicts(self, out: Path, ev: dict) -> int:
        """Entries whose 1-mod-p or linearity verdict contradicts our own.

        Each entry is a line (q+1 collinear points) or meets every line in
        1 or sqrt(q)+1 points (a Baer subplane); both are linear sets whose
        line sizes are 1 mod p.
        """
        index, entries = self.read_catalog(out)
        fs = evidence.OwnField(self.p, self.t, index["geometry"]["modulus"])
        lines = evidence.plane_lines(fs)
        baer = {1, int(round(fs.q ** 0.5)) + 1}
        wrong = 0
        for rec, coords in zip(index["entries"], entries):
            _, _, sizes = evidence.catalog_entry_evidence(fs, lines, coords)
            one_mod_p = all((s - 1) % fs.p == 0 for s in sizes)
            linear = max(sizes) == fs.q + 1 or set(sizes) <= baer
            wrong += rec["one_mod_p"] != one_mod_p
            wrong += linear and rec["linearity"] not in ("line", "linear")
        return wrong


WORKLOADS = {w.name: w for w in (
    Verify("verify-space",
           "4681-pt rank-5 linear set in PG(3,2^12), --threads 2, cap K=1000: "
           "pair-mode census, random tangent witnesses, plane census, char-2 "
           "vmul; the op where threads could show",
           p=2, t=12, n=3, e=3, rank=5, threads=2, cap=1000, size=4681,
           exit_codes=(0, 1), line_sizes=[1, 9], short_secants=304265),
    Search("search-pg5",
           "PG(2,5) catalog to size 7 (31 lines), --threads 1: Python bitmask "
           "DFS of 335,707 nodes with leaf is_minimal, then 31 tiny censuses: "
           "search and per-call overhead, no bulk work",
           p=5, t=1, max_size=7, threads=1, total=31, lines=31, linear=0),
)}
