import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lingeo import blocking, census, cli, search, structure
from lingeo.cli import main
from lingeo.fileio import (ParseError, parse_point_set, point_set_to_text,
                           read_point_set, write_point_set)


def run(argv):
    return main(argv)


def test_point_set_roundtrip(tmp_path, baer_49):
    path = tmp_path / "b.txt"
    write_point_set(path, baer_49, comments=["round trip"])
    assert path.read_text() == point_set_to_text(baer_49, ["round trip"])
    again = read_point_set(path)
    assert again == baer_49


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_point_set("no header\n")
    with pytest.raises(ParseError):
        parse_point_set("PG 2 7 2 1,1,1\n1 2\n")          # wrong width
    with pytest.raises(ParseError):
        parse_point_set("PG 2 7 2 1,0,0,1\n0 0 0\n")       # reducible modulus
    with pytest.raises(ParseError):
        parse_point_set("PG 2 7 1 0,1\n0 0 0\n")           # zero point


# each fault on line 4, after a comment, a blank line and a good point,
# and before a zero vector: the first fault's line and message are given
@pytest.mark.parametrize("bad,msg", [
    ("1 x 0", "line 4: bad point: invalid literal for int() with base 10: "
              "'x'"),
    ("1 2", "line 4: expected 3 codes, got 2"),
    ("1 2 3 4", "line 4: expected 3 codes, got 4"),
    ("1 2 7", "line 4: code out of range for the field"),
    ("1 -1 0", "line 4: code out of range for the field"),
    ("1 99999999999999999999 0", "line 4: code out of range for the field"),
    ("0 0 0", "line 4: zero vector is not a point"),
])
def test_point_line_errors_name_the_first_fault(bad, msg):
    text = f"PG 2 7 1 0,1  # GF(7)\n\n1 2 3\n{bad}  # bad\n0 0 0\n"
    with pytest.raises(ParseError) as err:
        parse_point_set(text)
    assert str(err.value) == msg


def test_build_line(tmp_path):
    out = tmp_path / "line"
    argv = ["build", "line", "--p", "7", "--t", "2", "--n", "2",
            "--out", str(out)]
    assert run(argv) == 0
    b = read_point_set(out / "line" / "points.txt"
                       if (out / "line").exists() else out / "points.txt")
    assert b.card == 50
    rep = json.loads((out / "report.json").read_text())
    assert rep["is_blocking"] and rep["is_minimal"]
    man = json.loads((out / "manifest.json").read_text())
    assert "wall_time_s" in man and "seed" not in man
    assert man["command"] == " ".join(argv)


def test_build_baer(tmp_path):
    out = tmp_path / "baer"
    assert run(["build", "baer-subplane", "--p", "7", "--t", "2",
                "--out", str(out)]) == 0
    assert read_point_set(out / "points.txt").card == 57


def test_build_linear_set_from_vectors(tmp_path):
    from lingeo.constructions import trace_trick_vectors
    from lingeo.gf import make_field
    fs = make_field(7, 3)
    vf = tmp_path / "U.txt"
    vf.write_text("\n".join(" ".join(str(c) for c in v)
                            for v in trace_trick_vectors(fs, 1)) + "\n")
    out = tmp_path / "ls"
    assert run(["build", "linear-set", "from-vectors", "--p", "7", "--t", "3",
                "--n", "2", "--e", "1", "--vectors", str(vf),
                "--out", str(out)]) == 0
    assert read_point_set(out / "points.txt").card == 393


def test_build_linear_set_from_subspace(tmp_path, baer_49):
    from lingeo.fileio import write_reduced_subspace
    from lingeo.pg import Subspace
    from lingeo.reduction import SpreadContext
    import numpy as np
    ctx = SpreadContext(baer_49.geometry, 1)
    vecs = np.array([(1, 0, 0), (0, 1, 0), (0, 0, 1)], dtype=np.int64)
    pi = Subspace(ctx.reduced, ctx.eps_rows(vecs))
    sf = tmp_path / "pi.txt"
    write_reduced_subspace(sf, pi)
    out = tmp_path / "bs"
    assert run(["build", "linear-set", "from-subspace", "--p", "7", "--t", "2",
                "--n", "2", "--e", "1", "--subspace", str(sf),
                "--out", str(out)]) == 0
    b = read_point_set(out / "points.txt")
    assert b == ctx.linear_set_from_subspace(pi)


def test_build_invalid_exit_2(tmp_path):
    assert run(["build", "baer-subplane", "--p", "7", "--t", "3",
                "--out", str(tmp_path / "x")]) == 2


def test_verify_baer_all_checks(tmp_path, baer_49):
    pf = tmp_path / "b.txt"
    write_point_set(pf, baer_49)
    out = tmp_path / "v"
    assert run(["verify", str(pf), "--out", str(out)]) == 0
    doc = json.loads((out / "verify_report.json").read_text())
    assert doc["certificate"]["verified"]
    assert all(e["status"] != "FAIL" for e in doc["checks"])


def test_verify_manifest_says_how_the_census_ran(tmp_path, monkeypatch,
                                                 baer_49, trace_343):
    from lingeo.pg import PointSet, build_geometry
    from lingeo.gf import make_field
    g = build_geometry(2, make_field(7, 1))
    conic = PointSet.from_coords(g, [(1, x, x * x % 7) for x in range(7)]
                                 + [(0, 0, 1)])
    # on the Baer subplane, a probe of 4 anchors, then batches of 8
    monkeypatch.setattr(census, "TILE_ELEMS", 4 * baer_49.card)
    monkeypatch.setattr(census, "BLOCK_ELEMS", 16 * baer_49.card)
    stats = {}
    for name, b in (("baer", baer_49), ("trace", trace_343),
                    ("conic", conic)):
        pf = tmp_path / f"{name}.txt"
        write_point_set(pf, b)
        out = tmp_path / name
        assert run(["verify", str(pf), "--out", str(out)]) in (0, 1)
        man = json.loads((out / "manifest.json").read_text())
        stats[name] = man["outcome"]["census"]
    # every line of the Baer subplane is found from fewer anchors than
    # its points
    baer = stats["baer"]
    assert baer["strategy"] == "anchor" and baer["passes"] == 1
    assert 8 <= baer["rows"] < baer_49.card
    # the 8-secants lie under the 50-point lines: one more anchor pass
    assert stats["trace"]["strategy"] == "anchor"
    assert stats["trace"]["passes"] == 2
    # the conic's probe (a tile's rows: all 8 points) keeps 2-secants, but
    # it anchored every point, so it is a whole census and is kept
    assert stats["conic"] == {"strategy": "anchor", "rows": 8, "passes": 1}


def test_manifest_records_cpu_and_faults_reports_do_not(tmp_path, baer_49):
    # the process's CPU seconds and minor faults go to the manifest, beside
    # its wall time, and never into a report
    pf = tmp_path / "baer.txt"
    write_point_set(pf, baer_49)
    out = tmp_path / "v"
    assert run(["verify", str(pf), "--threads", "2", "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["cpu_s"] > 0 and isinstance(man["cpu_s"], float)
    assert man["minor_faults"] > 0 and isinstance(man["minor_faults"], int)
    assert list(man).index("cpu_s") == list(man).index("wall_time_s") + 1
    report = (out / "verify_report.json").read_text()
    assert "cpu_s" not in report and "minor_faults" not in report


def _count_line_censuses(monkeypatch):
    calls = []
    real = census.line_census

    def counting(*args, **kwargs):
        calls.append(kwargs.get("collect_sizes", ()))
        return real(*args, **kwargs)

    for mod in (census, cli, structure, blocking, search):
        monkeypatch.setattr(mod, "line_census", counting)
    return calls


def test_verify_runs_one_line_census(tmp_path, baer_49, monkeypatch):
    calls = _count_line_censuses(monkeypatch)
    pf = tmp_path / "b.txt"
    write_point_set(pf, baer_49)
    assert run(["verify", str(pf), "--out", str(tmp_path / "v")]) == 0
    # the short secants are the longest lines, so the census holds them
    assert calls == [()]


def test_verify_collects_shadowed_secants_once(tmp_path, trace_343,
                                               monkeypatch):
    calls = _count_line_censuses(monkeypatch)
    pf = tmp_path / "t.txt"
    write_point_set(pf, trace_343)
    run(["verify", str(pf), "--out", str(tmp_path / "v")])
    # the 8-secants lie under longer lines: one more pass collects them
    assert calls == [(), [8]]


def test_verify_line_passes(tmp_path, line_49):
    pf = tmp_path / "l.txt"
    write_point_set(pf, line_49)
    out = tmp_path / "v"
    assert run(["verify", str(pf), "--out", str(out)]) == 0
    doc = json.loads((out / "verify_report.json").read_text())
    # h = 1: a point of a line lies on one secant, outside the bound
    entry = next(e for e in doc["lemmas"] if e["check"] == "blokhuis_secants")
    assert entry["status"] == "INFORMATIONAL"


def test_verify_line_minus_point_fails(tmp_path, line_49):
    broken = line_49.remove(int(line_49.indices[0]))
    pf = tmp_path / "b.txt"
    write_point_set(pf, broken)
    out = tmp_path / "v"
    assert run(["verify", str(pf), "--checks", "1modp",
                "--out", str(out)]) == 1


def test_verify_parse_error_exit_2(tmp_path):
    pf = tmp_path / "bad.txt"
    pf.write_text("PG nope\n")
    assert run(["verify", str(pf), "--out", str(tmp_path / "v")]) == 2


def test_search_cli_pg_2_2(tmp_path):
    out = tmp_path / "s"
    assert run(["search", "--p", "2", "--t", "1", "--n", "2",
                "--out", str(out)]) == 0
    idx = json.loads((out / "catalog_index.json").read_text())
    assert idx["total"] == 7 and idx["one_mod_p_alarms"] == []
    # the tree's counters and the walk's seconds go to the manifest only
    outcome = json.loads((out / "manifest.json").read_text())["outcome"]
    walk_s = outcome.pop("enumerate_s")
    assert isinstance(walk_s, float) and walk_s >= 0
    assert outcome == {"catalog_size": 7, "nodes": idx["nodes"],
                       "pruned": idx["pruned"], "leaves": 63,
                       "duplicates": 34}
    assert set(idx) == {"geometry", "max_size", "total", "nodes", "pruned",
                        "entries", "one_mod_p_alarms"}


def test_search_pg_2_5_report_bytes(tmp_path):
    out = tmp_path / "s"
    assert run(["search", "--p", "5", "--t", "1", "--n", "2",
                "--max-size", "7", "--threads", "1", "--out", str(out)]) == 0
    # every report file but manifest.json, in sorted name order, hashed
    # as name + NUL + bytes + NUL
    h = hashlib.sha256()
    for name in sorted(f.name for f in out.iterdir()):
        if name != "manifest.json":
            h.update(name.encode() + b"\0" + (out / name).read_bytes()
                     + b"\0")
    assert h.hexdigest() == (
        "e46068b9178b597c8cd8759d95e5a3d31ce2dd31304f37cc787e916fcccf85de")


@pytest.mark.parametrize("name,digest", [
    ("baer_49",
     "7959ea1ccd0c7862fd3d5d737260fb7dd34fe8d25540d733f9de560c4830e4aa"),
    ("trace_343",
     "6de016cbf585351241d828846fc6e7c8953920f1af4f83af14a221f2d15461e8"),
    ("rank5_pg3_81",
     "fd67e985ef86a030c7f33281507c9ce1966b3ae1d5486280a64003955acdb0ae")])
def test_verify_certified_report_bytes(tmp_path, request, name, digest):
    pf = tmp_path / "b.txt"
    write_point_set(pf, request.getfixturevalue(name))
    out = tmp_path / "v"
    assert run(["verify", str(pf), "--out", str(out)]) == 0
    data = (out / "verify_report.json").read_bytes()
    assert json.loads(data)["certificate"]["verified"]
    assert hashlib.sha256(data).hexdigest() == digest


def test_search_above_small_cap(tmp_path):
    # size 6 = 3(q+1)/2 is not small: those entries are recorded as such,
    # not certified
    out = tmp_path / "s"
    assert run(["search", "--p", "3", "--t", "1", "--max-size", "6",
                "--out", str(out)]) == 0
    idx = json.loads((out / "catalog_index.json").read_text())
    verdicts = [e["linearity"] for e in idx["entries"]]
    assert idx["total"] == len(verdicts) == 247
    assert verdicts.count("line") == 13
    assert verdicts.count("not-small-minimal") == 234


def test_search_pg_1_3_line_has_exponent_t(tmp_path):
    out = tmp_path / "s"
    assert run(["search", "--p", "3", "--t", "1", "--n", "1",
                "--out", str(out)]) == 0
    idx = json.loads((out / "catalog_index.json").read_text())
    assert [(e["size"], e["exponent_e"]) for e in idx["entries"]] == [(4, 1)]


def test_search_guard_exit_3(tmp_path):
    assert run(["search", "--p", "2", "--t", "4", "--n", "2",
                "--out", str(tmp_path / "s")]) == 3


def test_search_runs_line_censuses_only_to_certify(tmp_path, monkeypatch):
    calls = _count_line_censuses(monkeypatch)
    assert run(["search", "--p", "3", "--t", "1",
                "--out", str(tmp_path / "s")]) == 0
    # the 13 lines of PG(2, 3): in the plane the hyperplane popcounts are
    # the line sizes, and a line is not certified
    assert calls == []
    assert run(["search", "--p", "2", "--t", "1", "--n", "3", "--max-size",
                "4", "--out", str(tmp_path / "s32")]) == 0
    # the 35 lines of PG(3, 2): q + 1 points spanning a line are the line,
    # whose line sizes need no census
    assert calls == []
    assert run(["search", "--p", "2", "--t", "2", "--max-size", "7",
                "--out", str(tmp_path / "s4")]) == 0
    # one full-mode pass per Baer subplane of PG(2, 4), by the certifier,
    # collecting its 3-secants
    assert calls == [[3]] * 360


def test_field_above_table_limit_exit_3(tmp_path, capsys):
    # x^17 + x^3 + 1 is irreducible over GF(2)
    pf = tmp_path / "big.txt"
    pf.write_text("PG 2 2 17 " + ",".join(["1", "0", "0", "1"] + ["0"] * 13
                                          + ["1"]) + "\n1 0 0\n")
    # a degree whose p^t has more than 4300 digits, and a prime whose
    # trial division takes minutes, are refused at once
    huge = tmp_path / "huge.txt"
    huge.write_text("PG 2 2 20000 1,1\n1 0 0\n")
    for argv in (["build", "line", "--p", "2", "--t", "17"],
                 ["verify", str(pf)],
                 ["search", "--p", "2", "--t", "17"],
                 ["build", "line", "--p", "2", "--t", "20000"],
                 ["verify", str(huge)],
                 ["build", "line", "--p", "1000000000000000003", "--t", "1"]):
        assert run(argv + ["--out", str(tmp_path / "o")]) == 3
        assert "field tables stop at 65536" in capsys.readouterr().err


def test_geometry_above_index_limit_exit_3(tmp_path, capsys):
    # PG(70, 2) has 2^71 - 1 points; its indices would overflow int64
    pf = tmp_path / "big.txt"
    pf.write_text("PG 70 2 1 0,1\n" + " ".join(["1"] + ["0"] * 70) + "\n")
    for argv in (["build", "line", "--p", "2", "--t", "1", "--n", "70"],
                 ["verify", str(pf)]):
        assert run(argv + ["--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == ("error: PG(70, 2) has more than 2^63 - 1 points, the "
                       "limit of the int64 point indices\n")


def test_project_cli(tmp_path, planar_baer_3d):
    pf = tmp_path / "b.txt"
    write_point_set(pf, planar_baer_3d)
    out = tmp_path / "pr"
    assert run(["project", str(pf), "--out", str(out)]) == 0
    after = json.loads((out / "report_after.json").read_text())
    assert after["is_blocking"] and after["is_minimal"] and after["is_small"]


@pytest.mark.parametrize("flag,codes,message", [
    ("--center", "1,99,0,0", "--center: code out of range for the field"),
    ("--center", "1,0", "--center: expected 4 codes, got 2"),
    ("--center", "1,x,0,0", "--center: bad point: invalid literal"),
    ("--hyperplane", "1,99,0,0",
     "--hyperplane: code out of range for the field"),
    ("--hyperplane", "0,0,0", "--hyperplane: expected 4 codes, got 3"),
])
def test_project_invalid_codes_exit_2(tmp_path, planar_baer_3d, capsys,
                                      flag, codes, message):
    pf = tmp_path / "b.txt"
    write_point_set(pf, planar_baer_3d)
    assert run(["project", str(pf), flag, codes,
                "--out", str(tmp_path / "pr")]) == 2
    assert message in capsys.readouterr().err


def test_project_center_in_set_exit_2(tmp_path, baer_49):
    pf = tmp_path / "b.txt"
    write_point_set(pf, baer_49)
    c = ",".join(str(int(x)) for x in baer_49.coords()[0])
    assert run(["project", str(pf), "--center", c,
                "--out", str(tmp_path / "pr")]) == 2


def test_project_baer_onto_full_line(tmp_path, baer_49):
    # B blocks every line, so the image is all of PG(1, 49): exponent t
    g = baer_49.geometry
    off = next(i for i in range(g.num_points) if i not in baer_49)
    pf = tmp_path / "b.txt"
    write_point_set(pf, baer_49)
    out = tmp_path / "pr"
    c = ",".join(str(int(x)) for x in g.coords_of(off))
    assert run(["project", str(pf), "--center", c, "--out", str(out)]) == 0
    after = json.loads((out / "report_after.json").read_text())
    assert after["size"] == 50
    assert after["exponent_e"] == after["exponent_e_lines"] == 2
    assert after["q0"] == 49


def test_reports_byte_identical_across_threads(tmp_path, baer_49):
    pf = tmp_path / "b.txt"
    write_point_set(pf, baer_49)
    outs = []
    for th in ("1", "8"):
        out = tmp_path / f"v{th}"
        assert run(["verify", str(pf), "--threads", th,
                    "--out", str(out)]) == 0
        outs.append((out / "verify_report.json").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exit_2(tmp_path, baer_49, capsys, threads):
    pf = tmp_path / "b.txt"
    write_point_set(pf, baer_49)
    out = tmp_path / "v"
    assert run(["verify", str(pf), "--threads", threads,
                "--out", str(out)]) == 2
    assert "error: --threads must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--plane-secant-cap", "0"), ("--plane-secant-cap", "-3")])
def test_verify_option_below_one_exit_2(tmp_path, baer_49, capsys, flag,
                                        value):
    pf = tmp_path / "b.txt"
    write_point_set(pf, baer_49)
    out = tmp_path / "v"
    assert run(["verify", str(pf), flag, value, "--out", str(out)]) == 2
    assert f"error: {flag} must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "points.txt", "--e", "1"],
    ["verify", "points.txt", "--seed", "0"],
    ["build", "line", "--p", "7", "--t", "2", "--seed", "0"],
    ["project", "points.txt", "--seed", "0"]])
def test_verify_e_and_seed_are_not_options(tmp_path, argv):
    """verify reads e off its blocking report, and no command is seeded."""
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("e", ["0", "-1"])
def test_build_linear_set_e_below_one_exit_2(tmp_path, capsys, e):
    vf = tmp_path / "U.txt"
    vf.write_text("1 0 0\n0 1 0\n")
    out = tmp_path / "ls"
    assert run(["build", "linear-set", "from-vectors", "--p", "7", "--t", "2",
                "--e", e, "--vectors", str(vf), "--out", str(out)]) == 2
    assert "error: --e must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["build", "line", "--p", "7", "--t", "2"],
    ["project", "points.txt"]])
def test_build_and_project_take_no_threads(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--threads", "1", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_build_carrier_dim_out_of_range_exit_2(tmp_path, capsys):
    assert run(["build", "baer-subplane", "--p", "2", "--t", "2", "--n", "2",
                "--carrier-dim", "3", "--out", str(tmp_path / "x")]) == 2
    assert "error: carrier dimension 3 is outside 1..2 for PG(2, 4)" in \
        capsys.readouterr().err


def test_verify_one_point_has_no_exponent(tmp_path):
    # PG(4, 373) has too many hyperplanes through a point to enumerate, so
    # the exponent comes from the line census, where only tangents occur
    pf = tmp_path / "p.txt"
    pf.write_text("PG 4 373 1 0,1\n1 0 0 0 0\n")
    out = tmp_path / "v"
    run(["verify", str(pf), "--out", str(out)])
    doc = json.loads((out / "verify_report.json").read_text())
    assert doc["report"]["strategy"] == "structural"
    assert doc["report"]["exponent_e"] == 0
    assert doc["report"]["q0"] is None
    sublines = next(c for c in doc["checks"] if c["check"] == "sublines")
    assert sublines["status"] == "INFORMATIONAL"


def test_verify_and_search_never_import_numpy_ma(tmp_path, baer_49):
    # numpy 2's np.unique without return_* imports numpy.ma on its first
    # call, 10 to 18 ms in every process; a fresh interpreter shows it
    write_point_set(tmp_path / "b.txt", baer_49)
    code = ("import sys\n"
            "from lingeo.cli import main\n"
            f"main(['verify', {str(tmp_path / 'b.txt')!r}, '--out', "
            f"{str(tmp_path / 'v')!r}])\n"
            f"main(['search', '--p', '2', '--t', '1', '--out', "
            f"{str(tmp_path / 's')!r}])\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert (tmp_path / "v" / "verify_report.json").is_file()
    assert (tmp_path / "s" / "catalog_index.json").is_file()
    assert out.splitlines()[-1] == "False"


@pytest.mark.parametrize("command, unused", [
    ("search", ("lingeo.structure", "lingeo.constructions")),
    ("verify", ("lingeo.search", "lingeo.constructions"))])
def test_each_command_imports_only_its_own_modules(tmp_path, baer_49,
                                                   command, unused):
    # a run with no bytecode cache compiles every module it imports
    write_point_set(tmp_path / "b.txt", baer_49)
    argv = (["search", "--p", "2", "--t", "1"] if command == "search"
            else ["verify", str(tmp_path / "b.txt")])
    code = ("import sys\n"
            "from lingeo.cli import main\n"
            f"print(main({argv + ['--out', str(tmp_path / 'o')]!r}))\n"
            f"print([m for m in {unused!r} if m in sys.modules])\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-2:] == ["0", "[]"]
