"""File formats: point-set interchange and reduced-subspace records.

Point-set file::

    # optional comments
    PG n p t c0,c1,...,ct
    a0 a1 ... an          <- one point per line, integer element codes

Reduced-subspace file::

    RED m q0
    b0 b1 ... bm          <- one basis row per line, codes over GF(q0)

Both formats are plain text, deterministic, and independent of the
producing machine.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .gf import FieldTooLarge, make_field
from .pg import Geometry, PointSet, Subspace, build_geometry


class ParseError(Exception):
    pass


def _modulus_str(fs) -> str:
    return ",".join(str(c) for c in fs.modulus)


def write_point_set(path, b: PointSet, comments=()):
    with open(path, "w") as f:
        f.write(point_set_to_text(b, comments))


def point_set_to_text(b: PointSet, comments=()) -> str:
    g = b.geometry
    lines = [f"# {c}" for c in comments]
    lines.append(f"PG {g.n} {g.fs.p} {g.fs.t} {_modulus_str(g.fs)}")
    for c in b.coords():
        lines.append(" ".join(str(int(x)) for x in c))
    return "\n".join(lines) + "\n"


def _records(text: str):
    """(line number, content) of each line left non-blank once its
    ``#`` comment is cut."""
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line


def parse_codes(tokens, width: int, q: int, where: str, what: str = "point",
                field: str = "the field") -> list:
    """``width`` integer element codes, each in 0..q-1, or a ParseError
    whose message starts with ``where`` (a line number or a flag)."""
    try:
        codes = [int(x) for x in tokens]
    except ValueError as exc:
        raise ParseError(f"{where}: bad {what}: {exc}") from exc
    if len(codes) != width:
        raise ParseError(f"{where}: expected {width} codes, got {len(codes)}")
    if any(c < 0 or c >= q for c in codes):
        raise ParseError(f"{where}: code out of range for {field}")
    return codes


def read_point_set(path) -> PointSet:
    with open(path) as f:
        text = f.read()
    return parse_point_set(text)


def parse_point_set(text: str) -> PointSet:
    records = _records(text)
    ln, line = next(records, (None, None))
    if line is None:
        raise ParseError("missing 'PG n p t modulus' header")
    parts = line.split()
    if len(parts) != 5 or parts[0] != "PG":
        raise ParseError(f"line {ln}: expected 'PG n p t modulus'")
    try:
        n, p, t = int(parts[1]), int(parts[2]), int(parts[3])
        modulus = tuple(int(c) for c in parts[4].split(","))
    except ValueError as exc:
        raise ParseError(f"line {ln}: bad header: {exc}") from exc
    try:
        fs = make_field(p, t, modulus)
    except FieldTooLarge:
        raise
    except Exception as exc:
        raise ParseError(f"line {ln}: bad field: {exc}") from exc
    g = build_geometry(n, fs)
    records = list(records)
    if not records:
        raise ParseError("empty point set")
    return PointSet.from_coords(g, _point_rows(records, n + 1, fs.q))


def _point_rows(records, width: int, q: int) -> np.ndarray:
    """The (len(records), width) codes of the point lines ``records``,
    converted in one pass; when that finds any fault, the lines are read
    one by one for the first fault's ParseError."""
    lines = [line for _, line in records]
    widths = np.fromiter(map(len, map(str.split, lines)), np.int64,
                         len(lines))
    if np.all(widths == width):
        try:
            rows = np.fromiter(
                map(int, chain.from_iterable(map(str.split, lines))),
                np.int64, width * len(lines)).reshape(-1, width)
        except (ValueError, OverflowError):
            rows = None
        if (rows is not None and np.all((rows >= 0) & (rows < q))
                and np.all(rows.any(axis=1))):
            return rows
    for ln, line in records:
        if not any(parse_codes(line.split(), width, q, f"line {ln}")):
            raise ParseError(f"line {ln}: zero vector is not a point")
    raise AssertionError("no faulty point line found")


def write_reduced_subspace(path, s: Subspace):
    g = s.geometry
    lines = [f"RED {g.n} {g.fs.q}"]
    for row in s.basis:
        lines.append(" ".join(str(int(x)) for x in row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_reduced_subspace(path, reduced: Geometry) -> Subspace:
    """Parse a RED file and validate it against the given reduced geometry."""
    with open(path) as f:
        text = f.read()
    header = None
    rows = []
    for ln, line in _records(text):
        if header is None:
            parts = line.split()
            if len(parts) != 3 or parts[0] != "RED":
                raise ParseError(f"line {ln}: expected 'RED m q0'")
            try:
                m, q0 = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ParseError(f"line {ln}: bad header: {exc}") from exc
            if m != reduced.n or q0 != reduced.fs.q:
                raise ParseError(
                    f"line {ln}: header RED {m} {q0} does not match the "
                    f"reduced geometry PG({reduced.n}, {reduced.fs.q})")
            header = (m, q0)
            continue
        rows.append(parse_codes(line.split(), reduced.n + 1, reduced.fs.q,
                                f"line {ln}", "row", "GF(q0)"))
    if header is None:
        raise ParseError("missing 'RED m q0' header")
    if not rows:
        raise ParseError("empty subspace")
    return Subspace(reduced, np.array(rows, dtype=np.int64))


def read_vectors(path, fs, width: int):
    """Big-space vectors, one per line of integer codes; '#' comments."""
    with open(path) as f:
        text = f.read()
    rows = [tuple(parse_codes(line.split(), width, fs.q, f"line {ln}",
                              "vector"))
            for ln, line in _records(text)]
    if not rows:
        raise ParseError("no vectors in file")
    return rows
