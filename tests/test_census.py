import itertools
import threading
import tracemalloc

import numpy as np
import pytest

from lingeo import census as census_module, structure
from lingeo.census import (kernel_operands, line_census, quotient_keys,
                           worker_count)
from lingeo.constructions import random_linear_blocking_set
from lingeo.gf import make_field
from lingeo.pg import PointSet, build_geometry, points_of, set_meet, space_size


def brute_census_hist(b):
    """Oracle: histogram of |L ∩ B| by scanning every line of the plane."""
    g = b.geometry
    assert g.n == 2
    hist = {}
    for h in g.hyperplanes():
        c = set_meet(b, h).card
        if c:
            hist[c] = hist.get(c, 0) + 1
    return hist


def test_census_matches_brute_force_baer(baer_49):
    census = line_census(baer_49, collect_sizes=[8])
    assert census.hist == brute_census_hist(baer_49)
    assert census.hist[8] == 57
    assert census.pair_count_identity()
    secants = census.secant_members(8)
    assert len(secants) == 57
    # the census keeps positions into B; secant_members is their index view
    assert np.array_equal(secants, baer_49.indices[census.secants[8]])
    # every member listed once, all collinear
    g = baer_49.geometry
    for tup in secants[:5]:
        pts = PointSet(g, tup)
        assert set_meet(baer_49, g.line_through(
            g.coords_of(tup[0]), g.coords_of(tup[1]))).card == 8
        assert pts.card == 8


def test_census_full_line(line_49):
    census = line_census(line_49)
    assert census.hist[50] == 1
    assert census.pair_count_identity()
    # every point of the line lies on q more tangent lines
    assert int(census.per_point_tangents.sum()) == 50 * 49


def test_census_small_random():
    g = build_geometry(2, make_field(3, 1))
    rng = np.random.default_rng(3)
    b = PointSet(g, rng.choice(g.num_points, 7, replace=False))
    census = line_census(b)
    assert census.hist == brute_census_hist(b)
    assert census.pair_count_identity()


def test_census_lines_meeting_count(baer_49):
    census = line_census(baer_49)
    brute = brute_census_hist(baer_49)
    assert census.lines_meeting() == sum(brute.values())


def test_pair_mode_matches_full_mode():
    # pair mode groups each point only against higher-index points and
    # recovers the histogram via N_k = c_{k-1} - c_k; it must agree with
    # the direct full-mode census on arbitrary sets
    g = build_geometry(2, make_field(3, 1))
    rng = np.random.default_rng(11)
    for _ in range(25):
        b = PointSet(g, rng.choice(g.num_points,
                                   int(rng.integers(2, 11)), replace=False))
        full = line_census(b, mode="full")
        pair = line_census(b, mode="pair")
        assert full.hist == pair.hist
        assert pair.pair_count_identity()


def test_pair_mode_collection_and_per_point(baer_49):
    full = line_census(baer_49, collect_sizes=[8], mode="full")
    pair = line_census(baer_49, collect_sizes=[8], mode="pair")
    assert full.hist == pair.hist
    assert np.array_equal(full.secant_members(8), pair.secant_members(8))
    assert np.array_equal(full.per_point_by_size[8], pair.per_point_by_size[8])
    assert np.array_equal(full.per_point_secants, pair.per_point_secants)
    assert np.array_equal(full.per_point_tangents, pair.per_point_tangents)


def test_pair_mode_refuses_shadowed_collection():
    # a line plus one extra point has both 2-secants and a long secant;
    # collecting the 2-secants in pair mode would silently include
    # partial views of the long line, so it must raise instead
    g = build_geometry(2, make_field(3, 1))
    line = points_of(g.line_through((1, 0, 0), (0, 1, 0)))
    b = line.union(PointSet(g, [g.index_of((0, 0, 1))]))
    try:
        line_census(b, collect_sizes=[2], mode="pair")
    except ValueError as err:
        assert "shadowed" in str(err)
    else:
        raise AssertionError("expected shadowed-collection error")


def scalar_lines(b):
    """Oracle for any PG(n, q): size -> sorted (S, size) index array of
    the lines meeting B in >= 2 points, by scalar elimination."""
    fs = b.geometry.fs
    pts = [[int(x) for x in c] for c in b.coords()]
    idx = [int(i) for i in b.indices]

    def reduce(v, u):
        # v minus its multiple of u that clears u's leading entry (u[k] = 1)
        k = next(i for i, x in enumerate(u) if x)
        return [fs.sub(a, fs.mul(v[k], c)) for a, c in zip(v, u)]

    found = set()
    for i, j in itertools.combinations(range(len(pts)), 2):
        u = pts[i]
        v = reduce(pts[j], u)
        lead = next(x for x in v if x)
        v = [fs.div(x, lead) for x in v]
        found.add(tuple(idx[r] for r in range(len(pts))
                        if not any(reduce(reduce(pts[r], u), v))))
    lines: dict = {}
    for members in sorted(found):
        lines.setdefault(len(members), []).append(members)
    return {s: np.array(rows, dtype=np.int64) for s, rows in lines.items()}


def _mixed_set(g, seed):
    """Five points on one line, three more on a second line through
    (1, 0, ..., 0), three points with leading column 1 and one with each
    later leading column, and up to ten random points.  So the census
    kernel quotients points of B by points of a later leading column,
    with log-domain products, and many images have a zero first free
    coordinate."""
    assert g.fs.q > 4
    unit = np.eye(g.n + 1, dtype=np.int64)
    rows = [unit[0] + c * unit[1] for c in range(4)] + [unit[1]]
    rows += [unit[0] + c * unit[2] for c in range(1, 4)]
    rows += [unit[1] + c * unit[g.n] for c in range(1, 3)]
    rows += [unit[j] for j in range(2, g.n + 1)]
    b = PointSet.from_coords(g, rows)
    rng = np.random.default_rng(seed)
    extra = PointSet(g, np.unique(rng.integers(0, g.num_points, 10)))
    return b.union(extra)


# char-2 xor, prime modulo, Zech addition on a small and a large field,
# and char 2 with 48-bit keys; blocks of 4 points and tiles of 2 rows,
# so the multi-block and multi-tile paths are covered
@pytest.mark.parametrize("n,p,t", [(2, 2, 4), (2, 5, 1), (2, 7, 2), (2, 3, 10),
                                   (4, 2, 12)])
def test_census_kernel_matches_oracles(field, monkeypatch, n, p, t):
    g = build_geometry(n, field(p, t))
    b = _mixed_set(g, seed=p * 100 + t)
    monkeypatch.setattr("lingeo.census.BLOCK_ELEMS", 4 * b.card)
    monkeypatch.setattr("lingeo.census.TILE_ELEMS", 2 * b.card)
    lines = scalar_lines(b)
    hist = {s: len(rows) for s, rows in lines.items()}
    slots = b.card * space_size(g.fs.q, n - 1)
    hist[1] = slots - sum(s * c for s, c in hist.items())
    if g.num_points < 3000:
        assert hist == brute_census_hist(b)
    pos = {int(i): k for k, i in enumerate(b.indices)}
    on_secants = np.zeros(b.card, dtype=np.int64)
    for rows in lines.values():
        np.add.at(on_secants, [pos[int(i)] for i in rows.ravel()], 1)
    longest = max(lines)
    assert longest >= 5
    for mode in ("full", "pair"):
        census = line_census(b, mode=mode)
        assert census.hist == hist
        assert list(census.secants) == [longest]
        assert np.array_equal(census.secant_members(longest), lines[longest])
        if mode == "full":
            assert np.array_equal(census.per_point_secants, on_secants)
        explicit = line_census(b, collect_sizes=list(lines), mode="full")
        for s, rows in lines.items():
            assert np.array_equal(explicit.secant_members(s), rows)


def _scalar_digits(b, rows, j0):
    """Oracle: (len(rows), m - j0, n) digits of the quotient images of
    B's points j0.. by each point of B at positions ``rows``, by scalar
    field arithmetic: each free coordinate's log relative to the leading
    nonzero one, or q-1 for a zero coordinate."""
    fs = b.geometry.fs
    q = fs.q
    pts = [[int(x) for x in c] for c in b.coords()]
    out = []
    for i in rows:
        p = pts[i]
        k = next(c for c, x in enumerate(p) if x)
        per_row = []
        for qc in pts[j0:]:
            img = [fs.sub(qc[c], fs.mul(qc[k], p[c]))
                   for c in range(len(p)) if c != k]
            lead = next((x for x in img if x), None)
            per_row.append([fs._log[fs.div(x, lead)] if x else q - 1
                            for x in img])
        out.append(per_row)
    return np.array(out, dtype=np.int64)


def _key_digits(fs, words, jbits, nd):
    """(nb, mc, nd) digits of ``quotient_keys`` words, and the column bits
    (None without them)."""
    w = int(fs.q - 1).bit_length()
    per = -(-nd // len(words))
    digits = []
    for kw, a in zip(words, range(0, nd, per)):
        b = min(a + per, nd)
        key = kw.astype(np.int64) >> jbits
        digits += [key >> (w * (b - 1 - i)) & (1 << w) - 1
                   for i in range(a, b)]
    cols = words[0].astype(np.int64) & (1 << jbits) - 1 if jbits else None
    return np.stack(digits, axis=2), cols


# char-2 xor, prime modulo and Zech subtraction in the 0/1 products, in
# one word with column bits and in words of one digit; tiles of 3 rows,
# so that tiles mix leading columns and log-domain prefixes of several
# lengths
@pytest.mark.parametrize("p,t", [(2, 4), (5, 1), (3, 2)])
@pytest.mark.parametrize("one_word", [True, False])
def test_quotient_keys_match_scalar_digits(field, monkeypatch, p, t,
                                           one_word):
    g = build_geometry(3, field(p, t))
    b = _mixed_set(g, seed=p + t)
    fs, m = g.fs, b.card
    assert set(np.argmax(b.coords() != 0, axis=1).tolist()) == {0, 1, 2, 3}
    if not one_word:
        monkeypatch.setattr(census_module, "_WORD_BITS",
                            int(fs.q - 1).bit_length())
    monkeypatch.setattr(census_module, "TILE_ELEMS", 3 * m)
    operands = kernel_operands(fs, b.coords())
    zero_first = 0
    # full mode: every point against all; pair mode: blocks of 6 points,
    # each against the points from its block's first on
    for i0, i1, pair in [(0, m, False)] + [(i, min(i + 6, m), True)
                                          for i in range(0, m, 6)]:
        j0 = i0 if pair else 0
        words, self_words, jbits = quotient_keys(
            fs, operands, b.coords()[i0:i1, None, :], j0, cols=True,
            merge_lower=pair)
        assert len(words) == (1 if one_word else 3) and (jbits > 0) == one_word
        got, cols = _key_digits(fs, words, jbits, 3)
        want = _scalar_digits(b, range(i0, i1), j0)
        zero_first += int(np.count_nonzero(want[:, :, 0] == fs.q - 1))
        if pair:
            # each row's columns up to its own join its self-group
            want[np.arange(j0, m)[None, :] <= np.arange(i0, i1)[:, None]] = \
                fs.q - 1
        assert np.array_equal(got, want)
        if jbits:
            assert np.array_equal(cols, np.broadcast_to(np.arange(m - j0),
                                                        cols.shape))
        self_digits, _ = _key_digits(
            fs, [np.array([[sw]]) for sw in self_words], 0, 3)
        assert (self_digits == fs.q - 1).all()
    # many images have a zero first free coordinate
    assert zero_first > 2 * m


def _late_line_set(field):
    """Two 3-secants through the points of lowest index, then a 5-point
    line: in blocks of 4 points, the first block holds points of the
    3-secants only, and the longest line shows up later."""
    g = build_geometry(4, field(2, 12))
    unit = np.eye(5, dtype=np.int64)
    rows = [unit[0] + c * unit[4] for c in range(3)]
    rows += [unit[0] + unit[3] + c * unit[4] for c in range(3)]
    rows += [unit[1] + c * unit[2] for c in range(4)] + [unit[2]]
    return PointSet.from_coords(g, rows)


def test_longer_line_in_a_later_block_replaces_collected_secants(
        field, monkeypatch):
    # blocks of 4 points at one worker, of 2 and 1 at two and three; in a
    # threaded run the first block returns after two later ones, so the
    # 5-point line can reach the merge before the 3-secants it replaces
    b = _late_line_set(field)
    monkeypatch.setattr(census_module, "_cpus", lambda: 4)
    monkeypatch.setattr("lingeo.census.BLOCK_ELEMS", 4 * b.card)
    lines = scalar_lines(b)
    assert max(lines) == 5 and len(lines[3]) == 2
    for mode in ("full", "pair"):
        runs = []
        for threads in (1, 2, 3):
            with monkeypatch.context() as mp:
                probe = _probed(mp, threads, census_module, "quotient_keys")
                runs.append(line_census(b, mode=mode, threads=threads))
            probe.check(threads)
            assert list(runs[-1].secants) == [5]
            assert np.array_equal(runs[-1].secant_members(5), lines[5])
        for got in runs[1:]:
            _assert_same_census(got, runs[0])


@pytest.mark.parametrize("mode", ["full", "pair"])
def test_secant_rows_are_16_bit_positions_in_oracle_order(monkeypatch, field,
                                                          baer_49, mode):
    # blocks of 2 points at one worker, of 1 at more: every block sorts its
    # own rows and the merge keeps block order, so the rows must be the
    # oracle's sorted rows for every thread count.  Many of baer_49's
    # 8-secants share their lowest member, and _late_line_set's longest
    # line first shows up in a later block, whose rows replace the
    # 3-secants collected before it.
    monkeypatch.setattr(census_module, "_cpus", lambda: 4)
    mixed = _mixed_set(build_geometry(3, field(7, 2)), seed=5)
    for b in (baer_49, _late_line_set(field), mixed):
        monkeypatch.setattr(census_module, "BLOCK_ELEMS", 2 * b.card)
        lines = scalar_lines(b)
        want = {s: np.searchsorted(b.indices, rows)
                for s, rows in lines.items()}
        longest = max(lines)
        # pair mode can collect no size a longer line shadows
        sizes = sorted(lines) if mode == "full" else [longest]
        for threads in (1, 2, 3):
            for asked in (sizes, []):
                census = line_census(b, collect_sizes=asked, mode=mode,
                                     threads=threads)
                assert sorted(census.secants) == (asked or [longest])
                for s, rows in census.secants.items():
                    assert rows.dtype == np.uint16
                    assert np.array_equal(rows, want[s])
                    assert np.array_equal(
                        census.per_point_by_size[s],
                        np.bincount(want[s].ravel(), minlength=b.card))


def test_positions_past_the_16_bit_limit_are_int32(monkeypatch, field,
                                                  rank5_pg3_81):
    # the limit below |B|, so B's positions are int32 while a late pair
    # block's columns still fit, and then below every count: the census,
    # the subline violations and the plane kernel must not change
    b, q0 = rank5_pg3_81, 3
    lines = _five_point_lines(build_geometry(2, field(2, 4)), 8, seed=2)
    runs = []
    for limit in (census_module.POSITION_LIMIT, b.card - 1, 1):
        monkeypatch.setattr(census_module, "POSITION_LIMIT", limit)
        censuses = [line_census(b, collect_sizes=[q0 + 1], mode=mode)
                    for mode in ("full", "pair")]
        secants = censuses[0].secants[q0 + 1]
        assert secants.dtype == (np.uint16 if limit >= b.card else np.int32)
        runs.append((censuses, structure.check_sublines(lines, 2),
                     structure.plane_block_data(censuses[0], secants, q0)))
    want_censuses, want_violations, want_planes = runs[0]
    assert want_violations["violations"]
    for censuses, violations, planes in runs[1:]:
        for got, want in zip(censuses, want_censuses):
            _assert_same_census(got, want)
        assert violations == want_violations
        assert np.array_equal(planes.good, want_planes.good)
        assert np.array_equal(planes.min_size, want_planes.min_size)
        assert planes.sizes == want_planes.sizes


def test_longest_secants_collected_as_if_asked(baer_49, trace_343, line_49):
    for b in (baer_49, trace_343, line_49):
        for mode in ("full", "pair"):
            census = line_census(b, mode=mode)
            k = max(census.hist)
            explicit = line_census(b, collect_sizes=[k], mode=mode)
            assert list(census.secants) == [k]
            assert census.hist == explicit.hist
            assert np.array_equal(census.secant_members(k),
                                  explicit.secant_members(k))
            assert census.per_point_by_size.keys() == \
                explicit.per_point_by_size.keys()
            for s, counts in census.per_point_by_size.items():
                assert np.array_equal(counts, explicit.per_point_by_size[s])
            for attr in ("per_point_secants", "per_point_tangents"):
                got, want = getattr(census, attr), getattr(explicit, attr)
                assert (got is None and want is None) or np.array_equal(got, want)


def test_two_secants_are_not_collected_unasked():
    # a conic of PG(2, 7) is an arc: its longest lines are 2-secants
    g = build_geometry(2, make_field(7, 1))
    conic = PointSet.from_coords(g, [(1, x, x * x % 7) for x in range(7)]
                                 + [(0, 0, 1)])
    for mode in ("full", "pair"):
        census = line_census(conic, mode=mode)
        assert census.hist[2] == 28
        assert census.secants == {}
        assert line_census(conic, collect_sizes=[2], mode=mode) \
            .secant_members(2).shape == (28, 2)


def _assert_same_census(got, want):
    assert got.hist == want.hist
    assert got.secants.keys() == want.secants.keys()
    for s, rows in want.secants.items():
        assert np.array_equal(got.secants[s], rows)
    assert got.per_point_by_size.keys() == want.per_point_by_size.keys()
    for s, counts in want.per_point_by_size.items():
        assert np.array_equal(got.per_point_by_size[s], counts)
    for attr in ("per_point_secants", "per_point_tangents"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize("n,p,t", [(2, 2, 4), (2, 5, 1), (2, 7, 2), (4, 2, 12)])
def test_multiword_keys_match_one_word(field, monkeypatch, n, p, t):
    # keys split into words of one or two digits, grouped by np.lexsort
    g = build_geometry(n, field(p, t))
    b = _mixed_set(g, seed=p * 100 + t + 1)
    w = int(g.fs.q - 1).bit_length()
    for kwargs in ({"collect_sizes": [2, 3], "mode": "full"}, {"mode": "pair"}):
        want = line_census(b, **kwargs)
        for digits in (1, 2):
            with monkeypatch.context() as mp:
                mp.setattr("lingeo.census._WORD_BITS", digits * w)
                mp.setattr("lingeo.census.BLOCK_ELEMS", 3 * b.card)
                got = line_census(b, **kwargs)
            _assert_same_census(got, want)


def _wide_key_set(t, extra):
    """A 3-secant and two more points of PG(4, 2^t), plus ``extra``
    random points."""
    g = build_geometry(4, make_field(2, t))
    unit = np.eye(5, dtype=np.int64)
    rows = [unit[0], unit[0] + unit[1], unit[1], unit[2] + unit[3],
            unit[4] + 5 * unit[2]]
    rng = np.random.default_rng(t)
    more = PointSet(g, rng.integers(0, g.num_points, extra))
    return PointSet.from_coords(g, rows).union(more)


# PG(4, 2^13) once stopped with "field too wide for packed line keys";
# its 52-bit keys and column bits fit one sort word.  PG(4, 2^15) has
# 60-bit keys, and with 20 points the column bits make 65, so the
# census groups it by np.lexsort on (row, key) instead.
@pytest.mark.parametrize("t,extra,sorted_word", [(13, 0, True),
                                                 (15, 15, False)])
def test_wide_field_census_matches_oracle(t, extra, sorted_word):
    b = _wide_key_set(t, extra)
    g = b.geometry
    operands = kernel_operands(g.fs, b.coords())
    _, _, jbits = quotient_keys(g.fs, operands, b.coords()[:, None, :],
                                cols=True)
    assert (jbits > 0) is sorted_word
    lines = scalar_lines(b)
    hist = {s: len(rows) for s, rows in lines.items()}
    hist[1] = b.card * space_size(g.fs.q, 3) - sum(
        s * c for s, c in hist.items())
    assert lines[3].shape == (1, 3) and max(lines) == 3
    for mode in ("full", "pair"):
        got = line_census(b, mode=mode)
        assert got.hist == hist
        assert np.array_equal(got.secant_members(3), lines[3])


def test_worker_count_clamps_to_cpus_and_blocks():
    assert worker_count(1, 10, cpus=4) == 1
    assert worker_count(3, 10, cpus=4) == 3
    assert worker_count(64, 10, cpus=4) == 4
    assert worker_count(64, 2, cpus=4) == 2
    assert worker_count(8, 0, cpus=4) == 1
    assert worker_count(8, 10, cpus=1) == 1


class _BlockProbe:
    """Wraps a block function and records the threads that call it and
    the order in which its calls return.  With ``late``, the first call
    waits until two later calls have returned: the earliest block then
    finishes after blocks behind it, so the callers must merge out of
    order, and two blocks must run at the same time on two threads or
    the wait times out."""

    def __init__(self, fn, late):
        self.fn = fn
        self.threads = set()
        self.returned = []          # call numbers, in the order they return
        self._late = late
        self._ahead = threading.Semaphore(0)
        self._calls = itertools.count()

    def __call__(self, *args, **kwargs):
        self.threads.add(threading.get_ident())
        call = next(self._calls)
        if self._late and call == 0:
            for _ in range(2):
                assert self._ahead.acquire(timeout=10), "no later block ran"
        out = self.fn(*args, **kwargs)
        self.returned.append(call)
        if call:
            self._ahead.release()
        return out

    def check(self, threads):
        """Several threads ran, and the first call returned late."""
        assert len(self.threads) >= min(threads, 2)
        if self._late:
            assert self.returned.index(0) >= 2


def _probed(monkeypatch, threads, module, name):
    """Probe ``module.name`` for one run on ``threads`` workers."""
    probe = _BlockProbe(getattr(module, name), late=threads > 1)
    monkeypatch.setattr(module, name, probe)
    return probe


def _blocks_of(monkeypatch, rows, width, blocks):
    """Kernel blocks of about ``rows // blocks`` rows ``width`` long, at
    one worker; more, and smaller, at several."""
    monkeypatch.setattr(census_module, "BLOCK_ELEMS",
                        width * -(-rows // blocks))


# real concurrency: four CPUs granted, every input split into at least
# four blocks, and in each threaded run the first block returns after two
# later ones, so the merge takes results out of order: the merged results
# must not depend on the thread count


def test_census_identical_across_threads(monkeypatch, baer_49, trace_343,
                                         field):
    monkeypatch.setattr(census_module, "_cpus", lambda: 4)
    mixed = _mixed_set(build_geometry(3, field(7, 2)), seed=5)
    for b, collect in ((baer_49, [8]), (trace_343, [8]), (mixed, [2, 3])):
        _blocks_of(monkeypatch, b.card, b.card, 4)
        for kwargs in ({"mode": "pair"},
                       {"mode": "full", "collect_sizes": collect}):
            runs = []
            for threads in (1, 2, 3):
                with monkeypatch.context() as mp:
                    probe = _probed(mp, threads, census_module,
                                    "quotient_keys")
                    runs.append(line_census(b, threads=threads, **kwargs))
                probe.check(threads)
                assert runs[-1].threads == threads
            for got in runs[1:]:
                _assert_same_census(got, runs[0])
    # trace_343 has lines of 1, 8 and 50 points, and a census keeps only
    # its 50-secants unasked: with_secants(8) re-censuses on the same
    # thread count
    assert line_census(trace_343, threads=2).with_secants(8).threads == 2


def _five_point_lines(g, lines, seed):
    """Five points on each of ``lines`` random lines."""
    fs = g.fs
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(lines):
        u, v = g.coords_of_indices(rng.choice(g.num_points, 2, replace=False))
        for a in rng.choice(fs.q, 5, replace=False):
            rows.append(fs.vadd(u, fs.vmul(int(a), v)) if a else v)
    return PointSet.from_coords(g, rows)


def test_subline_violations_identical_across_threads(monkeypatch, baer_49,
                                                     field):
    # five points of a line of PG(2, 16) form a subline PG(1, 4) only by
    # chance, so most of these 5-secants are violations, listed in order
    monkeypatch.setattr(census_module, "_cpus", lambda: 4)
    lines = _five_point_lines(build_geometry(2, field(2, 4)), 8, seed=2)
    for b, e, q0 in ((baer_49, 1, 7), (lines, 2, 4)):
        secants = line_census(b, collect_sizes=[q0 + 1],
                              mode="full").secants[q0 + 1]
        assert len(secants) >= 10
        # subline batches are 8 elements per secant member
        _blocks_of(monkeypatch, len(secants), 8 * (q0 + 1), 5)
        runs = []
        for threads in (1, 2, 3):
            with monkeypatch.context() as mp:
                probe = _probed(mp, threads, structure,
                                "sublines_pass_batch")
                runs.append(structure.check_sublines(b, e, threads=threads))
            probe.check(threads)
        assert runs[0]["checked"] == len(secants)
        assert runs[1:] == runs[:1] * 2
    # the violations span several batches
    assert len(runs[0]["violations"]) > len(secants) // 5


def test_plane_blocks_identical_across_threads(monkeypatch, rank5_pg3_81):
    monkeypatch.setattr(census_module, "_cpus", lambda: 4)
    b, q0 = rank5_pg3_81, 3
    census = line_census(b, collect_sizes=[q0 + 1], mode="full")
    secants = census.secants[q0 + 1]
    # a plane kernel row holds one member of each of the 40 4-secants
    # through its anchor
    assert set(census.hist) == {1, 4} and set(census.per_point_secants) == {40}
    _blocks_of(monkeypatch, len(secants), 40, 5)
    runs = []
    for threads in (1, 2, 3):
        with monkeypatch.context() as mp:
            probe = _probed(mp, threads, structure, "quotient_keys")
            runs.append(structure.plane_block_data(census, secants, q0,
                                                   threads=threads))
        probe.check(threads)
    assert set(runs[0].sizes) == {13, 40}
    for got in runs[1:]:
        assert np.array_equal(got.good, runs[0].good)
        assert np.array_equal(got.min_size, runs[0].min_size)
        assert got.sizes == runs[0].sizes


@pytest.fixture(scope="module")
def rank5_pg3_4096():
    """Rank-5 GF(8)-linear set of PG(3, 2^12) and its census: 4,681
    points on 304,265 9-secants, the shape of the verify-space benchmark
    input."""
    g = build_geometry(3, make_field(2, 12))
    b = random_linear_blocking_set(g, 3, 5, seed=0)[0]
    return b, line_census(b)


def _traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_census_peak_is_its_secants_plus_a_block(monkeypatch,
                                                 rank5_pg3_4096):
    # one thread, so the peak is deterministic.  A block of BLOCK_ELEMS
    # elements holds an int64 key and a 16-bit column per element and,
    # while its secant rows are cut, int32 offsets, 16-bit rows and their
    # sorted copy: under 24 bytes per element.  Each block's rows are
    # copied into the one uint16 array as they arrive, so the secants are
    # never held twice.  The slack is B's operands and the int64
    # temporaries of one row tile (TILE_ELEMS elements), whatever the
    # block size.
    b, want = rank5_pg3_4096
    monkeypatch.setattr(census_module, "BLOCK_ELEMS", 1 << 16)
    slack = 3 << 20
    for kwargs in ({"mode": "pair"}, {"mode": "full", "collect_sizes": [9]}):
        out = []
        peak = _traced_peak(lambda: out.append(line_census(b, **kwargs)))
        secants = out[0].secants[9]
        assert secants.shape == (304265, 9) and secants.dtype == np.uint16
        assert np.array_equal(secants, want.secants[9])
        assert peak <= (secants.nbytes + 24 * census_module.BLOCK_ELEMS
                        + slack)


def test_subline_batches_do_not_grow_with_threads(monkeypatch,
                                                  rank5_pg3_4096):
    # each of w workers takes batches of 1/w the one-thread size, so the
    # memory in flight stays that of one thread's batch
    monkeypatch.setattr(census_module, "_cpus", lambda: 2)
    b, census = rank5_pg3_4096
    structure.check_sublines(b, 3, census, threads=2)    # pool set-up
    peaks = {threads: _traced_peak(lambda: structure.check_sublines(
        b, 3, census, threads=threads)) for threads in (1, 2)}
    assert peaks[2] <= 1.1 * peaks[1]


def _conic():
    """A conic of PG(2, 7): an arc, so its lines meet it in 1 or 2 points."""
    g = build_geometry(2, make_field(7, 1))
    return PointSet.from_coords(g, [(1, x, x * x % 7) for x in range(7)]
                                + [(0, 0, 1)])


def _random_set():
    """40 random points of PG(3, 9): lines of 1, 2 and 3 points."""
    g = build_geometry(3, make_field(3, 2))
    rng = np.random.default_rng(4)
    return PointSet(g, rng.choice(g.num_points, 40, replace=False))


def _kernel_census(monkeypatch, b, **kwargs):
    """``line_census`` on the full or pair kernel: the probe always falls
    back."""
    with monkeypatch.context() as mp:
        mp.setattr(census_module, "_probe_passes", lambda sizes: False)
        return line_census(b, **kwargs)


def _assert_pair_agrees(got, pair):
    """The anchor census ``got`` against a pair-mode one, which counts
    only its collected sizes per point."""
    assert got.hist == pair.hist
    assert got.secants.keys() == pair.secants.keys()
    for s, rows in pair.secants.items():
        assert np.array_equal(got.secants[s], rows)
    for s, counts in pair.per_point_by_size.items():
        assert np.array_equal(got.per_point_by_size[s], counts)


# the paper's kind of set (lines of 1 mod p points), and sets with
# 2-secants, on which the probe is made to pass so that the anchor
# census runs to the end: a probe of 4 anchors and batches of 4, on
# four CPUs, so that at two and three threads the first batch is 4
# blocks whose first returns after two later ones
@pytest.mark.parametrize("name", ["baer_49", "trace_343", "mixed",
                                  "late_line", "conic", "random"])
def test_anchor_census_matches_kernels_and_oracle(request, monkeypatch,
                                                  field, name):
    b = {"mixed": lambda: _mixed_set(build_geometry(3, field(7, 2)), seed=5),
         "late_line": lambda: _late_line_set(field),
         "conic": _conic, "random": _random_set}.get(
        name, lambda: request.getfixturevalue(name))()
    paper_kind = name in ("baer_49", "trace_343")
    m = b.card
    monkeypatch.setattr(census_module, "_cpus", lambda: 4)
    monkeypatch.setattr(census_module, "TILE_ELEMS", 4 * m)
    monkeypatch.setattr(census_module, "BLOCK_ELEMS", 8 * m)
    full = _kernel_census(monkeypatch, b, mode="full")
    sizes = sorted(s for s in full.hist if s >= 2)
    wants = [(full, ()),
             (_kernel_census(monkeypatch, b, mode="full",
                             collect_sizes=sizes), sizes)]
    pair = line_census(b, mode="pair")
    assert full.strategy == "full" and pair.strategy == "pair"
    if m < 100:
        # the scalar oracle: every secant of every size
        lines = scalar_lines(b)
        assert sorted(lines) == sizes
        for s, rows in lines.items():
            assert np.array_equal(wants[1][0].secant_members(s), rows)
    # a set with 2-secants falls back after the probe: to the full kernel
    # at this size, to the pair kernel above the pair-mode threshold
    probed = line_census(b)
    assert probed.strategy == ("anchor" if paper_kind else "full")
    if not paper_kind:
        assert probed.rows == 4 + m
        monkeypatch.setattr(census_module, "_PAIR_MODE_THRESHOLD", m - 1)
        assert line_census(b).strategy == "pair"
        monkeypatch.setattr(census_module, "_probe_passes", lambda sizes: True)
    for want, collect in wants:
        for threads in (1, 2, 3):
            with monkeypatch.context() as mp:
                probe = _probed(mp, threads, census_module, "quotient_keys")
                got = line_census(b, collect_sizes=collect, threads=threads)
            probe.check(threads)
            assert got.strategy == "anchor"
            _assert_same_census(got, want)
            for rows in got.secants.values():
                assert rows.dtype == np.uint16
            if not collect:
                _assert_pair_agrees(got, pair)


def test_anchor_census_stops_before_every_point(monkeypatch, rank5_pg3_4096):
    # every line of a linear set is found from any of its points, so the
    # anchors run out of uncounted pairs long before the points run out
    b, census = rank5_pg3_4096
    monkeypatch.setattr(census_module, "_cpus", lambda: 4)
    full = _kernel_census(monkeypatch, b, mode="full")
    pair = line_census(b, mode="pair")
    for threads in (1, 2, 3):
        got = line_census(b, threads=threads)
        assert got.strategy == "anchor"
        assert got.rows == census.rows < b.card // 4
        _assert_same_census(got, full)
        _assert_pair_agrees(got, pair)
