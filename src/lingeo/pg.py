"""Points, subspaces and point sets of PG(n, q).

Points are normalized homogeneous coordinate tuples (leftmost nonzero
coordinate = 1) of element codes.  Point and hyperplane indices are the
rank of the normalized tuple in lexicographic order; the bijection is
closed-form, so a Geometry never materializes its point table.  The
points of a subspace are enumerated as the ``lex_points`` parameter rows
times its basis, in one field matrix product.  Subspaces are stored as
reduced echelon bases, making equality a plain tuple comparison.

Each operation has one implementation, on rows: ``normalize_rows``,
``index_of_rows``, ``coords_of_indices`` and ``Subspace.contains_rows``
(a row lies in s when row - row[pivots] @ basis is zero).  The one-point
``normalize``, ``index_of``, ``coords_of`` and ``contains_coords`` read
them on a single row and hand back Python ints.  Two eliminations stay
apart on purpose: ``rref`` is scalar, as the bases it reduces have a few
short rows, where list arithmetic beats numpy's per-call cost, and
``PointSet.span_dim`` eliminates a whole point set in column passes.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldSpec


class GeometryError(Exception):
    pass


class EqualPoints(GeometryError):
    pass


class GeometryTooLarge(GeometryError):
    """A space whose point indices do not fit in int64."""


_INDEX_LIMIT = np.iinfo(np.int64).max


def space_size(q: int, k: int) -> int:
    """Number of points of PG(k, q)."""
    return (q ** (k + 1) - 1) // (q - 1)


def distinct(a) -> np.ndarray:
    """The sorted distinct values of ``a``, flattened: ``np.unique(a)``
    without numpy 2's masked-array check, whose first call imports
    ``numpy.ma`` (10 to 18 ms in every process)."""
    a = np.sort(a, axis=None)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def lex_points(k: int, q: int) -> np.ndarray:
    """The points of PG(k, q) as normalized code rows, in index order."""
    chunks = []
    for piv in range(k + 1):
        codes = np.arange(q ** (k - piv), dtype=np.int64)
        block = np.zeros((codes.size, k + 1), dtype=np.int64)
        block[:, piv] = 1
        # the trailing coordinates are the base-q digits of the rank
        for j in range(k, piv, -1):
            block[:, j] = codes % q
            codes //= q
        chunks.append(block)
    return np.concatenate(chunks)


# ---------------------------------------------------------------------------
# echelon form over a FieldSpec


def rref(fs: FieldSpec, rows):
    """Reduced row echelon form; returns (rows, pivots), dependent rows dropped."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    out = []
    pivots = []
    for row in rows:
        row = list(row)
        for r, p in zip(out, pivots):
            c = row[p]
            if c:
                for j in range(ncols):
                    if r[j]:
                        row[j] = fs.sub(row[j], fs.mul(c, r[j]))
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is None:
            continue
        ilead = fs.inv(row[lead])
        row = [fs.mul(ilead, v) for v in row]
        # back-substitute into existing rows
        for k, (r, p) in enumerate(zip(out, pivots)):
            c = r[lead]
            if c:
                out[k] = [fs.sub(r[j], fs.mul(c, row[j])) for j in range(ncols)]
        out.append(row)
        pivots.append(lead)
    order = sorted(range(len(out)), key=lambda i: pivots[i])
    return [tuple(out[i]) for i in order], [pivots[i] for i in order]


def right_nullspace(fs: FieldSpec, rows):
    """Basis (RREF) of {v : rows @ v = 0}."""
    ncols = len(rows[0])
    red, pivots = rref(fs, rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, p in zip(red, pivots):
            v[p] = fs.neg(r[f])
        basis.append(tuple(v))
    if not basis:
        return []
    return rref(fs, basis)[0]


class Subspace:
    """A projective subspace, canonically represented by its RREF basis."""

    __slots__ = ("geometry", "basis", "pivots")

    def __init__(self, geometry: "Geometry", rows):
        self.geometry = geometry
        basis, pivots = rref(geometry.fs, rows)
        if not basis:
            raise GeometryError("empty subspace has no basis")
        self.basis = tuple(basis)
        self.pivots = tuple(pivots)

    @property
    def dim(self) -> int:
        """Projective dimension."""
        return len(self.basis) - 1

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, basis={self.basis})"

    def contains_rows(self, rows) -> np.ndarray:
        """Mask of the coordinate rows that lie in s.  The basis is
        reduced, so a vector of s is its pivot entries times the basis,
        and a row lies in s when row - row[pivots] @ basis is zero."""
        fs = self.geometry.fs
        rows = np.asarray(rows, dtype=np.int64)
        span = fs.vmatmul(rows[:, list(self.pivots)], self.basis)
        return ~fs.vsub(rows, span).any(axis=1)

    def contains_coords(self, coords) -> bool:
        return bool(self.contains_rows([coords])[0])

    def num_points(self) -> int:
        return space_size(self.geometry.fs.q, self.dim)

    def coords_array(self) -> np.ndarray:
        """All points as an (m, n+1) array of codes, in parameter order."""
        fs = self.geometry.fs
        params = lex_points(self.dim, fs.q)
        return normalize_rows(fs, fs.vmatmul(params, self.basis))

    def point_set(self) -> "PointSet":
        g = self.geometry
        idx = g.index_of_rows(self.coords_array())
        return PointSet(g, idx)


def normalize_rows(fs: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """Scale each nonzero row so its first nonzero entry is 1."""
    rows = np.asarray(rows, dtype=np.int64)
    nz = rows != 0
    lead_col = np.argmax(nz, axis=1)
    lead = np.take_along_axis(rows, lead_col[:, None], axis=1)[:, 0]
    if np.any(lead == 0):
        raise GeometryError("zero vector is not a projective point")
    return fs.vmul(fs.vinv(lead)[:, None], rows)


class Geometry:
    """PG(n, q).  Immutable; all queries are pure."""

    def __init__(self, n: int, fs: FieldSpec):
        if n < 1:
            raise GeometryError("projective dimension must be >= 1")
        # PG(n, q) has more than 2^n points, so n >= 63 is refused before
        # q^(n+1) is formed; PG(62, 2), with 2^63 - 1 points, fits
        if n >= 63 or space_size(fs.q, n) > _INDEX_LIMIT:
            raise GeometryTooLarge(f"PG({n}, {fs.q}) has more than "
                                   "2^63 - 1 points, the limit of the "
                                   "int64 point indices")
        self.n = n
        self.fs = fs
        self.num_points = space_size(fs.q, n)
        self.num_hyperplanes = self.num_points
        # offsets[i] = number of points whose pivot position is < i
        offs = []
        total = 0
        for piv in range(n + 1):
            offs.append(total)
            total += fs.q ** (n - piv)
        self._pivot_offsets = offs

    def __repr__(self):
        return f"PG({self.n}, {self.fs.q})"

    def __eq__(self, other):
        return (
            isinstance(other, Geometry)
            and self.n == other.n
            and self.fs == other.fs
        )

    def __hash__(self):
        return hash((self.n, self.fs))

    # -- point <-> index bijection ------------------------------------------

    def normalize(self, coords):
        return tuple(normalize_rows(self.fs, [coords])[0].tolist())

    def index_of(self, coords) -> int:
        return int(self.index_of_rows([coords])[0])

    def coords_of(self, index: int):
        return tuple(self.coords_of_indices([index])[0].tolist())

    def index_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Point indices of nonzero coordinate rows, in any scale."""
        fs = self.fs
        rows = normalize_rows(fs, rows)
        nz = rows != 0
        piv = np.argmax(nz, axis=1)
        offs = np.array(self._pivot_offsets, dtype=np.int64)
        idx = offs[piv]
        rank = np.zeros(rows.shape[0], dtype=np.int64)
        for j in range(1, self.n + 1):
            inblock = j > piv
            rank = np.where(inblock, rank * fs.q + rows[:, j], rank)
        return idx + rank

    def coords_of_indices(self, idx) -> np.ndarray:
        """Normalized coordinate rows of an array of point indices."""
        idx = np.asarray(idx, dtype=np.int64)
        q = self.fs.q
        n = self.n
        offs = np.array(self._pivot_offsets, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_points):
            bad = idx[(idx < 0) | (idx >= self.num_points)][0]
            raise GeometryError(f"point index {int(bad)} out of range")
        piv = np.searchsorted(offs, idx, side="right") - 1
        rank = idx - offs[piv]
        out = np.zeros((idx.size, n + 1), dtype=np.int64)
        out[np.arange(idx.size), piv] = 1
        # trailing coordinates are the base-q digits of rank, most
        # significant first, right-aligned after the pivot column
        for j in range(n, 0, -1):
            digit = rank % q
            rank //= q
            live = j > piv
            out[:, j] = np.where(live, digit, out[:, j])
        return out

    # -- hyperplanes (dual points, same indexing scheme) ---------------------

    def hyperplane_subspace(self, dual) -> Subspace:
        """The hyperplane {x : dual . x = 0} as a Subspace."""
        return Subspace(self, right_nullspace(self.fs, [tuple(dual)]))

    def dual_of_hyperplane(self, s: Subspace):
        if s.dim != self.n - 1:
            raise GeometryError("not a hyperplane")
        ns = right_nullspace(self.fs, list(s.basis))
        return self.normalize(ns[0])

    def hyperplanes(self):
        for i in range(self.num_hyperplanes):
            yield self.hyperplane_subspace(self.coords_of(i))

    def hyperplanes_through(self, s: Subspace):
        """Hyperplanes containing s, enumerated as Subspaces."""
        if s.dim > self.n - 1:
            raise GeometryError("subspace too large")
        duals = right_nullspace(self.fs, list(s.basis))
        dual_space = Subspace(self, duals)
        for dual in dual_space.coords_array():
            yield self.hyperplane_subspace(tuple(int(c) for c in dual))

    # -- lines ----------------------------------------------------------------

    def line_through(self, pc, qc) -> Subspace:
        pc = self.normalize(pc)
        qc = self.normalize(qc)
        if pc == qc:
            raise EqualPoints("need two distinct points")
        return Subspace(self, [pc, qc])


# ---------------------------------------------------------------------------


class PointSet:
    """A set of points of one Geometry, held as sorted unique indices."""

    __slots__ = ("geometry", "indices", "_set", "_coords")

    def __init__(self, geometry: Geometry, indices):
        self.geometry = geometry
        idx = distinct(np.asarray(list(indices) if not isinstance(
            indices, np.ndarray) else indices, dtype=np.int64))
        self.indices = idx
        self._set = None
        self._coords = None

    @classmethod
    def from_coords(cls, geometry: Geometry, coords_list):
        """The points with the given nonzero coordinate rows, in any scale
        (``index_of_rows`` normalizes them)."""
        rows = np.asarray(coords_list, dtype=np.int64)
        return cls(geometry, geometry.index_of_rows(rows))

    @property
    def card(self) -> int:
        return int(self.indices.size)

    def __len__(self):
        return self.card

    def __contains__(self, index: int) -> bool:
        if self._set is None:
            self._set = frozenset(int(i) for i in self.indices)
        return int(index) in self._set

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and self.geometry == other.geometry
            and self.indices.shape == other.indices.shape
            and bool(np.all(self.indices == other.indices))
        )

    def __hash__(self):
        return hash((self.geometry, self.indices.tobytes()))

    def coords(self) -> np.ndarray:
        if self._coords is None:
            self._coords = self.geometry.coords_of_indices(self.indices)
        return self._coords

    def span_dim(self) -> int:
        """Projective dimension of the span of the set: its rank minus
        one, by one vectorized elimination over the coordinate rows, a
        ``vmul``/``vsub`` pass per column (``rref`` is for bases)."""
        fs = self.geometry.fs
        rows = self.coords()
        rank = 0
        for c in range(rows.shape[1]):
            nz = np.flatnonzero(rows[:, c])
            if nz.size == 0:
                continue
            pivot = fs.vmul(fs.vinv(rows[nz[0], c]), rows[nz[0]])
            # clears column c, the pivot's own row included
            rows = fs.vsub(rows, fs.vmul(rows[:, c:c + 1], pivot))
            rank += 1
        return rank - 1

    def union(self, other: "PointSet") -> "PointSet":
        return PointSet(self.geometry,
                        np.concatenate([self.indices, other.indices]))

    def intersection(self, other: "PointSet") -> "PointSet":
        return PointSet(self.geometry,
                        self.indices[np.isin(self.indices, other.indices)])

    def remove(self, index: int) -> "PointSet":
        return PointSet(self.geometry, self.indices[self.indices != index])

    def add(self, index: int) -> "PointSet":
        return PointSet(self.geometry,
                        np.concatenate([self.indices, [index]]))


# ---------------------------------------------------------------------------
# module-level operations


def build_geometry(n: int, fs: FieldSpec) -> Geometry:
    return Geometry(n, fs)


def line_through(g: Geometry, p, q) -> Subspace:
    return g.line_through(p, q)


def span(g: Geometry, items) -> Subspace:
    """Smallest subspace containing the given points and subspaces."""
    rows = []
    for it in items:
        if isinstance(it, Subspace):
            rows.extend(it.basis)
        else:
            rows.append(tuple(it))
    if not rows:
        raise GeometryError("span of nothing")
    return Subspace(g, rows)


def points_of(s: Subspace) -> PointSet:
    return s.point_set()


def intersect(a: Subspace, b: Subspace):
    """Intersection subspace, or None when disjoint."""
    fs = a.geometry.fs
    # z = (za, zb) in the left nullspace of A stacked on B has
    # za @ A = -(zb @ B), in both spans; the bases are independent, so
    # za @ A is never zero, and these vectors span the meet
    combos = right_nullspace(fs, list(zip(*a.basis, *b.basis)))
    if not combos:
        return None
    za = np.asarray(combos, dtype=np.int64)[:, :len(a.basis)]
    return Subspace(a.geometry, fs.vmatmul(za, a.basis).tolist())


def set_meet(b: PointSet, s: Subspace) -> PointSet:
    """B intersected with the points of s."""
    if b.geometry != s.geometry:
        raise GeometryError("point set and subspace live in different geometries")
    return PointSet(b.geometry, b.indices[s.contains_rows(b.coords())])
