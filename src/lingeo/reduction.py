"""Field reduction: PG(n, q0^h) viewed inside PG(h(n+1)-1, q0).

A SpreadContext fixes a GF(q0)-basis {1, d, ..., d^(h-1)} of GF(q0^h),
where d is the class of x in the modulus representation, and the induced
linear bijection between V(n+1, q0^h) and V(h(n+1), q0).  Each point of
the big space then becomes an (h-1)-subspace of the reduced space; the
family of all of them is the Desarguesian spread.  The reduced geometry
is never enumerated globally: linear sets are computed by walking the
points of the defining subspace and mapping each one back upstairs.
Lifting sublines into the reduced space is the certifier's work
(``structure.certify_linearity``), done in batches over these maps.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldError, FieldSpec
from .pg import Geometry, PointSet, Subspace, lex_points, rref


class ReductionError(Exception):
    pass


class ZeroOnly(ReductionError):
    pass


class SpreadContext:
    """The correspondence between PG(n, q0^h) and a Desarguesian spread."""

    def __init__(self, big: Geometry, e: int):
        fs = big.fs
        if fs.t % e != 0:
            raise FieldError(f"subfield degree {e} does not divide {fs.t}")
        self.big = big
        self.sub = fs.subfield(e)
        self.small_field = self.sub.field
        self.h = fs.t // e
        self.e = e
        self.q0 = fs.p ** e
        self.reduced = Geometry(self.h * (big.n + 1) - 1, self.small_field)
        self._build_maps()

    def _build_maps(self):
        """Per-code expansion table: big code -> h small-field codes."""
        fs = self.big.fs
        fs0 = self.small_field
        p, t, e, h = fs.p, fs.t, self.e, self.h
        delta = p if t > 1 else 1  # class of x (t = 1 never occurs with h > 1)
        root = self.sub.root if e > 1 else 1
        # F_p basis {root^j * delta^i}; column (i*e + j) = digits of that product
        cols = []
        for i in range(h):
            di = fs.pow_(delta, i) if t > 1 else 1
            for j in range(e):
                v = fs.mul(di, fs.pow_(root, j) if e > 1 else 1)
                digits = []
                for _ in range(t):
                    v, r = divmod(v, p)
                    digits.append(r)
                cols.append(digits)
        # invert the digit matrix over GF(p): [M | I] reduces to [I | M^-1]
        # exactly when M is invertible
        aug = [[cols[c][r] for c in range(t)] + [int(r == c) for c in range(t)]
               for r in range(t)]
        red, pivots = rref(FieldSpec(p, 1), aug)
        if pivots != list(range(t)):
            raise ReductionError("basis matrix is singular")
        minv = [row[t:] for row in red]
        # expansion of every big code into h small codes, vectorized
        codes = np.arange(fs.q, dtype=np.int64)
        digs = np.empty((fs.q, t), dtype=np.int64)
        tmp = codes.copy()
        for r in range(t):
            digs[:, r] = tmp % p
            tmp //= p
        minv_np = np.array(minv, dtype=np.int64)
        coeff = digs @ minv_np.T % p  # (q, t), entry (i*e+j)
        small = np.zeros((fs.q, h), dtype=np.int64)
        for i in range(h):
            for j in range(e - 1, -1, -1):
                small[:, i] = small[:, i] * p + coeff[:, i * e + j]
        self.expand_table = small
        # inverse: h small codes -> big code, needs embed and delta powers
        self.embed_np = np.array(self.sub.embed_table, dtype=np.int64)
        self.delta_pows = [fs.pow_(delta, i) if t > 1 else 1 for i in range(h)]

    # -- coordinate maps -----------------------------------------------------

    def eps_rows(self, rows: np.ndarray) -> np.ndarray:
        """Map (m, n+1) big vectors to (m, (n+1)h) reduced vectors."""
        rows = np.asarray(rows, dtype=np.int64)
        out = self.expand_table[rows]  # (m, n+1, h)
        return out.reshape(rows.shape[0], -1)

    def eps_inv_rows(self, rows: np.ndarray) -> np.ndarray:
        """Map (m, (n+1)h) reduced vectors back to (m, n+1) big vectors."""
        rows = np.asarray(rows, dtype=np.int64)
        chunks = rows.reshape(rows.shape[0], self.big.n + 1, self.h)
        # each coordinate is sum_i embed(chunk_i) * delta^i
        return self.big.fs.vmatmul(self.embed_np[chunks], self.delta_pows)

    # -- spread --------------------------------------------------------------

    def spread_element(self, coords) -> Subspace:
        """The (h-1)-dimensional reduced subspace of a big point."""
        fs = self.big.fs
        u = np.asarray(self.big.normalize(coords), dtype=np.int64)
        rows = np.stack([fs.vmul(u, d) for d in self.delta_pows])
        return Subspace(self.reduced, self.eps_rows(rows))

    # -- linear sets ----------------------------------------------------------

    def linear_set_from_vectors(self, vectors) -> PointSet:
        """B(U) for the GF(q0)-span U of the given big vectors.

        Enumerated directly in the big space: all GF(q0)-combinations of a
        maximal GF(q0)-independent subset of the generators.
        """
        fs = self.big.fs
        gens = [tuple(int(c) for c in v) for v in vectors
                if any(int(c) for c in v)]
        if not gens:
            raise ZeroOnly("need at least one nonzero vector")
        reduced_rows, _ = rref(self.small_field,
                               self.eps_rows(np.array(gens, dtype=np.int64)))
        basis = self.eps_inv_rows(np.array(reduced_rows, dtype=np.int64))
        # one combination per point of PG(r-1, q0): the projective
        # coefficient vectors, embedded in the big field
        lam = self.embed_np[lex_points(basis.shape[0] - 1, self.q0)]
        idx = self.big.index_of_rows(fs.vmatmul(lam, basis))
        return PointSet(self.big, idx)

    def linear_set_from_subspace(self, pi: Subspace) -> PointSet:
        """B(pi): big points whose spread element meets the reduced subspace."""
        if pi.geometry != self.reduced:
            raise ReductionError("subspace does not live in the reduced geometry")
        pts = pi.coords_array()
        big_rows = self.eps_inv_rows(pts)
        idx = self.big.index_of_rows(big_rows)
        return PointSet(self.big, np.unique(idx))

    def reduced_rank(self, vectors) -> int:
        rows = self.eps_rows(np.array([list(v) for v in vectors], dtype=np.int64))
        return len(rref(self.small_field, rows)[0])
