"""Field reduction: PG(n, q0^h) viewed inside PG(h(n+1)-1, q0).

A SpreadContext fixes a GF(q0)-basis {1, d, ..., d^(h-1)} of GF(q0^h),
where d is the class of x in the modulus representation, and the induced
linear bijection between V(n+1, q0^h) and V(h(n+1), q0): eps^-1 is
defined by field arithmetic and the expansion table eps is its inverse.
Each point of the big space then becomes an (h-1)-subspace of the
reduced space; the family of all of them is the Desarguesian spread.
The reduced geometry is never enumerated globally.  A linear set B(U) has
one enumeration, ``linear_set_from_subspace``: eps^-1 of the basis of
eps(U), combined over the points of PG(dim U, q0) up in the big space.
Vectors and the canonical subgeometries go through it.
Lifting sublines into the reduced space is the certifier's work
(``structure.certify_linearity``), done in batches over these maps.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldError
from .pg import Geometry, PointSet, Subspace, distinct, lex_points, rref


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
        """The coordinate maps of the basis {1, d, ..., d^(h-1)}.

        eps^-1 sends h small codes to sum_i embed(c_i) * d^i; the expansion
        table eps, big code -> h small codes, is its inverse permutation,
        read off by mapping all q tuples of small codes up at once.
        """
        fs = self.big.fs
        delta = fs.p if fs.t > 1 else 1  # class of x (t = 1 never occurs with h > 1)
        self.embed_np = np.array(self.sub.embed_table, dtype=np.int64)
        self.delta_pows = [fs.pow_(delta, i) for i in range(self.h)]
        codes = np.arange(fs.q, dtype=np.int64)
        small = codes[:, None] // self.q0 ** np.arange(self.h) % self.q0
        big = fs.vmatmul(self.embed_np[small], self.delta_pows)
        if distinct(big).size != fs.q:
            raise ReductionError("basis matrix is singular")
        self.expand_table = np.empty_like(small)
        self.expand_table[big] = small

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
        """B(U) for the GF(q0)-span U of the given big vectors."""
        gens = [tuple(int(c) for c in v) for v in vectors
                if any(int(c) for c in v)]
        if not gens:
            raise ZeroOnly("need at least one nonzero vector")
        return self.linear_set_from_subspace(
            Subspace(self.reduced, self.eps_rows(np.array(gens, dtype=np.int64))))

    def linear_set_from_subspace(self, pi: Subspace) -> PointSet:
        """B(pi): big points whose spread element meets the reduced subspace.

        eps^-1 is GF(q0)-linear, eps^-1(sum l_i r_i) = sum embed(l_i) *
        eps^-1(r_i), so the points of pi map up as the combinations of
        eps^-1 of its basis, one per point of PG(dim pi, q0).
        """
        if pi.geometry != self.reduced:
            raise ReductionError("subspace does not live in the reduced geometry")
        basis = self.eps_inv_rows(np.array(pi.basis, dtype=np.int64))
        lam = self.embed_np[lex_points(pi.dim, self.q0)]
        idx = self.big.index_of_rows(self.big.fs.vmatmul(lam, basis))
        return PointSet(self.big, idx)

    def reduced_rank(self, vectors) -> int:
        rows = self.eps_rows(np.array([list(v) for v in vectors], dtype=np.int64))
        return len(rref(self.small_field, rows)[0])
