"""Evidence for the verdicts a workload's input is known to have.

Everything here is computed without lingeo: a small GF(p^t) of our own,
built from the modulus in the point-set file header, evaluates hyperplane
forms on B.  A verdict of the program counts as wrong only when this
evidence contradicts it, so a defect in lingeo's arithmetic cannot hide a
wrong verdict by agreeing with itself.
"""

from __future__ import annotations

from itertools import product

import numpy as np


class OwnField:
    """GF(p^t) on lingeo's element codes (base-p digits, lowest first)."""

    def __init__(self, p: int, t: int, modulus):
        self.p, self.t, self.q = p, t, p ** t
        self.modulus = tuple(int(c) for c in modulus)
        if len(self.modulus) != t + 1 or self.modulus[t] != 1:
            raise ValueError("modulus must be monic of degree t")
        self._pw = p ** np.arange(t, dtype=np.int64)
        exp = self._exp_table()
        if not np.array_equal(np.sort(exp), np.arange(1, self.q)):
            raise ValueError("no primitive element found: modulus reducible")
        self.exp = np.concatenate([exp, exp])
        self.log = np.full(self.q, -1, dtype=np.int64)
        self.log[exp] = np.arange(self.q - 1, dtype=np.int64)

    # -- digits and scalar arithmetic ---------------------------------------

    def digits(self, codes):
        return (np.asarray(codes, dtype=np.int64)[..., None] // self._pw) % self.p

    def codes(self, digits):
        return (np.asarray(digits) * self._pw).sum(axis=-1)

    def _times_x(self, d):
        top = d[-1]
        d = [0] + d[:-1]
        return [(c - top * m) % self.p for c, m in zip(d, self.modulus)]

    def _mul_matrix(self, a: int):
        """t x t matrix over GF(p) of multiplication by a, on digit rows."""
        cols = []
        d = [int(c) for c in self.digits(a)]
        for _ in range(self.t):
            cols.append(d)
            d = self._times_x(d)
        return np.array(cols, dtype=np.int64)   # row j = digits of a*x^j

    def _scalar_mul(self, a: int, b: int) -> int:
        row = self.digits(a) @ self._mul_matrix(b) % self.p
        return int(self.codes(row))

    def _exp_table(self):
        """Powers of the first primitive element, by doubling."""
        order = self.q - 1
        primes = [r for r in range(2, order + 1)
                  if order % r == 0 and all(r % s for s in range(2, r))]
        for g in range(1, self.q):
            if all(self._scalar_pow(g, order // r) != 1 for r in primes):
                break
        exp = np.array([1], dtype=np.int64)
        step = g
        while exp.size < order:
            # exp[L:2L] = exp[0:L] * g^L, a linear map on digit rows
            more = self.codes(self.digits(exp) @ self._mul_matrix(step) % self.p)
            exp = np.concatenate([exp, more])
            step = self._scalar_mul(step, step)
        return exp[:order]

    def _scalar_pow(self, a: int, k: int) -> int:
        out = 1
        while k:
            if k & 1:
                out = self._scalar_mul(out, a)
            a = self._scalar_mul(a, a)
            k >>= 1
        return out

    # -- vectorized arithmetic ------------------------------------------------

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = self.exp[self.log[a] + self.log[b]]
        return np.where((a == 0) | (b == 0), 0, out)

    def add(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self.codes((self.digits(a) + self.digits(b)) % self.p)

    def neg(self, a):
        return self.codes((-self.digits(a)) % self.p)

    def forms(self, duals, rows):
        """(len(duals), len(rows)) values of each dual form on each row."""
        acc = np.zeros((duals.shape[0], rows.shape[0]), dtype=np.int64)
        for j in range(rows.shape[1]):
            acc = self.add(acc, self.mul(duals[:, j, None], rows[None, :, j]))
        return acc


def read_points(path):
    """(OwnField, coords) from a point-set file; codes as written."""
    header, rows = None, []
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].split()
            if not line:
                continue
            if header is None:
                header = line
            else:
                rows.append([int(x) for x in line])
    _, _n, p, t, modulus = header
    fs = OwnField(int(p), int(t), [int(c) for c in modulus.split(",")])
    return fs, np.array(rows, dtype=np.int64)


def tangent_witnesses(fs: OwnField, coords, seed: int, rounds: int = 40,
                      chunk: int = 256):
    """Seeded search for a tangent hyperplane at every point of B.

    Returns a (|B|, n+1) array of duals, with a zero row where no witness
    was found.  Each kept dual was evaluated on all of B and vanishes on
    its own point only, so it is an exact tangent.
    """
    rng = np.random.default_rng(seed)
    m, d = coords.shape
    piv = np.argmax(coords != 0, axis=1)
    witnesses = np.zeros((m, d), dtype=np.int64)
    todo = np.arange(m)
    for _ in range(rounds):
        if todo.size == 0:
            break
        duals = rng.integers(0, fs.q, (todo.size, d))
        rows = np.arange(todo.size)
        duals[rows, piv[todo]] = 0
        # choose the pivot entry so the form vanishes on the point itself
        pts = coords[todo]
        s = np.zeros(todo.size, dtype=np.int64)
        for j in range(d):
            s = fs.add(s, fs.mul(duals[:, j], pts[:, j]))
        lead = pts[rows, piv[todo]]
        duals[rows, piv[todo]] = fs.mul(fs.neg(s), fs.exp[(fs.q - 1 - fs.log[lead])
                                                          % (fs.q - 1)])
        ok = np.zeros(todo.size, dtype=bool)
        for lo in range(0, todo.size, chunk):
            vals = fs.forms(duals[lo:lo + chunk], coords)
            zeros = vals == 0
            own = zeros[np.arange(zeros.shape[0]), todo[lo:lo + chunk]]
            ok[lo:lo + chunk] = own & (zeros.sum(axis=1) == 1)
        witnesses[todo[ok]] = duals[ok]
        todo = todo[~ok]
    return witnesses


def plane_lines(fs: OwnField):
    """Every line dual of PG(2, q), normalized (leading entry 1)."""
    q = fs.q
    return np.array([(1, a, b) for a, b in product(range(q), repeat=2)]
                    + [(0, 1, b) for b in range(q)] + [(0, 0, 1)],
                    dtype=np.int64)


def catalog_entry_evidence(fs: OwnField, lines, coords):
    """Own verdicts for a small point set of PG(2, q).

    Returns (blocking, minimal, line_sizes) from every line of the plane.
    """
    zeros = fs.forms(lines, coords) == 0            # (lines, points)
    sizes = zeros.sum(axis=1)
    blocking = bool(np.all(sizes >= 1))
    tangent = zeros[sizes == 1]
    minimal = blocking and bool(np.all(tangent.any(axis=0)))
    return blocking, minimal, sorted(set(int(s) for s in sizes if s))
