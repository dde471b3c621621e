"""Exact arithmetic in GF(p^t), subfields and Frobenius maps.

Elements are plain integers in 0..p^t-1, read base-p as the coefficients
of a polynomial of degree < t (least significant digit = constant term).
A FieldSpec owns the modulus and all lookup tables; it is immutable after
construction, so instances can be shared freely between threads.

Every field holds one discrete log / antilog pair: the scalar operations
read it as lists, the vectorized ones as one zero-safe numpy pair
(below).  The tables bound the order: a field with q = p^t > 2^16 raises
``FieldTooLarge`` before the primality test or any modulus search, and
a degree t > 16 is refused without forming p^t.

The vectorized product works in the log domain without a zero mask: a
private log table sends 0 to the sentinel Z = 3(q-1), and the antilog
table is zero-padded to 2Z+1 entries, so ``exp0[log0[a] + log0[b]]`` is
the product for every pair, zeros included (a sum of two logs of nonzero
codes stays below 2q-3, a sum with a sentinel in it is at least Z).
``vlog0`` / ``vexp0`` expose that pair, so a kernel that multiplies one
operand by many others takes its log once.

Vectorized addition has three paths: XOR for p = 2, addition mod p for
t = 1, and Zech logarithms for odd extension fields, where x - y is read
off log x and a log sum of y through two O(q) tables (``_init_zech``),
so ``vmulsub_log0`` evaluates c - a1*b1 - ... with two gathers per
product.  A factor that is 0 or 1 needs no log-domain product where
subtraction works on codes: ``vsubmul01_log0`` takes c - a*b for such
an a as an integer product there.  The sentinel is 3(q-1) rather than
2(q-1) so that the Zech table's index ranges for x = 0, for y = 0 and
for two nonzero operands stay apart.  The scalar ``add`` / ``neg`` work digit by digit and are
the reference the tests hold the vectorized paths to.

A subfield GF(p^e) is found and embedded on the same vectorized
arithmetic: its modulus is evaluated at every code at once for the
lowest root, and its embedding table is one ``vmatmul`` of the base-p
digit rows of its codes with the root's powers.
"""

from __future__ import annotations

import json

import numpy as np

_TABLE_LIMIT = 1 << 16


class FieldError(Exception):
    """Base class for finite-field construction and arithmetic errors."""


class NonPrimeError(FieldError):
    pass


class ReducibleModulusError(FieldError):
    pass


class ZeroInverseError(FieldError):
    pass


class NonDivisorDegreeError(FieldError):
    pass


class FieldTooLarge(FieldError):
    """q = p^t above the 2^16 limit of the log/antilog tables."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); a polynomial is a tuple of ints, low first


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return _poly_trim(a)


def _code_to_poly(code: int, p: int):
    digits = []
    while code:
        code, r = divmod(code, p)
        digits.append(r)
    return tuple(digits)


def poly_is_irreducible(coeffs, p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    coeffs = _poly_trim(coeffs)
    deg = len(coeffs) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if coeffs[0] == 0:  # divisible by x
        return False
    for d in range(1, deg // 2 + 1):
        for low in range(p ** d):
            div = _code_to_poly(low, p) + (0,) * (d - len(_code_to_poly(low, p))) + (1,)
            if len(_poly_mod(coeffs, div, p)) == 0:
                return False
    return True


def _auto_modulus(p: int, t: int):
    """Smallest monic irreducible of degree t, by base-p code order."""
    if t == 1:
        return (0, 1)
    for low in range(p ** t):
        poly = _code_to_poly(low, p)
        coeffs = poly + (0,) * (t - len(poly)) + (1,)
        if poly_is_irreducible(coeffs, p):
            return coeffs
    raise ReducibleModulusError(f"no irreducible of degree {t} over GF({p})")


# ---------------------------------------------------------------------------


class FieldSpec:
    """GF(p^t) with a fixed irreducible modulus; all operations are pure."""

    def __init__(self, p: int, t: int, modulus="auto"):
        # ahead of the primality test, whose trial division takes minutes
        # on a large prime p; p >= 2, so t >= 17 is over the limit with
        # no need to form p ** t
        if p > 1 and (p > _TABLE_LIMIT or t >= _TABLE_LIMIT.bit_length()
                      or p ** t > _TABLE_LIMIT):
            raise FieldTooLarge(f"GF({p}^{t}) is too large: the field "
                                f"tables stop at {_TABLE_LIMIT}")
        if not is_prime(p):
            raise NonPrimeError(f"{p} is not prime")
        if t < 1:
            raise FieldError("extension degree must be >= 1")
        if modulus == "auto":
            modulus = _auto_modulus(p, t)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != t + 1 or modulus[t] != 1:
            raise ReducibleModulusError("modulus must be monic of degree t")
        if t > 1 and not poly_is_irreducible(modulus, p):
            raise ReducibleModulusError(f"{list(modulus)} is reducible over GF({p})")
        self.p = p
        self.t = t
        self.q = p ** t
        self.modulus = modulus
        self._subfields = {}
        self._init_tables()

    # -- representation ----------------------------------------------------

    def __repr__(self):
        return f"GF({self.p}^{self.t})" if self.t > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.t, self.modulus) == (other.p, other.t, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.t, self.modulus))

    def to_json(self) -> str:
        return json.dumps({"p": self.p, "t": self.t, "modulus": list(self.modulus)})

    @classmethod
    def from_json(cls, text: str) -> "FieldSpec":
        d = json.loads(text)
        return cls(d["p"], d["t"], d["modulus"])

    # -- tables ------------------------------------------------------------

    def _init_tables(self):
        """Log/antilog tables from the base-p digits of all codes.

        Multiplication by a fixed element r is GF(p)-linear on digit
        vectors: digit j of c*r is the sum over k of c_k times digit j of
        r*x^k, mod p.  So the multiply-by-r map of every code is t^2
        multiply-adds of digit columns, given the digits of r, rx, ...,
        rx^(t-1), and the powers of x come from the multiply-by-x map,
        read off the modulus.  Candidates g = 2, 3, ... are walked by list
        lookups until one has order q - 1.
        """
        p, t, q = self.p, self.t, self.q
        codes = np.arange(q, dtype=np.int64)
        # t columns of q digits, not one (q, t) block: freeing a block that
        # large (393 KB at 2^12) raises glibc's dynamic mmap threshold for
        # the rest of the process, which moved the census kernels' peak RSS
        digits = [codes // p ** k % p for k in range(t)]

        def times(rows):
            """Codes of c*r for every code c; rows[k] = digits of r*x^k."""
            out = np.zeros(q, dtype=np.int64)
            for j in range(t):
                out += sum(rows[k][j] * digits[k] for k in range(t)
                           if rows[k][j]) % p * p ** j
            return out.tolist()

        # x * x^k is x^(k+1) for k < t-1, and x^t = -(m_0 + ... + m_(t-1) x^(t-1))
        times_x = times([[int(j == k + 1) for j in range(t)]
                         for k in range(t - 1)]
                        + [[-m % p for m in self.modulus[:t]]])
        exp = [1]  # q == 2: the group is {1}
        for g in range(2, q):
            basis = [g]
            for _ in range(t - 1):
                basis.append(times_x[basis[-1]])
            times_g = times([[c // p ** j % p for j in range(t)]
                             for c in basis])
            seq = [1]
            x = g
            while x != 1:
                seq.append(x)
                x = times_g[x]
            if len(seq) == q - 1:
                exp = seq
                break
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log
        # zero-safe pair: log 0 is the sentinel Z = 3(q-1), the antilogs
        # are doubled so a sum of two logs needs no mod, and every sum
        # that holds a sentinel (Z..2Z) lands on the zero padding
        z = self.zero_log = 3 * (q - 1)
        self._log0 = np.array([z] + log[1:], dtype=np.int64)
        self._exp0 = np.array(exp + exp + [0] * (2 * z + 1 - 2 * (q - 1)),
                              dtype=np.int64)
        if p > 2 and t > 1:
            self._init_zech()

    def _init_zech(self):
        """Zech tables for subtraction on zero-safe logs (odd p, t > 1).

        With lx = log0(x) and s a log sum of y (below 2q-3 for y != 0,
        at least Z for y = 0), the log of x - y is
        ``_reduce[lx + _zech[s - lx]]``; a negative s - lx reads
        ``_zech`` from its end.  Its three ranges never meet because
        Z = 3(q-1):
        - x = 0, y != 0: s - lx in [-Z, -q-1]; the entry makes lx + entry
          the log of -y, s + h with h = (q-1)/2, as -1 = g^h;
        - both nonzero: d = s - lx in [-(q-2), 2q-4]; x - y = x(1 + g^(d+h)),
          so the entry is log0(1 + g^(d+h)), Z on cancellation;
        - y = 0: s - lx at least Z-q+2; the entry 0 leaves lx.
        The other entries (both zero) are 0 as well.  Then lx + entry is
        a log below Z, or at least Z for a zero result, and ``_reduce``
        takes the first mod q-1 and sends the rest to Z.  Both tables are
        int32, their entries below 2Z: 236 and 157 KB for GF(3^8).
        """
        p, q, z = self.p, self.q, self.zero_log
        h = (q - 1) // 2
        exp = np.array(self._exp, dtype=np.int64)
        # adding 1 moves only the constant digit
        one_plus = self._log0[exp - exp % p + (exp % p + 1) % p]
        zech = np.zeros(3 * z + 1, dtype=np.int32)
        d = np.arange(-(q - 2), 2 * q - 3)
        zech[d] = one_plus[(d + h) % (q - 1)]
        d = np.arange(-z, -q)
        zech[d] = d + h
        self._zech = zech
        v = np.arange(2 * z + 1, dtype=np.int64)
        self._reduce = np.where(v < z, v % (q - 1), z).astype(np.int32)

    def _zech_sub_log0(self, lx, s):
        """Zero-safe log of x - y from lx = log0(x) and a log sum s of y,
        int32: a consumer gathers with it by ``take``, since numpy's
        indexing takes a slow path on int32 indices."""
        # indexing, not take: take is slow on negative indices
        v = self._zech[s - lx]
        v += lx
        return self._reduce.take(v)

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        if self.t == 1:
            return (a + b) % p
        out = 0
        mult = 1
        while a or b:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += (da + db) % p * mult
            mult *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        if self.t == 1:
            return (-a) % p
        out = 0
        mult = 1
        while a:
            a, da = divmod(a, p)
            out += (-da) % p * mult
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverseError("0 has no multiplicative inverse")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroInverseError("0 has no negative powers")
            return 0
        k %= self.q - 1
        return self._exp[self._log[a] * k % (self.q - 1)]

    def frobenius(self, a: int, k: int) -> int:
        """a raised to the p^k."""
        return self.pow_(a, self.p ** (k % self.t))

    # -- vectorized arithmetic on int64 numpy arrays -------------------------

    def vadd(self, a, b):
        p = self.p
        if p == 2:
            return np.bitwise_xor(a, b)
        if self.t == 1:
            return (a + b) % p
        # x + y = x - (-y), and log(-y) = log y + (q-1)/2
        s = self._log0[np.asarray(b)] + (self.q - 1) // 2
        return self._exp0.take(
            self._zech_sub_log0(self._log0[np.asarray(a)], s))

    def vneg(self, a):
        p = self.p
        if p == 2:
            return np.array(a, copy=True)
        if self.t == 1:
            return (-np.asarray(a)) % p
        return self._exp0[self._log0[np.asarray(a)] + (self.q - 1) // 2]

    def vsub(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.t == 1:
            return (np.asarray(a) - np.asarray(b)) % self.p
        return self._exp0.take(self._zech_sub_log0(self._log0[np.asarray(a)],
                                                   self._log0[np.asarray(b)]))

    def vmul(self, a, b):
        return self._exp0[self._log0[np.asarray(a)] + self._log0[np.asarray(b)]]

    def vlog0(self, a):
        """Zero-safe discrete logs: a nonzero code maps to its log in
        0..q-2 and 0 to the sentinel ``zero_log`` = 3(q-1), so sums of two
        of them feed ``vexp0`` and ``vmulsub_log0`` with no zero mask."""
        return self._log0[np.asarray(a)]

    def vexp0(self, s):
        """Codes of the products whose ``vlog0`` sums are ``s``: for any
        a, b, ``vexp0(vlog0(a) + vlog0(b)) == vmul(a, b)``."""
        return self._exp0[s]

    def vmatmul(self, a, b):
        """``a @ b`` over the field: sums over a's last axis and b's first,
        giving shape ``a.shape[:-1] + b.shape[1:]``."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape[-1] != b.shape[0]:
            raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
        out = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
        lift = (...,) + (None,) * (b.ndim - 1)
        for j in range(b.shape[0]):
            term = self.vmul(a[..., j][lift], b[j])
            out = term if j == 0 else self.vadd(out, term)
        return out

    def vinv(self, a):
        a = np.asarray(a)
        if np.any(a == 0):
            raise ZeroInverseError("0 has no multiplicative inverse")
        return self._exp0[self.q - 1 - self._log0[a]]

    def vmulsub_log0(self, c, sums, out=None, work=None):
        """Zero-safe logs (``vlog0``) of c - a1*b1 - a2*b2 - ..., for codes
        c and each product given by its ``vlog0`` sum in ``sums``.

        Odd extension fields stay in the log domain, two Zech gathers per
        product; on the others the product codes are subtracted one by
        one, each into ``work`` and the logs into ``out``: int64 arrays of
        the result's shape (new ones when not given), so a kernel that
        passes its own buffers allocates nothing.  The Zech gathers
        allocate their own temporaries; their logs are copied into
        ``out`` only when it is given.
        """
        if self.p == 2 or self.t == 1:
            out, work = self._buffers(out, work, c, *sums)
            x = c
            for s in sums:
                np.take(self._exp0, s, out=out, mode="clip")
                self._vsub_into(x, out, work)
                x = work
            return np.take(self._log0, work, out=out, mode="clip")
        lx = self._log0.take(c)
        for s in sums:
            lx = self._zech_sub_log0(lx, s)
        return self._into(out, lx)

    def vsubmul01_log0(self, c, a, b, out=None, work=None):
        """Zero-safe logs (``vlog0``) of c - a*b, for codes c and b and a
        factor a that is 0 or 1, into ``out``, with ``work`` as in
        ``vmulsub_log0``.

        Where subtraction works on codes, a*b is the integer product, with
        no log sum and no antilog gather; odd extension fields subtract in
        the log domain, where the product is the log sum of a and b.
        """
        if self.p == 2 or self.t == 1:
            out, work = self._buffers(out, work, c, a, b)
            np.multiply(a, b, out=work)
            self._vsub_into(c, work, work)
            return np.take(self._log0, work, out=out, mode="clip")
        return self._into(out, self._zech_sub_log0(
            self._log0.take(c), self._log0.take(a) + self._log0.take(b)))

    @staticmethod
    def _buffers(out, work, *operands):
        """``out`` and ``work``, or new int64 arrays of the operands'
        broadcast shape in place of the missing ones."""
        if out is None or work is None:
            shape = np.broadcast_shapes(*(np.shape(x) for x in operands))
            out = np.empty(shape, dtype=np.int64) if out is None else out
            work = np.empty(shape, dtype=np.int64) if work is None else work
        return out, work

    @staticmethod
    def _into(out, x):
        """``x``, copied into ``out`` when it is given."""
        if out is None:
            return x
        np.copyto(out, x)
        return out

    def _vsub_into(self, a, b, out):
        """Codes of a - b into ``out``, for p = 2 or t = 1."""
        if self.p == 2:
            np.bitwise_xor(a, b, out=out)
        else:
            np.subtract(a, b, out=out)
            np.remainder(out, self.p, out=out)

    # -- subfields -----------------------------------------------------------

    def subfield(self, e: int) -> "SubfieldHandle":
        if self.t % e != 0:
            raise NonDivisorDegreeError(f"{e} does not divide {self.t}")
        if e not in self._subfields:
            self._subfields[e] = SubfieldHandle(self, e)
        return self._subfields[e]


class SubfieldHandle:
    """The subfield GF(p^e) inside GF(p^t), with its own standalone spec.

    ``embed`` maps codes of the standalone GF(p^e) into the big field by
    evaluating at a root of the small modulus; its image, the Frobenius
    fixed points x^(p^e) == x, is ``member_mask``.
    """

    def __init__(self, big: FieldSpec, e: int):
        self.big = big
        self.e = e
        self.q0 = big.p ** e
        self.field = big if e == big.t else FieldSpec(big.p, e)
        self.root = self._find_root()
        # code c = sum c_k p^k of GF(p^e) is sum c_k x^k; it embeds as
        # sum c_k root^k, its base-p digit row times the root's powers
        digits = np.arange(self.q0)[:, None] // big.p ** np.arange(e) % big.p
        emb = big.vmatmul(digits, [big.pow_(self.root, k) for k in range(e)])
        self.embed_table = tuple(emb.tolist())
        self.member_mask = np.zeros(big.q, dtype=bool)
        self.member_mask[emb] = True

    def _find_root(self) -> int:
        """The lowest code of the big field where the small modulus
        vanishes.  The modulus is irreducible of degree e, and e divides
        t, so its roots lie in GF(p^e) and each one generates it."""
        big = self.big
        if self.e == big.t:
            return big.p if big.t > 1 else 0  # class of x (or irrelevant for t=1)
        if self.e == 1:
            return 1
        z = np.arange(big.q, dtype=np.int64)
        value = np.zeros(big.q, dtype=np.int64)
        for c in reversed(self.field.modulus):
            value = big.vadd(big.vmul(value, z), c)
        return int(np.flatnonzero(value == 0)[0])

    def embed(self, a: int) -> int:
        return self.embed_table[a]

    def __contains__(self, a: int) -> bool:
        return bool(self.member_mask[a])

    def members(self):
        return list(self.embed_table)


def make_field(p: int, t: int, modulus="auto") -> FieldSpec:
    """Validated GF(p^t); ``modulus='auto'`` picks the smallest irreducible."""
    return FieldSpec(p, t, modulus)
