"""Exact arithmetic in GF(p^t), subfields and Frobenius maps.

Elements are plain integers in 0..p^t-1, read base-p as the coefficients
of a polynomial of degree < t (least significant digit = constant term).
A FieldSpec owns the modulus and all lookup tables; it is immutable after
construction, so instances can be shared freely between threads.

Every field holds one discrete log / antilog pair: the scalar operations
read it as lists, the vectorized ones as one zero-safe numpy pair
(below).  The tables bound the order: a field with q = p^t > 2^16 raises
``FieldTooLarge`` before any modulus search.

The vectorized product works in the log domain without a zero mask: a
private log table sends 0 to the sentinel Z = 2(q-1), and the antilog
table is zero-padded to 2Z+1 entries, so ``exp0[log0[a] + log0[b]]`` is
the product for every pair, zeros included (a sum of two logs of nonzero
codes stays below Z, a sum with a sentinel in it does not).  ``vlog0`` /
``vexp0`` expose that pair, so a kernel that multiplies one operand by
many others takes its log once.
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
        if not is_prime(p):
            raise NonPrimeError(f"{p} is not prime")
        if t < 1:
            raise FieldError("extension degree must be >= 1")
        if p ** t > _TABLE_LIMIT:
            raise FieldTooLarge(f"GF({p}^{t}) has {p ** t} elements; the "
                                f"field tables stop at {_TABLE_LIMIT}")
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
        # zero-safe pair: log 0 is the sentinel Z = 2(q-1), the antilogs
        # are doubled so a sum of two logs needs no mod, and every sum
        # that holds a sentinel (Z..2Z) lands on the zero padding
        self.zero_log = 2 * (q - 1)
        self._log0 = np.array([self.zero_log] + log[1:], dtype=np.int64)
        self._exp0 = np.array(exp + exp + [0] * (self.zero_log + 1),
                              dtype=np.int64)
        self._init_add_tables(codes, digits)

    def _init_add_tables(self, codes, digits):
        """Spread/unspread tables: vectorized add as one lookup-add-lookup.

        Each base-p digit is moved into its own base-2p slot, so adding
        two spread codes never carries between digits; an unspread table
        over the (2p)^t sum space maps back with the per-digit mod p.
        ``digits`` holds the base-p digit columns of all ``codes``.
        """
        p, t = self.p, self.t
        self._spread = None
        if p == 2 or t == 1 or (2 * p) ** t > 1 << 24:
            return
        spread = sum(d * (2 * p) ** k for k, d in enumerate(digits))
        # a sum digit in 0..2p-1 is lo + p*hi with lo < p and hi in {0, 1},
        # so every sum code is spread(lo) + p*spread(hi) exactly once
        hi = spread[np.logical_and.reduce([d <= 1 for d in digits])]
        unspread = np.empty((2 * p) ** t, dtype=np.int64)
        unspread[spread[:, None] + p * hi] = codes[:, None]
        self._spread = spread
        self._unspread = unspread
        self._np_neg = sum(-d % p * p ** k for k, d in enumerate(digits))
        # zero-safe log sum -> spread(-product), and the spread-sum tables
        # back to spread codes and to logs; built on first use
        self._msneg = None

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
        a = np.asarray(a)
        b = np.asarray(b)
        if self._spread is not None:
            return self._unspread[self._spread[a] + self._spread[b]]
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        mult = 1
        for _ in range(self.t):
            out += (a % p + b % p) % p * mult
            a = a // p
            b = b // p
            mult *= p
        return out

    def vneg(self, a):
        p = self.p
        if p == 2:
            return np.array(a, copy=True)
        if self.t == 1:
            return (-np.asarray(a)) % p
        a = np.asarray(a)
        if self._spread is not None:
            return self._np_neg[a]
        out = np.zeros(a.shape, dtype=np.int64)
        mult = 1
        for _ in range(self.t):
            out += (-(a % p)) % p * mult
            a = a // p
            mult *= p
        return out

    def vsub(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.t == 1:
            return (np.asarray(a) - np.asarray(b)) % self.p
        return self.vadd(a, self.vneg(b))

    def vmul(self, a, b):
        return self._exp0[self._log0[np.asarray(a)] + self._log0[np.asarray(b)]]

    def vlog0(self, a):
        """Zero-safe discrete logs: a nonzero code maps to its log in
        0..q-2 and 0 to the sentinel ``zero_log`` = 2(q-1), so sums of two
        of them feed ``vexp0`` and ``vmulsub_spread_log0`` with no zero
        mask."""
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

    def spread_codes(self, a):
        """Spread representation of codes, or None if unavailable.

        Feed the result to vmulsub_spread_log0 to evaluate the log of
        c - a*b with two table gathers per element instead of seven.
        """
        if self._spread is None:
            return None
        return self._spread[np.asarray(a)]

    def vmulsub_spread_log0(self, sc, sums):
        """Zero-safe discrete logs (``vlog0``) of c - a1*b1 - a2*b2 - ...,
        with c pre-spread (sc = spread_codes(c)) and each product given
        by its ``vlog0`` sum in ``sums``.

        Two gathers per product: log sum -> spread(-product), then the
        spread sum -> spread code (between products) or -> log (after the
        last one).
        """
        if self._msneg is None:
            # spread(-exp0[l]) for every zero-safe log sum l
            self._msneg = self._spread[self._np_neg[self._exp0]]
            self._respread = self._spread[self._unspread]
            self._unspread_log0 = self._log0[self._unspread]
        acc = sc
        for s in sums[:-1]:
            acc = self._respread[acc + self._msneg[s]]
        return self._unspread_log0[acc + self._msneg[sums[-1]]]

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
    evaluating at a root of the small modulus; membership of a big code is
    the Frobenius fixed-point test x^(p^e) == x.
    """

    def __init__(self, big: FieldSpec, e: int):
        self.big = big
        self.e = e
        self.q0 = big.p ** e
        self.field = big if e == big.t else FieldSpec(big.p, e)
        root = self._find_root()
        self.root = root
        emb = []
        for code in range(self.q0):
            digits = _code_to_poly(code, big.p)
            acc, pw = 0, 1
            for d in digits:
                acc = big.add(acc, big.mul(d % big.p, pw))
                pw = big.mul(pw, root)
            emb.append(acc)
        self.embed_table = tuple(emb)
        member = np.zeros(big.q, dtype=bool)
        member[list(emb)] = True
        self.member_mask = member

    def _find_root(self) -> int:
        big = self.big
        if self.e == big.t:
            return big.p if big.t > 1 else 0  # class of x (or irrelevant for t=1)
        if self.e == 1:
            return 1
        mod = self.field.modulus
        for z in range(big.q):
            acc, pw = 0, 1
            for c in mod:
                acc = big.add(acc, big.mul(c, pw))
                pw = big.mul(pw, z)
            if acc == 0 and self._order_check(z):
                return z
        raise FieldError("no root of subfield modulus found")

    def _order_check(self, z: int) -> bool:
        # the root must generate a degree-e subfield: z^(p^e) == z and z not in
        # any smaller one is implied by being a root of an irreducible of degree e
        return self.big.frobenius(z, self.e) == z

    def embed(self, a: int) -> int:
        return self.embed_table[a]

    def __contains__(self, a: int) -> bool:
        return bool(self.member_mask[a])

    def members(self):
        return list(self.embed_table)


def make_field(p: int, t: int, modulus="auto") -> FieldSpec:
    """Validated GF(p^t); ``modulus='auto'`` picks the smallest irreducible."""
    return FieldSpec(p, t, modulus)
