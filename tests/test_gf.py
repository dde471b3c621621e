import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lingeo.gf import (
    FieldSpec,
    FieldTooLarge,
    NonDivisorDegreeError,
    NonPrimeError,
    ReducibleModulusError,
    ZeroInverseError,
    is_prime,
    make_field,
    poly_is_irreducible,
)


def test_make_field_prime():
    fs = make_field(7, 1)
    assert fs.q == 7
    assert fs.modulus == (0, 1)


def test_make_field_cubic():
    fs = make_field(7, 3)
    assert fs.q == 343


def test_gf4_explicit_modulus():
    fs = make_field(2, 2, [1, 1, 1])
    # x * x = x + 1  (codes 2*2 = 3)
    assert fs.mul(2, 2) == 3


def test_bad_inputs():
    with pytest.raises(NonPrimeError):
        make_field(6, 1)
    with pytest.raises(ReducibleModulusError):
        make_field(2, 2, [0, 0, 1])  # x^2 is reducible


def test_mul_mod7():
    fs = make_field(7, 1)
    assert fs.mul(3, 5) == 1


def test_pow_group_order():
    for fs in (make_field(5, 2), make_field(2, 4), make_field(3, 3)):
        for a in range(1, fs.q):
            assert fs.pow_(a, fs.q - 1) == 1


def test_inverse_and_negation_all():
    fs = make_field(3, 4)
    for a in range(fs.q):
        assert fs.add(a, fs.neg(a)) == 0
        if a:
            assert fs.mul(a, fs.inv(a)) == 1
    with pytest.raises(ZeroInverseError):
        fs.inv(0)


def test_frobenius_identity_and_order():
    fs = make_field(7, 2)
    fixed = [a for a in range(fs.q) if fs.frobenius(a, 1) == a]
    assert len(fixed) == 7
    for a in range(fs.q):
        assert fs.frobenius(a, 0) == a
        assert fs.frobenius(a, fs.t) == a


def test_frobenius_is_automorphism_exhaustive():
    # all fields of order <= 64 with composite degree behave
    for p, t in [(2, 4), (3, 3), (2, 6), (5, 2)]:
        fs = make_field(p, t)
        for e in [d for d in range(1, t + 1) if t % d == 0]:
            for a in range(fs.q):
                for b in range(0, fs.q, max(1, fs.q // 17)):
                    lhs = fs.frobenius(fs.add(a, b), e)
                    assert lhs == fs.add(fs.frobenius(a, e), fs.frobenius(b, e))
                    lhs = fs.frobenius(fs.mul(a, b), e)
                    assert lhs == fs.mul(fs.frobenius(a, e), fs.frobenius(b, e))


def test_subfield_counts():
    fs = make_field(7, 3)
    assert len(fs.subfield(1).members()) == 7
    assert len(fs.subfield(3).members()) == 343
    fs16 = make_field(2, 4)
    sub = fs16.subfield(2)
    assert int(sub.member_mask.sum()) == 4
    # image closed under + and *
    mem = sub.members()
    for a in mem:
        for b in mem:
            assert fs16.add(a, b) in sub
            assert fs16.mul(a, b) in sub
    with pytest.raises(NonDivisorDegreeError):
        fs16.subfield(3)


def _subfield_fields():
    for p in range(2, 1 << 12):
        t = 1
        while is_prime(p) and p ** t <= 1 << 12:
            yield p, t
            t += 1
    yield 2, 16
    yield 3, 10


def test_subfield_roots_and_embeddings_are_pinned(field):
    """Every subfield of every GF(q), q <= 2^12, then of GF(2^16) and
    GF(3^10): 670 handles in 606 fields.  The digest was taken from the
    scalar root search and embedding loop that the vectorized ones
    replaced."""
    h = hashlib.sha256()
    for p, t in _subfield_fields():
        # GF(3^10) is the session's; the other fields are not kept
        fs = field(p, t) if (p, t) == (3, 10) else make_field(p, t)
        for e in range(1, t + 1):
            if t % e == 0:
                sub = fs.subfield(e)
                h.update(repr((p, t, e, sub.root,
                               list(sub.embed_table))).encode())
    assert h.hexdigest() == ("4a361d2cd9c15ce8721022920bebc851"
                             "4e5011a15ddedcb316285087cdf22662")


def test_subfield_membership_is_frobenius_fixed():
    fs = make_field(3, 4)
    sub = fs.subfield(2)
    for a in range(fs.q):
        assert (a in sub) == (fs.frobenius(a, 2) == a)


def test_subfield_embedding_is_homomorphism():
    fs = make_field(5, 2)
    sub = fs.subfield(1)
    for a in range(5):
        for b in range(5):
            assert fs.add(sub.embed(a), sub.embed(b)) == sub.embed((a + b) % 5)
            assert fs.mul(sub.embed(a), sub.embed(b)) == sub.embed(a * b % 5)


@settings(max_examples=200)
@given(st.integers(0, 342), st.integers(0, 342), st.integers(0, 342))
def test_field_axioms_sampled_gf343(a, b, c):
    fs = make_field(7, 3)
    assert fs.add(a, b) == fs.add(b, a)
    assert fs.mul(a, b) == fs.mul(b, a)
    assert fs.add(fs.add(a, b), c) == fs.add(a, fs.add(b, c))
    assert fs.mul(fs.mul(a, b), c) == fs.mul(a, fs.mul(b, c))
    assert fs.mul(a, fs.add(b, c)) == fs.add(fs.mul(a, b), fs.mul(a, c))


def test_vectorized_matches_scalar():
    fs = make_field(7, 2)
    rng = np.random.default_rng(0)
    a = rng.integers(0, fs.q, 500)
    b = rng.integers(0, fs.q, 500)
    assert all(fs.vadd(a, b)[i] == fs.add(int(a[i]), int(b[i])) for i in range(500))
    assert all(fs.vsub(a, b)[i] == fs.sub(int(a[i]), int(b[i])) for i in range(500))
    assert all(fs.vmul(a, b)[i] == fs.mul(int(a[i]), int(b[i])) for i in range(500))
    nz = a[a != 0]
    assert all(fs.vinv(nz)[i] == fs.inv(int(nz[i])) for i in range(nz.size))


def _scalar_matmul(fs, a, b):
    out = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    for ia in np.ndindex(*a.shape[:-1]):
        for ib in np.ndindex(*b.shape[1:]):
            acc = 0
            for j in range(b.shape[0]):
                acc = fs.add(acc, fs.mul(int(a[ia + (j,)]), int(b[(j,) + ib])))
            out[ia + ib] = acc
    return out


# xor, prime modulo, then Zech addition on a small and a large field
@pytest.mark.parametrize("p,t", [(2, 4), (3, 1), (7, 2), (3, 10)])
def test_vmatmul_matches_scalar(field, p, t):
    fs = field(p, t)
    rng = np.random.default_rng(p * 100 + t)
    shapes = [((5, 3), (3, 4)),      # matrix . matrix
              ((5, 3), (3,)),        # matrix . vector
              ((3,), (3, 4)),        # vector . matrix
              ((3,), (3,)),          # vector . vector
              ((4, 2, 3), (3,))]     # 3-D a against a vector
    for sa, sb in shapes:
        a = rng.integers(0, fs.q, sa)
        b = rng.integers(0, fs.q, sb)
        got = fs.vmatmul(a, b)
        assert got.shape == sa[:-1] + sb[1:]
        assert np.array_equal(got, _scalar_matmul(fs, a, b))


def test_irreducibility_checker():
    assert poly_is_irreducible((1, 1, 1), 2)
    assert not poly_is_irreducible((1, 0, 1), 2)  # x^2+1 = (x+1)^2 over GF(2)
    assert poly_is_irreducible((1, 0, 0, 0, 0, 1, 1), 2)  # x^6+x^5+1
    # x^6+...+x+1 = (x^3+x+1)(x^3+x^2+1): reducible with no root
    assert not poly_is_irreducible((1, 1, 1, 1, 1, 1, 1), 2)


def test_json_roundtrip():
    fs = make_field(11, 2)
    again = FieldSpec.from_json(fs.to_json())
    assert again == fs


# q = 2, xor, prime modulo, then two odd extension fields
@pytest.mark.parametrize("p,t", [(2, 1), (2, 4), (3, 1), (7, 2), (3, 10)])
def test_zero_safe_log_product_matches_scalar(field, p, t):
    fs = field(p, t)
    rng = np.random.default_rng(p * 10 + t)
    a = rng.integers(0, fs.q, 300)
    b = rng.integers(0, fs.q, 300)
    # zeros on the left, on the right and on both sides
    a[:20] = 0
    b[10:30] = 0
    want = np.array([fs.mul(int(x), int(y)) for x, y in zip(a, b)])
    assert np.array_equal(fs.vmul(a, b), want)
    assert np.array_equal(fs.vexp0(fs.vlog0(a) + fs.vlog0(b)), want)
    # the log of one operand taken once, against a whole row of others
    la = fs.vlog0(a[:, None])
    assert np.array_equal(fs.vexp0(la + fs.vlog0(b[None, :40])),
                          [[fs.mul(int(x), int(y)) for y in b[:40]] for x in a])
    # vlog0 marks zero with zero_log and is the scalar log elsewhere
    assert np.array_equal(fs.vlog0(a) == fs.zero_log, a == 0)
    nz = a != 0
    assert np.array_equal(fs.vlog0(a)[nz], [fs._log[x] for x in a[nz]])
    # vinv reads the same pair
    assert np.array_equal(fs.vinv(a[nz]), [fs.inv(int(x)) for x in a[nz]])


@pytest.mark.parametrize("p,t", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_vector_add_sub_neg_match_scalar_on_all_pairs(field, p, t):
    fs = field(p, t)
    q = fs.q
    a, b = np.divmod(np.arange(q * q), q)
    assert np.array_equal(fs.vadd(a, b),
                          [fs.add(int(x), int(y)) for x, y in zip(a, b)])
    assert np.array_equal(fs.vsub(a, b),
                          [fs.sub(int(x), int(y)) for x, y in zip(a, b)])
    assert np.array_equal(fs.vneg(np.arange(q)), [fs.neg(x) for x in range(q)])


@pytest.mark.parametrize("p,t", [(7, 2), (5, 3), (3, 10)])
def test_log_mulsub_matches_scalar(field, p, t):
    fs = field(p, t)
    rng = np.random.default_rng(5)
    c, a1, b1, a2, b2 = rng.integers(0, fs.q, (5, 400))
    a1[:40] = 0
    b1[20:60] = 0
    a2[50:90] = 0
    c[::7] = 0
    # c equal to the first product: cancellation to zero
    c[100:140] = [fs.mul(int(x), int(y)) for x, y in zip(a1[100:140],
                                                        b1[100:140])]
    s1 = fs.vlog0(a1) + fs.vlog0(b1)
    s2 = fs.vlog0(a2) + fs.vlog0(b2)

    def log0(x):
        return fs.zero_log if x == 0 else fs._log[x]

    one = [fs.sub(int(x), fs.mul(int(y), int(z))) for x, y, z in zip(c, a1, b1)]
    assert one.count(0) >= 40
    assert np.array_equal(fs.vmulsub_log0(c, [s1]), [log0(v) for v in one])
    two = [fs.sub(v, fs.mul(int(y), int(z))) for v, y, z in zip(one, a2, b2)]
    assert np.array_equal(fs.vmulsub_log0(c, [s1, s2]),
                          [log0(v) for v in two])


# char-2 xor, prime modulo and Zech subtraction, with cancellation
@pytest.mark.parametrize("p,t", [(2, 6), (7, 1), (7, 2), (3, 10)])
def test_mulsub_by_zero_or_one_matches_scalar(field, p, t):
    fs = field(p, t)
    rng = np.random.default_rng(6)
    c, b = rng.integers(0, fs.q, (2, 400))
    a = rng.integers(0, 2, 400)
    b[::9] = 0
    c[::7] = 0
    c[100:140] = b[100:140]
    a[100:140] = 1
    want = [fs.sub(int(x), fs.mul(int(y), int(z))) for x, y, z in zip(c, a, b)]
    assert want.count(0) >= 40
    assert np.array_equal(fs.vsubmul01_log0(c, a, b),
                          [fs.zero_log if v == 0 else fs._log[v]
                           for v in want])
    # a row of c and a against a column of b, as the census kernel calls it
    got = fs.vsubmul01_log0(c[None, :10], a[None, :10], b[:3, None])
    assert got.shape == (3, 10)
    for i in range(3):
        assert np.array_equal(got[i], fs.vsubmul01_log0(c[:10], a[:10],
                                                        b[i]))


def _digits(code, fs):
    return [code // fs.p ** k % fs.p for k in range(fs.t)]


def _poly_mulmod(fs, a, b):
    """a * b in GF(p)[x] / (modulus) on digit lists, by schoolbook
    multiplication and long division: independent of the field tables."""
    p, t, m = fs.p, fs.t, fs.modulus
    da, db = _digits(a, fs), _digits(b, fs)
    prod = [0] * (2 * t - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for i in range(2 * t - 2, t - 1, -1):
        c = prod[i]
        for j in range(t + 1):
            prod[i - t + j] = (prod[i - t + j] - c * m[j]) % p
    return sum(d * p ** k for k, d in enumerate(prod[:t]))


def _poly_pow(fs, a, k):
    out = 1
    while k:
        if k & 1:
            out = _poly_mulmod(fs, out, a)
        a = _poly_mulmod(fs, a, a)
        k >>= 1
    return out


def _prime_factors(n):
    out, f = set(), 2
    while f * f <= n:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1
    return out | ({n} if n > 1 else set())


# q = 2, small fields of char 2, odd prime order and odd extension
# degree, then GF(2^12) and GF(3^10)
@pytest.mark.parametrize("p,t", [(2, 1), (2, 4), (3, 1), (7, 2), (2, 12),
                                 (3, 10)])
def test_log_tables_are_powers_of_first_generator(field, p, t):
    fs = field(p, t)
    q, exp = fs.q, fs._exp
    assert len(exp) == q - 1 and sorted(exp) == list(range(1, q))
    assert all(fs._log[v] == k for k, v in enumerate(exp))
    if q == 2:
        return
    g = exp[1]
    # every step of the antilog table is one multiplication by g ...
    step = 1 if q < 5000 else 7
    for k in range(0, q - 2, step):
        assert exp[k + 1] == _poly_mulmod(fs, exp[k], g)
    assert _poly_mulmod(fs, exp[q - 2], g) == 1
    # ... and g is the first code >= 2 of order q - 1
    for c in range(2, g):
        assert any(_poly_pow(fs, c, (q - 1) // r) == 1
                   for r in _prime_factors(q - 1))


def test_field_above_table_limit_is_refused():
    with pytest.raises(FieldTooLarge):
        make_field(2, 17)
    # refused before the modulus is read: no irreducibility search
    with pytest.raises(FieldTooLarge):
        make_field(65537, 1, [0, 1])
    # refused before the primality test (trial division of this prime
    # takes minutes) and without forming 2^20000
    with pytest.raises(FieldTooLarge):
        make_field(2 ** 61 - 1, 1)
    with pytest.raises(FieldTooLarge, match="field tables stop at 65536"):
        make_field(2, 20000)
    with pytest.raises(NonPrimeError):
        make_field(1, 20000)
    assert make_field(2, 16).q == 1 << 16


# a small odd extension field, every pair, and the largest under the
# table limit, sampled with zeros and cancellations
@pytest.mark.parametrize("p,t", [(3, 2), (3, 10)])
def test_zech_tables_are_int32_and_subtract_like_scalar(field, p, t):
    fs = field(p, t)
    z = fs.zero_log
    assert fs._zech.dtype == fs._reduce.dtype == np.int32
    assert (fs._zech.size, fs._reduce.size) == (3 * z + 1, 2 * z + 1)
    if fs.q <= 9:
        # x against y = u*w, over every x, u and w
        x, u, w = np.indices((fs.q,) * 3).reshape(3, -1)
    else:
        rng = np.random.default_rng(7)
        x, u, w = rng.integers(0, fs.q, (3, 3000))
        x[::11] = 0
        u[::13] = 0
        x[100:200] = [fs.mul(int(a), int(b)) for a, b in zip(u[100:200],
                                                            w[100:200])]
    want = [fs.sub(int(a), fs.mul(int(b), int(c))) for a, b, c in zip(x, u, w)]
    assert want.count(0) >= 9
    got = fs._zech_sub_log0(fs.vlog0(x), fs.vlog0(u) + fs.vlog0(w))
    assert np.array_equal(got, [z if v == 0 else fs._log[v] for v in want])
