import random

import numpy as np
import pytest

from cbkap.field import (
    GF2m,
    NonInvertibleFieldElement,
    SingularMatrix,
    default_modulus,
    is_irreducible,
)

AES_MODULUS = 0x11B  # x^8 + x^4 + x^3 + x + 1


def slow_mul(a, b, modulus):
    """Schoolbook carry-less multiply plus reduction; the independent oracle."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    dm = modulus.bit_length()
    while r.bit_length() >= dm:
        r ^= modulus << (r.bit_length() - dm)
    return r


def cofactor_det(field, m):
    """Determinant by cofactor expansion; only used as an oracle at n <= 4."""
    n = m.shape[0]
    if n == 1:
        return int(m[0, 0])
    acc = 0
    for j in range(n):
        if m[0, j] == 0:
            continue
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        acc ^= field.mul(int(m[0, j]), cofactor_det(field, minor))
    return acc


def test_modulus_choices():
    assert default_modulus(8) == AES_MODULUS
    assert is_irreducible(0x7)  # x^2 + x + 1
    assert not is_irreducible(0x5)  # x^2 + 1 = (x + 1)^2
    assert not is_irreducible(0x101)  # x^8 + 1
    with pytest.raises(ValueError):
        GF2m(8, 0x101)
    with pytest.raises(ValueError):
        GF2m(8, 0x7)  # degree mismatch


def test_mul_identities():
    fld = GF2m(8)
    for x in (0x01, 0x53, 0xFF, 0x80):
        assert fld.mul(0, x) == 0
        assert fld.mul(1, x) == x


def test_mul_against_schoolbook_oracle():
    fld = GF2m(8, AES_MODULUS)
    assert fld.mul(0x53, 0xCA) == 0x01
    rng = random.Random(1)
    for _ in range(500):
        a, b = rng.randrange(256), rng.randrange(256)
        assert fld.mul(a, b) == slow_mul(a, b, AES_MODULUS)


def test_inv():
    fld = GF2m(8, AES_MODULUS)
    assert fld.inv(1) == 1
    assert fld.inv(0x53) == 0xCA
    with pytest.raises(NonInvertibleFieldElement):
        fld.inv(0)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7, 8])
def test_inv_exhaustive(degree):
    fld = GF2m(degree)
    for a in range(1, fld.order):
        assert fld.mul(a, fld.inv(a)) == 1


@pytest.mark.parametrize("degree", [2, 5, 8])
def test_field_axioms_random(degree):
    fld = GF2m(degree)
    rng = random.Random(degree)
    for _ in range(500):
        a, b, c = (rng.randrange(fld.order) for _ in range(3))
        assert fld.mul(a, b) == fld.mul(b, a)
        assert fld.mul(a, fld.mul(b, c)) == fld.mul(fld.mul(a, b), c)
        assert fld.mul(a, b ^ c) == fld.mul(a, b) ^ fld.mul(a, c)


def test_pow():
    fld = GF2m(5)
    rng = random.Random(2)
    for _ in range(100):
        a = rng.randrange(1, fld.order)
        e = rng.randrange(-6, 12)
        expect = 1
        base = a if e >= 0 else fld.inv(a)
        for _ in range(abs(e)):
            expect = fld.mul(expect, base)
        assert fld.pow(a, e) == expect
    assert fld.pow(0, 0) == 1
    assert fld.pow(0, 3) == 0


def test_mat_mul_identity_and_inverse():
    fld = GF2m(4)
    rng = random.Random(3)
    m = fld.random_invertible(rng, 5)
    assert np.array_equal(fld.mat_mul(fld.identity(5), m), m)
    assert np.array_equal(fld.mat_mul(m, fld.mat_inv(m)), fld.identity(5))


def test_mat_mul_against_triple_loop():
    rng = random.Random(4)
    for degree in (2, 8, 16):
        fld = GF2m(degree)
        for _ in range(20):
            a = fld.random_matrix(rng, 3)
            b = fld.random_matrix(rng, 3)
            want = fld.zeros(3)
            for i in range(3):
                for j in range(3):
                    acc = 0
                    for k in range(3):
                        acc ^= fld.mul(int(a[i, k]), int(b[k, j]))
                    want[i, j] = acc
            assert np.array_equal(fld.mat_mul(a, b), want), degree


def test_mat_mul_shape_mismatch():
    fld = GF2m(2)
    with pytest.raises(ValueError):
        fld.mat_mul(fld.identity(2), fld.identity(3))


def test_mat_inv():
    rng = random.Random(5)
    for degree in (4, 16):
        fld = GF2m(degree)
        assert np.array_equal(fld.mat_inv(fld.identity(4)), fld.identity(4))
        with pytest.raises(SingularMatrix):
            fld.mat_inv(fld.zeros(3))
        for _ in range(20):
            m = fld.random_invertible(rng, 4)
            inv = fld.mat_inv(m)
            assert np.array_equal(fld.mat_mul(m, inv), fld.identity(4)), degree
            assert np.array_equal(fld.mat_inv(inv), m), degree


def test_det_multiplicative_via_cofactor_oracle():
    rng = random.Random(6)
    for degree in (2, 3):
        fld = GF2m(degree)
        for n in (2, 3, 4):
            for _ in range(10):
                a = fld.random_matrix(rng, n)
                b = fld.random_matrix(rng, n)
                det_ab = cofactor_det(fld, fld.mat_mul(a, b))
                assert det_ab == fld.mul(cofactor_det(fld, a), cofactor_det(fld, b))


def test_singularity_matches_det_oracle():
    fld = GF2m(3)
    rng = random.Random(7)
    for _ in range(40):
        m = fld.random_matrix(rng, 3)
        assert fld.is_invertible(m) == (cofactor_det(fld, m) != 0)
