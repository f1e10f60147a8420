import gc
import random
import tracemalloc

import numpy as np
import pytest

from cbkap import field
from cbkap.field import (
    GF2m,
    NonInvertibleFieldElement,
    SingularMatrix,
    default_modulus,
    is_irreducible,
)

from conftest import random_invertible

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
        acc ^= slow_mul(int(m[0, j]), cofactor_det(field, minor), field.modulus)
    return acc


def test_modulus_choices():
    assert default_modulus(8) == AES_MODULUS
    assert is_irreducible(0x7)  # x^2 + x + 1
    assert not is_irreducible(0x5)  # x^2 + 1 = (x + 1)^2
    assert not is_irreducible(0x101)  # x^8 + 1
    with pytest.raises(ValueError):
        GF2m(8, 0x101)
    # outside [2^m, 2^(m+1)): a negative one would never leave the reduction
    # loop of is_irreducible, so each is refused before that check
    for degree, modulus in ((8, 0x7), (8, -0x11B), (4, -19), (4, -1), (4, 0), (8, 0x11B << 1)):
        with pytest.raises(ValueError, match="outside"):
            GF2m(degree, modulus)


def test_tables_are_built_once_per_field():
    a, b = GF2m(8), GF2m(8, AES_MODULUS)
    assert a._exp_np is b._exp_np and a._log_np is b._log_np and a._inv is b._inv
    assert GF2m(8, 0x11D)._exp_np is not a._exp_np  # another modulus, other tables
    with pytest.raises(ValueError):
        a._exp_np[0] = 1  # shared, so read-only
    with pytest.raises(ValueError):
        GF2m(8, 0x101)  # a cached degree still validates its modulus
    # the cache holds only fields something else refers to
    GF2m(7, 0x89)  # not the default modulus, which a fixture may hold
    gc.collect()
    assert (7, 0x89) not in field._FIELDS


def test_mul_identities():
    # an array times a scalar, the form that scales rows and vectors
    fld = GF2m(8)
    x = np.array([0x01, 0x53, 0xFF, 0x80], dtype=fld.dtype)
    assert fld.mul_arr(x, 0).tolist() == [0] * 4
    assert fld.mul_arr(x, 1).tolist() == x.tolist()
    assert fld.mul_arr(0, x).tolist() == [0] * 4


def test_mul_against_schoolbook_oracle():
    # mul_arr is the field's only multiply: every pair, for every modulus of
    # degree 1-6, the default ones of degree 7 and 8, and 0x11D, so tables
    # over x and over a later element (x has order 5 modulo 0x1F and 51
    # modulo 0x11B) are both checked; and random pairs on both sides of the
    # uint16 / int32 log sums (m = 14, 15)
    assert int(GF2m(8, AES_MODULUS).mul_arr(0x53, 0xCA)) == 0x01
    moduli = [(d, mod) for d in range(1, 7) for mod in range(1 << d, 2 << d) if is_irreducible(mod)]
    for degree, modulus in moduli + [(7, None), (8, None), (8, 0x11D)]:
        fld = GF2m(degree, modulus)
        elems = np.arange(fld.order, dtype=fld.dtype)
        got = fld.mul_arr(elems[:, None], elems[None, :])
        assert got.dtype == fld.dtype
        assert got.tolist() == [[slow_mul(a, b, fld.modulus) for b in range(fld.order)]
                                for a in range(fld.order)], fld
    rng = random.Random(1)
    for degree in (9, 14, 15, 16):
        fld = GF2m(degree)
        pairs = [(rng.randrange(fld.order), rng.randrange(fld.order)) for _ in range(2000)]
        pairs += [(0, 0), (0, fld.order - 1), (1, fld.order - 1), (fld.order - 1, fld.order - 1)]
        a, b = (np.array(col, dtype=fld.dtype) for col in zip(*pairs))
        got = fld.mul_arr(a, b)
        assert got.dtype == fld.dtype
        assert got.tolist() == [slow_mul(x, y, fld.modulus) for x, y in pairs], degree


def test_inv():
    fld = GF2m(8, AES_MODULUS)
    assert fld.inv(1) == 1
    assert fld.inv(0x53) == 0xCA
    with pytest.raises(NonInvertibleFieldElement):
        fld.inv(0)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7, 8])
def test_inv_exhaustive(degree):
    fld = GF2m(degree)
    elems = np.arange(1, fld.order, dtype=fld.dtype)
    inverses = np.array([fld.inv(int(a)) for a in elems], dtype=fld.dtype)
    assert (fld.mul_arr(elems, inverses) == 1).all()


@pytest.mark.parametrize("degree", [2, 5, 8])
def test_field_axioms_random(degree):
    fld = GF2m(degree)
    rng = random.Random(degree)
    a, b, c = (np.array([rng.randrange(fld.order) for _ in range(500)], dtype=fld.dtype)
               for _ in range(3))
    mul = fld.mul_arr
    assert np.array_equal(mul(a, b), mul(b, a))
    assert np.array_equal(mul(a, mul(b, c)), mul(mul(a, b), c))
    assert np.array_equal(mul(a, b ^ c), mul(a, b) ^ mul(a, c))


def test_mat_mul_identity_and_inverse():
    fld = GF2m(4)
    rng = random.Random(3)
    m = random_invertible(fld, rng, 5)
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
                        acc ^= slow_mul(int(a[i, k]), int(b[k, j]), fld.modulus)
                    want[i, j] = acc
            assert np.array_equal(fld.mat_mul(a, b), want), degree


def test_mat_mul_shape_mismatch():
    fld = GF2m(2)
    with pytest.raises(ValueError):
        fld.mat_mul(fld.identity(2), fld.identity(3))
    with pytest.raises(ValueError):
        fld.mat_mul(fld.identity(2), np.stack([fld.identity(3)] * 2))


@pytest.mark.parametrize(
    "degree, log_dtype", [(13, np.uint16), (14, np.int32), (15, np.int32), (16, np.int32)]
)
@pytest.mark.parametrize("budget", [field.DOT_BLOCK, 5])
def test_array_products_at_the_log_dtype_boundary(degree, log_dtype, budget, monkeypatch):
    # a pivot step's sum of two logs and an inverse log reaches 7(q-1)
    # (two zeros over a pivot of 1), 57337 at m=13, within uint16; at m=14
    # it would not be; the lowered budget splits every dot
    monkeypatch.setattr(field, "DOT_BLOCK", budget)
    fld = GF2m(degree)
    assert fld._log_np.dtype == log_dtype
    q = fld.order
    rng = random.Random(degree)
    # zero, one, the elements of the two largest logs, and random elements
    special = [0, 1, int(fld._exp_np[q - 2]), int(fld._exp_np[q - 3])]

    def draw(*shape):
        flat = [rng.choice(special) if rng.random() < 0.5 else rng.randrange(q)
                for _ in range(int(np.prod(shape)))]
        return np.array(flat, dtype=fld.dtype).reshape(shape)

    def scalar_mat_mul(a, b):
        return np.array([[
            np.bitwise_xor.reduce([slow_mul(int(a[i, k]), int(b[k, j]), fld.modulus)
                                   for k in range(a.shape[1])])
            for j in range(b.shape[1])] for i in range(a.shape[0])], dtype=fld.dtype)

    x = np.array(special + [rng.randrange(q) for _ in range(8)], dtype=fld.dtype)
    want = [[slow_mul(int(u), int(v), fld.modulus) for v in x] for u in x]
    assert fld.mul_arr(x[:, None], x[None, :]).tolist() == want
    assert fld.mul_arr(x, 0).tolist() == [0] * len(x)
    assert fld.mul_arr(x, special[2]).tolist() == [slow_mul(int(u), special[2], fld.modulus) for u in x]
    coeffs, stack = draw(3, 5), draw(5, 4)
    assert np.array_equal(fld.dot(coeffs, stack), scalar_mat_mul(coeffs, stack))
    a, b = draw(4, 4), draw(3, 4, 4)
    got = fld.mat_mul(a, b)
    assert got.shape == (3, 4, 4) and got.dtype == fld.dtype
    for k in range(3):
        assert np.array_equal(got[k], scalar_mat_mul(a, b[k]))
        assert np.array_equal(fld.mat_mul(a, b[k]), got[k])
    for pv in (1, special[2], special[3]):
        block = draw(4, 6)
        block[1, 0], block[0, 0], block[1, 3] = pv, 0, 0
        f = block[:, 0].copy()
        inv = fld.inv(pv)
        row = [slow_mul(int(v), inv, fld.modulus) for v in block[1]]
        want = np.array([row if i == 1 else [int(v) ^ slow_mul(int(f[i]), r, fld.modulus)
                                             for v, r in zip(block[i], row)]
                         for i in range(4)], dtype=fld.dtype)
        fld.pivot(block, 1, f)
        assert np.array_equal(block, want)
        assert not block[[0, 2, 3], 0].any() and block[1, 0] == 1


def test_coefficients_against_a_large_stack_keep_small_temporaries():
    # a 1-D dot is cut into runs of coefficients, as a 2-D one into row
    # blocks: uncut, dim 962 at n=64 takes ~40 MB of log sums at a time
    fld = GF2m(8)
    gen = np.random.default_rng(962)
    stack = gen.integers(0, fld.order, (962, 64, 64), dtype=fld.dtype)
    coeffs = gen.integers(0, fld.order, 962, dtype=fld.dtype)
    coeffs[[0, 500]] = 0
    tracemalloc.start()
    try:
        got = fld.dot(coeffs, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * field.DOT_BLOCK
    want = np.zeros((64, 64), dtype=fld.dtype)
    for c, m in zip(coeffs, stack):
        want ^= fld.mul_arr(m, int(c))
    assert got.shape == (64, 64) and np.array_equal(got, want)


@pytest.mark.parametrize("degree", [1, 2, 8, 13, 16])
def test_random_matrix_reads_the_randrange_stream(degree):
    # the draw is n * n calls rng.randrange(q): same entries, and the rng
    # left where those calls leave it, so instances and keys do not move
    fld = GF2m(degree)
    for n in (0, 1, 5, 20):
        drawn, called = random.Random(degree * 100 + n), random.Random(degree * 100 + n)
        got = fld.random_matrix(drawn, n)
        want = [called.randrange(fld.order) for _ in range(n * n)]
        assert got.dtype == fld.dtype and got.shape == (n, n)
        assert got.ravel().tolist() == want and drawn.random() == called.random()


def test_mat_inv():
    rng = random.Random(5)
    for degree in (4, 16):
        fld = GF2m(degree)
        assert np.array_equal(fld.mat_inv(fld.identity(4)), fld.identity(4))
        with pytest.raises(SingularMatrix):
            fld.mat_inv(fld.zeros(3))
        for _ in range(20):
            m = random_invertible(fld, rng, 4)
            inv = fld.mat_inv(m)
            assert np.array_equal(fld.mat_mul(m, inv), fld.identity(4)), degree
            assert np.array_equal(fld.mat_inv(inv), m), degree


@pytest.mark.parametrize("degree", [1, 2, 5, 8, 13, 14, 16])
def test_mat_inv_matches_reference_elimination(degree, inverse_reference):
    # one pivot step per column gives the inverses, solutions, rank
    # verdicts and singular cases of the earlier swap / scale / clear
    # elimination, on both sides of the log dtype boundary (13 | 14)
    fld = GF2m(degree)
    rng = random.Random(degree)
    seen = set()
    for n in (1, 2, 3, 12, 20):
        mats = [fld.random_matrix(rng, n) for _ in range(6)]
        for _ in range(4):  # singular: one row a combination of the others
            m = fld.random_matrix(rng, n)
            coeffs = np.array([rng.randrange(fld.order) for _ in range(n)], dtype=fld.dtype)
            r = rng.randrange(n)
            coeffs[r] = 0
            m[r] = fld.dot(coeffs, m)
            mats.append(m)
        mats.append(fld.zeros(n))
        mats.append(np.triu(fld.random_matrix(rng, n)))
        mats.append(random_invertible(fld, rng, n))
        for m in mats:
            try:
                want = inverse_reference(fld, m)
            except SingularMatrix:
                with pytest.raises(SingularMatrix):
                    fld.mat_inv(m)
                assert not fld.is_invertible(m)
                seen.add("singular")
                continue
            got = fld.mat_inv(m)
            assert got.dtype == fld.dtype
            assert np.array_equal(got, want), (degree, n)
            assert fld.is_invertible(m)
            b = np.array([rng.randrange(fld.order) for _ in range(3 * n)], dtype=fld.dtype)
            b = b.reshape(n, 3)
            assert np.array_equal(fld.solve(m, b), fld.mat_mul(want, b)), (degree, n)
            seen.add("invertible")
    assert seen == {"singular", "invertible"}


def shuffled_lu(fld, rng, n):
    """An invertible matrix built without the code under test: L . U, L
    unit lower and U upper triangular with a nonzero diagonal, with its
    first n-1 rows shuffled.  The leading (n-1) x (n-1) block of those
    rows stays invertible, and the first pivot needs a row swap whenever
    another row comes first."""
    lower = np.tril(fld.random_matrix(rng, n), -1) ^ fld.identity(n)
    diag = np.array([rng.randrange(1, fld.order) for _ in range(n)], dtype=fld.dtype)
    upper = np.triu(fld.random_matrix(rng, n), 1) ^ np.diag(diag)
    order = rng.sample(range(n - 1), n - 1) + [n - 1]
    if order[0]:
        lower[order[0], 0] = 0
    return fld.mat_mul(lower, upper)[order]


@pytest.mark.parametrize("degree", range(1, 17))
def test_solve_matches_reference_inverse(degree, inverse_reference):
    # degrees 1-16 cover both element dtypes (uint8 up to 8) and both log
    # table dtypes (uint16 up to 14); widths 0, 1 and n of the right side
    fld = GF2m(degree)
    rng = random.Random(200 + degree)
    for n in (0, 1, 2, 5, 12, 20):
        a = shuffled_lu(fld, rng, n) if n else fld.zeros(0)
        inv = inverse_reference(fld, a)
        for k in (0, 1, n):
            b = np.array([rng.randrange(fld.order) for _ in range(n * k)], dtype=fld.dtype)
            b = b.reshape(n, k)
            got = fld.solve(a, b)
            assert got.shape == (n, k) and got.dtype == fld.dtype
            assert np.array_equal(got, fld.mat_mul(inv, b)), (degree, n, k)
        assert np.array_equal(fld.mat_inv(a), inv)
        assert fld.is_invertible(a)


def singular_last_pivot(fld, rng, n):
    """Matrices whose elimination fails at the last column only: a last
    row that combines the others and a zero last column (each on a
    matrix whose first n-1 columns are independent), and the zero matrix."""
    m = shuffled_lu(fld, rng, n)
    dependent = m.copy()
    coeffs = np.array([rng.randrange(fld.order) for _ in range(n - 1)], dtype=fld.dtype)
    dependent[-1] = fld.dot(coeffs, m[:-1])
    zero_col = m.copy()
    zero_col[:, -1] = 0
    return [dependent, zero_col, fld.zeros(n)]


@pytest.mark.parametrize("degree", [1, 2, 8, 16])
def test_singular_matrices_are_refused_at_the_last_pivot(degree):
    fld = GF2m(degree)
    rng = random.Random(300 + degree)
    for n in (1, 2, 5, 12, 20):
        for m in singular_last_pivot(fld, rng, n):
            assert not fld.is_invertible(m)
            with pytest.raises(SingularMatrix):
                fld.mat_inv(m)
            for k in (0, 1, n):
                with pytest.raises(SingularMatrix):
                    fld.solve(m, fld.zeros(n, k))


def test_solve_and_rank_check_leave_arguments_unmodified():
    fld = GF2m(8)
    rng = random.Random(9)
    for n in (2, 5, 12):
        for m in [shuffled_lu(fld, rng, n)] + singular_last_pivot(fld, rng, n):
            b = fld.random_matrix(rng, n)
            m_before, b_before = m.copy(), b.copy()
            fld.is_invertible(m)
            try:
                fld.solve(m, b)
                fld.mat_inv(m)
            except SingularMatrix:
                pass
            assert np.array_equal(m, m_before) and np.array_equal(b, b_before)


def test_solve_shape_checks():
    fld = GF2m(4)
    for a, b in [(fld.zeros(2, 3), fld.zeros(2, 1)), (fld.zeros(3), fld.zeros(2, 1)),
                 (fld.zeros(3), np.zeros(3, dtype=fld.dtype))]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            fld.solve(a, b)


def test_det_multiplicative_via_cofactor_oracle():
    rng = random.Random(6)
    for degree in (2, 3):
        fld = GF2m(degree)
        for n in (2, 3, 4):
            for _ in range(10):
                a = fld.random_matrix(rng, n)
                b = fld.random_matrix(rng, n)
                det_ab = cofactor_det(fld, fld.mat_mul(a, b))
                assert det_ab == slow_mul(cofactor_det(fld, a), cofactor_det(fld, b), fld.modulus)


def test_singularity_matches_det_oracle():
    fld = GF2m(3)
    rng = random.Random(7)
    for _ in range(40):
        m = fld.random_matrix(rng, 3)
        assert fld.is_invertible(m) == (cofactor_det(fld, m) != 0)
