"""Exact arithmetic in GF(2^m) and dense matrices over it.

Field elements are plain Python ints in [0, 2^m), read as polynomial
bit-vectors over GF(2) (bit k = coefficient of x^k).  Addition is XOR,
multiplication is carry-less polynomial multiplication reduced modulo an
irreducible modulus.  A ``GF2m`` instance owns the modulus and a single
log/antilog table pair built over a primitive element, shared with every
other live instance of that modulus; all arithmetic is exact, with no
tolerances anywhere.

Matrices are numpy arrays of the field's unsigned dtype and are always
passed around together with their ``GF2m``.  Every object here is
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = [
    "NonInvertibleFieldElement",
    "SingularMatrix",
    "GF2m",
    "is_irreducible",
    "default_modulus",
]


# the most log sums one GF2m.dot step materializes, unless one row needs more
DOT_BLOCK = 1 << 17

# every live field by (degree, modulus): a field is constructed for every
# file header read, and shares the tables of a live one of its modulus
_FIELDS: "weakref.WeakValueDictionary[tuple[int, int], GF2m]" = weakref.WeakValueDictionary()


class NonInvertibleFieldElement(ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class SingularMatrix(ValueError):
    """Matrix inversion was requested for a singular matrix."""


def _poly_mod(a: int, m: int) -> int:
    """Remainder of the bit-vector polynomial a modulo m, over GF(2)."""
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def _clmul(a: int, b: int) -> int:
    """Carry-less (polynomial) product of two bit-vectors."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def is_irreducible(modulus: int) -> bool:
    """Whether the bit-vector polynomial is irreducible over GF(2).

    Checked by trial division against every polynomial of degree at most
    half the modulus degree.
    """
    degree = modulus.bit_length() - 1
    if degree < 1:
        return False
    for q in range(2, 1 << (degree // 2 + 1)):
        if _poly_mod(modulus, q) == 0:
            return False
    return True


def default_modulus(degree: int) -> int:
    """Smallest irreducible polynomial of the given degree.

    For degree 8 this is x^8 + x^4 + x^3 + x + 1 (0x11B), the usual
    GF(2^8) choice.
    """
    if degree < 1:
        raise ValueError("field degree must be >= 1")
    for cand in range((1 << degree) + 1, 1 << (degree + 1), 2):
        if is_irreducible(cand):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {degree}")  # pragma: no cover


def _prime_factors(x: int) -> list[int]:
    out = []
    p = 2
    while p * p <= x:
        if x % p == 0:
            out.append(p)
            while x % p == 0:
                x //= p
        p += 1
    if x > 1:
        out.append(x)
    return out


class GF2m:
    """The field GF(2^m) for a fixed irreducible modulus.

    Scalar operations use one log/antilog table pair over a primitive
    element; every vector and matrix product goes through :meth:`mul_arr`,
    which uses the numpy copies of the same tables.  Building them is
    O(2^m), so the degree is capped at 16 (the protocol sizes of interest
    are m <= 8); a field constructed while another of its modulus is alive
    validates the modulus and shares that one's tables, so the cache never
    holds a field nothing else refers to.
    """

    def __init__(self, degree: int, modulus: int | None = None):
        if degree < 1:
            raise ValueError("field degree must be >= 1")
        if degree > 16:
            raise ValueError("field degree above 16 is not supported (table-based arithmetic)")
        if modulus is None:
            modulus = default_modulus(degree)
        if modulus.bit_length() - 1 != degree:
            raise ValueError("modulus degree does not match the field degree")
        if not is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is not irreducible")
        self.degree = degree
        self.modulus = modulus
        self.order = 1 << degree
        self.dtype = np.uint8 if degree <= 8 else np.uint16
        twin = _FIELDS.get((degree, modulus))
        if twin is None:
            self._build_tables()
            _FIELDS[degree, modulus] = self
        else:
            self._exp, self._log, self._inv = twin._exp, twin._log, twin._inv
            self._exp_np, self._log_np = twin._exp_np, twin._log_np

    def _mul_slow(self, a: int, b: int) -> int:
        return _poly_mod(_clmul(a, b), self.modulus)

    def _pow_slow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_slow(r, a)
            a = self._mul_slow(a, a)
            e >>= 1
        return r

    def _build_tables(self) -> None:
        q = self.order
        gen = 1
        for cand in range(1, q):
            if all(self._pow_slow(cand, (q - 1) // p) != 1 for p in _prime_factors(q - 1)):
                gen = cand
                break
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        cur = 1
        for i in range(q - 1):
            exp[i] = cur
            exp[i + q - 1] = cur
            log[cur] = i
            cur = self._mul_slow(cur, gen)
        if cur != 1:  # pragma: no cover - the search above picks a primitive element
            raise RuntimeError("element used for the tables is not primitive")
        self._exp = exp
        self._log = log
        self._inv = [0] + [exp[(q - 1 - log[a]) % (q - 1)] for a in range(1, q)]
        # numpy copies for mul_arr: the log of zero, 2(q-1), lies past every
        # sum of two nonzero logs, and every antilog entry from there on is
        # zero, so a product with a zero factor looks up zero with no mask;
        # a sum of two logs is at most 4(q-1), so uint16 holds it for m <= 14
        self._exp_np = np.zeros(4 * q - 3, dtype=self.dtype)
        self._exp_np[: 2 * (q - 1)] = exp
        log_dtype = np.uint16 if 4 * q <= 1 << 16 else np.int32
        self._log_np = np.array([2 * (q - 1)] + log[1:], dtype=log_dtype)
        # shared by every field of this modulus
        self._exp_np.flags.writeable = self._log_np.flags.writeable = False

    # -- scalar operations -------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    @staticmethod
    def neg(a: int) -> int:
        # characteristic 2: every element is its own negative
        return a

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise NonInvertibleFieldElement("0 has no multiplicative inverse")
        return self._inv[a]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise NonInvertibleFieldElement("0 has no multiplicative inverse")
            return 0
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    # -- vector and matrix operations --------------------------------------

    def mul_arr(self, a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
        """Elementwise product of two broadcastable arrays (or an array and
        a scalar) of field elements, by log/antilog lookup.  ``take`` is
        the same gather as indexing, at about half the cost here."""
        return self._exp_np.take(self._log_np.take(a) + self._log_np.take(b))

    def mul_vec(self, v: np.ndarray, s: int) -> np.ndarray:
        """Scale a vector (or matrix) of field elements by the scalar s."""
        return self.mul_arr(v, s)

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=self.dtype)

    def zeros(self, n: int, m: int | None = None) -> np.ndarray:
        return np.zeros((n, m if m is not None else n), dtype=self.dtype)

    def dot(self, a, b: np.ndarray) -> np.ndarray:
        """Sum over the last axis of a against the first axis of b, XOR
        accumulated: coefficients against a stack give their linear
        combination, and a matrix against a matrix gives the product.  A
        2-D ``a`` is cut into row blocks of at most DOT_BLOCK log sums (a
        row takes ``b.size``), so large products keep small temporaries."""
        a = np.asarray(a, dtype=self.dtype)
        if a.ndim == 2 and len(a) > 1 and len(a) * b.size > DOT_BLOCK:
            step = max(1, DOT_BLOCK // b.size)
            return np.concatenate([self.dot(a[i : i + step], b) for i in range(0, len(a), step)])
        return np.bitwise_xor.reduce(
            self.mul_arr(a.reshape(a.shape + (1,) * (b.ndim - 1)), b), axis=a.ndim - 1
        )

    def mat_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact matrix product; accumulation is XOR over the inner index.
        A (k, n, n) stack on the right gives the stack of the k products."""
        if a.ndim != 2 or b.ndim not in (2, 3) or a.shape[1] != b.shape[-2]:
            raise ValueError("matrix dimension mismatch")
        return self.dot(a, b.swapaxes(0, -2)).swapaxes(0, -2)

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The x with a . x = b, for a square a and an (n, k) b, by
        Gauss-Jordan elimination on [a | b], pivoting on the first nonzero
        entry of each column.  Raises SingularMatrix when a is singular.

        Each column is one rank-1 update: with ``row`` the pivot row over
        its pivot ``pv`` and ``f`` the column, except ``pv ^ 1`` at the
        pivot, XOR-ing in ``f (x) row`` clears the column from every other
        row and leaves ``row`` as the pivot row (characteristic 2).  No
        column at or left of the pivot is read again.  With k = 0 only the
        rows below each pivot are cleared: a rank check."""
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim != 2 or len(b) != len(a):
            raise ValueError("matrix dimension mismatch")
        n = len(a)
        aug = np.concatenate([a, b], axis=1).astype(self.dtype, copy=False)
        for col in range(n):
            if not aug[col, col]:
                rows = np.flatnonzero(aug[col:, col])
                if not rows.size:
                    raise SingularMatrix("matrix is singular")
                piv = col + int(rows[0])
                aug[[col, piv]] = aug[[piv, col]]
            top = col if aug.shape[1] == n else 0
            pv = int(aug[col, col])
            row = self.mul_arr(aug[col, col + 1 :], self._inv[pv])
            f = aug[top:, col]  # a view: column col is not read again
            f[col - top] = pv ^ 1
            aug[top:, col + 1 :] ^= self.mul_arr(f[:, None], row)
        return aug[:, n:]

    def mat_inv(self, a: np.ndarray) -> np.ndarray:
        """Inverse: :meth:`solve` against the identity."""
        return self.solve(a, self.identity(len(a)))

    def is_invertible(self, a: np.ndarray) -> bool:
        """:meth:`solve` with no right-hand side: a rank check."""
        try:
            self.solve(a, self.zeros(len(a), 0))
            return True
        except SingularMatrix:
            return False

    def random_matrix(self, rng, n: int) -> np.ndarray:
        flat = [rng.randrange(self.order) for _ in range(n * n)]
        return np.array(flat, dtype=self.dtype).reshape(n, n)

    def random_invertible(self, rng, n: int) -> np.ndarray:
        while True:
            m = self.random_matrix(rng, n)
            if self.is_invertible(m):
                return m

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GF2m)
            and other.degree == self.degree
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.modulus))

    def __repr__(self) -> str:
        return f"GF2m(degree={self.degree}, modulus={self.modulus:#x})"
