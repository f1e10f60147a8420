"""Exact arithmetic in GF(2^m) and dense matrices over it.

Field elements are plain Python ints in [0, 2^m), read as polynomial
bit-vectors over GF(2) (bit k = coefficient of x^k).  Addition is XOR,
multiplication is carry-less polynomial multiplication reduced modulo an
irreducible modulus.  A ``GF2m`` instance owns the modulus and a single
log/antilog table pair over the least primitive element, filled by the
power walk that finds it and laid out so that a sum of three logs needs
no zero mask, and an inverse table, shared with every other live
instance of that modulus; all arithmetic is exact, with no tolerances
anywhere.

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


class GF2m:
    """The field GF(2^m) for a fixed irreducible modulus.

    Every product goes through one numpy log/antilog table pair over the
    least primitive element: :meth:`mul_arr` looks up a sum of two logs,
    and :meth:`pivot`, the one rank-1 elimination step, a sum of two logs
    and the pivot's inverse log.  The log of zero is 3(q-1), and the
    antilog table has 7(q-1)+1 entries, periodic over [0, 3(q-1)) and zero
    from there on, so a product with a zero factor is zero with no mask.
    :meth:`inv`, from an inverse table, is the only scalar operation.
    One walk over the powers of each element in turn, up to the first
    whose powers reach every nonzero element, fills them: O(2^m) per
    element walked, so the degree is capped at 16 (the protocol sizes of
    interest are m <= 8); a field constructed while another of its modulus is alive
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
        if not 1 << degree <= modulus < 2 << degree:  # also refuses a negative modulus
            raise ValueError(f"modulus {modulus} is outside [2^{degree}, 2^{degree + 1})")
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
            self._inv, self._exp_np, self._log_np = twin._inv, twin._exp_np, twin._log_np

    def _mul_slow(self, a: int, b: int) -> int:
        return _poly_mod(_clmul(a, b), self.modulus)

    def _build_tables(self) -> None:
        # the least element whose powers reach all q - 1 nonzero elements is
        # primitive; the walk that finds it fills the tables
        q = self.order
        exp, log = [0] * (q - 1), [0] * q
        for gen in range(1, q):
            cur = 1
            for i in range(q - 1):
                if i and cur == 1:
                    break
                exp[i] = cur
                log[cur] = i
                cur = self._mul_slow(cur, gen)
            else:
                break
        self._inv = [0] + [exp[-log[a]] for a in range(1, q)]
        # the tables mul_arr and pivot read: the log of zero, 3(q-1), lies
        # past every sum of nonzero logs plus a pivot's inverse log, and the
        # antilog table is periodic below it and zero from it on, so a
        # product with a zero factor looks up zero with no mask; a sum of
        # three logs is at most 7(q-1), so uint16 holds it for m <= 13
        self._exp_np = np.zeros(7 * (q - 1) + 1, dtype=self.dtype)
        self._exp_np[: 3 * (q - 1)] = exp * 3
        log_dtype = np.uint16 if 7 * (q - 1) < 1 << 16 else np.int32
        self._log_np = np.array([3 * (q - 1)] + log[1:], dtype=log_dtype)
        # shared by every field of this modulus
        self._exp_np.flags.writeable = self._log_np.flags.writeable = False

    # -- scalar operations -------------------------------------------------

    def inv(self, a: int) -> int:
        if a == 0:
            raise NonInvertibleFieldElement("0 has no multiplicative inverse")
        return self._inv[a]

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
        combination, and a matrix against a matrix gives the product.
        Either is cut into blocks of at most DOT_BLOCK log sums, so large
        products keep small temporaries: a 2-D ``a`` into row blocks (a
        row takes ``b.size``), and a 1-D one into runs of coefficients
        (one takes ``b[0].size``), whose combinations are XOR-accumulated."""
        a = np.asarray(a, dtype=self.dtype)
        if a.ndim == 2 and len(a) > 1 and len(a) * b.size > DOT_BLOCK:
            step = max(1, DOT_BLOCK // b.size)
            return np.concatenate([self.dot(a[i : i + step], b) for i in range(0, len(a), step)])
        if a.ndim == 1 and len(a) > 1 and b.size > DOT_BLOCK:
            step = max(1, DOT_BLOCK * len(b) // b.size)
            out = self.dot(a[:step], b[:step])
            for i in range(step, len(a), step):
                out ^= self.dot(a[i : i + step], b[i : i + step])
            return out
        return np.bitwise_xor.reduce(
            self.mul_arr(a.reshape(a.shape + (1,) * (b.ndim - 1)), b), axis=a.ndim - 1
        )

    def mat_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact matrix product; accumulation is XOR over the inner index.
        A (k, n, n) stack on the right gives the stack of the k products."""
        if a.ndim != 2 or b.ndim not in (2, 3) or a.shape[1] != b.shape[-2]:
            raise ValueError("matrix dimension mismatch")
        return self.dot(a, b.swapaxes(0, -2)).swapaxes(0, -2)

    def pivot(self, block: np.ndarray, p: int, f: np.ndarray) -> None:
        """One Gauss-Jordan pivot step on a 2-D block, in place.  With ``f``
        the pivot column over the block's rows and ``pv = f[p]`` its
        nonzero pivot, scales row p by 1/pv and clears the column from
        every other row: one XOR of ``f' (x) row/pv``, where f' is f with
        ``pv ^ 1`` at p (characteristic 2).  The inverse of pv is folded
        into the log sums, so the step is two log takes, one outer add,
        one antilog take and one XOR.  Overwrites ``f[p]``, so f may be a
        copy of one of the block's columns but not a view into the block."""
        log = self._log_np
        pv = int(f[p])
        row = log.take(block[p]) + (self.order - 1 - int(log[pv]))
        f[p] = pv ^ 1
        block ^= self._exp_np.take(log.take(f)[:, None] + row)

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The x with a . x = b, for a square a and an (n, k) b, by
        Gauss-Jordan elimination on [a | b], pivoting on the first nonzero
        entry of each column: one :meth:`pivot` per column, over the
        columns right of it (no column at or left of the pivot is read
        again).  Raises SingularMatrix when a is singular.  With k = 0
        only the rows below each pivot are cleared: a rank check."""
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
            self.pivot(aug[top:, col + 1 :], col - top, aug[top:, col])
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
        """The n x n matrix of ``n * n`` calls ``rng.randrange(q)``, row by
        row, for a ``random.Random``.  Each call reads one 32-bit word,
        keeps its top ``q.bit_length()`` bits and reads again while they
        reach q; a round here reads one word per entry still missing and
        keeps those below q, so it reads the same words and no more."""
        k, drawn, need = self.order.bit_length(), [np.zeros(0, dtype=np.uint32)], n * n
        while need:
            words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
            top = np.frombuffer(words, dtype="<u4") >> (32 - k)
            drawn.append(top[top < self.order])
            need -= len(drawn[-1])
        return np.concatenate(drawn).astype(self.dtype).reshape(n, n)

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
