"""Braid words, the colored Burau pair map, and E-multiplication.

A braid word is a sequence of signed Artin generator indices in
+-{1..n-1}.  The pair map sends generator i to ``(x_i(t), s_i)`` where
``s_i`` is the transposition (i, i+1) and ``x_i(t)`` is the identity
matrix except in row i:

    (i, i-1) = t_i      (i, i) = -t_i      (i, i+1) = 1

(entries outside 1..n dropped; in characteristic 2 the sign is absorbed).
The inverse generator maps to the identity except row i with
``(i, i-1) = 1``, ``(i, i) = -1/t_{i+1}``, ``(i, i+1) = 1/t_{i+1}``.
Pairs multiply by ``(a, g)(b, h) = (a * g(b), g h)`` where ``g(b)``
substitutes ``t_i -> t_{g^-1(i)}``; permutations compose left to right.
This convention is pinned by the braid-relation test suite.

E-multiplication is the right action of pairs on matrix-permutation
states: ``(s, g) * (b, h) = (s . eval(g(b)), g h)`` with ``eval``
substituting the fixed nonzero field values ``tau_i`` for ``t_i``.  It is
computed letter by letter; each letter touches at most three columns of
the state matrix, so the cost is O(n) field operations per letter and
words of hundreds of thousands of letters stream in seconds.  Words with
repetition structure are streamed without expansion.

``colored_burau`` is the symbolic reference implementation of the pair
map over Laurent polynomials, kept for small n as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .field import GF2m
from .perm import Perm

__all__ = [
    "BraidWord",
    "free_reduce",
    "word_perm",
    "random_word",
    "EvalParams",
    "MatPerm",
    "e_multiply",
    "word_eval_pair",
    "left_mul",
    "SymbolicMatrix",
    "colored_burau",
]


class _Repeat:
    __slots__ = ("body", "count")

    def __init__(self, body: "BraidWord", count: int):
        self.body = body
        self.count = count


class BraidWord:
    """An immutable braid word stored as a tree of parts.

    Parts are letters (signed ints), shared subwords, or repetitions of a
    subword.  Concatenation and powers are O(1) and share structure, so
    very long witness words occupy memory proportional to the number of
    nodes, not letters.  Only :meth:`letters` walks the tree.
    """

    __slots__ = ("_parts", "_length")

    def __init__(self, letters: Iterable[int] = ()):
        parts = []
        for x in letters:
            x = int(x)
            if x == 0:
                raise ValueError("braid letters are nonzero signed integers")
            parts.append(x)
        self._parts = tuple(parts)
        self._length = len(self._parts)

    @classmethod
    def _from_parts(cls, parts: tuple, length: int) -> "BraidWord":
        w = cls.__new__(cls)
        w._parts = parts
        w._length = length
        return w

    @classmethod
    def concat(cls, *words: "BraidWord") -> "BraidWord":
        words = tuple(w for w in words if len(w) > 0)
        if len(words) == 1:
            return words[0]
        return cls._from_parts(words, sum(len(w) for w in words))

    def __add__(self, other: "BraidWord") -> "BraidWord":
        return BraidWord.concat(self, other)

    def power(self, count: int) -> "BraidWord":
        """Repetition-compressed count-th power (count >= 1)."""
        if count < 1:
            raise ValueError("repetition count must be >= 1")
        if count == 1 or len(self) == 0:
            return self
        return BraidWord._from_parts((_Repeat(self, count),), count * len(self))

    def inverse(self) -> "BraidWord":
        parts = []
        for part in reversed(self._parts):
            if isinstance(part, int):
                parts.append(-part)
            elif isinstance(part, _Repeat):
                parts.append(_Repeat(part.body.inverse(), part.count))
            else:
                parts.append(part.inverse())
        return BraidWord._from_parts(tuple(parts), self._length)

    def letters(self) -> Iterator[int]:
        """Stream the letters without expanding the tree."""
        for part in self._parts:
            if isinstance(part, int):
                yield part
            elif isinstance(part, _Repeat):
                for _ in range(part.count):
                    yield from part.body.letters()
            else:
                yield from part.letters()

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        if self._length <= 16:
            return f"BraidWord({list(self.letters())})"
        return f"BraidWord(<{self._length} letters>)"


def free_reduce(word: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs; braid relations are not applied.

    Expands the word, so this is meant for short words (generator
    construction), not for witness-sized ones.
    """
    out: list[int] = []
    for x in word.letters():
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return BraidWord(out)


def word_perm(word: BraidWord, n: int) -> Perm:
    """The permutation part of the pair image: the product of the
    transpositions (i, i+1) in word order; letter signs are irrelevant."""
    img = list(range(n))
    inv = list(range(n))
    for letter in word.letters():
        i = abs(letter) - 1
        if i >= n - 1:
            raise ValueError(f"letter {letter} out of range for n={n}")
        j1, j2 = inv[i], inv[i + 1]
        img[j1], img[j2] = i + 1, i
        inv[i], inv[i + 1] = j2, j1
    return Perm(img)


def random_word(n: int, length: int, rng, strands: Iterable[int] | None = None) -> BraidWord:
    """Uniform random flat word; `strands` restricts the generator indices."""
    pool = tuple(strands) if strands is not None else tuple(range(1, n))
    return BraidWord(
        rng.choice(pool) * rng.choice((1, -1)) for _ in range(length)
    )


@dataclass(frozen=True)
class EvalParams:
    """Evaluation data for E-multiplication: field, strand count, and the
    fixed nonzero values substituted for the indeterminates."""

    field: GF2m
    n: int
    tau: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 strands")
        if len(self.tau) != self.n:
            raise ValueError("need one tau value per strand")
        if any(not 0 < t < self.field.order for t in self.tau):
            raise ValueError("tau values must be nonzero field elements")

    @cached_property
    def scale_rows(self) -> np.ndarray:
        """Multiplication table of the substituted values, shape (2n, 2^m):
        row k multiplies by ``tau[k]`` and row n+k by ``1/tau[k]``."""
        fld = self.field
        scalars = list(self.tau) + [fld.inv(t) for t in self.tau]
        values = np.arange(fld.order, dtype=fld.dtype)
        return fld.mul_arr(np.array(scalars, dtype=fld.dtype)[:, None], values[None, :])


class MatPerm:
    """A matrix-permutation pair: the state E-multiplication acts on.

    Holds protocol messages and keys.  Treated as immutable; operations
    never modify ``mat`` in place.
    """

    __slots__ = ("mat", "perm")

    def __init__(self, mat: np.ndarray, perm: Perm):
        if mat.shape != (perm.n, perm.n):
            raise ValueError("matrix and permutation sizes differ")
        self.mat = mat
        self.perm = perm

    @classmethod
    def identity(cls, field: GF2m, n: int) -> "MatPerm":
        return cls(field.identity(n), Perm.identity(n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatPerm)
            and other.perm == self.perm
            and bool(np.array_equal(other.mat, self.mat))
        )

    def __repr__(self) -> str:
        return f"MatPerm(n={self.perm.n}, perm={self.perm!r})"


def left_mul(field: GF2m, x: np.ndarray, omega: MatPerm) -> MatPerm:
    """The left scaling action: multiply the matrix component by x."""
    return MatPerm(field.mat_mul(x, omega.mat), omega.perm)


def e_multiply(start: MatPerm, word: BraidWord, params: EvalParams) -> MatPerm:
    """Right-multiply a state by the pair image of a braid word.

    At state (S, g), letter +-i right-multiplies S by the evaluated
    generator matrix with the indeterminates permuted by the current g
    (value ``tau[g^-1(i)]`` for +i, ``1/tau[g^-1(i+1)]`` for -i) and then
    multiplies g by the transposition (i, i+1).  Since the generator
    matrix is the identity outside row i, only columns i-1, i, i+1 of S
    change, costing O(n) field operations per letter.

    Evaluating from ``(I, h)`` yields the matrix of the word with its
    variables permuted by h before evaluation, which is how twisted
    images are computed without symbolic algebra.
    """
    fld = params.field
    n = params.n
    if start.perm.n != n:
        raise ValueError("state size does not match params")
    S = start.mat.astype(fld.dtype, copy=True)
    g = list(start.perm.images)
    ginv = list(start.perm.inverse().images)
    rows = params.scale_rows
    for letter in word.letters():
        i = abs(letter)
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter {letter} out of range for n={n}")
        r = i - 1
        old = S[:, r]  # read before column r is overwritten below
        if letter > 0:
            prod = rows[ginv[r]].take(old)
            if r > 0:
                S[:, r - 1] ^= prod
            S[:, r + 1] ^= old
        else:
            prod = rows[n + ginv[r + 1]].take(old)
            if r > 0:
                S[:, r - 1] ^= old
            S[:, r + 1] ^= prod
        S[:, r] = prod
        j1, j2 = ginv[r], ginv[r + 1]
        g[j1], g[j2] = r + 1, r
        ginv[r], ginv[r + 1] = j2, j1
    return MatPerm(S, Perm(g))


def word_eval_pair(word: BraidWord, params: EvalParams) -> MatPerm:
    """The evaluated pair image of a word: E-multiplication from (I, e)."""
    return e_multiply(MatPerm.identity(params.field, params.n), word, params)


# ---------------------------------------------------------------------------
# Symbolic oracle (small n only)
# ---------------------------------------------------------------------------


class SymbolicMatrix:
    """Matrix of multivariate Laurent polynomials in t_1..t_n.

    Entries map integer exponent vectors to nonzero field coefficients.
    Signs are applied through the field's negation so the same code is
    correct beyond characteristic 2.  Used as a test oracle at small n;
    nothing in the protocol or attack path depends on it.
    """

    __slots__ = ("field", "n", "entries")

    def __init__(self, field: GF2m, n: int, entries=None):
        self.field = field
        self.n = n
        if entries is None:
            entries = [[{} for _ in range(n)] for _ in range(n)]
        self.entries = entries

    @classmethod
    def identity(cls, field: GF2m, n: int) -> "SymbolicMatrix":
        m = cls(field, n)
        zero = (0,) * n
        for i in range(n):
            m.entries[i][i] = {zero: 1}
        return m

    @classmethod
    def generator(cls, field: GF2m, n: int, letter: int) -> "SymbolicMatrix":
        """The symbolic matrix of a single signed Artin generator."""
        i = abs(letter)
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter {letter} out of range for n={n}")
        m = cls.identity(field, n)
        r = i - 1
        one = (0,) * n
        if letter > 0:
            t_i = tuple(1 if k == r else 0 for k in range(n))
            if r > 0:
                m.entries[r][r - 1] = {t_i: 1}
            m.entries[r][r] = {t_i: field.neg(1)}
            m.entries[r][r + 1] = {one: 1}
        else:
            t_next_inv = tuple(-1 if k == r + 1 else 0 for k in range(n))
            if r > 0:
                m.entries[r][r - 1] = {one: 1}
            m.entries[r][r] = {t_next_inv: field.neg(1)}
            m.entries[r][r + 1] = {t_next_inv: 1}
        return m

    def substitute_perm(self, g: Perm) -> "SymbolicMatrix":
        """Apply the substitution t_i -> t_{g^-1(i)} to every entry."""
        out = SymbolicMatrix(self.field, self.n)
        for i in range(self.n):
            for j in range(self.n):
                src = self.entries[i][j]
                if src:
                    out.entries[i][j] = {
                        tuple(e[g(k)] for k in range(self.n)): c for e, c in src.items()
                    }
        return out

    def mul(self, other: "SymbolicMatrix") -> "SymbolicMatrix":
        fld = self.field
        n = self.n
        out = SymbolicMatrix(fld, n)
        for i in range(n):
            row = self.entries[i]
            for k in range(n):
                left = row[k]
                if not left:
                    continue
                for j in range(n):
                    right = other.entries[k][j]
                    if not right:
                        continue
                    acc = out.entries[i][j]
                    for e1, c1 in left.items():
                        for e2, c2 in right.items():
                            e = tuple(a + b for a, b in zip(e1, e2))
                            c = acc.get(e, 0) ^ fld.mul(c1, c2)
                            if c:
                                acc[e] = c
                            else:
                                acc.pop(e, None)
        return out

    def evaluate(self, tau, perm: Perm | None = None) -> np.ndarray:
        """Substitute values for the variables (optionally permuted first:
        t_i -> tau[perm^-1(i)]) and return the dense matrix."""
        fld = self.field
        values = list(tau)
        if perm is not None:
            pinv = perm.inverse()
            values = [tau[pinv(i)] for i in range(self.n)]
        out = fld.zeros(self.n)
        for i in range(self.n):
            for j in range(self.n):
                acc = 0
                for e, c in self.entries[i][j].items():
                    term = c
                    for k, exp in enumerate(e):
                        if exp:
                            term = fld.mul(term, fld.pow(values[k], exp))
                    acc ^= term
                out[i, j] = acc
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymbolicMatrix)
            and other.n == self.n
            and other.field == self.field
            and other.entries == self.entries
        )


def colored_burau(word: BraidWord, n: int, field: GF2m) -> tuple[SymbolicMatrix, Perm]:
    """The symbolic pair image of a word (test oracle; n <= 8).

    Multiplies out ``(A, g)(x_letter, s_i) = (A * g(x_letter), g s_i)``
    letter by letter over Laurent polynomials.
    """
    if n > 8:
        raise ValueError("symbolic evaluation is guarded to n <= 8")
    A = SymbolicMatrix.identity(field, n)
    g = Perm.identity(n)
    for letter in word.letters():
        x = SymbolicMatrix.generator(field, n, letter)
        A = A.mul(x.substitute_perm(g))
        g = g * Perm.transposition(n, abs(letter) - 1)
    return A, g
