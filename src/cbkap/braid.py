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
substituting the fixed nonzero field values ``tau_i`` for ``t_i``.  It
is computed letter by letter: a letter scales one column of the state
matrix and adds it, scaled or not, into its two neighbours.  Each column
is one Python int of packed bytes, so a letter is one
``bytes.translate`` through a field multiplication table and two int
XORs; words of hundreds of thousands of letters stream in seconds, and
words with repetition structure without expansion.  ``e_multiply`` also
streams one word over a stack of states, each with its own starting
permutation (twist), packed into the same columns: one translate per run
of states sharing a twist.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, islice
from operator import attrgetter, neg
from typing import Iterable, Iterator, Sequence

import numpy as np

from .field import GF2m
from .perm import Perm

__all__ = [
    "BraidWord",
    "ConjugateForm",
    "free_reduce",
    "word_perm",
    "random_word",
    "EvalParams",
    "MatPerm",
    "e_multiply",
    "word_eval_pair",
    "left_mul",
]


class _Repeat:
    __slots__ = ("body", "count")

    def __init__(self, body: "BraidWord", count: int):
        self.body = body
        self.count = count

    def __neg__(self) -> "_Repeat":
        return _Repeat(self.body.inverse(), self.count)


class BraidWord:
    """An immutable braid word stored as a tree of parts.

    Parts are letters (signed ints), shared subwords, or repetitions of a
    subword.  Concatenation and powers are O(1) and share structure, so
    very long witness words occupy memory proportional to the number of
    nodes, not letters.  Only :meth:`letters` walks the tree.  A word
    whose parts are all letters is flat (``_flat``), so its letters can be
    sliced from its parts.
    """

    __slots__ = ("_parts", "_length", "_flat")

    def __init__(self, letters: Iterable[int] = ()):
        parts = []
        for x in letters:
            x = int(x)
            if x == 0:
                raise ValueError("braid letters are nonzero signed integers")
            parts.append(x)
        self._parts = tuple(parts)
        self._length = len(self._parts)
        self._flat = True

    @classmethod
    def _from_parts(cls, parts: tuple, length: int, flat: bool = False) -> "BraidWord":
        """A word of the given parts; ``flat`` says they are all letters."""
        w = cls.__new__(cls)
        w._parts = parts
        w._length = length
        w._flat = flat
        return w

    @classmethod
    def concat(cls, *words: "BraidWord") -> "BraidWord":
        words = tuple(w for w in words if w._length)
        if len(words) == 1:
            return words[0]
        return cls._from_parts(words, sum(w._length for w in words))

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
        """Parts reversed and negated: a letter flips its sign, a subword or
        repetition inverts (``-part``)."""
        parts = tuple(map(neg, reversed(self._parts)))
        return BraidWord._from_parts(parts, self._length, self._flat)

    __neg__ = inverse

    def letters(self) -> Iterator[int]:
        """Stream the letters without expanding the tree.  A repetition of
        an empty body is skipped, so its count costs nothing."""
        for part in self._parts:
            if isinstance(part, int):
                yield part
            elif isinstance(part, _Repeat):
                for _ in range(part.count if part.body._length else 0):
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


def _common_prefix(seqs: list) -> tuple:
    """The longest common prefix of some iterables of letters, read no
    further than the first mismatch; for tuples, that of the least and the
    greatest."""
    if all(type(s) is tuple for s in seqs):
        seqs = [min(seqs, default=()), max(seqs, default=())]
    out = []
    for column in zip(*seqs):
        if column.count(column[0]) < len(column):
            break
        out.append(column[0])
    return tuple(out)


class ConjugateForm:
    """A generator set written as ``P . core_k . P^-1`` with one shared
    conjugator P, so that products of the generators stream without the
    ``P^-1 P`` pair at each junction.

    P is the longest word that every generator and every inverse starts
    with, capped at half the shortest generator, so each signed generator
    is P, its core and P^-1 letter for letter, whatever its shape.
    Generators ``z u z^-1`` (``protocol.ttp_generate``) share what free
    reduction left of z.  Finding P reads each generator only as far as P
    reaches; a core is made on first use and shared by every product after
    it, and a generator that is not flat is expanded only when P is not
    empty, so memory stays O(generator letters).
    """

    __slots__ = ("prefix", "suffix", "_gens", "_cores")

    def __init__(self, gens: Sequence[BraidWord]):
        self._gens = gens = tuple(gens)
        cap = min((g._length for g in gens), default=0) // 2
        prefix = _common_prefix([g._parts[:cap] if g._flat else islice(g.letters(), cap) for g in gens])
        # every generator ends with P^-1: its last letters, reversed, are -P
        tails = [g._parts[: -cap - 1 : -1] if g._flat else map(neg, (-g).letters()) for g in gens]
        p = len(_common_prefix([tuple(map(neg, prefix)), *tails]))
        self.prefix = BraidWord._from_parts(prefix[:p], p, True)
        self.suffix = -self.prefix
        self._cores = [None] * (2 * len(gens))

    def __len__(self) -> int:
        """The number of generators."""
        return len(self._gens)

    def core(self, j: int) -> BraidWord:
        """The core of signed generator j: of generator j // 2 for even j,
        of its inverse for odd j; with P empty, the stored generator and its
        inverse."""
        core = self._cores[j]
        if core is None:
            if j & 1:
                core = -self.core(j - 1)
            else:
                core, p = self._gens[j >> 1], self.prefix._length
                if p:
                    stop = core._length - p
                    mid = core._parts[p:stop] if core._flat else tuple(islice(core.letters(), p, stop))
                    core = BraidWord._from_parts(mid, stop - p, True)
            self._cores[j] = core
        return core

    def product(self, gen_word: Iterable[tuple[int, int]]) -> BraidWord:
        """The braid word of a product of signed generators (label,
        exponent +-1): ``P . cores . P^-1``, after adjacent inverse
        generator letters cancel; the empty product is the empty word."""
        signed = []
        for k, e in gen_word:
            j = 2 * k + (e < 0)
            if signed and signed[-1] == j ^ 1:
                signed.pop()
            else:
                signed.append(j)
        if not signed:
            return BraidWord()
        return BraidWord.concat(self.prefix, *map(self.core, signed), self.suffix)


def word_perm(word: BraidWord, n: int) -> Perm:
    """The permutation part of the pair image: the product of the
    transpositions (i, i+1) in word order; letter signs are irrelevant.

    Computed from the tree: a repetition contributes its body's
    permutation raised to the count by square-and-multiply, so the cost
    follows the nodes and leaf letters, not the length."""
    inv = list(range(n))  # images of the inverse of the prefix's permutation
    for part in word._parts:
        if isinstance(part, int):
            i = abs(part) - 1
            if i >= n - 1:
                raise ValueError(f"letter {part} out of range for n={n}")
            inv[i], inv[i + 1] = inv[i + 1], inv[i]
            continue
        if isinstance(part, _Repeat):
            base, p, k = _word_perm(part.body, n), Perm.identity(n), part.count
            while k:
                p, base, k = (p * base if k & 1 else p), base * base, k >> 1
        else:
            p = _word_perm(part, n)
        inv = list((p.inverse() * Perm(inv)).images)
    return Perm(inv).inverse()


_word_perm = word_perm  # the recursion, unseen by wrappers of the public name


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
    def byte_tables(self) -> tuple[tuple[bytes, ...], ...]:
        """Byte translation tables of the substituted values.  With P byte
        planes per field element (1 for m <= 8, else 2: low, high), table
        ``[P * i + o][k]`` maps a byte of input plane i to output plane o of
        its product with ``tau[k]``, ``[P * i + o][n + k]`` with ``1/tau[k]``;
        bytes past the field's range map to 0."""
        fld = self.field
        planes = 1 if fld.degree <= 8 else 2
        scalars = np.array(list(self.tau) + [fld.inv(t) for t in self.tau], dtype=fld.dtype)
        out = []
        for i in range(planes):
            values = np.arange(256) << 8 * i
            valid = values < fld.order
            prod = np.zeros((2 * self.n, 256), dtype=np.int64)
            prod[:, valid] = fld.mul_arr(scalars[:, None], values[valid])
            for o in range(planes):
                out.append(tuple(row.tobytes() for row in (prod >> 8 * o & 0xFF).astype(np.uint8)))
        return tuple(out)


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


def e_multiply(
    start: MatPerm | Iterable[MatPerm], word: BraidWord, params: EvalParams
) -> MatPerm | list[MatPerm]:
    """Right-multiply a state, or each state of a sequence, by the pair
    image of a braid word; returns a state or a list of states.

    At state (S, g), letter +-i right-multiplies S by the evaluated
    generator matrix with the indeterminates permuted by the current g
    (value ``tau[g^-1(i)]`` for +i, ``1/tau[g^-1(i+1)]`` for -i) and then
    multiplies g by the transposition (i, i+1).  Since the generator
    matrix is the identity outside row i, only columns i-1, i, i+1 of S
    change: column i is scaled, and the neighbours take XORs.

    Evaluating from ``(I, h)`` yields the matrix of the word with its
    variables permuted by h before evaluation (twisted by h), which is
    how twisted images are computed without symbolic algebra.  A stack
    of states (S_b, h_b) streams the word once: after a prefix with
    permutation p, state b multiplies by ``tau[h_b^-1(p^-1(i))]``.

    Column j of the stack is one Python int of little-endian bytes (low
    bytes, then high bytes for m > 8), so a letter is two int XORs and one
    ``bytes.translate`` per run of consecutive states sharing a twist (per
    pair of byte planes for m > 8, XORed).  Raises ValueError for a letter
    out of range or a state entry that is not a field element.
    """
    single = isinstance(start, MatPerm)
    states = [start] if single else list(start)
    if not states:
        return []
    fld = params.field
    n = params.n
    if any(s.perm.n != n for s in states):
        raise ValueError("state size does not match params")
    if any(s.mat.dtype.kind not in "iu" for s in states):
        raise ValueError("state matrices must hold integers")
    # row j holds column j of every state, one state after another
    T = np.concatenate([s.mat.T for s in states], axis=1)
    if (T >> fld.degree).any():  # a negative entry shifts to -1
        raise ValueError("state entries must be field elements")
    width = T.shape[1]
    planes = 1 if fld.degree <= 8 else 2
    size = planes * width
    packed = np.concatenate([(T >> 8 * i).astype(np.uint8) for i in range(planes)], axis=1)
    # column 0 is scratch: letter 1 adds into it instead of column -1
    cols = [0] + [int.from_bytes(row.tobytes(), "little") for row in packed]
    # runs of consecutive states that share a twist, and per run the
    # byte-table index of each k the letter loop computes
    runs = [(g, len(list(group))) for g, group in groupby(states, key=attrgetter("perm"))]
    scalars = [h + tuple(n + x for x in h) for h in (g.inverse().images for g, _ in runs)]
    tabs = params.byte_tables
    if len(runs) == 1 and planes == 1:
        cut = None
        tables = list(map(tabs[0].__getitem__, scalars[0]))
    else:  # per output plane o, input plane i and run: one translate
        cut = struct.Struct("".join(f"{count * n}s" for _, count in runs) * planes).unpack
        tables = list(zip(*(
            map(tabs[planes * i + o].__getitem__, row)
            for o in range(planes) for i in range(planes) for row in scalars
        )))
        plane = 8 * width
        lo = (1 << plane) - 1
        hi = lo << plane
    translate = bytes.translate
    inv = list(range(n))  # images of the inverse of the prefix's permutation p
    for letter in word.letters():
        r = abs(letter) - 1
        if not 0 <= r < n - 1:
            raise ValueError(f"letter {letter} out of range for n={n}")
        old = cols[r + 1]
        k = inv[r] if letter > 0 else n + inv[r + 1]
        if cut is None:
            prod = int.from_bytes(old.to_bytes(size, "little").translate(tables[k]), "little")
        else:
            x = b"".join(map(translate, cut(old.to_bytes(size, "little")) * planes, tables[k]))
            prod = int.from_bytes(x, "little")
            if planes > 1:  # planes (lo<-lo, lo<-hi, hi<-lo, hi<-hi) XOR in pairs
                prod ^= prod >> plane
                prod = prod & lo | prod >> plane & hi
        if letter > 0:
            cols[r] ^= prod
            cols[r + 2] ^= old
        else:
            cols[r] ^= old
            cols[r + 2] ^= prod
        cols[r + 1] = prod
        inv[r], inv[r + 1] = inv[r + 1], inv[r]
    p = Perm(inv).inverse()
    raw = b"".join(c.to_bytes(size, "little") for c in cols[1:])
    raw = np.frombuffer(raw, dtype=np.uint8).reshape(n, planes, width).astype(fld.dtype)
    T = raw[:, 0] | raw[:, 1] << 8 if planes > 1 else raw[:, 0]
    out = [MatPerm(T[:, b * n:(b + 1) * n].T.copy(), s.perm * p) for b, s in enumerate(states)]
    return out[0] if single else out


def word_eval_pair(word: BraidWord, params: EvalParams) -> MatPerm:
    """The evaluated pair image of a word: E-multiplication from (I, e)."""
    return e_multiply(MatPerm.identity(params.field, params.n), word, params)
