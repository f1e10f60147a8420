"""Exact linear algebra over GF(2^m) on vectorized n x n matrices.

Provides spans, multiplicative algebra closure that records how each
basis element was formed, membership-constrained linear solving, and
the one bounded draw of an invertible combination that every scale
uses.  Matrices are vectorized row-major to length n^2; every
computation is exact Gaussian elimination over the field.

A basis keeps its raw matrices verbatim next to their span in reduced
row-echelon form, stored only on the coordinates some basis matrix uses.
Sifting, membership and insertion are each a fixed number of whole-array
field operations (``GF2m.dot``), O(dim * |support|) work per vector with
no per-row loop; the closure and the membership solver sift whole stacks
of products at once through the same echelon code.  Coefficients over the
raw matrices are solved for when asked for (one ``GF2m.solve`` per call);
no change-of-basis transform is stored.  The closure keeps the braid word
of each generator plus one recipe per basis element; together they give a
pure word for every basis element without storing it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .braid import BraidWord
from .field import GF2m

__all__ = [
    "NotInSpan",
    "NoSolution",
    "InvertibleSampleFailed",
    "WitnessedBasis",
    "AlgebraClosure",
    "algebra_closure",
    "solve_membership",
    "sample_invertible",
]

# draws sample_invertible makes before it raises InvertibleSampleFailed
SAMPLE_TRIES = 64


class NotInSpan(ValueError):
    """The matrix is outside the span of the basis."""


class NoSolution(ValueError):
    """The membership system admits no usable solution."""


class InvertibleSampleFailed(RuntimeError):
    """No invertible combination was found within the try budget."""


class WitnessedBasis:
    """Linearly independent matrices, kept in insertion order.

    Next to the raw matrices it keeps their span in reduced row-echelon
    form: echelon rows whose pivot columns are unit columns.  A vector's
    pivot entries are then its coordinates over the echelon rows, so
    sifting and inserting are each a fixed number of whole-array
    operations.  The residual of a sift is the one vector of the coset
    that is zero on every pivot column, so pivots, basis order and
    coefficients do not depend on how the echelon is stored.  No
    change-of-basis transform is stored: :meth:`express` solves for the
    coefficients over the raw matrices' pivot columns, once per call.

    Rows are stored on the support only, the sorted coordinates some
    stored matrix uses: a residual is zero off it, so its first nonzero
    there is its pivot, work per vector is O(dim * |support|), and a
    matrix nonzero off it is outside the span.  The rows are the first dim
    rows of one preallocated array, which doubles when full and is re-laid
    when the support widens.  :meth:`add_block` sifts a whole
    stack with one ``dot`` (cut into blocks of at most ``field.DOT_BLOCK``
    log sums) and then inserts its vectors in order, clearing each new
    pivot column from the old rows with one rank-1 update and from the
    rest of the stack with another; ``add`` is a one-matrix block, so the
    result equals one ``add`` per matrix.

    Stores no witness words: :class:`AlgebraClosure` keeps the generator
    words and recipes that give one for each element.  The name is kept
    because the benchmark (``perfbench/spans.py``) wraps this class by
    name.
    """

    def __init__(self, field: GF2m, n: int):
        self.field = field
        self.n = n
        self.mats: list[np.ndarray] = []
        self._support = np.zeros(0, dtype=np.intp)
        # row j: echelon row j on the support; capacity n to start
        self._buf = np.zeros((n, 0), dtype=field.dtype)
        self._pivbuf = np.zeros(n, dtype=np.intp)

    @property
    def dim(self) -> int:
        return len(self.mats)

    @property
    def _rows(self) -> np.ndarray:
        """The echelon rows at full width, (dim, n^2)."""
        rows = np.zeros((self.dim, self.n * self.n), dtype=self.field.dtype)
        rows[:, self._support] = self._buf[: self.dim]
        return rows

    @property
    def _pivots(self) -> np.ndarray:
        return self._pivbuf[: self.dim]

    def _reduce(self, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(residuals on the support, combos) of a (k, n^2) stack, with
        vecs = residuals + combos . echelon rows; the combos are the pivot
        entries."""
        combo = vecs.take(self._pivots, axis=1)
        on = vecs.take(self._support, axis=1)
        return on ^ self.field.dot(combo, self._buf[: self.dim]), combo

    def _sift(self, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_reduce` with the residuals at full width: off the
        support they are the vectors themselves."""
        on, combo = self._reduce(vecs)
        res = vecs.copy()
        res[:, self._support] = on
        return res, combo

    def _widen(self, used: np.ndarray) -> None:
        """Add the coordinates flagged in ``used`` to the support."""
        used[self._support] = True
        support = np.flatnonzero(used)
        buf = np.zeros((len(self._pivbuf), len(support)), dtype=self.field.dtype)
        buf[:, np.searchsorted(support, self._support)] = self._buf
        self._buf, self._support = buf, support

    def add_block(self, mats) -> np.ndarray:
        """Sift a stack of matrices in, in order, as one ``add`` each
        would; returns per matrix whether it grew the span."""
        fld = self.field
        vecs = np.array(mats, dtype=fld.dtype).reshape(len(mats), self.n * self.n)
        if np.count_nonzero(vecs.take(self._support, axis=1)) != np.count_nonzero(vecs):
            self._widen(vecs.any(axis=0))
        res, _ = self._reduce(vecs)
        grew = np.zeros(len(vecs), dtype=bool)
        # only the nonzero residuals are kept, with their indices in the stack
        live = res.any(axis=1).nonzero()[0]
        res = res[live]
        while live.size:
            i, d = live[0], self.dim
            if d == len(self._pivbuf):  # full: double the capacity
                self._buf = np.pad(self._buf, ((0, d), (0, 0)))
                self._pivbuf = np.pad(self._pivbuf, (0, d))
            pos = res[0].nonzero()[0][0]
            row = fld.mul_arr(res[0], fld.inv(int(res[0, pos])))
            # clear the new pivot column from the old rows and the later vectors
            self._buf[:d] ^= fld.mul_arr(self._buf[:d, pos, None], row)
            self._buf[d], self._pivbuf[d] = row, self._support[pos]
            self.mats.append(vecs[i].reshape(self.n, self.n))
            grew[i] = True
            res, live = res[1:], live[1:]
            if live.size:
                res ^= fld.mul_arr(res[:, pos, None], row)
                keep = res.any(axis=1)
                res, live = res[keep], live[keep]
        return grew

    def add(self, mat: np.ndarray) -> bool:
        """Sift a matrix in; returns True when the dimension grew."""
        return bool(self.add_block(mat[None])[0])

    def __contains__(self, mat: np.ndarray) -> bool:
        residual, _ = self._sift(mat.reshape(1, -1).astype(self.field.dtype))
        return not residual.any()

    def express(self, mats: np.ndarray) -> np.ndarray:
        """Coefficients over the raw basis matrices, exact: a (dim,) vector
        for one matrix, a (k, dim) array for a (k, n, n) stack.

        Raises NotInSpan when a matrix lies outside the span.
        """
        vecs = mats.reshape(-1, self.n * self.n).astype(self.field.dtype)
        residual, combo = self._sift(vecs)
        if residual.any():
            raise NotInSpan("matrix is outside the span of the basis")
        # coeffs . raw = vecs on the pivot columns, where raw is independent
        raw = np.array(self.mats, dtype=self.field.dtype).reshape(self.dim, self.n * self.n)
        coeffs = self.field.solve(raw.take(self._pivots, axis=1).T, combo.T).T
        return coeffs if mats.ndim == 3 else coeffs[0]

    def combine(self, coeffs: Sequence[int]) -> np.ndarray:
        """The matrix sum of coeff_i * basis_i."""
        stack = np.array(self.mats, dtype=self.field.dtype).reshape(-1, self.n, self.n)
        return self.field.dot(coeffs, stack)


class AlgebraClosure:
    """A basis kept closed under products with its generators.

    Contains the identity and every added generator, and multiplies each
    basis element on the left by each productive generator until no
    product leaves the span.  A span that contains 1 and is closed under
    left multiplication by every generator contains every product of
    generators, so it is the algebra they generate and is closed under
    all products.  Generators already inside the span contribute nothing
    new and are skipped.

    Each basis element records how it was formed (identity, a generator,
    or a generator times an earlier element).  With
    pure witness words for the generators, concatenating along the
    recipes gives a pure witness word for every basis element.
    Evaluating a pure word under a permuted variable assignment is
    multiplicative over concatenation, so the recipes also let callers
    rebuild every basis matrix under a twisted assignment from the
    twisted generator images alone, without streaming those words.
    """

    def __init__(self, field: GF2m, n: int):
        self.basis = WitnessedBasis(field, n)
        self.generators: list[tuple[np.ndarray, BraidWord | None]] = []
        # per basis element: ("one",) | ("gen", gi) | ("gb", gi, bi)
        self.recipes: list[tuple] = []
        self._done: list[int] = []  # per generator: basis size already multiplied
        self.basis.add(field.identity(n))
        self.recipes.append(("one",))

    @property
    def dim(self) -> int:
        return self.basis.dim

    def add_generator(self, mat: np.ndarray, witness: BraidWord | None = None) -> bool:
        """Add a generator, with its optional witness word, and restore
        closure; True if the span grew."""
        if not self.basis.add(mat):
            return False
        self.generators.append((mat, witness))
        self.recipes.append(("gen", len(self.generators) - 1))
        self._done.append(0)
        self._drain()
        return True

    def _drain(self) -> None:
        basis = self.basis
        progress = True
        while progress:
            progress = False
            for gi, (gmat, _) in enumerate(self.generators):
                start, size = self._done[gi], basis.dim
                if start >= size:
                    continue
                progress = True
                products = basis.field.mat_mul(gmat, np.stack(basis.mats[start:size]))
                grew = basis.add_block(products)
                self.recipes += [("gb", gi, start + int(bi)) for bi in np.flatnonzero(grew)]
                self._done[gi] = size

    def rebuild(self, gen_images: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Replay the recipes with substitute generator matrices.

        With gen_images[i] the twisted image of generator i, returns the
        twisted image of every basis element, in basis order.  A run of
        products by one generator whose factors all come before the run
        (``_drain`` emits one per block) is one stacked product.
        """
        fld = self.basis.field
        recipes = self.recipes
        out: list[np.ndarray] = []
        k = 0
        while k < len(recipes):
            kind = recipes[k][0]
            if kind == "one":
                out.append(fld.identity(self.basis.n))
                k += 1
            elif kind == "gen":
                out.append(gen_images[recipes[k][1]])
                k += 1
            else:
                gi, end = recipes[k][1], k + 1
                while end < len(recipes) and recipes[end][:2] == ("gb", gi) and recipes[end][2] < k:
                    end += 1
                factors = np.stack([out[r[2]] for r in recipes[k:end]])
                out.extend(fld.mat_mul(gen_images[gi], factors))
                k = end
        return out


def algebra_closure(gens: Iterable[np.ndarray], field: GF2m) -> WitnessedBasis:
    """Basis of the smallest subspace containing the identity and the
    generators that is closed under matrix multiplication."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    closure = AlgebraClosure(field, gens[0].shape[0])
    for mat in gens:
        closure.add_generator(mat)
    return closure.basis


def solve_membership(products: np.ndarray, V: WitnessedBasis, field: GF2m) -> np.ndarray:
    """Parametrize {x : gamma_inv . sum(x_i kappa_i) lies in span(V)},
    given the stack of normalized products gamma_inv . kappa_i.

    The constraint is linear: sifting each product through V's echelon
    leaves a residual, and x must combine the residuals to zero.
    Sifting the residuals in order through a second echelon, each one
    that adds nothing gives the kernel vector e_i minus its coordinates
    over the earlier independent residuals.  Returns that
    kernel basis; raises NoSolution when the kernel is trivial (the span
    of V is too small, so callers should enlarge it and retry).
    """
    count = len(products)
    residuals, _ = V._sift(products.reshape(count, -1))
    rest = WitnessedBasis(field, V.n)  # the independent residuals, in order
    grew = rest.add_block(residuals)
    kept, dependent = np.flatnonzero(grew), np.flatnonzero(~grew)
    if not dependent.size:
        raise NoSolution("no nonzero combination of the kappa basis lands in span(V)")
    # a dependent residual is a combination of the independent ones before it
    kernel = np.zeros((len(dependent), count), dtype=field.dtype)
    kernel[np.arange(len(dependent)), dependent] = 1
    kernel[:, kept] = rest.express(residuals[dependent].reshape(-1, V.n, V.n))
    return kernel


def sample_invertible(
    mats: np.ndarray | Sequence[np.ndarray],
    field: GF2m,
    rng,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Draw random combinations of the matrices until one is invertible.

    Each try draws one coefficient per matrix, ``rng.randrange(|F|)`` in
    order, and combines them with one ``dot``.  Returns (matrix,
    coefficients, tries).  When the span holds an invertible matrix, the
    invertible density of a matrix subspace is at least 1 - n/|F|, so the
    expected number of tries is near 1 for the protocol sizes.  Raises
    InvertibleSampleFailed after SAMPLE_TRIES draws, so a span with few or
    no invertible elements (a hostile scale algebra) ends in bounded time.
    """
    stack = np.asarray(mats, dtype=field.dtype)
    for tries in range(1, SAMPLE_TRIES + 1):
        x = np.array([rng.randrange(field.order) for _ in range(len(stack))], dtype=field.dtype)
        c = field.dot(x, stack)
        if field.is_invertible(c):
            return c, x, tries
    raise InvertibleSampleFailed(f"no invertible combination in {SAMPLE_TRIES} tries")
