"""Exact linear algebra over GF(2^m) on vectorized n x n matrices.

Provides spans, multiplicative algebra closure that records how each
basis element was formed, membership-constrained linear solving, and
the one bounded draw of an invertible combination that every scale
uses.  Matrices are vectorized row-major to length n^2; every
computation is exact Gaussian elimination over the field.

A basis keeps its raw matrices verbatim next to their span in reduced
row-echelon form, stored only on the coordinates some basis matrix uses.
Sifting and membership are each a fixed number of whole-array field
operations (``GF2m.dot``), and an insertion is one ``GF2m.pivot`` step,
the same rank-1 elimination ``GF2m.solve`` runs per column: O(dim *
|support|) work per vector with no per-row loop.  The closure and the
membership solver sift whole stacks of products at once through the same
echelon code.  Coefficients over the
raw matrices are solved for when asked for (one ``GF2m.solve`` per call);
no change-of-basis transform is stored.  The closure keeps the braid word
of each generator plus one recipe per basis element; together they give a
pure word for every basis element without storing it.

Closure products run on the strand blocks of the generators: every
matrix of the algebra is block-diagonal under the partition of the
strands that the generators' nonzero entries join, so a generator times
a stack of basis elements is one gather of the sum-of-cubes block terms
and one XOR ``reduceat`` (``GF2m.mat_mul`` when the blocks take more than
n^3 / BLOCK_CUT terms).  A lone generator's powers double per pass.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import field as _field
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

# a strand partition whose block products take more than n^3 / BLOCK_CUT
# terms is multiplied by GF2m.mat_mul instead: the one-gather product was
# never slower at a share of 0.28, ran 2-4x faster at 0.08-0.13 and 2x
# slower at 0.77
BLOCK_CUT = 4


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
    rows of one preallocated array, which doubles until a stack's
    residuals fit under them and is re-laid when the support widens.
    :meth:`add_block` sifts a whole stack with one ``dot`` (cut into
    blocks of at most ``field.DOT_BLOCK`` log sums) and writes the nonzero
    residuals into the rows under the echelon rows.  Each insertion is
    then one ``GF2m.pivot`` over the echelon rows and the remaining
    residuals together, which scales the new row and clears its pivot
    column from all the others; residuals that turn zero are dropped.
    ``add`` is a one-matrix block, so the result equals one ``add`` per
    matrix.

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
        # the nonzero residuals, with their indices in the stack, go under
        # the echelon rows: rows [d, top) of the buffer
        live = res.any(axis=1).nonzero()[0]
        d, top = self.dim, self.dim + live.size
        while len(self._pivbuf) < top:  # double the capacity until they fit
            self._buf = np.concatenate([self._buf, np.zeros_like(self._buf)])
            self._pivbuf = np.concatenate([self._pivbuf, np.zeros_like(self._pivbuf)])
        self._buf[d:top] = res[live]
        while d < top:
            # one pivot step clears the new pivot column from the old rows
            # and from the later residuals, and scales row d to the new row
            pos = self._buf[d].nonzero()[0][0]
            fld.pivot(self._buf[:top], d, self._buf[:top, pos].copy())
            self._pivbuf[d] = self._support[pos]
            self.mats.append(vecs[live[0]].reshape(self.n, self.n))
            grew[live[0]] = True
            d, live = d + 1, live[1:]
            keep = self._buf[d:top].any(axis=1)
            if not keep.all():  # drop the residuals that turned zero
                live = live[keep]
                self._buf[d : d + live.size] = self._buf[d:top][keep]
                top = d + live.size
        return grew

    def add(self, mat: np.ndarray) -> bool:
        """Sift a matrix in; returns True when the dimension grew."""
        return bool(self.add_block(mat[None])[0])

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


def _block_plan(pattern: np.ndarray) -> tuple[np.ndarray, ...] | None:
    """The gather plan of products of matrices that use only the entries
    of an (n, n) nonzero pattern, or None when its blocks take more than
    n^3 / BLOCK_CUT terms.

    Strands i and j share a block when a chain of used entries, read in
    either direction, joins them; every product of such matrices is
    block-diagonal under that partition.  Returns (left, right, out,
    starts): term t multiplies flat entry left[t] of the left factor by
    flat entry right[t] of the right one, and the run of terms from
    starts[e] sums to flat output entry out[e]."""
    n = len(pattern)
    same = pattern | pattern.T | np.eye(n, dtype=bool)
    while True:  # each pass doubles the chains followed
        longer = same @ same
        if np.array_equal(longer, same):
            break
        same = longer
    sizes = same.sum(axis=1)  # per strand, the size b of its block
    if int((sizes ** 2).sum()) * BLOCK_CUT > n ** 3:  # the sum of b^3 over blocks
        return None
    i, j, l = np.nonzero(same[:, :, None] & same[:, None, :])  # l varies fastest
    out = np.flatnonzero(same)
    runs = sizes[out // n]
    return i * n + l, l * n + j, out, np.cumsum(runs) - runs


def _block_mat_mul(field: GF2m, plan: tuple[np.ndarray, ...] | None,
                   a: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The products a . stack[k], exact, for a and every stack[k]
    block-diagonal under the strand partition ``plan`` was made for
    (:func:`_block_plan`): per cut of the stack, one gather of the block
    terms and one XOR ``reduceat``, the stack cut so that no temporary
    exceeds ``field.DOT_BLOCK`` terms.  A None plan is ``GF2m.mat_mul``."""
    if plan is None:
        return field.mat_mul(a, stack)
    left, right, out, starts = plan
    n = len(a)
    flat = stack.reshape(len(stack), n * n)
    a_terms = a.reshape(-1).take(left)
    res = np.zeros(flat.shape, dtype=field.dtype)
    step = max(1, _field.DOT_BLOCK // len(left))
    for c in range(0, len(flat), step):
        terms = field.mul_arr(flat[c : c + step].take(right, axis=1), a_terms)
        res[c : c + step, out] = np.bitwise_xor.reduceat(terms, starts, axis=1)
    return res.reshape(stack.shape)


class AlgebraClosure:
    """A basis kept closed under products with its generators.

    Contains the identity and every added generator, and multiplies each
    basis element on the left by each productive generator until no
    product leaves the span.  A span that contains 1 and is closed under
    left multiplication by every generator contains every product of
    generators, so it is the algebra they generate and is closed under
    all products.  Generators already inside the span contribute nothing
    new and are skipped.

    Every product is block-diagonal under the strand partition of the
    generators' nonzero pattern, so each stacked product of a generator
    and basis elements is one block product (:func:`_block_mat_mul`).  The
    partition is recomputed only when an accepted generator uses a new
    entry.  While the closure holds one generator g, its basis is the
    powers 1, g, ..., g^(m-1), and one pass forms the next m - 1 powers as
    g^(m-1) . [g ... g^(m-1)]: about log2 of the degree of g in passes,
    with the basis, pivots and recipes of one power per pass.

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
        self._pattern = np.zeros((n, n), dtype=bool)  # the entries some generator uses
        self._plan = None  # set by the first generator, which uses a new entry
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
        used = mat != 0
        if (used & ~self._pattern).any():
            self._pattern |= used
            self._plan = _block_plan(self._pattern)
        self.generators.append((mat, witness))
        self.recipes.append(("gen", len(self.generators) - 1))
        self._done.append(0)
        if len(self.generators) == 1:
            self._drain_powers()
        else:
            self._drain()
        return True

    def _drain_powers(self) -> None:
        """Close under the one generator g, doubling the run of powers per
        pass: with basis 1, g, ..., g^(m-1), the pass forms g^(m-1) . g^p
        for 0 < p < m.  That is g^(m-1+p) = g . g^(m-2+p), so its recipe
        is ("gb", 0, m-2+p), as in a drain of one power per pass.  The
        powers that grow the span are a prefix of each pass: once a power
        lies in the span of the lower ones, so does every higher one."""
        basis = self.basis
        while True:
            m = basis.dim
            powers = _block_mat_mul(basis.field, self._plan, basis.mats[m - 1], np.stack(basis.mats[1:m]))
            grew = basis.add_block(powers)
            self.recipes += [("gb", 0, m - 1 + int(i)) for i in np.flatnonzero(grew)]
            if not grew.all():
                break
        self._done[0] = basis.dim

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
                products = _block_mat_mul(basis.field, self._plan, gmat, np.stack(basis.mats[start:size]))
                grew = basis.add_block(products)
                self.recipes += [("gb", gi, start + int(bi)) for bi in np.flatnonzero(grew)]
                self._done[gi] = size

    def rebuild(self, gen_images: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Replay the recipes with substitute generator matrices.

        With gen_images[i] the twisted image of generator i, returns the
        twisted image of every basis element, in basis order.  A run of
        products by one generator whose factors all come before the run
        (``_drain`` emits one per block) is one stacked block product,
        under the strand partition of the images.
        """
        fld, n = self.basis.field, self.basis.n
        images = np.array(gen_images, dtype=fld.dtype).reshape(-1, n, n)
        plan = _block_plan(images.any(axis=0))
        recipes = self.recipes
        out: list[np.ndarray] = []
        k = 0
        while k < len(recipes):
            kind = recipes[k][0]
            if kind == "one":
                out.append(fld.identity(n))
                k += 1
            elif kind == "gen":
                out.append(gen_images[recipes[k][1]])
                k += 1
            else:
                gi, end = recipes[k][1], k + 1
                while end < len(recipes) and recipes[end][:2] == ("gb", gi) and recipes[end][2] < k:
                    end += 1
                factors = np.stack([out[r[2]] for r in recipes[k:end]])
                out.extend(_block_mat_mul(fld, plan, gen_images[gi], factors))
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
