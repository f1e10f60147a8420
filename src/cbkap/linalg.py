"""Exact linear algebra over GF(2^m) on vectorized n x n matrices.

Provides spans, multiplicative algebra closure that records how each
basis element was formed, membership-constrained linear solving, and
invertible-solution sampling.  Matrices are vectorized row-major to
length n^2; every computation is exact Gaussian elimination over the
field.

A basis keeps its raw matrices verbatim next to a row-reduced echelon
copy and the change-of-basis transform, so membership tests and
coefficient extraction stay O(dim * n^2).  The closure keeps the braid
word of each generator plus one recipe per basis element; together they
give a pure word for every basis element without storing it.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "SolutionSpace",
    "solve_membership",
    "sample_invertible",
]


class NotInSpan(ValueError):
    """The matrix is outside the span of the basis."""


class NoSolution(ValueError):
    """The membership system admits no usable solution."""


class InvertibleSampleFailed(RuntimeError):
    """No invertible combination was found within the try budget."""


class WitnessedBasis:
    """Linearly independent matrices, kept in insertion order.

    Stores no witness words: :class:`AlgebraClosure` keeps the generator
    words and recipes that give one for each element.  The name is kept
    because the benchmark (``perfbench/spans.py``) wraps this class by
    name.
    """

    def __init__(self, field: GF2m, n: int):
        self.field = field
        self.n = n
        self.mats: list[np.ndarray] = []
        self._rows: list[np.ndarray] = []  # echelon rows, pivot normalized to 1
        self._pivots: list[int] = []
        self._tf: list[np.ndarray] = []  # echelon row i = sum_j tf[i][j] * raw vec j

    @property
    def dim(self) -> int:
        return len(self.mats)

    def _reduce(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Reduce vec against the echelon rows; returns (residual, combo)."""
        fld = self.field
        v = vec.copy()
        combo = np.zeros(len(self._rows), dtype=fld.dtype)
        for j, (row, piv) in enumerate(zip(self._rows, self._pivots)):
            a = int(v[piv])
            if a:
                v ^= fld.mul_vec(row, a)
                combo[j] = a
        return v, combo

    def add(self, mat: np.ndarray) -> bool:
        """Sift a matrix in; returns True when the dimension grew."""
        fld = self.field
        vec = mat.reshape(-1).astype(fld.dtype)
        residual, combo = self._reduce(vec)
        nz = np.nonzero(residual)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        inv_piv = fld.inv(int(residual[piv]))
        k = len(self._rows)
        # new echelon row = inv_piv * (raw_new - combo . echelon rows)
        tf_row = np.zeros(k + 1, dtype=fld.dtype)
        tf_row[k] = inv_piv
        if k:
            back = np.zeros(k, dtype=fld.dtype)
            for j, c in enumerate(combo):
                if c:
                    back ^= fld.mul_vec(self._tf[j], int(c))
            tf_row[:k] = fld.mul_vec(back, inv_piv)
        self._tf = [np.concatenate([row, np.zeros(1, dtype=fld.dtype)]) for row in self._tf]
        self._tf.append(tf_row)
        self._rows.append(fld.mul_vec(residual, inv_piv))
        self._pivots.append(piv)
        self.mats.append(mat.astype(fld.dtype))
        return True

    def __contains__(self, mat: np.ndarray) -> bool:
        residual, _ = self._reduce(mat.reshape(-1).astype(self.field.dtype))
        return not residual.any()

    def express(self, mat: np.ndarray) -> np.ndarray:
        """Coefficients over the raw basis matrices, exact.

        Raises NotInSpan when the matrix lies outside the span.
        """
        fld = self.field
        residual, combo = self._reduce(mat.reshape(-1).astype(fld.dtype))
        if residual.any():
            raise NotInSpan("matrix is outside the span of the basis")
        out = np.zeros(self.dim, dtype=fld.dtype)
        for j, c in enumerate(combo):
            if c:
                out ^= fld.mul_vec(self._tf[j], int(c))
        return out

    def combine(self, coeffs: Sequence[int]) -> np.ndarray:
        """The matrix sum of coeff_i * basis_i."""
        fld = self.field
        out = fld.zeros(self.n)
        for c, m in zip(coeffs, self.mats):
            if c:
                out ^= fld.mul_vec(m, int(c))
        return out


class AlgebraClosure:
    """A basis kept closed under products with its generators.

    Contains the identity and every added generator, and multiplies each
    basis element by each productive generator on both sides until no
    product leaves the span.  Generators already inside the span
    contribute nothing new and are skipped.

    Each basis element records how it was formed (identity, a generator,
    or a one-sided product of a generator with an earlier element).  With
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
        # per basis element: ("one",) | ("gen", gi) | ("gb", gi, bi) | ("bg", bi, gi)
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
        fld = self.basis.field
        progress = True
        while progress:
            progress = False
            for gi, (gmat, _) in enumerate(self.generators):
                start = self._done[gi]
                size = self.basis.dim
                if start >= size:
                    continue
                progress = True
                for bi in range(start, size):
                    bmat = self.basis.mats[bi]
                    if self.basis.add(fld.mat_mul(gmat, bmat)):
                        self.recipes.append(("gb", gi, bi))
                    if self.basis.add(fld.mat_mul(bmat, gmat)):
                        self.recipes.append(("bg", bi, gi))
                self._done[gi] = size

    def rebuild(self, gen_images: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Replay the recipes with substitute generator matrices.

        With gen_images[i] the twisted image of generator i, returns the
        twisted image of every basis element, in basis order.
        """
        fld = self.basis.field
        out: list[np.ndarray] = []
        for recipe in self.recipes:
            kind = recipe[0]
            if kind == "one":
                out.append(fld.identity(self.basis.n))
            elif kind == "gen":
                out.append(gen_images[recipe[1]])
            elif kind == "gb":
                out.append(fld.mat_mul(gen_images[recipe[1]], out[recipe[2]]))
            else:
                out.append(fld.mat_mul(out[recipe[1]], gen_images[recipe[2]]))
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


@dataclass
class SolutionSpace:
    """A linear coefficient space: the span of the homogeneous vectors."""

    homogeneous: list[np.ndarray]

    def sample(self, field: GF2m, rng) -> np.ndarray:
        x = np.zeros_like(self.homogeneous[0])
        for h in self.homogeneous:
            c = rng.randrange(field.order)
            if c:
                x ^= field.mul_vec(h, c)
        return x


def solve_membership(
    gamma_inv: np.ndarray,
    kappas: Sequence[np.ndarray],
    V: WitnessedBasis,
    field: GF2m,
) -> SolutionSpace:
    """Parametrize {x : gamma_inv . sum(x_i kappa_i) lies in span(V)}.

    The constraint is linear: reducing each gamma_inv * kappa_i against
    V's echelon rows leaves a residual, and x must combine the residuals
    to zero.  Returns a basis of that kernel; raises
    NoSolution when the kernel is trivial (the span of V is too small, so
    callers should enlarge it and retry).
    """
    fld = field
    residuals = []
    for k in kappas:
        res, _ = V._reduce(fld.mat_mul(gamma_inv, k).reshape(-1))
        residuals.append(res)
    # left kernel of the residual stack, with row-combination tracking
    rows: list[np.ndarray] = []
    pivots: list[int] = []
    combos: list[np.ndarray] = []
    kernel: list[np.ndarray] = []
    r = len(kappas)
    for i, res in enumerate(residuals):
        v = res.copy()
        t = np.zeros(r, dtype=fld.dtype)
        t[i] = 1
        for row, piv, comb in zip(rows, pivots, combos):
            a = int(v[piv])
            if a:
                v ^= fld.mul_vec(row, a)
                t ^= fld.mul_vec(comb, a)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            kernel.append(t)
        else:
            piv = int(nz[0])
            inv_piv = fld.inv(int(v[piv]))
            rows.append(fld.mul_vec(v, inv_piv))
            pivots.append(piv)
            combos.append(fld.mul_vec(t, inv_piv))
    if not kernel:
        raise NoSolution("no nonzero combination of the kappa basis lands in span(V)")
    return SolutionSpace(kernel)


def sample_invertible(
    space: SolutionSpace,
    kappas: Sequence[np.ndarray],
    field: GF2m,
    rng,
    max_tries: int = 64,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Draw solutions until the combined matrix is invertible.

    Returns (matrix, coefficients, tries).  When the solution space
    contains at least one invertible combination, the invertible density
    of a matrix subspace is at least 1 - n/|F|, so the expected number of
    tries is near 1 for the protocol sizes.  Raises
    InvertibleSampleFailed after max_tries draws.
    """
    fld = field
    n = kappas[0].shape[0]
    for tries in range(1, max_tries + 1):
        x = space.sample(fld, rng)
        c = fld.zeros(n)
        for xi, k in zip(x, kappas):
            if xi:
                c ^= fld.mul_vec(k, int(xi))
        if fld.is_invertible(c):
            return c, x, tries
    raise InvertibleSampleFailed(f"no invertible combination in {max_tries} tries")
