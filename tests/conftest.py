import random

import numpy as np
import pytest

from cbkap.braid import BraidWord
from cbkap.field import GF2m
from cbkap.protocol import alice_round, bob_round, derive_key_alice, ttp_generate

SMALL = dict(n=8, gen_count=8, word_len=100)
FULL = dict(n=16, gen_count=8, word_len=650)


def expand_recipes(closure):
    """A witness word for every basis element of an AlgebraClosure, in
    basis order, from its recipes and the generator witness words."""
    words = []
    for recipe in closure.recipes:
        kind = recipe[0]
        if kind == "one":
            words.append(BraidWord())
        elif kind == "gen":
            words.append(closure.generators[recipe[1]][1])
        elif kind == "gb":
            words.append(closure.generators[recipe[1]][1] + words[recipe[2]])
        else:
            words.append(words[recipe[1]] + closure.generators[recipe[2]][1])
    return words


class SequentialBasis:
    """Reference for WitnessedBasis: sequential sifting, one echelon row
    and one field-scalar multiply at a time.

    Echelon rows are normalized at their pivot and reduced against the
    earlier rows only (not reduced row-echelon form); tf[i] expresses row
    i over the raw vectors.
    """

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.mats = []
        self.rows = []
        self.pivots = []
        self.tf = []

    @property
    def dim(self):
        return len(self.mats)

    def reduce(self, vec):
        fld = self.field
        v = vec.copy()
        combo = np.zeros(len(self.rows), dtype=fld.dtype)
        for j, (row, piv) in enumerate(zip(self.rows, self.pivots)):
            a = int(v[piv])
            if a:
                v ^= fld.mul_vec(row, a)
                combo[j] = a
        return v, combo

    def _back(self, combo):
        out = np.zeros(len(self.rows), dtype=self.field.dtype)
        for j, c in enumerate(combo):
            if c:
                out ^= self.field.mul_vec(self.tf[j], int(c))
        return out

    def add(self, mat):
        fld = self.field
        residual, combo = self.reduce(mat.reshape(-1).astype(fld.dtype))
        nz = np.nonzero(residual)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        inv_piv = fld.inv(int(residual[piv]))
        tf_row = np.append(fld.mul_vec(self._back(combo), inv_piv), inv_piv).astype(fld.dtype)
        self.tf = [np.append(row, 0).astype(fld.dtype) for row in self.tf] + [tf_row]
        self.rows.append(fld.mul_vec(residual, inv_piv))
        self.pivots.append(piv)
        self.mats.append(mat.astype(fld.dtype))
        return True

    def __contains__(self, mat):
        return not self.reduce(mat.reshape(-1).astype(self.field.dtype))[0].any()

    def express(self, mat):
        residual, combo = self.reduce(mat.reshape(-1).astype(self.field.dtype))
        if residual.any():
            raise ValueError("outside the span")
        return self._back(combo)

    def combine(self, coeffs):
        out = self.field.zeros(self.n)
        for c, m in zip(coeffs, self.mats):
            if c:
                out ^= self.field.mul_vec(m, int(c))
        return out


def sequential_kernel(residuals, field):
    """Reference left kernel of a stack of vectors, by sequential sifting
    with row-combination tracking: one vector e_i - (coordinates over the
    earlier independent vectors) per dependent vector i."""
    rows, pivots, combos, kernel = [], [], [], []
    r = len(residuals)
    for i, res in enumerate(residuals):
        v = res.copy()
        t = np.zeros(r, dtype=field.dtype)
        t[i] = 1
        for row, piv, comb in zip(rows, pivots, combos):
            a = int(v[piv])
            if a:
                v ^= field.mul_vec(row, a)
                t ^= field.mul_vec(comb, a)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            kernel.append(t)
        else:
            inv_piv = field.inv(int(v[nz[0]]))
            rows.append(field.mul_vec(v, inv_piv))
            pivots.append(int(nz[0]))
            combos.append(field.mul_vec(t, inv_piv))
    return kernel


@pytest.fixture(scope="session")
def basis_words():
    return expand_recipes


@pytest.fixture(scope="session")
def sequential_basis():
    return SequentialBasis


@pytest.fixture(scope="session")
def kernel_reference():
    return sequential_kernel


@pytest.fixture(scope="session")
def small_field():
    return GF2m(5)


@pytest.fixture(scope="session")
def full_field():
    return GF2m(8)


@pytest.fixture(scope="session")
def small_instance(small_field):
    rng = random.Random(0xD15C)
    return ttp_generate(SMALL["n"], small_field, SMALL["gen_count"], SMALL["word_len"], rng=rng)


@pytest.fixture(scope="session")
def full_instance(full_field):
    rng = random.Random(0xBEEF)
    return ttp_generate(FULL["n"], full_field, FULL["gen_count"], FULL["word_len"], rng=rng)


@pytest.fixture(scope="session")
def small_exchange(small_instance):
    """One honest exchange on the small instance: secrets, messages, key."""
    pub, priv, _ = small_instance
    rng = random.Random(0xE0)
    alice_secret, alice_msg = alice_round(pub, rng)
    bob_secret, bob_msg = bob_round(pub, priv, rng)
    key = derive_key_alice(alice_secret, bob_msg, pub)
    return alice_secret, alice_msg, bob_secret, bob_msg, key
