import heapq
import random

import numpy as np
import pytest

from cbkap.braid import BraidWord, MatPerm, random_word
from cbkap.field import GF2m, SingularMatrix
from cbkap.linalg import NotInSpan, WitnessedBasis
from cbkap.perm import NotInGroup, Perm, invert_genword
from cbkap.protocol import (
    InstancePublic,
    Transcript,
    alice_round,
    bob_round,
    derive_key_alice,
    ttp_generate,
)

SMALL = dict(n=8, gen_count=8, word_len=100)
FULL = dict(n=16, gen_count=8, word_len=650)


def random_invertible(field, rng, n):
    """Random matrices until one is invertible, with no try bound (unlike
    ``linalg.sample_invertible``, which the library draws with)."""
    while True:
        m = field.random_matrix(rng, n)
        if field.is_invertible(m):
            return m


def in_span(basis, mat):
    """Whether a WitnessedBasis spans the matrix: ``express`` raises
    NotInSpan when it does not."""
    try:
        basis.express(mat)
    except NotInSpan:
        return False
    return True


def left_mul(field, x, omega):
    """The left scaling action: the matrix component times x."""
    return MatPerm(field.mat_mul(x, omega.mat), omega.perm)


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
        else:
            words.append(closure.generators[recipe[1]][1] + words[recipe[2]])
    return words


def two_sided_span(gens, field, n):
    """Reference for AlgebraClosure: the earlier closure, which multiplied
    every basis element by every generator on both sides until nothing
    left the span.  Returns the WitnessedBasis of that span."""
    basis = WitnessedBasis(field, n)
    basis.add(field.identity(n))
    kept, done = [], []
    for mat in gens:
        if basis.add(mat):
            kept.append(mat)
            done.append(0)
        progress = True
        while progress:
            progress = False
            for gi, gmat in enumerate(kept):
                size = basis.dim
                if done[gi] >= size:
                    continue
                progress = True
                for bi in range(done[gi], size):
                    bmat = basis.mats[bi]
                    basis.add(field.mat_mul(gmat, bmat))
                    basis.add(field.mat_mul(bmat, gmat))
                done[gi] = size
    return basis


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

    def reduced(self):
        """(rows, tf) in reduced row-echelon form: each row cleared, last
        first, at the pivots of the later rows, which are reduced by then."""
        fld = self.field
        rows = [row.copy() for row in self.rows]
        tf = [t.copy() for t in self.tf]
        for j in reversed(range(len(rows))):
            for k in range(j + 1, len(rows)):
                a = int(rows[j][self.pivots[k]])
                if a:
                    rows[j] ^= fld.mul_vec(rows[k], a)
                    tf[j] ^= fld.mul_vec(tf[k], a)
        d = len(rows)
        return (np.array(rows, dtype=fld.dtype).reshape(d, self.n * self.n),
                np.array(tf, dtype=fld.dtype).reshape(d, d))


def sequential_drain(gens, field, n):
    """Reference for AlgebraClosure: the earlier drain, which formed one
    generator-times-element product at a time and sifted it into a
    SequentialBasis with one add.  Returns (basis, recipes)."""
    basis = SequentialBasis(field, n)
    basis.add(field.identity(n))
    recipes = [("one",)]
    kept, done = [], []
    for mat in gens:
        if not basis.add(mat):
            continue
        kept.append(mat)
        done.append(0)
        recipes.append(("gen", len(kept) - 1))
        progress = True
        while progress:
            progress = False
            for gi, gmat in enumerate(kept):
                start, size = done[gi], basis.dim
                if start >= size:
                    continue
                progress = True
                for bi in range(start, size):
                    if basis.add(field.mat_mul(gmat, basis.mats[bi])):
                        recipes.append(("gb", gi, bi))
                done[gi] = size
    return basis, recipes


def reference_mat_inv(field, a):
    """Reference for GF2m.mat_inv: the earlier Gauss-Jordan elimination,
    which per column swaps the pivot row up, scales it with ``mul_vec``
    and clears the column from the rows that are nonzero there."""
    n = a.shape[0]
    aug = np.concatenate([a.astype(field.dtype), field.identity(n)], axis=1)
    for col in range(n):
        rows = np.nonzero(aug[col:, col])[0]
        if rows.size == 0:
            raise SingularMatrix("matrix is singular")
        piv = col + int(rows[0])
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        pv = int(aug[col, col])
        if pv != 1:
            aug[col] = field.mul_vec(aug[col], field.inv(pv))
        factors = aug[:, col].copy()
        factors[col] = 0
        nz = factors != 0
        if nz.any():
            aug[nz] ^= field.mul_arr(factors[nz][:, None], aug[col][None, :])
    return aug[:, n:]


def sequential_rebuild(closure, gen_images):
    """Reference for AlgebraClosure.rebuild: the earlier replay, one
    product per recipe."""
    fld = closure.basis.field
    out = []
    for recipe in closure.recipes:
        kind = recipe[0]
        if kind == "one":
            out.append(fld.identity(closure.basis.n))
        elif kind == "gen":
            out.append(gen_images[recipe[1]])
        else:
            out.append(fld.mat_mul(gen_images[recipe[1]], out[recipe[2]]))
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


class _ReferenceLevel:
    def __init__(self, point, n):
        self.point = point
        self.gens = []
        self.transversal = {point: (Perm.identity(n), 0, None, None)}
        self._words = {}

    def word(self, point):
        cached = self._words.get(point)
        if cached is not None:
            return cached
        _, _, parent, edge = self.transversal[point]
        if parent is None:
            out = edge if edge is not None else ()
        else:
            out = self.word(parent) + edge
        self._words[point] = out
        return out


class ReferenceChain:
    """Reference for StabilizerChain: the same deterministic Schreier-Sims
    procedure written over Perm objects, inverting every transversal
    element where it is used and sifting through every level."""

    def __init__(self, generators, n):
        self.n = n
        self.generators = list(generators)
        self._levels = [_ReferenceLevel(i, n) for i in range(n)]
        for label, g in enumerate(self.generators):
            self._insert(g, ((label, 1),))
        self._complete()

    def _level_gens(self, i):
        return [pair for lvl in self._levels[i:] for pair in lvl.gens]

    def _rebuild_orbit(self, i):
        lvl = self._levels[i]
        edges = []
        for g, gw in self._level_gens(i):
            edges.append((g, gw))
            edges.append((g.inverse(), invert_genword(gw)))
        lvl.transversal = {lvl.point: (Perm.identity(self.n), 0, None, None)}
        lvl._words.clear()
        heap = [(0, lvl.point)]
        settled = set()
        while heap:
            dist, beta = heapq.heappop(heap)
            if beta in settled:
                continue
            settled.add(beta)
            u = lvl.transversal[beta][0]
            for g, gw in edges:
                delta = g(beta)
                if delta in settled:
                    continue
                cand = dist + len(gw)
                known = lvl.transversal.get(delta)
                if known is None or cand < known[1]:
                    lvl.transversal[delta] = (u * g, cand, beta, gw)
                    heapq.heappush(heap, (cand, delta))

    def _sift(self, p, w):
        for i in range(self.n):
            if p.is_identity():
                return None
            lvl = self._levels[i]
            beta = p(lvl.point)
            entry = lvl.transversal.get(beta)
            if entry is None:
                return p, w, i
            p = p * entry[0].inverse()
            w = w + invert_genword(lvl.word(beta))
        return None

    def _reduces_to_identity(self, p):
        for lvl in self._levels:
            if p.is_identity():
                return True
            entry = lvl.transversal.get(p(lvl.point))
            if entry is None:
                return False
            p = p * entry[0].inverse()
        return True

    def _insert(self, p, w):
        res = self._sift(p, w)
        if res is None:
            return False
        q, qw, i = res
        self._levels[i].gens.append((q, qw))
        for j in range(i + 1):
            self._rebuild_orbit(j)
        return True

    def _complete(self):
        changed = True
        while changed:
            changed = False
            work = []
            for i in range(self.n):
                lvl = self._levels[i]
                for beta in sorted(lvl.transversal):
                    u = lvl.transversal[beta][0]
                    for g, gw in self._level_gens(i):
                        delta = g(beta)
                        if (u * g * lvl.transversal[delta][0].inverse()).is_identity():
                            continue
                        wlen = lvl.transversal[beta][1] + len(gw) + lvl.transversal[delta][1]
                        work.append((wlen, len(work), i, beta, g, gw))
            work.sort(key=lambda item: (item[0], item[1]))
            for _, _, i, beta, g, gw in work:
                lvl = self._levels[i]
                delta = g(beta)
                schreier = lvl.transversal[beta][0] * g * lvl.transversal[delta][0].inverse()
                if schreier.is_identity() or self._reduces_to_identity(schreier):
                    continue
                sw = lvl.word(beta) + gw + invert_genword(lvl.word(delta))
                if self._insert(schreier, sw):
                    changed = True

    def order(self):
        out = 1
        for lvl in self._levels:
            out *= len(lvl.transversal)
        return out

    def factor(self, g):
        used = []
        p = g
        for lvl in self._levels:
            if p.is_identity():
                break
            beta = p(lvl.point)
            entry = lvl.transversal.get(beta)
            if entry is None:
                raise NotInGroup(repr(g))
            used.append(lvl.word(beta))
            p = p * entry[0].inverse()
        out = ()
        for uw in reversed(used):
            out = out + uw
        return out

    @property
    def strong_generators(self):
        return [lvl.gens for lvl in self._levels]

    @property
    def levels(self):
        return [
            (lvl.point, {pt: (lvl.transversal[pt][0], lvl.word(pt)) for pt in lvl.transversal})
            for lvl in self._levels
        ]


def reference_scale_rows(params):
    """Multiplication table of the substituted values, shape (2n, 2^m):
    row k multiplies by ``tau[k]`` and row n+k by ``1/tau[k]``."""
    fld = params.field
    scalars = list(params.tau) + [fld.inv(t) for t in params.tau]
    values = np.arange(fld.order, dtype=fld.dtype)
    return fld.mul_arr(np.array(scalars, dtype=fld.dtype)[:, None], values[None, :])


def reference_e_multiply(start, word, params):
    """Reference for braid.e_multiply: the earlier numpy engine, which
    keeps every column of the stack as a numpy array and scales column r
    by a table gather per letter (one table row per state when the
    twists differ)."""
    single = isinstance(start, MatPerm)
    states = [start] if single else list(start)
    if not states:
        return []
    fld = params.field
    n = params.n
    if any(s.perm.n != n for s in states):
        raise ValueError("state size does not match params")
    # row j holds column j of every state, one state after another
    T = np.concatenate([s.mat.T for s in states], axis=1).astype(fld.dtype, copy=False)
    hinv = [sorted(range(n), key=s.perm.images.__getitem__) for s in states]
    rows = reference_scale_rows(params)
    if all(s.perm == states[0].perm for s in states):  # gather from one twist's rows
        tables = [rows[k] for k in hinv[0]] + [rows[n + k] for k in hinv[0]]
        offsets = None
    else:  # per-state row offsets into the flattened table
        offsets = np.repeat(np.array(hinv) * fld.order, n, axis=0).T
        offsets = list(offsets) + list(offsets + n * fld.order)
        flat = rows.reshape(-1)
    cols = list(T)  # letter 1 adds into a scratch column instead of column -1
    steps = list(zip(range(n - 1), [np.zeros_like(cols[0])] + cols[:-2], cols[:-1], cols[1:]))
    plan = dict(zip(range(1, n), steps))
    plan.update(zip(range(-1, -n, -1), steps))
    inv = list(range(n))  # images of the inverse of the prefix's permutation p
    for letter in word.letters():
        try:
            r, left, old, right = plan[letter]
        except KeyError:
            raise ValueError(f"letter {letter} out of range for n={n}") from None
        k = inv[r] if letter > 0 else n + inv[r + 1]
        prod = tables[k].take(old) if offsets is None else flat.take(offsets[k] + old)
        if letter > 0:
            left ^= prod
            right ^= old
        else:
            left ^= old
            right ^= prod
        old[...] = prod  # column r, read above before this overwrite
        inv[r], inv[r + 1] = inv[r + 1], inv[r]
    p = Perm(inv).inverse()
    out = [MatPerm(T[:, b * n:(b + 1) * n].T.copy(), s.perm * p) for b, s in enumerate(states)]
    return out[0] if single else out



def _slow_pow(fld, a, e):
    """a^e by square-and-multiply over the schoolbook product, so that no
    reference reads the field's tables."""
    r = 1
    while e:
        if e & 1:
            r = fld._mul_slow(r, a)
        a = fld._mul_slow(a, a)
        e >>= 1
    return r


class SymbolicMatrix:
    """Matrix of multivariate Laurent polynomials in t_1..t_n.

    Entries map integer exponent vectors to nonzero field coefficients;
    in characteristic 2 every sign is +1.  Coefficients multiply by the
    field's carry-less schoolbook product, not its tables.  The symbolic
    reference for the pair map and E-multiplication at small n (see
    ``colored_burau``).
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
            m.entries[r][r] = {t_i: 1}
            m.entries[r][r + 1] = {one: 1}
        else:
            t_next_inv = tuple(-1 if k == r + 1 else 0 for k in range(n))
            if r > 0:
                m.entries[r][r - 1] = {one: 1}
            m.entries[r][r] = {t_next_inv: 1}
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
                            c = acc.get(e, 0) ^ fld._mul_slow(c1, c2)
                            if c:
                                acc[e] = c
                            else:
                                acc.pop(e, None)
        return out

    def evaluate(self, tau, perm=None) -> np.ndarray:
        """Substitute values for the variables (optionally permuted first:
        t_i -> tau[perm^-1(i)]) and return the dense matrix.  A negative
        power of a value is the power of its inverse, v^(q-2)."""
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
                            power = exp if exp > 0 else -exp * (fld.order - 2)
                            term = fld._mul_slow(term, _slow_pow(fld, values[k], power))
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


@pytest.fixture(scope="session")
def basis_words():
    return expand_recipes


@pytest.fixture(scope="session")
def reference_engine():
    return reference_e_multiply


@pytest.fixture(scope="session")
def two_sided_reference():
    return two_sided_span


@pytest.fixture(scope="session")
def sequential_basis():
    return SequentialBasis


@pytest.fixture(scope="session")
def drain_reference():
    return sequential_drain


@pytest.fixture(scope="session")
def inverse_reference():
    return reference_mat_inv


@pytest.fixture(scope="session")
def rebuild_reference():
    return sequential_rebuild


@pytest.fixture(scope="session")
def kernel_reference():
    return sequential_kernel


@pytest.fixture(scope="session")
def reference_chain():
    return ReferenceChain


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


def random_group_exchange(n, word_len, seed):
    """An instance whose A generators are three random braid words, so
    their permutations generate S_n or A_n, with an exchange over it and
    Alice's key."""
    rng = random.Random(seed)
    pub, priv, _ = ttp_generate(n, GF2m(4), 3, 20, rng=rng)
    pub = InstancePublic(pub.params, [random_word(n, word_len, rng) for _ in range(3)], pub.c_gens)
    asec, amsg = alice_round(pub, rng)
    _, bmsg = bob_round(pub, priv, rng)
    return pub, Transcript(amsg, bmsg), derive_key_alice(asec, bmsg, pub)


def random_alice_perm(transcript, seed):
    """The transcript with Alice's permutation replaced by a random one:
    in S_n, far from the identity in generator letters."""
    msg = transcript.alice_msg
    return Transcript(MatPerm(msg.mat, Perm.random(msg.perm.n, random.Random(seed))), transcript.bob_msg)
