import math
import random

import numpy as np
import pytest

from cbkap.attack import precompute_pure_basis
from cbkap import field, linalg
from cbkap.braid import EvalParams, MatPerm, e_multiply, random_word, word_eval_pair, word_perm
from cbkap.field import GF2m
from cbkap.linalg import (
    AlgebraClosure,
    InvertibleSampleFailed,
    NoSolution,
    NotInSpan,
    WitnessedBasis,
    algebra_closure,
    sample_invertible,
    solve_membership,
)
from cbkap.perm import Perm
from cbkap.protocol import ttp_generate

from conftest import in_span, random_invertible


def rank_oracle(field, vectors):
    """Independent row reduction on plain int lists."""
    rows = [list(int(x) for x in v) for v in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    col = 0
    while col < width and rank < len(rows):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field._mul_slow(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x ^ field._mul_slow(f, y) for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def brute_force_algebra_dim(field, gens):
    """Fixpoint closure oracle: span of all products, recomputed naively."""
    n = gens[0].shape[0]
    elems = [field.identity(n)] + list(gens)
    while True:
        products = [field.mat_mul(a, b) for a in elems for b in elems]
        combined = elems + products
        dim_before = rank_oracle(field, [m.reshape(-1) for m in elems])
        dim_after = rank_oracle(field, [m.reshape(-1) for m in combined])
        if dim_after == dim_before:
            return dim_before
        # keep an independent subset to bound growth
        basis = WitnessedBasis(field, n)
        elems = [m for m in combined if basis.add(m)]


def test_span_basis():
    # the basis keeps a maximal independent sublist, in first-seen order
    fld = GF2m(2)
    rng = random.Random(0)
    basis = WitnessedBasis(fld, 3)
    assert basis.add(fld.identity(3)) and basis.dim == 1
    basis = WitnessedBasis(fld, 3)
    m = fld.random_matrix(rng, 3)
    assert basis.add(m) and not basis.add(m)
    assert basis.dim == 1 and np.array_equal(basis.mats[0], m)
    mats = [fld.random_matrix(rng, 3) for _ in range(5)]
    basis = WitnessedBasis(fld, 3)
    kept = [m for m in mats if basis.add(m)]
    assert basis.dim == len(kept) == rank_oracle(fld, [m.reshape(-1) for m in mats])
    assert all(np.array_equal(a, b) for a, b in zip(basis.mats, kept))


def test_witnessed_basis_express():
    fld = GF2m(4)
    rng = random.Random(1)
    basis = WitnessedBasis(fld, 4)
    mats = []
    while basis.dim < 6:
        m = fld.random_matrix(rng, 4)
        if basis.add(m):
            mats.append(m)
    for i, m in enumerate(mats):
        coeffs = basis.express(m)
        expect = np.zeros(len(mats), dtype=fld.dtype)
        expect[i] = 1
        assert np.array_equal(coeffs, expect)
    assert np.array_equal(basis.express(fld.zeros(4)), np.zeros(6, dtype=fld.dtype))
    # random combination round trip
    for _ in range(20):
        coeffs = np.array([rng.randrange(fld.order) for _ in range(6)], dtype=fld.dtype)
        m = basis.combine(coeffs)
        assert np.array_equal(basis.express(m), coeffs)
    # dim 6 of 16: a random matrix is almost surely outside the span
    raised = False
    for _ in range(10):
        try:
            basis.express(fld.random_matrix(rng, 4))
        except NotInSpan:
            raised = True
            break
    assert raised


def random_inputs(field, n, rng, count):
    """Matrices with repeats: fresh random ones, duplicates, the zero
    matrix, scalar multiples and combinations of earlier inputs, so that
    most sets are rank-deficient; and zero patterns: sparse matrices,
    matrices on a block of rows and columns, and matrices nonzero only
    where every earlier input is zero, which widen the span's support."""
    out = []
    for _ in range(count):
        kind = rng.randrange(8) if out else rng.choice((0, 5, 6))
        if kind == 0:
            m = field.random_matrix(rng, n)
        elif kind == 1:
            m = rng.choice(out).copy()
        elif kind == 2:
            m = field.zeros(n)
        elif kind == 3:
            m = field.mul_vec(rng.choice(out), rng.randrange(field.order))
        elif kind == 4:
            m = field.zeros(n)
            for a in rng.sample(out, min(3, len(out))):
                m ^= field.mul_vec(a, rng.randrange(field.order))
        elif kind == 5:
            m = field.random_matrix(rng, n)
            m[np.array([[rng.random() < 0.7 for _ in range(n)] for _ in range(n)])] = 0
        elif kind == 6:
            m = field.zeros(n)
            rows, cols = rng.sample(range(n), rng.randint(1, n)), rng.sample(range(n), rng.randint(1, n))
            m[np.ix_(rows, cols)] = field.random_matrix(rng, n)[: len(rows), : len(cols)]
        else:
            m = off_support(field, n, rng, out)
        out.append(m)
    return out


def off_support(field, n, rng, mats):
    """A matrix that is random where every one of mats is zero and zero
    elsewhere: off the support of a basis of mats."""
    m = field.random_matrix(rng, n)
    if len(mats):
        m[np.any(mats, axis=0)] = 0
    return m


def scalar_combination(field, coeffs, vectors):
    """sum coeffs[j] * vectors[j] with scalar field operations only."""
    out = [0] * len(vectors[0])
    for c, vec in zip(coeffs, vectors):
        for k, x in enumerate(vec):
            out[k] ^= field._mul_slow(int(c), int(x))
    return out


def test_stacked_basis_matches_sequential_reference(sequential_basis, monkeypatch):
    # inputs go in as random consecutive blocks, a block of one through
    # add; the lowered budget splits the sifting dots mid-block
    monkeypatch.setattr(field, "DOT_BLOCK", 40)
    for degree in (1, 8, 16):
        fld = GF2m(degree)
        rng = random.Random(100 + degree)
        empty = WitnessedBasis(fld, 3)
        assert not empty.add(fld.zeros(3)) and empty.dim == 0
        assert empty.add_block(np.zeros((0, 3, 3), dtype=fld.dtype)).shape == (0,)
        assert empty.express(fld.zeros(3)).shape == (0,)
        with pytest.raises(NotInSpan):
            empty.express(fld.identity(3))
        assert empty.express(np.zeros((2, 3, 3), dtype=fld.dtype)).shape == (2, 0)
        with pytest.raises(NotInSpan):
            empty.express(np.stack([fld.zeros(3), fld.identity(3)]))
        assert np.array_equal(empty.combine([]), fld.zeros(3))
        widened_later = off_probes = stacked_outside = 0
        for _ in range(12):
            n = rng.choice((2, 3))
            basis, ref = WitnessedBasis(fld, n), sequential_basis(fld, n)
            inputs = random_inputs(fld, n, rng, rng.randrange(1, 4 * n * n))
            while inputs:
                k = rng.randrange(1, 6)
                block, inputs = inputs[:k], inputs[k:]
                # a later matrix of the block is nonzero where the basis and
                # the matrices before it are all zero
                used = np.any(basis.mats + block[:1], axis=0)
                for m in block[1:]:
                    widened_later += bool((m.astype(bool) & ~used).any())
                    used |= m.astype(bool)
                want = [ref.add(m) for m in block]
                if len(block) == 1:
                    assert basis.add(block[0]) == want[0]
                else:
                    assert basis.add_block(np.stack(block)).tolist() == want
                assert basis.dim == ref.dim
                assert list(basis._pivots) == ref.pivots
                # the rows are stored on the support: the coordinates some
                # stored matrix uses
                support = np.flatnonzero(np.any(basis.mats, axis=0)) if basis.mats else []
                assert np.array_equal(basis._support, support)
                assert basis._buf.shape[1] == len(support)
                # off the support, alone and added to a member of the span
                off = off_support(fld, n, rng, basis.mats)
                if off.any():
                    off_probes += 1
                    for p in (off, off ^ ref.combine([rng.randrange(fld.order) for _ in range(ref.dim)])):
                        assert p not in ref
                        with pytest.raises(NotInSpan):
                            basis.express(p)
            assert all(np.array_equal(a, b) for a, b in zip(basis.mats, ref.mats, strict=True))
            rows, tf = ref.reduced()
            # the stored rows at full width
            assert np.array_equal(rows[:, basis._support], basis._buf[: basis.dim])
            assert not np.delete(rows, basis._support, axis=1).any()
            # reduced echelon: every pivot column is a unit column
            assert rows.shape == (basis.dim, n * n)
            assert np.array_equal(rows[:, basis._pivots], np.eye(basis.dim, dtype=fld.dtype))
            # the transform times the raw vectors gives the echelon rows
            raw = [m.reshape(-1) for m in basis.mats]
            for row, tf_row in zip(rows, tf):
                assert [int(x) for x in row] == scalar_combination(fld, tf_row, raw)
            probes = [fld.zeros(n), fld.random_matrix(rng, n)]
            probes += [ref.combine([rng.randrange(fld.order) for _ in range(ref.dim)])
                       for _ in range(4)]
            for p in probes:
                if p in ref:
                    assert np.array_equal(basis.express(p), ref.express(p))
                else:
                    with pytest.raises(NotInSpan):
                        basis.express(p)
            # a stack gives its per-matrix results; one matrix outside the
            # span puts the whole stack outside
            members = [p for p in probes if p in ref]
            want = np.array([ref.express(p) for p in members], dtype=fld.dtype)
            assert np.array_equal(basis.express(np.stack(members)), want.reshape(len(members), ref.dim))
            outside = [p for p in probes if p not in ref]
            if outside:
                stacked_outside += 1
                members.insert(len(members) // 2, outside[0])
                with pytest.raises(NotInSpan):
                    basis.express(np.stack(members))
            for _ in range(4):
                coeffs = [rng.randrange(fld.order) for _ in range(basis.dim)]
                assert np.array_equal(basis.combine(coeffs), ref.combine(coeffs))
        assert widened_later and off_probes and stacked_outside


def assert_same_basis(a, b):
    assert a.dim == b.dim
    assert all(np.array_equal(x, y) for x, y in zip(a.mats, b.mats, strict=True))
    assert np.array_equal(a._pivots, b._pivots) and np.array_equal(a._support, b._support)
    assert np.array_equal(a._buf[: a.dim], b._buf[: b.dim])


@pytest.mark.parametrize("degree", [1, 2, 8])
def test_add_block_equals_one_add_per_matrix(degree, sequential_basis):
    # each insertion is one pivot step over the echelon rows and the
    # residuals under them; stacks built to hit every path of that loop
    fld = GF2m(degree)
    rng = random.Random(400 + degree)
    n = 3

    def rand():
        return fld.random_matrix(rng, n)

    def on(entries):
        m = fld.zeros(n)
        for i, j in entries:
            m[i, j] = rng.randrange(1, fld.order)
        return m

    a, b, c = rand(), rand(), rand()
    scaled = fld.mul_vec(a, rng.randrange(1, fld.order))
    stacks = {
        "zero rows": [fld.zeros(n), a, fld.zeros(n), b],
        "duplicate rows": [a, a.copy(), b, a.copy(), b.copy()],
        # nonzero against the prefilled basis, zero once a and b are in
        "turn zero mid-stack": [a, b, a ^ b, scaled, c, fld.mul_vec(b ^ c, 1)],
        # each a new entry of the support, after rows that do not use it
        "support widens mid-stack": [on([(0, 0)]), on([(0, 0), (1, 2)]), on([(2, 1)]), on([(1, 1), (2, 2)])],
        # more independent residuals than the capacity of n rows
        "capacity growth": [rand() for _ in range(n * n + 2)],
    }
    for name, stack in stacks.items():
        for prefill in ([], [fld.identity(n)], [on([(0, 0)]), on([(1, 1)])]):
            blocked, single = WitnessedBasis(fld, n), WitnessedBasis(fld, n)
            ref = sequential_basis(fld, n)
            for m in prefill:
                blocked.add(m), single.add(m), ref.add(m)
            grew = blocked.add_block(np.stack(stack))
            assert grew.tolist() == [single.add(m) for m in stack] == [ref.add(m) for m in stack], name
            assert_same_basis(blocked, single)
            assert list(blocked._pivots) == ref.pivots
            probe = ref.combine([rng.randrange(fld.order) for _ in range(ref.dim)])
            assert np.array_equal(blocked.express(probe), ref.express(probe))
    # the capacity doubled past n rows in one stack
    assert len(blocked._pivbuf) >= n * n > n and blocked.dim == n * n


def test_solve_membership_matches_sequential_kernel(sequential_basis, kernel_reference, monkeypatch):
    # the lowered budget splits the stacked products and the sifts
    monkeypatch.setattr(field, "DOT_BLOCK", 40)
    for degree in (1, 8, 16):
        fld = GF2m(degree)
        rng = random.Random(200 + degree)
        for trial in range(10):
            n = rng.choice((2, 3))
            V, ref = WitnessedBasis(fld, n), sequential_basis(fld, n)
            for m in random_inputs(fld, n, rng, rng.randrange(1, n * n)):
                V.add(m)
                ref.add(m)
            kappas = random_inputs(fld, n, rng, rng.randrange(1, n * n + 3))
            gamma_inv = random_invertible(fld, rng, n)
            products = fld.mat_mul(gamma_inv, np.stack(kappas))
            residuals = [ref.reduce(fld.mat_mul(gamma_inv, k).reshape(-1))[0] for k in kappas]
            want = kernel_reference(residuals, fld)
            if not want:
                with pytest.raises(NoSolution):
                    solve_membership(products, V, fld)
                continue
            kernel = solve_membership(products, V, fld)
            assert kernel.shape == (len(want), len(kappas))
            assert all(np.array_equal(a, b) for a, b in zip(kernel, want))
            # sampling over the kernel's combined stack keeps the draw order:
            # one draw per kernel row per try
            flat = [k.reshape(-1) for k in kappas]
            stack = fld.dot(kernel, np.stack(kappas))
            try:
                c, coeffs, tries = sample_invertible(stack, fld, random.Random(trial))
            except InvertibleSampleFailed:
                continue
            draws = random.Random(trial)
            for _ in range(tries):
                want_coeffs = [draws.randrange(fld.order) for _ in want]
            assert [int(v) for v in coeffs] == want_coeffs
            x = scalar_combination(fld, want_coeffs, want)
            assert [int(v) for v in c.reshape(-1)] == scalar_combination(fld, x, flat)


def test_algebra_closure_identity_only():
    fld = GF2m(3)
    basis = algebra_closure([fld.identity(5)], fld)
    assert basis.dim == 1


def test_algebra_closure_single_matrix_minimal_polynomial():
    fld = GF2m(3)
    rng = random.Random(2)
    for _ in range(10):
        m = fld.random_matrix(rng, 4)
        # oracle: iterate powers I, m, m^2, ... until linearly dependent
        powers = [fld.identity(4)]
        while True:
            nxt = fld.mat_mul(powers[-1], m)
            if rank_oracle(fld, [p.reshape(-1) for p in powers + [nxt]]) == len(powers):
                break
            powers.append(nxt)
        assert algebra_closure([m], fld).dim == len(powers)


def test_algebra_closure_full_matrix_algebra():
    fld = GF2m(2)
    rng = random.Random(3)
    hits = 0
    for _ in range(10):
        gens = [fld.random_matrix(rng, 2) for _ in range(2)]
        dim = algebra_closure(gens, fld).dim
        assert dim == brute_force_algebra_dim(fld, gens)
        hits += dim == 4
    assert hits >= 5  # generic pairs span the whole 2x2 algebra


def test_algebra_closure_is_multiplicatively_closed():
    fld = GF2m(5)
    rng = random.Random(4)
    gens = [fld.random_matrix(rng, 3) for _ in range(2)]
    basis = algebra_closure(gens, fld)
    for a in basis.mats:
        for b in basis.mats:
            coeffs = basis.express(fld.mat_mul(a, b))  # raises NotInSpan on failure
            assert np.array_equal(basis.combine(coeffs), fld.mat_mul(a, b))


def structured_gens(field, n, rng, kind):
    """Generators of a full, triangular, block-diagonal or one-generator
    matrix algebra."""
    mats = [field.random_matrix(rng, n) for _ in range(3)]
    if kind == "triangular":
        return [np.triu(m) for m in mats]
    if kind == "block":
        half = n // 2
        for m in mats:
            m[:half, half:] = 0
            m[half:, :half] = 0
        return mats
    return mats[:1] if kind == "single" else mats[:2]


def assert_drain_matches_reference(closure, gens, drain_reference):
    """The block drain keeps the basis, pivots and recipes of the drain
    that formed and sifted in one product at a time."""
    basis, recipes = drain_reference(gens, closure.basis.field, closure.basis.n)
    assert closure.recipes == recipes
    assert list(closure.basis._pivots) == basis.pivots
    assert all(np.array_equal(a, b) for a, b in zip(closure.basis.mats, basis.mats, strict=True))


@pytest.mark.parametrize("degree", [1, 8, 16])
@pytest.mark.parametrize("kind", ["full", "triangular", "block", "single"])
def test_one_sided_closure_matches_two_sided_reference(
    degree, kind, two_sided_reference, drain_reference, monkeypatch
):
    # the lowered budget splits the stacked products and the sifts
    monkeypatch.setattr(field, "DOT_BLOCK", 200)
    fld = GF2m(degree)
    rng = random.Random(100 * degree + len(kind))
    for n in (2, 3, 5):
        gens = structured_gens(fld, n, rng, kind)
        closure = AlgebraClosure(fld, n)
        for mat in gens:
            closure.add_generator(mat)
        one = closure.basis
        two = two_sided_reference(gens, fld, n)
        assert one.dim == two.dim
        assert in_span(two, np.stack(one.mats)) and in_span(one, np.stack(two.mats))
        assert_drain_matches_reference(closure, gens, drain_reference)


def test_one_sided_closure_matches_two_sided_on_attack_sized_pure_images(
    two_sided_reference, drain_reference
):
    # the pure images one attack collects at the benchmark's sizes:
    # n=12 with 250-letter and n=20 with 24-letter A generators
    for n, word_len in ((12, 250), (20, 24)):
        fld = GF2m(8)
        pub, _, _ = ttp_generate(n, fld, 8, word_len, rng=random.Random(n))
        pure = precompute_pure_basis(pub, random.Random(n + 1))
        gens = [mat for mat, _ in pure.closure.generators]
        two = two_sided_reference(gens, fld, n)
        assert pure.dim == two.dim > len(gens) + 1
        assert in_span(two, np.stack(pure.basis.mats))
        assert in_span(pure.basis, np.stack(two.mats))
        assert_drain_matches_reference(pure.closure, gens, drain_reference)
        # the echelon rows are stored only as wide as the support, which at
        # n=20 is well short of the n^2 coordinates
        basis = pure.basis
        support = np.flatnonzero(np.any(basis.mats, axis=0))
        assert np.array_equal(basis._support, support)
        assert basis._buf.shape[1] == len(support)
        assert n < 20 or len(support) < n * n // 2


@pytest.mark.parametrize("kind", ["full", "triangular", "block", "single"])
def test_batched_rebuild_matches_sequential_replay(kind, rebuild_reference, monkeypatch):
    # a run of products by one generator is one stacked product; the lowered
    # budget splits those products into row blocks
    monkeypatch.setattr(field, "DOT_BLOCK", 200)
    for degree in (1, 8):
        fld = GF2m(degree)
        rng = random.Random(10 * degree + len(kind))
        for n in (2, 3, 5):
            closure = AlgebraClosure(fld, n)
            for mat in structured_gens(fld, n, rng, kind):
                closure.add_generator(mat)
            for images in ([m for m, _ in closure.generators],
                           [fld.random_matrix(rng, n) for _ in closure.generators]):
                got = closure.rebuild(images)
                want = rebuild_reference(closure, images)
                assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def block_diagonal(field, rng, strands, sizes):
    """A matrix with nonzero entries exactly on the blocks: block b holds
    the next sizes[b] strands of the list ``strands``."""
    n = len(strands)
    mat = field.zeros(n)
    start = 0
    for size in sizes:
        block = strands[start : start + size]
        start += size
        for i in block:
            for j in block:
                mat[i, j] = rng.randrange(1, field.order)
    return mat


@pytest.mark.parametrize("dot_block", [None, 200])
@pytest.mark.parametrize("k", [1, 82])
@pytest.mark.parametrize("degree", [1, 8, 16])
@pytest.mark.parametrize("sizes", [
    [1] * 10,  # all singletons
    [10] + [1] * 10,  # wide_attack's V
    [6, 3, 7, 3, 1],  # like kappa on wide_attack
    [5, 1, 1, 1],  # sum of cubes exactly n^3 / 4
    [8],  # dense: the mat_mul fallback
])
def test_block_product_matches_mat_mul(sizes, degree, k, dot_block, monkeypatch):
    if dot_block is not None:  # the lowered budget cuts the stack
        monkeypatch.setattr(field, "DOT_BLOCK", dot_block)
    fld = GF2m(degree)
    n = sum(sizes)
    rng = random.Random(1000 * degree + 10 * n + k)
    strands = list(range(n))
    rng.shuffle(strands)  # the blocks need not be runs of strands
    a = block_diagonal(fld, rng, strands, sizes)
    stack = np.array([block_diagonal(fld, rng, strands, sizes) for _ in range(k)])
    # the products of the stack take any values on the blocks, zero too
    stack[np.random.default_rng(k).random(stack.shape) < 0.3] = 0
    plan = linalg._block_plan(a != 0)
    cubes = sum(size ** 3 for size in sizes)
    assert (plan is None) == (cubes * linalg.BLOCK_CUT > n ** 3)
    assert plan is None or len(plan[0]) == cubes
    dense, terms = [], []
    mat_mul, mul_arr = GF2m.mat_mul, fld.mul_arr
    monkeypatch.setattr(GF2m, "mat_mul", lambda self, x, y: dense.append(1) or mat_mul(self, x, y))
    monkeypatch.setattr(fld, "mul_arr", lambda x, y: terms.append(np.size(x)) or mul_arr(x, y))
    got = linalg._block_mat_mul(fld, plan, a, stack)
    assert len(dense) == (plan is None)
    # the gathers stay within the budget, unless one matrix's terms exceed it
    assert plan is None or max(terms) <= max(field.DOT_BLOCK, cubes)
    want = mat_mul(fld, a, stack)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def companion(field, rng, d):
    """The companion matrix of a random monic polynomial of degree d, whose
    minimal polynomial is that polynomial."""
    mat = field.zeros(d)
    mat[1:, :-1] = field.identity(d - 1)
    mat[:, -1] = [rng.randrange(field.order) for _ in range(d)]
    return mat


@pytest.mark.parametrize("degree", [1, 8])
def test_lone_generator_drain_doubles_powers(degree, drain_reference, monkeypatch):
    passes = []
    add_block = WitnessedBasis.add_block
    monkeypatch.setattr(WitnessedBasis, "add_block", lambda self, mats: passes.append(len(mats)) or add_block(self, mats))
    fld = GF2m(degree)
    rng = random.Random(degree)
    gens = [companion(fld, rng, d) for d in (2, 3, 4, 5, 8, 9, 16, 17)]
    gens += [fld.random_matrix(rng, n) for n in (3, 6, 12)]
    gens += [structured_gens(fld, 8, rng, "block")[0],
             np.diag([v % fld.order for v in (1, 1, 2, 2, 3)]).astype(fld.dtype)]
    for g in gens:
        closure = AlgebraClosure(fld, len(g))
        passes.clear()
        assert closure.add_generator(g)
        d = closure.dim  # the degree of the minimal polynomial of g
        # the first add_block is the generator's own
        assert d >= 2 and len(passes) - 1 <= math.ceil(math.log2(d)) + 1
        assert closure._done == [d]
        assert_drain_matches_reference(closure, [g], drain_reference)


def test_express_matches_inverse_of_pivot_columns():
    # express solves coeffs . raw = vecs on the pivot columns; the pivot
    # entries times the inverse of the raw matrices' pivot columns give the
    # same coefficients, which are unique
    rng = random.Random(17)
    bases = [WitnessedBasis(GF2m(8), 3)]
    for n, word_len in ((12, 250), (20, 24)):
        fld = GF2m(8)
        pub, _, _ = ttp_generate(n, fld, 8, word_len, rng=random.Random(n))
        bases += [precompute_pure_basis(pub, random.Random(n + 1)).basis,
                  algebra_closure(pub.c_gens, fld)]
    for basis in bases:
        fld, n, dim = basis.field, basis.n, basis.dim
        coeffs = np.array([rng.randrange(fld.order) for _ in range(4 * dim)], dtype=fld.dtype)
        coeffs = coeffs.reshape(4, dim)
        stack = np.array([basis.combine(c) for c in coeffs]).reshape(4, n, n)
        raw = np.array(basis.mats, dtype=fld.dtype).reshape(dim, n * n)
        pivots = basis._pivots
        old = fld.dot(stack.reshape(4, n * n)[:, pivots], fld.mat_inv(raw[:, pivots]))
        got = basis.express(stack)
        assert got.shape == (4, dim) and np.array_equal(got, old) and np.array_equal(got, coeffs)
        assert np.array_equal(basis.express(stack[0]), old[0])
    assert bases[0].dim == 0 and max(b.dim for b in bases) == 82


def test_batched_rebuild_on_attack_sized_closures(rebuild_reference, monkeypatch):
    # every closure product, block or dense, goes through _block_mat_mul
    products = []
    block_mat_mul = linalg._block_mat_mul
    monkeypatch.setattr(linalg, "_block_mat_mul", lambda fld, plan, a, b: products.append(
        (b.ndim, len(b), plan is None)) or block_mat_mul(fld, plan, a, b))
    for n, word_len in ((12, 250), (20, 24)):
        fld = GF2m(8)
        rng = random.Random(n)
        pub, _, _ = ttp_generate(n, fld, 8, word_len, rng=rng)
        pure = precompute_pure_basis(pub, random.Random(n + 1))
        products.clear()
        # collected with no twist, the twisted images are the generators,
        # which give the basis back
        got = pure.closure.rebuild(pure.twisted)
        assert all(np.array_equal(a, b) for a, b in zip(got, pure.basis.mats, strict=True))
        # one stacked product per run the drain sifted in, covering every
        # product recipe; the images at n=20 leave strands apart, so their
        # products are block products
        gb = sum(r[0] == "gb" for r in pure.closure.recipes)
        assert all(ndim == 3 for ndim, _, _ in products)
        assert sum(k for _, k, _ in products) == gb and 0 < len(products) < gb
        assert n < 20 or not any(dense for _, _, dense in products)
        images = [fld.random_matrix(rng, n) for _ in pure.closure.generators]
        got = pure.closure.rebuild(images)
        want = rebuild_reference(pure.closure, images)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def make_pure_closure(field, n, rng, gen_count=4, word_len=12):
    """Closure of images of pure braid words, with witnesses."""
    params = EvalParams(field, n, tuple(rng.randrange(2, field.order) for _ in range(n)))
    closure = AlgebraClosure(field, n)
    for _ in range(gen_count):
        w = random_word(n, word_len, rng)
        r = word_perm(w, n).order()
        pure = w.power(r) if r > 1 else w
        closure.add_generator(word_eval_pair(pure, params).mat, pure)
    return params, closure


def test_witness_soundness_through_closure(basis_words):
    fld = GF2m(5)
    rng = random.Random(5)
    params, closure = make_pure_closure(fld, 6, rng)
    basis = closure.basis
    assert basis.dim >= 3
    witnesses = basis_words(closure)
    assert len(witnesses) == basis.dim
    for mat, witness in zip(basis.mats, witnesses):
        got = word_eval_pair(witness, params)
        assert got.perm.is_identity()
        assert np.array_equal(got.mat, mat)


def test_closure_rebuild_matches_direct_twisted_evaluation(basis_words):
    fld = GF2m(5)
    rng = random.Random(6)
    params, closure = make_pure_closure(fld, 6, rng)
    h = Perm.random(6, rng)
    seed = MatPerm(fld.identity(6), h)
    gen_images = [e_multiply(seed, wit, params).mat for _, wit in closure.generators]
    rebuilt = closure.rebuild(gen_images)
    assert len(rebuilt) == closure.dim
    for mat, witness in zip(rebuilt, basis_words(closure)):
        assert np.array_equal(mat, e_multiply(seed, witness, params).mat)


def test_solve_membership_full_space_cases():
    fld = GF2m(4)
    rng = random.Random(7)
    n = 3
    # kappas equal to a basis of span(V): every combination lands inside
    v_basis = algebra_closure([fld.random_matrix(rng, n) for _ in range(2)], fld)
    kernel = solve_membership(np.stack(v_basis.mats), v_basis, fld)
    assert kernel.shape == (len(v_basis.mats), len(v_basis.mats))
    # V the full matrix space: constraints vacuous
    full = WitnessedBasis(fld, n)
    while full.dim < n * n:
        full.add(fld.random_matrix(rng, n))
    kappas = [fld.random_matrix(rng, n) for _ in range(4)]
    gamma_inv = random_invertible(fld, rng, n)
    kernel = solve_membership(fld.mat_mul(gamma_inv, np.stack(kappas)), full, fld)
    assert kernel.shape == (4, 4)


def test_solve_membership_planted_and_sound():
    fld = GF2m(5)
    rng = random.Random(8)
    n = 4
    v_span = algebra_closure([fld.random_matrix(rng, n)], fld)
    kappa_alg = algebra_closure([random_invertible(fld, rng, n)], fld)
    kappas = kappa_alg.mats
    r = len(kappas)
    while True:
        planted_x = np.array([rng.randrange(fld.order) for _ in range(r)], dtype=fld.dtype)
        c = kappa_alg.combine(planted_x)
        if fld.is_invertible(c):
            break
    while True:
        coeffs = [rng.randrange(fld.order) for _ in range(v_span.dim)]
        v = v_span.combine(coeffs)
        if fld.is_invertible(v):
            break
    gamma = fld.mat_mul(c, v)
    gamma_inv = fld.mat_inv(gamma)
    kernel = solve_membership(fld.mat_mul(gamma_inv, np.stack(kappas)), v_span, fld)
    # soundness: every sampled solution satisfies the membership constraint
    for _ in range(25):
        x = fld.dot([rng.randrange(fld.order) for _ in kernel], kernel)
        combo = fld.zeros(n)
        for xi, k in zip(x, kappas):
            combo ^= fld.mul_vec(k, int(xi))
        assert in_span(v_span, fld.mat_mul(gamma_inv, combo))
    # completeness: the planted solution lies in the solution span
    rows = list(kernel)
    assert rank_oracle(fld, rows) == rank_oracle(fld, rows + [planted_x])


def test_solve_membership_no_solution():
    fld = GF2m(4)
    rng = random.Random(9)
    n = 3
    identity_only = algebra_closure([fld.identity(n)], fld)
    kappa = fld.random_matrix(rng, n)
    kappa[0, 1] = 1  # not a scalar matrix, so no combination is in span(I)
    with pytest.raises(NoSolution):
        solve_membership(kappa[None], identity_only, fld)


def test_sample_invertible_singleton():
    fld = GF2m(4)
    c, x, tries = sample_invertible([fld.identity(3)], fld, random.Random(0))
    # the first draw from Random(0) over GF(2^4) is 12: nonzero, so invertible
    assert tries == 1
    assert list(x) == [12]
    assert np.array_equal(c, fld.mul_vec(fld.identity(3), 12))


def test_sample_invertible_all_singular(monkeypatch):
    fld = GF2m(4)
    n = 3
    uppers = []
    for i in range(n):
        for j in range(i + 1, n):
            m = fld.zeros(n)
            m[i, j] = 1
            uppers.append(m)
    monkeypatch.setattr(linalg, "SAMPLE_TRIES", 32)
    with pytest.raises(InvertibleSampleFailed, match="in 32 tries"):
        sample_invertible(uppers, fld, random.Random(1))


def test_sample_invertible_planted_is_quick():
    fld = GF2m(5)
    rng = random.Random(10)
    n = 4
    v_span = algebra_closure([fld.random_matrix(rng, n)], fld)
    kappa_alg = algebra_closure([random_invertible(fld, rng, n)], fld)
    gamma = None
    while gamma is None:
        x = np.array([rng.randrange(fld.order) for _ in range(kappa_alg.dim)], dtype=fld.dtype)
        c = kappa_alg.combine(x)
        if not fld.is_invertible(c):
            continue
        coeffs = [rng.randrange(fld.order) for _ in range(v_span.dim)]
        v = v_span.combine(coeffs)
        if fld.is_invertible(v):
            gamma = fld.mat_mul(c, v)
    products = fld.mat_mul(fld.mat_inv(gamma), np.stack(kappa_alg.mats))
    kernel = solve_membership(products, v_span, fld)
    c, _, tries = sample_invertible(fld.dot(kernel, np.stack(kappa_alg.mats)), fld, rng)
    assert fld.is_invertible(c)
    assert tries <= 16
    assert in_span(v_span, fld.mat_mul(fld.mat_inv(gamma), c))
