import random

import numpy as np
import pytest

from cbkap.braid import EvalParams, MatPerm, e_multiply, random_word, word_eval_pair, word_perm
from cbkap.field import GF2m
from cbkap.linalg import (
    AlgebraClosure,
    InvertibleSampleFailed,
    NoSolution,
    NotInSpan,
    SolutionSpace,
    WitnessedBasis,
    algebra_closure,
    sample_invertible,
    solve_membership,
)
from cbkap.perm import Perm


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
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x ^ field.mul(f, y) for x, y in zip(rows[r], rows[rank])]
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
    space = solve_membership(fld.identity(n), v_basis.mats, v_basis, fld)
    assert len(space.homogeneous) == len(v_basis.mats)
    # V the full matrix space: constraints vacuous
    full = WitnessedBasis(fld, n)
    while full.dim < n * n:
        full.add(fld.random_matrix(rng, n))
    kappas = [fld.random_matrix(rng, n) for _ in range(4)]
    space = solve_membership(fld.random_invertible(rng, n), kappas, full, fld)
    assert len(space.homogeneous) == 4


def test_solve_membership_planted_and_sound():
    fld = GF2m(5)
    rng = random.Random(8)
    n = 4
    v_span = algebra_closure([fld.random_matrix(rng, n)], fld)
    kappa_alg = algebra_closure([fld.random_invertible(rng, n)], fld)
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
    space = solve_membership(gamma_inv, kappas, v_span, fld)
    # soundness: every sampled solution satisfies the membership constraint
    for _ in range(25):
        x = space.sample(fld, rng)
        combo = fld.zeros(n)
        for xi, k in zip(x, kappas):
            combo ^= fld.mul_vec(k, int(xi))
        assert fld.mat_mul(gamma_inv, combo) in v_span
    # completeness: the planted solution lies in the solution span
    rows = [h.copy() for h in space.homogeneous]
    assert rank_oracle(fld, rows) == rank_oracle(fld, rows + [planted_x])


def test_solve_membership_no_solution():
    fld = GF2m(4)
    rng = random.Random(9)
    n = 3
    identity_only = algebra_closure([fld.identity(n)], fld)
    kappa = fld.random_matrix(rng, n)
    kappa[0, 1] = 1  # not a scalar matrix, so no combination is in span(I)
    with pytest.raises(NoSolution):
        solve_membership(fld.identity(n), [kappa], identity_only, fld)


def test_sample_invertible_singleton():
    fld = GF2m(4)
    space = SolutionSpace(homogeneous=[np.array([1], dtype=fld.dtype)])
    c, x, tries = sample_invertible(space, [fld.identity(3)], fld, random.Random(0))
    # the first draw from Random(0) over GF(2^4) is 12: nonzero, so invertible
    assert tries == 1
    assert list(x) == [12]
    assert np.array_equal(c, fld.mul_vec(fld.identity(3), 12))


def test_sample_invertible_all_singular():
    fld = GF2m(4)
    n = 3
    uppers = []
    for i in range(n):
        for j in range(i + 1, n):
            m = fld.zeros(n)
            m[i, j] = 1
            uppers.append(m)
    space = SolutionSpace(
        homogeneous=[np.eye(len(uppers), dtype=fld.dtype)[k] for k in range(len(uppers))]
    )
    with pytest.raises(InvertibleSampleFailed):
        sample_invertible(space, uppers, fld, random.Random(1), max_tries=32)


def test_sample_invertible_planted_is_quick():
    fld = GF2m(5)
    rng = random.Random(10)
    n = 4
    v_span = algebra_closure([fld.random_matrix(rng, n)], fld)
    kappa_alg = algebra_closure([fld.random_invertible(rng, n)], fld)
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
    space = solve_membership(fld.mat_inv(gamma), kappa_alg.mats, v_span, fld)
    c, x, tries = sample_invertible(space, kappa_alg.mats, fld, rng)
    assert fld.is_invertible(c)
    assert tries <= 16
    assert fld.mat_mul(fld.mat_inv(gamma), c) in v_span
