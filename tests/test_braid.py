import random

import numpy as np
import pytest

from cbkap.braid import (
    BraidWord,
    EvalParams,
    MatPerm,
    colored_burau,
    e_multiply,
    free_reduce,
    left_mul,
    random_word,
    word_eval_pair,
    word_perm,
)
from cbkap.field import GF2m
from cbkap.perm import Perm


def params_for(field, n, rng):
    return EvalParams(field, n, tuple(rng.randrange(2, field.order) for _ in range(n)))


def letters(word):
    return list(word.letters())


def test_free_reduce():
    assert letters(free_reduce(BraidWord([1, -1]))) == []
    assert letters(free_reduce(BraidWord([1, 2, -2, -1]))) == []
    assert letters(free_reduce(BraidWord([1, 2, 1]))) == [1, 2, 1]
    assert letters(free_reduce(BraidWord([3, -2, 2, 1, -1, -3, 2]))) == [2]


def test_word_structure():
    w = BraidWord([1, 2])
    v = BraidWord([-2])
    c = w + v
    assert letters(c) == [1, 2, -2]
    assert len(c) == 3
    p = w.power(3)
    assert letters(p) == [1, 2] * 3
    assert len(p) == 6
    assert letters(p.inverse()) == [-2, -1] * 3
    assert letters(BraidWord.concat(w, v, w)) == [1, 2, -2, 1, 2]
    with pytest.raises(ValueError):
        BraidWord([0])
    with pytest.raises(ValueError):
        w.power(0)


def test_repetition_streams_without_expansion():
    body = BraidWord([1, -2, 1])
    reps = body.power(4) + BraidWord([2])
    assert letters(reps) == [1, -2, 1] * 4 + [2]
    rng = random.Random(0)
    w = random_word(6, 40, rng)
    assert letters(w.power(3)) == letters(w) * 3


def test_word_perm():
    n = 6
    assert word_perm(BraidWord(), n).is_identity()
    for i in range(1, n):
        assert word_perm(BraidWord([i]), n) == Perm.transposition(n, i - 1)
        assert word_perm(BraidWord([-i]), n) == Perm.transposition(n, i - 1)
    # full descending pass, against the pointwise composition oracle
    expect = Perm.identity(n)
    for i in range(1, n):
        expect = expect * Perm.transposition(n, i - 1)
    assert word_perm(BraidWord(range(1, n)), n) == expect
    with pytest.raises(ValueError):
        word_perm(BraidWord([n]), n)


def test_eval_params_validation():
    fld = GF2m(3)
    with pytest.raises(ValueError):
        EvalParams(fld, 4, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        EvalParams(fld, 4, (1, 2, 3))


def test_e_multiply_empty_and_inverse():
    fld = GF2m(5)
    rng = random.Random(1)
    params = params_for(fld, 8, rng)
    omega = MatPerm(fld.random_matrix(rng, 8), Perm.random(8, rng))
    assert e_multiply(omega, BraidWord(), params) == omega
    for _ in range(25):
        w = random_word(8, rng.randrange(31), rng)
        assert e_multiply(e_multiply(omega, w, params), w.inverse(), params) == omega


def test_e_multiply_letter_range():
    fld = GF2m(2)
    params = params_for(fld, 4, random.Random(2))
    with pytest.raises(ValueError):
        word_eval_pair(BraidWord([5]), params)


def test_right_action_law():
    fld = GF2m(5)
    rng = random.Random(3)
    params = params_for(fld, 8, rng)
    for _ in range(50):
        omega = MatPerm(fld.random_matrix(rng, 8), Perm.random(8, rng))
        u = random_word(8, rng.randrange(25), rng)
        v = random_word(8, rng.randrange(25), rng)
        assert e_multiply(e_multiply(omega, u, params), v, params) == e_multiply(
            omega, u + v, params
        )


def test_mixed_left_action_law():
    fld = GF2m(5)
    rng = random.Random(4)
    params = params_for(fld, 6, rng)
    for _ in range(50):
        omega = MatPerm(fld.random_matrix(rng, 6), Perm.random(6, rng))
        x = fld.random_matrix(rng, 6)
        w = random_word(6, rng.randrange(20), rng)
        assert e_multiply(left_mul(fld, x, omega), w, params) == left_mul(
            fld, x, e_multiply(omega, w, params)
        )


def test_left_action_linearity():
    fld = GF2m(5)
    rng = random.Random(5)
    n = 6
    for _ in range(50):
        s = fld.random_matrix(rng, n)
        cs = [fld.random_matrix(rng, n) for _ in range(3)]
        ls = [rng.randrange(fld.order) for _ in range(3)]
        x = fld.zeros(n)
        for l, c in zip(ls, cs):
            x ^= fld.mul_vec(c, l)
        want = fld.zeros(n)
        for l, c in zip(ls, cs):
            want ^= fld.mul_vec(fld.mat_mul(c, s), l)
        assert np.array_equal(fld.mat_mul(x, s), want)


def test_braid_relations_evaluated():
    fld = GF2m(8)
    rng = random.Random(6)
    params = params_for(fld, 10, rng)
    for _ in range(100):
        omega = MatPerm(fld.random_matrix(rng, 10), Perm.random(10, rng))
        i = rng.randrange(1, 9)
        j = rng.randrange(1, 9)
        si = rng.choice((1, -1))
        if abs(i - j) >= 2:
            a = e_multiply(omega, BraidWord([si * i, j]), params)
            b = e_multiply(omega, BraidWord([j, si * i]), params)
        else:
            j = i + 1 if i < 9 else i - 1
            a = e_multiply(omega, BraidWord([i, j, i]), params)
            b = e_multiply(omega, BraidWord([j, i, j]), params)
        assert a == b


def test_colored_burau_basics():
    fld = GF2m(4)
    n = 5
    ident, e = colored_burau(BraidWord(), n, fld)
    for i in range(1, n):
        m, p = colored_burau(BraidWord([i]), n, fld)
        assert p == Perm.transposition(n, i - 1)
        # identity except row i
        for r in range(n):
            if r != i - 1:
                assert m.entries[r] == ident.entries[r]
        both, q = colored_burau(BraidWord([i, -i]), n, fld)
        assert both == ident and q.is_identity()
        other, q2 = colored_burau(BraidWord([-i, i]), n, fld)
        assert other == ident and q2.is_identity()
    with pytest.raises(ValueError):
        colored_burau(BraidWord([1]), 9, fld)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_braid_relations_symbolic(n):
    fld = GF2m(2)
    for i in range(1, n - 1):
        a, pa = colored_burau(BraidWord([i, i + 1, i]), n, fld)
        b, pb = colored_burau(BraidWord([i + 1, i, i + 1]), n, fld)
        assert a == b and pa == pb
    for i in range(1, n):
        for j in range(i + 2, n):
            a, pa = colored_burau(BraidWord([i, j]), n, fld)
            b, pb = colored_burau(BraidWord([j, i]), n, fld)
            assert a == b and pa == pb


def test_evaluated_matches_symbolic_oracle():
    rng = random.Random(7)
    for fld in (GF2m(8), GF2m(16)):
        for trial in range(60):
            n = rng.randint(3, 5)
            params = params_for(fld, n, rng)
            w = random_word(n, rng.randrange(26), rng)
            h = Perm.random(n, rng)
            s0 = fld.random_matrix(rng, n)
            got = e_multiply(MatPerm(s0, h), w, params)
            sym, g = colored_burau(w, n, fld)
            twisted = sym.evaluate(params.tau, perm=h)
            assert np.array_equal(got.mat, fld.mat_mul(s0, twisted)), (fld, trial)
            assert got.perm == h * g, (fld, trial)
            assert word_perm(w, n) == g, (fld, trial)


def test_word_eval_invertible_on_long_words():
    fld = GF2m(5)
    rng = random.Random(8)
    params = params_for(fld, 8, rng)
    for _ in range(5):
        w = random_word(8, 1000, rng)
        assert fld.is_invertible(word_eval_pair(w, params).mat)
