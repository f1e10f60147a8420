import random
import sys

import numpy as np
import pytest

from cbkap.braid import (
    BraidWord,
    ConjugateForm,
    EvalParams,
    MatPerm,
    e_multiply,
    free_reduce,
    random_word,
    word_eval_pair,
    word_perm,
)
from cbkap.field import GF2m
from cbkap.perm import Perm
from cbkap.formats import word_from_json
from cbkap.protocol import MAX_WORD_LETTERS, InstancePublic, ttp_generate

from conftest import colored_burau, left_mul


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


def random_tree(n, rng, depth):
    """A random word mixing letters, shared subwords, repetitions and
    inverses."""
    w = random_word(n, rng.randrange(5), rng)
    for _ in range(rng.randrange(4) if depth else 0):
        sub = random_tree(n, rng, depth - 1)
        kind = rng.randrange(3)
        if kind == 0:
            sub = sub.power(rng.randint(1, 5))
        elif kind == 1:
            sub = sub.inverse()
        w = w + sub if rng.random() < 0.5 else sub + w
    return w


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
    # nested trees against the letter-streamed oracle
    rng = random.Random(11)
    for n in (2, 5, 8):
        for _ in range(60):
            w = random_tree(n, rng, 3)
            expect = Perm.identity(n)
            for x in w.letters():
                expect = expect * Perm.transposition(n, abs(x) - 1)
            assert word_perm(w, n) == expect
    # a repetition is never expanded, and its body is still range-checked
    huge = BraidWord([1]).power(10**12)
    assert word_perm(huge, 3).is_identity()
    assert word_perm(huge + BraidWord([1]).power(10**12 + 1), 3) == Perm.transposition(3, 0)
    # an instance takes generator words up to the letter cap (longer ones
    # are refused, see test_attack.py)
    fld = GF2m(4)
    at_cap = BraidWord([1]).power(MAX_WORD_LETTERS)
    pub = InstancePublic(params_for(fld, 3, rng), [at_cap], [fld.identity(3)])
    assert pub.a_perms == [Perm.identity(3)]
    with pytest.raises(ValueError):
        word_perm(BraidWord([1, 3]).power(10**12), 3)


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
    # stacks: the empty word keeps every state, an empty stack stays empty
    states = [MatPerm(fld.random_matrix(rng, 8), Perm.random(8, rng)) for _ in range(3)]
    assert e_multiply(states, BraidWord(), params) == states
    assert e_multiply([], random_word(8, 10, rng), params) == []
    one = e_multiply(states[0], BraidWord([1]), params)
    assert e_multiply(states[:1], BraidWord([1]), params) == [one]


def test_e_multiply_letter_range():
    fld = GF2m(2)
    params = params_for(fld, 4, random.Random(2))
    with pytest.raises(ValueError):
        word_eval_pair(BraidWord([5]), params)
    states = [MatPerm(fld.identity(4), Perm.random(4, random.Random(3))) for _ in range(2)]
    with pytest.raises(ValueError):
        e_multiply(states, BraidWord([1, -4]), params)
    with pytest.raises(ValueError):
        e_multiply(states + [MatPerm(fld.identity(3), Perm.identity(3))], BraidWord([1]), params)


def test_stacked_e_multiply_matches_single_states():
    rng = random.Random(12)
    for fld in (GF2m(2), GF2m(8), GF2m(16)):
        for n in (3, 5, 8):
            params = params_for(fld, n, rng)
            for size in (1, 2, 5):
                for distinct in (False, True):
                    h = Perm.random(n, rng)
                    states = [
                        MatPerm(fld.random_matrix(rng, n), Perm.random(n, rng) if distinct else h)
                        for _ in range(size)
                    ]
                    kept = [MatPerm(s.mat.copy(), s.perm) for s in states]
                    w = random_word(n, rng.randrange(1, 30), rng)
                    got = e_multiply(states, w, params)
                    assert states == kept  # the inputs are not modified
                    assert got == [e_multiply(s, w, params) for s in states]
                    # the symbolic oracle: S_b times the word twisted by h_b
                    sym, g = colored_burau(w, n, fld)
                    for s, out in zip(states, got):
                        assert out.perm == s.perm * g
                        want = fld.mat_mul(s.mat, sym.evaluate(params.tau, perm=s.perm))
                        assert np.array_equal(out.mat, want)


def test_e_multiply_matches_reference_engine(reference_engine):
    # the compiled letter programs against the per-letter numpy engine:
    # fields of one and two byte planes, stacks of 1 to 13 states whose
    # twists are all equal, all distinct or in runs, and every kind of word
    # node, empty leaves, letters beside subwords and one-letter subwords
    # included
    rng = random.Random(90)
    for m, n in ((1, 4), (5, 5), (8, 12), (9, 5), (16, 6)):
        fld = GF2m(m)
        params = EvalParams(fld, n, tuple(rng.randrange(1, fld.order) for _ in range(n)))
        a, b = random_word(n, 30, rng), random_word(n, 7, rng)
        words = {
            "flat": a,
            "nested": BraidWord.concat(a, b + BraidWord([1, -1]), a.inverse()),
            "powered": (b.power(3) + a).power(2) + b,
            "inverted": (a + b.power(3)).inverse(),
            "empty": BraidWord(),
            "empty leaves": word_from_json([[], letters(b), {"body": [], "count": 4}, [[], letters(a)]]),
            "mixed node": word_from_json([1, letters(b), -1, {"body": letters(a), "count": 2}, 2]),
            "one-letter subword": word_from_json([1, [2], -1]),
        }
        for size in (1, 2, 5, 13):
            h, g = Perm.random(n, rng), Perm.random(n, rng)
            twists = {
                "same": [h] * size,
                "distinct": [Perm.random(n, rng) for _ in range(size)],
                "runs": [g if i % 3 == 2 else h for i in range(size)],  # h, h, g, h, ...
            }
            for kind, perms in twists.items():
                # entries of a wider integer dtype are accepted as field elements
                dtype = np.int64 if kind == "runs" else fld.dtype
                states = [MatPerm(fld.random_matrix(rng, n).astype(dtype), t) for t in perms]
                kept = [MatPerm(s.mat.copy(), s.perm) for s in states]
                for name, w in words.items():
                    got = e_multiply(states, w, params)
                    assert got == reference_engine(states, w, params), (m, size, kind, name)
                    assert all(out.mat.dtype == fld.dtype for out in got)
                    assert states == kept and all(s.mat.dtype == dtype for s in states)
                one = e_multiply(states[0], words["nested"], params)
                assert one == reference_engine(states[0], words["nested"], params)


def test_letter_programs_follow_the_strand_count(reference_engine):
    # one leaf object, shared by words streamed at alternating strand
    # counts: its program is compiled for the count it streams at, in
    # bytes up to 128 strands and in array("H") past them
    rng = random.Random(91)
    fld = GF2m(8)
    leaf = random_word(5, 40, rng)
    for n in (6, 9, 6, 12, 9, 129, 200, 9):
        params = params_for(fld, n, rng)
        w = BraidWord.concat(random_word(n, 5, rng), leaf, leaf.inverse().power(2), leaf)
        for states in ([MatPerm(fld.random_matrix(rng, n), Perm.random(n, rng))],
                       [MatPerm(fld.random_matrix(rng, n), Perm.random(n, rng)) for _ in range(3)]):
            assert e_multiply(states, w, params) == reference_engine(states, w, params), n
        assert leaf._program[0] == n


def test_letter_programs_check_the_range():
    fld = GF2m(8)
    rng = random.Random(92)
    small, large = params_for(fld, 5, rng), params_for(fld, 8, rng)
    start = MatPerm(fld.random_matrix(rng, 5), Perm.random(5, rng))
    # a letter out of range in a later leaf, after earlier leaves streamed
    for bad in (5, -5, 7):
        w = BraidWord.concat(random_word(5, 20, rng), BraidWord([1, bad, 2]))
        with pytest.raises(ValueError, match="out of range"):
            e_multiply(start, w, small)
    # a leaf compiled at a larger n is compiled again, and refused, at a smaller one
    leaf = BraidWord([1, 6, -2, 7])
    word_eval_pair(leaf, large)
    with pytest.raises(ValueError, match="out of range"):
        e_multiply(start, leaf, small)
    with pytest.raises(ValueError, match="out of range"):
        e_multiply([start, start], BraidWord.concat(BraidWord([2]), leaf), small)


def test_letter_program_does_not_outweigh_its_word():
    # at most 8 bytes per letter, and no more than the leaf's own parts
    rng = random.Random(93)
    fld = GF2m(8)
    for n in (12, 28):
        leaf = random_word(n, MAX_WORD_LETTERS, rng)
        word_eval_pair(leaf, params_for(fld, n, rng))
        program = leaf._program
        size = sys.getsizeof(program) + sum(map(sys.getsizeof, program))
        assert size <= 8 * len(leaf) and size <= sys.getsizeof(leaf._parts), (n, size)


def test_e_multiply_refuses_non_field_entries():
    # packed bytes would truncate 300 to its low byte and map 40 through
    # the padding of a 5-bit field's tables, both without an error
    e = Perm.identity(4)
    cases = ((GF2m(8), 300, np.int64), (GF2m(5), 40, np.uint8), (GF2m(5), -1, np.int64))
    for fld, value, dtype in cases:
        params = params_for(fld, 4, random.Random(4))
        mat = fld.identity(4).astype(dtype)
        mat[1, 2] = value
        for start in (MatPerm(mat, e), [MatPerm(fld.identity(4), e), MatPerm(mat, e)]):
            with pytest.raises(ValueError, match="field elements"):
                e_multiply(start, BraidWord([1, 2, -3]), params)
    for dtype in (np.float64, np.bool_):
        with pytest.raises(ValueError, match="integers"):
            e_multiply(MatPerm(fld.identity(4).astype(dtype), e), BraidWord([1]), params)


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


def signed_words(gens):
    return [w for g in gens for w in (g, g.inverse())]


def assert_decomposes(form, gens):
    """Every signed generator is P, its core and P^-1 letter for letter,
    P no longer than half the shortest generator."""
    signed = signed_words(gens)
    p = letters(form.prefix)
    assert letters(form.suffix) == [-x for x in reversed(p)]
    assert 2 * len(p) <= min(map(len, signed), default=0)
    for j, w in enumerate(signed):
        assert p + letters(form.core(j)) + letters(form.suffix) == letters(w)


@pytest.mark.parametrize("n, word_len, seed", [(8, 100, 0), (12, 250, 1), (20, 24, 2)])
def test_conjugate_form_of_generated_sets(n, word_len, seed):
    # A and B generators are z u z^-1, freely reduced: P is what reduction
    # left of z, and no longer prefix is shared by every signed generator
    pub, priv, debug = ttp_generate(n, GF2m(8), 8, word_len, rng=random.Random(seed))
    z = letters(free_reduce(debug.conjugator))
    for gens, form in ((pub.a_gens, pub.a_form), (priv.b_gens, priv.b_form)):
        assert_decomposes(form, gens)
        p = len(form.prefix)
        assert 0 < p and letters(form.prefix)[: len(z)] == z[:p]
        assert len({letters(w)[p] for w in signed_words(gens)}) > 1
    assert pub.a_form is pub.a_form and priv.b_form is priv.b_form  # built once


def test_conjugate_form_without_shared_conjugator():
    gens = [BraidWord([1, 2, 3]), BraidWord([2, 1]), random_word(6, 40, random.Random(3))]
    form = ConjugateForm(gens)
    assert len(form.prefix) == 0 and len(form) == 3
    assert all(form.core(2 * k) is g for k, g in enumerate(gens))
    assert_decomposes(form, gens)
    # a repetition-compressed word stays compressed: its core is the
    # stored object, its inverse a repetition of the inverted body
    w = BraidWord([1, 2]).power(65536)
    form = ConjugateForm([w, BraidWord([-2, 1, 2])])
    assert len(form.prefix) == 0 and form.core(0) is w
    assert len(form.core(1)._parts) == 1 and len(form.core(1)) == len(w)
    product = form.product([(0, 1), (0, 1)])
    assert product._parts == (w, w) and len(product) == 2 * len(w)


def test_conjugate_form_of_tree_words():
    # words that are not flat are read through the tree, as far as P goes
    z = BraidWord([4, 5, -3])
    gens = [BraidWord.concat(z, BraidWord([1, 2]).power(100), z.inverse()), z + BraidWord([3]) + -z]
    form = ConjugateForm(gens)
    assert letters(form.prefix) == [4, 5, -3]
    assert_decomposes(form, gens)
    decoded = [word_from_json([[4], {"body": [1], "count": 3}, [-4]]), word_from_json([4, 3, -4])]
    form = ConjugateForm(decoded)
    assert letters(form.prefix) == [4]
    assert_decomposes(form, decoded)
    rng = random.Random(4)
    for _ in range(30):
        trees = [random_tree(6, rng, 2) for _ in range(rng.randint(1, 3))]
        for gens in (trees, [t.inverse() for t in trees]):
            assert_decomposes(ConjugateForm(gens), gens)


@pytest.mark.parametrize("gens, prefix", [
    ([BraidWord([1, -1])], [1]),  # unreduced: P would overlap P^-1 without the cap
    ([BraidWord([1, 2, -2, -1])], [1, 2]),
    ([BraidWord([1, 2, -1]), BraidWord([1, -1])], [1]),
    ([BraidWord([2]), BraidWord([2, 5, -2])], []),  # a single letter: half of it is empty
    ([BraidWord([3]), BraidWord([3])], []),
    ([BraidWord(), BraidWord([1, 2, -1])], []),
    ([], []),
])
def test_conjugate_form_is_capped_at_half_the_shortest_word(gens, prefix):
    form = ConjugateForm(gens)
    assert letters(form.prefix) == prefix
    assert_decomposes(form, gens)


def plain_product(gens, gen_word):
    return BraidWord.concat(*(gens[k] if e > 0 else gens[k].inverse() for k, e in gen_word))


def test_conjugate_form_products_match_plain_concatenation():
    rng = random.Random(5)
    fld = GF2m(5)
    pub, _, _ = ttp_generate(8, fld, 4, 60, rng=rng)
    sets = [pub.a_gens, [random_word(8, rng.randint(1, 12), rng) for _ in range(3)]]
    for gens in sets:
        form = ConjugateForm(gens)
        p = len(form.prefix)
        gen_words = [[], [(0, 1), (0, -1)], [(1, -1), (2, 1), (2, -1), (1, 1)], [(0, 1)]]
        for _ in range(40):
            word = [(rng.randrange(len(gens)), rng.choice((1, -1))) for _ in range(rng.randint(1, 10))]
            at = rng.randrange(len(word) + 1)  # an adjacent inverse pair somewhere
            k = rng.randrange(len(gens))
            gen_words.append(word[:at] + [(k, 1), (k, -1)][:: rng.choice((1, -1))] + word[at:])
            gen_words.append(word)
        for gen_word in gen_words:
            got, plain = form.product(gen_word), plain_product(gens, gen_word)
            assert word_perm(got, 8) == word_perm(plain, 8)
            states = [MatPerm(fld.random_matrix(rng, 8), Perm.random(8, rng)) for _ in range(3)]
            assert e_multiply(states, got, pub.params) == e_multiply(states, plain, pub.params)
            assert len(got) <= len(plain)
        # without cancelling pairs, P and P^-1 drop out at every junction
        word = [(0, 1), (1, 1), (0, -1)]
        assert len(form.product(word)) == len(plain_product(gens, word)) - 4 * p
    assert len(ConjugateForm(pub.a_gens).product([(3, 1), (3, -1)])) == 0
