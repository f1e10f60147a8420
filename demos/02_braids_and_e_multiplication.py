"""Braid words, their matrix-permutation images, and E-multiplication.

Shows the two evaluation routes agreeing: the streaming engine that
processes one letter with one byte-table translate of a packed column
and two int XORs, and the product of the single-letter pair images,
each matrix written out from the colored Burau formula and multiplied
with ``mat_mul``.
"""

import random
import time

from cbkap import (
    BraidWord,
    EvalParams,
    GF2m,
    MatPerm,
    Perm,
    e_multiply,
    free_reduce,
    random_word,
    word_eval_pair,
    word_perm,
)

field = GF2m(8)
rng = random.Random(2)

print("== braid words ==")
w = BraidWord([1, 2, -2, 3, 1])
print(f"word {list(w.letters())} freely reduces to {list(free_reduce(w).letters())}")
print(f"its permutation part on 4 strands: {word_perm(free_reduce(w), 4)!r}")



def letter_matrix(letter, values):
    """The matrix of one letter with t_k set to values[k-1]: the identity
    except row i (the signs vanish in characteristic 2)."""
    m = field.identity(n)
    r = abs(letter) - 1
    if letter > 0:
        m[r, r] = values[r]
        m[r, r + 1] = 1
        if r > 0:
            m[r, r - 1] = values[r]
    else:
        m[r, r] = m[r, r + 1] = field.inv(values[r + 1])
        if r > 0:
            m[r, r - 1] = 1
    return m


def letter_product(word, h):
    """(I, h) times the pair image of each letter, one at a time:
    (A, g)(x, s) = (A . g(x), g s), where g(x) evaluates x at
    t_k -> tau[g^-1(k)]."""
    mat, g = field.identity(n), h
    for letter in word.letters():
        g_inv = g.inverse()
        mat = field.mat_mul(mat, letter_matrix(letter, [params.tau[g_inv(k)] for k in range(n)]))
        g = g * Perm.transposition(n, abs(letter) - 1)
    return MatPerm(mat, g)


print("\n== streamed versus letter by letter ==")
n = 4
params = EvalParams(field, n, tuple(rng.randrange(2, 256) for _ in range(n)))
word = random_word(n, 12, rng)
direct = word_eval_pair(word, params)
product = letter_product(word, Perm.identity(n))
print(f"random word of 12 letters, perm part {product.perm!r}")
print("streaming evaluation:")
print(direct.mat)
print("product of the 12 single-letter matrices:")
print(product.mat)
assert direct == product

print("\n== twisting by a start permutation ==")
h = Perm.random(n, rng)
twisted = e_multiply(MatPerm(field.identity(n), h), word, params)
print(f"evaluating from (I, {h!r}) permutes the variables first:")
print(twisted.mat)
assert twisted == letter_product(word, h)

print("\n== one stream, many twists ==")
twists = [Perm.random(n, rng) for _ in range(4)]
stack = e_multiply([MatPerm(field.identity(n), t) for t in twists], word, params)
for t, state in zip(twists, stack):
    assert state == letter_product(word, t)
print(f"a stack of {len(twists)} states, each with its own twist, streamed the word once")

print("\n== long words stream in constant memory ==")
long_word = random_word(16, 200_000, rng)
big = EvalParams(field, 16, tuple(rng.randrange(2, 256) for _ in range(16)))
t0 = time.perf_counter()
word_eval_pair(long_word, big)
dt = time.perf_counter() - t0
print(f"{len(long_word):,} letters at n=16 in {dt:.2f}s ({len(long_word)/dt:,.0f} letters/s)")
