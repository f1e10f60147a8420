"""Braid words, their matrix-permutation images, and E-multiplication.

Shows the two evaluation routes agreeing: the streaming engine that
processes one letter with one byte-table translate of a packed column
and two int XORs, and the symbolic colored Burau matrices over Laurent
polynomials (small n only).
"""

import random
import time

import numpy as np

from cbkap import (
    BraidWord,
    EvalParams,
    GF2m,
    MatPerm,
    Perm,
    colored_burau,
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

print("\n== evaluated versus symbolic ==")
n = 4
params = EvalParams(field, n, tuple(rng.randrange(2, 256) for _ in range(n)))
word = random_word(n, 12, rng)
direct = word_eval_pair(word, params)
symbolic, perm = colored_burau(word, n, field)
print(f"random word of 12 letters, perm part {perm!r}")
print("streaming evaluation:")
print(direct.mat)
print("symbolic matrix evaluated at the same point:")
print(symbolic.evaluate(params.tau))
assert np.array_equal(direct.mat, symbolic.evaluate(params.tau))

print("\n== twisting by a start permutation ==")
h = Perm.random(n, rng)
twisted = e_multiply(MatPerm(field.identity(n), h), word, params)
print(f"evaluating from (I, {h!r}) permutes the variables first:")
print(twisted.mat)
assert np.array_equal(twisted.mat, symbolic.evaluate(params.tau, perm=h))

print("\n== one stream, many twists ==")
twists = [Perm.random(n, rng) for _ in range(4)]
stack = e_multiply([MatPerm(field.identity(n), t) for t in twists], word, params)
for t, state in zip(twists, stack):
    assert np.array_equal(state.mat, symbolic.evaluate(params.tau, perm=t))
    assert state.perm == t * perm
print(f"a stack of {len(twists)} states, each with its own twist, streamed the word once")

print("\n== long words stream in constant memory ==")
long_word = random_word(16, 200_000, rng)
big = EvalParams(field, 16, tuple(rng.randrange(2, 256) for _ in range(16)))
t0 = time.perf_counter()
word_eval_pair(long_word, big)
dt = time.perf_counter() - t0
print(f"{len(long_word):,} letters at n=16 in {dt:.2f}s ({len(long_word)/dt:,.0f} letters/s)")
