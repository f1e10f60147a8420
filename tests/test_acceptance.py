"""End-to-end acceptance suite.

One test per criterion, each printing a single pass/fail line (run with
``pytest -s tests/test_acceptance.py`` to see them).  Numbers in asserts
are the pinned tolerances:

1. protocol correctness, 100 small + 10 full-size exchanges, exact;
2. key recovery at small scale, >= 19/20 instances, each under 60 s;
3. key recovery at full scale, >= 3 instances, all exact, each under
   8 CPU hours and 2 GB (actuals reported);
4. invertible-density statistics, 1000 samples from a planted solution
   space, fraction >= 1 - n/|F| - 3 * sqrt(0.06/1000);
5. evaluated/symbolic agreement on 200 random words, exact;
6. algebraic-law property suite, >= 1000 randomized trials per law,
   zero failures;
7. factored-word lengths in the 1e3..1e5 letter range at full scale and
   E-multiplication throughput >= 1e4 letters/s at n = 16.
"""

import math
import random
import time

import numpy as np
import pytest

from cbkap.attack import attack_run
from cbkap.braid import (
    BraidWord,
    EvalParams,
    MatPerm,
    e_multiply,
    random_word,
    word_eval_pair,
)
from cbkap.field import GF2m
from cbkap.linalg import algebra_closure, solve_membership
from cbkap.perm import Perm
from cbkap.protocol import (
    Transcript,
    alice_round,
    bob_round,
    derive_key_alice,
    derive_key_bob,
    ttp_generate,
)

from conftest import colored_burau, left_mul, random_invertible

SMALL = dict(n=8, field_bits=5, gen_count=8, word_len=100)
FULL = dict(n=16, field_bits=8, gen_count=8, word_len=650)


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_exchange(params, seed):
    field = GF2m(params["field_bits"])
    rng = random.Random(seed)
    pub, priv, _ = ttp_generate(
        params["n"], field, params["gen_count"], params["word_len"], rng=rng
    )
    asec, amsg = alice_round(pub, rng)
    bsec, bmsg = bob_round(pub, priv, rng)
    key_a = derive_key_alice(asec, bmsg, pub)
    key_b = derive_key_bob(bsec, amsg, pub)
    return pub, Transcript(amsg, bmsg), key_a, key_b


def test_criterion_1_protocol_correctness():
    agree = 0
    small_runs, full_runs = 100, 10
    for seed in range(small_runs):
        _, _, key_a, key_b = run_exchange(SMALL, 10_000 + seed)
        agree += key_a == key_b
    for seed in range(full_runs):
        _, _, key_a, key_b = run_exchange(FULL, 20_000 + seed)
        agree += key_a == key_b
    total = small_runs + full_runs
    report(1, agree == total, f"{agree}/{total} exchanges derived identical keys")


@pytest.fixture(scope="module")
def full_scale_attacks():
    runs = []
    for seed in range(3):
        pub, transcript, key_a, _ = run_exchange(FULL, 30_000 + seed)
        t0 = time.process_time()
        recovered, stats = attack_run(pub, transcript, random.Random(seed))
        cpu = time.process_time() - t0
        runs.append((recovered == key_a.key, cpu, stats))
    return runs


def test_criterion_2_attack_small_scale():
    recovered = 0
    slowest = 0.0
    for seed in range(20):
        pub, transcript, key_a, _ = run_exchange(SMALL, 40_000 + seed)
        t0 = time.perf_counter()
        key, _ = attack_run(pub, transcript, random.Random(seed))
        slowest = max(slowest, time.perf_counter() - t0)
        recovered += key == key_a.key
    report(
        2,
        recovered >= 19 and slowest < 60.0,
        f"{recovered}/20 exact recoveries, slowest run {slowest:.2f}s (< 60s)",
    )


def test_criterion_3_attack_full_scale(full_scale_attacks):
    all_exact = all(ok for ok, _, _ in full_scale_attacks)
    worst_cpu = max(cpu for _, cpu, _ in full_scale_attacks)
    worst_mem = max(stats.peak_rss_mb for _, _, stats in full_scale_attacks)
    ok = all_exact and worst_cpu < 8 * 3600 and worst_mem < 2048
    report(
        3,
        ok,
        f"{len(full_scale_attacks)}/{len(full_scale_attacks)} exact recoveries, "
        f"worst cpu {worst_cpu:.1f}s (< 28800s), peak rss {worst_mem:.0f} MB (< 2048 MB)",
    )


def test_criterion_4_invertible_density():
    field = GF2m(8)
    n = 16
    rng = random.Random(77)
    samples_per_space = 500
    invertible = 0
    dims = []
    # two planted spaces: a narrow one (V spanned by one matrix algebra)
    # and a wide one (V big enough that every combination is admitted)
    for v_gens in ([field.random_matrix(rng, n)],
                   [field.random_matrix(rng, n), field.random_matrix(rng, n)]):
        v_span = algebra_closure(v_gens, field)
        kappa_alg = algebra_closure([random_invertible(field, rng, n)], field)
        kappas = kappa_alg.mats
        gamma = None
        while gamma is None:
            x = [rng.randrange(field.order) for _ in range(len(kappas))]
            c = kappa_alg.combine(x)
            if not field.is_invertible(c):
                continue
            v = v_span.combine([rng.randrange(field.order) for _ in range(v_span.dim)])
            if field.is_invertible(v):
                gamma = field.mat_mul(c, v)
        products = field.mat_mul(field.mat_inv(gamma), np.stack(kappas))
        kernel = solve_membership(products, v_span, field)
        dims.append(len(kernel))
        for _ in range(samples_per_space):
            x = field.dot([rng.randrange(field.order) for _ in kernel], kernel)
            m = field.zeros(n)
            for xi, k in zip(x, kappas):
                if xi:
                    m ^= field.mul_vec(k, int(xi))
            invertible += field.is_invertible(m)
    samples = 2 * samples_per_space
    fraction = invertible / samples
    threshold = (1 - n / field.order) - 3 * math.sqrt(0.06 / samples)
    report(
        4,
        fraction >= threshold,
        f"invertible fraction {fraction:.4f} >= {threshold:.4f} "
        f"({invertible}/{samples}, space dims {dims})",
    )


def test_criterion_5_oracle_equivalence():
    field = GF2m(8)
    rng = random.Random(55)
    matches = 0
    trials = 200
    for _ in range(trials):
        n = rng.randint(3, 5)
        params = EvalParams(field, n, tuple(rng.randrange(2, field.order) for _ in range(n)))
        w = random_word(n, rng.randrange(26), rng)
        h = Perm.random(n, rng)
        s0 = field.random_matrix(rng, n)
        got = e_multiply(MatPerm(s0, h), w, params)
        sym, g = colored_burau(w, n, field)
        want_mat = field.mat_mul(s0, sym.evaluate(params.tau, perm=h))
        matches += bool(np.array_equal(got.mat, want_mat) and got.perm == h * g)
    report(5, matches == trials, f"{matches}/{trials} words matched the symbolic oracle exactly")


def test_criterion_6_algebraic_laws(small_instance):
    field = GF2m(8)
    rng = random.Random(66)
    trials = 1000
    failures = {}

    n = 10
    params = EvalParams(field, n, tuple(rng.randrange(2, field.order) for _ in range(n)))
    bad = 0
    for _ in range(trials):
        omega = MatPerm(field.random_matrix(rng, n), Perm.random(n, rng))
        i = rng.randrange(1, n - 1)
        if rng.random() < 0.5:
            j = i + 1
            lhs = e_multiply(omega, BraidWord([i, j, i]), params)
            rhs = e_multiply(omega, BraidWord([j, i, j]), params)
        else:
            j = rng.choice([x for x in range(1, n) if abs(x - i) >= 2])
            si, sj = rng.choice((1, -1)), rng.choice((1, -1))
            lhs = e_multiply(omega, BraidWord([si * i, sj * j]), params)
            rhs = e_multiply(omega, BraidWord([sj * j, si * i]), params)
        bad += lhs != rhs
    failures["braid relations"] = bad

    bad = 0
    for _ in range(trials):
        omega = MatPerm(field.random_matrix(rng, n), Perm.random(n, rng))
        u = random_word(n, rng.randrange(20), rng)
        v = random_word(n, rng.randrange(20), rng)
        bad += e_multiply(e_multiply(omega, u, params), v, params) != e_multiply(
            omega, u + v, params
        )
    failures["right action"] = bad

    bad = 0
    for _ in range(trials):
        omega = MatPerm(field.random_matrix(rng, n), Perm.random(n, rng))
        x = field.random_matrix(rng, n)
        w = random_word(n, rng.randrange(15), rng)
        bad += e_multiply(left_mul(field, x, omega), w, params) != left_mul(
            field, x, e_multiply(omega, w, params)
        )
    failures["mixed action"] = bad

    bad = 0
    for _ in range(trials):
        s = field.random_matrix(rng, n)
        terms = [(rng.randrange(field.order), field.random_matrix(rng, n)) for _ in range(3)]
        x = field.zeros(n)
        want = field.zeros(n)
        for l, c in terms:
            x ^= field.mul_vec(c, l)
            want ^= field.mul_vec(field.mat_mul(c, s), l)
        bad += not np.array_equal(field.mat_mul(x, s), want)
    failures["scaling linearity"] = bad

    small_pub, small_priv, _ = small_instance
    small_field = small_pub.params.field
    dn = small_pub.params.n
    bad = 0
    for _ in range(trials):
        omega = MatPerm(small_field.random_matrix(rng, dn), Perm.random(dn, rng))
        u = BraidWord.concat(
            *(small_pub.a_gens[rng.randrange(len(small_pub.a_gens))] for _ in range(rng.randint(1, 2)))
        )
        v = BraidWord.concat(
            *(small_priv.b_gens[rng.randrange(len(small_priv.b_gens))] for _ in range(rng.randint(1, 2)))
        )
        p = small_pub.params
        bad += e_multiply(e_multiply(omega, u, p), v, p) != e_multiply(
            e_multiply(omega, v, p), u, p
        )
    failures["star commuting"] = bad

    c_basis = algebra_closure(small_pub.c_gens, small_field)
    d_basis = algebra_closure(small_priv.d_gens, small_field)
    bad = 0
    for _ in range(trials):
        c = c_basis.combine([rng.randrange(small_field.order) for _ in range(c_basis.dim)])
        d = d_basis.combine([rng.randrange(small_field.order) for _ in range(d_basis.dim)])
        bad += not np.array_equal(small_field.mat_mul(c, d), small_field.mat_mul(d, c))
    failures["C/D commuting"] = bad

    total_bad = sum(failures.values())
    report(
        6,
        total_bad == 0,
        f"0 failures target over {trials} trials per law; got "
        + ", ".join(f"{k}={v}" for k, v in failures.items()),
    )


def test_criterion_7_word_lengths_and_throughput(full_scale_attacks):
    lengths = [stats.factor_letters for _, _, stats in full_scale_attacks]
    in_range = all(1_000 <= length <= 100_000 for length in lengths)

    field = GF2m(8)
    rng = random.Random(88)
    params = EvalParams(field, 16, tuple(rng.randrange(2, 256) for _ in range(16)))
    word = random_word(16, 100_000, rng)
    t0 = time.perf_counter()
    word_eval_pair(word, params)
    rate = len(word) / (time.perf_counter() - t0)
    report(
        7,
        in_range and rate >= 10_000,
        f"factored word letters {lengths} within [1e3, 1e5]; "
        f"throughput {rate:,.0f} letters/s (>= 10,000)",
    )
