import inspect
import random

import numpy as np
import pytest

import cbkap.attack as attack_mod
from cbkap.attack import (
    AttackConfig,
    AttackFailed,
    GNotExpressible,
    PureElementSearchExhausted,
    attack_run,
    extend_pure_basis,
    factor_permutation,
    precompute_pure_basis,
    recover_key,
    solve_scale,
    split_pure_part,
    verify_reconstruction,
    AttackArtifacts,
)
from cbkap.braid import MatPerm, e_multiply, word_eval_pair, word_perm
from cbkap.field import GF2m
from cbkap.linalg import algebra_closure
from cbkap.perm import Perm
from cbkap.protocol import (
    InstancePublic,
    Transcript,
    alice_round,
    bob_round,
    derive_key_alice,
    ttp_generate,
)


def fresh_exchange(pub, priv, seed):
    rng = random.Random(seed)
    asec, amsg = alice_round(pub, rng)
    bsec, bmsg = bob_round(pub, priv, rng)
    key = derive_key_alice(asec, bmsg, pub)
    return asec, Transcript(amsg, bmsg), key


def test_attack_module_is_blinded():
    source = inspect.getsource(attack_mod)
    for token in ("InstancePrivate", "b_gens", "d_gens"):
        assert token not in source


def test_pure_basis_witnesses_are_pure(small_instance, basis_words):
    pub, _, _ = small_instance
    pure = precompute_pure_basis(pub, random.Random(0))
    assert pure.dim >= 2
    assert pure.candidates >= 1
    basis = pure.basis
    witnesses = basis_words(pure.closure)
    assert len(witnesses) == basis.dim
    for mat, witness in zip(basis.mats, witnesses):
        assert word_perm(witness, pub.params.n).is_identity()
        got = word_eval_pair(witness, pub.params)
        assert got.perm.is_identity()
        assert np.array_equal(got.mat, mat)
    # closed under products
    rng = random.Random(1)
    for _ in range(10):
        a = basis.mats[rng.randrange(basis.dim)]
        b = basis.mats[rng.randrange(basis.dim)]
        assert pub.params.field.mat_mul(a, b) in basis


def test_pure_only_generators_accepted_directly(small_field):
    # every generator word already has identity permutation part, so each
    # candidate passes the order filter with order 1
    params_rng = random.Random(2)
    pub, _, _ = ttp_generate(8, small_field, gen_count=4, word_len=40, rng=params_rng)
    pure_pub = InstancePublic(
        pub.params, [w.power(word_perm(w, 8).order()) for w in pub.a_gens], pub.c_gens
    )
    for w in pure_pub.a_gens:
        assert word_perm(w, 8).is_identity()
    pure = precompute_pure_basis(pure_pub, random.Random(3))
    assert pure.dim >= 2
    for _, w in pure.closure.generators:
        assert word_perm(w, 8).is_identity()


def test_order_filter_exhaustion(small_instance):
    pub, _, _ = small_instance
    config = AttackConfig(order_cap=0, filter_budget=25)
    with pytest.raises(PureElementSearchExhausted):
        precompute_pure_basis(pub, random.Random(4), config)


def test_order_filter_skips_but_still_collects(small_instance):
    # a tight cap rejects most candidates; collection still succeeds off
    # the low-order ones and every kept word obeys the cap
    pub, _, _ = small_instance
    config = AttackConfig(order_cap=2, filter_budget=4096)
    pure = precompute_pure_basis(pub, random.Random(5), config)
    assert pure.dim >= 2
    for _, w in pure.closure.generators:
        assert word_perm(w, pub.params.n).is_identity()


def test_attack_with_multiple_c_generators(small_instance, small_field):
    # same commuting algebra presented through two generators
    pub, priv, _ = small_instance
    kappa = pub.c_gens[0]
    widened = InstancePublic(
        pub.params, pub.a_gens, [kappa, small_field.mat_mul(kappa, kappa)]
    )
    _, transcript, key = fresh_exchange(widened, priv, 31)
    recovered, _ = attack_run(widened, transcript, random.Random(32))
    assert recovered == key.key


def test_factor_permutation_contract(small_instance):
    pub, priv, _ = small_instance
    _, transcript, _ = fresh_exchange(pub, priv, 5)
    word, residual = factor_permutation(pub, transcript.alice_msg)
    params = pub.params
    assert word_perm(word, params.n) == transcript.alice_msg.perm
    # (residual, e) equals the message E-multiplied by the inverse pair
    peeled = e_multiply(transcript.alice_msg, word.inverse(), params)
    assert peeled.perm.is_identity()
    assert np.array_equal(peeled.mat, residual)


def test_factor_pure_message_gives_message_matrix(small_instance):
    # identity message permutation: the empty word is acceptable and the
    # residual is the message matrix itself
    pub, _, _ = small_instance
    w = pub.a_gens[0]
    r = word_perm(w, pub.params.n).order()
    pure_word = w.power(r) if r > 1 else w
    msg = word_eval_pair(pure_word, pub.params)
    word, residual = factor_permutation(pub, msg)
    assert len(word) == 0
    assert np.array_equal(residual, msg.mat)


def test_factor_rejects_foreign_permutation(small_instance):
    pub, priv, _ = small_instance
    n = pub.params.n
    foreign = None
    for w in priv.b_gens:
        p = word_perm(w, n)
        if not p.is_identity():
            foreign = p
            break
    assert foreign is not None
    msg = MatPerm(pub.params.field.identity(n), foreign)
    with pytest.raises(GNotExpressible):
        factor_permutation(pub, msg)


def test_residual_normalizes_secret_into_span(small_instance, small_field):
    # the peeled message matrix times the true secret lands in span(V)
    pub, priv, _ = small_instance
    hits = 0
    for seed in range(20):
        asec, transcript, _ = fresh_exchange(pub, priv, 50 + seed)
        pure = precompute_pure_basis(pub, random.Random(900 + seed))
        _, residual = factor_permutation(pub, transcript.alice_msg)
        probe = small_field.mat_mul(small_field.mat_inv(residual), asec.matrix)
        hits += probe in pure.basis
    assert hits >= 19


def test_solve_scale_postconditions(small_instance, small_field):
    pub, priv, _ = small_instance
    _, transcript, _ = fresh_exchange(pub, priv, 7)
    pure = precompute_pure_basis(pub, random.Random(8))
    _, residual = factor_permutation(pub, transcript.alice_msg)
    scale, coeffs, tries = solve_scale(residual, pub.c_gens, pure, small_field, random.Random(9))
    assert tries <= 16
    assert small_field.is_invertible(scale)
    kappas = algebra_closure(pub.c_gens, small_field)
    assert np.array_equal(kappas.combine(coeffs), scale)
    assert small_field.mat_mul(small_field.mat_inv(residual), scale) in pure.basis


def test_split_pure_part_and_reconstruction(small_instance, small_field):
    pub, priv, _ = small_instance
    _, transcript, _ = fresh_exchange(pub, priv, 10)
    pure = precompute_pure_basis(pub, random.Random(11))
    word, residual = factor_permutation(pub, transcript.alice_msg)
    scale, scoeffs, _ = solve_scale(residual, pub.c_gens, pure, small_field, random.Random(12))
    part, pcoeffs = split_pure_part(scale, residual, pure, small_field)
    assert np.array_equal(
        part, small_field.mat_mul(small_field.mat_inv(scale), residual)
    )
    assert np.array_equal(pure.basis.combine(pcoeffs), part)
    artifacts = AttackArtifacts(word, residual, scale, scoeffs, part, pcoeffs)
    assert verify_reconstruction(pub, transcript.alice_msg, artifacts)
    # degenerate split: scale = residual makes the pure part the identity
    ident, icoeffs = split_pure_part(residual, residual, pure, small_field)
    assert np.array_equal(ident, small_field.identity(pub.params.n))
    assert np.array_equal(pure.basis.combine(icoeffs), ident)


def test_attack_recovers_exact_key(small_instance):
    pub, priv, _ = small_instance
    for seed in range(5):
        _, transcript, key = fresh_exchange(pub, priv, 200 + seed)
        recovered, stats = attack_run(pub, transcript, random.Random(seed))
        assert recovered == key.key
        assert stats.dim_v >= 2
        assert stats.total_seconds < 60


def test_attack_is_deterministic(small_instance):
    pub, priv, _ = small_instance
    _, transcript, key = fresh_exchange(pub, priv, 13)
    k1, s1 = attack_run(pub, transcript, random.Random(99))
    k2, s2 = attack_run(pub, transcript, random.Random(99))
    assert k1 == k2 == key.key
    assert (s1.dim_v, s1.candidates, s1.factor_letters, s1.scale_tries) == (
        s2.dim_v,
        s2.candidates,
        s2.factor_letters,
        s2.scale_tries,
    )


def test_attack_recover_key_with_identity_bob_permutation(small_instance, small_field):
    # h = e: the twisted images collapse to the untwisted ones
    pub, priv, _ = small_instance
    rng = random.Random(15)
    asec, amsg = alice_round(pub, rng)
    d_basis = algebra_closure(priv.d_gens, small_field)
    while True:
        d = d_basis.combine([rng.randrange(small_field.order) for _ in range(d_basis.dim)])
        if small_field.is_invertible(d):
            break
    bmsg = MatPerm(d, Perm.identity(pub.params.n))
    honest = derive_key_alice(asec, bmsg, pub)
    transcript = Transcript(amsg, bmsg)
    recovered, _ = attack_run(pub, transcript, random.Random(16))
    assert recovered == honest.key


def test_twisted_combination_is_linear(small_instance, small_field):
    pub, _, _ = small_instance
    pure = precompute_pure_basis(pub, random.Random(17))
    rng = random.Random(18)
    h = Perm.random(pub.params.n, rng)
    seed = MatPerm(small_field.identity(pub.params.n), h)
    images = [e_multiply(seed, w, pub.params).mat for _, w in pure.closure.generators]
    twisted = pure.closure.rebuild(images)

    def combine(coeffs):
        out = small_field.zeros(pub.params.n)
        for c, m in zip(coeffs, twisted):
            if c:
                out ^= small_field.mul_vec(m, int(c))
        return out

    for _ in range(10):
        l1 = [rng.randrange(small_field.order) for _ in range(pure.dim)]
        l2 = [rng.randrange(small_field.order) for _ in range(pure.dim)]
        both = [a ^ b for a, b in zip(l1, l2)]
        assert np.array_equal(combine(both), combine(l1) ^ combine(l2))


def test_attack_on_tampered_transcript_completes_but_differs(small_instance, small_field):
    pub, priv, _ = small_instance
    _, transcript, key = fresh_exchange(pub, priv, 19)
    rng = random.Random(20)
    fake_q = small_field.random_invertible(rng, pub.params.n)
    tampered = Transcript(transcript.alice_msg, MatPerm(fake_q, transcript.bob_msg.perm))
    recovered, _ = attack_run(pub, tampered, random.Random(21))
    assert recovered != key.key


def test_attack_requires_bob_message(small_instance):
    pub, priv, _ = small_instance
    _, transcript, _ = fresh_exchange(pub, priv, 22)
    with pytest.raises(AttackFailed) as err:
        attack_run(pub, Transcript(transcript.alice_msg, None), random.Random(23))
    assert err.value.stage == "input"


def test_extension_grows_small_basis(small_instance, small_field):
    pub, priv, _ = small_instance
    config = AttackConfig(max_candidates=1)
    pure = precompute_pure_basis(pub, random.Random(24), config)
    small = pure.dim
    grown = extend_pure_basis(pub, pure, random.Random(25), 40, AttackConfig())
    assert pure.dim == small + grown
    assert grown >= 0
    _, transcript, key = fresh_exchange(pub, priv, 26)
    word, residual = factor_permutation(pub, transcript.alice_msg)
    scale, scoeffs, _ = solve_scale(residual, pub.c_gens, pure, small_field, random.Random(27))
    part, pcoeffs = split_pure_part(scale, residual, pure, small_field)
    artifacts = AttackArtifacts(word, residual, scale, scoeffs, part, pcoeffs)
    assert recover_key(pub, transcript, pure, artifacts) == key.key


@pytest.mark.parametrize(
    "n,degree,gens,word_len",
    [(4, 2, 2, 10), (5, 3, 2, 20), (7, 1, 3, 40), (9, 5, 4, 80)],
)
def test_attack_across_parameter_space(n, degree, gens, word_len):
    field = GF2m(degree)
    rng = random.Random(7000 + n)
    pub, priv, _ = ttp_generate(n, field, gens, word_len, rng=rng, d_polynomial=(n % 2 == 0))
    asec, amsg = alice_round(pub, rng)
    bsec, bmsg = bob_round(pub, priv, rng)
    key = derive_key_alice(asec, bmsg, pub)
    recovered, _ = attack_run(pub, Transcript(amsg, bmsg), random.Random(n))
    assert recovered == key.key


def test_attack_failure_reports_stage(small_instance):
    pub, priv, _ = small_instance
    _, transcript, _ = fresh_exchange(pub, priv, 28)
    # an empty collection round leaves V = {I}; extensions capped at zero
    config = AttackConfig(max_candidates=0, enlargement_rounds=0)
    with pytest.raises(AttackFailed) as err:
        attack_run(pub, transcript, random.Random(29), config)
    assert err.value.stage in ("scale", "split")
