import inspect
import random
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cbkap.attack as attack_mod
from cbkap.attack import (
    AlphaPrimeOutsideV,
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
from cbkap.braid import BraidWord, MatPerm, e_multiply, word_eval_pair, word_perm
from cbkap.field import GF2m, SingularMatrix
from cbkap.linalg import InvertibleSampleFailed, NoSolution, algebra_closure
from cbkap import perm as perm_mod
from cbkap.perm import NotInGroup, Perm, WordTooLong, shortest_word
from cbkap.protocol import (
    InstancePublic,
    Transcript,
    alice_round,
    bob_round,
    derive_key_alice,
    ttp_generate,
)

from conftest import in_span, random_alice_perm, random_group_exchange, random_invertible


def fresh_exchange(pub, priv, seed):
    rng = random.Random(seed)
    asec, amsg = alice_round(pub, rng)
    bsec, bmsg = bob_round(pub, priv, rng)
    key = derive_key_alice(asec, bmsg, pub)
    return asec, Transcript(amsg, bmsg), key


def normalized(pub, residual_inv):
    """The stack solve_scale takes: residual^-1 times each C basis element."""
    return pub.params.field.mat_mul(residual_inv, np.stack(pub.c_algebra))


def test_attack_module_is_blinded():
    source = inspect.getsource(attack_mod)
    for token in ("InstancePrivate", "b_gens", "d_gens"):
        assert token not in source


def test_pure_basis_witnesses_are_pure(small_instance, basis_words):
    pub, _, _ = small_instance
    pure = precompute_pure_basis(pub, random.Random(0))
    assert pure.dim >= 2
    assert pure.candidates >= 1
    basis = pure.closure
    witnesses = basis_words(basis)
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
        assert in_span(basis, pub.params.field.mat_mul(a, b))


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


# on 8 strands: a 3-cycle times a disjoint 5-cycle, of order 15 > n
ORDER_15_WORD = BraidWord([1, 2, 4, 5, 6, 7])


def test_order_filter_exhaustion(small_instance, monkeypatch):
    # FILTER_BUDGET candidates in a row of permutation order above n end
    # collection
    pub, _, _ = small_instance
    high = word_perm(ORDER_15_WORD, pub.params.n)
    assert high.order() == 15
    drawn = []

    def high_order(pub, rng, lengths):
        while True:
            drawn.append(1)
            yield ORDER_15_WORD, high

    monkeypatch.setattr(attack_mod, "_candidate_words", high_order)
    monkeypatch.setattr(attack_mod, "FILTER_BUDGET", 25)
    with pytest.raises(PureElementSearchExhausted):
        precompute_pure_basis(pub, random.Random(4))
    assert len(drawn) == 25


def test_order_filter_skips_but_still_collects(small_instance, monkeypatch):
    # with a generator of order 15 added, the filter rejects candidates of
    # order above n; collection still succeeds off the others, and every
    # kept word is pure
    pub, _, _ = small_instance
    pub = InstancePublic(pub.params, pub.a_gens + [ORDER_15_WORD], pub.c_gens)
    n = pub.params.n
    drawn = []
    original = attack_mod._candidate_words

    def recording(pub, rng, lengths):
        for word, g in original(pub, rng, lengths):
            drawn.append((word, g.order()))
            yield word, g

    monkeypatch.setattr(attack_mod, "_candidate_words", recording)
    pure = precompute_pure_basis(pub, random.Random(5), AttackConfig(stall=20))
    assert pure.dim >= 2
    orders = [r for _, r in drawn]
    assert any(r > n for r in orders) and sum(r <= n for r in orders) == pure.candidates
    # every witness is a kept candidate raised to its order r <= n
    kept = {tuple(w.power(r).letters()) for w, r in drawn if r <= n}
    for _, w in pure.closure.generators:
        assert tuple(w.letters()) in kept and word_perm(w, n).is_identity()


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
    h = transcript.bob_msg.perm
    word, residual, residual_inv, twisted = factor_permutation(pub, transcript.alice_msg, h)
    params = pub.params
    assert word_perm(word, params.n) == transcript.alice_msg.perm
    # (residual, e) equals the message E-multiplied by the inverse pair
    peeled = e_multiply(transcript.alice_msg, word.inverse(), params)
    assert peeled.perm.is_identity()
    assert np.array_equal(peeled.mat, residual)
    assert np.array_equal(residual_inv, params.field.mat_inv(residual))
    # the twisted image is the word evaluated on its own from (I, h)
    seed = MatPerm(params.field.identity(params.n), h)
    assert np.array_equal(twisted, e_multiply(seed, word, params).mat)
    # with the identity twist it is the word's plain image
    _, _, _, plain = factor_permutation(pub, transcript.alice_msg, Perm.identity(params.n))
    assert np.array_equal(plain, word_eval_pair(word, params).mat)


def test_factor_pure_message_gives_message_matrix(small_instance):
    # identity message permutation: the empty word is acceptable and the
    # residual is the message matrix itself
    pub, _, _ = small_instance
    w = pub.a_gens[0]
    r = word_perm(w, pub.params.n).order()
    pure_word = w.power(r) if r > 1 else w
    msg = word_eval_pair(pure_word, pub.params)
    word, residual, _, _ = factor_permutation(pub, msg, Perm.identity(pub.params.n))
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
        factor_permutation(pub, msg, Perm.identity(n))


def test_residual_normalizes_secret_into_span(small_instance, small_field):
    # the peeled message matrix times the true secret lands in span(V)
    pub, priv, _ = small_instance
    hits = 0
    for seed in range(20):
        asec, transcript, _ = fresh_exchange(pub, priv, 50 + seed)
        pure = precompute_pure_basis(pub, random.Random(900 + seed))
        _, _, residual_inv, _ = factor_permutation(
            pub, transcript.alice_msg, Perm.identity(pub.params.n)
        )
        probe = small_field.mat_mul(residual_inv, asec.matrix)
        hits += in_span(pure.closure, probe)
    assert hits >= 19


def test_solve_scale_postconditions(small_instance, small_field):
    pub, priv, _ = small_instance
    _, transcript, _ = fresh_exchange(pub, priv, 7)
    pure = precompute_pure_basis(pub, random.Random(8))
    _, _, residual_inv, _ = factor_permutation(
        pub, transcript.alice_msg, Perm.identity(pub.params.n)
    )
    scale, tries = solve_scale(normalized(pub, residual_inv), pub, pure, random.Random(9))
    assert tries <= 16
    assert small_field.is_invertible(scale)
    kappas = algebra_closure(pub.c_gens, small_field)
    assert in_span(kappas, scale)
    assert in_span(pure.closure, small_field.mat_mul(residual_inv, scale))
    # the instance caches its C-algebra basis; a second call draws the same
    assert pub.c_algebra is pub.c_algebra
    assert all(np.array_equal(a, b) for a, b in zip(pub.c_algebra, kappas.mats, strict=True))
    again = solve_scale(normalized(pub, residual_inv), pub, pure, random.Random(9))
    assert np.array_equal(again[0], scale) and again[1] == tries


def test_split_pure_part_and_reconstruction(small_instance, small_field):
    pub, priv, _ = small_instance
    _, transcript, _ = fresh_exchange(pub, priv, 10)
    pure = precompute_pure_basis(pub, random.Random(11))
    n = pub.params.n
    word, residual, residual_inv, twisted = factor_permutation(
        pub, transcript.alice_msg, Perm.identity(n)
    )
    scale, _ = solve_scale(normalized(pub, residual_inv), pub, pure, random.Random(12))
    part, pcoeffs = split_pure_part(scale, residual, pure, small_field)
    assert np.array_equal(
        part, small_field.mat_mul(small_field.mat_inv(scale), residual)
    )
    assert np.array_equal(pure.closure.combine(pcoeffs), part)
    artifacts = AttackArtifacts(word, residual, scale, part, pcoeffs, twisted)
    assert verify_reconstruction(pub, transcript.alice_msg, artifacts)
    # degenerate split: scale = residual makes the pure part the identity
    ident, icoeffs = split_pure_part(residual, residual, pure, small_field)
    assert np.array_equal(ident, small_field.identity(pub.params.n))
    assert np.array_equal(pure.closure.combine(icoeffs), ident)


def test_attack_recovers_exact_key(small_instance):
    pub, priv, _ = small_instance
    for seed in range(5):
        _, transcript, key = fresh_exchange(pub, priv, 200 + seed)
        recovered, stats = attack_run(pub, transcript, random.Random(seed))
        assert recovered == key.key
        assert stats.dim_v >= 2
        assert stats.total_seconds < 60
        stages = ("precompute", "factor", "scale", "split", "audit", "recover")
        seconds = [getattr(stats, f"{stage}_seconds") for stage in stages]
        assert all(t > 0 for t in seconds)
        assert sum(seconds) <= stats.total_seconds


def test_power_images_match_streamed_powers(small_instance):
    # the image stored from the fused stream is the witness evaluated on
    # its own from (I, h); with no twist it is the generator matrix itself
    pub, _, _ = small_instance
    params = pub.params
    rng = random.Random(213)
    for twist in (None, Perm.random(params.n, rng)):
        pure = precompute_pure_basis(pub, random.Random(212), twist=twist)
        assert len(pure.twisted) == len(pure.closure.generators) >= 1
        for (mat, witness), image in zip(pure.closure.generators, pure.twisted):
            assert np.array_equal(mat, word_eval_pair(witness, params).mat)
            if twist is None:
                assert pure.twist.is_identity() and image is mat
            else:
                seed = MatPerm(params.field.identity(params.n), twist)
                assert np.array_equal(image, e_multiply(seed, witness, params).mat)


def recovery_inputs(pub, priv, small_field, twist_of):
    """A transcript, its key, and the pure basis and artifacts of an
    attack on it, the basis collected for the twist twist_of(h), h the
    permutation of Bob's message."""
    _, transcript, key = fresh_exchange(pub, priv, 214)
    h = transcript.bob_msg.perm
    pure = precompute_pure_basis(pub, random.Random(215), twist=twist_of(h))
    word, residual, residual_inv, twisted_word = factor_permutation(pub, transcript.alice_msg, h)
    scale, _ = solve_scale(normalized(pub, residual_inv), pub, pure, random.Random(216))
    part, pcoeffs = split_pure_part(scale, residual, pure, small_field)
    artifacts = AttackArtifacts(word, residual, scale, part, pcoeffs, twisted_word)
    return transcript, key, pure, artifacts


def test_recover_key_matches_single_state_assembly(small_instance, small_field):
    # the stacked assembly against the single-state one: every witness
    # streamed whole from (I, h), then Bob's message E-multiplied by the
    # factored word
    pub, priv, _ = small_instance
    transcript, key, pure, artifacts = recovery_inputs(pub, priv, small_field, lambda h: h)
    h = transcript.bob_msg.perm
    n = pub.params.n
    seed = MatPerm(small_field.identity(n), h)
    images = [e_multiply(seed, w, pub.params).mat for _, w in pure.closure.generators]
    twisted = small_field.zeros(n)
    for c, m in zip(artifacts.pure_coeffs, pure.closure.rebuild(images)):
        twisted ^= small_field.mul_vec(m, int(c))
    state = MatPerm(small_field.mat_mul(transcript.bob_msg.mat, twisted), h)
    t = e_multiply(state, artifacts.perm_word, pub.params)
    single = MatPerm(small_field.mat_mul(artifacts.scale, t.mat), t.perm)
    assert recover_key(pub, transcript, pure, artifacts) == single == key.key


def test_recover_key_streams_nothing(small_instance, small_field, monkeypatch):
    pub, priv, _ = small_instance
    transcript, key, pure, artifacts = recovery_inputs(pub, priv, small_field, lambda h: h)

    def no_stream(*args, **kwargs):
        raise AssertionError("recover_key streamed a word")

    monkeypatch.setattr(attack_mod, "e_multiply", no_stream)
    assert recover_key(pub, transcript, pure, artifacts) == key.key


def test_recover_key_refuses_basis_of_another_twist(small_instance, small_field):
    # the identity and h^2: both differ from h, which is not an involution
    # here; the basis is the same, so only the check stops a wrong key
    pub, priv, _ = small_instance
    for other in (lambda h: None, lambda h: h * h):
        transcript, _, pure, artifacts = recovery_inputs(pub, priv, small_field, other)
        assert pure.twist != transcript.bob_msg.perm
        with pytest.raises(ValueError, match="another twist"):
            recover_key(pub, transcript, pure, artifacts)


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
    fake_q = random_invertible(small_field, rng, pub.params.n)
    tampered = Transcript(transcript.alice_msg, MatPerm(fake_q, transcript.bob_msg.perm))
    recovered, _ = attack_run(pub, tampered, random.Random(21))
    assert recovered != key.key


def test_transcript_requires_both_messages(small_instance):
    pub, priv, _ = small_instance
    _, transcript, _ = fresh_exchange(pub, priv, 22)
    for half in ((transcript.alice_msg, None), (None, transcript.bob_msg)):
        with pytest.raises(ValueError):
            Transcript(*half)


# Both instances generate S_16.  Alice's honest permutation is a word of
# 9 and 13 generator letters, which the shortest-word search finds; a
# random element of S_16 is beyond its state cap, so the chain factors
# it.  Uncapped, the first chain has a strong generator of 136,215
# generator letters, and the second builds within the cap (13,246) but
# factors the random permutation into 18,631 letters: that word alone
# would be over 10^6 braid letters to stream.
@pytest.mark.parametrize("word_len, seed", [(101, 30), (61, 31)], ids=["build", "factor"])
def test_attack_stops_at_chain_word_cap(word_len, seed):
    pub, transcript, _ = random_group_exchange(16, word_len, seed)
    transcript = random_alice_perm(transcript, seed)
    t0 = time.process_time()
    with pytest.raises(AttackFailed) as err:
        attack_run(pub, transcript, random.Random(seed))
    assert time.process_time() - t0 < 5
    assert isinstance(err.value.__cause__, WordTooLong)
    assert err.value.stage == "factor" and err.value.stats.failed_stage == "factor"
    assert err.value.stats.candidates == 0 and err.value.stats.factor_seconds > 0
    assert err.value.stats.search_states > perm_mod.SEARCH_STATES  # the search gave up


@pytest.mark.parametrize("word_len, seed", [(101, 30), (61, 31)])
def test_attack_recovers_key_over_random_generators(word_len, seed):
    # the chain-cap instances above, with Alice's honest permutation: a
    # word of a few generator letters, which the search finds
    pub, transcript, key = random_group_exchange(16, word_len, seed)
    recovered, stats = attack_run(pub, transcript, random.Random(seed))
    assert recovered == key.key
    assert 0 < stats.factor_letters <= 13 * word_len
    assert 0 < stats.search_states <= perm_mod.SEARCH_STATES


@pytest.mark.parametrize("n, seed", [(24, 1), (24, 2), (28, 1)])
def test_attack_recovers_key_beyond_full_size(n, seed):
    # 8 generators of 650 letters over GF(2^8), as at full size; the
    # stabilizer chain's words here run to 10^5-10^7 braid letters, or
    # past its cap at n=28, while shortest words stay under 10^4
    rng = random.Random(seed)
    pub, priv, _ = ttp_generate(n, GF2m(8), 8, 650, rng=rng)
    asec, amsg = alice_round(pub, rng)
    _, bmsg = bob_round(pub, priv, rng)
    key = derive_key_alice(asec, bmsg, pub)
    recovered, stats = attack_run(pub, Transcript(amsg, bmsg), random.Random(seed))
    assert recovered == key.key
    assert stats.factor_letters <= 10_000


def test_attack_on_unreachable_permutation_fails_at_factor():
    # an odd permutation of the moved points is outside the A_6 that the
    # A generators of this n=12 instance generate: the search exhausts the
    # group, and the chain's NotInGroup ends the attack at stage factor
    rng = random.Random(4)
    pub, priv, _ = ttp_generate(12, GF2m(8), 8, 250, rng=rng)
    _, transcript, _ = fresh_exchange(pub, priv, 5)
    moved = [x for x in range(12) if any(p(x) != x for p in pub.a_perms)]
    assert len(moved) == 6
    images = list(range(12))
    images[moved[0]], images[moved[1]] = moved[1], moved[0]
    bad = Transcript(MatPerm(transcript.alice_msg.mat, Perm(images)), transcript.bob_msg)
    word, states = shortest_word(pub.a_perms, bad.alice_msg.perm, 12)
    assert word is None and 360 <= states <= perm_mod.SEARCH_STATES  # one side holds all of A_6
    with pytest.raises(AttackFailed) as err:
        attack_run(pub, bad, random.Random(6))
    assert err.value.stage == "factor" and err.value.stats.candidates == 0
    assert isinstance(err.value.__cause__, GNotExpressible)
    assert isinstance(err.value.__cause__.__cause__, NotInGroup)
    assert err.value.stats.search_states == states


def test_attack_falls_back_to_chain_word(full_instance, monkeypatch):
    # with the search's state cap lowered it gives up, the chain factors
    # the permutation instead, and the same key comes out
    pub, priv, _ = full_instance
    _, transcript, key = fresh_exchange(pub, priv, 7)
    searched, s_stats = attack_run(pub, transcript, random.Random(8))
    assert 4 < s_stats.search_states <= perm_mod.SEARCH_STATES
    monkeypatch.setattr(perm_mod, "SEARCH_STATES", 4)
    chained, c_stats = attack_run(pub, transcript, random.Random(8))
    assert searched == chained == key.key
    assert c_stats.search_states > perm_mod.SEARCH_STATES  # the search gave up
    assert s_stats.factor_letters < c_stats.factor_letters


def test_attack_on_singular_message_fails_at_factor(small_instance):
    # no honest message matrix is singular; the residual's one inversion
    # runs in the factor stage, so the attack stops there before drawing
    # any candidate
    pub, priv, _ = small_instance
    _, transcript, _ = fresh_exchange(pub, priv, 40)
    mat = transcript.alice_msg.mat.copy()
    mat[0] = 0
    bad = Transcript(MatPerm(mat, transcript.alice_msg.perm), transcript.bob_msg)
    with pytest.raises(AttackFailed) as err:
        attack_run(pub, bad, random.Random(41))
    assert isinstance(err.value.__cause__, SingularMatrix)
    assert err.value.stage == "factor" and err.value.stats.failed_stage == "factor"
    assert err.value.stats.candidates == 0 and err.value.stats.factor_seconds > 0


def test_extension_grows_small_basis(small_instance, small_field, monkeypatch):
    pub, priv, _ = small_instance
    monkeypatch.setattr(attack_mod, "MAX_CANDIDATES", 1)
    _, transcript, key = fresh_exchange(pub, priv, 26)
    pure = precompute_pure_basis(pub, random.Random(24), twist=transcript.bob_msg.perm)
    small = pure.dim
    monkeypatch.setattr(attack_mod, "MAX_CANDIDATES", pure.candidates + 40)
    rng, grown = random.Random(25), []
    while not grown or grown[-1]:  # each call returns at a growth or the round end
        grown.append(extend_pure_basis(pub, pure, rng, AttackConfig()))
    assert pure.dim == small + sum(grown)
    assert all(g > 0 for g in grown[:-1])
    word, residual, residual_inv, twisted = factor_permutation(
        pub, transcript.alice_msg, transcript.bob_msg.perm
    )
    scale, _ = solve_scale(normalized(pub, residual_inv), pub, pure, random.Random(27))
    part, pcoeffs = split_pure_part(scale, residual, pure, small_field)
    artifacts = AttackArtifacts(word, residual, scale, part, pcoeffs, twisted)
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


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(4, 9),
    degree=st.integers(1, 6),
    gens=st.integers(2, 5),
    word_len=st.integers(2, 40),
    d_polynomial=st.integers(0, 9).map(lambda k: k < 3),  # 30% of instances
    seed=st.integers(0, 2**32 - 1),
)
def test_attack_returns_the_exact_key_or_fails_typed(n, degree, gens, word_len, d_polynomial, seed):
    # the success map: on an honest instance the attack either recovers
    # Alice's key exactly or raises AttackFailed, never anything else
    rng = random.Random(seed)
    pub, priv, _ = ttp_generate(n, GF2m(degree), gens, word_len, rng=rng, d_polynomial=d_polynomial)
    _, transcript, key = fresh_exchange(pub, priv, rng.getrandbits(32))
    try:
        recovered, _ = attack_run(pub, transcript, random.Random(seed))
    except AttackFailed:
        return
    assert recovered == key.key


def test_attack_config_refuses_settings_below_their_minimum():
    for kwargs in ({"stall": 0}, {"enlargement_rounds": -1}):
        with pytest.raises(ValueError):
            AttackConfig(**kwargs)
    assert AttackConfig(enlargement_rounds=0).enlargement_rounds == 0


def test_attack_failure_reports_stage(small_instance, monkeypatch):
    pub, priv, _ = small_instance
    _, transcript, _ = fresh_exchange(pub, priv, 28)
    # with no candidate allowed the one round is empty and leaves V = {I}
    monkeypatch.setattr(attack_mod, "MAX_CANDIDATES", 0)
    with pytest.raises(AttackFailed) as err:
        attack_run(pub, transcript, random.Random(29), AttackConfig(enlargement_rounds=0))
    assert err.value.stage in ("scale", "split")
    # the failure carries the statistics gathered up to it
    stats = err.value.stats
    assert stats.failed_stage == err.value.stage
    assert (stats.dim_v, stats.candidates, stats.enlargements) == (1, 0, 0)
    assert stats.factor_letters > 0 and stats.scale_seconds > 0
    assert 0 < stats.factor_seconds + stats.scale_seconds <= stats.total_seconds
    assert stats.to_dict()["failed_stage"] == err.value.stage
    # the cap holds over all rounds: each one is empty and counts as an enlargement
    with pytest.raises(AttackFailed) as err:
        attack_run(pub, transcript, random.Random(29))
    assert (err.value.stats.candidates, err.value.stats.enlargements) == (0, 3)


@pytest.mark.parametrize("step, error, stage", [
    ("solve_scale", NoSolution, "scale"),
    ("solve_scale", InvertibleSampleFailed, "scale"),
    ("split_pure_part", AlphaPrimeOutsideV, "split"),
])
def test_last_linear_failure_names_its_stage(small_instance, monkeypatch, step, error, stage):
    # scale and split fail in one try; the error's type names the stage
    pub, priv, _ = small_instance
    _, transcript, _ = fresh_exchange(pub, priv, 32)

    def failing(*args):
        raise error("forced")

    monkeypatch.setattr(attack_mod, step, failing)
    with pytest.raises(AttackFailed) as err:
        attack_run(pub, transcript, random.Random(33), AttackConfig(enlargement_rounds=0))
    stats = err.value.stats
    assert err.value.stage == stats.failed_stage == stage
    assert isinstance(err.value.__cause__, error)
    assert stats.scale_seconds > 0 and (stats.split_seconds > 0) == (stage == "split")
    assert (stats.scale_tries > 0) == (stage == "split")


def test_attack_failed_audit_counts_its_time(small_instance, monkeypatch):
    # a failing stage's time is counted, and the stage sum stays within the total
    pub, priv, _ = small_instance
    _, transcript, _ = fresh_exchange(pub, priv, 30)
    monkeypatch.setattr(attack_mod, "verify_reconstruction", lambda *args: False)
    with pytest.raises(AttackFailed) as err:
        attack_run(pub, transcript, random.Random(31))
    stats = err.value.stats
    assert err.value.stage == stats.failed_stage == "audit"
    assert stats.audit_seconds > 0 and stats.recover_seconds == 0
    stages = ("precompute", "factor", "scale", "split", "audit", "recover")
    assert 0 < sum(getattr(stats, f"{s}_seconds") for s in stages) <= stats.total_seconds


def record_draws(monkeypatch):
    """Record the letters of every candidate word the attack draws."""
    drawn = []
    original = attack_mod._candidate_words

    def recording(pub, rng, lengths):
        for word, g in original(pub, rng, lengths):
            drawn.append(tuple(word.letters()))
            yield word, g

    monkeypatch.setattr(attack_mod, "_candidate_words", recording)
    return drawn


def full_schedule_draws(pub, seed, config, monkeypatch):
    """The draws of every collection round run to its end (no early
    accept) from the candidate stream attack_run derives from seed, the
    enlargement rounds drawing their own product lengths, and the
    candidate total after each round."""
    rng = random.Random(seed)
    rng_candidates = random.Random(rng.getrandbits(64))
    drawn = record_draws(monkeypatch)
    pure = precompute_pure_basis(pub, rng_candidates, config)
    totals = [pure.candidates]
    pure.enlarging = True  # as attack_run sets it when it counts the first enlargement
    for _ in range(config.enlargement_rounds):
        while extend_pure_basis(pub, pure, rng_candidates, config):
            pass
        totals.append(pure.candidates)
    monkeypatch.undo()
    return drawn, totals


@pytest.mark.parametrize("corner,stall", [("small", 4), ("gf4_n7", 4), ("gf4_n7", 1)])
def test_attack_draws_are_a_prefix_of_the_full_schedule(small_instance, corner, stall, monkeypatch):
    # early accept changes only where collection stops: the candidates the
    # attack draws are a prefix of those of the rounds run to their end,
    # and it stops inside the round its enlargement count names
    if corner == "small":
        (pub, priv, _), seeds = small_instance, range(4)
    else:
        pub, priv, _ = ttp_generate(7, GF2m(2), 3, 40, rng=random.Random(7))
        seeds = range(8)
    config = AttackConfig(stall=stall)
    saved = failed = 0
    for seed in seeds:
        _, transcript, key = fresh_exchange(pub, priv, 300 + seed)
        full, totals = full_schedule_draws(pub, seed, config, monkeypatch)
        drawn = record_draws(monkeypatch)
        try:
            recovered, stats = attack_run(pub, transcript, random.Random(seed), config)
        except AttackFailed as exc:
            recovered, stats = None, exc.stats
        monkeypatch.undo()
        assert drawn and drawn == full[: len(drawn)]
        if recovered is None:  # a failure has drawn the whole schedule
            assert drawn == full and stats.candidates == totals[-1]
            failed += 1
            continue
        assert recovered == key.key
        rounds_before = totals[stats.enlargements - 1] if stats.enlargements else 0
        assert rounds_before < stats.candidates <= totals[stats.enlargements]
        saved += stats.candidates < totals[stats.enlargements]
    # rounds that end at the first candidate without growth are too short
    # for some instances
    assert failed == 0 or stall == 1
    assert saved >= (len(seeds) - failed) // 2


def test_precompute_without_early_stop_keeps_its_figures(small_instance):
    # (dim V, candidates) of a full collection round, as computed before
    # early accept and the one-sided closure; on GF(4), of a first round
    # of 2 to 3 generator products
    pub, _, _ = small_instance
    gf4 = ttp_generate(7, GF2m(2), 3, 40, rng=random.Random(7))[0]
    for inst, expected in (
        (pub, [(10, 6), (10, 6), (10, 6), (10, 6)]),
        (gf4, [(5, 6), (5, 10), (5, 8), (3, 7)]),
    ):
        got = []
        for seed in range(4):
            pure = precompute_pure_basis(inst, random.Random(seed))
            got.append((pure.dim, pure.candidates))
        assert got == expected
    wide = ttp_generate(20, GF2m(8), 8, 24, rng=random.Random(20))[0]
    pure = precompute_pure_basis(wide, random.Random(0))
    assert (pure.dim, pure.candidates) == (82, 6)


class SpyForm:
    """Stands in for ``InstancePublic.a_form``: records the number of
    generators of every product, tagged with the ``enlarging`` flag of the
    collection call that asked for it (None outside collection)."""

    def __init__(self, form):
        self.form, self.phase, self.lengths = form, None, []

    def product(self, gen_word):
        self.lengths.append((self.phase, len(gen_word)))
        return self.form.product(gen_word)


def spy_on_products(pub, monkeypatch):
    spy = SpyForm(pub.a_form)
    monkeypatch.setattr(pub, "a_form", spy)
    extend = attack_mod.extend_pure_basis

    def tagged(pub, pure, *args):
        spy.phase = pure.enlarging
        try:
            return extend(pub, pure, *args)
        finally:
            spy.phase = None

    monkeypatch.setattr(attack_mod, "extend_pure_basis", tagged)
    return spy


def test_first_round_draws_short_products_and_enlargements_long_ones(monkeypatch):
    # on GF(4) n = 7, where some attacks need enlargement rounds: the first
    # round's candidates multiply 2 to 3 generators, an enlargement round's
    # 1 to 10, and only the factored word is formed outside collection
    pub, priv, _ = ttp_generate(7, GF2m(2), 3, 40, rng=random.Random(7))
    exchanges = [fresh_exchange(pub, priv, 300 + seed)[1:] for seed in range(8)]
    spy = spy_on_products(pub, monkeypatch)
    first, later = set(), set()
    for seed, (transcript, key) in enumerate(exchanges):
        spy.lengths.clear()
        recovered, stats = attack_run(pub, transcript, random.Random(seed))
        assert recovered == key.key
        assert [phase for phase, _ in spy.lengths].count(None) == 1
        first |= {k for phase, k in spy.lengths if phase is False}
        enlarged = {k for phase, k in spy.lengths if phase}
        assert bool(enlarged) == (stats.enlargements > 0)
        later |= enlarged
    assert first == {2, 3}
    assert later <= set(range(1, 11)) and max(later) > 3


def test_precompute_draws_only_first_round_products(small_instance, monkeypatch):
    # precompute_pure_basis runs one first round
    gf4 = ttp_generate(7, GF2m(2), 3, 40, rng=random.Random(7))[0]
    for pub in (small_instance[0], gf4):
        spy = spy_on_products(pub, monkeypatch)
        for seed in range(4):
            precompute_pure_basis(pub, random.Random(seed), AttackConfig(stall=8))
        assert {phase for phase, _ in spy.lengths} == {False}
        assert {k for _, k in spy.lengths} == {2, 3}
        monkeypatch.undo()


@pytest.mark.parametrize(
    "n,degree,gens,word_len,seeds",
    [(8, 1, 8, 100, range(3)), (7, 2, 3, 40, range(6))],
    ids=["gf2_tau1_n8", "gf4_n7"],
)
def test_attack_recovers_on_small_field_corners(n, degree, gens, word_len, seeds):
    # over GF(2) every tau is 1 and V may never grow past {I}, so the
    # linear steps must still be tried when a round ends
    for seed in seeds:
        rng = random.Random(8000 + 100 * n + seed)
        pub, priv, _ = ttp_generate(n, GF2m(degree), gens, word_len, rng=rng)
        _, transcript, key = fresh_exchange(pub, priv, seed)
        recovered, _ = attack_run(pub, transcript, random.Random(seed))
        assert recovered == key.key


# with rounds that end at the first candidate without growth, seeds 2 and
# 4 fail (see the prefix test)
@pytest.mark.parametrize("stall,seeds", [(4, range(8)), (1, (0, 1, 3, 5, 6, 7))])
def test_attack_skips_tries_a_settled_failure_would_repeat(stall, seeds, monkeypatch):
    # V only grows: after NoSolution at some V, a round that ends without
    # growth is not tried again, so every try is at a larger V than the
    # last such failure; the attack still recovers the key
    pub, priv, _ = ttp_generate(7, GF2m(2), 3, 40, rng=random.Random(7))
    tries, collections = [], []
    solve, extend = attack_mod.solve_scale, attack_mod.extend_pure_basis

    def logged_solve(products, pub, pure, *args, **kwargs):
        tries.append([pure.dim, None])
        try:
            return solve(products, pub, pure, *args, **kwargs)
        except Exception as exc:
            tries[-1][1] = type(exc)
            raise

    def counted_extend(*args, **kwargs):
        collections.append(1)
        return extend(*args, **kwargs)

    monkeypatch.setattr(attack_mod, "solve_scale", logged_solve)
    monkeypatch.setattr(attack_mod, "extend_pure_basis", counted_extend)
    skipped = 0
    for seed in seeds:
        tries.clear(), collections.clear()
        _, transcript, key = fresh_exchange(pub, priv, 300 + seed)
        recovered, _ = attack_run(pub, transcript, random.Random(seed), AttackConfig(stall=stall))
        assert recovered == key.key
        assert all(b[0] > a[0] for a, b in zip(tries, tries[1:]) if a[1] is NoSolution)
        skipped += len(collections) - len(tries)
    assert skipped > 0


def test_attack_retries_an_unchanged_v_after_a_failed_sampling(monkeypatch):
    # an invertible-sampling failure can pass on a resample, so the next
    # round end tries the same V again (over GF(2) with tau = 1, V = {I})
    pub, priv, _ = ttp_generate(8, GF2m(1), 8, 100, rng=random.Random(8800))
    _, transcript, key = fresh_exchange(pub, priv, 0)
    dims = []
    solve = attack_mod.solve_scale

    def failing_once(products, pub, pure, *args, **kwargs):
        dims.append(pure.dim)
        if len(dims) == 1:
            raise InvertibleSampleFailed("forced")
        return solve(products, pub, pure, *args, **kwargs)

    monkeypatch.setattr(attack_mod, "solve_scale", failing_once)
    recovered, stats = attack_run(pub, transcript, random.Random(0))
    assert recovered == key.key
    assert dims == [1, 1] and stats.enlargements == 1


def test_exhausted_order_filter_still_counts_its_candidates(small_instance, monkeypatch):
    # candidates consumed by a call that ends in PureElementSearchExhausted
    # are counted, so a failed attack's stats report them
    pub, _, _ = small_instance
    pure = precompute_pure_basis(pub, random.Random(0))
    before = pure.candidates
    images = []
    power_image = attack_mod._power_image
    monkeypatch.setattr(
        attack_mod, "_power_image", lambda *args: images.append(1) or power_image(*args)
    )
    original = attack_mod._candidate_words

    def then_high_order(pub, rng, lengths):
        # 30 drawn candidates, then only permutations of order above n
        stream = original(pub, rng, lengths)
        for _ in range(30):
            yield next(stream)
        high = word_perm(ORDER_15_WORD, pub.params.n)
        while True:
            yield ORDER_15_WORD, high

    monkeypatch.setattr(attack_mod, "_candidate_words", then_high_order)
    monkeypatch.setattr(attack_mod, "FILTER_BUDGET", 8)
    # V is already full here, so no candidate grows it and the filter ends the call
    with pytest.raises(PureElementSearchExhausted):
        extend_pure_basis(pub, pure, random.Random(50), AttackConfig(stall=10**6))
    assert len(images) == 30 and pure.candidates - before == len(images)


def test_instance_refuses_unbounded_generator_word(small_instance):
    # a repetition's length is counted, not streamed: an attack on such an
    # instance cannot start, instead of streaming 10^12 letters per candidate
    pub, _, _ = small_instance
    t0 = time.perf_counter()
    # the last two are longer than sys.maxsize letters, where len() overflows
    for huge in (
        BraidWord([1]).power(10**12),
        BraidWord([1]).power(10**19),
        BraidWord([1]).power(10**12).power(10**12),
    ):
        with pytest.raises(ValueError, match="longer than"):
            InstancePublic(pub.params, [huge] + pub.a_gens[1:], pub.c_gens)
    assert time.perf_counter() - t0 < 1.0


class ConcatenatingForm:
    """Stands in for ``InstancePublic.a_form``: the braid word of a
    generator word as the plain concatenation of the stored generator
    words and their inverses."""

    def __init__(self, gens):
        self.gens = gens

    def product(self, gen_word):
        gens = self.gens
        return BraidWord.concat(*(gens[k] if e > 0 else gens[k].inverse() for k, e in gen_word))


@pytest.mark.parametrize("n, word_len, seed", [(12, 250, 1), (12, 250, 2), (20, 24, 1), (20, 24, 2)])
def test_conjugate_form_keeps_attack_outputs(n, word_len, seed, monkeypatch):
    # the benchmark's two workload sizes: streaming P . cores . P^-1
    # instead of the plain concatenation changes only the letters streamed
    pub, priv, _ = ttp_generate(n, GF2m(8), 8, word_len, rng=random.Random(seed))
    _, transcript, key = fresh_exchange(pub, priv, seed)
    formed, f_stats = attack_run(pub, transcript, random.Random(seed))
    monkeypatch.setattr(pub, "a_form", ConcatenatingForm(pub.a_gens))
    plain, p_stats = attack_run(pub, transcript, random.Random(seed))
    assert formed == plain == key.key
    assert (f_stats.dim_v, f_stats.candidates, f_stats.search_states, f_stats.scale_tries) == (
        p_stats.dim_v, p_stats.candidates, p_stats.search_states, p_stats.scale_tries
    )
    assert f_stats.factor_letters < p_stats.factor_letters
