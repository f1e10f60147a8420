import random

import numpy as np
import pytest

from cbkap import formats, linalg, protocol
from cbkap.braid import BraidWord, MatPerm, e_multiply, word_eval_pair, word_perm
from cbkap.field import GF2m
from cbkap.linalg import algebra_closure
from cbkap.perm import Perm
from cbkap.protocol import (
    PRODUCT_FACTORS,
    PartySecret,
    SharedKey,
    alice_round,
    bob_round,
    derive_key_alice,
    derive_key_bob,
    ttp_generate,
)

from conftest import SMALL


def test_ttp_validation(small_field):
    rng = random.Random(0)
    with pytest.raises(ValueError):
        ttp_generate(3, small_field, rng=rng)
    with pytest.raises(ValueError):
        ttp_generate(8, small_field, gen_count=1, rng=rng)
    with pytest.raises(ValueError):
        ttp_generate(8, small_field, word_len=0, rng=rng)
    # one letter's matrix spans an algebra of dim <= 2, which the kappa
    # redraw (dim >= 3) would never leave
    with pytest.raises(ValueError, match="word_len must be >= 2"):
        ttp_generate(8, small_field, word_len=1, rng=rng)
    with pytest.raises(ValueError):
        ttp_generate(8, small_field)  # rng is mandatory


def test_generation_checks_kappa_once(monkeypatch):
    # kappa is invertible by construction, so only InstancePublic checks it
    field = GF2m(8)
    checked = []
    real = GF2m.is_invertible
    monkeypatch.setattr(GF2m, "is_invertible", lambda self, a: checked.append(a) or real(self, a))
    pub, _, _ = ttp_generate(8, field, gen_count=2, word_len=20, rng=random.Random(3))
    assert sum(m is pub.c_gens[0] for m in checked) == 1


def test_ttp_shapes(small_instance, small_field):
    pub, priv, debug = small_instance
    assert len(pub.a_gens) == SMALL["gen_count"]
    assert len(priv.b_gens) == SMALL["gen_count"]
    for w in pub.a_gens + priv.b_gens:
        assert 0.5 * SMALL["word_len"] <= len(w) <= 1.2 * SMALL["word_len"]
    assert all(t not in (0, 1) for t in pub.params.tau)
    kappa = pub.c_gens[0]
    assert small_field.is_invertible(kappa)
    assert algebra_closure([kappa], small_field).dim >= 3
    assert np.array_equal(kappa, priv.d_gens[0])


def test_ttp_conjugated_block_structure(small_instance):
    pub, priv, debug = small_instance
    n = pub.params.n
    half = n // 2
    assert all(1 <= abs(x) <= half - 1 for x in debug.lower_words[0].letters())
    assert all(half + 1 <= abs(x) <= n - 1 for x in debug.upper_words[0].letters())
    # a_gen = conjugator + core + conjugator^-1, freely reduced
    z = debug.conjugator
    rebuilt = z + debug.lower_words[0] + z.inverse()
    assert word_perm(rebuilt, n) == word_perm(pub.a_gens[0], n)


def test_star_commuting_generators(small_instance, small_field):
    pub, priv, _ = small_instance
    params = pub.params
    rng = random.Random(1)
    for _ in range(20):
        omega = MatPerm(small_field.random_matrix(rng, params.n), Perm.random(params.n, rng))
        u = pub.a_gens[rng.randrange(len(pub.a_gens))]
        v = priv.b_gens[rng.randrange(len(priv.b_gens))]
        uv = e_multiply(e_multiply(omega, u, params), v, params)
        vu = e_multiply(e_multiply(omega, v, params), u, params)
        assert uv == vu


def test_cd_commute_elementwise(small_instance, small_field):
    pub, priv, _ = small_instance
    rng = random.Random(2)
    c_basis = algebra_closure(pub.c_gens, small_field)
    d_basis = algebra_closure(priv.d_gens, small_field)
    for _ in range(50):
        c = c_basis.combine([rng.randrange(small_field.order) for _ in range(c_basis.dim)])
        d = d_basis.combine([rng.randrange(small_field.order) for _ in range(d_basis.dim)])
        assert np.array_equal(small_field.mat_mul(c, d), small_field.mat_mul(d, c))


def test_alice_round_definition_audit(small_instance, small_field):
    pub, _, _ = small_instance
    rng = random.Random(3)
    for _ in range(10):
        secret, msg = alice_round(pub, rng)
        assert small_field.is_invertible(secret.matrix)
        ev = word_eval_pair(secret.word, pub.params)
        assert np.array_equal(msg.mat, small_field.mat_mul(secret.matrix, ev.mat))
        assert msg.perm == ev.perm == word_perm(secret.word, pub.params.n)


def test_messages_invertible(small_instance, small_field):
    pub, priv, _ = small_instance
    rng = random.Random(4)
    for _ in range(50):
        _, amsg = alice_round(pub, rng)
        _, bmsg = bob_round(pub, priv, rng)
        assert small_field.is_invertible(amsg.mat)
        assert small_field.is_invertible(bmsg.mat)


def test_key_agreement_many_exchanges(small_instance):
    pub, priv, _ = small_instance
    for seed in range(20):
        rng = random.Random(100 + seed)
        asec, amsg = alice_round(pub, rng)
        bsec, bmsg = bob_round(pub, priv, rng)
        ka = derive_key_alice(asec, bmsg, pub)
        kb = derive_key_bob(bsec, amsg, pub)
        assert ka == kb
        assert ka.key.perm == amsg.perm * bmsg.perm


def test_trivial_alice_secret(small_instance, small_field):
    pub, priv, _ = small_instance
    rng = random.Random(5)
    _, bmsg = bob_round(pub, priv, rng)
    secret = PartySecret(small_field.identity(pub.params.n), BraidWord())
    assert derive_key_alice(secret, bmsg, pub) == SharedKey(bmsg)


def test_full_scale_exchange(full_instance):
    pub, priv, _ = full_instance
    rng = random.Random(6)
    asec, amsg = alice_round(pub, rng)
    bsec, bmsg = bob_round(pub, priv, rng)
    assert derive_key_alice(asec, bmsg, pub) == derive_key_bob(bsec, amsg, pub)


def test_independent_commuting_d(small_field):
    rng = random.Random(7)
    pub, priv, _ = ttp_generate(8, small_field, gen_count=4, word_len=60, rng=rng, d_polynomial=True)
    assert small_field.is_invertible(priv.d_gens[0])
    asec, amsg = alice_round(pub, rng)
    bsec, bmsg = bob_round(pub, priv, rng)
    assert derive_key_alice(asec, bmsg, pub) == derive_key_bob(bsec, amsg, pub)


def concatenated_round(params, scale_gens, word_gens, rng):
    """A party round with no instance caches: a fresh closure of the scale
    generators, and a word that concatenates the generator words and their
    inverses as stored, with rng drawn as the library's round draws it."""
    fld = params.field
    basis = algebra_closure(scale_gens, fld)
    while True:
        scale = basis.combine([rng.randrange(fld.order) for _ in range(basis.dim)])
        if fld.is_invertible(scale):
            break
    parts = []
    for _ in range(rng.randint(*PRODUCT_FACTORS)):
        w = word_gens[rng.randrange(len(word_gens))]
        parts.append(w if rng.random() < 0.5 else w.inverse())
    word = BraidWord.concat(*parts)
    return PartySecret(scale, word), e_multiply(MatPerm(scale, Perm.identity(params.n)), word, params)


@pytest.mark.parametrize(
    "n, word_len, d_polynomial",
    [(12, 250, False), (20, 24, False), (8, 100, True)],
    ids=["12-250", "20-24", "8-100-d_polynomial"],
)
def test_rounds_match_concatenated_words(n, word_len, d_polynomial):
    # the conjugate form drops P^-1 P at every junction of the message
    # words, and the scale comes from the basis cached on the instance;
    # messages, scales, keys and the draws stay those of the plain words
    # over a fresh closure per round
    pub, priv, _ = ttp_generate(n, GF2m(8), 8, word_len, rng=random.Random(n), d_polynomial=d_polynomial)
    for seed in range(5):
        rng, ref = random.Random(seed), random.Random(seed)
        asec, amsg = alice_round(pub, rng)
        bsec, bmsg = bob_round(pub, priv, rng)
        ref_asec, ref_amsg = concatenated_round(pub.params, pub.c_gens, pub.a_gens, ref)
        ref_bsec, ref_bmsg = concatenated_round(pub.params, priv.d_gens, priv.b_gens, ref)
        assert rng.getstate() == ref.getstate()
        assert (amsg, bmsg) == (ref_amsg, ref_bmsg)
        for sec, ref_sec in ((asec, ref_asec), (bsec, ref_bsec)):
            assert np.array_equal(sec.matrix, ref_sec.matrix)
            assert len(sec.word) < len(ref_sec.word)
        key = derive_key_alice(asec, bmsg, pub)
        assert key == derive_key_bob(bsec, amsg, pub) == derive_key_alice(ref_asec, ref_bmsg, pub)


def same_mats(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("d_polynomial", [False, True])
def test_cached_scale_bases_equal_fresh_closures(tmp_path, d_polynomial):
    field = GF2m(8)
    pub, priv, _ = ttp_generate(8, field, 4, 60, rng=random.Random(11), d_polynomial=d_polynomial)
    loaded_pub, loaded_priv = save_and_load(tmp_path, pub, priv)
    for p, q in ((pub, priv), (loaded_pub, loaded_priv)):
        c_basis = p.c_algebra
        d_basis = q.d_algebra(p.params.field)
        assert same_mats(c_basis, algebra_closure(p.c_gens, field).mats)
        assert same_mats(d_basis, algebra_closure(q.d_gens, field).mats)
        assert q.d_algebra(p.params.field) is d_basis  # cached
        if d_polynomial:
            assert not np.array_equal(q.d_gens[0], p.c_gens[0])
            assert d_basis is not c_basis
    # with D = C generation hands Bob Alice's basis
    assert (priv.d_algebra(field) is pub.c_algebra) == (not d_polynomial)


def save_and_load(tmp_path, pub, priv):
    formats.save_instance_public(tmp_path / "pub.json", pub)
    formats.save_instance_private(tmp_path / "priv.json", priv, pub.params)
    loaded = formats.load_instance_public(tmp_path / "pub.json")
    return loaded, formats.load_instance_private(tmp_path / "priv.json", loaded.params)


@pytest.mark.parametrize("d_polynomial", [False, True])
def test_exchanges_build_no_closure_once_cached(tmp_path, monkeypatch, d_polynomial):
    counts = {"closures": 0, "generators": 0}
    closure, add_generator = linalg.algebra_closure, linalg.AlgebraClosure.add_generator

    def counted_closure(*args):
        counts["closures"] += 1
        return closure(*args)

    def counted_add(self, *args):
        counts["generators"] += 1
        return add_generator(self, *args)

    monkeypatch.setattr(protocol, "algebra_closure", counted_closure)
    monkeypatch.setattr(linalg.AlgebraClosure, "add_generator", counted_add)

    def exchange(pub, priv, seed):
        counts.update(closures=0, generators=0)
        rng = random.Random(seed)
        asec, amsg = alice_round(pub, rng)
        bsec, bmsg = bob_round(pub, priv, rng)
        assert derive_key_alice(asec, bmsg, pub) == derive_key_bob(bsec, amsg, pub)
        return dict(counts)

    pub, priv, _ = ttp_generate(8, GF2m(8), 4, 60, rng=random.Random(12), d_polynomial=d_polynomial)
    none = {"closures": 0, "generators": 0}
    assert exchange(pub, priv, 1) == exchange(pub, priv, 2) == none
    # loaded from files: one closure of one generator per side, once
    loaded_pub, loaded_priv = save_and_load(tmp_path, pub, priv)
    assert exchange(loaded_pub, loaded_priv, 3) == {"closures": 2, "generators": 2}
    assert exchange(loaded_pub, loaded_priv, 4) == none
