import random

import pytest

from cbkap.braid import BraidWord
from cbkap.field import GF2m
from cbkap.protocol import alice_round, bob_round, derive_key_alice, ttp_generate

SMALL = dict(n=8, gen_count=8, word_len=100)
FULL = dict(n=16, gen_count=8, word_len=650)


def expand_recipes(closure):
    """A witness word for every basis element of an AlgebraClosure, in
    basis order, from its recipes and the generator witness words."""
    words = []
    for recipe in closure.recipes:
        kind = recipe[0]
        if kind == "one":
            words.append(BraidWord())
        elif kind == "gen":
            words.append(closure.generators[recipe[1]][1])
        elif kind == "gb":
            words.append(closure.generators[recipe[1]][1] + words[recipe[2]])
        else:
            words.append(words[recipe[1]] + closure.generators[recipe[2]][1])
    return words


@pytest.fixture(scope="session")
def basis_words():
    return expand_recipes


@pytest.fixture(scope="session")
def small_field():
    return GF2m(5)


@pytest.fixture(scope="session")
def full_field():
    return GF2m(8)


@pytest.fixture(scope="session")
def small_instance(small_field):
    rng = random.Random(0xD15C)
    return ttp_generate(SMALL["n"], small_field, SMALL["gen_count"], SMALL["word_len"], rng=rng)


@pytest.fixture(scope="session")
def full_instance(full_field):
    rng = random.Random(0xBEEF)
    return ttp_generate(FULL["n"], full_field, FULL["gen_count"], FULL["word_len"], rng=rng)


@pytest.fixture(scope="session")
def small_exchange(small_instance):
    """One honest exchange on the small instance: secrets, messages, key."""
    pub, priv, _ = small_instance
    rng = random.Random(0xE0)
    alice_secret, alice_msg = alice_round(pub, rng)
    bob_secret, bob_msg = bob_round(pub, priv, rng)
    key = derive_key_alice(alice_secret, bob_msg, pub)
    return alice_secret, alice_msg, bob_secret, bob_msg, key
