import itertools
import random

import pytest

from cbkap.perm import (
    NotInGroup,
    Perm,
    StabilizerChain,
    evaluate_genword,
    genword_from_signed_labels,
    genword_to_signed_labels,
    invert_genword,
)


def compose_pointwise(a, b):
    """Independent oracle: apply a first, then b."""
    return Perm(b(a(i)) for i in range(a.n))


def enumerate_group(gens, n):
    """Brute-force closure of the generated group (small n only)."""
    seen = {Perm.identity(n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                for q in (p * g, p * g.inverse()):
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
        frontier = nxt
    return seen


def test_compose_basics():
    e = Perm.identity(5)
    rng = random.Random(0)
    for _ in range(50):
        g = Perm.random(5, rng)
        assert e * g == g
        assert g * g.inverse() == e
        h = Perm.random(5, rng)
        assert g * h == compose_pointwise(g, h)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        Perm.identity(3) * Perm.identity(4)


def test_order():
    assert Perm.identity(5).order() == 1
    three_cycle = Perm([1, 2, 0, 3, 4])
    assert three_cycle.order() == 3
    two_and_three = Perm([1, 0, 3, 4, 2])  # (1 2)(3 4 5)
    assert two_and_three.order() == 6


def test_order_divides_group_order():
    rng = random.Random(1)
    gens = [Perm.random(6, rng) for _ in range(2)]
    chain = StabilizerChain(gens, 6)
    order = chain.order()
    for p in itertools.islice(enumerate_group(gens, 6), 100):
        assert order % p.order() == 0


def test_chain_trivial_group():
    chain = StabilizerChain([Perm.identity(4)], 4)
    assert chain.order() == 1
    word = chain.factor(Perm.identity(4))
    assert evaluate_genword(word, [Perm.identity(4)], 4).is_identity()
    with pytest.raises(NotInGroup):
        chain.factor(Perm.transposition(4, 0))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_chain_symmetric_group(n):
    gens = [Perm.transposition(n, 0), Perm(list(range(1, n)) + [0])]
    chain = StabilizerChain(gens, n)
    expected = 1
    for k in range(2, n + 1):
        expected *= k
    assert chain.order() == expected
    assert chain.order() == len(enumerate_group(gens, n))


def test_chain_three_cycle_in_s4():
    g = Perm([1, 2, 0, 3])  # (1 2 3) fixing point 4
    chain = StabilizerChain([g], 4)
    assert chain.order() == 3
    for _, transversal in chain.levels:
        for p, _ in transversal.values():
            assert p(3) == 3


def test_chain_membership_matches_enumeration():
    rng = random.Random(2)
    gens = [Perm.random(5, rng) for _ in range(2)]
    chain = StabilizerChain(gens, 5)
    group = enumerate_group(gens, 5)
    assert chain.order() == len(group)
    for p in group:
        assert p in chain
    for _ in range(50):
        p = Perm.random(5, rng)
        assert (p in chain) == (p in group)


def test_transversal_witness_words_are_sound():
    rng = random.Random(9)
    gens = [Perm.random(7, rng) for _ in range(3)]
    chain = StabilizerChain(gens, 7)
    for _, transversal in chain.levels:
        for perm, word in transversal.values():
            assert evaluate_genword(word, gens, 7) == perm


def test_factor_declared_generator():
    rng = random.Random(3)
    gens = [Perm.random(6, rng) for _ in range(3)]
    chain = StabilizerChain(gens, 6)
    for g in gens:
        word = chain.factor(g)
        assert evaluate_genword(word, gens, 6) == g


def test_factor_random_products_in_s16():
    # generators of the shape the key-recovery pipeline factors through:
    # a fixed conjugate of permutations supported on an 8-point block
    rng = random.Random(4)
    z = Perm.random(16, rng)
    z_inv = z.inverse()
    gens = []
    for _ in range(5):
        img = list(range(16))
        block = img[:8]
        rng.shuffle(block)
        img[:8] = block
        gens.append(z_inv * Perm(img) * z)
    chain = StabilizerChain(gens, 16)
    for trial in range(30):
        g = Perm.identity(16)
        for _ in range(20):
            pick = gens[rng.randrange(len(gens))]
            g = g * (pick if rng.random() < 0.5 else pick.inverse())
        word = chain.factor(g)
        assert evaluate_genword(word, gens, 16) == g, trial


def test_factor_full_symmetric_group_s8():
    gens = [Perm.transposition(8, 0), Perm(list(range(1, 8)) + [0])]
    chain = StabilizerChain(gens, 8)
    assert chain.order() == 40320
    rng = random.Random(8)
    for trial in range(20):
        g = Perm.random(8, rng)
        word = chain.factor(g)
        assert evaluate_genword(word, gens, 8) == g, trial


def test_factor_not_in_group():
    g = Perm([1, 2, 0, 3, 4])  # 3-cycle, even
    chain = StabilizerChain([g], 5)
    with pytest.raises(NotInGroup):
        chain.factor(Perm.transposition(5, 3))


def test_genword_signed_label_round_trip():
    word = ((0, 1), (2, -1), (1, 1), (0, -1))
    labels = genword_to_signed_labels(word)
    assert labels == [1, -3, 2, -1]
    assert genword_from_signed_labels(labels) == word
    with pytest.raises(ValueError):
        genword_from_signed_labels([0])


def test_invert_genword():
    rng = random.Random(5)
    gens = [Perm.random(7, rng) for _ in range(3)]
    word = tuple((rng.randrange(3), rng.choice((1, -1))) for _ in range(12))
    fwd = evaluate_genword(word, gens, 7)
    back = evaluate_genword(invert_genword(word), gens, 7)
    assert (fwd * back).is_identity()
