import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbkap import perm
from cbkap.field import GF2m
from cbkap.perm import (
    NotInGroup,
    Perm,
    StabilizerChain,
    WordTooLong,
    evaluate_genword,
    invert_genword,
    shortest_word,
)
from cbkap.protocol import ttp_generate


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


def test_invert_genword():
    rng = random.Random(5)
    gens = [Perm.random(7, rng) for _ in range(3)]
    word = tuple((rng.randrange(3), rng.choice((1, -1))) for _ in range(12))
    fwd = evaluate_genword(word, gens, 7)
    back = evaluate_genword(invert_genword(word), gens, 7)
    assert (fwd * back).is_identity()


def test_constructor_rejects_non_bijections():
    for bad in ([0, 0, 1], [1, 2], [0, 2], [-1, 0]):
        with pytest.raises(ValueError):
            Perm(bad)
    for bad in ([1, 1, 2], [2, 3], [0, 1]):
        with pytest.raises(ValueError):
            Perm.from_one_line(bad)


@st.composite
def perm_pairs(draw):
    n = draw(st.integers(0, 12))
    a, b = (Perm(draw(st.permutations(range(n)))) for _ in range(2))
    return a, b


@settings(max_examples=200, deadline=None)
@given(perm_pairs())
def test_products_and_inverses_are_bijections(pair):
    # products and inverses skip validation; rebuilding them through the
    # checking constructor must accept them unchanged
    a, b = pair
    for p in (a * b, b * a, a.inverse(), a * b.inverse()):
        assert type(p.images) is tuple and all(type(v) is int for v in p.images)
        assert Perm(p.images) == p
    assert a * b == compose_pointwise(a, b)
    assert (a * a.inverse()).is_identity() and (a.inverse() * a).is_identity()


def test_compose_smallest_sizes():
    e0, e1 = Perm.identity(0), Perm.identity(1)
    assert (e0 * e0).images == () and e0.inverse() == e0 and e0.is_identity()
    assert (e1 * e1).images == (0,) and e1.inverse().images == (0,) and e1.is_identity()
    swap, e2 = Perm([1, 0]), Perm.identity(2)
    assert (swap * e2).images == (1, 0) and (e2 * swap).images == (1, 0)
    assert (swap * swap).images == (0, 1) and swap.inverse() == swap
    assert not swap.is_identity()


def conjugate(gens, n, rng):
    z = Perm.random(n, rng)
    return [z.inverse() * g * z for g in gens]


def shuffled_on(n, points, rng):
    img = list(range(n))
    moved = list(points)
    rng.shuffle(moved)
    for src, dst in zip(points, moved):
        img[src] = dst
    return Perm(img)


def seeded_group(kind, n, rng):
    """Generators of a seeded group of the given kind on n points."""
    if kind == "trivial":
        return [Perm.identity(n)]
    if kind == "symmetric":
        return [Perm.transposition(n, 0), Perm(list(range(1, n)) + [0])] if n > 1 else [Perm.identity(n)]
    if kind == "random":
        return [Perm.random(n, rng) for _ in range(3)]
    if kind == "intransitive":
        half = max(1, n // 2)
        gens = [shuffled_on(n, range(half), rng), shuffled_on(n, range(half, n), rng)]
        gens += [shuffled_on(n, range(half), rng)] if half > 1 else []
        return conjugate(gens, n, rng)
    # wreath type S_size wr S_k: the symmetric group on the first block of
    # `size` points, and permutations of whole blocks
    size = 4 if n % 4 == 0 and n > 4 else 2
    k = n // size
    if k < 1:
        return [Perm.identity(n)]
    blocks = lambda order: [b * size + j for b in order for j in range(size)] + list(range(k * size, n))
    in_block = list(range(1, size)) + [0] + list(range(size, n))
    gens = [Perm.transposition(n, 0), Perm(in_block), Perm(blocks(list(range(1, k)) + [0]))]
    if k > 1:
        gens.append(Perm(blocks([1, 0] + list(range(2, k)))))
    return conjugate(gens, n, rng)


def assert_same_chain(gens, n, reference_chain, rng):
    chain, ref = StabilizerChain(gens, n), reference_chain(gens, n)
    assert chain.order() == ref.order()
    for (pt, trans), (ref_pt, ref_trans) in zip(chain.levels, ref.levels, strict=True):
        assert pt == ref_pt and trans == ref_trans
    assert [lvl.gens for lvl in chain._levels] == ref.strong_generators
    samples = list(gens)
    for _ in range(10):
        g = Perm.identity(n)
        for _ in range(8):
            pick = gens[rng.randrange(len(gens))]
            g = g * (pick if rng.random() < 0.5 else pick.inverse())
        samples.append(g)
    samples += [Perm.random(n, rng) for _ in range(5)]
    for g in samples:
        try:
            expected = ref.factor(g)
        except NotInGroup:
            with pytest.raises(NotInGroup):
                chain.factor(g)
            assert g not in chain
            continue
        assert chain.factor(g) == expected
        assert g in chain


# Random generators give S_n or A_n with witness words that grow
# exponentially down the chain, so they are used up to n=8, plus n=14,
# where words reach 10^5 letters and the reference still builds in
# about half a second.  The reference has no word cap, so the chain's is
# lifted here: these cases compare the algorithm, and
# test_chain_caps_word_letters tests the cap.
@pytest.mark.parametrize(
    "kind, n",
    [
        (kind, n)
        for kind in ("trivial", "symmetric", "random", "intransitive", "wreath")
        for n in (1, 2, 3, 8, 20)
        if kind != "random" or n <= 8
    ]
    + [("random", 14)],
)
def test_chain_matches_reference(kind, n, reference_chain, monkeypatch):
    monkeypatch.setattr(perm, "MAX_CHAIN_LETTERS", 1 << 30)
    rng = random.Random(1000 * n + len(kind))
    assert_same_chain(seeded_group(kind, n, rng), n, reference_chain, rng)


def test_chain_matches_reference_on_attack_sized_generators(reference_chain):
    # the A-generator permutations of an instance at the size of the
    # benchmark's wide workload: n=20, 8 generators of 24 letters
    for seed in (1, 2):
        pub, _, _ = ttp_generate(20, GF2m(8), 8, 24, rng=random.Random(seed))
        assert_same_chain(pub.a_perms, 20, reference_chain, random.Random(seed))


def test_chain_caps_word_letters(monkeypatch):
    # three random generators on 14 points need strong generators of
    # over 10^5 letters; the build stops at the cap instead
    rng = random.Random(14)
    with pytest.raises(WordTooLong):
        StabilizerChain([Perm.random(14, rng) for _ in range(3)], 14)
    # a chain within the cap still refuses a factored word beyond it
    gens = [Perm.random(8, rng) for _ in range(3)]
    chain = StabilizerChain(gens, 8)
    longest = max(len(gw) for lvl in chain._levels for _, gw in lvl.gens)
    g = max((Perm.random(8, rng) for _ in range(20)), key=lambda p: len(chain.factor(p)))
    assert len(chain.factor(g)) > longest
    monkeypatch.setattr(perm, "MAX_CHAIN_LETTERS", longest)
    chain = StabilizerChain(gens, 8)
    with pytest.raises(WordTooLong):
        chain.factor(g)
    assert g in chain  # membership tracks no word


def alternating_gens(n, points):
    """The 3-cycles (p0 p1 p) for the later points p: they generate the
    alternating group on the given points, fixing the rest of 0..n-1."""
    gens = []
    for p in points[2:]:
        img = list(range(n))
        img[points[0]], img[points[1]], img[p] = points[1], p, points[0]
        gens.append(Perm(img))
    return gens


def bfs_distances(gens, n):
    """Brute force: generator letters from the identity to every element."""
    dist = {Perm.identity(n): 0}
    frontier = list(dist)
    signed = [q for g in gens for q in (g, g.inverse())]
    while frontier:
        nxt = []
        for p in frontier:
            for q in signed:
                r = p * q
                if r not in dist:
                    dist[r] = dist[p] + 1
                    nxt.append(r)
        frontier = nxt
    return dist


@pytest.mark.parametrize(
    "kind, n",
    [("alternating", k) for k in (3, 4, 5, 6, 7)]
    + [("alternating_on_some", 8), ("symmetric", 6), ("random", 6), ("random", 7)]
    + [("intransitive", n) for n in (4, 7, 8)]
    + [("wreath", 8), ("trivial", 5)],
)
def test_shortest_word_has_bfs_length(kind, n):
    rng = random.Random(50 * n + len(kind))
    if kind == "alternating":
        gens = alternating_gens(n, list(range(n)))
    elif kind == "alternating_on_some":  # A_5 on 5 of the 8 points
        gens = alternating_gens(n, [6, 1, 3, 7, 4])
    else:
        gens = seeded_group(kind, n, rng)
    dist = bfs_distances(gens, n)
    elements = list(dist)
    targets = elements if len(elements) <= 400 else rng.sample(elements, 60) + gens
    for g in targets:
        word, states = shortest_word(gens, g, n)
        assert word is not None and len(word) == dist[g]
        assert evaluate_genword(word, gens, n) == g
        assert 0 < states <= 2 * len(elements)


def test_shortest_word_of_identity_is_empty():
    gens = alternating_gens(6, list(range(6)))
    assert shortest_word(gens, Perm.identity(6), 6)[0] == ()
    assert shortest_word([Perm.identity(4)], Perm.identity(4), 4)[0] == ()


def test_shortest_word_refuses_a_point_outside_the_support():
    # the generators move 0..4; g also moves 5, so no state is stored
    gens = alternating_gens(8, list(range(5)))
    g = gens[0] * Perm.transposition(8, 5)
    assert shortest_word(gens, g, 8) == (None, 0)
    # a state packs 16 images into 64 bits: a 16-cycle is searched, while
    # a 17-cycle is left to the chain
    for k, found in ((16, ((0, 1),)), (17, None)):
        cycle = Perm(list(range(1, k)) + [0, k])
        assert shortest_word([cycle], cycle, k + 1)[0] == found
        assert StabilizerChain([cycle], k + 1).factor(cycle) == ((0, 1),)


def test_shortest_word_exhausts_the_group_on_a_non_member():
    # an odd permutation of the support is outside A_6
    gens = alternating_gens(6, list(range(6)))
    word, states = shortest_word(gens, Perm.transposition(6, 2), 6)
    assert word is None and 360 <= states <= perm.SEARCH_STATES  # one side holds all of A_6
    with pytest.raises(NotInGroup):
        StabilizerChain(gens, 6).factor(Perm.transposition(6, 2))


def test_shortest_word_gives_up_past_the_state_cap(monkeypatch):
    # S_7 from a transposition and a 7-cycle: the reversal needs many
    # letters, so a cap of 50 states is reached first
    gens = seeded_group("symmetric", 7, None)
    g = Perm(range(6, -1, -1))
    word, states = shortest_word(gens, g, 7)
    assert word is not None and len(word) > 4 and states > 50
    monkeypatch.setattr(perm, "SEARCH_STATES", 50)
    word, states = shortest_word(gens, g, 7)
    # at most 50 states stored, and a layer of at most 4 products each refused
    assert word is None and 50 < states <= 50 + 4 * 50
