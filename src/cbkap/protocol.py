"""The colored Burau key agreement protocol (CBKAP).

A trusted-third-party style generator produces instances with the two
structural properties the protocol needs:

* the braid subgroups A and B act *-commutingly on matrix-permutation
  states: their generator words are a fixed random conjugate of words
  supported on disjoint strand blocks (lower half for A, upper half for
  B, skipping the middle generator entirely), so they commute exactly in
  the braid group;
* the matrix subgroups C and D commute elementwise: both are generated
  by the same matrix kappa (the image of a random braid word), or, with
  the override, D by an invertible polynomial in kappa.

Both parties run the same round on their own generators: an invertible
combination of the scaling matrices (C for Alice, D for Bob) and a
product of 10 to 20 braid generators or inverses (A for Alice, B for
Bob), published as ``c . eval(word)``.  The product is built from the
generators' conjugate form ``P . cores . P^-1`` (``braid.ConjugateForm``,
cached on the instance as ``a_form`` and ``b_form``), so the conjugator
the generators share is streamed once per word rather than twice per
factor; the word is the same braid, so messages and keys are those of
the plain concatenation.  Each derives the key the same way from the
other's message, and both keys agree exactly, which is checked by tests
and by the command-line driver on every exchange.  A Transcript always
holds both messages: the attack needs both.

Public and private material live in separate structures (and separate
files on disk) so the attack harness can be blinded by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .braid import (
    BraidWord,
    ConjugateForm,
    EvalParams,
    MatPerm,
    e_multiply,
    free_reduce,
    left_mul,
    random_word,
    word_eval_pair,
    word_perm,
)
from .field import GF2m
from .linalg import algebra_closure
from .perm import Perm

__all__ = [
    "MAX_WORD_LETTERS",
    "InstancePublic",
    "InstancePrivate",
    "TTPDebug",
    "Transcript",
    "SharedKey",
    "PartySecret",
    "ttp_generate",
    "alice_round",
    "bob_round",
    "derive_key_alice",
    "derive_key_bob",
]


# Cap on a generator word, far above generated words (650 letters at the
# tests' full size): every attack candidate streams generator words, so an
# instance with longer ones could keep any later stream running unbounded.
MAX_WORD_LETTERS = 1 << 17


@dataclass
class InstancePublic:
    """What Alice (and the adversary) sees: evaluation parameters, the A
    generator braid words, and the C generator matrices, neither list
    empty.  ``a_perms`` holds the generators' permutation parts, computed
    once here, which also checks their letter ranges; each word's length
    is capped at MAX_WORD_LETTERS."""

    params: EvalParams
    a_gens: list[BraidWord]
    c_gens: list[np.ndarray]

    def __post_init__(self):
        if not (self.a_gens and self.c_gens):
            raise ValueError("need at least one A and one C generator")
        for w in self.a_gens:
            # the stored count, not len(), which overflows past sys.maxsize
            if w._length > MAX_WORD_LETTERS:
                raise ValueError(f"braid word longer than {MAX_WORD_LETTERS} letters")
        self.a_perms = [word_perm(w, self.params.n) for w in self.a_gens]
        fld = self.params.field
        for c in self.c_gens:
            if not fld.is_invertible(c):
                raise ValueError("C generators must be invertible")

    @cached_property
    def c_algebra(self) -> list[np.ndarray]:
        """A basis of the algebra the C generators span: kept from
        generation, or computed on first use for a loaded instance.
        Alice's round samples her scale from it; the attack solves over it."""
        return algebra_closure(self.c_gens, self.params.field).mats

    @cached_property
    def a_form(self) -> ConjugateForm:
        """The A generators as ``P . core . P^-1``, built on first use:
        Alice's round and the attack stream their products from it."""
        return ConjugateForm(self.a_gens)


@dataclass
class InstancePrivate:
    """Bob's side: the B generator braid words and the D generator
    matrices (D = C unless the generator was asked for an override),
    neither list empty."""

    b_gens: list[BraidWord]
    d_gens: list[np.ndarray]
    _d_algebra: list[np.ndarray] | None = dc_field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.b_gens and self.d_gens):
            raise ValueError("need at least one B and one D generator")

    def d_algebra(self, field: GF2m) -> list[np.ndarray]:
        """A basis of the algebra the D generators span over the field of
        the public parameters: kept from generation, or computed on first
        use.  Bob's round samples his scale from it."""
        if self._d_algebra is None:
            self._d_algebra = algebra_closure(self.d_gens, field).mats
        return self._d_algebra

    @cached_property
    def b_form(self) -> ConjugateForm:
        """The B generators as ``P . core . P^-1``, built on first use."""
        return ConjugateForm(self.b_gens)


@dataclass
class TTPDebug:
    """Generation-time secrets kept only for diagnostics and tests."""

    conjugator: BraidWord
    lower_words: list[BraidWord]
    upper_words: list[BraidWord]
    kappa_word: BraidWord


@dataclass(frozen=True)
class Transcript:
    """The two messages sent over the insecure channel."""

    alice_msg: MatPerm
    bob_msg: MatPerm

    def __post_init__(self):
        if not (isinstance(self.alice_msg, MatPerm) and isinstance(self.bob_msg, MatPerm)):
            raise ValueError("a transcript holds both messages")


@dataclass
class SharedKey:
    key: MatPerm


@dataclass
class PartySecret:
    """One party's ephemeral secret: the scaling matrix and the product
    word over that party's braid generators."""

    matrix: np.ndarray
    word: BraidWord


def ttp_generate(
    n: int,
    field: GF2m,
    gen_count: int = 8,
    word_len: int = 100,
    rng=None,
    d_polynomial: bool = False,
) -> tuple[InstancePublic, InstancePrivate, TTPDebug]:
    """Generate a protocol instance.

    A generators are ``z u z^-1`` for random words u over the lower-block
    strand generators and a single random conjugator z; B generators use
    the upper block.  Each generator is freely reduced and has length
    about word_len.  kappa is the matrix of a random braid word, retried
    until its minimal polynomial has degree at least 3 so that C is not a
    scalar family.  The tau values are drawn outside {0, 1} (outside {0}
    over GF(2), which has no other choice).
    """
    if rng is None:
        raise ValueError("pass a seeded random.Random for reproducibility")
    if n < 4:
        raise ValueError("need n >= 4 for two nontrivial strand blocks")
    if gen_count < 2:
        raise ValueError("need at least 2 generators per side")
    if word_len < 2:  # one letter's matrix spans an algebra of dim <= 2
        raise ValueError("word_len must be >= 2")

    # policy: avoid 0 and 1 to dodge degenerate evaluations; over GF(2)
    # the only nonzero value is 1, which is still a valid instance
    tau_lo = 2 if field.order > 2 else 1
    tau = tuple(rng.randrange(tau_lo, field.order) for _ in range(n))
    params = EvalParams(field, n, tau)

    half = n // 2
    lower = range(1, half)  # strand generators touching strands 1..half
    upper = range(half + 1, n)  # touching strands half+1..n
    z_len = max(1, word_len // 4)
    core_len = max(1, word_len - 2 * z_len)
    z = random_word(n, z_len, rng)
    z_inv = z.inverse()

    def conjugated(strands):
        words = []
        for _ in range(gen_count):
            u = random_word(n, core_len, rng, strands=strands)
            words.append((free_reduce(z + u + z_inv), u))
        return words

    a_pairs = conjugated(lower)
    b_pairs = conjugated(upper)
    a_gens = [w for w, _ in a_pairs]
    b_gens = [w for w, _ in b_pairs]

    while True:
        kappa_word = random_word(n, word_len, rng)
        kappa = word_eval_pair(kappa_word, params).mat
        # invertible: letter determinants are +-t or +-1/t, t != 0 (InstancePublic checks)
        c_algebra = algebra_closure([kappa], field).mats
        if len(c_algebra) >= 3:
            break
    c_gens = [kappa]
    d_gens = [_sample_scale(field, c_algebra, rng) if d_polynomial else kappa]

    pub = InstancePublic(params, a_gens, c_gens)
    pub.c_algebra = c_algebra  # what the cached property would compute
    priv = InstancePrivate(b_gens, d_gens)
    priv._d_algebra = algebra_closure(d_gens, field).mats if d_polynomial else c_algebra
    debug = TTPDebug(z, [u for _, u in a_pairs], [u for _, u in b_pairs], kappa_word)

    # Construction guarantees the commuting properties; spot-check one
    # random pair of each kind so generation fails loudly if it ever breaks.
    omega = MatPerm(field.random_matrix(rng, n), Perm.random(n, rng))
    u = a_gens[rng.randrange(gen_count)]
    v = b_gens[rng.randrange(gen_count)]
    if e_multiply(e_multiply(omega, u, params), v, params) != e_multiply(
        e_multiply(omega, v, params), u, params
    ):
        raise RuntimeError("A and B generators failed to *-commute")
    if not np.array_equal(
        field.mat_mul(c_gens[0], d_gens[0]), field.mat_mul(d_gens[0], c_gens[0])
    ):
        raise RuntimeError("C and D generators failed to commute")

    return pub, priv, debug


def _sample_scale(field: GF2m, basis: list[np.ndarray], rng) -> np.ndarray:
    """Random invertible combination of an algebra's basis matrices: one
    coefficient per basis matrix per try."""
    stack = np.stack(basis)
    while True:
        c = field.dot([rng.randrange(field.order) for _ in basis], stack)
        if field.is_invertible(c):
            return c


# Each message word is a product of this many generators or inverses.
PRODUCT_FACTORS = (10, 20)


def _round(params: EvalParams, scale_basis, form: ConjugateForm, rng) -> tuple[PartySecret, MatPerm]:
    """One party's secret and message: an invertible element of the scale
    algebra, sampled from its basis (built once per instance), a product
    of the braid generators (built from their conjugate form, so the
    shared conjugator cancels at every junction), and the state
    ``scale . eval(word)``."""
    scale = _sample_scale(params.field, scale_basis, rng)
    word = form.product(
        (rng.randrange(len(form)), 1 if rng.random() < 0.5 else -1)
        for _ in range(rng.randint(*PRODUCT_FACTORS))
    )
    msg = e_multiply(MatPerm(scale, Perm.identity(params.n)), word, params)
    return PartySecret(scale, word), msg


def alice_round(pub: InstancePublic, rng) -> tuple[PartySecret, MatPerm]:
    """Alice's secret and message, over C and the A generators."""
    return _round(pub.params, pub.c_algebra, pub.a_form, rng)


def bob_round(pub: InstancePublic, priv: InstancePrivate, rng) -> tuple[PartySecret, MatPerm]:
    """Bob's secret and message, over D and the B generators."""
    return _round(pub.params, priv.d_algebra(pub.params.field), priv.b_form, rng)


def derive_key_alice(secret: PartySecret, msg: MatPerm, pub: InstancePublic) -> SharedKey:
    """A party's key: its scale acting on the other party's message
    E-multiplied by its word.  Both parties derive it alike."""
    t = e_multiply(msg, secret.word, pub.params)
    return SharedKey(left_mul(pub.params.field, secret.matrix, t))


derive_key_bob = derive_key_alice
