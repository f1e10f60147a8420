"""Shared-key recovery from public data and a transcript.

The pipeline consumes only the public instance and the two exchanged
messages; it never touches Bob's side of the instance.  It recovers the
shared key exactly, without recovering either party's secret:

* precompute: collect pure words (products over the A generator words
  whose permutation part is the identity) by powering short random
  products with small permutation order, and keep their matrix images
  as a witnessed basis V closed under products.  Collection stops when
  a run of candidates in a row adds no dimension.
* step 1: factor the permutation of Alice's message through the
  permutation images of the A generators with a stabilizer chain, expand
  the factorization to a braid word, and peel the message matrix down to
  a residual matrix ("gamma") with identity permutation part.
* step 2: solve the linear system for coefficients over the C algebra
  basis whose combination both lands in span(V) after normalizing by
  gamma^-1 and is invertible (random solutions are invertible with
  density at least 1 - n/|F|).
* step 3: split off the pure component (scale^-1 * gamma), express it
  over V, and audit the reconstruction identity: scale applied to the
  pure component, E-multiplied by the factored word, must reproduce
  Alice's message exactly.
* assembly: re-evaluate every used witness word from the state
  ``(I, h)`` (h = the permutation of Bob's message), combine with the
  expression coefficients, and push the result through Bob's message and
  the factored word.  Whenever the pipeline completes on an honest
  transcript, the output equals the shared key exactly.

When the linear step finds no solution (the collected V was too small),
the pipeline resumes the precomputation with a larger candidate budget
and retries, up to a configured number of enlargements.
"""

from __future__ import annotations

import random as _random
import resource
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .braid import BraidWord, MatPerm, e_multiply, word_eval_pair, word_perm
from .field import GF2m
from .linalg import (
    AlgebraClosure,
    InvertibleSampleFailed,
    NoSolution,
    NotInSpan,
    algebra_closure,
    sample_invertible,
    solve_membership,
)
from .perm import NotInGroup, Perm, StabilizerChain
from .protocol import InstancePublic, Transcript

__all__ = [
    "AttackConfig",
    "AttackStats",
    "AttackArtifacts",
    "PureBasis",
    "PureElementSearchExhausted",
    "GNotExpressible",
    "AlphaPrimeOutsideV",
    "AttackFailed",
    "precompute_pure_basis",
    "extend_pure_basis",
    "factor_permutation",
    "solve_scale",
    "split_pure_part",
    "verify_reconstruction",
    "recover_key",
    "attack_run",
]


class PureElementSearchExhausted(RuntimeError):
    """No candidate with a small-order permutation part was found."""


class GNotExpressible(ValueError):
    """The transcript permutation is outside the group generated by the
    permutation parts of the A generators."""


class AlphaPrimeOutsideV(ValueError):
    """The pure component fell outside the collected span; V is too small."""


class AttackFailed(RuntimeError):
    """Terminal pipeline failure, tagged with the failing stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@dataclass
class AttackConfig:
    candidate_draws: tuple[int, int] = (2, 10)  # generator draws per candidate
    order_cap: int | None = None  # permutation-order filter; defaults to n
    stall: int = 4  # consecutive no-growth candidates before stopping
    filter_budget: int = 512  # consecutive order-filter rejections tolerated
    max_candidates: int = 4096  # hard safety cap per collection round
    enlargement_rounds: int = 3  # precomputation resumptions on failure
    sample_tries: int = 64  # invertible-sampling budget per attempt

    def __post_init__(self):
        if self.stall < 1:
            raise ValueError("stall must be >= 1")


@dataclass
class AttackStats:
    dim_v: int = 0
    candidates: int = 0
    enlargements: int = 0
    factor_letters: int = 0
    scale_tries: int = 0
    precompute_seconds: float = 0.0
    factor_seconds: float = 0.0
    scale_seconds: float = 0.0
    split_seconds: float = 0.0
    recover_seconds: float = 0.0
    total_seconds: float = 0.0
    peak_rss_mb: float = 0.0

    def to_dict(self) -> dict:
        return {k: (round(v, 6) if isinstance(v, float) else v) for k, v in vars(self).items()}


@dataclass
class PureBasis:
    """The product-closed basis V of pure-word images, plus collection
    statistics.  Every collected pure word is kept in the closure as the
    witness of the generator it added."""

    closure: AlgebraClosure
    candidates: int = 0

    @property
    def basis(self):
        return self.closure.basis

    @property
    def dim(self) -> int:
        return self.closure.dim


@dataclass
class AttackArtifacts:
    """Everything recovered before key assembly.

    ``perm_word`` is the braid word over the A generators matching the
    transcript permutation; ``residual`` the peeled message matrix;
    ``scale`` the invertible C-algebra element with its coefficients;
    ``pure_part`` equals scale^-1 * residual and ``pure_coeffs`` express
    it over the pure basis.
    """

    perm_word: BraidWord
    residual: np.ndarray
    scale: np.ndarray
    scale_coeffs: np.ndarray
    pure_part: np.ndarray
    pure_coeffs: np.ndarray


def _candidate_words(pub: InstancePublic, rng, config: AttackConfig):
    """Yield an endless stream of candidate words over the A generators."""
    gens = pub.a_gens
    lo, hi = config.candidate_draws
    while True:
        parts = []
        for _ in range(rng.randint(lo, hi)):
            w = gens[rng.randrange(len(gens))]
            parts.append(w if rng.random() < 0.5 else w.inverse())
        yield BraidWord.concat(*parts)


def _collect_pure(
    pub: InstancePublic,
    pure: PureBasis,
    rng,
    config: AttackConfig,
    candidate_cap: int | None,
) -> int:
    """Feed pure candidates into the closure until the stall criterion
    (or the candidate cap) is hit; returns candidates consumed."""
    params = pub.params
    n = params.n
    order_cap = config.order_cap if config.order_cap is not None else n
    cap = candidate_cap if candidate_cap is not None else config.max_candidates
    stream = _candidate_words(pub, rng, config)
    consumed = 0
    stall = 0
    rejections = 0
    while stall < config.stall and consumed < cap:
        word = next(stream)
        r = word_perm(word, n).order()
        if r > order_cap:
            rejections += 1
            if rejections >= config.filter_budget:
                raise PureElementSearchExhausted(
                    f"{rejections} candidates in a row exceeded order {order_cap}"
                )
            continue
        rejections = 0
        if r > 1:
            word = word.power(r)
        consumed += 1
        if pure.closure.add_generator(word_eval_pair(word, params).mat, word):
            stall = 0
        else:
            stall += 1
    pure.candidates += consumed
    return consumed


def precompute_pure_basis(
    pub: InstancePublic, rng, config: AttackConfig | None = None
) -> PureBasis:
    """Collect a witnessed basis of pure-word images, closed under
    products.

    Candidates are short random products over the A generators; those
    whose permutation part has order above the cap (default n) are
    discarded, the rest are raised to that order to become pure words.
    Collection stops after the configured number of consecutive
    candidates adds no dimension.
    """
    config = config or AttackConfig()
    if not pub.a_gens:
        raise ValueError("instance has no A generators")
    pure = PureBasis(AlgebraClosure(pub.params.field, pub.params.n))
    _collect_pure(pub, pure, rng, config, candidate_cap=None)
    return pure


def extend_pure_basis(
    pub: InstancePublic, pure: PureBasis, rng, extra_candidates: int, config: AttackConfig
) -> int:
    """Resume collection for up to extra_candidates more candidates;
    returns the dimension growth."""
    before = pure.dim
    _collect_pure(pub, pure, rng, config, candidate_cap=extra_candidates)
    return pure.dim - before


def factor_permutation(
    pub: InstancePublic,
    msg: MatPerm,
    chain: StabilizerChain | None = None,
) -> tuple[BraidWord, np.ndarray]:
    """Express the message permutation over the A generators and peel the
    message matrix down to a residual with identity permutation part.

    Builds a stabilizer chain over the permutation images of the A
    generators, factors the permutation, and expands the factorization to
    a braid word (inverse labels become reversed-inverted generator
    words).  The residual is the message matrix times the inverse of the
    word's evaluated matrix, which is exactly the message E-multiplied by
    the inverse pair.  Raises GNotExpressible when the permutation is
    outside the generated group (the instance is then outside the
    attackable family).
    """
    params = pub.params
    n = params.n
    if chain is None:
        chain = StabilizerChain([word_perm(w, n) for w in pub.a_gens], n)
    try:
        gen_word = chain.factor(msg.perm)
    except NotInGroup as exc:
        raise GNotExpressible(str(exc)) from exc
    parts = [
        pub.a_gens[label] if exp > 0 else pub.a_gens[label].inverse()
        for label, exp in gen_word
    ]
    word = BraidWord.concat(*parts) if parts else BraidWord()
    ev = word_eval_pair(word, params)
    if ev.perm != msg.perm:  # pragma: no cover - the chain factors exactly
        raise GNotExpressible("factored word does not reproduce the permutation")
    fld = params.field
    residual = fld.mat_mul(msg.mat, fld.mat_inv(ev.mat))
    return word, residual


def solve_scale(
    residual: np.ndarray,
    c_gens: Sequence[np.ndarray],
    pure: PureBasis,
    field: GF2m,
    rng,
    max_tries: int = 64,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Find an invertible element of the C algebra whose normalization by
    the residual lands in span(V).

    Builds the power basis of the C generators, solves the linear
    membership system, and samples solutions until one is invertible.
    Returns (scale, coefficients, tries).  NoSolution propagates when V
    is too small; callers enlarge V and retry.
    """
    kappas = algebra_closure(list(c_gens), field).mats
    space = solve_membership(field.mat_inv(residual), kappas, pure.basis, field)
    return sample_invertible(space, kappas, field, rng, max_tries=max_tries)


def split_pure_part(
    scale: np.ndarray, residual: np.ndarray, pure: PureBasis, field: GF2m
) -> tuple[np.ndarray, np.ndarray]:
    """The pure component scale^-1 * residual and its coefficients over V.

    Its inverse lies in span(V) by construction of the scale, and V is
    closed under products, so the component itself lies in V; if the
    expression still fails the collected V was too small
    (AlphaPrimeOutsideV) and the caller enlarges it.
    """
    part = field.mat_mul(field.mat_inv(scale), residual)
    try:
        coeffs = pure.basis.express(part)
    except NotInSpan as exc:
        raise AlphaPrimeOutsideV(str(exc)) from exc
    return part, coeffs


def verify_reconstruction(
    pub: InstancePublic, alice_msg: MatPerm, artifacts: AttackArtifacts
) -> bool:
    """Audit: scale applied to (pure_part, e), E-multiplied by the
    factored word, must equal Alice's message exactly."""
    params = pub.params
    fld = params.field
    start = MatPerm(artifacts.pure_part, Perm.identity(params.n))
    t = e_multiply(start, artifacts.perm_word, params)
    rebuilt = MatPerm(fld.mat_mul(artifacts.scale, t.mat), t.perm)
    return rebuilt == alice_msg


def recover_key(
    pub: InstancePublic, transcript: Transcript, pure: PureBasis, artifacts: AttackArtifacts
) -> MatPerm:
    """Assemble the shared key from the recovered artifacts.

    Each pure basis element is re-evaluated from the state (I, h), which
    yields its matrix with the variables twisted by the permutation h of
    Bob's message.  Twisted evaluation is multiplicative over pure-word
    concatenation, so only the collected generator words are re-streamed
    and the closure recipes rebuild the rest by matrix products.  The
    twisted combination then rides through Bob's message and the factored
    word under the recovered scale.
    """
    params = pub.params
    fld = params.field
    n = params.n
    if transcript.bob_msg is None:
        raise ValueError("transcript is missing Bob's message")
    h = transcript.bob_msg.perm
    q = transcript.bob_msg.mat
    seed = MatPerm(fld.identity(n), h)
    gen_images = [
        e_multiply(seed, witness, params).mat for _, witness in pure.closure.generators
    ]
    twisted_basis = pure.closure.rebuild(gen_images)
    twisted = fld.zeros(n)
    for coeff, mat in zip(artifacts.pure_coeffs, twisted_basis):
        if coeff:
            twisted ^= fld.mul_vec(mat, int(coeff))
    state = MatPerm(fld.mat_mul(q, twisted), h)
    t = e_multiply(state, artifacts.perm_word, params)
    return MatPerm(fld.mat_mul(artifacts.scale, t.mat), t.perm)


def attack_run(
    pub: InstancePublic,
    transcript: Transcript,
    rng,
    config: AttackConfig | None = None,
) -> tuple[MatPerm, AttackStats]:
    """Run the full pipeline against a public instance and transcript.

    On a linear-step failure the precomputation is resumed (each
    resumption may consume up to twice the initial candidate count)
    before the scale and split steps are retried.  Terminal failures
    raise AttackFailed tagged with the stage name.
    """
    config = config or AttackConfig()
    stats = AttackStats()
    t_start = time.perf_counter()
    fld = pub.params.field
    if transcript.bob_msg is None:
        raise AttackFailed("input", "transcript is missing Bob's message")

    # independent child streams: the number of candidates drawn cannot
    # shift the solution sampling
    rng_candidates = _random.Random(rng.getrandbits(64))
    rng_samples = _random.Random(rng.getrandbits(64))

    t0 = time.perf_counter()
    try:
        pure = precompute_pure_basis(pub, rng_candidates, config)
    except PureElementSearchExhausted as exc:
        raise AttackFailed("precompute", str(exc)) from exc
    initial_candidates = pure.candidates
    stats.precompute_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        perm_word, residual = factor_permutation(pub, transcript.alice_msg)
    except GNotExpressible as exc:
        raise AttackFailed("factor", str(exc)) from exc
    stats.factor_letters = len(perm_word)
    stats.factor_seconds = time.perf_counter() - t0

    artifacts = None
    for round_no in range(config.enlargement_rounds + 1):
        try:
            t0 = time.perf_counter()
            scale, scale_coeffs, tries = solve_scale(
                residual, pub.c_gens, pure, fld, rng_samples, max_tries=config.sample_tries
            )
            stats.scale_tries += tries
            stats.scale_seconds += time.perf_counter() - t0
            t0 = time.perf_counter()
            pure_part, pure_coeffs = split_pure_part(scale, residual, pure, fld)
            stats.split_seconds += time.perf_counter() - t0
            artifacts = AttackArtifacts(
                perm_word, residual, scale, scale_coeffs, pure_part, pure_coeffs
            )
            break
        except (NoSolution, InvertibleSampleFailed, AlphaPrimeOutsideV) as exc:
            if round_no == config.enlargement_rounds:
                stage = "split" if isinstance(exc, AlphaPrimeOutsideV) else "scale"
                raise AttackFailed(stage, str(exc)) from exc
            stats.enlargements += 1
            t0 = time.perf_counter()
            extend_pure_basis(
                pub, pure, rng_candidates, 2 * max(initial_candidates, 1), config
            )
            stats.precompute_seconds += time.perf_counter() - t0

    if not verify_reconstruction(pub, transcript.alice_msg, artifacts):
        raise AttackFailed("audit", "reconstruction identity does not hold")

    t0 = time.perf_counter()
    key = recover_key(pub, transcript, pure, artifacts)
    stats.recover_seconds = time.perf_counter() - t0

    stats.dim_v = pure.dim
    stats.candidates = pure.candidates
    stats.total_seconds = time.perf_counter() - t_start
    stats.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return key, stats
