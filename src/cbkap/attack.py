"""Shared-key recovery from public data and a transcript.

The pipeline consumes only the public instance and the two exchanged
messages; it never touches Bob's side of the instance.  It recovers the
shared key exactly, without recovering either party's secret:

* step 1: write the permutation of Alice's message as a shortest word
  over the permutation images of the A generators (a stabilizer chain
  factors it when that search gives up), expand the word to a braid
  word, and peel the message matrix down to a residual matrix ("gamma")
  with identity permutation part.  The same stream evaluates the word
  from (I, h), h the permutation of Bob's message.  Every product of A
  generators here and below (this word and the candidates) is built from
  the generators' conjugate form ``P . cores . P^-1``
  (``InstancePublic.a_form``): the shared conjugator P is not streamed
  at the junctions, and adjacent inverse generator letters cancel first.
* precompute: collect pure words (products over the A generator words
  whose permutation part is the identity) by raising short random
  products (of 2 to 3 generators in the first round, 1 to 10 in
  enlargement rounds) whose permutation has order r <= n to the r-th
  power, and keep their matrix images as a witnessed basis V closed under
  products.  One stream of w serves 2r starts: from the twists g^k (g
  the permutation of w) it gives the image of w^r, and from h g^k that
  image from (I, h), kept when w^r grows V.  One collection call returns
  at the first candidate that grows V, or at the end of the round, when
  a run of candidates in a row adds no dimension.  Steps 2 and 3 are tried
  after every such call (unless V is unchanged since a try that only a
  larger V can pass), and collection stops at the first success.
* step 2: solve the linear system for coefficients over the C algebra
  basis whose combination both lands in span(V) after normalizing by
  gamma^-1 and is invertible (random solutions are invertible with
  density at least 1 - n/|F|).
* step 3: split off the pure component (scale^-1 * gamma), express it
  over V, and audit the reconstruction identity: scale applied to the
  pure component, E-multiplied by the factored word, must reproduce
  Alice's message exactly.
* assembly: rebuild V's images from (I, h) from the kept generator
  images by the closure recipes (nothing is streamed), combine them with
  the expression coefficients, and multiply by Bob's message matrix and
  the factored word's image from (I, h).  Whenever the pipeline
  completes on an honest transcript, the output equals the shared key
  exactly.

When a round ends without success (the collected V was too small), the
pipeline starts another round, up to a configured number of
enlargements; all rounds together draw at most MAX_CANDIDATES
candidates.  A failed try never ends the pipeline early, so the
candidates it consumes are a prefix of those a full collection would
draw from the same seed.

Each stage's time, a failing stage's included, is added up in
AttackStats by its ``stage`` meter.
"""

from __future__ import annotations

import functools
import random as _random
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .braid import BraidWord, EvalParams, MatPerm, e_multiply
from .field import GF2m, SingularMatrix
from .linalg import (
    AlgebraClosure,
    InvertibleSampleFailed,
    NoSolution,
    NotInSpan,
    sample_invertible,
    solve_membership,
)
from .perm import (
    NotInGroup,
    Perm,
    StabilizerChain,
    WordTooLong,
    evaluate_genword,
    random_genword,
    shortest_word,
)
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
    """Terminal pipeline failure, tagged with the failing stage and
    carrying the statistics gathered up to it."""

    def __init__(self, stage: str, message: str, stats: "AttackStats"):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.stats = stats
        stats.failed_stage = stage


# Candidates in a row of permutation order above n before collection gives
# up, and candidates one attack draws over all its rounds.  Neither binds on
# honest instances: the most any measured attack drew is 22 candidates.
FILTER_BUDGET = 512
MAX_CANDIDATES = 4096
# Generators per candidate product, (fewest, most): short products stream
# the fewest letters and suffice for most first rounds; the long ones an
# enlargement round draws reach the V that small fields need.
FIRST_ROUND_GENS = (2, 3)
ENLARGEMENT_GENS = (1, 10)


@dataclass
class AttackConfig:
    stall: int = 4  # consecutive no-growth candidates that end a round
    enlargement_rounds: int = 3  # rounds run after the first one fails

    def __post_init__(self):
        if self.stall < 1 or self.enlargement_rounds < 0:
            raise ValueError("need stall >= 1 and enlargement_rounds >= 0")


@dataclass
class AttackStats:
    dim_v: int = 0
    candidates: int = 0
    enlargements: int = 0
    factor_letters: int = 0  # braid letters of the factored word, P cancelled at its junctions
    search_states: int = 0  # perm.shortest_word's count, met or given up
    scale_tries: int = 0
    precompute_seconds: float = 0.0
    factor_seconds: float = 0.0
    scale_seconds: float = 0.0
    split_seconds: float = 0.0
    audit_seconds: float = 0.0
    recover_seconds: float = 0.0
    total_seconds: float = 0.0
    peak_rss_mb: float = 0.0
    failed_stage: str | None = None

    def to_dict(self) -> dict:
        return {k: (round(v, 6) if isinstance(v, float) else v) for k, v in vars(self).items()}

    @contextmanager
    def stage(self, name: str, *fatal: type[Exception]):
        """Add the block's time to ``<name>_seconds``, also when it
        raises; an exception of a fatal type becomes AttackFailed(name)."""
        t0 = time.perf_counter()
        try:
            yield
        except fatal as exc:
            raise AttackFailed(name, str(exc), self) from exc
        finally:
            attr = f"{name}_seconds"
            setattr(self, attr, getattr(self, attr) + time.perf_counter() - t0)


@dataclass
class PureBasis:
    """The product-closed span V of pure-word images, ``closure``, plus
    collection statistics.  Every collected pure word w^r is kept in the
    closure as the witness of the generator it added; ``twisted`` holds
    its matrix from (I, twist), one per closure generator, from the same
    stream.  ``enlarging`` is set once the first round has ended without
    success."""

    closure: AlgebraClosure
    twist: Perm
    candidates: int = 0
    enlarging: bool = False
    twisted: list[np.ndarray] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.closure.dim


@dataclass
class AttackArtifacts:
    """Everything recovered before key assembly.

    ``perm_word`` is the braid word over the A generators matching the
    transcript permutation; ``residual`` the peeled message matrix;
    ``scale`` the invertible C-algebra element;
    ``pure_part`` equals scale^-1 * residual and ``pure_coeffs`` express
    it over the pure basis; ``twisted_word`` is perm_word's matrix from
    (I, h), h the permutation of Bob's message.
    """

    perm_word: BraidWord
    residual: np.ndarray
    scale: np.ndarray
    pure_part: np.ndarray
    pure_coeffs: np.ndarray
    twisted_word: np.ndarray


def _candidate_words(pub: InstancePublic, rng, lengths: tuple[int, int]):
    """Yield an endless stream of candidate words, each a product of
    lengths[0] to lengths[1] random A generators or inverses, with its
    permutation composed from the generators' own."""
    while True:
        gen_word = random_genword(rng, len(pub.a_gens), lengths)
        yield pub.a_form.product(gen_word), evaluate_genword(gen_word, pub.a_perms, pub.params.n)


def _power_image(params: EvalParams, w: BraidWord, g: Perm, h: Perm) -> tuple[np.ndarray, list]:
    """The matrix of w^r, g = perm(w) of order r, and w's matrices from
    the twists h g^k, k < r, whose product is w^r's matrix from (I, h),
    all from one stream; the list is empty for the identity h."""
    n = params.n
    twists = [Perm.identity(n)]
    for _ in range(g.order() - 1):
        twists.append(twists[-1] * g)
    r = len(twists)
    if not h.is_identity():
        twists += [h * t for t in twists]
    eye = params.field.identity(n)
    images = [s.mat for s in e_multiply([MatPerm(eye, t) for t in twists], w, params)]
    return functools.reduce(params.field.mat_mul, images[:r]), images[r:]


def extend_pure_basis(pub: InstancePublic, pure: PureBasis, rng, config: AttackConfig) -> int:
    """Feed pure candidates into the closure until one grows V, or the
    round ends: a stall (config.stall candidates in a row add nothing) or
    MAX_CANDIDATES drawn in all.  Returns the dimension growth, so 0 means
    the round has ended.

    Candidates are short random products over the A generators
    (FIRST_ROUND_GENS of them, ENLARGEMENT_GENS once pure.enlarging); those
    whose permutation part has order above n are discarded, the rest are
    raised to that order to become pure words.  FILTER_BUDGET discards in
    a row raise PureElementSearchExhausted.  Stopping at a growth loses
    no state, so a later call resumes the same round: the stall and
    rejection counts are zero right after a growth, and rng is drawn only
    as candidates are consumed.
    """
    params, n = pub.params, pub.params.n
    stream = _candidate_words(pub, rng, ENLARGEMENT_GENS if pure.enlarging else FIRST_ROUND_GENS)
    before = pure.dim
    stall = rejections = 0
    while stall < config.stall and pure.candidates < MAX_CANDIDATES:
        word, g = next(stream)
        r = g.order()
        if r > n:
            rejections += 1
            if rejections >= FILTER_BUDGET:
                raise PureElementSearchExhausted(f"{rejections} draws of order > {n} in a row")
            continue
        rejections = 0
        pure.candidates += 1
        mat, twisted = _power_image(params, word, g, pure.twist)
        if pure.closure.add_generator(mat, word.power(r)):
            pure.twisted.append(functools.reduce(params.field.mat_mul, twisted) if twisted else mat)
            break
        stall += 1
    return pure.dim - before


def precompute_pure_basis(
    pub: InstancePublic, rng, config: AttackConfig | None = None, twist: Perm | None = None
) -> PureBasis:
    """Collect a witnessed basis of pure-word images, closed under
    products, with their images from (I, twist) (None: the identity):
    one collection round, run to its end by extend_pure_basis calls."""
    config = config or AttackConfig()
    n = pub.params.n
    pure = PureBasis(AlgebraClosure(pub.params.field, n), twist or Perm.identity(n))
    while extend_pure_basis(pub, pure, rng, config):
        pass
    return pure


def factor_permutation(
    pub: InstancePublic, msg: MatPerm, twist: Perm, stats: AttackStats | None = None
) -> tuple[BraidWord, np.ndarray, np.ndarray, np.ndarray]:
    """Express the message permutation over the A generators and peel the
    message matrix down to a residual with identity permutation part.

    Writes the permutation as a shortest word over the permutation images
    of the A generators (its state count to stats.search_states), with a
    stabilizer chain only when that search gives up, and expands the word
    to a braid word with the conjugator cancelled (see pub.a_form).  The
    residual is the message matrix times the inverse of the word's
    evaluated matrix, which is exactly the message E-multiplied by the
    inverse pair.  The residual's inverse, which every scale try
    normalizes by, comes third, and the word's matrix from (I, twist),
    from the same stream, fourth.  Raises GNotExpressible when the
    permutation is outside the generated group (the instance is then
    outside the attackable family), WordTooLong when a chain word exceeds
    perm.MAX_CHAIN_LETTERS, and SingularMatrix for a singular message.
    """
    params = pub.params
    n = params.n
    gen_word, states = shortest_word(pub.a_perms, msg.perm, n)
    if stats is not None:
        stats.search_states = states
    if gen_word is None:
        try:
            gen_word = StabilizerChain(pub.a_perms, n).factor(msg.perm)
        except NotInGroup as exc:
            raise GNotExpressible(str(exc)) from exc
    word = pub.a_form.product(gen_word)
    fld = params.field
    starts = [MatPerm(fld.identity(n), t) for t in (Perm.identity(n), twist)]
    ev, twisted = e_multiply(starts, word, params)
    if ev.perm != msg.perm:  # pragma: no cover - both factor exactly
        raise GNotExpressible("factored word does not reproduce the permutation")
    residual = fld.solve(ev.mat.T, msg.mat.T).T  # residual . ev = msg
    return word, residual, fld.mat_inv(residual), twisted.mat


def solve_scale(
    normalized: np.ndarray,
    pub: InstancePublic,
    pure: PureBasis,
    rng,
) -> tuple[np.ndarray, int]:
    """Find an invertible element of the C algebra whose normalization by
    the residual lands in span(V).

    ``normalized`` stacks the residual's inverse times each element of
    the basis of the algebra the C generators span
    (InstancePublic.c_algebra); it is the same at every try, so callers
    form it once.  Solves the linear membership system.  Its kernel rows, combined
    over that basis, span the admissible scales, and sample_invertible
    draws from that stack until one is invertible: one coefficient per
    kernel row per try.  Returns (scale, tries).  NoSolution propagates
    when V is too small; callers enlarge V and retry.
    """
    field = pub.params.field
    kappas = np.stack(pub.c_algebra)
    kernel = solve_membership(normalized, pure.closure, field)
    scale, _, tries = sample_invertible(field.dot(kernel, kappas), field, rng)
    return scale, tries


def split_pure_part(
    scale: np.ndarray, residual: np.ndarray, pure: PureBasis, field: GF2m
) -> tuple[np.ndarray, np.ndarray]:
    """The pure component scale^-1 * residual and its coefficients over V.

    Its inverse lies in span(V) by construction of the scale, and V is
    closed under products, so the component itself lies in V; if the
    expression still fails the collected V was too small
    (AlphaPrimeOutsideV) and the caller enlarges it.
    """
    part = field.solve(scale, residual)
    try:
        coeffs = pure.closure.express(part)
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

    Each pure basis element is needed from (I, h), h the permutation of
    Bob's message: its matrix with the variables twisted by h.  Twisted
    evaluation is multiplicative over pure-word concatenation, so the
    closure recipes rebuild every element from the twisted generator
    images collected with V, and nothing is streamed here (ValueError if
    V was collected for another twist).  The twisted combination then
    rides through Bob's message and the factored word's twisted image
    under the recovered scale; the permutation part is h times that of
    Alice's message, which the factored word matches.
    """
    fld = pub.params.field
    h = transcript.bob_msg.perm
    if pure.twist != h:
        raise ValueError("the pure basis was collected for another twist than Bob's permutation")
    twisted = fld.dot(artifacts.pure_coeffs, pure.closure.rebuild(pure.twisted))
    mat = fld.mat_mul(fld.mat_mul(transcript.bob_msg.mat, twisted), artifacts.twisted_word)
    return MatPerm(fld.mat_mul(artifacts.scale, mat), h * transcript.alice_msg.perm)


def attack_run(
    pub: InstancePublic,
    transcript: Transcript,
    rng,
    config: AttackConfig | None = None,
) -> tuple[MatPerm, AttackStats]:
    """Run the full pipeline against a public instance and transcript.

    Factors first, then collects pure candidates in one loop, trying the
    scale and split steps after every collection call, unless V is
    unchanged since a try that failed for want of a larger V; the first
    success ends collection.  A call that returns without growth ends a
    round, and the next round is an enlargement, up to
    config.enlargement_rounds of them.  Terminal failures raise
    AttackFailed tagged with the stage name and carrying the statistics
    so far, the failing stage's time included.
    """
    config = config or AttackConfig()
    stats = AttackStats()
    t_start = time.perf_counter()
    fld = pub.params.field
    pure = PureBasis(AlgebraClosure(fld, pub.params.n), transcript.bob_msg.perm)
    try:
        # independent child streams: the number of candidates drawn cannot
        # shift the solution sampling
        rng_candidates = _random.Random(rng.getrandbits(64))
        rng_samples = _random.Random(rng.getrandbits(64))

        with stats.stage("factor", GNotExpressible, WordTooLong, SingularMatrix):
            perm_word, residual, residual_inv, twisted_word = factor_permutation(
                pub, transcript.alice_msg, transcript.bob_msg.perm, stats
            )
        stats.factor_letters = len(perm_word)

        normalized = None  # residual^-1 . (C basis): the same at every try
        # V only grows, so an unchanged dim means an unchanged V: a try
        # there after a settled failure would fail again
        failure = settled = None
        while True:
            with stats.stage("precompute", PureElementSearchExhausted):
                grew = extend_pure_basis(pub, pure, rng_candidates, config) > 0
            if pure.dim != settled:
                try:
                    with stats.stage("scale"):
                        if normalized is None:
                            normalized = fld.mat_mul(residual_inv, np.stack(pub.c_algebra))
                        scale, tries = solve_scale(normalized, pub, pure, rng_samples)
                    stats.scale_tries += tries
                    with stats.stage("split"):
                        pure_part, pure_coeffs = split_pure_part(scale, residual, pure, fld)
                    break
                except (NoSolution, InvertibleSampleFailed, AlphaPrimeOutsideV) as exc:
                    failure = exc
                # a failed sampling can pass on a resample; the other
                # failures settle this V
                settled = None if isinstance(failure, InvertibleSampleFailed) else pure.dim
            if grew:
                continue
            if stats.enlargements == config.enlargement_rounds:
                stage = "split" if isinstance(failure, AlphaPrimeOutsideV) else "scale"
                raise AttackFailed(stage, str(failure), stats) from failure
            stats.enlargements += 1
            pure.enlarging = True

        artifacts = AttackArtifacts(perm_word, residual, scale, pure_part, pure_coeffs, twisted_word)
        with stats.stage("audit"):
            if not verify_reconstruction(pub, transcript.alice_msg, artifacts):
                raise AttackFailed("audit", "reconstruction identity does not hold", stats)
        with stats.stage("recover"):
            key = recover_key(pub, transcript, pure, artifacts)
    finally:
        stats.dim_v, stats.candidates = pure.dim, pure.candidates
        stats.total_seconds = time.perf_counter() - t_start
        stats.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return key, stats
