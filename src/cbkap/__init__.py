"""Colored Burau key agreement (the Algebraic Eraser's CBKAP) over
GF(2^m), an instance generator, and a complete shared-key-recovery
attack that consumes only public data and the exchanged messages.
"""

from .attack import (
    AttackConfig,
    AttackFailed,
    AttackStats,
    attack_run,
    precompute_pure_basis,
    recover_key,
)
from .braid import (
    BraidWord,
    EvalParams,
    MatPerm,
    e_multiply,
    free_reduce,
    random_word,
    word_eval_pair,
    word_perm,
)
from .field import GF2m, NonInvertibleFieldElement, SingularMatrix, default_modulus, is_irreducible
from .linalg import (
    AlgebraClosure,
    InvertibleSampleFailed,
    NoSolution,
    NotInSpan,
    SolutionSpace,
    WitnessedBasis,
    algebra_closure,
    sample_invertible,
    solve_membership,
)
from .perm import NotInGroup, Perm, StabilizerChain, evaluate_genword, invert_genword
from .protocol import (
    InstancePrivate,
    InstancePublic,
    PartySecret,
    SharedKey,
    Transcript,
    alice_round,
    bob_round,
    derive_key_alice,
    derive_key_bob,
    ttp_generate,
)

__version__ = "1.0.0"
