"""Workload definitions and the per-instance pipeline of the benchmark.

Every instance runs the same pipeline a user of the command-line tool
runs: ``ttp_generate``, one honest exchange (both rounds and both key
derivations), writing the public instance and the transcript to disk,
then loading them back and running ``attack_run`` on them, as
``cbkap attack`` does.  Each stage is timed on its own and every output
is checked bit-exactly: Alice's key against Bob's, and the recovered key
against Alice's.

All randomness comes from the workload seed and the instance index, so
the same seed gives the same instances, transcripts and attack draws.
The library only ever receives the generated instances and transcripts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path

# calls go through the module attributes so that the tracer's wrappers,
# installed on those attributes, see them
from cbkap import attack, formats, protocol
from cbkap.field import GF2m


@dataclass(frozen=True)
class Workload:
    n: int
    field_bits: int
    gen_count: int
    word_len: int
    why: str


# Instances come straight from the seed, with no filtering: the spread of
# factored-word lengths and of collection lengths is part of what is
# measured.  The sizes are below the test suite's FULL size (n=16, 650
# letters) so that a one-minute run holds 45-90 instances, depending on
# the machine's speed: one attack takes 0.3-0.9 s here against 2-9 s at
# FULL size, where the median of the ~15 instances a run held moved by
# 15-25% from seed to seed.
WORKLOADS = {
    "braid_attack": Workload(
        12, 8, 8, 250,
        "n=12, GF(2^8), 8 A-generators of 250 letters: E-multiplication is ~85% of "
        "the attack, so braid work shows and linalg barely does",
    ),
    "wide_attack": Workload(
        20, 8, 8, 24,
        "n=20, GF(2^8), 8 A-generators of 24 letters: dim V = 82, so field, linalg "
        "and perm work are ~75% of the attack",
    ),
}

# Tiny sizes for the benchmark's own tests: every workload runs end to end
# in a few seconds.
SMOKE = {
    "braid_attack": Workload(8, 5, 8, 30, "smoke size of braid_attack"),
    "wide_attack": Workload(8, 5, 8, 12, "smoke size of wide_attack"),
}


def workload(name: str, smoke: bool) -> Workload:
    return (SMOKE if smoke else WORKLOADS)[name]


def _rng(seed: int, index: int, role: str) -> random.Random:
    # string seeds hash with SHA-512, so the streams are stable across runs
    return random.Random(f"cbkap-bench/{seed}/{index}/{role}")


def instance_rng(seed: int, index: int) -> random.Random:
    """The stream that generates instance ``index`` and then drives its exchange."""
    return _rng(seed, index, "instance")


@dataclass
class Outcome:
    """Timings and checked results of one instance."""

    gen_s: float
    exchange_s: float
    attack_s: float
    agree: bool
    recovered: bool
    failed_stage: str | None
    key_bytes: bytes | None
    stats: dict | None


def generate(wl: Workload, field: GF2m, seed: int, index: int):
    """Instance ``index`` of the seed: (public, private, rng), with the rng
    left where the honest exchange continues from it."""
    rng = instance_rng(seed, index)
    pub, priv, _ = protocol.ttp_generate(wl.n, field, wl.gen_count, wl.word_len, rng=rng)
    return pub, priv, rng


def make_inputs(wl: Workload, field: GF2m, seed: int, index: int, workdir: Path, tracer=None):
    """Generate instance ``index``, run the honest exchange and write the
    public instance and transcript; returns (keys, paths, gen_s, exchange_s).

    With a tracer, generation and the exchange are recorded in its
    ``exchange`` scope; writing the files is not recorded.
    """
    _scope(tracer, "exchange")
    t0 = time.perf_counter()
    pub, priv, rng = generate(wl, field, seed, index)
    t1 = time.perf_counter()
    a_secret, a_msg = protocol.alice_round(pub, rng)
    b_secret, b_msg = protocol.bob_round(pub, priv, rng)
    key_a = protocol.derive_key_alice(a_secret, b_msg, pub)
    key_b = protocol.derive_key_bob(b_secret, a_msg, pub)
    t2 = time.perf_counter()
    _scope(tracer, None)
    pub_path = workdir / f"public-{index}.json"
    transcript_path = workdir / f"transcript-{index}.json"
    formats.save_instance_public(pub_path, pub)
    formats.save_transcript(transcript_path, protocol.Transcript(a_msg, b_msg), pub.params)
    return (key_a, key_b), (pub_path, transcript_path), t1 - t0, t2 - t1


def run_instance(wl: Workload, field: GF2m, seed: int, index: int, workdir: Path, tracer=None) -> Outcome:
    """Inputs, exchange and attack for one instance, with every output checked."""
    (key_a, key_b), (pub_path, transcript_path), gen_s, exchange_s = make_inputs(
        wl, field, seed, index, workdir, tracer
    )
    _scope(tracer, "attack")
    t0 = time.perf_counter()
    failed_stage = None
    key = stats = None
    try:
        pub = formats.load_instance_public(pub_path)
        transcript = formats.load_transcript(transcript_path, pub.params)
        key, attack_stats = attack.attack_run(
            pub, transcript, _rng(seed, index, "attack"), attack.AttackConfig()
        )
        stats = attack_stats.to_dict()
    except attack.AttackFailed as exc:
        failed_stage = exc.stage
    attack_s = time.perf_counter() - t0
    _scope(tracer, None)
    return Outcome(
        gen_s=gen_s,
        exchange_s=exchange_s,
        attack_s=attack_s,
        agree=key_a == key_b,
        recovered=key is not None and key == key_a.key,
        failed_stage=failed_stage,
        key_bytes=None if key is None else key.mat.tobytes() + bytes(key.perm.images),
        stats=stats,
    )


def _scope(tracer, scope):
    if tracer is not None:
        tracer.scope = scope
