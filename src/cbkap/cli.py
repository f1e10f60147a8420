"""Command-line front end.

Subcommands: ``gen`` (instance generation), ``protocol`` (run an
exchange and derive both keys), ``attack`` (recover the key from public
data plus a transcript) and ``verify`` (compare two key files, their
fields included).  Seeded runs are byte-identical.

Exit codes: 0 success, 1 mismatch or verification failure, 2 usage,
file-format or file-system error (a transcript without Bob's message
among them, an output directory that cannot be made, or a scale algebra
in which a party's round finds no invertible element within the
sampler's bound), 3 attack-stage failure.  The
``ERASER_SEED`` environment variable is the fallback when ``--seed`` is
absent; without either, a fresh system seed is drawn.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path

from . import formats
from .attack import AttackFailed, attack_run
from .field import GF2m
from .formats import FormatError
from .linalg import InvertibleSampleFailed
from .protocol import (
    MAX_WORD_LETTERS,
    SharedKey,
    Transcript,
    alice_round,
    bob_round,
    derive_key_alice,
    derive_key_bob,
    ttp_generate,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_ATTACK = 3


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("ERASER_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise FormatError(f"ERASER_SEED is not an integer: {env!r}") from exc
    return random.SystemRandom().getrandbits(63)


def cmd_gen(args) -> int:
    field = GF2m(args.field_bits, args.modulus)
    rng = random.Random(_resolve_seed(args.seed))
    pub, priv, _ = ttp_generate(
        args.n,
        field,
        gen_count=args.gens,
        word_len=args.word_len,
        rng=rng,
        d_polynomial=args.d_polynomial,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    formats.save_instance_public(out / "instance_public.json", pub)
    formats.save_instance_private(out / "instance_private.json", priv, pub.params)
    print(f"wrote {out / 'instance_public.json'}")
    print(f"wrote {out / 'instance_private.json'}")
    return EXIT_OK


def cmd_protocol(args) -> int:
    pub = formats.load_instance_public(args.public)
    priv = formats.load_instance_private(args.private, pub.params)
    rng = random.Random(_resolve_seed(args.seed))
    alice_secret, alice_msg = alice_round(pub, rng)
    bob_secret, bob_msg = bob_round(pub, priv, rng)
    key_a = derive_key_alice(alice_secret, bob_msg, pub)
    key_b = derive_key_bob(bob_secret, alice_msg, pub)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    formats.save_transcript(out / "transcript.json", Transcript(alice_msg, bob_msg), pub.params)
    formats.save_key(out / "key_alice.json", key_a, pub.params)
    formats.save_key(out / "key_bob.json", key_b, pub.params)
    print(f"wrote {out / 'transcript.json'}")
    print(f"wrote {out / 'key_alice.json'}")
    print(f"wrote {out / 'key_bob.json'}")
    if key_a != key_b:
        print("error: derived keys disagree", file=sys.stderr)
        return EXIT_MISMATCH
    print("keys agree")
    return EXIT_OK


def cmd_attack(args) -> int:
    # the attack consumes public material and the transcript, nothing else;
    # loading checks the envelope kind, so private files are refused here
    pub = formats.load_instance_public(args.public)
    transcript = formats.load_transcript(args.transcript, pub.params)
    rng = random.Random(_resolve_seed(args.seed))
    out = Path(args.out_dir)
    try:
        key, stats = attack_run(pub, transcript, rng)
    except AttackFailed as exc:
        out.mkdir(parents=True, exist_ok=True)
        formats.save_stats(out / "stats.json", exc.stats.to_dict())
        # the message of AttackFailed starts with its stage
        print(f"attack failed at stage {exc}", file=sys.stderr)
        print(f"wrote {out / 'stats.json'}", file=sys.stderr)
        return EXIT_ATTACK
    out.mkdir(parents=True, exist_ok=True)
    formats.save_key(out / "key_recovered.json", SharedKey(key), pub.params)
    formats.save_stats(out / "stats.json", stats.to_dict())
    print(f"wrote {out / 'key_recovered.json'}")
    print(f"wrote {out / 'stats.json'}")
    print(
        f"recovered key in {stats.total_seconds:.2f}s "
        f"(dim V = {stats.dim_v}, {stats.candidates} candidates, "
        f"{stats.factor_letters} factored letters)"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    # keys over different fields differ even where their entries agree
    keys = []
    for path in (args.key_a, args.key_b):
        key = formats.load_key(path)  # checks the header read next
        field = formats.load_envelope(path)[1]["field"]
        keys.append((key, field["degree"], field["modulus"]))
    if keys[0] == keys[1]:
        print("keys identical")
        return EXIT_OK
    print("keys differ", file=sys.stderr)
    return EXIT_MISMATCH


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbkap",
        description="Colored Burau key agreement and shared-key recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a protocol instance")
    p.add_argument("--n", type=int, default=16, help="strand count (default 16)")
    p.add_argument("--field-bits", type=int, default=8, help="field degree m (default 8)")
    p.add_argument("--modulus", type=lambda s: int(s, 0), default=None,
                   help="irreducible modulus bits (default: smallest for the degree)")
    p.add_argument("--gens", type=int, default=8, help="generators per side (default 8)")
    p.add_argument("--word-len", type=int, default=650,
                   help=f"generator and kappa word length, 2 to {MAX_WORD_LETTERS} (default 650)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--d-polynomial", action="store_true",
                   help="give Bob an independent commuting D instead of D = C")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("protocol", help="run an exchange and derive both keys")
    p.add_argument("--public", default="instance_public.json")
    p.add_argument("--private", default="instance_private.json")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("attack", help="recover the shared key from public data")
    p.add_argument("--public", default="instance_public.json")
    p.add_argument("--transcript", default="transcript.json")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("verify", help="compare two key files")
    p.add_argument("key_a")
    p.add_argument("key_b")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (OSError, ValueError, InvertibleSampleFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
