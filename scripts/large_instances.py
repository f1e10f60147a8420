"""Key recovery on instances beyond the full size, one child process each.

    python3 scripts/large_instances.py                  # this checkout
    python3 scripts/large_instances.py --src OTHER/src  # another checkout

Runs n=24 seeds 1-2 and n=28 seeds 1-3, each with 8 generators of 650
letters over GF(2^8): the instance and an honest exchange come from
``random.Random(seed)`` and the attack from another ``random.Random(seed)``,
as in ``tests/test_attack.py``.  Each instance runs in a child process of
its own, so its peak RSS is its own.  One JSON line per instance: n, seed,
the outcome (``exact``, ``differs`` or the failing stage, with the type of
the error that ended it), the attack's CPU seconds, ``factor_letters`` and
the process peak RSS in MB (generation and the exchange included).  The
paper's bounds are 8 CPU hours and 64 MB.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

INSTANCES = [(24, 1), (24, 2), (28, 1), (28, 2), (28, 3)]
GENERATORS, WORD_LETTERS, FIELD_BITS = 8, 650, 8


def attack_one(n: int, seed: int) -> dict:
    import random
    import resource
    import time

    from cbkap.attack import AttackFailed, attack_run
    from cbkap.field import GF2m
    from cbkap.protocol import Transcript, alice_round, bob_round, derive_key_alice, ttp_generate

    rng = random.Random(seed)
    pub, priv, _ = ttp_generate(n, GF2m(FIELD_BITS), GENERATORS, WORD_LETTERS, rng=rng)
    asec, amsg = alice_round(pub, rng)
    _, bmsg = bob_round(pub, priv, rng)
    key = derive_key_alice(asec, bmsg, pub)
    cause = None
    t0 = time.process_time()
    try:
        recovered, stats = attack_run(pub, Transcript(amsg, bmsg), random.Random(seed))
        outcome = "exact" if recovered == key.key else "differs"
    except AttackFailed as exc:
        outcome, stats = exc.stage, exc.stats
        cause = type(exc.__cause__).__name__ if exc.__cause__ is not None else None
    return {
        "n": n, "seed": seed, "outcome": outcome, "cause": cause,
        "cpu_s": round(time.process_time() - t0, 3),
        "factor_letters": stats.factor_letters,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                    help="the src directory whose cbkap is attacked (default: this checkout's)")
    # internal: the child process attacking one instance
    ap.add_argument("--one", nargs=2, type=int, metavar=("N", "SEED"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one is not None:
        sys.path.insert(0, str(args.src.resolve()))
        print(json.dumps(attack_one(*args.one)))
        return 0
    for n, seed in INSTANCES:
        cmd = [sys.executable, __file__, "--src", str(args.src), "--one", str(n), str(seed)]
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        print(proc.stdout.strip().splitlines()[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
