"""Key recovery on instances beyond the full size, and the linear stages
at n=64, one child process each.

    python3 scripts/large_instances.py                  # this checkout
    python3 scripts/large_instances.py --src OTHER/src  # another checkout

Every instance has 8 generators of 650 letters over GF(2^8) and is
generated from ``random.Random(seed)``.  Each row runs in a child process
of its own, so its peak RSS is its own, and prints one JSON line.

- Attacks on n=24 seeds 1-2 and n=28 seeds 1-3: an honest exchange also
  comes from the generation's ``random.Random(seed)`` and the attack from
  another ``random.Random(seed)``, as in ``tests/test_attack.py``.  The
  line holds n, seed, the outcome (``exact``, ``differs`` or the failing
  stage, with the type of the error that ended it), the attack's CPU
  seconds, ``factor_letters`` and the process peak RSS in MB (generation
  and the exchange included).
- The linear stages on n=64 seed 1, which factoring cannot reach yet:
  ``precompute_pure_basis`` (from another ``random.Random(seed)``), then
  ``express`` of one random member of V, then ``rebuild`` over random
  images of the closure's generators and the ``dot`` that combines them
  with those coefficients, as stage ``recover`` does.  The line holds n,
  seed, dim V, whether ``express`` gave back the drawn coefficients, the
  CPU seconds of each step and the process peak RSS in MB (generation
  included).

The paper's bounds are 8 CPU hours and 64 MB.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

# (job, n, seed), one child process each
ROWS = [("attack", 24, 1), ("attack", 24, 2), ("attack", 28, 1), ("attack", 28, 2), ("attack", 28, 3),
        ("linear", 64, 1)]
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


def linear_stages(n: int, seed: int) -> dict:
    import random
    import resource
    import time

    import numpy as np

    from cbkap.attack import precompute_pure_basis
    from cbkap.field import GF2m
    from cbkap.protocol import ttp_generate

    fld = GF2m(FIELD_BITS)
    rng = random.Random(seed)
    pub, _, _ = ttp_generate(n, fld, GENERATORS, WORD_LETTERS, rng=rng)
    cpu = {}
    t0 = time.process_time()
    closure = precompute_pure_basis(pub, random.Random(seed)).closure
    cpu["collect"] = time.process_time() - t0
    coeffs = np.array([rng.randrange(fld.order) for _ in range(closure.dim)], dtype=fld.dtype)
    member = closure.combine(coeffs)
    t0 = time.process_time()
    exact = np.array_equal(closure.express(member), coeffs)
    cpu["express"] = time.process_time() - t0
    images = [fld.random_matrix(rng, n) for _ in closure.generators]
    t0 = time.process_time()
    fld.dot(coeffs, closure.rebuild(images))
    cpu["rebuild"] = time.process_time() - t0
    return {
        "n": n, "seed": seed, "dim_v": closure.dim, "express_exact": bool(exact),
        **{f"{step}_cpu_s": round(t, 3) for step, t in cpu.items()},
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


JOBS = {"attack": attack_one, "linear": linear_stages}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                    help="the src directory whose cbkap runs (default: this checkout's)")
    # internal: the child process running one row
    ap.add_argument("--one", nargs=3, metavar=("JOB", "N", "SEED"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one is not None:
        sys.path.insert(0, str(args.src.resolve()))
        job, n, seed = args.one
        print(json.dumps(JOBS[job](int(n), int(seed))))
        return 0
    for job, n, seed in ROWS:
        cmd = [sys.executable, __file__, "--src", str(args.src), "--one", job, str(n), str(seed)]
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        print(proc.stdout.strip().splitlines()[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
