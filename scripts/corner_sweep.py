"""Attack-success map over the parameter corners where collection is
most likely to fall short.

    python3 scripts/corner_sweep.py                  # this checkout
    python3 scripts/corner_sweep.py --src OTHER/src  # another checkout

Each corner generates its instances from fixed seeds, runs one honest
exchange per instance and attacks it.  The output is one JSON document:
per corner, the parameters, the number of instances, how many keys were
recovered exactly, a histogram of outcomes (``exact``, ``differs`` or
the failing stage), the candidates consumed and enlargement rounds run
by the attacks that completed, and the attack wall time.
A failing corner is reported as it is; its seeds are never changed.
"""

from __future__ import annotations

import argparse
import collections
import json
import random
import sys
import time
from pathlib import Path

# name: (n, field degree, generators per side, word length, d_polynomial, instances)
CORNERS = {
    "gf2_tau1_n8": (8, 1, 8, 100, False, 40),
    "m16_n8": (8, 16, 8, 100, False, 40),
    "odd_n9": (9, 8, 8, 100, False, 40),
    "gen_count2_n8": (8, 8, 2, 100, False, 40),
    "d_polynomial_n8": (8, 8, 8, 100, True, 40),
    "gf4_n6": (6, 2, 3, 40, False, 40),
    "gf4_n7": (7, 2, 3, 40, False, 40),
}


def sweep(name, n, degree, gens, word_len, d_polynomial, count):
    from cbkap.attack import AttackFailed, attack_run
    from cbkap.field import GF2m
    from cbkap.protocol import Transcript, alice_round, bob_round, derive_key_alice, ttp_generate

    field = GF2m(degree)
    outcomes = collections.Counter()
    candidates = enlargements = 0
    seconds = 0.0
    for i in range(count):
        rng = random.Random(f"{name}/{i}")
        pub, priv, _ = ttp_generate(n, field, gens, word_len, rng=rng, d_polynomial=d_polynomial)
        asec, amsg = alice_round(pub, rng)
        _, bmsg = bob_round(pub, priv, rng)
        key = derive_key_alice(asec, bmsg, pub)
        t0 = time.perf_counter()
        try:
            recovered, stats = attack_run(pub, Transcript(amsg, bmsg), random.Random(i))
        except AttackFailed as exc:
            outcomes[exc.stage] += 1
        else:
            outcomes["exact" if recovered == key.key else "differs"] += 1
            candidates += stats.candidates
            enlargements += stats.enlargements
        seconds += time.perf_counter() - t0
    return {
        "n": n, "field_degree": degree, "gen_count": gens, "word_len": word_len,
        "d_polynomial": d_polynomial, "instances": count, "exact": outcomes["exact"],
        "outcomes": dict(sorted(outcomes.items())),
        "candidates_when_completed": candidates, "enlargements_when_completed": enlargements,
        "attack_seconds": round(seconds, 3),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                    help="the src directory whose cbkap is swept (default: this checkout's)")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    result = {name: sweep(name, *params) for name, params in CORNERS.items()}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
