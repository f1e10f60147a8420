"""Per-layer timings of the field's elimination and of span coefficients:
a parent commit against the working tree.

    python3 scripts/kernel_timings.py --parent HEAD --pairs 5 --into BENCH_solve_kernel.json

Each pair runs one process per side, the side that goes first alternating
from pair to pair.  A process times, over GF(2^8), the median of many
calls (``CALLS``) of:

- ``mat_inv`` and ``is_invertible`` on random invertible matrices at
  n=12 and n=20;
- a one-column ``solve`` at n=12 and n=20 (at a commit without
  ``GF2m.solve``, the ``mat_inv`` and ``mat_mul`` it replaces);
- ``WitnessedBasis.express`` of one member of the dim-82 pure basis that
  the attack collects on an n=20 instance with 24-letter A generators
  (``wide_attack``'s sizes, generation seed 20), which is what stage
  ``split`` asks for.

Prints one JSON object: every process's medians in µs and, per timing,
the median over the processes of each side and the change relative to
the parent.  ``--into FILE`` also stores it under ``per_layer`` in FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLS = {"matrix": 500, "express": 100}


def measure() -> dict:
    """The timings of the cbkap on sys.path, in µs."""
    import random
    import time

    from cbkap.attack import precompute_pure_basis
    from cbkap.field import GF2m
    from cbkap.protocol import ttp_generate

    def median_us(fn, calls):
        times = []
        for _ in range(calls):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e6

    fld = GF2m(8)
    rng = random.Random(5)
    out = {}
    for n in (12, 20):
        a = fld.random_invertible(rng, n)
        b = fld.random_matrix(rng, n)[:, :1]
        solve = getattr(fld, "solve", lambda a, b: fld.mat_mul(fld.mat_inv(a), b))
        out[f"mat_inv.n{n}"] = median_us(lambda: fld.mat_inv(a), CALLS["matrix"])
        out[f"is_invertible.n{n}"] = median_us(lambda: fld.is_invertible(a), CALLS["matrix"])
        out[f"solve.n{n}"] = median_us(lambda: solve(a, b), CALLS["matrix"])
    pub, _, _ = ttp_generate(20, fld, 8, 24, rng=random.Random(20))
    basis = precompute_pure_basis(pub, random.Random(21)).basis
    member = basis.combine([rng.randrange(fld.order) for _ in range(basis.dim)])
    out[f"express.dim{basis.dim}"] = median_us(lambda: basis.express(member), CALLS["express"])
    return out


def run_side(tree: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child"],
        env={"PYTHONPATH": str(tree / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="the commit to compare against")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--into", type=Path, help="a BENCH_*.json to store the result in")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(measure()))
        return 0
    if not args.parent:
        ap.error("--parent is required")
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        for pair in range(args.pairs):
            sides = [("parent", parent), ("change", ROOT)]
            for side, tree in sides if pair % 2 == 0 else sides[::-1]:
                runs[side].append(run_side(tree))
    summary = {}
    for name in runs["change"][0]:
        parent_us = statistics.median(r[name] for r in runs["parent"])
        change_us = statistics.median(r[name] for r in runs["change"])
        summary[name] = {"parent_us": round(parent_us, 1), "change_us": round(change_us, 1),
                         "change_rel": round(change_us / parent_us - 1, 4)}
    result = {"parent": args.parent, "calls_per_median": CALLS, "summary": summary, "runs": runs}
    print(json.dumps(result, indent=1))
    if args.into:
        bench = json.loads(args.into.read_text()) if args.into.exists() else {}
        bench["per_layer"] = result
        args.into.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
