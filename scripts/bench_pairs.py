"""Alternating benchmark pairs: a parent commit against the working tree.

    python3 scripts/bench_pairs.py --parent HEAD --label NAME --seeds 91 92
    python3 scripts/bench_pairs.py --parent HEAD --label smoke --pairs 1 --smoke --out /tmp

For each seed, runs ``--pairs`` pairs of ``perfbench/run.py --trace 0``
per workload of ``BENCHMARK.json``, each run as long as its
``run_seconds`` (``--smoke``: tiny sizes, no minimum time): one run in a
checkout of the parent commit and one in a copy of the working tree, the
side that goes first alternating from pair to pair and the workloads
interleaved within a pair, so that a drift in the speed of the machine
falls on both sides alike.  The parent checkout is the commit's files
extracted with ``git archive``, and the copy is the working tree's
tracked and untracked files that git does not ignore (``git ls-files -co
--exclude-standard``), so neither side carries bytecode; both run with
``PYTHONDONTWRITEBYTECODE=1``, so every run compiles its sources alike
(``setup_s`` times a fresh import).  Both are temporary directories,
removed at the end.

Writes ``BENCH_<label>.json`` (in ``--out``, by default the root of the
working tree): every result line with its seed, workload, pair and side,
and per seed, workload and end-to-end metric of ``BENCHMARK.json`` the
median and quartiles of each side, the change relative to the parent and
the number of pairs the working tree won.  ``clear`` is true when the
medians lie further apart than the parent's quartile spread.
``within_bound`` is the no-regression verdict: true when the change's
median is no worse than the parent's by more than the metric's
``bound`` (a fraction of the parent's median), ``"unresolved"`` when the
parent's quartile spread is wider than that bound, unless every change
run beats every parent run.  Exits 1 when a run fails or reports a key
that was not recovered exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_side(tree: Path, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One benchmark run in a checkout: its two output lines and exit code."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=env)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return {"exit": proc.returncode, "detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def copy_tree(dest: Path) -> None:
    """Copy the working tree's files that git tracks or would track, as they
    stand, into dest: no ignored file, so no bytecode."""
    listed = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the tree is listed too
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def machine() -> str:
    cpu = platform.processor() or platform.machine()
    info = Path("/proc/cpuinfo")
    if info.exists():
        models = [line.split(":", 1)[1].strip() for line in info.read_text().splitlines()
                  if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return f"{os.cpu_count()} CPUs ({cpu}), Python {platform.python_version()}, numpy {np.__version__}"


def quartiles(values: list[float]) -> list[float]:
    return [float(np.percentile(values, 25)), float(np.percentile(values, 75))]


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per seed, workload and metric: medians, quartiles and wins."""
    out: dict = {}
    for seed in sorted({r["seed"] for r in runs}):
        for workload in sorted({r["workload"] for r in runs}):
            pairs: dict[int, dict] = {}
            for r in runs:
                if (r["seed"], r["workload"]) == (seed, workload):
                    pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
            rows = {}
            for m in metrics:
                both = [(p["parent"][m["name"]]["value"], p["change"][m["name"]]["value"])
                        for p in pairs.values() if len(p) == 2]
                parent, change = [a for a, _ in both], [b for _, b in both]
                lower = m["better"] == "lower"
                pm, cm = statistics.median(parent), statistics.median(change)
                pq = quartiles(parent)
                allowed = m["bound"] * abs(pm)
                if all((b < a) if lower else (b > a) for a in parent for b in change):
                    within = True
                elif pq[1] - pq[0] > allowed:
                    within = "unresolved"
                else:
                    within = (cm - pm if lower else pm - cm) <= allowed
                rows[m["name"]] = {
                    "parent_median": pm,
                    "parent_quartiles": pq,
                    "change_median": cm,
                    "change_quartiles": quartiles(change),
                    "change_vs_parent": cm / pm - 1 if pm else None,
                    "wins": sum((b < a) if lower else (b > a) for a, b in both),
                    "pairs": len(both),
                    "clear": abs(cm - pm) > pq[1] - pq[0],
                    "within_bound": within,
                }
            out.setdefault(str(seed), {})[workload] = rows
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes and no minimum time")
    ap.add_argument("--out", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = 0 if args.smoke else spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    trees = {"parent": Path(tempfile.mkdtemp(prefix="bench-parent-")),
             "change": Path(tempfile.mkdtemp(prefix="bench-change-"))}
    runs = []
    try:
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive.stdout, check=True)
        copy_tree(trees["change"])
        for seed in args.seeds:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for workload in workloads:
                    for side in order:
                        run = run_side(trees[side], workload, seed, seconds, args.smoke)
                        runs.append({"seed": seed, "workload": workload, "pair": pair, "side": side, **run})
                        m = run["result"]["metrics"]
                        print(f"seed {seed} pair {pair} {workload:13s} {side:6s} "
                              f"attack_s.p50 {m['attack_s.p50']['value']:.4f} exit {run['exit']}",
                              file=sys.stderr)
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)

    report = {
        "label": args.label,
        "parent": commit,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
                   + (" --smoke" if args.smoke else ""),
        "method": f"per seed {args.pairs} pairs per workload, the workloads interleaved and the "
                  "side that runs first alternating; parent from git archive, change a copy of the "
                  "working tree's unignored files; PYTHONDONTWRITEBYTECODE=1 on both sides",
        "machine": machine(),
        "summary": summarize(runs, spec["end_to_end"]),
        "runs": runs,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    ok = all(r["exit"] == 0 and r["result"]["correct"] for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
