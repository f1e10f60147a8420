"""Run the benchmark over several seeds and report each end-to-end
metric's median and quartile spread against its bound.

    python3 perfbench/prove.py --seeds 1-10                    # every workload
    python3 perfbench/prove.py --workloads wide_attack --seeds 1-5
    python3 perfbench/prove.py --seeds 1-10 --write-baseline   # also perfbench/BASELINE.json

The spread of a metric is (Q3 - Q1) / median over the seeds, with the
quartiles of ``statistics.quantiles(values, n=4)``; each is printed next
to the metric's bound in BENCHMARK.json, and flagged when it exceeds it.
The same figures are computed for the unscaled wall times that run.py
reports beside each scaled timing (see run.py on the reference kernel).
With ``--write-baseline`` one traced run per workload (on the first seed) adds
the per-layer figures and the tracing overhead, and the file records the
machine, the workload parameters and the map from layer metrics to the
end-to-end metric each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# layer -> (end-to-end metric it should move, workload it moves on, note)
LAYER_MAP = {
    "field": ("attack_s", "wide_attack",
              "field.mat_mul/mat_inv/mul_vec; moves little on braid_attack"),
    "braid": ("attack_s, exchange_s", "braid_attack",
              "braid.e_multiply letters and letters/s; also the exchange in both workloads"),
    "perm": ("attack_s.tail", "wide_attack",
             "chain build, factoring, factored letters (each streamed three times)"),
    "linalg": ("attack_s", "wide_attack", "closure, basis adds, membership; near zero elsewhere"),
    "attack": ("attack_s", "braid_attack, wide_attack", "inclusive stage times, candidates"),
    "protocol": ("gen_s, exchange_s", "braid_attack, wide_attack",
                 "attack-only changes predict no change on these metrics"),
    "formats": ("attack_s", "braid_attack, wide_attack", "guards the loader rewrite"),
}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])
    return result


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds(args.seeds):
            r = run(workload, seed, args.seconds, 0)
            results.append(r)
            print(f"{workload} seed={seed} samples={r['detail']['samples']} correct={r['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
        summary = {}
        for name, bound in bounds.items():
            summary[name] = dict(spread([r["metrics"][name]["value"] for r in results]), bound=bound)
            print(f"  {workload} {name}: median={summary[name]['median']:.4g} "
                  f"spread={summary[name]['spread']:.3f} bound={bound}"
                  + ("  EXCEEDS BOUND" if summary[name]["spread"] > bound else ""), flush=True)
        wall = {}
        for name in results[0]["detail"]["wall"]:
            wall[name] = spread([r["detail"]["wall"][name] for r in results])
            print(f"  {workload} {name} unscaled wall: median={wall[name]['median']:.4g} "
                  f"spread={wall[name]['spread']:.3f}", flush=True)
        baseline[workload] = {
            "seeds": seeds(args.seeds),
            "all_correct": all(r["correct"] for r in results),
            "samples": [r["detail"]["samples"] for r in results],
            "end_to_end": summary,
            "unscaled_wall": wall,
        }
        if args.write_baseline:
            traced = run(workload, seeds(args.seeds)[0], args.seconds, 1)
            baseline[workload]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            baseline[workload]["trace_correct"] = traced["correct"]
            baseline[workload]["tracing_overhead_frac"] = traced["metrics"]["trace.overhead_frac"]["value"]
            baseline[workload]["params"] = traced["detail"]["params"]

    if args.write_baseline:
        doc = {
            "machine": machine(),
            "run_seconds": args.seconds,
            "layer_map": {k: dict(zip(("moves", "on", "note"), v)) for k, v in LAYER_MAP.items()},
            "workloads": baseline,
        }
        (HERE / "BASELINE.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {HERE / 'BASELINE.json'}")


if __name__ == "__main__":
    main()
