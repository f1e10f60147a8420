"""The repo benchmark: key-recovery and exchange latency, end to end and
per layer.

    python3 perfbench/run.py --workload braid_attack --seed 1 --seconds 60 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src``.  Each instance of the workload is generated from the
seed, exchanged honestly, written to disk, loaded back and attacked (see
workloads.py); the run repeats this, single-threaded, until ``--seconds``
have passed and at least MIN_SAMPLES instances are done.  Every key is
checked bit-exactly.

With ``--trace 0`` the last line of output holds the end-to-end metrics:
timings as ``.p50`` and ``.tail`` (the highest percentile with at least
ten samples beyond it; its percentile and the sample count are on the
line before), the exact-recovery and key-agreement fractions, peak RSS
and ``setup_s``, the median time of the set-ups (see setup_once) that
the run makes, one after each instance.  Metric names and units are
BENCHMARK.json's.

The speed of a shared machine drifts by tens of percent within seconds:
on a 2-vCPU Xeon VM the same attack, run back to back, took 0.7-1.4 s.
So a fixed reference kernel, shaped like the E-multiplication inner loop
and independent of cbkap, is timed between instances, and each
instance's wall times are rescaled to the nominal reference time
REF_NOMINAL_S: ``t * REF_NOMINAL_S / ref``, with ``ref`` the mean of the
kernel times just before and after the instance and its set-up.  The
unscaled wall times (``wall`` on the line before the result) and their
quartile spreads over seeds, which prove.py records in BASELINE.json
next to the scaled ones, show what this buys on such a machine.

With ``--trace 1`` the first TRACE_INSTANCES instances are each run
traced and untraced, alternating which goes first (the tracer is in
spans.py), and the last line holds the per-layer metrics of the traced
pass.  A second traced pass over the same instances runs in a child
process with its own hash seed.  The run fails (exit 1, ``correct``
false) unless both traced passes recover the same keys as the untraced
one and report identical counts.

``--smoke`` runs every workload at a tiny size (n=8, GF(2^5), short
words) in a few seconds, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKROOT = ROOT / ".bench_work"

MIN_SAMPLES = 11  # the tail percentile needs ten samples beyond it
MAX_LOOP_SECONDS = 120  # keeps a run well inside its time limit on a slow machine
TRACE_INSTANCES = 15
TRACE_TIMEOUT = 150
REF_ITERATIONS = 5000
REF_NOMINAL_S = 0.030  # typical kernel time on the machine the bounds were set on


def reference_seconds() -> float:
    """Wall time of a fixed kernel: per step, one column gather through
    log/antilog tables and two column XORs on a 16x16 byte matrix, the
    work E-multiplication does per letter.  Independent of cbkap."""
    exp = (np.arange(512) % 255 + 1).astype(np.uint8)
    log = (np.arange(256) * 7 % 255).astype(np.int32)
    mat = (np.arange(256) % 251 + 1).astype(np.uint8).reshape(16, 16)
    t0 = time.perf_counter()
    for i in range(REF_ITERATIONS):
        r = i % 14
        old = mat[:, r].copy()
        prod = exp[log[old] + 7]
        prod[old == 0] = 0
        mat[:, r + 1] ^= old
        mat[:, r] = prod
    return time.perf_counter() - t0


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile (nearest rank) with at least ten
    samples above it, and its value; the minimum when there are ten
    samples or fewer."""
    xs = sorted(values)
    n = len(xs)
    p = 100 * (n - 10) // n if n > 10 else 0
    return xs[max(math.ceil(p * n / 100) - 1, 0)], p


def setup_once(wl, seed: int, index: int, workdir: Path) -> float:
    """Wall time of one set-up: importing cbkap afresh, building the field
    tables, and generating and writing the public part of instance
    ``index`` of the seed.

    numpy and the standard library stay loaded: in a fresh interpreter
    their import took twice as long as the rest and did not follow the
    reference kernel, and the median of fifteen such set-ups had a
    quartile spread of 0.18-0.26 over five seeds.  The modules loaded
    first are put back afterwards, so the rest of the run uses one set of
    classes.
    """
    import workloads

    loaded = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "cbkap"}
    for name in loaded:
        del sys.modules[name]
    try:
        t0 = time.perf_counter()
        # the package imports every layer but formats
        formats = importlib.import_module("cbkap.formats")
        cbkap = sys.modules["cbkap"]
        pub, _, _ = cbkap.protocol.ttp_generate(
            wl.n, cbkap.field.GF2m(wl.field_bits), wl.gen_count, wl.word_len,
            rng=workloads.instance_rng(seed, index),
        )
        formats.save_instance_public(workdir / "setup-public.json", pub)
        return time.perf_counter() - t0
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "cbkap"]:
            del sys.modules[name]
        sys.modules.update(loaded)
        gc.collect()  # frees the fresh modules here, not during the timed run


def check(outcomes) -> tuple[bool, int, dict]:
    """(all outputs correct, instances with a miss, misses by stage).

    An AttackFailed is a miss, not a wrong output; a completed attack
    whose key differs from Alice's, or an exchange whose keys differ, is
    a wrong output."""
    correct = True
    failed = 0
    stages: dict[str, int] = {}
    for o in outcomes:
        if o.failed_stage is not None:
            stages[o.failed_stage] = stages.get(o.failed_stage, 0) + 1
        elif not o.recovered:
            correct = False
            stages["wrong_key"] = stages.get("wrong_key", 0) + 1
        if not o.agree:
            correct = False
            stages["keys_disagree"] = stages.get("keys_disagree", 0) + 1
        failed += not (o.agree and o.recovered)
    return correct, failed, stages


def timed_run(args, wl, workdir: Path):
    from cbkap.field import GF2m

    import workloads

    field = GF2m(wl.field_bits)
    outcomes = []
    setup_wall = []
    scales = []  # per instance and set-up: REF_NOMINAL_S / reference time around them
    ref = reference_seconds()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_SECONDS or (
            elapsed >= args.seconds and len(outcomes) >= MIN_SAMPLES
        ):
            break
        outcomes.append(
            workloads.run_instance(wl, field, args.seed, len(outcomes), workdir)
        )
        # set-ups spread over the whole run see the same machine as the
        # instances; taken back to back, their median moved with the
        # machine by more than the instances' did
        setup_wall.append(setup_once(wl, args.seed, len(setup_wall), workdir))
        after = reference_seconds()
        scales.append(2 * REF_NOMINAL_S / (ref + after))
        ref = after
    correct, failed, stages = check(outcomes)
    n = len(outcomes)
    values = {"setup_s": statistics.median([t * k for t, k in zip(setup_wall, scales)])}
    detail = {"samples": n, "misses_by_stage": stages, "tail_percentile": {},
              "speed_factor.p50": statistics.median(scales),
              "wall": {"setup_s": statistics.median(setup_wall)}}
    for name in ("attack_s", "exchange_s", "gen_s"):
        wall = [getattr(o, name) for o in outcomes]
        scaled = [t * k for t, k in zip(wall, scales)]
        values[f"{name}.p50"] = statistics.median(scaled)
        values[f"{name}.tail"], detail["tail_percentile"][f"{name}.tail"] = tail(scaled)
        detail["wall"][f"{name}.p50"] = statistics.median(wall)
        detail["wall"][f"{name}.tail"] = tail(wall)[0]
    values["recovered_frac"] = sum(o.recovered for o in outcomes) / n
    values["agree_frac"] = sum(o.agree for o in outcomes) / n
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return correct, n, failed, values, detail


def traced_pass(args, wl, workdir: Path, counts: list[str]) -> dict:
    """One traced pass over the trace instances: their keys and counts."""
    from cbkap.field import GF2m

    import spans
    import workloads

    field = GF2m(wl.field_bits)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = [workloads.run_instance(wl, field, args.seed, i, workdir, tracer)
                  for i in range(TRACE_INSTANCES)]
    metrics = spans.layer_metrics(tracer, traced)
    return {"keys": hex_keys(traced), "counts": {k: metrics[k] for k in counts}}


def hex_keys(outcomes) -> list[str | None]:
    return [None if o.key_bytes is None else o.key_bytes.hex() for o in outcomes]


def second_traced_pass(args, workdir: Path) -> dict:
    """traced_pass in a child process with a fresh hash seed, so that
    counts or keys that depend on the process show up as a difference."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--trace", "1",
        "--traced-pass", str(workdir),
    ] + (["--smoke"] if args.smoke else [])
    env = dict(os.environ, PYTHONHASHSEED="random")
    proc = subprocess.run(cmd, env=env, check=True, timeout=TRACE_TIMEOUT,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_run(args, wl, workdir: Path, counts: list[str]):
    from cbkap.field import GF2m

    import spans
    import workloads

    field = GF2m(wl.field_bits)
    tracer = spans.Tracer()
    traced = []
    untraced = []
    # per instance one traced and one untraced run, alternating which goes
    # first, so that the tracing overhead compares neighbouring runs of the
    # same instance without favouring either order
    for i in range(TRACE_INSTANCES):
        for traced_now in (i % 2 == 0, i % 2 == 1):
            if traced_now:
                with tracer.installed():
                    traced.append(workloads.run_instance(wl, field, args.seed, i, workdir, tracer))
            else:
                untraced.append(workloads.run_instance(wl, field, args.seed, i, workdir))
    outcomes = untraced + traced
    correct, failed, stages = check(outcomes)
    detail = {"samples": len(untraced), "misses_by_stage": stages}
    metrics = spans.layer_metrics(tracer, traced)
    second = second_traced_pass(args, workdir)
    keys = hex_keys(untraced)
    same_keys = hex_keys(traced) == keys and second["keys"] == keys
    if not same_keys:
        print("error: traced passes recovered different keys than the untraced pass",
              file=sys.stderr)
    drifted = {k: [metrics[k], second["counts"][k]] for k in counts
               if metrics[k] != second["counts"][k]}
    if drifted:
        print(f"error: counts differ between two traced processes: {drifted}", file=sys.stderr)
    detail["count_check"] = "failed" if drifted else "exact"
    correct = correct and same_keys and not drifted
    base = sum(o.attack_s for o in untraced)
    metrics["trace.overhead_frac"] = (sum(o.attack_s for o in traced) - base) / base
    return correct, len(outcomes), failed, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    # internal: the child process of second_traced_pass, writing into the parent's directory
    ap.add_argument("--traced-pass", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "cbkap" / "__init__.py").is_file():
        print(f"error: no cbkap sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.workload(args.workload, args.smoke)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    counts = [m["name"] for m in spec if m["unit"] == "count"]
    if args.traced_pass is not None:
        print(json.dumps(traced_pass(args, wl, args.traced_pass, counts)))
        return 0
    workdir = WORKROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            correct, attempted, failed, values, detail = traced_run(args, wl, workdir, counts)
        else:
            correct, attempted, failed, values, detail = timed_run(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    detail.update(workload=args.workload, seed=args.seed, params=vars(wl))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
