"""Per-layer timings of E-multiplication, of the field's elimination, of
span coefficients and insertion, of closure products and of compiling
the package: a parent commit against the working tree.

    python3 scripts/kernel_timings.py --parent HEAD --pairs 5 --into BENCH_solve_kernel.json

Each pair runs one process per side, the side that goes first alternating
from pair to pair.  A process times, over GF(2^8), the median of many
calls (``CALLS``) of:

- ``e_multiply`` at both workload sizes (``n12``: n=12 with 250-letter A
  generators, generation seed 12; ``n20``: n=20 with 24-letter ones,
  generation seed 20), on a product of 10-20 A generators or inverses as
  a protocol round draws one: one state, ``cold`` (each call streams the
  product from a conjugate form built for it, so nothing the stream
  derives from the word exists yet) and ``warm`` (the same word each
  call); and a ``stack`` of 2r identity states twisted by g^k and h g^k,
  k < r, as the attack streams a candidate (a product of 2-3 A generators
  whose permutation g has order r <= n), warm.  These are also reported
  in ns per letter of the word (``ns_per_letter``);
- ``mat_inv`` and ``is_invertible`` on random invertible matrices at
  n=12 and n=20 (drawn as ``random_matrix`` until ``is_invertible``);
- a one-column ``solve`` at n=12 and n=20;
- ``WitnessedBasis.express`` of one member of the dim-82 pure basis that
  the attack collects on an n=20 instance with 24-letter A generators
  (``wide_attack``'s sizes, generation seed 20), which is what stage
  ``split`` asks for;
- ``insert``: every stack that the closure of a pure basis sifts in
  (``WitnessedBasis.add_block``, one-matrix ``add`` calls included),
  re-inserted in order into a fresh basis, for the dim-26 basis
  collected at ``braid_attack``'s sizes (``n12``: n=12 with 250-letter A
  generators, generation seed 12) and the dim-82 one above (``n20``);
- ``rebuild``: ``AlgebraClosure.rebuild`` of those two closures over
  random images of their generators (``n12`` and ``n20``), the replay
  that stage ``recover`` runs over the twisted images.  Each image is
  random on the entries the generators use and zero elsewhere, so the
  replay runs on the generators' strand blocks, as ``recover``'s does
  at ``wide_attack``'s sizes (a fully random image joins every strand);
- one closure product, the first generator of a pure basis times a stack
  of 1, 16 and 82 of its basis elements (taken in turn), on that basis
  and on the one collected at ``braid_attack``'s sizes (n=12 with
  250-letter A generators, generation seed 12): ``dense`` is
  ``GF2m.mat_mul``, ``block`` the product the closure forms, on the
  strand blocks of its generators;
- ``compile()`` of each ``src/cbkap/*.py`` file of its side, as a fresh
  import without bytecode does (``compile.<file>``, 15 calls).

A process runs in one of the machine's speed modes, so medians over
processes of each side mix them.  Before and after each timing, the
process times the benchmark's fixed reference kernel, which does not use
cbkap (``reference_seconds`` of ``perfbench/run.py``), and reports the
timing also as a ratio to the mean of those two reference times (one
reference timing sits between two kernels).

Prints one JSON object: every process's medians in µs and ratios, per
timing the median over the processes of each side of both (and of ns per
letter for ``e_multiply``), with the change relative to the parent, and
per side the lines and tokens of ``src/cbkap`` (tokens as ``tokenize``
gives them, without comments and layout).  ``--into FILE`` also stores it
under ``per_layer`` in FILE.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLS = {"e_multiply": 40, "matrix": 500, "express": 100, "insert": 30, "rebuild": 30, "product": 200,
         "compile": 15}
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def measure() -> dict:
    """The timings of the cbkap on sys.path: medians in µs, and each as a
    ratio to the reference kernel timed around it."""
    import random
    import time

    import numpy as np

    import cbkap
    from cbkap import attack, linalg
    from cbkap.attack import precompute_pure_basis
    from cbkap.braid import ConjugateForm, MatPerm, e_multiply
    from cbkap.field import GF2m
    from cbkap.perm import Perm, random_genword
    from cbkap.protocol import PRODUCT_FACTORS, ttp_generate

    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    us, ratio, letters = {}, {}, {}
    refs = [run.reference_seconds()]  # one before the first timing and one after each

    def timed(name, fn, calls):
        times = []
        for _ in range(calls):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        refs.append(run.reference_seconds())
        us[name] = statistics.median(times) * 1e6
        ratio[name] = statistics.median(times) / statistics.mean(refs[-2:])

    fld = GF2m(8)
    rng = random.Random(5)
    for n, word_len, seed in ((12, 250, 12), (20, 24, 20)):
        pub, _, _ = ttp_generate(n, fld, 8, word_len, rng=random.Random(seed))
        gen_word = random_genword(rng, len(pub.a_gens), PRODUCT_FACTORS)
        fresh = iter([ConjugateForm(pub.a_gens).product(gen_word) for _ in range(CALLS["e_multiply"])])
        word = pub.a_form.product(gen_word)
        state = MatPerm(fld.random_matrix(rng, n), Perm.random(n, rng))
        timed(f"e_multiply.n{n}.cold", lambda: e_multiply(state, next(fresh), pub.params), CALLS["e_multiply"])
        timed(f"e_multiply.n{n}.warm", lambda: e_multiply(state, word, pub.params), CALLS["e_multiply"])
        letters[f"e_multiply.n{n}.cold"] = letters[f"e_multiply.n{n}.warm"] = len(word)
        candidate, g = next((w, g) for w, g in attack._candidate_words(pub, rng, attack.FIRST_ROUND_GENS)
                            if g.order() <= n)
        twists = [Perm.identity(n)]
        while len(twists) < g.order():
            twists.append(twists[-1] * g)
        h = Perm.random(n, rng)
        stack = [MatPerm(fld.identity(n), t) for t in twists + [h * t for t in twists]]
        e_multiply(stack, candidate, pub.params)
        timed(f"e_multiply.n{n}.stack", lambda: e_multiply(stack, candidate, pub.params), CALLS["e_multiply"])
        letters[f"e_multiply.n{n}.stack"] = len(candidate)
    for n in (12, 20):
        a = fld.random_matrix(rng, n)
        while not fld.is_invertible(a):
            a = fld.random_matrix(rng, n)
        b = fld.random_matrix(rng, n)[:, :1]
        timed(f"mat_inv.n{n}", lambda: fld.mat_inv(a), CALLS["matrix"])
        timed(f"is_invertible.n{n}", lambda: fld.is_invertible(a), CALLS["matrix"])
        timed(f"solve.n{n}", lambda: fld.solve(a, b), CALLS["matrix"])

    def collected(n, word_len, seed):
        """The pure basis collected on an instance, and the stacks its
        closure sifted in, in order."""
        pub, _, _ = ttp_generate(n, fld, 8, word_len, rng=random.Random(seed))
        calls, add_block = [], linalg.WitnessedBasis.add_block
        linalg.WitnessedBasis.add_block = lambda self, mats: (
            calls.append((self, np.array(mats))) or add_block(self, mats))
        try:
            closure = precompute_pure_basis(pub, random.Random(seed + 1)).closure
        finally:
            linalg.WitnessedBasis.add_block = add_block
        span = getattr(closure, "basis", closure)  # a closure that wraps its span, or is one
        return closure, span, [stack for basis, stack in calls if basis is span]

    def insert(n, stacks):
        basis = linalg.WitnessedBasis(fld, n)
        for stack in stacks:
            basis.add_block(stack)

    wide = collected(20, 24, 20)
    _, basis, _ = wide
    member = basis.combine([rng.randrange(fld.order) for _ in range(basis.dim)])
    timed(f"express.dim{basis.dim}", lambda: basis.express(member), CALLS["express"])
    closures = {"n12": collected(12, 250, 12), "n20": wide}
    for size, (closure, span, stacks) in closures.items():
        timed(f"insert.{size}", lambda: insert(span.n, stacks), CALLS["insert"])
        images = [fld.random_matrix(rng, span.n) * closure._pattern for _ in closure.generators]
        timed(f"rebuild.{size}", lambda: closure.rebuild(images), CALLS["rebuild"])
        gen = closure.generators[0][0]
        plan = linalg._block_plan(closure._pattern)
        for k in (1, 16, 82):
            stack = np.stack([span.mats[i % span.dim] for i in range(k)])
            name = f"closure_product.{size}.k{k}"
            timed(f"{name}.dense", lambda: fld.mat_mul(gen, stack), CALLS["product"])
            timed(f"{name}.block", lambda: linalg._block_mat_mul(fld, plan, gen, stack), CALLS["product"])
    for path in sorted(Path(cbkap.__file__).parent.glob("*.py")):
        source = path.read_text()
        timed(f"compile.{path.name}", lambda: compile(source, str(path), "exec"), CALLS["compile"])
    ns_per_letter = {name: us[name] * 1e3 / count for name, count in letters.items()}
    return {"us": us, "ratio": ratio, "ns_per_letter": ns_per_letter, "reference_s": refs}


def src_size(tree: Path) -> dict:
    """Lines and tokens (no comments or layout) of the tree's src/cbkap."""
    lines = tokens = 0
    for path in sorted((tree / "src" / "cbkap").glob("*.py")):
        source = path.read_text()
        lines += len(source.splitlines())
        tokens += sum(tok.type not in LAYOUT
                      for tok in tokenize.generate_tokens(io.StringIO(source).readline))
    return {"lines": lines, "tokens": tokens}


def run_side(tree: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child"],
        env={"PYTHONPATH": str(tree / "src"), "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"},
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
        src = {"parent": src_size(parent), "change": src_size(ROOT)}
        for pair in range(args.pairs):
            sides = [("parent", parent), ("change", ROOT)]
            for side, tree in sides if pair % 2 == 0 else sides[::-1]:
                runs[side].append(run_side(tree))
    summary = {}
    names = [name for name in runs["change"][0]["us"] if name in runs["parent"][0]["us"]]
    for name in names:
        row = {}
        for unit in ("us", "ratio", "ns_per_letter"):
            if name not in runs["change"][0][unit]:
                continue
            parent_v = statistics.median(r[unit][name] for r in runs["parent"])
            change_v = statistics.median(r[unit][name] for r in runs["change"])
            row[f"parent_{unit}"] = float(f"{parent_v:.4g}")
            row[f"change_{unit}"] = float(f"{change_v:.4g}")
            row[f"change_rel_{unit}"] = round(change_v / parent_v - 1, 4)
        summary[name] = row
    result = {"parent": args.parent, "calls_per_median": CALLS, "src": src, "summary": summary,
              "runs": runs}
    print(json.dumps(result, indent=1))
    if args.into:
        bench = json.loads(args.into.read_text()) if args.into.exists() else {}
        bench["per_layer"] = result
        args.into.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
