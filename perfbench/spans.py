"""Outside-in spans around the public functions of the cbkap layers.

The tracer replaces the public functions and methods of ``field``,
``braid``, ``perm``, ``linalg``, ``protocol``, ``attack`` and ``formats``
with wrappers that time each call as a span and restores the originals
when tracing ends.  Module-level functions are replaced in every cbkap
module that imported them by name, so calls between layers are seen too.

Spans are aggregated in memory per (scope, span name): calls, inclusive
time, self time (inclusive time minus the time covered by child spans)
and a per-span count such as letters streamed.  The benchmark sets the
scope to ``exchange`` around generation and the honest exchange and to
``attack`` around loading and the attack; calls made outside both scopes
are not recorded.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

from cbkap import attack, braid, field, formats, linalg, perm, protocol

# the attack stages, each timed inclusively by the span "attack.<stage>"
STAGES = ("precompute", "factor", "scale", "split", "audit", "recover")


def _letters_arg(index):
    return lambda args, result: len(args[index])


# (owner, attribute, span name, count(args, result) or None)
TARGETS = [
    (field.GF2m, "mat_mul", "field.mat_mul", None),
    (field.GF2m, "mat_inv", "field.mat_inv", None),
    (field.GF2m, "mul_vec", "field.mul_vec", None),
    (braid, "e_multiply", "braid.e_multiply", _letters_arg(1)),
    (braid, "word_perm", "braid.word_perm", _letters_arg(0)),
    (braid, "word_eval_pair", "braid.word_eval_pair", None),
    (braid, "random_word", "braid.random_word", None),
    (braid, "free_reduce", "braid.free_reduce", None),
    (perm.StabilizerChain, "__init__", "perm.chain_build", None),
    (perm.StabilizerChain, "factor", "perm.factor", None),
    (linalg.WitnessedBasis, "add", "linalg.basis_add", lambda args, result: int(result)),
    (linalg.WitnessedBasis, "express", "linalg.express", None),
    (linalg.WitnessedBasis, "combine", "linalg.combine", None),
    # counted: pure candidates that grew the attack's closure (they carry a witness)
    (linalg.AlgebraClosure, "add_generator", "linalg.closure",
     lambda args, result: int(bool(result) and len(args) > 2 and args[2] is not None)),
    (linalg.AlgebraClosure, "rebuild", "linalg.rebuild", None),
    (linalg, "algebra_closure", "linalg.closure", None),
    (linalg, "solve_membership", "linalg.solve_membership", None),
    (linalg, "sample_invertible", "linalg.sample_invertible", lambda args, result: result[2]),
    (protocol, "ttp_generate", "protocol.ttp_generate", None),
    (protocol, "alice_round", "protocol.round", None),
    (protocol, "bob_round", "protocol.round", None),
    (protocol, "derive_key_alice", "protocol.derive_key", None),
    (protocol, "derive_key_bob", "protocol.derive_key", None),
    (attack, "attack_run", "attack.run", None),
    (attack, "precompute_pure_basis", "attack.precompute", None),
    (attack, "extend_pure_basis", "attack.precompute", None),
    (attack, "factor_permutation", "attack.factor", None),
    (attack, "solve_scale", "attack.scale", None),
    (attack, "split_pure_part", "attack.split", None),
    (attack, "verify_reconstruction", "attack.audit", None),
    (attack, "recover_key", "attack.recover", None),
    (formats, "load_instance_public", "formats.load", None),
    (formats, "load_transcript", "formats.load", None),
]


class Span:
    __slots__ = ("calls", "incl", "self_s", "count")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.count = 0


class Tracer:
    """Aggregated spans per (scope, name); see the module docstring."""

    def __init__(self):
        self.scope: str | None = None
        self.spans: dict[tuple[str, str], Span] = {}
        self._child = []  # per open span: time covered by its children

    def _wrap(self, fn, name, count):
        tracer = self
        spans = self.spans
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            scope = tracer.scope
            if scope is None:
                return fn(*args, **kwargs)
            child = tracer._child
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                covered = child.pop()
                if child:
                    child[-1] += dt
                span = spans.get((scope, name))
                if span is None:
                    span = spans[scope, name] = Span()
                span.calls += 1
                span.incl += dt
                span.self_s += dt - covered
            if count is not None:
                span.count += count(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cbkap"]
        undo = []
        try:
            for owner, attr, name, count in TARGETS:
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, name, count)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    undo.append((owner, attr, original))
                    continue
                for module in modules:
                    if module.__dict__.get(attr) is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- derived figures ---------------------------------------------------

    def layer_self(self, scope: str, layer: str) -> float:
        return sum(
            s.self_s for (sc, name), s in self.spans.items()
            if sc == scope and name.split(".")[0] == layer
        )


def layer_metrics(tracer: Tracer, traced) -> dict[str, float]:
    """Per-layer figures of one traced pass over the instances ``traced``.

    ``.s`` figures are self time, except ``attack.<stage>.s``, which is
    inclusive.  Attack-side figures come from the ``attack`` scope (load
    plus ``attack_run``), ``protocol.*`` from the ``exchange`` scope.
    """

    def sp(name, scope="attack"):
        return tracer.spans.get((scope, name)) or Span()

    def ratio(a, b):
        return a / b if b else 0.0

    stats = [o.stats for o in traced if o.stats is not None]
    attack_s = sum(o.attack_s for o in traced)
    exchange_s = sum(o.gen_s + o.exchange_s for o in traced)
    out = {}
    for op in ("mat_mul", "mat_inv"):
        s = sp(f"field.{op}")
        out[f"field.{op}.calls"] = s.calls
        out[f"field.{op}.s"] = s.self_s
        out[f"field.{op}.us"] = 1e6 * ratio(s.self_s, s.calls)
    s = sp("field.mul_vec")
    out["field.mul_vec.calls"] = s.calls
    out["field.mul_vec.s"] = s.self_s
    s = sp("braid.e_multiply")
    out["braid.e_multiply.calls"] = s.calls
    out["braid.e_multiply.s"] = s.self_s
    out["braid.letters"] = s.count
    out["braid.letters_per_s"] = ratio(s.count, s.self_s)
    s = sp("braid.word_perm")
    out["braid.word_perm.letters"] = s.count
    out["braid.word_perm.s"] = s.self_s
    out["perm.chain_build.s"] = sp("perm.chain_build").self_s
    out["perm.factor.s"] = sp("perm.factor").self_s
    out["perm.factored_letters"] = sum(st["factor_letters"] for st in stats)
    s = sp("linalg.basis_add")
    out["linalg.basis_add.calls"] = s.calls
    out["linalg.basis_add.useful_frac"] = ratio(s.count, s.calls)
    out["linalg.closure.s"] = sp("linalg.closure").self_s
    out["linalg.dim_v"] = ratio(sum(st["dim_v"] for st in stats), len(stats))
    out["linalg.solve_membership.s"] = sp("linalg.solve_membership").self_s
    out["linalg.sample_invertible.tries"] = sp("linalg.sample_invertible").count
    for stage in STAGES:
        out[f"attack.{stage}.s"] = sp(f"attack.{stage}").incl
    candidates = sum(st["candidates"] for st in stats)
    out["attack.candidates"] = candidates
    out["attack.candidates.useful_frac"] = ratio(sp("linalg.closure").count, candidates)
    out["attack.enlargements"] = sum(st["enlargements"] for st in stats)
    run_s = sp("attack.run").incl
    covered = sum(sp(f"attack.{stage}").incl for stage in STAGES)
    out["attack.stage_gap_frac"] = ratio(run_s - covered, run_s)
    for name in ("ttp_generate", "round", "derive_key"):
        out[f"protocol.{name}.s"] = sp(f"protocol.{name}", "exchange").self_s
    out["protocol.braid_frac"] = ratio(tracer.layer_self("exchange", "braid"), exchange_s)
    s = sp("braid.e_multiply", "exchange")
    out["protocol.letters_per_s"] = ratio(s.count, s.self_s)
    out["formats.load.s"] = sp("formats.load").self_s
    for layer in ("field", "braid", "perm", "linalg", "attack"):
        out[f"{layer}.self_frac"] = ratio(tracer.layer_self("attack", layer), attack_s)
    return out
