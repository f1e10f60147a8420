import ast
import importlib.util
import random
from pathlib import Path

from cbkap import attack
from cbkap.field import GF2m
from cbkap.protocol import Transcript, alice_round, bob_round, derive_key_alice, ttp_generate

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "cbkap").glob("*.py"))


def test_library_has_no_assert():
    # logic checks must survive `python -O`, which strips assert statements
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_traced_names_exist():
    # the benchmark's tracer looks every target up by name; a renamed or
    # deleted one would break it, so the fast suite checks them all
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in spans.TARGETS
        if attr not in owner.__dict__
    ]
    assert not missing, missing


def test_traced_counts_read_their_arguments_and_results():
    # some spans count from a call's arguments or result by position (the
    # witness of add_generator, the tries sample_invertible returns third),
    # so reshaping one would zero a benchmark count without a lookup error
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    pub, priv, _ = ttp_generate(8, GF2m(8), 8, 100, rng=random.Random(1))
    rng = random.Random(2)
    alice_secret, alice_msg = alice_round(pub, rng)
    _, bob_msg = bob_round(pub, priv, rng)
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.scope = "attack"
        key, _ = attack.attack_run(pub, Transcript(alice_msg, bob_msg), random.Random(3))
    assert key == derive_key_alice(alice_secret, bob_msg, pub).key
    counts = {name: span.count for (_, name), span in tracer.spans.items()}
    # useful candidates, sampling tries, streamed letters, span growths
    for name in ("linalg.closure", "linalg.sample_invertible", "braid.e_multiply", "linalg.basis_add"):
        assert counts.get(name, 0) > 0, name
