import copy
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cbkap
from cbkap import formats
from cbkap.braid import BraidWord, word_perm
from cbkap.cli import main
from cbkap.field import GF2m
from cbkap.formats import FormatError
from cbkap.protocol import Transcript, alice_round, bob_round, derive_key_alice, ttp_generate

from conftest import random_alice_perm, random_group_exchange


def run(*argv):
    return main([str(a) for a in argv])


def gen_small(tmp_path, seed=7):
    assert run(
        "gen", "--n", 8, "--field-bits", 5, "--word-len", 100,
        "--seed", seed, "--out-dir", tmp_path,
    ) == 0
    return tmp_path / "instance_public.json", tmp_path / "instance_private.json"


def test_word_json_round_trip():
    flat = BraidWord([1, -3, 2, 2, -1])
    nested = BraidWord.concat(flat, BraidWord([4]).power(3), flat.inverse())
    deep = nested.power(2) + BraidWord([-2])
    for w in (BraidWord(), flat, nested, deep):
        back = formats.word_from_json(formats.word_to_json(w))
        assert list(back.letters()) == list(w.letters())
    assert formats.word_to_json(flat) == [1, -3, 2, 2, -1]
    with pytest.raises(FormatError):
        formats.word_from_json([1, "x"])
    with pytest.raises(FormatError):
        formats.word_from_json({"body": [1], "count": 2})
    # each load/save cycle returns the same array: letters stay in one node
    for j in (
        [1, -2, 3, {"body": [2, 1], "count": 3}],
        [[1, [2, {"body": [[3], -1], "count": 2}]], 4, {"body": [], "count": 1}],
    ):
        assert formats.word_to_json(formats.word_from_json(j)) == j
    # the length comes from the counts, not from streaming; above the cap
    # the word is refused
    cap = formats.MAX_WORD_LETTERS
    assert len(formats.word_from_json([{"body": [1], "count": cap}])) == cap
    nested = [1]
    for _ in range(formats.MAX_WORD_DEPTH - 1):
        nested = [nested]
    assert len(formats.word_from_json(nested)) == 1
    for bad in (
        [0],
        [{"body": [1], "count": 0}],
        [{"body": [1], "count": "2"}],
        [{"body": [1], "count": 10**12}],
        [{"body": [{"body": [1, 2], "count": 2**16}], "count": 2}],
        # lengths past sys.maxsize, where len() would overflow
        [{"body": [1], "count": 10**19}],
        [{"body": [{"body": [1], "count": 10**12}], "count": 10**12}],
        [nested],
    ):
        with pytest.raises(FormatError):
            formats.word_from_json(bad)


def test_instance_round_trip(tmp_path, small_instance):
    pub, priv, _ = small_instance
    p_pub = tmp_path / "pub.json"
    p_priv = tmp_path / "priv.json"
    formats.save_instance_public(p_pub, pub)
    formats.save_instance_private(p_priv, priv, pub.params)
    pub2 = formats.load_instance_public(p_pub)
    assert pub2.params == pub.params
    assert [list(w.letters()) for w in pub2.a_gens] == [list(w.letters()) for w in pub.a_gens]
    assert all(np.array_equal(a, b) for a, b in zip(pub2.c_gens, pub.c_gens))
    priv2 = formats.load_instance_private(p_priv, pub.params)
    assert [list(w.letters()) for w in priv2.b_gens] == [list(w.letters()) for w in priv.b_gens]
    assert all(np.array_equal(a, b) for a, b in zip(priv2.d_gens, priv.d_gens))


def test_transcript_and_key_round_trip(tmp_path, small_instance, small_exchange):
    pub, _, _ = small_instance
    _, alice_msg, _, bob_msg, key = small_exchange
    p_tr = tmp_path / "tr.json"
    formats.save_transcript(p_tr, Transcript(alice_msg, bob_msg), pub.params)
    tr = formats.load_transcript(p_tr, pub.params)
    assert tr.alice_msg == alice_msg and tr.bob_msg == bob_msg
    p_key = tmp_path / "key.json"
    formats.save_key(p_key, key, pub.params)
    assert formats.load_key(p_key) == key


def test_envelope_kind_and_version_checks(tmp_path, small_instance, small_exchange):
    pub, _, _ = small_instance
    key = small_exchange[-1]
    p = tmp_path / "key.json"
    formats.save_key(p, key, pub.params)
    with pytest.raises(FormatError):
        formats.load_envelope(p, expect_kind="instance_public")
    doc = json.loads(p.read_text())
    doc["format_version"] = 99
    p.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        formats.load_envelope(p)
    doc["format_version"] = 1
    doc["kind"] = "mystery"
    p.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        formats.load_envelope(p)


def test_headers_checked_against_params_reuse_their_field(tmp_path, small_instance, small_exchange):
    pub, _, _ = small_instance
    _, alice_msg, _, bob_msg, _ = small_exchange
    p = tmp_path / "tr.json"
    formats.save_transcript(p, Transcript(alice_msg, bob_msg), pub.params)
    assert formats.load_transcript(p, pub.params).alice_msg.mat.dtype == pub.params.field.dtype
    doc = json.loads(p.read_text())
    for header in ({"degree": 5, "modulus": 0x21}, {"degree": 6, "modulus": 0x43}, {"degree": 5}, "x"):
        doc["payload"]["field"] = header  # reducible, another field, incomplete, malformed
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            formats.load_transcript(p, pub.params)


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    """A valid public instance, transcript and key small enough that a
    random node of each is often a structural one (n, field, tau, an
    image array) rather than a braid letter or matrix entry."""
    rng = random.Random(0xF022)
    pub, priv, _ = ttp_generate(4, GF2m(3), 2, 6, rng=rng)
    alice_secret, alice_msg = alice_round(pub, rng)
    _, bob_msg = bob_round(pub, priv, rng)
    key = derive_key_alice(alice_secret, bob_msg, pub)
    out = tmp_path_factory.mktemp("valid")
    formats.save_instance_public(out / "public.json", pub)
    formats.save_transcript(out / "transcript.json", Transcript(alice_msg, bob_msg), pub.params)
    formats.save_key(out / "key.json", key, pub.params)
    docs = {name: json.loads((out / f"{name}.json").read_text()) for name in ("public", "transcript", "key")}
    return pub.params, docs, tmp_path_factory.mktemp("fuzz")


def json_paths(node, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, path + (key,))


def mutations(node, at_root):
    """The edits that apply to a node: type swaps for integers, null,
    deletion and duplication (wrong lengths, missing keys) and one more
    level of nesting."""
    out = ["null", "nest"]
    if type(node) is int:
        out += ["float", "half", "bool", "str"]
    if not at_root:
        out += ["delete", "duplicate"]
    return out


# replacements for a node, by mutation name; deletion and duplication
# edit the parent instead
REPLACE = {
    "null": lambda v: None,
    "nest": lambda v: [v],
    "float": float,
    "half": lambda v: v + 0.5,
    "bool": lambda v: bool(v % 2),
    "str": str,
}


def mutate(doc, path, how):
    holder = [copy.deepcopy(doc)]
    parent, key = holder, 0
    for step in path:
        parent, key = parent[key], step
    node = parent[key]
    if how == "delete":
        del parent[key]
    elif how != "duplicate":
        parent[key] = REPLACE[how](node)
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
    else:
        parent[key] = [node, copy.deepcopy(node)]
    return holder[0]


def integers_only(obj):
    if isinstance(obj, dict):
        return all(integers_only(v) for v in obj.values())
    if isinstance(obj, list):
        return all(integers_only(v) for v in obj)
    return obj is None or (isinstance(obj, int) and not isinstance(obj, bool))


@settings(max_examples=400, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_loaders_raise_only_format_errors(tiny_files, data):
    # Every load of a mutated file either raises FormatError or returns
    # objects that save back as integers only and load again.
    params, docs, work = tiny_files
    name = data.draw(st.sampled_from(sorted(docs)))
    doc = docs[name]
    for _ in range(data.draw(st.integers(1, 2))):
        paths = list(json_paths(doc))
        path = data.draw(st.sampled_from(paths))
        node = doc
        for step in path:
            node = node[step]
        doc = mutate(doc, path, data.draw(st.sampled_from(mutations(node, not path))))
    src = work / "mutated.json"
    src.write_text(json.dumps(doc))
    load, save = {
        "public": (formats.load_instance_public, formats.save_instance_public),
        "transcript": (
            lambda p: formats.load_transcript(p, params),
            lambda p, obj: formats.save_transcript(p, obj, params),
        ),
        "key": (formats.load_key, lambda p, obj: formats.save_key(p, obj, params)),
    }[name]
    try:
        loaded = load(src)
    except FormatError:
        return
    again = work / "again.json"
    save(again, loaded)
    assert integers_only(json.loads(again.read_text())["payload"])
    load(again)


def test_gen_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    gen_small(a, seed=5)
    gen_small(b, seed=5)
    for name in ("instance_public.json", "instance_private.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    c = tmp_path / "c"
    c.mkdir()
    gen_small(c, seed=6)
    assert (a / "instance_public.json").read_bytes() != (c / "instance_public.json").read_bytes()


def test_gen_usage_errors(tmp_path, capsys):
    # the library's ValueError is the message, with exit 2
    assert run("gen", "--n", 3, "--out-dir", tmp_path) == 2
    assert "need n >= 4" in capsys.readouterr().err
    assert run("gen", "--n", 8, "--field-bits", 8, "--modulus", "0x101", "--out-dir", tmp_path) == 2
    assert "modulus 0x101 is not irreducible" in capsys.readouterr().err


def test_gen_refuses_one_letter_words(tmp_path, capsys):
    # a one-letter kappa could never span an algebra of dim >= 3: exit 2
    # at once, with nothing written, rather than redrawing forever
    out = tmp_path / "one"
    argv = ["gen", "--n", 7, "--field-bits", 5, "--seed", 1, "--out-dir", out]
    assert run(*argv, "--word-len", 1) == 2
    assert "word_len must be >= 2" in capsys.readouterr().err
    assert not out.exists()
    assert run(*argv, "--word-len", 2) == 0


def test_protocol_and_verify_flow(tmp_path):
    pub_file, priv_file = gen_small(tmp_path)
    assert run(
        "protocol", "--public", pub_file, "--private", priv_file,
        "--seed", 11, "--out-dir", tmp_path,
    ) == 0
    assert run("verify", tmp_path / "key_alice.json", tmp_path / "key_bob.json") == 0
    # tamper one matrix entry
    doc = json.loads((tmp_path / "key_bob.json").read_text())
    doc["payload"]["key"]["mat"][0] ^= 1
    (tmp_path / "key_tampered.json").write_text(json.dumps(doc))
    assert run("verify", tmp_path / "key_alice.json", tmp_path / "key_tampered.json") == 1
    # tamper the permutation
    doc = json.loads((tmp_path / "key_bob.json").read_text())
    perm = doc["payload"]["key"]["perm"]
    perm[0], perm[1] = perm[1], perm[0]
    (tmp_path / "key_perm.json").write_text(json.dumps(doc))
    assert run("verify", tmp_path / "key_alice.json", tmp_path / "key_perm.json") == 1


def test_protocol_missing_private_file(tmp_path):
    pub_file, _ = gen_small(tmp_path)
    assert run(
        "protocol", "--public", pub_file, "--private", tmp_path / "nope.json",
        "--seed", 1, "--out-dir", tmp_path,
    ) == 2


def test_transcript_without_bob_is_refused(tmp_path, capsys):
    # a transcript holds both messages: a null or missing "bob" is a
    # format error (exit 2), for the loader and for the attack
    pub_file, priv_file = gen_small(tmp_path)
    assert run(
        "protocol", "--public", pub_file, "--private", priv_file,
        "--seed", 2, "--out-dir", tmp_path,
    ) == 0
    params = formats.load_instance_public(pub_file).params
    for edit in (lambda payload: payload.update(bob=None), lambda payload: payload.pop("bob")):
        doc = json.loads((tmp_path / "transcript.json").read_text())
        edit(doc["payload"])
        half = tmp_path / "half.json"
        half.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            formats.load_transcript(half, params)
        capsys.readouterr()
        assert run(
            "attack", "--public", pub_file, "--transcript", half,
            "--seed", 3, "--out-dir", tmp_path / "out",
        ) == 2
        assert "half.json" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# SHA-256 of the files of one small seeded gen/protocol run; the bytes of
# every file are part of the format
GOLDEN = {
    "instance_public.json": "f810e626ace66de332e34914b455813e9e2a8f14bb2d8caca00e11bdc4cdcfbe",
    "instance_private.json": "e43ef71cd111bf7b7bd4a649c9caa0d05e07c759104c04553c59a25326cadfad",
    "transcript.json": "dd54e95a38b3d0be68a99ec5abaa32ab1d13e0d54b4df480700aa046e1a53409",
    "key_alice.json": "cafa2c677f0c939e0a8cc4ad6cc4ef8d21cf949bfc05b2c19b482bbb2e685968",
}


def test_gen_and_protocol_files_are_pinned(tmp_path):
    assert run(
        "gen", "--n", 6, "--field-bits", 4, "--gens", 3, "--word-len", 20,
        "--seed", 5, "--out-dir", tmp_path,
    ) == 0
    assert run(
        "protocol", "--public", tmp_path / "instance_public.json",
        "--private", tmp_path / "instance_private.json", "--seed", 6, "--out-dir", tmp_path,
    ) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert digests == GOLDEN


# the same run with D an invertible polynomial in kappa (gen --d-polynomial):
# only Bob's private file, and the messages and key drawn after it, differ
GOLDEN_D_POLYNOMIAL = dict(
    GOLDEN,
    **{
        "instance_private.json": "93862922efc65f5728bd19495953c9aa8a62882cd7097055def3850b82332b4e",
        "transcript.json": "caf6f5a6bf3481b302a21d12b2ad65f9532bbfd6461414f49aa851a300e0f02b",
        "key_alice.json": "a9a5065fe498ab15abea077ed72df5c7ca87309073ccd71bd68dddbcfe45cfc0",
    },
)


def test_d_polynomial_gen_and_protocol_files_are_pinned(tmp_path):
    assert run(
        "gen", "--n", 6, "--field-bits", 4, "--gens", 3, "--word-len", 20,
        "--seed", 5, "--d-polynomial", "--out-dir", tmp_path,
    ) == 0
    assert run(
        "protocol", "--public", tmp_path / "instance_public.json",
        "--private", tmp_path / "instance_private.json", "--seed", 6, "--out-dir", tmp_path,
    ) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert digests == GOLDEN_D_POLYNOMIAL


def test_attack_flow_recovers_alice_key(tmp_path):
    pub_file, priv_file = gen_small(tmp_path)
    assert run(
        "protocol", "--public", pub_file, "--private", priv_file,
        "--seed", 21, "--out-dir", tmp_path,
    ) == 0
    assert run(
        "attack", "--public", pub_file, "--transcript", tmp_path / "transcript.json",
        "--seed", 22, "--out-dir", tmp_path,
    ) == 0
    assert run("verify", tmp_path / "key_recovered.json", tmp_path / "key_alice.json") == 0
    kind, stats = formats.load_envelope(tmp_path / "stats.json", expect_kind="stats")
    for field in ("dim_v", "candidates", "factor_letters", "total_seconds", "peak_rss_mb"):
        assert field in stats
    assert stats["failed_stage"] is None


@pytest.mark.parametrize(
    "huge",
    [
        [{"body": [1], "count": 10**19}],
        [{"body": [{"body": [1], "count": 10**12}], "count": 10**12}],
    ],
    ids=["count_1e19", "nested_1e12x1e12"],
)
def test_attack_refuses_overlong_generator_word(tmp_path, capsys, huge):
    # a generator word longer than sys.maxsize letters is a format error
    # (exit 2), not a crash
    pub_file, priv_file = gen_small(tmp_path)
    assert run(
        "protocol", "--public", pub_file, "--private", priv_file,
        "--seed", 21, "--out-dir", tmp_path,
    ) == 0
    doc = json.loads(pub_file.read_text())
    doc["payload"]["a_gens"][0] = huge
    bad = tmp_path / "overlong_public.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="longer than"):
        formats.load_instance_public(bad)
    assert run(
        "attack", "--public", bad, "--transcript", tmp_path / "transcript.json",
        "--seed", 1, "--out-dir", tmp_path / "out",
    ) == 2
    assert "longer than" in capsys.readouterr().err


def test_attack_failure_writes_stats_with_stage(tmp_path, capsys):
    # Alice's permutation replaced by one of Bob's generators: outside the
    # A group, so factoring fails; stats.json still records the run
    pub_file, priv_file = gen_small(tmp_path)
    assert run(
        "protocol", "--public", pub_file, "--private", priv_file,
        "--seed", 21, "--out-dir", tmp_path,
    ) == 0
    pub = formats.load_instance_public(pub_file)
    priv = formats.load_instance_private(priv_file, pub.params)
    foreign = next(p for p in (word_perm(w, 8) for w in priv.b_gens) if not p.is_identity())
    doc = json.loads((tmp_path / "transcript.json").read_text())
    doc["payload"]["alice"]["perm"] = foreign.to_one_line()
    bad = tmp_path / "foreign_transcript.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(
        "attack", "--public", pub_file, "--transcript", bad, "--seed", 1, "--out-dir", out,
    ) == 3
    assert "stage factor" in capsys.readouterr().err
    _, stats = formats.load_envelope(out / "stats.json", expect_kind="stats")
    assert stats["failed_stage"] == "factor"
    assert stats["candidates"] == 0 and stats["factor_seconds"] > 0
    assert stats["factor_seconds"] <= stats["total_seconds"]
    assert not (out / "key_recovered.json").exists()


def test_attack_on_singular_message_fails_at_factor(tmp_path, capsys):
    # a singular Alice matrix: stage-factor failure (exit 3) with stats
    pub_file, priv_file = gen_small(tmp_path)
    assert run(
        "protocol", "--public", pub_file, "--private", priv_file,
        "--seed", 22, "--out-dir", tmp_path,
    ) == 0
    doc = json.loads((tmp_path / "transcript.json").read_text())
    doc["payload"]["alice"]["mat"][:8] = [0] * 8  # first row of the 8x8 matrix
    bad = tmp_path / "singular_transcript.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(
        "attack", "--public", pub_file, "--transcript", bad, "--seed", 1, "--out-dir", out,
    ) == 3
    # the stage is named once
    assert capsys.readouterr().err.splitlines()[0] == "attack failed at stage factor: matrix is singular"
    _, stats = formats.load_envelope(out / "stats.json", expect_kind="stats")
    assert stats["failed_stage"] == "factor" and stats["candidates"] == 0
    assert not (out / "key_recovered.json").exists()


def test_attack_stops_at_chain_word_cap(tmp_path, capsys):
    # A generators whose permutations generate S_16 and a random Alice
    # permutation, beyond the shortest-word search: the stabilizer chain
    # stops at its word cap, a stage-factor failure (exit 3) with stats
    pub, transcript, _ = random_group_exchange(16, 101, 30)
    transcript = random_alice_perm(transcript, 30)
    formats.save_instance_public(tmp_path / "public.json", pub)
    formats.save_transcript(tmp_path / "transcript.json", transcript, pub.params)
    out = tmp_path / "out"
    assert run(
        "attack", "--public", tmp_path / "public.json",
        "--transcript", tmp_path / "transcript.json", "--seed", 1, "--out-dir", out,
    ) == 3
    assert "stage factor" in capsys.readouterr().err
    _, stats = formats.load_envelope(out / "stats.json", expect_kind="stats")
    assert stats["failed_stage"] == "factor" and stats["candidates"] == 0
    assert stats["search_states"] > cbkap.perm.SEARCH_STATES  # the chain's failure, not the search's
    assert not (out / "key_recovered.json").exists()


def test_attack_refuses_private_material(tmp_path):
    pub_file, priv_file = gen_small(tmp_path)
    assert run(
        "protocol", "--public", pub_file, "--private", priv_file,
        "--seed", 21, "--out-dir", tmp_path,
    ) == 0
    assert run(
        "attack", "--public", priv_file, "--transcript", tmp_path / "transcript.json",
        "--seed", 1, "--out-dir", tmp_path,
    ) == 2
    assert run(
        "attack", "--public", pub_file, "--transcript", priv_file,
        "--seed", 1, "--out-dir", tmp_path,
    ) == 2


@pytest.mark.parametrize("key", ["a_gens", "c_gens", "b_gens", "d_gens"])
def test_empty_generator_lists_are_refused_at_load(tmp_path, capsys, key):
    # an instance with no generators of one kind is a format error (exit
    # 2) for every command that loads it, before any stage runs
    pub_file, priv_file = gen_small(tmp_path)
    assert run(
        "protocol", "--public", pub_file, "--private", priv_file,
        "--seed", 21, "--out-dir", tmp_path,
    ) == 0
    private = key in ("b_gens", "d_gens")
    doc = json.loads((priv_file if private else pub_file).read_text())
    doc["payload"][key] = []
    bad = tmp_path / f"empty_{key}.json"
    bad.write_text(json.dumps(doc))
    pub = formats.load_instance_public(pub_file)
    with pytest.raises(FormatError, match="at least one"):
        if private:
            formats.load_instance_private(bad, pub.params)
        else:
            formats.load_instance_public(bad)
    out = tmp_path / "out"
    public, secret = (pub_file, bad) if private else (bad, priv_file)
    assert run(
        "protocol", "--public", public, "--private", secret, "--seed", 1, "--out-dir", out,
    ) == 2
    if not private:
        assert run(
            "attack", "--public", bad, "--transcript", tmp_path / "transcript.json",
            "--seed", 1, "--out-dir", out,
        ) == 2
    assert "at least one" in capsys.readouterr().err
    assert not out.exists()


def flip_first_entry(mat):
    mat[0] ^= 1


def swap_first_images(perm):
    perm[0], perm[1] = perm[1], perm[0]


@pytest.mark.parametrize(
    "party, part, tamper",
    [
        ("alice", "mat", flip_first_entry),
        ("alice", "perm", swap_first_images),
        ("bob", "perm", swap_first_images),
    ],
    ids=["alice_matrix_entry", "alice_perm_swap", "bob_perm_swap"],
)
def test_attack_on_tampered_transcript_fails_at_a_stage_or_gives_another_key(
    tmp_path, capsys, party, part, tamper
):
    # a tampered message either stops the attack at a named stage (exit 3
    # with stats.json) or yields a key that differs from Alice's (exit 0,
    # then verify exits 1); an unexpected exception fails the test
    pub_file, priv_file = gen_small(tmp_path)
    assert run(
        "protocol", "--public", pub_file, "--private", priv_file,
        "--seed", 21, "--out-dir", tmp_path,
    ) == 0
    doc = json.loads((tmp_path / "transcript.json").read_text())
    tamper(doc["payload"][party][part])
    bad = tmp_path / "tampered_transcript.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = run("attack", "--public", pub_file, "--transcript", bad, "--seed", 1, "--out-dir", out)
    assert code in (0, 3)
    _, stats = formats.load_envelope(out / "stats.json", expect_kind="stats")
    if code == 3:
        assert stats["failed_stage"] is not None
        assert f"stage {stats['failed_stage']}" in capsys.readouterr().err
        assert not (out / "key_recovered.json").exists()
    else:
        assert code == 0 and stats["failed_stage"] is None
        assert run("verify", out / "key_recovered.json", tmp_path / "key_alice.json") == 1


def hostile_public(tmp_path, a_gen_json):
    """A small instance, its transcript, and a copy of the public file
    whose first A generator is replaced by the given JSON text."""
    pub_file, priv_file = gen_small(tmp_path)
    assert run(
        "protocol", "--public", pub_file, "--private", priv_file,
        "--seed", 21, "--out-dir", tmp_path,
    ) == 0
    doc = json.loads(pub_file.read_text())
    doc["payload"]["a_gens"][0] = "HOLE"
    bad = tmp_path / "hostile_public.json"
    bad.write_text(json.dumps(doc).replace('"HOLE"', a_gen_json))
    return bad, tmp_path / "transcript.json"


def test_attack_rejects_deeply_nested_word(tmp_path):
    # 3000 arrays deep overflows the JSON decoder's recursion; 100 parses
    # and exceeds the word decoder's depth cap.  Both are format errors.
    for depth in (3000, 100):
        bad, transcript = hostile_public(tmp_path, "[" * depth + "1" + "]" * depth)
        assert run(
            "attack", "--public", bad, "--transcript", transcript,
            "--seed", 1, "--out-dir", tmp_path,
        ) == 2


def test_attack_rejects_word_above_letter_cap(tmp_path):
    # uncapped, every attack candidate would stream 10^12 letters; the
    # child process bounds the wall time if the cap ever regresses
    bad, transcript = hostile_public(tmp_path, '[{"body": [1], "count": 1000000000000}]')
    env = dict(os.environ, PYTHONPATH=str(Path(cbkap.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys; from cbkap.cli import main; sys.exit(main())",
         "attack", "--public", str(bad), "--transcript", str(transcript),
         "--seed", "1", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert out.returncode == 2, out.stderr
    assert "longer than" in out.stderr
    # an empty body repeated 10^12 times has no letters and streams none
    out = subprocess.run(
        [sys.executable, "-c", "from cbkap.formats import word_from_json as f; "
         "print(list(f([1, {'body': [], 'count': 10**12}]).letters()))"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert out.stdout == "[1]\n", out.stderr


def test_attack_rejects_float_permutation(tmp_path):
    # float images that equal integers once used to load, and the attack
    # then died with a TypeError and exit code 1 ("keys differ")
    pub_file, priv_file = gen_small(tmp_path)
    assert run(
        "protocol", "--public", pub_file, "--private", priv_file,
        "--seed", 21, "--out-dir", tmp_path,
    ) == 0
    doc = json.loads((tmp_path / "transcript.json").read_text())
    doc["payload"]["bob"]["perm"] = [float(v) for v in doc["payload"]["bob"]["perm"]]
    bad = tmp_path / "float_transcript.json"
    bad.write_text(json.dumps(doc))
    assert run(
        "attack", "--public", pub_file, "--transcript", bad,
        "--seed", 1, "--out-dir", tmp_path,
    ) == 2
    with pytest.raises(FormatError):
        formats.perm_from_json([2, 1, 3.0], 3)
    with pytest.raises(FormatError):
        formats.perm_from_json([True, 2, 3], 3)


NON_INTEGER_PUBLIC = {
    "n_float": lambda p: p.update(n=float(p["n"])),
    "n_string": lambda p: p.update(n=str(p["n"])),
    "degree_float": lambda p: p["field"].update(degree=p["field"]["degree"] + 0.9),
    "modulus_string": lambda p: p["field"].update(modulus=str(p["field"]["modulus"])),
    "tau_floats": lambda p: p.update(tau=[float(t) for t in p["tau"]]),
    "tau_strings": lambda p: p.update(tau=[str(t) for t in p["tau"]]),
    "tau_true": lambda p: p.update(tau=[True] * len(p["tau"])),
    # one digit per strand, each a nonzero field element
    "tau_digit_string": lambda p: p.update(tau="".join(str(1 + k % 9) for k in range(p["n"]))),
}


@pytest.mark.parametrize("mutation", NON_INTEGER_PUBLIC)
def test_protocol_rejects_non_integer_header_and_tau(tmp_path, mutation):
    # values that int() converts used to load, and the run then reported
    # "keys agree" on a file outside the integers-only format
    pub_file, priv_file = gen_small(tmp_path)
    doc = json.loads(pub_file.read_text())
    NON_INTEGER_PUBLIC[mutation](doc["payload"])
    bad = tmp_path / "bad_public.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        formats.load_instance_public(bad)
    assert run(
        "protocol", "--public", bad, "--private", priv_file,
        "--seed", 21, "--out-dir", tmp_path,
    ) == 2


def test_matrix_loader_rejects_non_integer_elements():
    fld = GF2m(5)
    for vals in ([1.0, 0, 0, 1], ["1", 0, 0, 1], [True, 0, 0, 1]):
        with pytest.raises(FormatError):
            formats.matrix_from_json(vals, 2, fld)
    assert formats.matrix_from_json([1, 0, 0, 1], 2, fld).tolist() == [[1, 0], [0, 1]]


def test_eraser_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("ERASER_SEED", "33")
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for out in (a, b):
        assert run("gen", "--n", 8, "--field-bits", 5, "--word-len", 60, "--out-dir", out) == 0
    assert (a / "instance_public.json").read_bytes() == (b / "instance_public.json").read_bytes()
    monkeypatch.setenv("ERASER_SEED", "not-a-number")
    assert run("gen", "--n", 8, "--field-bits", 5, "--word-len", 60, "--out-dir", a) == 2


def test_usage_exit_code():
    assert run("gen", "--badflag") == 2
    assert run() == 2


def test_module_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "cbkap.cli", "gen", "--n", "6", "--field-bits", "4",
         "--word-len", "20", "--seed", "1", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "instance_public.json").exists()
