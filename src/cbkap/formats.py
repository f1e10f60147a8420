"""Bit-exact JSON file formats.

Every file is an envelope ``{"format_version": 1, "kind": ..., "payload":
...}`` whose payload contains integers only: field elements as integers
below 2^m, matrices as row-major integer arrays, permutations as 1-based
image arrays, braid words as arrays of signed integers (with
``{"body": ..., "count": ...}`` objects for repetitions and nested arrays
for shared subwords).  Serialization is deterministic, so seeded runs
produce byte-identical files.

Every payload but the statistics' carries an ``n``/``field`` header,
written by one helper and read by one loader skeleton, which checks it
against the public parameters where the caller has them and turns any
malformed payload into a FormatError.  A transcript holds both messages:
a missing or null ``"bob"`` is a FormatError.

Public and private instance halves always live in separate files; loaders
check the kind on every load so an attack driver can refuse private
material outright.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .braid import BraidWord, EvalParams, MatPerm, _Repeat
from .field import GF2m
from .perm import Perm
from .protocol import MAX_WORD_LETTERS, InstancePrivate, InstancePublic, SharedKey, Transcript

__all__ = [
    "FORMAT_VERSION",
    "KINDS",
    "FormatError",
    "MAX_WORD_DEPTH",
    "MAX_WORD_LETTERS",
    "save_envelope",
    "load_envelope",
    "word_to_json",
    "word_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "matperm_to_json",
    "matperm_from_json",
    "save_instance_public",
    "load_instance_public",
    "save_instance_private",
    "load_instance_private",
    "save_transcript",
    "load_transcript",
    "save_key",
    "load_key",
    "save_stats",
]

FORMAT_VERSION = 1
KINDS = ("instance_public", "instance_private", "transcript", "key", "stats")


class FormatError(ValueError):
    """A file failed to parse or carried the wrong kind/version."""


# Cap on a decoded braid word's nesting, far above generated words (one
# array deep): a hostile file must not exhaust the stack.  Its length is
# capped by protocol.MAX_WORD_LETTERS.
MAX_WORD_DEPTH = 64


def save_envelope(path, kind: str, payload: dict) -> None:
    if kind not in KINDS:
        raise FormatError(f"unknown envelope kind {kind!r}")
    doc = {"format_version": FORMAT_VERSION, "kind": kind, "payload": payload}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_envelope(path, expect_kind: str | None = None) -> tuple[str, dict]:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"format_version", "kind", "payload"}:
        raise FormatError(f"{path}: not an envelope")
    if doc["format_version"] != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format_version {doc['format_version']!r}")
    kind = doc["kind"]
    if kind not in KINDS:
        raise FormatError(f"{path}: unknown kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise FormatError(f"{path}: expected kind {expect_kind!r}, found {kind!r}")
    return kind, doc["payload"]


# -- leaf encoders ----------------------------------------------------------


def word_to_json(word: BraidWord):
    out = []
    for part in word._parts:
        if isinstance(part, int):
            out.append(part)
        elif isinstance(part, _Repeat):
            out.append({"body": word_to_json(part.body), "count": part.count})
        else:
            out.append(word_to_json(part))
    return out


def word_from_json(obj) -> BraidWord:
    """The inverse of word_to_json: letters, nested arrays (shared
    subwords) and repetition objects become the parts of one node.
    Decoded without recursion; raises FormatError beyond MAX_WORD_DEPTH
    nested arrays or MAX_WORD_LETTERS letters (counted, not streamed)."""
    if not isinstance(obj, list):
        raise FormatError("braid word must be an array")
    # one frame per open array: [remaining items, parts, letters, repetition
    # count, whether every part is a letter]
    stack = [[iter(obj), [], 0, None, True]]
    while True:
        frame = stack[-1]
        for item in frame[0]:
            if type(item) is int and item:
                frame[1].append(item)
                frame[2] += 1
                continue
            if isinstance(item, list):
                body, count = item, None
            elif isinstance(item, dict) and set(item) == {"body", "count"}:
                body, count = item["body"], item["count"]
                if type(count) is not int or count < 1:
                    raise FormatError(f"bad repetition count: {count!r}")
                if not isinstance(body, list):
                    raise FormatError("braid word must be an array")
            else:
                raise FormatError(f"bad braid word element: {item!r}")
            if len(stack) >= MAX_WORD_DEPTH:
                raise FormatError(f"braid word nested more than {MAX_WORD_DEPTH} arrays deep")
            stack.append([iter(body), [], 0, count, True])
            break
        else:
            _, parts, length, count, flat = stack.pop()
            if length > MAX_WORD_LETTERS:
                raise FormatError(f"braid word longer than {MAX_WORD_LETTERS} letters")
            word = BraidWord._from_parts(tuple(parts), length, flat)
            if not stack:
                return word
            stack[-1][1].append(word if count is None else _Repeat(word, count))
            stack[-1][2] += length * (count or 1)
            stack[-1][4] = False


def matrix_to_json(mat: np.ndarray) -> list[int]:
    return [int(v) for v in mat.reshape(-1)]


def _int(v, what: str) -> int:
    """v if it is a JSON integer (an int, not a bool), else FormatError."""
    if type(v) is not int:
        raise FormatError(f"{what} must be an integer: {v!r}")
    return v


def matrix_from_json(obj, n: int, field: GF2m) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != n * n:
        raise FormatError(f"matrix must be a row-major array of {n * n} integers")
    for v in obj:
        if not 0 <= _int(v, "field element") < field.order:
            raise FormatError(f"bad field element {v!r}")
    return np.array(obj, dtype=field.dtype).reshape(n, n)


def perm_from_json(obj, n: int) -> Perm:
    if not isinstance(obj, list) or len(obj) != n:
        raise FormatError(f"permutation must be a 1-based image array of length {n}")
    try:
        return Perm.from_one_line([_int(v, "permutation image") for v in obj])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad permutation: {exc}") from exc


def matperm_to_json(mp: MatPerm) -> dict:
    return {"mat": matrix_to_json(mp.mat), "perm": mp.perm.to_one_line()}


def matperm_from_json(obj, n: int, field: GF2m) -> MatPerm:
    if not isinstance(obj, dict) or set(obj) != {"mat", "perm"}:
        raise FormatError("matrix-permutation pair must have 'mat' and 'perm'")
    return MatPerm(matrix_from_json(obj["mat"], n, field), perm_from_json(obj["perm"], n))


# -- envelope payloads -------------------------------------------------------


def _save(path, kind: str, params: EvalParams, **body) -> None:
    """Write a payload of the given kind: the n/field header plus body."""
    field = {"degree": params.field.degree, "modulus": params.field.modulus}
    save_envelope(path, kind, {"n": params.n, "field": field, **body})


def _load(path, kind: str, build, params: EvalParams | None = None):
    """Read a payload of the given kind and its n/field header, check the
    header against params when given (and reuse their field), and return
    build(payload, n, field); a malformed payload raises FormatError."""
    _, payload = load_envelope(path, expect_kind=kind)
    try:
        degree, modulus = (_int(payload["field"][k], f"field {k}") for k in ("degree", "modulus"))
        n = _int(payload["n"], "n")
        if params is None:
            field = GF2m(degree, modulus)
        elif (degree, modulus, n) == (params.field.degree, params.field.modulus, params.n):
            field = params.field
        else:
            raise FormatError(f"{kind} does not match the public parameters")
        return build(payload, n, field)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_instance_public(path, pub: InstancePublic) -> None:
    a_gens = [word_to_json(w) for w in pub.a_gens]
    c_gens = [matrix_to_json(m) for m in pub.c_gens]
    tau = list(pub.params.tau)
    _save(path, "instance_public", pub.params, tau=tau, a_gens=a_gens, c_gens=c_gens)


def load_instance_public(path) -> InstancePublic:
    def build(payload, n, field):
        # only an array passes: a string's or an object's items are strings
        params = EvalParams(field, n, tuple(_int(t, "tau value") for t in payload["tau"]))
        a_gens = [word_from_json(w) for w in payload["a_gens"]]
        c_gens = [matrix_from_json(m, n, field) for m in payload["c_gens"]]
        return InstancePublic(params, a_gens, c_gens)

    return _load(path, "instance_public", build)


def save_instance_private(path, priv: InstancePrivate, params: EvalParams) -> None:
    b_gens = [word_to_json(w) for w in priv.b_gens]
    d_gens = [matrix_to_json(m) for m in priv.d_gens]
    _save(path, "instance_private", params, b_gens=b_gens, d_gens=d_gens)


def load_instance_private(path, params: EvalParams) -> InstancePrivate:
    def build(payload, n, field):
        b_gens = [word_from_json(w) for w in payload["b_gens"]]
        return InstancePrivate(b_gens, [matrix_from_json(m, n, field) for m in payload["d_gens"]])

    return _load(path, "instance_private", build, params)


def save_transcript(path, transcript: Transcript, params: EvalParams) -> None:
    alice, bob = matperm_to_json(transcript.alice_msg), matperm_to_json(transcript.bob_msg)
    _save(path, "transcript", params, alice=alice, bob=bob)


def load_transcript(path, params: EvalParams) -> Transcript:
    def build(payload, n, field):
        return Transcript(*(matperm_from_json(payload[k], n, field) for k in ("alice", "bob")))

    return _load(path, "transcript", build, params)


def save_key(path, key: SharedKey, params: EvalParams) -> None:
    _save(path, "key", params, key=matperm_to_json(key.key))


def load_key(path) -> SharedKey:
    def build(payload, n, field):
        return SharedKey(matperm_from_json(payload["key"], n, field))

    return _load(path, "key", build)


def save_stats(path, stats: dict) -> None:
    save_envelope(path, "stats", stats)
