"""Permutations of {1..n} and a word-writing stabilizer chain.

Permutations are stored 0-based internally and compose left to right:
``(a * b)(x) == b(a(x))``, i.e. the left factor acts first.  This single
convention is used everywhere in the package (braid letters, semidirect
products, generator words) and is pinned by the braid-relation tests.

The stabilizer chain keeps, for every transversal element and strong
generator, a witness word over the original labeled generators, so that
any group element can be factored into an exact product of the declared
generators.  Factored words can be long; correctness, not length, is the
contract.  Transversals use shortest words (Dijkstra over the orbit
graph).  Randomized transversal shortening (Kalka-Teicher-Tsaban) is not
applied: at the benchmark sizes it roughly halves the factored words,
but the attack as a whole gets slower.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Sequence

__all__ = ["Perm", "NotInGroup", "GenWord", "evaluate_genword", "invert_genword", "StabilizerChain"]


class NotInGroup(ValueError):
    """The permutation is not in the group spanned by the chain."""


class Perm:
    """An immutable permutation of {0..n-1}, composing left to right."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        img = tuple(images)
        if sorted(img) != list(range(len(img))):
            raise ValueError("images are not a bijection of 0..n-1")
        object.__setattr__(self, "images", img)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Perm is immutable")

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(n))

    @classmethod
    def transposition(cls, n: int, i: int) -> "Perm":
        """The transposition swapping points i and i+1 (0-based)."""
        img = list(range(n))
        img[i], img[i + 1] = img[i + 1], img[i]
        return cls(img)

    @classmethod
    def random(cls, n: int, rng) -> "Perm":
        img = list(range(n))
        rng.shuffle(img)
        return cls(img)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Perm") -> "Perm":
        if other.n != self.n:
            raise ValueError("permutation size mismatch")
        o = other.images
        return Perm(o[v] for v in self.images)

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v] = i
        return Perm(inv)

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for i in range(self.n):
            if i in seen or self.images[i] == i:
                continue
            cyc = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        """Least r >= 1 with self^r = identity (lcm of cycle lengths)."""
        return math.lcm(*(len(c) for c in self.cycles()))

    def to_one_line(self) -> list[int]:
        """1-based image array, the serialization form."""
        return [v + 1 for v in self.images]

    @classmethod
    def from_one_line(cls, images: Sequence[int]) -> "Perm":
        return cls(v - 1 for v in images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and other.images == self.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Perm.identity({self.n})"
        body = "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cyc)
        return f"Perm[{body}]"


# A word over labeled generators: tuple of (label, exponent) with exponent +-1.
GenWord = tuple[tuple[int, int], ...]


def evaluate_genword(word: GenWord, gens: Sequence[Perm], n: int) -> Perm:
    """Product of the labeled generators in word order (left factor first)."""
    out = Perm.identity(n)
    for label, exp in word:
        g = gens[label]
        out = out * (g if exp > 0 else g.inverse())
    return out


def invert_genword(word: GenWord) -> GenWord:
    return tuple((label, -exp) for label, exp in reversed(word))


def genword_to_signed_labels(word: GenWord) -> list[int]:
    """Serialization form: 1-based labels, negated for inverse letters."""
    return [exp * (label + 1) for label, exp in word]


def genword_from_signed_labels(labels: Sequence[int]) -> GenWord:
    out = []
    for x in labels:
        if x == 0:
            raise ValueError("signed labels are nonzero")
        out.append((abs(x) - 1, 1 if x > 0 else -1))
    return tuple(out)


class _Level:
    __slots__ = ("point", "gens", "transversal", "_words")

    def __init__(self, point: int):
        self.point = point
        # strong generators assigned to this level: list of (Perm, GenWord)
        self.gens: list[tuple[Perm, GenWord]] = []
        # orbit point -> (u, word length, parent point | None, edge word);
        # u maps the base point to the orbit point.  Words are materialized
        # lazily so orbit rebuilds never concatenate long words.
        self.transversal: dict[int, tuple[Perm, int, int | None, GenWord | None]] = {}
        self._words: dict[int, GenWord] = {}

    def word(self, point: int) -> GenWord:
        cached = self._words.get(point)
        if cached is not None:
            return cached
        _, _, parent, edge = self.transversal[point]
        if parent is None:
            out = edge if edge is not None else ()
        else:
            out = self.word(parent) + edge
        self._words[point] = out
        return out


class StabilizerChain:
    """Base-and-strong-generators structure with witness words.

    The base is the full point set in natural order, level i stabilizing
    points 0..i-1 and describing the orbit of point i.  Built by the
    deterministic Schreier-Sims procedure: every Schreier generator is
    sifted until a full pass adds nothing, which makes membership testing
    and factoring exact.
    """

    def __init__(self, generators: Sequence[Perm], n: int | None = None):
        if not generators:
            raise ValueError("generator list must be nonempty")
        self.n = n if n is not None else generators[0].n
        if any(g.n != self.n for g in generators):
            raise ValueError("generators act on different point counts")
        self.generators = list(generators)
        self._levels = [_Level(i) for i in range(self.n)]
        for lvl in self._levels:
            lvl.transversal[lvl.point] = (Perm.identity(self.n), 0, None, None)
        for label, g in enumerate(self.generators):
            self._insert(g, ((label, 1),))
        self._complete()

    # -- construction ------------------------------------------------------

    def _level_gens(self, i: int) -> list[tuple[Perm, GenWord]]:
        out = []
        for lvl in self._levels[i:]:
            out.extend(lvl.gens)
        return out

    def _rebuild_orbit(self, i: int) -> None:
        # Shortest-word transversal: Dijkstra over the orbit graph with
        # edge weight = generator word length, walking generators both
        # ways.  Keeps factored words short; membership is unaffected.
        lvl = self._levels[i]
        edges = []
        for g, gw in self._level_gens(i):
            edges.append((g, gw))
            edges.append((g.inverse(), invert_genword(gw)))
        lvl.transversal = {lvl.point: (Perm.identity(self.n), 0, None, None)}
        lvl._words.clear()
        heap = [(0, lvl.point)]
        settled: set[int] = set()
        while heap:
            dist, beta = heapq.heappop(heap)
            if beta in settled:
                continue
            settled.add(beta)
            u = lvl.transversal[beta][0]
            for g, gw in edges:
                delta = g(beta)
                if delta in settled:
                    continue
                cand = dist + len(gw)
                known = lvl.transversal.get(delta)
                if known is None or cand < known[1]:
                    lvl.transversal[delta] = (u * g, cand, beta, gw)
                    heapq.heappush(heap, (cand, delta))

    def _sift(self, p: Perm, w: GenWord, start: int = 0):
        """Reduce p through the chain; None if it reaches the identity,
        else the residue, its word, and the level where it got stuck."""
        for i in range(start, self.n):
            if p.is_identity():
                return None
            lvl = self._levels[i]
            beta = p(lvl.point)
            entry = lvl.transversal.get(beta)
            if entry is None:
                return p, w, i
            p = p * entry[0].inverse()
            w = w + invert_genword(lvl.word(beta))
        return None  # fixing every point forces the identity

    def _reduces_to_identity(self, p: Perm) -> bool:
        """Word-free membership pre-check (avoids building long words)."""
        for lvl in self._levels:
            if p.is_identity():
                return True
            entry = lvl.transversal.get(p(lvl.point))
            if entry is None:
                return False
            p = p * entry[0].inverse()
        return True

    def _insert(self, p: Perm, w: GenWord) -> bool:
        res = self._sift(p, w)
        if res is None:
            return False
        q, qw, i = res
        self._levels[i].gens.append((q, qw))
        for j in range(i + 1):
            self._rebuild_orbit(j)
        return True

    def _complete(self) -> None:
        # Verify-everything fixpoint: sift all Schreier generators of all
        # levels; every insertion strictly grows the recognized group, so
        # this terminates.  Candidates are processed shortest word first,
        # which keeps the strong-generator words (and therefore factored
        # words) short.
        changed = True
        while changed:
            changed = False
            work = []
            for i in range(self.n):
                lvl = self._levels[i]
                gens = self._level_gens(i)
                for beta in sorted(lvl.transversal):
                    u = lvl.transversal[beta][0]
                    for g, gw in gens:
                        delta = g(beta)
                        u2 = lvl.transversal[delta][0]
                        schreier = u * g * u2.inverse()
                        if schreier.is_identity():
                            continue
                        wlen = lvl.transversal[beta][1] + len(gw) + lvl.transversal[delta][1]
                        work.append((wlen, len(work), i, beta, g, gw))
            work.sort(key=lambda item: (item[0], item[1]))
            for _, _, i, beta, g, gw in work:
                # insertions rebuild orbits mid-pass, so re-derive the
                # Schreier element from the current transversal entries
                lvl = self._levels[i]
                u = lvl.transversal[beta][0]
                delta = g(beta)
                u2 = lvl.transversal[delta][0]
                schreier = u * g * u2.inverse()
                if schreier.is_identity() or self._reduces_to_identity(schreier):
                    continue
                sw = lvl.word(beta) + gw + invert_genword(lvl.word(delta))
                if self._insert(schreier, sw):
                    changed = True

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        out = 1
        for lvl in self._levels:
            out *= len(lvl.transversal)
        return out

    def __contains__(self, p: Perm) -> bool:
        if p.n != self.n:
            return False
        return self._sift(p, ()) is None

    def factor(self, g: Perm) -> GenWord:
        """Express g as a product of the declared generators.

        Evaluating the returned word with :func:`evaluate_genword` over
        the declared generators yields exactly g.  Raises NotInGroup for
        elements outside the spanned group.
        """
        if g.n != self.n:
            raise NotInGroup("permutation size mismatch")
        used: list[GenWord] = []
        p = g
        for lvl in self._levels:
            if p.is_identity():
                break
            beta = p(lvl.point)
            entry = lvl.transversal.get(beta)
            if entry is None:
                raise NotInGroup(f"{g!r} is not in the group spanned by the chain")
            used.append(lvl.word(beta))
            p = p * entry[0].inverse()
        if not p.is_identity():  # pragma: no cover - full base forces identity
            raise NotInGroup(f"{g!r} is not in the group spanned by the chain")
        out: GenWord = ()
        for uw in reversed(used):
            out = out + uw
        return out

    @property
    def levels(self):
        """Read access for inspection: list of (base point, {orbit point:
        (permutation, witness word)})."""
        return [
            (lvl.point, {pt: (lvl.transversal[pt][0], lvl.word(pt)) for pt in lvl.transversal})
            for lvl in self._levels
        ]
