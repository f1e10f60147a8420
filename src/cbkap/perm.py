"""Permutations of {1..n}, a shortest-word search and a word-writing chain.

Permutations are stored 0-based internally and compose left to right:
``(a * b)(x) == b(a(x))``, i.e. the left factor acts first.  This single
convention is used everywhere in the package (braid letters, semidirect
products, generator words) and is pinned by the braid-relation tests.

``shortest_word`` writes an element with the fewest generator letters.
The stabilizer chain, its fallback and the membership oracle, factors
any group element exactly through witness words over the labeled
generators, capped at MAX_CHAIN_LETTERS letters (past it, WordTooLong),
with shortest-word transversals (Dijkstra over the orbit graph).

Only the public constructor (so ``from_one_line`` and the file loaders)
validates: products and inverses are bijections by construction and are
built unchecked; the chain works on bare image tuples, the search on
packed keys.
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Perm", "NotInGroup", "WordTooLong", "MAX_CHAIN_LETTERS", "SEARCH_STATES",
    "GenWord", "evaluate_genword", "invert_genword", "shortest_word", "StabilizerChain",
]

# Cap on a chain word in generator letters, each a whole generator word
# for the attack to stream.  Where the search gives up, chain words reach
# 4,715 (n=28 seed 2) and 78,876 letters (n=28 seed 3), and three random
# generators on 16 points give 10^5 to 10^6.
MAX_CHAIN_LETTERS = 1 << 14

# Cap on the states and next-layer products shortest_word holds, 8 bytes each.
SEARCH_STATES = 1 << 18


class NotInGroup(ValueError):
    """The permutation is not in the group spanned by the chain."""


class WordTooLong(ValueError):
    """A strong generator's or a factored word exceeds MAX_CHAIN_LETTERS."""


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Images of a then b, ``b[a[x]]`` for every x, in one C-level gather
    (itemgetter with a single index returns a bare value)."""
    return itemgetter(*a)(b) if len(a) > 1 else tuple(b[v] for v in a)


class Perm:
    """An immutable permutation of {0..n-1}, composing left to right."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        img = tuple(images)
        if sorted(img) != list(range(len(img))):
            raise ValueError("images are not a bijection of 0..n-1")
        object.__setattr__(self, "images", img)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Perm":
        """Wrap images already known to be a bijection, unchecked."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

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
        return Perm._trusted(_compose(self.images, other.images))

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v] = i
        return Perm._trusted(tuple(inv))

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

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


def shortest_word(generators: Sequence[Perm], g: Perm, n: int) -> tuple[GenWord | None, int]:
    """A shortest word for g over the signed generators, and the states
    stored (past SEARCH_STATES, with the next layer's products, on a give-up).

    Breadth-first from the identity and from g, growing the side with the
    smaller last layer until the last layers meet; a state packs the
    images of the (at most 16) moved points into a uint64 key.  None when
    g moves a point the generators fix, more than 16 points move, a side
    is exhausted (g is not in the group), or past SEARCH_STATES.
    """
    imgs = np.array([p.images for p in generators] + [g.images]).reshape(-1, n)
    moved = (imgs[:-1] != np.arange(n)).any(axis=0)
    if moved.sum() > 16 or (imgs[-1] != np.arange(n))[~moved].any():
        return None, 0
    rows = np.full((len(imgs), 16), np.arange(16), np.uint8)  # moved points renumbered, padded
    rows[:, :moved.sum()] = (np.cumsum(moved) - 1)[imgs[:, moved]]
    # signed generator 2*label is the label's generator, 2*label+1 its inverse; g comes last
    signed = np.stack([rows, np.argsort(rows, axis=1)], axis=1).reshape(-1, 16)[:-1]
    tables = (signed[:, np.arange(256) & 15] | signed[:, np.arange(256) >> 4] << 4).astype(np.uint8)

    def times(keys):  # each state times each table, table-major: a gather of its bytes
        return np.take(tables, keys.view(np.uint8), axis=1).view(np.uint64).ravel()

    def member(keys, layer):
        return layer[np.searchsorted(layer, keys) % len(layer)] == keys

    def path(layers, key):  # signed generators from a state past these layers back to the root
        out = []
        for layer in reversed(layers):  # the parent: the first neighbor in the layer before
            nbrs = times(np.array([key], np.uint64))
            out.append(int(np.flatnonzero(member(nbrs, layer))[0]) ^ 1)
            key = nbrs[out[-1] ^ 1]
        return out

    ident = np.frombuffer(bytes(range(0x10, 0x100, 0x22)), np.uint64)  # images 0..15
    sides = [[ident], [times(ident)[-1:]]]  # the layers from the identity and from g
    tables = tables[:-1]
    while True:
        side, other = sorted(sides, key=lambda layers: len(layers[-1]))
        stored = sum(map(len, sides[0] + sides[1]))
        hit = np.flatnonzero(member(side[-1], other[-1]))
        if len(hit):  # meet = forward word = g * backward word, so g = forward * backward^-1
            fwd, bwd = (path(layers[:-1], side[-1][hit[0]]) for layers in sides)
            return tuple((j >> 1, (-1) ** j) for j in fwd[::-1] + [j ^ 1 for j in bwd]), stored
        stored += len(tables) * len(side[-1])  # the products, counted before they are made
        if stored > SEARCH_STATES:
            return None, stored
        cand = times(side[-1])
        for layer in side[-2:]:  # neighbors lie in the layers before, at and after
            cand = cand[~member(cand, layer)]
        if not len(cand):  # this side is closed: g is not in the group
            return None, stored
        cand.sort()
        side.append(cand[np.append(True, cand[1:] != cand[:-1])])


def _capped(word: GenWord) -> GenWord:
    if len(word) > MAX_CHAIN_LETTERS:
        raise WordTooLong(f"chain word longer than {MAX_CHAIN_LETTERS} generator letters")
    return word


class _Level:
    __slots__ = ("point", "gens", "transversal", "inv", "_words")

    def __init__(self, point: int, ident: tuple[int, ...]):
        self.point = point
        # strong generators assigned to this level: list of (Perm, GenWord)
        self.gens: list[tuple[Perm, GenWord]] = []
        # orbit point -> (images of u, word length, parent point | None,
        # (edge word, inverted?)); u maps the base point to the orbit
        # point.  Words are materialized (and edge words inverted) lazily,
        # so orbit rebuilds never concatenate or invert long words.
        self.transversal: dict[int, tuple] = {point: (ident, 0, None, None)}
        # orbit point -> images of u^-1, for sifting
        self.inv: dict[int, tuple[int, ...]] = {point: ident}
        self._words: dict[int, GenWord] = {}

    def word(self, point: int) -> GenWord:
        cached = self._words.get(point)
        if cached is not None:
            return cached
        _, _, parent, edge = self.transversal[point]
        if parent is None:
            out = ()
        else:
            gw, inverted = edge
            out = self.word(parent) + (invert_genword(gw) if inverted else gw)
        self._words[point] = out
        return out


class StabilizerChain:
    """Base-and-strong-generators structure with witness words.

    The base is the full point set in natural order, level i stabilizing
    points 0..i-1 and describing the orbit of point i.  Built by the
    deterministic Schreier-Sims procedure: every Schreier generator is
    sifted until a full pass adds nothing, which makes membership testing
    and factoring exact.  Construction and sifting work on image tuples;
    a residue becomes a Perm only when it is kept as a strong generator.
    """

    def __init__(self, generators: Sequence[Perm], n: int | None = None):
        if not generators:
            raise ValueError("generator list must be nonempty")
        self.n = n if n is not None else generators[0].n
        if any(g.n != self.n for g in generators):
            raise ValueError("generators act on different point counts")
        self.generators = list(generators)
        self._ident = tuple(range(self.n))
        self._levels = [_Level(i, self._ident) for i in range(self.n)]
        for label, g in enumerate(self.generators):
            self._insert(g.images, ((label, 1),))
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
        # A point's u and u^-1 are composed once, when it is settled.
        lvl = self._levels[i]
        edges = []
        for g, gw in self._level_gens(i):
            g_inv = g.inverse().images
            edges.append((g.images, g_inv, (gw, False)))
            edges.append((g_inv, g.images, (gw, True)))
        ident = self._ident
        trans = lvl.transversal = {}
        inv = lvl.inv = {}
        lvl._words.clear()
        # tentative point -> (length, parent, edge images, their inverse,
        # (edge word, inverted?))
        best = {lvl.point: (0, None, ident, ident, None)}
        heap = [(0, lvl.point)]
        while heap:
            dist, beta = heapq.heappop(heap)
            if beta in inv:
                continue
            _, parent, g, g_inv, edge = best[beta]
            if parent is None:
                trans[beta], inv[beta] = (ident, 0, None, None), ident
            else:
                trans[beta] = (_compose(trans[parent][0], g), dist, parent, edge)
                inv[beta] = _compose(g_inv, inv[parent])
            for g, g_inv, edge in edges:
                delta = g[beta]
                if delta in inv:
                    continue
                cand = dist + len(edge[0])
                known = best.get(delta)
                if known is None or cand < known[0]:
                    best[delta] = (cand, beta, g, g_inv, edge)
                    heapq.heappush(heap, (cand, delta))

    def _sift(self, p: tuple[int, ...], w: GenWord | None = None):
        """Reduce the images p through the chain, skipping levels whose
        point p fixes.  Returns the residue, its word (tracked only if w
        is given, so membership checks never build long words), and the
        level where it got stuck, or None there if it reached the identity.
        A tracked word only grows, so it is capped as it grows."""
        for i, lvl in enumerate(self._levels):
            beta = p[lvl.point]
            if beta == lvl.point:
                continue
            u_inv = lvl.inv.get(beta)
            if u_inv is None:
                return p, w, i
            p = _compose(p, u_inv)
            if w is not None:
                w = _capped(w + invert_genword(lvl.word(beta)))
        return p, w, None  # fixing every point forces the identity

    def _insert(self, p: tuple[int, ...], w: GenWord) -> bool:
        q, qw, i = self._sift(p, w)
        if i is None:
            return False
        self._levels[i].gens.append((Perm._trusted(q), _capped(qw)))
        for j in range(i + 1):
            self._rebuild_orbit(j)
        return True

    def _complete(self) -> None:
        # Verify-everything fixpoint: sift all Schreier generators of all
        # levels; every insertion strictly grows the recognized group, so
        # this terminates.  Candidates are processed shortest word first,
        # which keeps the strong-generator words (and therefore factored
        # words) short.  The Schreier generator u g u2^-1 is the identity
        # exactly when u g == u2.
        changed = True
        while changed:
            changed = False
            work = []
            for i, lvl in enumerate(self._levels):
                trans = lvl.transversal
                gens = [(g.images, gw) for g, gw in self._level_gens(i)]
                for beta in sorted(trans):
                    u, ulen = trans[beta][:2]
                    for g, gw in gens:
                        u2, u2len = trans[g[beta]][:2]
                        if _compose(u, g) != u2:
                            work.append((ulen + len(gw) + u2len, len(work), i, beta, g, gw))
            work.sort(key=lambda item: (item[0], item[1]))
            for _, _, i, beta, g, gw in work:
                # insertions rebuild orbits mid-pass, so re-derive the
                # Schreier element from the current transversal entries
                lvl = self._levels[i]
                delta = g[beta]
                ug = _compose(lvl.transversal[beta][0], g)
                if ug == lvl.transversal[delta][0]:
                    continue
                schreier = _compose(ug, lvl.inv[delta])
                if self._sift(schreier)[2] is None:
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
        return p.n == self.n and self._sift(p.images)[2] is None

    def factor(self, g: Perm) -> GenWord:
        """Express g as a product of the declared generators.

        Evaluating the returned word with :func:`evaluate_genword` over
        the declared generators yields exactly g.  Raises NotInGroup for
        elements outside the spanned group, and WordTooLong when the word
        would exceed MAX_CHAIN_LETTERS.
        """
        if g.n != self.n:
            raise NotInGroup("permutation size mismatch")
        _, w, stuck = self._sift(g.images, ())
        if stuck is not None:
            raise NotInGroup(f"{g!r} is not in the group spanned by the chain")
        # g times the sifted word is the identity
        return invert_genword(w)

    @property
    def levels(self):
        """Read access for inspection: list of (base point, {orbit point:
        (permutation, witness word)})."""
        return [
            (lvl.point, {pt: (Perm._trusted(u), lvl.word(pt)) for pt, (u, *_) in lvl.transversal.items()})
            for lvl in self._levels
        ]
