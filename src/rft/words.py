"""Exact word algebra for free, free-abelian and closed-surface groups.

Words are tuples of signed letters over a declared alphabet.  Everything
here is pure and total: reduction, cyclic reduction, proper-power
detection, homomorphism application, abelianization, ball enumeration,
and Dehn's algorithm for closed hyperbolic surface groups.

Free reduction happens once per word: where a word enters the engine,
or where the engine builds it.  Here `reduce_word`, `cyclic_reduce` and
`dehn_reduce` reduce their input (`cyclic_core` is `cyclic_reduce`
for a word already reduced); `apply_map` and `GroupHom.apply`
reduce the image they build; `join_reduced` and `walk_ball` take reduced
words and keep them reduced, cancelling only where two of them meet;
`concat`, `invert`, `power` and `commutator` do not reduce.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Iterator, Optional

__all__ = [
    "AlphabetError",
    "WordError",
    "Alphabet",
    "Word",
    "GroupHom",
    "SurfacePresentation",
    "apply_map",
    "EMPTY",
    "letter",
    "concat",
    "invert",
    "power",
    "reduce_word",
    "cyclic_reduce",
    "cyclic_core",
    "least_rotation",
    "is_proper_power",
    "abelianize",
    "enumerate_ball",
    "walk_ball",
    "join_reduced",
    "ball_size",
    "parse_word",
    "format_word",
    "commutator",
    "dehn_reduce",
]


class AlphabetError(ValueError):
    """A word used a symbol that is not declared in its alphabet."""


class WordError(ValueError):
    """A word-level precondition failed (e.g. trivial input where nontrivial required)."""


NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")

# A letter is (symbol, sign) with sign in {+1, -1}; a word is a tuple of letters.
Letter = tuple[str, int]
Word = tuple[Letter, ...]

EMPTY: Word = ()


class Record:
    """Base of the plain records that are compared by value: two records
    are equal when they have one type and equal attributes.  A record is
    unhashable unless its class defines a hash."""

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)


class Alphabet:
    """Ordered list of distinct generator names."""

    def __init__(self, generators: tuple[str, ...]):
        position: dict[str, int] = {}
        for name in generators:
            if not NAME_RE.fullmatch(name):
                raise AlphabetError(f"bad generator name: {name!r}")
            if name in position:
                raise AlphabetError(f"duplicate generator name: {name!r}")
            position[name] = len(position)
        self.generators = generators
        # name -> position; derived from `generators`, so equality and hash skip it
        self._position = position

    def __eq__(self, other):
        return type(other) is Alphabet and other.generators == self.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return f"Alphabet(generators={self.generators!r})"

    def __contains__(self, name: str) -> bool:
        return name in self._position

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def index(self, name: str) -> int:
        try:
            return self._position[name]
        except KeyError:
            raise AlphabetError(f"undeclared symbol: {name!r}") from None

    def union(self, other: "Alphabet") -> "Alphabet":
        extra = tuple(g for g in other.generators if g not in self._position)
        return Alphabet(self.generators + extra)

    def check(self, w: Word) -> Word:
        position = self._position
        for sym, _ in w:
            if sym not in position:
                raise AlphabetError(f"undeclared symbol: {sym!r}")
        return w


def alphabet(*names: str) -> Alphabet:
    return Alphabet(tuple(names))


def letter(sym: str, sign: int = 1) -> Word:
    if sign not in (1, -1):
        raise WordError(f"letter sign must be +-1, got {sign}")
    return ((sym, sign),)


def concat(*ws: Word) -> Word:
    out: list[Letter] = []
    for w in ws:
        out.extend(w)
    return tuple(out)


def invert(w: Word) -> Word:
    return tuple((sym, -sign) for sym, sign in reversed(w))


def power(w: Word, n: int) -> Word:
    if n < 0:
        return invert(w) * (-n)
    return w * n


def reduce_word(w: Word, alph: Optional[Alphabet] = None) -> Word:
    """Free reduction: cancel adjacent inverse pairs; unique normal form."""
    if alph is not None:
        alph.check(w)
    out: list[Letter] = []
    for sym, sign in w:
        if out and out[-1][0] == sym and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((sym, sign))
    return tuple(out)


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Return (core, conjugator) with w = conjugator * core * conjugator^-1."""
    return cyclic_core(reduce_word(w))


def cyclic_core(w: Word) -> tuple[Word, Word]:
    """`cyclic_reduce` of a word that is already reduced: the core and
    conjugator are cut from w by slicing alone."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i][0] == w[j - 1][0] and w[i][1] == -w[j - 1][1]:
        i += 1
        j -= 1
    return w[i:j], w[:i]


def least_rotation(w: Word) -> Word:
    """The lexicographically least cyclic rotation of w, found in linear
    time by a two-candidate scan (Shiloach 1981).  Two words are
    rotations of each other exactly when their least rotations are
    equal."""
    n = len(w)
    ww = w + w
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = ww[i + k], ww[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j + 1, i + k + 1)
        else:
            j += k + 1
        k = 0
    return ww[i:i + n]


def _divisors(n: int) -> Iterator[int]:
    for d in range(1, n + 1):
        if n % d == 0:
            yield d


def is_proper_power(w: Word) -> Optional[tuple[Word, int]]:
    """Maximal-exponent decomposition of the cyclically reduced core, or None.

    Detection is by period checking on the cyclic word, O(n^2); plenty at
    the scale this library is used at.
    """
    core, _ = cyclic_reduce(w)
    n = len(core)
    if n == 0:
        raise WordError("proper-power test requires a nontrivial word")
    for p in _divisors(n):
        if p == n:
            break
        if core == core[:p] * (n // p):
            return core[:p], n // p
    return None


def abelianize(w: Word, alph: Alphabet) -> tuple[int, ...]:
    """Exponent-sum vector indexed by the alphabet's generators."""
    counts = {g: 0 for g in alph.generators}
    for sym, sign in w:
        if sym not in counts:
            raise AlphabetError(f"undeclared symbol: {sym!r}")
        counts[sym] += sign
    return tuple(counts[g] for g in alph.generators)


def join_reduced(u: Word, v: Word) -> Word:
    """Reduced form of u v for reduced u and v: letters cancel only at the
    junction, so the rest of both words is copied as it is."""
    i, k, n = len(u), 0, len(v)
    while i and k < n and u[i - 1][0] == v[k][0] and u[i - 1][1] == -v[k][1]:
        i -= 1
        k += 1
    return u[:i] + v[k:]


# Most words a ball walk visits.  Balls grow as (2n-1)^radius, so the
# size is checked before any word is built: a radius-12 ball over four
# generators has about 2 * 10^10 words.
MAX_BALL_SIZE = 100_000


def walk_ball(alph: Alphabet, radius: int, *homs: GroupHom) -> Iterator[tuple[Word, ...]]:
    """All reduced words w of length <= radius in shortlex order, each as
    (w, h(w) for h in homs), every image reduced.

    Letter order is (g, +1) before (g, -1), generators in declared order.
    A word of one layer extends a word of the layer before by one letter,
    and its images extend that word's images by the letter's images
    (`join_reduced`), so each hom is applied once per generator.  Only
    the layer being extended and the one being built are held, never
    the whole ball.  A ball of more than `MAX_BALL_SIZE`
    words is refused with WordError before any word is built.
    """
    if radius < 0:
        raise WordError("radius must be >= 0")
    if ball_size(len(alph), min(radius, MAX_BALL_SIZE)) > MAX_BALL_SIZE:
        raise WordError(f"the radius-{radius} ball over {len(alph)} generators has "
                        f"more than {MAX_BALL_SIZE} words")
    steps: list[tuple[Letter, tuple[Word, ...]]] = []
    for g in alph.generators:
        images = tuple(h.apply(letter(g)) for h in homs)
        steps.append(((g, 1), images))
        steps.append(((g, -1), tuple(invert(img) for img in images)))
    layer = [(EMPTY,) * (len(homs) + 1)]
    yield layer[0]
    for _ in range(radius if steps else 0):
        nxt = []
        for entry in layer:
            w, images = entry[0], entry[1:]
            undo = (w[-1][0], -w[-1][1]) if w else None
            for lt, lt_images in steps:
                if lt != undo:
                    child = (w + (lt,), *map(join_reduced, images, lt_images))
                    nxt.append(child)
                    yield child
        layer = nxt


def enumerate_ball(alph: Alphabet, radius: int) -> list[Word]:
    """All reduced words of length <= radius in `walk_ball`'s shortlex order."""
    return [w for w, in walk_ball(alph, radius)]


def ball_size(rank: int, radius: int) -> int:
    """Closed-form count of reduced words of length <= radius in rank n."""
    n = rank
    if n <= 1:
        return 1 + 2 * n * radius
    return 1 + n * ((2 * n - 1) ** radius - 1) // (n - 1)


class GroupHom(Record):
    """Homomorphism between free-ish generating sets, given on generators.
    Two homs are equal when their source, target and images are."""

    def __init__(self, source: Alphabet, target: Alphabet, images: dict[str, Word]):
        self.source = source
        self.target = target
        self.images = images
        for g in source.generators:
            if g not in images:
                raise WordError(f"homomorphism not total: missing image of {g!r}")
        for g, w in images.items():
            target.check(w)

    def __hash__(self):
        return hash((self.source, self.target, frozenset(self.images.items())))

    @staticmethod
    def identity(alph: Alphabet) -> "GroupHom":
        return GroupHom(alph, alph, {g: letter(g) for g in alph.generators})

    def apply(self, w: Word) -> Word:
        return apply_map(self.images, w)

    def then(self, other: "GroupHom") -> "GroupHom":
        """Composition: first self, then other."""
        return GroupHom(
            self.source,
            other.target,
            {g: other.apply(self.images[g]) for g in self.source.generators},
        )


def apply_map(images: dict[str, Word], w: Word) -> Word:
    """Reduced image of w under the map given on generators by `images`."""
    out: list[Letter] = []
    for sym, sign in w:
        img = images.get(sym)
        if img is None:
            raise AlphabetError(f"undeclared symbol: {sym!r}")
        out.extend(img if sign == 1 else invert(img))
    return reduce_word(out)


def commutator(u: Word, v: Word) -> Word:
    return concat(u, v, invert(u), invert(v))


# ---------------------------------------------------------------------------
# Word grammar.  Whitespace-separated atoms `g`, `g^-1`, `g^k`, plus
# commutator sugar `[u,v]` (nestable, may carry an exponent).
# ---------------------------------------------------------------------------

# Longest word the grammar expands to.  Powers and nested commutators grow
# the letter count far faster than the text (200 characters of nested
# commutators describe about 2^50 letters), so lengths are checked before
# anything is built.
MAX_WORD_LENGTH = 100_000

# Deepest commutator nesting the grammar accepts; the parser recurses once
# per level.  Nonempty operands pass MAX_WORD_LENGTH after about 17 levels,
# so only empty operands get this deep.
MAX_WORD_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, msg: str):
        raise WordError(f"word syntax error at position {self.pos}: {msg}")

    def check_length(self, n: int):
        if n > MAX_WORD_LENGTH:
            raise WordError(
                f"word too long at position {self.pos}: {n} letters, "
                f"the limit is {MAX_WORD_LENGTH}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_int(self) -> int:
        m = re.match(r"-?\d+", self.text[self.pos:])
        if not m:
            self.error("expected integer exponent")
        self.pos += m.end()
        return int(m.group())

    def parse_atom(self) -> Word:
        c = self.peek()
        if c == "[":
            if self.depth == MAX_WORD_DEPTH:
                self.error(f"commutators nested deeper than {MAX_WORD_DEPTH}")
            self.pos += 1
            self.depth += 1
            u = self.parse_seq(stop=",]")
            if self.peek() != ",":
                self.error("expected ',' in commutator")
            self.pos += 1
            v = self.parse_seq(stop="]")
            if self.peek() != "]":
                self.error("expected ']' closing commutator")
            self.pos += 1
            self.depth -= 1
            self.check_length(2 * (len(u) + len(v)))
            base = commutator(u, v)
        else:
            m = NAME_RE.match(self.text, self.pos)
            if not m:
                self.error("expected generator name or '['")
            self.pos = m.end()
            base = letter(m.group())
        if self.peek() == "^":
            self.pos += 1
            exp = self.parse_int()
            self.check_length(len(base) * abs(exp))
            return power(base, exp)
        return base

    def parse_seq(self, stop: str = "") -> Word:
        parts: list[Word] = []
        total = 0
        while True:
            self.skip_ws()
            c = self.peek()
            if not c or c in stop:
                break
            parts.append(self.parse_atom())
            total += len(parts[-1])
            self.check_length(total)
        return concat(*parts)


def parse_word(text: str, alph: Optional[Alphabet] = None) -> Word:
    """Parse the word grammar; returns the literal (unreduced) letter sequence."""
    p = _Parser(text)
    w = p.parse_seq()
    p.skip_ws()
    if p.pos != len(text):
        p.error(f"unexpected character {text[p.pos]!r}")
    if alph is not None:
        alph.check(w)
    return w


def format_word(w: Word) -> str:
    """Inverse of parse_word up to run-collapsing; empty word prints as ''."""
    parts: list[str] = []
    i = 0
    while i < len(w):
        sym, sign = w[i]
        j = i
        while j < len(w) and w[j] == (sym, sign):
            j += 1
        exp = sign * (j - i)
        parts.append(sym if exp == 1 else f"{sym}^{exp}")
        i = j
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Closed hyperbolic surfaces and Dehn's algorithm.
# ---------------------------------------------------------------------------


def _standard_surface_generators(genus: int, punctures: int) -> tuple[str, ...]:
    gens = []
    for i in range(1, genus + 1):
        gens.append(f"a{i}")
        gens.append(f"b{i}")
    for i in range(1, punctures):
        gens.append(f"d{i}")
    return tuple(gens)


class SurfacePresentation:
    """Standard presentation of an orientable surface group.

    Closed case (punctures == 0): genus >= 2, one relator
    [a1,b1]...[ag,bg]; the constructor verifies the metric small
    cancellation condition (pieces shorter than |relator|/6) that Dehn's
    algorithm needs.  Boundary case: genus >= 1 and punctures >= 1; the
    group is free and the boundary circles are explicit words.
    """

    def __init__(self, genus: int, punctures: int = 0, generators: tuple[str, ...] = ()):
        self.genus = genus
        self.punctures = punctures
        if punctures == 0:
            if genus < 2:
                raise WordError("closed surface must have genus >= 2")
        else:
            if genus < 1:
                raise WordError("boundary case requires genus >= 1")
        self.generators = generators or _standard_surface_generators(genus, punctures)
        expected = 2 * self.genus + max(self.punctures - 1, 0)
        if len(self.generators) != expected:
            raise WordError(
                f"surface of genus {self.genus} with {self.punctures} punctures "
                f"needs {expected} generators, got {len(self.generators)}"
            )
        if self.punctures == 0 and self.max_piece_length() * 6 >= len(self.relator()):
            raise WordError("relator fails the small-cancellation condition C'(1/6)")

    @property
    def closed(self) -> bool:
        return self.punctures == 0

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus - self.punctures

    def alphabet(self) -> Alphabet:
        return Alphabet(self.generators)

    def _handle_pairs(self) -> list[tuple[str, str]]:
        return [(self.generators[2 * i], self.generators[2 * i + 1]) for i in range(self.genus)]

    def relator(self) -> Word:
        if not self.closed:
            raise WordError("surface with boundary has no relator")
        parts = [commutator(letter(a), letter(b)) for a, b in self._handle_pairs()]
        return concat(*parts)

    def boundary_words(self) -> list[Word]:
        """Boundary circles: d_1 .. d_{p-1} and the product circle."""
        if self.closed:
            raise WordError("closed surface has no boundary")
        ds = [letter(g) for g in self.generators[2 * self.genus:]]
        handles = concat(*[commutator(letter(a), letter(b)) for a, b in self._handle_pairs()])
        last = reduce_word(concat(handles, *ds))
        return ds + [last]

    def _symmetrized(self) -> list[Word]:
        r = self.relator()
        out = []
        for base in (r, invert(r)):
            for i in range(len(base)):
                out.append(base[i:] + base[:i])
        return out

    @functools.cached_property
    def _dehn_table(self) -> dict[Letter, tuple[Word, ...]]:
        """Cyclic relators grouped by first letter, in `_symmetrized` order."""
        table: dict[Letter, list[Word]] = {}
        for rel in self._symmetrized():
            table.setdefault(rel[0], []).append(rel)
        return {first: tuple(rels) for first, rels in table.items()}

    def max_piece_length(self) -> int:
        """Longest common prefix over distinct elements of the symmetrized set."""
        sym = self._symmetrized()
        best = 0
        for u, v in itertools.combinations(sym, 2):
            if u == v:
                continue
            k = 0
            while k < len(u) and u[k] == v[k]:
                k += 1
            best = max(best, k)
        return best


def dehn_reduce(surface: SurfacePresentation, w: Word) -> Word:
    """Dehn's algorithm for the closed-surface word problem.

    Greedy leftmost longest match: any subword that is strictly more than
    half of a cyclic permutation of the relator (or its inverse) is
    replaced by the shorter complement, then freely reduced; repeat.
    Returns the empty word iff w represents the identity.

    Only relators starting with the letter at hand are tried.  After a
    rewrite the scan resumes `rlen - 1` letters before the lowest position
    the rewrite and its free reduction touched: every match starting
    further left lies wholly in letters that were there, unmatched, before.
    """
    if not surface.closed:
        raise WordError("dehn_reduce needs a closed surface; use free reduction instead")
    for sym, _ in w:
        if sym not in surface.generators:
            raise AlphabetError(f"undeclared symbol: {sym!r}")
    table = surface._dehn_table
    rlen = 4 * surface.genus  # |[a1,b1]...[ag,bg]|
    half = rlen // 2
    w = list(reduce_word(w))
    i = 0
    while i < len(w):
        n = len(w)
        best, k_best = None, half
        for rel in table.get(w[i], ()):
            k = 1
            while k < rlen and i + k < n and w[i + k] == rel[k]:
                k += 1
            if k > k_best:
                best, k_best = rel, k
        if best is None:
            i += 1
            continue
        # w[:i] + complement + w[i + k:], freely reduced in one pass that
        # records the low-water mark of the stack
        out = w[:i]
        low = i
        for sym, sign in invert(best[k_best:]):
            if out and out[-1] == (sym, -sign):
                out.pop()
                low = min(low, len(out))
            else:
                out.append((sym, sign))
        j = i + k_best
        while j < n and out and out[-1] == (w[j][0], -w[j][1]):
            out.pop()
            j += 1
        low = min(low, len(out))
        out.extend(w[j:])
        w = out
        i = max(0, low - rlen + 1)
    return tuple(w)
