"""Exact word algebra for free, free-abelian and closed-surface groups.

Words are tuples of signed letters over a declared alphabet.  Everything
here is pure and total: reduction, cyclic reduction, proper-power
detection, homomorphism application, abelianization, ball enumeration,
and Dehn's algorithm for closed hyperbolic surface groups.

Free reduction happens once per word: where a word enters the engine,
or where the engine builds it.  Here `reduce_word`, `cyclic_reduce` and
`dehn_reduce` reduce their input (`cyclic_core` is `cyclic_reduce`
for a word already reduced), and a `GroupHom` reduces its images once,
when it is built.  `apply_table`, the one loop that applies a map,
takes any word; `join_reduced` and `walk_ball` take reduced words and
keep them reduced, cancelling only where two of them meet, and
`is_proper_power` takes a reduced word; `concat`, `invert`, `power`
and `commutator` do not reduce.
"""

from __future__ import annotations

import functools
import re
from typing import Iterator, Optional

__all__ = [
    "AlphabetError",
    "WordError",
    "Alphabet",
    "Word",
    "GroupHom",
    "SurfacePresentation",
    "EMPTY",
    "letter",
    "concat",
    "invert",
    "power",
    "reduce_word",
    "cyclic_reduce",
    "cyclic_core",
    "least_rotation",
    "conjugacy_key",
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
    unhashable unless its class defines a hash.  A record kept in bulk
    lists its attributes in `__slots__` and has no per-instance dict."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return False
        if self.__slots__:
            return all(getattr(other, f) == getattr(self, f) for f in self.__slots__)
        return vars(other) == vars(self)


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
    return tuple([(sym, -sign) for sym, sign in reversed(w)])


def power(w: Word, n: int) -> Word:
    if n < 0:
        return invert(w) * (-n)
    return w * n


def reduce_word(w: Word, alph: Optional[Alphabet] = None) -> Word:
    """Free reduction: cancel adjacent inverse pairs; unique normal form.
    The letters kept are the input's own letter objects."""
    if alph is not None:
        alph.check(w)
    out: list[Letter] = []
    for lt in w:
        if out:
            top = out[-1]
            if top[1] == -lt[1] and top[0] == lt[0]:
                out.pop()
                continue
        out.append(lt)
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


def conjugacy_key(w: Word) -> Word:
    """A key of the conjugacy class of the reduced word w, up to
    inversion, in the free group on its letters: the `least_rotation` of
    w's cyclic core or of that core's inverse, whichever is smaller.
    Conjugate cyclically reduced words are rotations of each other
    (Lyndon-Schupp, ch. I), so two words share a key exactly when one is
    conjugate to the other or to its inverse.  Then in any quotient
    group they are trivial together."""
    core, _ = cyclic_core(w)
    return min(least_rotation(core), least_rotation(invert(core)))


def is_proper_power(w: Word) -> Optional[tuple[Word, int]]:
    """Maximal-exponent decomposition of the cyclic core of the reduced
    word w, or None.

    Detection is by period checking on the cyclic word, O(n^2); plenty at
    the scale this library is used at.
    """
    core, _ = cyclic_core(w)
    n = len(core)
    if n == 0:
        raise WordError("proper-power test requires a nontrivial word")
    for p in range(1, n // 2 + 1):  # the proper divisors of n, smallest first
        if n % p == 0 and core == core[:p] * (n // p):
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


def walk_ball(alph: Alphabet, radius: int, h1: GroupHom, h2: GroupHom,
              h2_emptiness: bool = False) -> Iterator[tuple[Word, Word, Optional[Word]]]:
    """All reduced words w of length <= radius in shortlex order, each as
    (w, h1(w), h2(w)), both images reduced.

    Letter order is (g, +1) before (g, -1), generators in declared order.
    A word of one layer extends a word of the layer before by one letter,
    and its images extend that word's images by the letter's entries in
    the two homs' tables (`GroupHom`), so no map is applied to a word.
    An entry holds the letter that would cancel its image's first letter:
    an image is joined with `join_reduced` only when the parent's image
    ends in that letter, and is concatenated otherwise.  Only the layer
    being extended and, below the outermost, the one being built are
    held: the outermost layer, most of the ball, is yielded and never
    kept.  A ball of more than `MAX_BALL_SIZE` words is refused with
    WordError before any word is built.

    With `h2_emptiness` only whether h2(w) is 1 is asked: the third entry
    is the empty word when it is, and None when it is not.  The
    outermost layer's h2 images are then tested, not built: for reduced
    b and a letter's reduced image x, b x = 1 exactly when b = x^-1.
    """
    if radius < 0:
        raise WordError("radius must be >= 0")
    if ball_size(len(alph), min(radius, MAX_BALL_SIZE)) > MAX_BALL_SIZE:
        raise WordError(f"the radius-{radius} ball over {len(alph)} generators has "
                        f"more than {MAX_BALL_SIZE} words")
    letters = [(g, sign) for g in alph.generators for sign in (1, -1)]
    try:
        steps = [((lt,), *h1._table[lt][:2], *h2._table[lt]) for lt in letters]
    except KeyError as missing:
        raise AlphabetError(f"undeclared symbol: {missing.args[0][0]!r}") from None
    # every word ends in one of these letter objects, so the step that
    # would undo a word's last letter is found by identity
    undoes = {letters[k]: steps[k ^ 1][0] for k in range(len(letters))}
    layer = [(EMPTY, EMPTY, EMPTY)]
    yield layer[0]
    for depth in range(radius if steps else 0):
        keep = depth < radius - 1
        nxt = []
        for w, a, b in layer:
            undo = undoes[w[-1]] if w else None
            a_last = a[-1] if a else None
            if h2_emptiness and not keep:
                for one, ia, ca, _, _, xb in steps:
                    if one is not undo:
                        yield (w + one, a + ia if a_last != ca else join_reduced(a, ia),
                               EMPTY if b == xb else None)
                continue
            b_last = b[-1] if b else None
            for one, ia, ca, ib, cb, _ in steps:
                if one is undo:
                    continue
                child = (w + one,
                         a + ia if a_last != ca else join_reduced(a, ia),
                         b + ib if b_last != cb else join_reduced(b, ib))
                if keep:
                    nxt.append(child)
                if h2_emptiness and child[2]:
                    child = (child[0], child[1], None)
                yield child
        layer = nxt


def enumerate_ball(alph: Alphabet, radius: int) -> list[Word]:
    """All reduced words of length <= radius in `walk_ball`'s shortlex
    order: the walk under the map that sends every generator to 1."""
    trivial = GroupHom(alph, Alphabet(()), dict.fromkeys(alph.generators, EMPTY))
    return [w for w, _, _ in walk_ball(alph, radius, trivial, trivial)]


def ball_size(rank: int, radius: int) -> int:
    """Closed-form count of reduced words of length <= radius in rank n."""
    n = rank
    if n <= 1:
        return 1 + 2 * n * radius
    return 1 + n * ((2 * n - 1) ** radius - 1) // (n - 1)


# A map's signed-letter table: (g, +-1) -> (reduced image, the letter that
# cancels the image's first letter or None, inverse image).
LetterTable = dict[Letter, tuple[Word, Optional[Letter], Word]]


def compile_image(table: LetterTable, g: str, img: Word) -> None:
    """Write the two entries of g, whose image is the reduced word img,
    into a signed-letter table."""
    inv = invert(img)
    table[(g, 1)] = (img, inv[-1] if inv else None, inv)
    table[(g, -1)] = (inv, img[-1] if img else None, img)


def apply_table(table: LetterTable, w: Word) -> Word:
    """Reduced image of the word w, reduced or not, under the map with this
    signed-letter table: the one loop that applies a map.  Each letter's
    reduced image goes onto one stack, cancelling only where the stack top
    is the letter that cancels its first letter (`join_reduced`), so each
    image letter is pushed and popped at most once."""
    out: list[Letter] = []
    for lt in w:
        try:
            img, cancel, inv = table[lt]
        except KeyError:
            raise AlphabetError(f"undeclared symbol: {lt[0]!r}") from None
        if out and out[-1] == cancel:
            out.pop()
            k, n = 1, len(img)
            # inv[n - 1 - k] cancels img[k]
            while k < n and out and out[-1] == inv[n - 1 - k]:
                out.pop()
                k += 1
            out += img[k:]
        else:
            out += img
    return tuple(out)


class GroupHom(Record):
    """Homomorphism between free-ish generating sets, given on generators;
    equal to another when source, target and images are.  `__init__`
    compiles the reduced images once into a signed-letter table, which
    `apply` reads; `images` is never reassigned, so it cannot go stale."""

    def __init__(self, source: Alphabet, target: Alphabet, images: dict[str, Word]):
        self.source = source
        self.target = target
        self.images = images
        for g in source.generators:
            if g not in images:
                raise WordError(f"homomorphism not total: missing image of {g!r}")
        table: LetterTable = {}
        for g, w in images.items():
            compile_image(table, g, reduce_word(w, target))
        self._table = table

    def __hash__(self):
        return hash((self.source, self.target, frozenset(self.images.items())))

    @staticmethod
    def identity(alph: Alphabet) -> "GroupHom":
        return GroupHom(alph, alph, {g: letter(g) for g in alph.generators})

    def apply(self, w: Word) -> Word:
        """Reduced image of w (`apply_table`)."""
        return apply_table(self._table, w)

    def then(self, other: "GroupHom") -> "GroupHom":
        """Composition: first self, then other."""
        return GroupHom(
            self.source,
            other.target,
            {g: other.apply(self.images[g]) for g in self.source.generators},
        )


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
    Generator names must be distinct.
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
        seen: set[str] = set()
        for name in self.generators:
            if name in seen:
                raise WordError(f"duplicate generator name: {name!r}")
            seen.add(name)
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

    @functools.cached_property
    def _dehn_plan(self) -> _DehnPlan:
        return _DehnPlan(self.generators, self.relator())

    def max_piece_length(self) -> int:
        """Longest common prefix of two distinct cyclic permutations of the
        relator R or of R^-1.  Each letter occurs once in R and once in
        R^-1, so two distinct rotations share a first letter only when one
        is of R and the other of R^-1; each letter's pair is compared once,
        along the successor tables, in time linear in the genus."""
        plan = self._dehn_plan
        fwd, back = plan.succ
        rlen = 4 * self.genus
        best = 0
        for x in range(len(plan.letters)):
            k, y, z = 1, x, x
            while k < rlen and fwd[y] == back[z]:
                y, z, k = fwd[y], back[z], k + 1
            best = max(best, k)
        return best


class _DehnPlan:
    """The tables Dehn's algorithm reads for one closed surface.

    Letters become integer ids: generator i is 2i and its inverse 2i + 1,
    so `x ^ 1` inverts id x; `ids` and `letters` translate.  Generator
    names are distinct, so each letter occurs once in the relator R and
    once in R^-1, and `succ[0][x]` and `succ[1][x]` are the letters after
    x in the cyclic words R and R^-1.  Each table has one entry more, -1
    at the id 2n, which `dehn_reduce` uses as the letter before a scan's
    first.  R^-1 reads R backwards with every letter inverted, so the
    letter before x in one cyclic word is `succ[1 - d][x ^ 1] ^ 1`.
    """

    __slots__ = ("ids", "letters", "succ")

    def __init__(self, generators: tuple[str, ...], relator: Word):
        self.letters = [(g, sign) for g in generators for sign in (1, -1)]
        self.ids = {lt: x for x, lt in enumerate(self.letters)}
        self.succ: list[list[int]] = []
        for word in (relator, invert(relator)):
            cyc = [self.ids[lt] for lt in word]
            succ = [-1] * (len(self.letters) + 1)
            for p, x in enumerate(cyc):
                succ[x] = cyc[p + 1 - len(cyc)]
            self.succ.append(succ)


def dehn_reduce(surface: SurfacePresentation, w: Word) -> Word:
    """Dehn's algorithm for the closed-surface word problem.

    Greedy leftmost longest match: any subword that is strictly more than
    half of a cyclic permutation of the relator (or its inverse) is
    replaced by the shorter complement, then freely reduced; repeat.
    Returns the empty word iff w represents the identity.

    The scan runs on the letter ids of `surface._dehn_plan`.  Since each
    letter occurs once in R and once in R^-1, a subword of a cyclic
    relator is a run: each letter is the R-successor of the one before
    it, or each is the R^-1-successor.  The two successors of a letter
    differ, so at most one run of two or more letters ends at a
    position, and the scan keeps its length and direction.  The first
    position where a run reaches `half + 1` letters closes the leftmost
    match, which the run then extends to the longest, at most `rlen`
    letters; pieces are shorter than `rlen / 6`, so no match in the other
    direction starts there.

    The word lives on two stacks: `left`, the reduced output to the left
    of the scan position, and `right`, the rest of the input reversed.  A
    rewrite pops the match off `right`, pushes the complement onto `left`
    with free reduction, cancels where the two stacks meet, and rewinds:
    the letters of `left` from `half` before the lowest point it reached
    move back onto `right` in one slice, and the scan restarts its run
    there.  A match starting further left would have more than `half`
    letters that were there, unmatched, before, so the scan would already
    have rewritten it.  A rewrite shortens the word by at least two
    letters and sends at most `half` letters back to be scanned again, so
    the run is linear in the length of w for a fixed genus.
    """
    if not surface.closed:
        raise WordError("dehn_reduce needs a closed surface; use free reduction instead")
    plan = surface._dehn_plan
    ids = plan.ids
    if not ids.keys() >= set(w):
        for lt in w:
            if lt not in ids:
                raise AlphabetError(f"undeclared symbol: {lt[0]!r}")
    rlen = 4 * surface.genus  # |[a1,b1]...[ag,bg]|
    half = rlen // 2
    start = len(plan.letters)  # the sentinel id: no letter follows it
    left: list[int] = []
    right = [ids[lt] for lt in reversed(reduce_word(w))]
    # the scan position: right[i] is the letter at hand, and right[i + 1:]
    # holds letters already scanned, reversed, that belong on `left` and
    # move there in one slice when a rewrite comes.  The run ending at
    # right[i] has `run` letters and follows `along`, the successor table
    # of R or of R^-1; `other` is the other table
    i = len(right) - 1
    along, other = plan.succ
    prev, run = start, 0
    while i >= 0:
        x = right[i]
        if x == along[prev]:
            run += 1
            if run > half:
                # the match starts at right[i + half]; extend it to right[e]
                first, k, e = i + half, run, i
                while k < rlen and e and right[e - 1] == along[right[e]]:
                    e -= 1
                    k += 1
                y = right[first] ^ 1
                left += right[:first:-1]
                del right[e:]
                # push the complement, the inverse of the last rlen - k
                # letters of the relator read from right[first]: its
                # letters follow that letter's inverse along `other`.
                # Free reduction records the low-water mark of `left`
                low = len(left)
                for _ in range(rlen - k):
                    y = other[y]
                    if left and left[-1] == y ^ 1:
                        left.pop()
                        low = min(low, len(left))
                    else:
                        left.append(y)
                while left and right and left[-1] == right[-1] ^ 1:
                    left.pop()
                    right.pop()
                low = max(0, min(low, len(left)) - half)
                right += reversed(left[low:])
                del left[low:]
                i = len(right) - 1
                prev, run = start, 0
                continue
        elif x == other[prev]:
            along, other = other, along
            run = 2
        else:
            run = 1
        prev = x
        i -= 1
    left += reversed(right)
    letters = plan.letters
    return tuple([letters[x] for x in left])
