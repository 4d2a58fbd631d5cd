"""Known-answer oracle for the benchmark, independent of the engine.

Words are tuples of (symbol, sign) letters, the same shape `rft` uses, so
queries can be handed to the engine unchanged.  Everything here -- parsing
of the corpus word texts, free reduction, homomorphism application and
Stallings folding -- is written afresh: no verdict, reduction or folding
from `rft` is used to decide what an answer should be.

The oracle settles a word in one of two ways only:

* trivial, when the word was built as a product of conjugates of relators;
* nontrivial, when some explicit homomorphism to a free group, checked to
  kill every relator, sends it to a nonempty reduced word.

Words that neither rule settles are never generated.
"""

from __future__ import annotations

import re

Letter = tuple[str, int]
Word = tuple[Letter, ...]

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_INT = re.compile(r"-?\d+")


class OracleError(ValueError):
    """A corpus word text or homomorphism is malformed or not a homomorphism."""


def reduce(w) -> Word:
    """Free reduction by a stack."""
    out: list[Letter] = []
    for sym, sign in w:
        if out and out[-1][0] == sym and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((sym, sign))
    return tuple(out)


def inverse(w) -> Word:
    return tuple((sym, -sign) for sym, sign in reversed(w))


def power(w, n: int) -> Word:
    return tuple(w) * n if n >= 0 else inverse(w) * -n


def commutator(u, v) -> Word:
    return tuple(u) + tuple(v) + inverse(u) + inverse(v)


def conjugate(c, w) -> Word:
    """c w c^-1."""
    return tuple(c) + tuple(w) + inverse(c)


def parse(text: str) -> Word:
    """Parse `g`, `g^k`, `[u,v]`, `[u,v]^k` atoms separated by spaces."""
    word, pos = _parse_seq(text, 0, "")
    if pos != len(text):
        raise OracleError(f"unexpected {text[pos]!r} at {pos} in {text!r}")
    return word


def _parse_seq(text: str, pos: int, stop: str) -> tuple[Word, int]:
    out: list[Letter] = []
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text) or text[pos] in stop:
            return tuple(out), pos
        if text[pos] == "[":
            u, pos = _parse_seq(text, pos + 1, ",")
            if pos == len(text):
                raise OracleError(f"unclosed commutator in {text!r}")
            v, pos = _parse_seq(text, pos + 1, "]")
            if pos == len(text):
                raise OracleError(f"unclosed commutator in {text!r}")
            pos += 1
            atom = commutator(u, v)
        else:
            m = _NAME.match(text, pos)
            if not m:
                raise OracleError(f"expected a generator at {pos} in {text!r}")
            atom, pos = ((m.group(), 1),), m.end()
        if pos < len(text) and text[pos] == "^":
            m = _INT.match(text, pos + 1)
            if not m:
                raise OracleError(f"expected an exponent at {pos} in {text!r}")
            atom, pos = power(atom, int(m.group())), m.end()
        out.extend(atom)


def apply(images: dict[str, Word], w) -> Word:
    """Image of w under the map given on generators; unlisted letters are fixed."""
    out: list[Letter] = []
    for sym, sign in w:
        img = images.get(sym, ((sym, 1),))
        out.extend(img if sign == 1 else inverse(img))
    return reduce(out)


def hom_from_spec(spec: list) -> dict[str, Word]:
    """Build a generator map from `[[gen, text], ...]`.

    Each text is read under the map built so far, so `["s", "[a,t]^3"]`
    after `["t", "[a,b]"]` sends s to [a,[a,b]]^3: the attaching word of a
    block followed by a power, as in t -> attach^N.
    """
    images: dict[str, Word] = {}
    for gen, text in spec:
        images[gen] = apply(images, parse(text))
    return images


def kills(images: dict[str, Word], relators) -> bool:
    return all(not apply(images, r) for r in relators)


class Oracle:
    """Known answers for one tower: its relators and checked free quotients."""

    def __init__(self, name: str, relators, hom_specs: list):
        self.name = name
        self.relators = [reduce(r) for r in relators]
        self.homs = [hom_from_spec(spec) for spec in hom_specs]
        for i, h in enumerate(self.homs):
            if not kills(h, self.relators):
                raise OracleError(f"{name}: oracle map {i} does not kill every relator")

    def nontrivial(self, w) -> bool:
        """Some checked map to a free group sends w to a nonempty word."""
        return any(apply(h, w) for h in self.homs)

    def distinct(self, u, v) -> bool:
        """Some checked map separates u from v."""
        return any(apply(h, u) != apply(h, v) for h in self.homs)

    def relator_product(self, factors) -> Word:
        """Product of conjugates c r^e c^-1 given as (c, relator index, e)."""
        out: list[Letter] = []
        for c, i, e in factors:
            out.extend(conjugate(c, power(self.relators[i], e)))
        return tuple(out)


class FreeSubgroup:
    """Stallings folding of a finite subset of a free group, for membership.

    Folds with a union-find work list rather than the engine's fixpoint
    loop, so the two implementations share no code.
    """

    def __init__(self, gens):
        out: list[dict[Letter, set[int]]] = [{}]
        for g in gens:
            w = reduce(g)
            cur = 0
            for i, (sym, sign) in enumerate(w):
                nxt = 0 if i == len(w) - 1 else len(out)
                if nxt:
                    out.append({})
                out[cur].setdefault((sym, sign), set()).add(nxt)
                out[nxt].setdefault((sym, -sign), set()).add(cur)
                cur = nxt
        parent = list(range(len(out)))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        work = list(range(len(out)))
        while work:
            v = find(work.pop())
            for lt, heads in list(out[v].items()):
                roots = {find(u) for u in heads}
                out[v][lt] = roots
                if len(roots) > 1:
                    keep = min(roots)
                    for r in roots - {keep}:
                        parent[r] = keep
                        for lt2, hs in out[r].items():
                            out[keep].setdefault(lt2, set()).update(hs)
                        out[r] = {}
                    work.extend((keep, find(v)))
                    break
        self.base = find(0)
        self.delta = {
            v: {lt: find(next(iter(hs))) for lt, hs in out[v].items()}
            for v in range(len(out)) if find(v) == v
        }

    def contains(self, w) -> bool:
        v = self.base
        for lt in reduce(w):
            v = self.delta[v].get(lt)
            if v is None:
                return False
        return v == self.base

    @property
    def vertex_count(self) -> int:
        return len(self.delta)

    @property
    def edge_count(self) -> int:
        return sum(len(e) for e in self.delta.values()) // 2
