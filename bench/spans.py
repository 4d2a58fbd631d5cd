"""Span tracing of `rft` layers from outside the engine.

`Tracer.install()` replaces each listed public function or method of the
engine with a wrapper that records a span: name, start, end, parent span
and query id.  Module-level functions are replaced under every name any
`rft` module bound them to (`from .words import reduce_word` makes a
second binding in `graphgroups`), so cross-layer calls are seen too.

Self time -- a span's duration minus the time its child spans cover -- is
summed per name while the run goes, with a stack, so no span has to be
looked up afterwards.  Spans are kept in memory (up to `MAX_SPANS`) and
written out when the run ends.
"""

from __future__ import annotations

import gzip
import sys
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from rft import cli, core, embed, flats, folding, graphgroups, intlinalg, tower, words

# (module, attribute path) of every traced entry point, grouped by layer.
TRACED = {
    "words": (words, ("reduce_word", "cyclic_reduce", "is_proper_power", "abelianize",
                      "enumerate_ball", "dehn_reduce", "parse_word", "format_word",
                      "commutator", "concat", "invert", "power",
                      "GroupHom.apply", "GroupHom.then")),
    "intlinalg": (intlinalg, ("solve_int_linear", "lattice_rank",
                              "unimodular_with_first_row_image")),
    "folding": (folding, ("SubgroupGraph.__init__", "SubgroupGraph.express",
                          "SubgroupGraph.contains", "SubgroupGraph.trace")),
    "graphgroups": (graphgroups, ("word_problem", "normal_form", "subgroup_membership",
                                  "GraphOfGroups.__init__", "GraphOfGroups.presentation",
                                  "GraphOfGroups.decompose", "VertexGroup.triviality",
                                  "VertexGroup.normalize")),
    "tower": (tower, ("Tower.word_problem", "Tower.lattice_records",
                      "Tower.retraction_to_base", "attach_block", "new_height0",
                      "find_rf_witness")),
    "core": (core, ("expand_cover", "extract_core", "classify_edge_pieces",
                    "CoverGraph.canonical_form")),
    "embed": (embed, ("embed_step", "certify_injectivity_on_ball",
                      "maximal_abelian_containing", "validate_strict_quotient")),
    "flats": (flats, ("flat_inventory", "color_vertices", "check_isolation_hypotheses",
                      "compose_isolation_bound")),
    "cli": (cli, ("parse_tower_dsl", "build_tower", "parse_splitting")),
}

VERTEX_KINDS = ("free", "abelian", "surface", "composite")
OUTCOMES = (graphgroups.MEMBER, graphgroups.NONMEMBER, graphgroups.UNKNOWN)


# About 30 MB of span tuples; calls beyond it still count toward the totals.
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.spans: list = []  # [name id, start, end, parent index, query id]
        self.dropped = 0
        self.stack: list[list] = []  # [child seconds, span index]
        self.qid = 0
        self.counts: Counter = Counter()
        self.graph_keys: set = set()
        self._top_graph_wp: Counter = Counter()  # id(graph) -> word_problem calls
        self._in_cover = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        hooks = {
            "folding.SubgroupGraph.__init__": self._after_graph_build,
            "graphgroups.subgroup_membership": self._after_membership,
            "graphgroups.word_problem": self._after_graph_wp,
        }
        arounds = {
            "tower.Tower.word_problem": self._around_tower_wp,
            "core.expand_cover": self._around_cover,
            "core.extract_core": self._around_cover,
        }
        rft_modules = [m for n, m in sys.modules.items()
                       if m is not None and (n == "rft" or n.startswith("rft."))]
        for layer, (module, attrs) in TRACED.items():
            for attr in attrs:
                name = f"{layer}.{attr}"
                owner, _, leaf = attr.rpartition(".")
                if owner:
                    cls = getattr(module, owner)
                    orig = cls.__dict__[leaf]
                    self._patch(cls, leaf, self._wrap(orig, name, hooks.get(name),
                                                      arounds.get(name)))
                    continue
                orig = getattr(module, leaf)
                wrapper = self._wrap(orig, name, hooks.get(name), arounds.get(name))
                for m in rft_modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, key, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, key: str, value) -> None:
        orig = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
        self._patches.append((owner, key, orig))
        setattr(owner, key, value)

    def _wrap(self, fn: Callable, name: str, after: Optional[Callable],
              around: Optional[Callable]) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack, spans = tracer.stack, tracer.spans
            parent = stack[-1][1] if stack else -1
            if len(spans) < MAX_SPANS:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                tracer.dropped += 1
            frame = [0.0, index]
            stack.append(frame)
            t0 = perf_counter()
            try:
                if around is None:
                    result = fn(*args, **kwargs)
                else:
                    result = around(fn, args, kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.calls[nid] += 1
                tracer.total_s[nid] += dur
                tracer.self_s[nid] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if index >= 0:
                    spans[index] = (nid, t0, t1, parent, tracer.qid)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- per-layer observations ----------------------------------------------

    def _after_graph_build(self, args, _result) -> None:
        graph = args[0]
        self.graph_keys.add((graph.alphabet.generators, tuple(graph.subgens)))

    def _after_membership(self, args, result) -> None:
        self.counts[f"membership.{args[0].kind}.{result.status}"] += 1

    def _after_graph_wp(self, args, _result) -> None:
        self._top_graph_wp[id(args[0])] += 1

    def _around_tower_wp(self, fn, args, kwargs):
        top = id(args[0].stages[-1].graph)
        before = self._top_graph_wp[top]
        if self._in_cover:
            self.counts["core.wp_calls"] += 1
        result = fn(*args, **kwargs)
        if self._top_graph_wp[top] == before:
            self.counts["tower.wp.fastpath"] += 1
        return result

    def _around_cover(self, fn, args, kwargs):
        self._in_cover += 1
        try:
            return fn(*args, **kwargs)
        finally:
            self._in_cover -= 1

    # -- results --------------------------------------------------------------

    def calls_of(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def total_of(self, name: str) -> float:
        return self.total_s[self.names.index(name)]

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, s in zip(self.names, self.self_s):
            out[name.split(".", 1)[0]] += s
        return out

    def reset(self) -> None:
        """Forget everything recorded so far; keep the installed wrappers."""
        for i in range(len(self.names)):
            self.calls[i], self.total_s[i], self.self_s[i] = 0, 0.0, 0.0
        self.spans.clear()
        self.dropped = 0
        self.counts.clear()
        self.graph_keys.clear()
        self._top_graph_wp.clear()

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: name, start, end, parent index, query id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write("name\tstart\tend\tparent\tquery\n")
            for span in self.spans:
                if span is not None:
                    nid, t0, t1, parent, qid = span
                    f.write(f"{self.names[nid]}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{qid}\n")
