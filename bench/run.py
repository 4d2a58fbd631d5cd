"""Benchmark runner for `rft`.

    python3 bench/run.py --workload wordproblem --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the engine is imported from its
`src/` directory.  One client sends queries in a closed loop: the next
query starts only when the last one has returned.  Every answer is
checked against the known-answer oracle in `oracle.py`.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics
from a traced run and the tracing overhead.  Lines before it are a human
readable summary.  See README.md for the metrics and workloads.

Timings are reference-scaled: the speed of a shared host drifts by a
quarter within minutes, so a fixed pure-Python reference chunk is timed
every REFERENCE_EVERY_S next to the queries, and each time is multiplied
by REFERENCE_MS / (the reference time measured around it).  The figures
are milliseconds and seconds on a machine where the chunk takes
REFERENCE_MS; the summary prints the unscaled figures as well.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPS = 9
MIN_QUERIES = 100
REFERENCE_MS = 3.0
REFERENCE_EVERY_S = 0.2
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import rft.cli; "
                "print(repr(time.perf_counter() - t))")


def use_engine() -> None:
    """Import `rft` from this checkout's sources, never from elsewhere."""
    if not (SRC / "rft" / "__init__.py").is_file():
        raise SystemExit(f"bench: no engine sources at {SRC / 'rft'}")
    sys.path.insert(0, str(SRC))
    import rft
    if Path(rft.__file__).resolve().parent != (SRC / "rft").resolve():
        raise SystemExit(f"bench: imported rft from {rft.__file__}, not {SRC}")


def reference_s() -> float:
    """Seconds for one fixed chunk of free reductions in the benchmark's own
    word code: tuple slicing, concatenation and list pushes and pops, the
    operations rft spends its time on."""
    import oracle as orc

    word = orc.parse("[[a,b]^6,[c,d]^5] [a,c]^7") * 3
    t0 = perf_counter()
    for i in range(40):
        orc.reduce(word + orc.inverse(word[: 7 * i]))
    return perf_counter() - t0


def scale_at(refs: list[float], j: int) -> float:
    """Scale factor from the reference chunks j-1, j and j+1."""
    return REFERENCE_MS / 1000.0 / statistics.median(refs[max(j - 1, 0): j + 2])


def fresh_import_s() -> float:
    """Seconds to import rft.cli in a new interpreter, timed inside it."""
    out = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120, check=True,
                         cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(wl) -> tuple[dict[str, float], object]:
    """Median over SETUP_REPS of each reference-scaled set-up step; returns
    the last corpus."""
    manifest, tower_texts, spl_texts = wl.read_manifest()
    steps: dict[str, list[float]] = {"cli.import_s": [], "cli.parse_s": [],
                                     "cli.build_tower_s": [], "setup_s": []}
    corpus = None
    refs = [reference_s()]
    for _ in range(SETUP_REPS):
        import_s = fresh_import_s()
        corpus, parse_s, build_s = wl.build_corpus(manifest, tower_texts, spl_texts)
        refs.append(reference_s())
        scale = REFERENCE_MS / 1000.0 / statistics.median(refs[-2:])
        for name, value in (("cli.import_s", import_s), ("cli.parse_s", parse_s),
                            ("cli.build_tower_s", build_s),
                            ("setup_s", import_s + parse_s + build_s)):
            steps[name].append(value * scale)
    wl.attach_oracles(corpus)
    return {name: statistics.median(values) for name, values in steps.items()}, corpus


class Loop:
    """Closed-loop client: time each query's run step, check every answer."""

    def __init__(self):
        self.raw: list[float] = []  # unscaled seconds per query
        self.ref_at: list[int] = []  # index of the last reference chunk before it
        self.refs: list[float] = []
        self.outcomes: Counter = Counter()
        self.failures: Counter = Counter()
        self.stats: Counter = Counter()

    def drive(self, queries, seconds: float, tracer=None) -> None:
        import workloads as wl

        deadline = perf_counter() + seconds
        next_ref = 0.0
        while (now := perf_counter()) < deadline:
            if now >= next_ref:
                self.refs.append(reference_s())
                next_ref = now + REFERENCE_EVERY_S
            q = next(queries)
            if tracer is not None:
                tracer.qid = len(self.raw)
            self.ref_at.append(len(self.refs) - 1)
            t0 = perf_counter()
            try:
                result = q.run()
            except Exception as exc:  # an engine crash is a failed query
                self.raw.append(perf_counter() - t0)
                self._count(wl.FAILED, f"{q.tag}:{type(exc).__name__}")
                continue
            self.raw.append(perf_counter() - t0)
            self._count(q.check(result, self.stats), q.tag)
        self.refs.append(reference_s())

    @property
    def latencies(self) -> list[float]:
        """Reference-scaled seconds per query."""
        return [x * scale_at(self.refs, j) for x, j in zip(self.raw, self.ref_at)]

    @property
    def scale(self) -> float:
        return REFERENCE_MS / 1000.0 / statistics.median(self.refs)

    def _count(self, outcome: str, tag: str) -> None:
        self.outcomes[outcome] += 1
        if outcome == "failed":
            self.failures[tag] += 1

    @property
    def attempted(self) -> int:
        return len(self.raw)

    def share(self, outcome: str) -> float:
        return self.outcomes[outcome] / self.attempted if self.attempted else 0.0


def latency_figures(seconds: list[float]) -> tuple[float, float, float]:
    """(p50 ms, p90 ms, queries per second of query time)."""
    ms = sorted(x * 1000.0 for x in seconds)
    deciles = statistics.quantiles(ms, n=10) if len(ms) >= 2 else ms * 9
    return statistics.median(ms), deciles[8], len(ms) / (sum(ms) / 1000.0)


def end_to_end(loop: Loop, setup: dict[str, float]) -> dict[str, tuple[float, str]]:
    p50, p90, qps = latency_figures(loop.latencies)
    return {
        "query_p50_ms": (p50, "ms"),
        "query_p90_ms": (p90, "ms"),
        "queries_per_s": (qps, "1/s"),
        "decided_share": (loop.share("decided"), "share"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, loop: Loop, untraced: list[float], setup: dict[str, float],
              attach_s: float) -> dict[str, tuple[float, str]]:
    from spans import OUTCOMES, VERTEX_KINDS

    n = max(loop.attempted, 1)
    scale = loop.scale
    layer = {name: s * scale for name, s in tracer.layer_self_s().items()}
    stats, counts = loop.stats, tracer.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    builds = tracer.calls_of("folding.SubgroupGraph.__init__")
    wp_calls = tracer.calls_of("tower.Tower.word_problem")
    covers = tracer.calls_of("core.expand_cover")
    member_calls = sum(v for k, v in counts.items() if k.startswith("membership."))
    member_unknown = sum(v for k, v in counts.items()
                         if k.startswith("membership.") and k.endswith(".Unknown"))
    k = min(len(untraced), loop.attempted)
    out = {
        "words.self_s": (layer["words"] / n, "s/query"),
        "words.reduce_word.calls": (tracer.calls_of("words.reduce_word") / n, "calls/query"),
        "words.hom_apply.calls": (tracer.calls_of("words.GroupHom.apply") / n, "calls/query"),
        "intlinalg.self_s": (layer["intlinalg"] / n, "s/query"),
        "intlinalg.calls": (sum(tracer.calls_of(f"intlinalg.{f}") for f in (
            "solve_int_linear", "lattice_rank", "unimodular_with_first_row_image")) / n,
            "calls/query"),
        "folding.self_s": (layer["folding"] / n, "s/query"),
        "folding.graph_builds": (builds / n, "calls/query"),
        "folding.distinct_graphs": (len(tracer.graph_keys) / n, "graphs/query"),
        "folding.distinct_share": (ratio(len(tracer.graph_keys), builds), "share"),
        "folding.express.calls": (tracer.calls_of("folding.SubgroupGraph.express") / n,
                                  "calls/query"),
        "folding.express_s": (tracer.total_of("folding.SubgroupGraph.express") * scale / n,
                              "s/query"),
        "graphgroups.self_s": (layer["graphgroups"] / n, "s/query"),
        "graphgroups.normal_form.calls": (tracer.calls_of("graphgroups.normal_form") / n,
                                          "calls/query"),
    }
    for kind in VERTEX_KINDS:
        for outcome in OUTCOMES:
            out[f"graphgroups.membership.{kind}.{outcome.lower()}.calls"] = (
                counts[f"membership.{kind}.{outcome}"] / n, "calls/query")
    out.update({
        "graphgroups.membership.unknown_share": (ratio(member_unknown, member_calls), "share"),
        "tower.self_s": (layer["tower"] / n, "s/query"),
        "tower.wp.calls": (wp_calls / n, "calls/query"),
        "tower.wp.fastpath_share": (ratio(counts["tower.wp.fastpath"], wp_calls), "share"),
        "tower.witness.attempts": (ratio(stats["witness.attempts"], stats["witness.queries"]),
                                   "attempts/search"),
        "tower.witness.valid_share": (ratio(stats["witness.valid"], stats["witness.queries"]),
                                      "share"),
        "tower.attach_block_s": (attach_s * scale, "s"),
        "core.self_s": (layer["core"] / n, "s/query"),
        "core.wp_calls_per_cover": (ratio(counts["core.wp_calls"], covers), "calls/cover"),
        "core.identify_rounds": (ratio(stats["core.identify_rounds"], stats["core.covers"]),
                                 "rounds/cover"),
        "core.vertices": (ratio(stats["core.vertices"], stats["core.covers"]),
                          "vertices/cover"),
        "embed.self_s": (layer["embed"] / n, "s/query"),
        "embed.ball_elements": (ratio(stats["embed.ball_elements"],
                                      stats["embed.certificates"]), "elements/cert"),
        "embed.witness_fallbacks": (ratio(stats["embed.witness_fallbacks"],
                                          stats["embed.certificates"]), "calls/cert"),
        "flats.self_s": (layer["flats"] / n, "s/query"),
        "flats.verified_share": (ratio(stats["flats.verified"], stats["flats.hypotheses"]),
                                 "share"),
        "cli.import_s": (setup["cli.import_s"], "s"),
        "cli.parse_s": (setup["cli.parse_s"], "s"),
        "cli.build_tower_s": (setup["cli.build_tower_s"], "s"),
        "trace.overhead_share": (ratio(sum(loop.latencies[:k]), sum(untraced[:k])) - 1.0,
                                 "share"),
    })
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    use_engine()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    wl.quiet()
    make_queries = wl.WORKLOADS[args.workload]
    setup, corpus = measure_setup(wl)

    if args.trace == 0:
        loop = Loop()
        loop.drive(make_queries(corpus, args.seed), args.seconds)
        checked = [loop]
        metrics = end_to_end(loop, setup)
    else:
        from spans import Tracer

        # Half the time untraced, half traced over the same query stream,
        # so the two passes can be compared query for query.
        plain = Loop()
        plain.drive(make_queries(corpus, args.seed), args.seconds / 2)
        with Tracer() as tracer:
            wl.build_corpus(*wl.read_manifest())
            attach_s = tracer.total_of("tower.attach_block")
            tracer.reset()
            loop = Loop()
            loop.drive(make_queries(corpus, args.seed), args.seconds / 2, tracer)
        checked = [plain, loop]
        metrics = per_layer(tracer, loop, plain.latencies, setup, attach_s)
        out = BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(out)
        print(f"spans: {len(tracer.spans)} kept, {tracer.dropped} beyond the cap, "
              f"written to {out.relative_to(ROOT)}")

    attempted = sum(c.attempted for c in checked)
    failed = sum(c.outcomes["failed"] for c in checked)
    failures = sum((c.failures for c in checked), Counter())
    print(f"workload {args.workload} seed {args.seed}: {loop.attempted} queries "
          f"(samples for p50/p90), decided {loop.share('decided'):.4f}, "
          f"undecided {loop.share('undecided'):.4f}, failed_share {loop.share('failed'):.4f}")
    p50, p90, qps = latency_figures(loop.raw)
    print(f"unscaled: query_p50 {p50:.4f} ms, query_p90 {p90:.4f} ms, {qps:.3f} queries/s; "
          f"reference chunk median {REFERENCE_MS / loop.scale:.4f} ms")
    if loop.attempted < MIN_QUERIES:
        print(f"warning: fewer than {MIN_QUERIES} queries; p90 has under 10 samples beyond it")
    for tag, count in sorted(failures.items()):
        print(f"failed: {tag} x{count}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
