"""longvk benchmark: one workload, one seed, one closed-loop run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

Workloads are ``search``, ``invariants`` and ``witness_scan`` (see
``workloads.py``).  One client issues each request when the previous one
returns, through the public ``longvk`` API imported from ``src/`` of the
checkout.  Requests are timed from call to return.  ``--seconds`` sizes
the run: it makes ``seconds x ROUNDS_PER_SECOND`` rounds of requests (at
least 100 requests), a rate measured when the benchmark was written, so
a run of that code measures for about ``--seconds`` seconds and two
commits given the same seed run identical requests.  All inputs are made, and their sha256
printed, before the first request; the answers are checked after the
last one.  Neither is timed, and ``peak_rss_mb`` is read before the
checks run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
public functions of every module (``tracing.py``) and reports the
per-layer metrics.  A traced run traces rounds 0, 3, 4, 7, 8, ... and
leaves the others untraced; ``trace.overhead`` is the traced requests'
time over what the same kinds of request took untraced, minus 1.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Any wrong answer sets ``correct`` to false.  Without
``src/longvk`` in the working directory the run exits with status 1 and
prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import reference as ref
import workloads as wl
from tracing import PER_LAYER, Tracer

MIN_REQUESTS = 100
SETUP_PROBES = {"search": 4, "invariants": 4, "witness_scan": 0}
TOY_MIN_REQUESTS = 12
TOY_ENUM_ORDER = 3

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


def import_library(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "longvk", "__init__.py")):
        raise SystemExit(f"error: no src/longvk under {root}; run from a longvk checkout")
    sys.path.insert(0, src)
    lvk = importlib.import_module("longvk")
    if not os.path.abspath(lvk.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"error: imported longvk from {lvk.__file__}, not from {src}")
    return lvk


def set_up(root: str, workload: str, max_order: int, tracer: Tracer | None):
    """Import, load the corpus, build the structure catalog; timed."""
    started = time.perf_counter()
    lvk = import_library(root)
    if tracer is not None:
        tracer.install()
    corpus = wl.Corpus.load(lvk)
    if workload == "invariants":
        catalog = wl.invariants_catalog(lvk)
    elif workload == "witness_scan":
        catalog = wl.witness_catalog(lvk, max_order)
    else:
        catalog = list(lvk.default_catalog())
    elapsed = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
    return lvk, corpus, catalog, elapsed


def probe_setups(root: str, workload: str, count: int, toy: bool) -> list[float]:
    """Set-up time of ``count`` fresh processes, one after another."""
    out = []
    for _ in range(count):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--setup-probe"] + (["--toy"] if toy else [])
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Run:
    """Closed loop over one workload's rounds."""

    def __init__(self, lvk, workload, seed, corpus, catalog, tracer):
        self.lvk, self.workload, self.seed = lvk, workload, seed
        self.corpus, self.catalog, self.tracer = corpus, catalog, tracer
        self.latencies: list[float] = []
        self.failures: Counter = Counter()
        self.errors: list[str] = []
        self.outcomes: Counter = Counter()
        self.by_kind: dict[str, list[float]] = {}
        self.decided = 0
        self.chords = [math.inf, 0]
        self.digest = hashlib.sha256()
        # (traced, kind) -> [request seconds, requests], rounds after the first
        self.kind_walls: dict[tuple[bool, str], list] = {}
        self.timed = 0.0
        self.pool: list[str] = []
        self.pairs = wl.corpus_pairs(corpus)

    def make_round(self, r: int) -> list[wl.Request]:
        lvk, seed = self.lvk, self.seed
        if self.workload == "search":
            return wl.search_round(lvk, seed, r, self.corpus)
        if self.workload == "invariants":
            return wl.invariants_round(lvk, seed, r, self.corpus, self.catalog)
        return wl.witness_round(lvk, seed, r, self.corpus, self.catalog, self.pool, self.pairs)

    def make_rounds(self, rounds: int, min_requests: int) -> list[list[wl.Request]]:
        """All of the run's inputs: ``rounds`` rounds, more if needed to
        reach ``min_requests``.  Made before anything is timed."""
        made: list[list[wl.Request]] = []
        while len(made) < rounds or sum(map(len, made)) < min_requests:
            made.append(self.make_round(len(made)))
        for requests in made:
            for req in requests:
                self.digest.update("\n".join(req.codes).encode() + b"\n\n")
        return made

    def loop(self, rounds: list[list[wl.Request]]) -> list[wl.Request]:
        """Issue every request, one at a time; return those that completed."""
        clock = time.perf_counter
        completed = []
        for r, requests in enumerate(rounds):
            traced = self.tracer is not None and r % 4 in (0, 3)
            if traced:
                self.tracer.install()
            for req in requests:
                started = clock()
                try:
                    req.result = req.run()
                except Exception as exc:  # counted, reported by type
                    elapsed = clock() - started
                    self.failures[type(exc).__name__] += 1
                    self.latencies.append(math.inf)
                else:
                    elapsed = clock() - started
                    self.latencies.append(elapsed)
                    completed.append(req)
                    if r > 0:  # round 0 warms caches; keep it out of the overhead
                        wall = self.kind_walls.setdefault((traced, req.kind), [0.0, 0])
                        wall[0] += elapsed
                        wall[1] += 1
                self.timed += elapsed
                self.note_input(req, traced)
            if traced:
                self.tracer.uninstall()
        return completed

    def note_input(self, req: wl.Request, traced: bool) -> None:
        self.by_kind.setdefault(req.kind, []).append(self.latencies[-1])
        self.chords = [min(self.chords[0], req.chords), max(self.chords[1], req.chords)]
        if traced and self.workload == "witness_scan":
            self.tracer.count("pair_scans")

    def note_answer(self, req: wl.Request) -> None:
        try:
            error = req.check(req.result)
            decided = req.decided(req.result)
        except Exception as exc:  # a check that cannot read the answer
            error, decided = f"check raised {type(exc).__name__}: {exc}", False
        if error:
            self.errors.append(f"{req.kind}: {error}")
        self.decided += bool(decided)
        if req.outcome is not None:
            self.outcomes[f"{req.kind}:{req.outcome(req.result)}"] += 1

    def overhead(self) -> float:
        """Traced request time over the same requests' untraced expectation.

        Each request kind's traced time is compared with the untraced mean
        of that kind, so rounds of different make-up do not bias it.
        """
        traced = expected = 0.0
        for (is_traced, kind), (seconds, count) in self.kind_walls.items():
            untraced = self.kind_walls.get((False, kind))
            if is_traced and untraced:
                traced += seconds
                expected += count * untraced[0] / untraced[1]
        return traced / expected - 1.0 if expected else 0.0


def known_answers(lvk, workload: str, corpus: wl.Corpus, catalog, max_order: int) -> list[str]:
    """Frozen values that every run re-checks, outside the timed loop."""
    errors = []
    for name, code in corpus.codes.items():
        d = lvk.parse_gauss_code(code)
        frozen = ref.ODD_WRITHE_FROZEN[name]
        if (lvk.odd_writhe(d), ref.odd_writhe(ref.tokens_of(code))) != (frozen, frozen):
            errors.append(f"odd writhe of {name} is not the frozen {frozen}")
        if lvk.supporting_genus(d) != corpus.genus(name):
            errors.append(f"genus of {name} is not {corpus.genus(name)}")
    if workload == "search":
        return errors
    seen = set()
    for m in range(1, max_order + 1):
        structures = [x for x in catalog if x.name.startswith(f"biq:{m}:")]
        quandles = sum(all(x.down[y][z] == y for y in range(m) for z in range(m))
                       for x in structures)
        if (len(structures), quandles) != (ref.ENUMERATION_CLASSES[m], ref.ENUMERATION_QUANDLES[m]):
            errors.append(f"order {m}: {len(structures)} classes, {quandles} quandles")
        for x in structures:
            failed = ref.axiom_failures(x.up, x.down)
            key = ref.iso_key(x.up, x.down)
            if failed or key in seen:
                errors.append(f"{x.name}: {failed or 'isomorphic to an earlier class'}")
            seen.add(key)
    return errors


def past_limit(lvk, seed: int) -> tuple[int, Counter, list[str]]:
    """Run the past-recursion-limit chains; (attempted, failures, errors)."""
    failures: Counter = Counter()
    errors = []
    probes = wl.past_limit_probes(lvk, seed)
    for req in probes:
        try:
            result = req.run()
        except Exception as exc:
            failures[type(exc).__name__] += 1
            continue
        error = req.check(result)
        if error:
            errors.append(f"past_limit: {error}")
    return len(probes), failures, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="self-test scale: order <= 3 structures, 12 requests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time set-up only and print it (used for setup_s samples)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    workload = args.workload
    max_order = min(wl.ENUM_ORDER[workload], TOY_ENUM_ORDER if args.toy else 99)
    tracer = Tracer() if args.trace else None

    lvk, corpus, catalog, setup_s = set_up(root, workload, max_order, tracer)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    run = Run(lvk, workload, args.seed, corpus, catalog, tracer)
    rounds = max(1, round(args.seconds * wl.ROUNDS_PER_SECOND[workload]))
    inputs = run.make_rounds(rounds, TOY_MIN_REQUESTS if args.toy else MIN_REQUESTS)
    answered = run.loop(inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for req in answered:
        run.note_answer(req)
    errors = run.errors + known_answers(lvk, workload, corpus, catalog, max_order)
    limit_n, limit_failures, limit_errors = 0, Counter(), []
    if workload == "invariants":
        limit_n, limit_failures, limit_errors = past_limit(lvk, args.seed)
        errors += limit_errors
    setups = [setup_s] + probe_setups(root, workload, SETUP_PROBES[workload], args.toy)

    attempted = len(run.latencies)
    failed = sum(run.failures.values())
    ordered = sorted(run.latencies)
    completed = attempted - failed
    end_to_end = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": percentile(ordered, 0.50) * 1000.0,
        "latency_p90_ms": percentile(ordered, 0.90) * 1000.0,
        "throughput_rps": completed / run.timed,
        "decided_share": run.decided / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    beyond_p90 = attempted - math.ceil(0.9 * attempted)

    out = print
    out(f"workload {workload}  seed {args.seed}  rounds {len(inputs)}  "
        f"timed {run.timed:.3f} s  trace {args.trace}")
    out(f"inputs   sha256 {run.digest.hexdigest()} ({attempted} requests)")
    for kind, values in sorted(run.by_kind.items()):
        values = sorted(values)
        out(f"mix      {kind:16s} n={len(values):4d}  p50 {percentile(values, 0.5) * 1e3:10.3f} ms"
            f"  max {values[-1] * 1e3:10.3f} ms  total {sum(values):8.3f} s")
    traffic = {"chords": run.chords,
               "requests": {kind: len(values) for kind, values in sorted(run.by_kind.items())},
               "outcomes": dict(sorted(run.outcomes.items())),
               "failures": dict(run.failures), "past_limit_inputs": limit_n,
               "budgets": wl.BUDGETS if workload == "search" else {},
               "past_limit_failures": dict(limit_failures)}
    out(f"traffic  {json.dumps(traffic)}")
    units = dict(END_TO_END)
    counts = {
        "setup_s": f"median of {len(setups)} set-ups",
        "latency_p50_ms": f"n={attempted}",
        "latency_p90_ms": f"n={attempted}, {beyond_p90} beyond",
        "throughput_rps": f"{completed} completed in {run.timed:.3f} s",
        "decided_share": f"{run.decided} of {attempted}",
        "peak_rss_mb": "ru_maxrss",
    }
    for name, value in end_to_end.items():
        out(f"{name:16s} {value:12.4f} {units[name]:6s} ({counts[name]})")
    out(f"{'failed_share':16s} {failed / attempted:12.4f} {'ratio':6s} "
        f"({failed} of {attempted}: {dict(run.failures) or 'none'})")
    if workload == "invariants":
        out(f"{'past_limit':16s} {sum(limit_failures.values()) / limit_n:12.4f} {'ratio':6s} "
            f"({sum(limit_failures.values())} of {limit_n} chains of "
            f"{wl.PAST_LIMIT_SIZES[0]}-{wl.PAST_LIMIT_SIZES[-1]} chords failed: "
            f"{dict(limit_failures) or 'none'})")

    if tracer is not None:
        layer = tracer.metrics()
        layer["invariants.past_limit.failed_share"] = (
            sum(limit_failures.values()) / limit_n if limit_n else 0.0)
        layer["trace.overhead"] = run.overhead()
        for name, unit in PER_LAYER:
            out(f"{name:42s} {layer[name]:14.6f} {unit}")
        out(f"invariants.enumerate.classes by order: {tracer.classes_by_order()}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}

    for error in errors[:20]:
        out(f"WRONG    {error}")
    out(f"checks   {'all passed' if not errors else f'{len(errors)} failed'}")
    out(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                    "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
