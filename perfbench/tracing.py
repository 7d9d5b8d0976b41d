"""Span recording around calls into cubic_lab's public functions.

``Tracer.install`` replaces every module-level binding of the functions in
``TRACED`` (the defining module's own binding and every module that imports
it) with a recorder, so both cross-module and intra-module calls through
module globals produce spans. Nothing under ``src/`` changes. Each span is
``[name, site, tag, start, end, parent]``: ``site`` is the module whose
binding was called, ``tag`` a small fact about the result (connectivity
class, Hamiltonicity certificate, family size) and ``parent`` the index of
the enclosing span, or -1. Spans stay in memory until the run ends.

``layer_metrics`` turns a span list into the per-layer metrics: exact call
counts, self time (duration minus the time child spans cover), median and
tail durations. Work done in census pool workers is covered only by the
enclosing ``census.census_table`` span.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
from collections import defaultdict
from time import perf_counter

TRACED = {
    "cli": ("main",),
    "census": ("enumerate_cubic", "census_table", "classify_graph6"),
    "construction": ("bridge_construct", "cycle_insertion", "insertion_family"),
    "symmetry": ("canonical_form", "automorphism_group", "edge_orbits", "distinct_cycle_edges"),
    "connectivity": ("classify_connectivity", "two_edge_cuts", "most_balanced_bibridge", "find_bridges"),
    "hamilton": ("has_hamiltonian_cycle",),
    "graphs": ("parse_graph6", "emit_graph6", "parse_graph6_lines"),
}
FUNCTIONS = tuple(f"{mod}.{name}" for mod, names in TRACED.items() for name in names)
SITES = ("graphs", "connectivity", "symmetry", "hamilton", "construction",
         "reduction", "census", "cli")
CACHED = ("symmetry.canonical_form", "symmetry.automorphism_group")

TAGS = {
    "connectivity.classify_connectivity": lambda result: result.label,
    "hamilton.has_hamiltonian_cycle": lambda result: result.certificate_kind,
    "construction.insertion_family": lambda result: len(result.members),
}
CLASS_LABELS = ("bridge", "biconnected", "three-connected")
CERTIFICATES = ("bridge-shortcut", "cycle-found", "exhausted")

# Highest percentile first; ``tail_ms`` takes the first with >= 10 samples beyond.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.graph_inits = 0
        self._open: list[int] = []
        self._originals: dict[str, object] = {}

    def _wrap(self, name: str, site: str, fn):
        spans, open_spans = self.spans, self._open
        tag_of = TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, site, None, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                open_spans.pop()
            if tag_of is not None:
                span[2] = tag_of(result)
            return result

        return traced

    def install(self) -> None:
        package = importlib.import_module("cubic_lab")
        sites = {site: importlib.import_module(f"cubic_lab.{site}") for site in SITES}
        sites["cubic_lab"] = package
        for module, names in TRACED.items():
            for fname in names:
                name = f"{module}.{fname}"
                original = getattr(sites[module], fname)
                self._originals[name] = original
                for site, mod in sites.items():
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, self._wrap(name, site, original))

        graph = sites["graphs"].Graph
        post_init = graph.__post_init__

        def counted_post_init(g):
            self.graph_inits += 1
            post_init(g)

        graph.__post_init__ = counted_post_init

    def cache_counts(self) -> dict[str, list[int]]:
        counts = {}
        for name in CACHED:
            info = self._originals[name].cache_info()
            counts[name] = [info.hits, info.misses]
        return counts


def tail(durations: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it, by nearest rank; the maximum (100) when there are too
    few samples for any."""
    ordered = sorted(durations)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1] if ordered else 0.0


def _timing(durations: list[float], self_s: float) -> dict:
    pct, value = tail(durations)
    return {
        "calls": len(durations),
        "self_s": self_s,
        "p50_ms": statistics.median(durations) * 1e3 if durations else 0.0,
        "tail_ms": value * 1e3,
        "tail_pct": pct,
    }


def layer_metrics(spans: list[list], graph_inits: int, cache_counts: dict, classes: int) -> tuple[dict, dict]:
    """Per-layer metric values plus the tail percentile chosen per timing."""
    covered = [0.0] * len(spans)
    for name, site, tag, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    durations: dict[str, list[float]] = defaultdict(list)
    self_time: dict[str, float] = defaultdict(float)
    tagged: dict[tuple, list[float]] = defaultdict(list)
    census_canonical = 0
    members = 0
    for (name, site, tag, start, end, parent), inner in zip(spans, covered):
        duration = end - start
        durations[name].append(duration)
        self_time[name] += duration - inner
        if name == "construction.insertion_family":
            members += tag or 0  # None when the call raised
        elif tag is not None:
            tagged[name, tag].append(duration)
        if name == "symmetry.canonical_form" and site == "census":
            census_canonical += 1

    values: dict[str, float] = {}
    tails: dict[str, float] = {}

    def put_timing(prefix: str, samples: list[float], self_s, keys) -> None:
        stats = _timing(samples, self_s or 0.0)
        for key in keys:
            values[f"{prefix}.{key}"] = stats[key]
        tails[prefix] = stats["tail_pct"]

    for name in FUNCTIONS:
        put_timing(name, durations[name], self_time[name], ("calls", "self_s", "p50_ms", "tail_ms"))
    for label in CLASS_LABELS:
        name = "connectivity.classify_connectivity"
        put_timing(f"{name}.{label}", tagged[name, label], None, ("calls", "p50_ms", "tail_ms"))
    for cert in CERTIFICATES:
        values[f"hamilton.has_hamiltonian_cycle.{cert}.calls"] = len(tagged["hamilton.has_hamiltonian_cycle", cert])
    for name, (hits, misses) in cache_counts.items():
        values[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["census.canonical_form.calls"] = census_canonical
    values["census.canonical_calls_per_class"] = census_canonical / classes
    values["construction.members.calls"] = members
    values["graphs.Graph.calls"] = graph_inits
    return values, tails


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in reporting order."""
    unit_of = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
               "p50_ms": ("ms", "lower"), "tail_ms": ("ms", "lower")}
    out = []
    for name in FUNCTIONS:
        out += [(f"{name}.{key}", *unit_of[key]) for key in ("calls", "self_s", "p50_ms", "tail_ms")]
    for label in CLASS_LABELS:
        prefix = f"connectivity.classify_connectivity.{label}"
        out += [(f"{prefix}.{key}", *unit_of[key]) for key in ("calls", "p50_ms", "tail_ms")]
    out += [(f"hamilton.has_hamiltonian_cycle.{cert}.calls", "count", "lower") for cert in CERTIFICATES]
    out += [(f"{name}.hit_ratio", "ratio", "higher") for name in CACHED]
    out += [
        ("census.canonical_form.calls", "count", "lower"),
        ("census.canonical_calls_per_class", "count", "lower"),
        ("construction.members.calls", "count", "lower"),
        ("graphs.Graph.calls", "count", "lower"),
        ("trace.graphs_per_s", "1/s", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return out
