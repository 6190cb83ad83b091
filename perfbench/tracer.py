"""Spans and counts recorded around elia's public functions, from outside.

``instrument`` replaces the names ``elia.cli`` imports (and the recorded
backend's ``complete`` and ``elia.core.content_hash``) with wrappers that
record a span (id, parent, name, start, end) per call and add counts taken
from the call's arguments and result. Counting runs after the span closes,
so it lands in the caller's self time, not in the layer's. Spans stay in
memory until ``summary`` folds them into per-name totals.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.values: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, result, *args, **kwargs)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds; plus counts."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for span_id, _, name, start, end in self.spans:
            row = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[span_id]
        return {"spans": totals, "counts": dict(self.counts), "values": dict(self.values)}


def _dir_bytes(path: str) -> int:
    """Bytes of the files directly in ``path`` (the whole store after a save)."""
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def _after_parse_bol(tr, result, *args, **kwargs):
    _, report = result
    tr.counts["bol.rows_accepted"] += report.accepted
    tr.counts["bol.rows_rejected"] += report.rejected


def _after_save_store(tr, result, store, path, *args, **kwargs):
    tr.counts["store.bytes_written"] += _dir_bytes(path)


def _after_segment(tr, result, *args, **kwargs):
    tr.counts["transcripts.sentences"] += len(result)


def _after_detect(tr, result, *args, **kwargs):
    tr.counts["transcripts.mentions"] += len(result.mentions)


def _after_gazetteer(tr, result, *args, **kwargs):
    tr.counts["transcripts.gazetteer_entries"] += len(result.entries)


def _after_extract(tr, result, *args, **kwargs):
    triples, errors = result
    tr.counts["extraction.triples"] += len(triples)
    tr.counts["extraction.errors"] += len(errors)


def _after_resolve(tr, result, names, *args, **kwargs):
    from elia.resolution import normalize_name

    distinct = set(names)
    tr.counts["resolution.names"] += len(distinct)
    tr.counts["resolution.forms"] += len({normalize_name(n) for n in distinct})
    tr.counts["resolution.entities"] += len(result.entities)


def _after_build(tr, result, *args, **kwargs):
    graph, report = result
    tr.counts["graph.nodes"] += len(graph.nodes)
    tr.counts["graph.edges"] += len(graph.edges)
    tr.counts["graph.skipped"] += len(report.skipped)


def _after_propagate(tr, report, graph, *args, **kwargs):
    injected = sum(n.direct_emissions_kg for n in graph.nodes.values()) + sum(
        e.edge_liability_kg for e in graph.edges
    )
    retained = sum(row.retained_kg for row in report.nodes.values())
    tr.values["graph.propagate_residual"] = report.residual
    tr.values["graph.conservation_error"] = abs(retained - injected) / injected if injected else 0.0


def _after_write(tr, result, *args, **kwargs):
    tr.counts["exporter.bytes_written"] += os.path.getsize(args[-1])


def _after_score(tr, result, predictions, gold, *args, **kwargs):
    tr.counts["evalkit.pairs"] += len({t.source_id for t in predictions} | {t.source_id for t in gold})


# (module attribute in elia.cli, span name, count hook)
CLI_NAMES = (
    ("parse_bol_file", "bol.parse_bol_file", _after_parse_bol),
    ("normalize_product_desc", "bol.normalize_product_desc", None),
    ("load_store", "store.load_store", None),
    ("save_store", "store.save_store", _after_save_store),
    ("segment", "transcripts.segment", _after_segment),
    ("detect_mentions", "transcripts.detect_mentions", _after_detect),
    ("gazetteer_from_store", "transcripts.gazetteer_from_store", _after_gazetteer),
    ("extract_batch", "extraction.extract_batch", _after_extract),
    ("resolve", "resolution.resolve", _after_resolve),
    ("build_graph", "graph.build_graph", _after_build),
    ("propagate", "graph.propagate", _after_propagate),
    ("query", "graph.query", None),
    ("export", "exporter.export", _after_write),
    ("import_graph_json", "exporter.import_graph_json", None),
    ("save_report_json", "exporter.save_report_json", _after_write),
    ("load_report_json", "exporter.load_report_json", None),
    ("score", "evalkit.score", _after_score),
)


def instrument(tracer: Tracer) -> None:
    """Wrap elia's layer entry points in place. Call once per process."""
    import elia.cli
    import elia.core
    from elia.extraction import RecordedBackend

    for attr, name, after in CLI_NAMES:
        setattr(elia.cli, attr, tracer.wrap(name, getattr(elia.cli, attr), after))
    elia.core.content_hash = tracer.wrap("core.content_hash", elia.core.content_hash)
    RecordedBackend.complete = tracer.wrap("extraction.backend_complete", RecordedBackend.complete)
