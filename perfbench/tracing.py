"""Spans around calls into accesslint's layers, and the per-layer table.

A Tracer wraps public functions at two kinds of place: the attributes
of the benchmark's own call table (the calls an op makes directly) and
the module globals through which one accesslint module calls another
(cli.main calling parse_model, parse_model calling check_structure,
validate_access calling expand_needs).  Nothing under src/ changes:
the wrappers are installed for a traced op and removed after it.
lookup_statement is deliberately not wrapped inside validate_access;
its count is derived from the report instead, because a wrapper on a
call made once per triple would distort the time it measures.
"""

from __future__ import annotations

import json
from time import perf_counter

# (layer.function span name, owner key, attribute).  Owner keys name the
# call table ("api") or an accesslint module whose global is replaced.
WRAP_POINTS = (
    ("cli.main", "api", "main"),
    ("modelio.parse_model", "api", "parse_model"),
    ("modelio.parse_model", "cli", "parse_model"),
    ("modelio.serialize_model", "api", "serialize_model"),
    ("modelio.render_report", "api", "render_report"),
    ("modelio.render_report", "cli", "render_report"),
    ("model.check_structure", "modelio", "check_structure"),
    ("model.check_structure", "cli", "check_structure"),
    ("goals.check_goal_structure", "modelio", "check_goal_structure"),
    ("goals.check_goal_structure", "cli", "check_goal_structure"),
    ("goals.lookup_statement", "api", "lookup_statement"),
    ("goals.trace", "api", "trace"),
    ("validation.expand_hierarchy", "api", "expand_hierarchy"),
    ("validation.expand_hierarchy", "cli", "expand_hierarchy"),
    ("validation.expand_needs", "validation", "expand_needs"),
    ("validation.validate_access", "api", "validate_access"),
    ("validation.validate_access", "cli", "validate_access"),
    ("dot.export_dot", "cli", "export_dot"),
    ("fixtures.fixture_text", "cli", "fixture_text"),
)

LAYERS = ("cli", "modelio", "model", "goals", "validation", "dot", "fixtures")

# Per-layer metrics: name -> unit.  Times are self time per traced op,
# counts are per traced op.
PER_LAYER = {
    "cli.self_ms": "ms",
    "modelio.parse_ms": "ms",
    "modelio.parse_mb_per_s": "MB/s",
    "modelio.render_ms": "ms",
    "modelio.serialize_ms": "ms",
    "model.check_structure_ms": "ms",
    "goals.check_goal_structure_ms": "ms",
    "goals.lookup_ms": "ms",
    "goals.lookups": "count",
    "goals.lookup_hit_ratio": "ratio",
    "goals.trace_ms": "ms",
    "goals.trace_paths": "count",
    "validation.expand_hierarchy_ms": "ms",
    "validation.inherited_triples": "count",
    "validation.expand_needs_ms": "ms",
    "validation.triples": "count",
    "validation.validate_access_ms": "ms",
    "validation.warnings": "count",
    "dot.export_ms": "ms",
    "fixtures.fixture_text_ms": "ms",
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "tracing_overhead_pct": "%",
    # Filled in by run.py: the untraced ops uncorrected for core speed, and
    # the median reference-task time that the end-to-end times are scaled by.
    "raw.ops_per_s": "ops/s",
    "raw.op_p50_ms": "ms",
    "speed.probe_ms": "ms",
}

# Time metrics and the span whose self time each one sums.
_SELF_TIMES = {
    "cli.self_ms": "cli.main",
    "modelio.parse_ms": "modelio.parse_model",
    "modelio.render_ms": "modelio.render_report",
    "modelio.serialize_ms": "modelio.serialize_model",
    "model.check_structure_ms": "model.check_structure",
    "goals.check_goal_structure_ms": "goals.check_goal_structure",
    "goals.lookup_ms": "goals.lookup_statement",
    "goals.trace_ms": "goals.trace",
    "validation.expand_hierarchy_ms": "validation.expand_hierarchy",
    "validation.expand_needs_ms": "validation.expand_needs",
    "validation.validate_access_ms": "validation.validate_access",
    "dot.export_ms": "dot.export_dot",
    "fixtures.fixture_text_ms": "fixtures.fixture_text",
}


def _need_count(model) -> int:
    return sum(len(a.source_needs) + len(a.target_needs) for a in model.associations)


class Tracer:
    """Records (name, start, end, parent, op) spans in memory."""

    def __init__(self, owners: dict):
        # Each span: [name, start, end, parent index, op id, detail].
        self.spans: list[list] = []
        self._open: list[int] = []
        self._op = -1
        self._patches = []
        for name, owner_key, attr in WRAP_POINTS:
            owner = owners[owner_key]
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original, self._wrap(name, original)))
        self.counts = {"lookups": 0, "hits": 0, "inherited": 0, "warnings": 0,
                       "triples": 0, "paths": 0, "bytes": 0}
        self.ops = 0
        self.op_seconds = 0.0

    def _wrap(self, name: str, fn):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self._op, None]
            open_spans.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                open_spans.pop()
            # Keep only references here; anything costlier waits for end_op.
            record[5] = (args, result)
            return result

        return traced

    def __enter__(self):
        self._op += 1
        self._first = len(self.spans)
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc_info):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        return False

    def end_op(self, seconds: float) -> None:
        """Fold the finished op's span details into counts and drop references."""
        self.ops += 1
        self.op_seconds += seconds
        counts = self.counts
        first = self._first
        for index in range(first, len(self.spans)):
            name, detail = self.spans[index][0], self.spans[index][5]
            if detail is None:  # the call raised; the op is counted as failed
                continue
            args, result = detail
            if name == "modelio.parse_model":
                counts["bytes"] += len(args[0])
            elif name == "validation.expand_needs":
                counts["triples"] += len(result)
            elif name == "validation.expand_hierarchy":
                counts["inherited"] += _need_count(result) - _need_count(args[0])
            elif name == "validation.validate_access":
                kinds = [w.kind.value for w in result.warnings]
                undefined = kinds.count("undefined_access")
                unresolved = undefined + kinds.count("unauthorised_access")
                triples = sum(len(child[5][1]) for child in self.spans[index + 1:]
                              if child[3] == index)
                counts["warnings"] += len(kinds)
                # One allow lookup per triple, plus a deny lookup for each
                # triple no allow matched; found = allowed + denied triples.
                counts["lookups"] += triples + unresolved
                counts["hits"] += triples - undefined
            elif name == "goals.lookup_statement":
                counts["lookups"] += 1
                counts["hits"] += result is not None
            elif name == "goals.trace":
                counts["paths"] += len(result)
        for record in self.spans[first:]:
            record[5] = None

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name: duration minus direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _, _), covered in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def table(self, untraced_ops_per_s: float) -> dict[str, float]:
        """Every per-layer metric, averaged over the traced ops."""
        n = max(self.ops, 1)
        totals = self.self_times()
        counts = self.counts
        out = {metric: totals.get(span, 0.0) * 1000 / n
               for metric, span in _SELF_TIMES.items()}
        parse_s = totals.get("modelio.parse_model", 0.0)
        out["modelio.parse_mb_per_s"] = counts["bytes"] / parse_s / 1e6 if parse_s else 0.0
        out["goals.lookups"] = counts["lookups"] / n
        out["goals.lookup_hit_ratio"] = (
            counts["hits"] / counts["lookups"] if counts["lookups"] else 0.0)
        out["goals.trace_paths"] = counts["paths"] / n
        out["validation.inherited_triples"] = counts["inherited"] / n
        out["validation.triples"] = counts["triples"] / n
        out["validation.warnings"] = counts["warnings"] / n
        calls = dict.fromkeys(LAYERS, 0)
        for record in self.spans:
            calls[record[0].split(".", 1)[0]] += 1
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] / n
        traced_ops_per_s = self.ops / self.op_seconds if self.op_seconds else 0.0
        out["tracing_overhead_pct"] = (
            (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s * 100
            if untraced_ops_per_s else 0.0)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line, times in microseconds."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, _ in self.spans:
                handle.write(json.dumps({
                    "name": name, "start_us": round((start - origin) * 1e6, 1),
                    "end_us": round((end - origin) * 1e6, 1),
                    "parent": parent, "op": op}) + "\n")
