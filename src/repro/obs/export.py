"""Snapshot export: JSON documents and a line protocol.

Two formats cover the two consumers:

* :func:`document_json` of :func:`snapshot_document` — the full
  structured snapshot (histograms with buckets and quantiles), consumed by
  :mod:`repro.bench.harness` and figure scripts;
* :func:`document_lines` — a flat, diff-friendly ``name{label=value} value``
  line protocol (one scalar per line, histograms expanded to summary
  series), convenient for quick shell inspection and CI artifact diffing.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


def snapshot_document(
    registry: MetricsRegistry,
    tracer: Optional[Tracer] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The canonical export document: metadata + metrics (+ trace)."""
    doc: Dict[str, Any] = {
        "meta": dict(meta or {}),
        "metrics": registry.snapshot(),
    }
    if tracer is not None and tracer.enabled:
        doc["trace"] = [
            {
                "seq": r.seq,
                "time": r.time,
                "name": r.name,
                "kind": r.kind,
                "span_id": r.span_id,
                "fields": r.fields,
            }
            for r in tracer.records
        ]
    return doc


def document_json(document: Dict[str, Any], indent: int = 2) -> str:
    """Strict, key-sorted JSON text of a snapshot or campaign document."""
    return json.dumps(_sanitize(document), indent=indent, sort_keys=True, default=_json_default)


def _sanitize(value: Any) -> Any:
    """Replace NaN/inf with None so the output is strict JSON."""
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _json_default(value: Any) -> Any:
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None
    return str(value)


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def document_lines(metrics: Dict[str, Any]) -> List[str]:
    """Flat ``name{labels} value`` lines of a snapshot's ``metrics``, sorted
    for stable diffs."""
    lines: List[str] = []
    for name, entries in sorted(metrics.items()):
        for entry in entries:
            labels = entry["labels"]
            if entry["type"] in ("counter", "gauge"):
                lines.append(f"{name}{_format_labels(labels)} {_format_value(entry['value'])}")
                continue
            # Histograms expand to a summary series per label set.
            for stat in ("count", "mean", "p50", "p90", "p99", "min", "max"):
                value = entry[stat]
                if isinstance(value, float) and math.isnan(value):
                    continue
                lines.append(f"{name}.{stat}{_format_labels(labels)} {_format_value(value)}")
    return lines

