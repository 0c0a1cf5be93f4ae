"""Snapshot export: :func:`document_json` of :func:`snapshot_document` is
the full structured snapshot (histograms with buckets and quantiles),
consumed by :mod:`repro.bench.harness`, the CLI and figure scripts."""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional

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
    return json.dumps(_sanitize(document), indent=indent, sort_keys=True)


def _sanitize(value: Any) -> Any:
    """Replace NaN/inf with None so the output is strict JSON."""
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value
