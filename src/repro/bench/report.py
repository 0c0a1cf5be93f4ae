"""Plain-text rendering for benchmark output, and the campaign verdict.

Every campaign result (faults, chaos, chaos-aio, loopback, fleet) states
what "passed" means exactly once, through one small contract: a ``kind``
string, ``problems()`` (empty means passed; each entry names the field
and its value), ``summary()`` and ``to_document()``.  The ``repro`` exit
code, ``scripts/ci_checks.py`` and the tests all read that one
statement, through :func:`campaign_summary` and
:func:`campaign_document`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Sequence, Tuple


def failed(*checks: Tuple[bool, str]) -> List[str]:
    """The messages of the ``(holds, message)`` checks that do not hold."""
    return [message for holds, message in checks if not holds]


def campaign_summary(result: Any) -> str:
    """The result's own summary, then the one verdict line."""
    verdict = "NO" if result.problems() else "yes"
    return f"{result.summary()}\n  {'converged':<15} {verdict}"


def campaign_document(result: Any, *derived: str) -> Dict[str, Any]:
    """Dataclass fields, the named ``derived`` properties, then the verdict."""
    document = dataclasses.asdict(result)
    document.update((name, getattr(result, name)) for name in derived)
    problems = result.problems()
    document.update(kind=result.kind, converged=not problems, problems=problems)
    return document


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Fixed-width table with a rule under the header."""
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(list(headers)))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


SPARK_LEVELS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], low: float = None, high: float = None) -> str:
    """A unicode sparkline of ``values`` (empty string for no data).

    ``low``/``high`` pin the scale (defaults: the data's min/max); values
    outside the range are clamped.
    """
    values = list(values)
    if not values:
        return ""
    lo = min(values) if low is None else low
    hi = max(values) if high is None else high
    span = hi - lo
    if span <= 0:
        return SPARK_LEVELS[-1] * len(values)
    out = []
    for v in values:
        frac = (min(max(v, lo), hi) - lo) / span
        out.append(SPARK_LEVELS[round(frac * (len(SPARK_LEVELS) - 1))])
    return "".join(out)
