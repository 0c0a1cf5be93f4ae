"""Confidence intervals and the paper's run-until-confident stopping rule.

Section V-B: "we would do at least 10 runs, sometimes more until the relative
standard error (RSE) dropped below 10% of the sample mean", and Figure 9
reports 95% confidence intervals for the sample mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval for a sample mean."""

    mean: float
    half_width: float
    level: float
    n: int


def mean_confidence_interval(values: Sequence[float], level: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``values``."""
    n = len(values)
    if n == 0:
        raise ValueError("cannot compute a confidence interval on no data")
    mean = sum(values) / n
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=math.inf, level=level, n=1)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    sem = math.sqrt(variance / n)
    # Imported here: scipy.stats costs ~0.9 s, four fifths of ``import
    # repro``, and only the experiment summaries ever reach this line.
    from scipy import stats as sp_stats

    t = float(sp_stats.t.ppf(0.5 + level / 2.0, df=n - 1))
    return ConfidenceInterval(mean=mean, half_width=t * sem, level=level, n=n)


def relative_standard_error(values: Sequence[float]) -> float:
    """RSE = stderr / |mean|; ``inf`` when the mean is zero or n < 2."""
    n = len(values)
    if n < 2:
        return math.inf
    mean = sum(values) / n
    if mean == 0:
        return math.inf
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return math.sqrt(variance / n) / abs(mean)


def enough_runs(values: Sequence[float], min_runs: int = 10, rse_target: float = 0.10) -> bool:
    """The paper's stopping rule: at least ``min_runs`` and RSE below target."""
    return len(values) >= min_runs and relative_standard_error(values) < rse_target
