"""Streaming and summary statistics used across the middleware and benches."""

from repro.stats.confidence import ConfidenceInterval, mean_confidence_interval, relative_standard_error
from repro.stats.online import OnlineStats
from repro.stats.reservoir import ReservoirSampler, summarize_distribution
from repro.stats.timeseries import TimeSeries

__all__ = [
    "OnlineStats",
    "ReservoirSampler",
    "summarize_distribution",
    "ConfidenceInterval",
    "mean_confidence_interval",
    "relative_standard_error",
    "TimeSeries",
]
