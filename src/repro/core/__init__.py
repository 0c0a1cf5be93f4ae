"""Adaptive transport selection — the paper's core contribution (§IV).

The ``Transport.DATA`` pseudo-protocol lets applications defer the TCP/UDT
choice to the middleware: a per-destination interceptor queues data
messages and releases them with a concrete transport stamped by a
*protocol selection policy* (probabilistic or pattern-based), whose target
mix is prescribed per learning episode by a *protocol ratio policy*
(static, or the Sarsa(λ) :class:`TDRatioLearner`).
"""

from repro.core.data_network import DataNetwork
from repro.core.flow import DestinationFlow, FlowTelemetry
from repro.core.interceptor import DataNetworkInterceptor, is_data_traffic
from repro.core.patterns import (
    PatternSelection,
    best_pattern,
    p_pattern,
    p_plus_one_pattern,
    pattern_for_ratio,
)
from repro.core.prp import ProtocolRatioPolicy, StaticRatio
from repro.core.psp import ProtocolSelectionPolicy, RandomSelection
from repro.core.ratio import PatternForm, ProtocolRatio, signed_of_counts
from repro.core.rewards import EpisodeStats, reward
from repro.core.td_learner import TDRatioLearner, ratio_states, step_actions

__all__ = [
    "ProtocolRatio",
    "PatternForm",
    "signed_of_counts",
    "ProtocolSelectionPolicy",
    "RandomSelection",
    "PatternSelection",
    "p_pattern",
    "p_plus_one_pattern",
    "best_pattern",
    "pattern_for_ratio",
    "ProtocolRatioPolicy",
    "StaticRatio",
    "TDRatioLearner",
    "ratio_states",
    "step_actions",
    "EpisodeStats",
    "reward",
    "DestinationFlow",
    "FlowTelemetry",
    "DataNetworkInterceptor",
    "is_data_traffic",
    "DataNetwork",
]
