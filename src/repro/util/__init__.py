"""Small shared utilities: deterministic RNG, statistics, text tables,
atomic file writes and a pause of the cyclic garbage collector."""

from repro.util.collector import collector_paused
from repro.util.files import atomic_write_text
from repro.util.rng import DeterministicRng
from repro.util.stats import OnlineStats, Histogram
from repro.util.tables import TextTable, format_bytes, format_percent

__all__ = [
    "DeterministicRng",
    "OnlineStats",
    "Histogram",
    "TextTable",
    "format_bytes",
    "format_percent",
    "collector_paused",
    "atomic_write_text",
]
