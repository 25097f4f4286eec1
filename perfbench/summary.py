"""Medians, the percentile rule and the printed report lines."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

# A timing is reported as its median plus the highest of these percentiles
# that still has at least TAIL_SAMPLES samples above it.
PERCENTILES = (90.0, 99.0, 99.9)
TAIL_SAMPLES = 10


def highest_percentile(n_samples: int) -> Optional[float]:
    """The highest entry of PERCENTILES with TAIL_SAMPLES samples beyond it, or None."""
    best = None
    for p in PERCENTILES:
        if round(n_samples * (100.0 - p) / 100.0, 9) >= TAIL_SAMPLES:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with p% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(round(p / 100.0 * len(ordered), 9)))
    return ordered[rank - 1]


def describe(values: Sequence[float], scale: float = 1.0, unit: str = "s") -> str:
    """'median X unit, pNN Y unit (n=...)' for a list of timings."""
    med = statistics.median(values) * scale
    text = f"median {med:.6g} {unit}"
    p = highest_percentile(len(values))
    if p is not None:
        text += f", p{p:g} {percentile(values, p) * scale:.6g} {unit}"
    return f"{text} (n={len(values)})"


def line(name: str, value, unit: str, note: str = "") -> str:
    """One aligned report line; ``value`` None prints n/a."""
    shown = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else str(value))
    return f"{name:32s} {shown:>14s} {unit:6s} {note}".rstrip()
