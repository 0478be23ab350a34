"""Order statistics the benchmark reports.

Every timing is reported as its median plus the highest percentile of
:data:`TAIL_PERCENTILES` that has at least :data:`MIN_BEYOND` samples
beyond it, together with the sample count.  Percentiles use the
nearest-rank definition, so a reported value is always one that was
actually measured.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Dict, Optional, Sequence

#: Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = ("90", "99", "99.9", "99.99")

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def nearest_rank(pct: str, count: int) -> int:
    """1-based nearest rank of percentile ``pct`` (a decimal string) in ``count`` samples.

    The rank is ``ceil(pct / 100 * count)`` computed exactly, so that for
    example the 99.9th percentile of 1000 samples is rank 999, not the
    1000 that binary floating point would round up to.
    """
    fraction = Fraction(pct) / 100
    if not 0 < fraction <= 1:
        raise ValueError(f"percentile {pct} is outside (0, 100]")
    if count < 1:
        raise ValueError("a percentile needs at least one sample")
    return max(1, math.ceil(fraction * count))


def percentile(values: Sequence[float], pct: str) -> float:
    """Nearest-rank percentile ``pct`` (a decimal string such as ``"99"``)."""
    ordered = sorted(values)
    return ordered[nearest_rank(pct, len(ordered)) - 1]


def supported_tail(count: int) -> Optional[str]:
    """Highest tail percentile with :data:`MIN_BEYOND` samples beyond it, or ``None``."""
    best = None
    for pct in TAIL_PERCENTILES:
        if count - nearest_rank(pct, count) >= MIN_BEYOND:
            best = pct
    return best


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, supported tail percentile and sample count of ``values``."""
    summary: Dict[str, object] = {"n": len(values), "median": statistics.median(values)}
    tail = supported_tail(len(values))
    if tail is not None:
        summary["tail_pct"] = tail
        summary["tail"] = percentile(values, tail)
    return summary


def describe(summary: Dict[str, object], unit: str) -> str:
    """One-line rendering of a :func:`summarize` result."""
    text = f"median {summary['median']:.4g} {unit}"
    if "tail" in summary:
        text += f", p{summary['tail_pct']} {summary['tail']:.4g} {unit}"
    else:
        text += " (too few samples for a tail percentile)"
    return f"{text}, n={summary['n']}"
