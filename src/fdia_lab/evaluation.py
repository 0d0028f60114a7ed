"""Classification metrics and detection-latency measurement.

``score`` gives a detector's metrics row, as ``metrics.json`` holds it. The
positive class is an attack (label 1). Metrics with a zero
denominator come back as 0 with the report's degenerate flag set rather
than NaN, so downstream tables stay numeric.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate: bool = False


def confusion(preds: Sequence[bool], labels: Sequence[bool]) -> ConfusionCounts:
    preds = np.asarray(preds, dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    if preds.shape != labels.shape:
        raise DataError(f"{preds.shape[0]} predictions vs {labels.shape[0]} labels")
    return ConfusionCounts(
        tp=int(np.sum(preds & labels)),
        fp=int(np.sum(preds & ~labels)),
        tn=int(np.sum(~preds & ~labels)),
        fn=int(np.sum(~preds & labels)),
    )


def metrics(c: ConfusionCounts) -> MetricsReport:
    if c.total == 0:
        raise DataError("cannot compute metrics over zero samples")
    degenerate = False

    def ratio(num, den):
        nonlocal degenerate
        if den == 0:
            degenerate = True
            return 0.0
        return num / den

    accuracy = (c.tp + c.tn) / c.total
    precision = ratio(c.tp, c.tp + c.fp)
    recall = ratio(c.tp, c.tp + c.fn)
    f1 = ratio(2.0 * precision * recall, precision + recall)
    return MetricsReport(accuracy=accuracy, precision=precision, recall=recall,
                         f1=f1, degenerate=degenerate)


def detection_latency(flags: Sequence[bool], onset: int) -> int | None:
    """Ticks from the attack onset to the first raised flag, or None."""
    flags = np.asarray(flags, dtype=bool)
    if not 0 <= onset < len(flags):
        raise DataError(f"onset {onset} outside the {len(flags)}-tick stream")
    hits = np.flatnonzero(flags[onset:])
    return int(hits[0]) if len(hits) else None


def score(flags: Sequence[bool], labels: Sequence[bool], onset: int | None = None) -> dict:
    """A detector's metrics row: its metrics against ``labels`` and its
    latency from ``onset`` (None without an onset)."""
    row = asdict(metrics(confusion(flags, labels)))
    row["latency_ticks"] = None if onset is None else detection_latency(flags, onset)
    return row
