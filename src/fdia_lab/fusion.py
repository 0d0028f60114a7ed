"""Union fusion of the passive residual verdict and the active classifier verdict.

Both detection paths run on every tick independently; the final boolean is
the OR of the passive residual threshold decision and the classifier flag
(1 = attack, 0 = clean).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .passive_detect import Thresholds, decide


@dataclass(frozen=True)
class FusionVerdict:
    t: int
    residual: float      # passive residual metric value at tick t
    active_flag: bool    # classifier verdict
    fused: bool          # fuse(decide(residual), active_flag)


def fuse(residual_flags, active_flags) -> np.ndarray:
    """The fusion rule, tick by tick: a tick is attacked when the passive
    residual decision or the classifier flags it. Takes arrays or single
    flags alike."""
    return np.logical_or(residual_flags, active_flags)


def combine(residual: float, th: Thresholds, active_flag: bool, t: int = 0) -> FusionVerdict:
    return FusionVerdict(t=t, residual=residual, active_flag=bool(active_flag),
                         fused=bool(fuse(decide(residual, th), active_flag)))


def combine_streams(residuals: Sequence[float], th: Thresholds,
                    active_flags: Sequence[bool],
                    ticks: Sequence[int] | None = None) -> list[FusionVerdict]:
    if ticks is None:
        ticks = range(len(residuals))
    return [combine(r, th, a, t)
            for r, a, t in zip(residuals, active_flags, ticks)]
