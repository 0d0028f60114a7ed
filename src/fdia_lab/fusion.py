"""Union fusion of the passive residual verdict and the active classifier verdict.

Both detection paths run on every tick independently; the final boolean is
the OR of the passive residual threshold decision and the classifier flag
(1 = attack, 0 = clean).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .passive_detect import Thresholds, decide


@dataclass(frozen=True)
class FusionVerdict:
    t: int
    residual: float      # passive residual metric value at tick t
    active_flag: bool    # classifier verdict
    fused: bool          # decide(residual) OR active_flag


def combine(residual: float, th: Thresholds, active_flag: bool, t: int = 0) -> FusionVerdict:
    passive_flag = decide(residual, th)
    return FusionVerdict(t=t, residual=residual, active_flag=bool(active_flag),
                         fused=passive_flag or bool(active_flag))


def combine_streams(residuals: Sequence[float], th: Thresholds,
                    active_flags: Sequence[bool],
                    ticks: Sequence[int] | None = None) -> list[FusionVerdict]:
    if ticks is None:
        ticks = range(len(residuals))
    return [combine(r, th, a, t)
            for r, a, t in zip(residuals, active_flags, ticks)]
