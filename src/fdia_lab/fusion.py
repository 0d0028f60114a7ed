"""Union fusion of the passive residual verdict and the active classifier verdict.

Both detection paths run on every tick independently; the final boolean is
the OR of the passive residual threshold decision and the classifier flag
(1 = attack, 0 = clean). ``fuse`` is the rule; ``combine_streams`` applies
it to a residual stream's array ``decide`` and returns one verdict per row,
whose ``t`` is its row index, and ``combine`` is its one-tick view (``t`` 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .passive_detect import Thresholds, decide


@dataclass(frozen=True)
class FusionVerdict:
    t: int               # row of the streams
    residual: float      # passive residual metric value at tick t
    active_flag: bool    # classifier verdict
    fused: bool          # fuse(decide(residual), active_flag)


def fuse(residual_flags, active_flags) -> np.ndarray:
    """The fusion rule, tick by tick: a tick is attacked when the passive
    residual decision or the classifier flags it. Takes arrays or single
    flags alike."""
    return np.logical_or(residual_flags, active_flags)


def combine_streams(residuals: Sequence[float], th: Thresholds,
                    active_flags: Sequence[bool]) -> list[FusionVerdict]:
    residuals = np.asarray(residuals, dtype=float)
    active = np.asarray(active_flags, dtype=bool)
    fused = fuse(decide(residuals, th), active)
    return [FusionVerdict(*row) for row in zip(range(len(residuals)), residuals.tolist(),
                                               active.tolist(), fused.tolist(), strict=True)]


def combine(residual: float, th: Thresholds, active_flag: bool) -> FusionVerdict:
    return combine_streams([residual], th, [active_flag])[0]
