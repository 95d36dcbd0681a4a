"""Single configuration block for every numerical tolerance a config can set.

Pass/fail reports always carry both the measured residual and the tolerance
it was compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # absolute tolerance for variational/KKT residuals, normalized by max(|c_j|, 1)
    kkt: float = 1e-6
    # absolute tolerance of kkt_report's zero-potential law and scalar_zone_checks,
    # normalized by the potential scale; discretization-limited
    potential: float = 1e-3
    # pivot-round budget of each QP solve: the pattern solves it may take
    max_iters: int = 50_000

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0.0
                   for x in (self.kkt, self.potential)) or self.max_iters < 1:
            raise ValueError(f"kkt and potential must be finite numbers > 0 "
                             f"and max_iters >= 1, got {self}")


DEFAULT_TOLERANCES = Tolerances()
