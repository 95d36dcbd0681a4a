"""Single configuration block for every numerical tolerance a config can set.

Pass/fail reports always carry both the measured residual and the tolerance
it was compared against.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # absolute tolerance for variational/KKT residuals, normalized by max(|c_j|, 1)
    kkt: float = 1e-6
    # absolute tolerance for potential-level checks (zone/support/balayage match),
    # normalized by the relevant potential scale; discretization-limited
    potential: float = 1e-3
    # pivot-round budget of each QP solve: the pattern solves it may take
    max_iters: int = 50_000


DEFAULT_TOLERANCES = Tolerances()
