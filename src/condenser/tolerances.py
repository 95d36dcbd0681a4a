"""Single configuration block for every numerical tolerance used by the package.

Pass/fail reports always carry both the measured residual and the tolerance
it was compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # absolute tolerance for variational/KKT residuals, normalized by max(|c_j|, 1)
    kkt: float = 1e-6
    # absolute tolerance for potential-level checks (zone/support/balayage match),
    # normalized by the relevant potential scale; discretization-limited
    potential: float = 1e-3
    # relative objective decrease threshold for solver convergence
    obj_rel: float = 1e-10
    # iterations over which the objective decrease must stay below obj_rel
    patience: int = 20
    # iteration budget for projected-gradient solves
    max_iters: int = 50_000
    # margin (relative to plate total) classifying a node as strictly free
    free_margin_rel: float = 1e-8
    # per-node mass floor (relative to uniform share) for support presence
    supp_floor_rel: float = 1e-6
    # probes closer than this multiple of a node's cell radius are excluded
    # from off-node potential checks (reported, never silent)
    probe_exclusion_factor: float = 2.0

    def with_(self, **kw) -> "Tolerances":
        return replace(self, **kw)


DEFAULT_TOLERANCES = Tolerances()
