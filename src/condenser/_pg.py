"""QP engine for the convex quadratics used across the package: a pivoting
exact finish, with projected gradient (PG) as its fallback.

Minimizes  q(w) = w' A w + 2 b' w  over a product of capped simplexes
{0 <= w <= cap, sum w = total} (one block per plate).

PG takes Barzilai-Borwein spectral steps in short bursts and accepts
the best point of each burst if it lowers the objective (or meets the KKT
bound without raising it); a burst that finds no such point backtracks to an
exact-line-search descent step (which cannot fail off the optimum).
Accepted iterates therefore form a non-increasing objective trace while
keeping the spectral behavior BB needs -- per-step monotone acceptance
measurably stalls on these kernel matrices.

The minimizer is fixed by its pattern: which nodes sit at zero, which are
strictly free, which sit at their cap.  The pattern's minimizer solves one
linear KKT system: on the free nodes of plate j the weighted potential
equals a constant c_j.  The exact finish solves that system with a float32
Cholesky factor of the free block, refined to float64 accuracy by residuals
taken with the true matrix (mixed-precision iterative refinement), and
pivots to the next pattern until no node moves (_next_pattern; Hungerlaender
& Rendl 2015, Kunisch & Rendl 2003).  It runs at the start point and after
every outer iteration whose pattern differs from the last one tried.  PG
carries on when a pattern repeats or PIVOT_ROUNDS moves do not settle it,
and when a plate has no free node or the free block no float32 factor
(plates that share nodes, indefinite blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import InfeasibleError
from .model import row_blocks
from .tolerances import Tolerances

# projected BB steps taken from each accepted iterate before the acceptance test
BURST = 48
# relative objective decrease below which a KKT-feasible iterate has converged
OBJ_REL = 1e-10
# accepted iterations over which the objective decrease must stay below OBJ_REL
PATIENCE = 20
# margin (relative to the plate total) classifying a node as strictly free
FREE_MARGIN_REL = 1e-8
# KKT residual the exact finish must reach (or tol.kkt, if that is smaller)
FINISH_KKT = 1e-10
# refinement steps of the exact finish at most; each costs one matvec
REFINE_STEPS = 10
# refinement stops once a correction is this small relative to the weights
REFINE_REL = 1e-13
# pattern moves one exact finish takes at most before PG carries on
PIVOT_ROUNDS = 30


def project_capped_simplex(w, caps, total):
    """Euclidean projection of w onto {0 <= v <= caps, sum v = total}.

    Water-filling: v_i = clip(w_i - tau, 0, caps_i) with tau located exactly
    by bisection over the sorted breakpoints of the piecewise-linear,
    nonincreasing mass function sum_i v_i(tau).
    """
    w = np.asarray(w, dtype=float)
    caps = np.broadcast_to(np.asarray(caps, dtype=float), w.shape)
    if np.any(caps < 0):
        raise ValueError("caps must be >= 0")
    total = float(total)
    if total < 0:
        raise ValueError("total must be >= 0")
    cap_sum = float(caps.sum())  # inf-safe
    if cap_sum < total:
        raise InfeasibleError(
            f"cap total {cap_sum:.6g} is below the prescribed mass {total:.6g}")
    if total == 0.0:
        return np.zeros_like(w)

    finite = np.isfinite(caps)
    lower = w[finite] - caps[finite]
    bps = np.unique(np.concatenate([w, lower]))

    def mass(tau):
        return float(np.minimum(np.maximum(w - tau, 0.0), caps).sum())

    def solve_segment(tm):
        # regimes are constant on the open interval containing tm
        act = w - tm > 0
        sat = finite & (w - tm >= caps)
        free = act & ~sat
        nf = int(free.sum())
        if nf == 0:
            return None
        return (w[free].sum() + caps[sat].sum() - total) / nf, free

    if mass(bps[0]) < total:
        # tau* below every breakpoint: all finite-cap nodes saturated
        got = solve_segment(bps[0] - max(1.0, abs(bps[0])))
        if got is None:
            # no free nodes below every breakpoint: caps are all finite and
            # saturated, which realizes the total exactly (Sigma caps = total)
            return caps.astype(float).copy()
        tau = got[0]
    else:
        lo_i, hi_i = 0, len(bps) - 1
        while hi_i - lo_i > 1:
            mid = (lo_i + hi_i) // 2
            if mass(bps[mid]) >= total:
                lo_i = mid
            else:
                hi_i = mid
        got = solve_segment(0.5 * (bps[lo_i] + bps[hi_i]))
        if got is None:
            # mass is constant on the segment; either endpoint attains it
            tau = bps[lo_i] if abs(mass(bps[lo_i]) - total) <= \
                abs(mass(bps[hi_i]) - total) else bps[hi_i]
        else:
            tau = got[0]
    v = np.minimum(np.maximum(w - tau, 0.0), caps)
    # exact mass repair over the strictly free nodes kills roundoff drift
    freev = (v > 0) & (v < caps)
    nf = int(freev.sum())
    if nf:
        v[freev] += (total - v.sum()) / nf
        np.clip(v, 0.0, caps, out=v)
    return v


@dataclass
class PGResult:
    w: np.ndarray
    objective: float
    converged: bool
    iterations: int
    kkt_residual: float
    constants: np.ndarray          # per-plate multiplier estimates c_j
    trace: np.ndarray              # columns: iter, objective, step, kkt_residual
    matvecs: int = 0               # finish attempts included
    exact_finish: bool = False     # the exact finish ended the solve
    pivot_rounds: int = 0          # finish rounds after a pattern move


def node_classes(w, caps, total):
    """(carried, below) masks of one plate's nodes: weight above
    FREE_MARGIN_REL of the plate total, and weight below the cap by more
    than that.  A node in both is strictly free."""
    margin = FREE_MARGIN_REL * total
    return w > margin, w < caps - margin


def plate_constant_and_kkt(W, w, caps, total):
    """Multiplier estimate c of one plate and its normalized KKT violations.

    W is the weighted potential at the plate's nodes (half the gradient of q).
    c: median of W over strictly free nodes; with no free nodes, the
    midpoint between max W over carried and min W over below-cap nodes.
    Returns (c, lower, upper): max(c - W) over below-cap nodes and
    max(W - c) over carried nodes, each floored at 0 and divided by
    max(1, |c|).
    """
    carried, below = node_classes(w, caps, total)
    free = carried & below
    if np.any(free):
        c = float(np.median(W[free]))
    else:
        hi = float(W[carried].max()) if np.any(carried) else 0.0
        lo = float(W[below].min()) if np.any(below) else hi
        c = 0.5 * (hi + lo)
    scale = max(1.0, abs(c))
    lower = max(0.0, float((c - W[below]).max())) / scale \
        if np.any(below) else 0.0
    upper = max(0.0, float((W[carried] - c).max())) / scale \
        if np.any(carried) else 0.0
    return c, lower, upper


def block_constants_and_kkt(W, w, caps, slices, totals):
    """Per-plate multiplier estimates c_j and the largest normalized KKT
    violation over all plates (see plate_constant_and_kkt)."""
    consts = np.zeros(len(slices))
    viol = 0.0
    for j, sl in enumerate(slices):
        consts[j], lower, upper = plate_constant_and_kkt(
            W[sl], w[sl], caps[sl], totals[j])
        viol = max(viol, lower, upper)
    return consts, viol


def _pattern(w, caps, slices, totals):
    """Strictly free nodes of w (see node_classes) and the weights of the
    others: their cap if they carry weight, else 0."""
    free = np.zeros(len(w), dtype=bool)
    fixed = np.zeros(len(w))
    for sl, total in zip(slices, totals):
        carried, below = node_classes(w[sl], caps[sl], total)
        free[sl] = carried & below
        fixed[sl] = np.where(carried & ~below, caps[sl], 0.0)
    return free, fixed


def _free_block_factor(A, F):
    """float32 Cholesky factor of A[F][:, F], or None if that block is not
    positive definite in float32.  Small row blocks of the block fill the
    C-ordered transpose of a Fortran-ordered array, which LAPACK factors in
    place, so no float64 copy of the block is made.  Only one triangle is
    read: for a slightly asymmetric A the refinement's residuals, taken with
    A itself, make up the difference."""
    M = np.empty((len(F), len(F)), dtype=np.float32, order="F")
    whole = len(F) == A.shape[0]
    for rows in row_blocks(F, F):
        M.T[rows] = A[rows] if whole else A[F[rows]].take(F, axis=1)
    try:
        return cho_factor(M, lower=True, overwrite_a=True, check_finite=False)
    except LinAlgError:
        return None


def _exact_finish(A, b, slices, totals, free, fixed, caps):
    """Minimizer of w'Aw + 2b'w with the pattern (free, fixed) held: the
    nodes outside ``free`` keep their ``fixed`` weights, and the free nodes
    of plate j carry its remaining mass at a constant potential c_j.

    Solves the bordered system [A_FF E; E' 0] by iterative refinement: each
    correction comes from the float32 factor of A_FF (its Schur complement
    on the plates' multipliers is p x p), each residual from one float64
    matvec with A, except the first when ``fixed`` is zero.  Returns (w,
    A w, c, matvecs), with w None when some plate has no free node or the
    factor does not exist.  When the first correction, the plain float32
    solve, puts a free node outside [0, caps], refinement stops there and
    A w is None: that solve already shows the bounds the pattern breaks.
    """
    p = len(slices)
    sizes = [sl.stop - sl.start for sl in slices]
    F = np.flatnonzero(free)
    plate = np.repeat(np.arange(p), sizes)[F]
    if np.any(np.bincount(plate, minlength=p) == 0):
        return None, None, None, 0
    factor = _free_block_factor(A, F)
    if factor is None:
        return None, None, None, 0
    E = np.zeros((len(F), p), dtype=np.float32)
    E[np.arange(len(F)), plate] = 1.0
    Y = cho_solve(factor, E, overwrite_b=True, check_finite=False)
    S = np.zeros((p, p))
    np.add.at(S, plate, Y.astype(float))         # E' A_FF^-1 E
    mass = np.asarray(totals) - np.array(
        [fixed[sl].sum() for sl in slices])       # mass left to the free nodes

    w = fixed.copy()
    c = np.zeros(p)
    matvecs = int(fixed.any())
    z = A @ w if matvecs else np.zeros(len(w))
    last = np.inf
    for step in range(REFINE_STEPS):
        r = c[plate] - z[F] - b[F]
        scale = max(float(np.abs(r).max()), 1e-300)
        u = cho_solve(factor, (r / scale).astype(np.float32),
                      overwrite_b=True, check_finite=False) * scale
        dc = np.linalg.solve(
            S, mass - np.bincount(plate, w[F], p) - np.bincount(plate, u, p))
        dw = u + Y @ dc
        w[F] += dw
        c += dc
        if step == 0 and np.any((w < 0.0) | (w > caps)):
            return w, None, c, matvecs
        z = A @ w
        matvecs += 1
        size = float(np.abs(dw).max())
        if size <= REFINE_REL * float(np.abs(w[F]).max()) or size > 0.5 * last:
            break
        last = size
    return w, z, c, matvecs


def _next_pattern(w, z, c, b, caps, free, slices, bound):
    """Pattern (free, fixed) the pivoting finish solves after the solution
    (w, z = A w, c) of a pattern with free set ``free``, or None when no
    node moves.  Free nodes below 0 go to zero and those above their cap
    to the cap.  Only when there are none are zero and at-cap nodes freed
    whose potential z + b lies below, resp. above, c_j by more than
    ``bound`` max(1, |c_j|), the KKT residual the finish must reach; frozen
    nodes (cap 0) never are.  Moving both kinds at once oscillates."""
    out = free & ((w < 0.0) | (w > caps))
    if out.any():
        free = free & ~out
    else:
        cn = np.repeat(c, [sl.stop - sl.start for sl in slices])
        gap = (z + b - cn) / np.maximum(1.0, np.abs(cn))
        held = ~free & (caps > 0.0)
        move = held & np.where(w > 0.0, gap > bound, gap < -bound)
        if not move.any():
            return None
        free = free | move
    return free, np.where(free, 0.0, np.clip(w, 0.0, caps))


def minimize_quadratic(A, b, slices, totals, caps, tol: Tolerances):
    """Projected-gradient/BB minimization of w'Aw + 2b'w over per-plate capped
    simplexes, stopped by the ``kkt`` and ``max_iters`` entries of ``tol``
    and by ``OBJ_REL`` over ``PATIENCE`` iterations, or ended by the exact
    finish.  The start point is fixed by the caps and totals, so the result
    depends on the inputs only.  Trace rows are accepted iterates; their
    objective column is non-increasing.  An accepted finish adds one last
    row, with step 0."""
    N = A.shape[0]
    b = np.zeros(N) if b is None else np.asarray(b, dtype=float)
    caps = np.asarray(caps, dtype=float)
    totals = [float(t) for t in totals]

    def project(v):
        out = np.empty_like(v)
        for j, sl in enumerate(slices):
            out[sl] = project_capped_simplex(v[sl], caps[sl], totals[j])
        return out

    w0 = np.empty(N)
    for j, sl in enumerate(slices):
        cj = caps[sl]
        if np.all(np.isinf(cj)):
            w0[sl] = totals[j] / (sl.stop - sl.start)
        else:
            finite = np.where(np.isfinite(cj), cj, 0.0)
            top = finite.max() if finite.max() > 0 else 1.0
            base = np.where(np.isfinite(cj), cj, top)
            w0[sl] = base * (totals[j] / base.sum())
    w = project(w0)

    matvecs = 0

    def q_of(v):
        nonlocal matvecs
        matvecs += 1
        z = A @ v
        return float(v @ z + 2.0 * (b @ v)), z

    q, z = q_of(w)
    g = 2.0 * (z + b)
    diag_max = float(np.abs(np.diag(A)).max()) if N else 1.0
    alpha = 1.0 / (2.0 * diag_max + 1e-300)
    a_lo, a_hi = 1e-14 / diag_max, 1e14 / diag_max

    consts, kkt = block_constants_and_kkt(g / 2.0, w, caps, slices, totals)
    trace = [(0, q, 0.0, kkt)]
    finish_kkt = min(tol.kkt, FINISH_KKT)
    tried = None
    pivot_rounds = 0

    def finish():
        """Try the pivoting exact finish from the pattern of w, unless w
        meets the finish's KKT bound already or its pattern was the last
        one tried; on success w is the finish's result and a trace row is
        added."""
        nonlocal w, z, q, g, consts, kkt, tried, matvecs, pivot_rounds
        pattern = _pattern(w, caps, slices, totals)
        if kkt <= finish_kkt or (tried is not None and all(
                np.array_equal(a, t) for a, t in zip(pattern, tried))):
            return False
        tried = pattern
        seen = set()
        while pattern is not None:
            key = pattern[0].tobytes() + pattern[1].tobytes()
            if key in seen or len(seen) > PIVOT_ROUNDS:
                return False
            if seen:
                pivot_rounds += 1
            seen.add(key)
            wf, zf, cf, used = _exact_finish(A, b, slices, totals,
                                             *pattern, caps)
            matvecs += used
            if wf is None:
                return False
            pattern = _next_pattern(wf, zf, cf, b, caps, pattern[0], slices,
                                    finish_kkt)
        qf = float(wf @ zf + 2.0 * (b @ wf))
        cf, kf = block_constants_and_kkt(zf + b, wf, caps, slices, totals)
        if not (kf <= finish_kkt and qf <= q):   # false on nan, too
            return False
        w, z, q, g, consts, kkt = wf, zf, qf, 2.0 * (zf + b), cf, kf
        trace.append((outer + 1, q, 0.0, kkt))
        return True

    outer = 0
    finished = finish()
    converged = finished or kkt < tol.kkt
    use_bb1 = True
    while not converged and outer < tol.max_iters:
        outer += 1
        # --- free BB burst from the current accepted iterate ---------------
        bw, bz, bq = w, z, q
        cw, cz, cq, cg = w, z, q, g
        step_used = alpha
        for _ in range(BURST):
            wt = project(cw - alpha * cg)
            qt, zt = q_of(wt)
            s = wt - cw
            y = 2.0 * (zt - cz)
            cw, cz, cq = wt, zt, qt
            cg = 2.0 * (cz + b)
            if cq < bq:
                bw, bz, bq = cw, cz, cq
            _, ikkt = block_constants_and_kkt(cg / 2.0, cw, caps, slices,
                                              totals)
            ss = float(s @ s)
            sy = float(s @ y)
            yy = float(y @ y)
            if sy > 0.0:
                anew = ss / sy if use_bb1 else sy / yy
                use_bb1 = not use_bb1
                alpha = min(max(anew, a_lo), a_hi)
            if ikkt < tol.kkt and cq <= q:
                bw, bz, bq = cw, cz, cq
                break
            if cq > q + 10.0 * (abs(q) + 1.0):
                break  # runaway burst; fall back below
        if bw is not w:
            w, z, q = bw, bz, bq
            g = 2.0 * (z + b)
        else:
            # backtracking fallback: exact line search along the projected
            # direction at a cautious step; guaranteed descent off the optimum,
            # taken only if roundoff leaves the objective no higher
            acons = 1.0 / (2.0 * diag_max)
            d = project(w - acons * g) - w
            matvecs += 1
            Ad = A @ d
            gd = float(g @ d)
            dAd = float(d @ Ad)
            lam = 1.0 if dAd <= 0 else min(1.0, max(0.0, -gd / (2.0 * dAd)))
            wl, zl = w + lam * d, z + lam * Ad
            ql = float(wl @ zl + 2.0 * (b @ wl))
            if gd < 0.0 and lam > 0.0 and ql <= q:
                w, z, q = wl, zl, ql
                g = 2.0 * (z + b)
                step_used = lam * acons
            alpha = acons
        consts, kkt = block_constants_and_kkt(g / 2.0, w, caps, slices, totals)
        trace.append((outer, q, step_used, kkt))
        finished = finish()
        if finished:
            converged = True
        elif kkt < tol.kkt:
            window = min(PATIENCE, len(trace) - 1)
            if window == 0 or \
                    trace[-1 - window][1] - q <= OBJ_REL * max(1.0, abs(q)):
                converged = True

    return PGResult(w=w, objective=q, converged=converged,
                    iterations=outer + finished, kkt_residual=kkt,
                    constants=consts, trace=np.array(trace), matvecs=matvecs,
                    exact_finish=finished, pivot_rounds=pivot_rounds)
