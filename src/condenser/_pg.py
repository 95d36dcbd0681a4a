"""The QP engine of the package: block principal pivoting for

    min q(w) = w' A w + 2 b' w  over  {0 <= w <= cap, sum w = total}

per plate.  The minimizer is fixed by its pattern (which nodes sit at zero,
which are free, which at their cap): on the free nodes of plate j the
weighted potential equals a constant c_j, one linear KKT system
(_solve_pattern).  Each round solves it, factoring its free block once,
and moves the nodes that break it (Hungerlaender & Rendl 2015, Kunisch &
Rendl 2003): free nodes outside [0, cap] to the bound they cross, and only
when there are none, held nodes whose potential breaks their plate's
constant are freed.  Kim & Park's backup rule (BackupRule) guards against
cycling.  The solve starts with every node of cap > 0 free and ends when no
node moves.  A plate with no free node keeps its weights and leaves the
system; no move may leave one so with weights off its total.  The free
copies of node positions that several plates share stay a forest (_Forest).
The engine reads A only through products and free-block gathers, so it
holds A as one packed triangle (PackedMatrix), and the float32 Cholesky
factor of each round's free block as one triangle too, in LAPACK's
rectangular full packed form (Gustavson, Wasniewski, Dongarra & Langou
2010): n(n+1)/2 entries, factored and solved by level-3 BLAS.

``balayage.GreenContext._cone_project`` keeps its own pivoting: it solves
many right-hand sides at once, with no plate sums and no caps, so one engine
for both would branch on its caller.  It holds no exterior matrix K_EE:
it reads each free set's square from the kernel, and the held rows of its
columns by row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.blas import dspmv
from scipy.linalg.lapack import dsytrf, dsytrf_lwork, dsytrs, spftrf, spftrs

from .errors import InfeasibleError, NonConvexError
from .tolerances import Tolerances

# margin (relative to the plate total) classifying a node as strictly free
FREE_MARGIN_REL = 1e-8
# KKT residual the pivotings here (or tol.kkt, if less) and in balayage reach
FINISH_KKT = 1e-10
# refinement steps of a pattern solve at most; each costs one matvec
REFINE_STEPS = 10
# refinement stops once a correction is this small relative to the weights
REFINE_REL = 1e-13
# full exchanges a pivoting takes without lowering its violator count
# before it moves one violator at a time
BACKUP = 3


def _row_start(i):
    """Offset of row i in a packed lower triangle."""
    return i * (i + 1) // 2


class PackedMatrix:
    """Symmetric n x n matrix held as its lower triangle, row by row: row i
    holds A[i, :i+1] from offset i(i+1)/2 on, n(n+1)/2 float64 entries in
    all (BLAS's column-major upper packed form, so ``@`` is one dspmv)."""

    def __init__(self, n: int):
        self.shape = (n, n)
        self.ap = np.empty(_row_start(n))

    def put_rows(self, a: int, block: np.ndarray) -> None:
        """Rows a to a + len(block) of the lower triangle, from ``block``:
        those rows of A, from column 0 to at least their last diagonal
        entry; entries right of the diagonal are not read."""
        b = a + len(block)
        lower = np.tri(b - a, block.shape[1], a, dtype=bool)
        self.ap[_row_start(a):_row_start(b)] = block[lower]

    def row(self, i: int) -> np.ndarray:
        """A[i, :i+1], a view of the packed entries."""
        return self.ap[_row_start(i):_row_start(i + 1)]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return dspmv(self.shape[0], 1.0, self.ap, x)

    def rows_of(self, F: np.ndarray):
        """(r, A[F[r], F[:r+1]]) for each r, F increasing: the packed row
        as it lies when F is every index, else its entries at F."""
        whole = len(F) == self.shape[0]
        for r, i in enumerate(F.tolist()):
            row = self.row(i)
            yield r, row if whole else row.take(F[:r + 1])

    def gather_lower(self, F: np.ndarray, out: np.ndarray) -> None:
        """Write the lower triangle of A[F][:, F], F increasing, into the
        lower triangle of ``out`` (cast to its dtype); the rest of ``out``
        is left as it is."""
        for r, row in self.rows_of(F):
            out[r, :r + 1] = row

    def gather_rfp(self, F: np.ndarray) -> np.ndarray:
        """A[F][:, F], F increasing, as one float32 array of n(n+1)/2
        entries in LAPACK's rectangular full packed form (TRANSR 'N',
        UPLO 'U').  Seen as a C-ordered (n - h) x (n + 1 - n % 2) array T,
        h = n // 2, packed row r >= h goes to T[r - h, :r+1] and packed row
        r < h to T[:r+1, h + 1 + r]."""
        n, h = len(F), len(F) // 2
        arf = np.empty(_row_start(n), dtype=np.float32)
        T = arf.reshape(n - h, -1)
        for r, row in self.rows_of(F):
            if r >= h:
                T[r - h, :r + 1] = row
            else:
                T[:r + 1, h + 1 + r] = row
        return arf


@dataclass
class QPResult:
    w: np.ndarray
    objective: float
    converged: bool
    iterations: int                # pattern solves
    kkt_residual: float
    constants: np.ndarray          # per-plate multiplier estimates c_j
    trace: np.ndarray              # columns: iter, objective, kkt_residual
    matvecs: int


class BackupRule:
    """Kim & Park's backup rule for block principal pivoting (Judice &
    Pires 1994; Kim & Park 2011), kept for k pivotings at once."""

    def __init__(self, k: int):
        self.least = np.full(k, np.inf)      # least violator count yet
        self.left = np.full(k, BACKUP)       # full exchanges left

    def __call__(self, move: np.ndarray, cols=slice(None)) -> np.ndarray:
        """The exchanges of one round: column i of ``move`` marks the
        violators of pivoting cols[i].  A pivoting whose violator count
        falls below its least yet exchanges them all and gets BACKUP full
        exchanges back; one whose count does not fall spends one of them,
        and with none left exchanges only its violator of largest index."""
        count = move.sum(axis=0)
        fell = count < self.least[cols]
        spend = ~fell & (self.left[cols] > 0)
        self.least[cols] = np.where(fell, count, self.least[cols])
        self.left[cols] = np.where(fell, BACKUP, self.left[cols] - spend)
        out = move.copy()
        for i in np.flatnonzero(~fell & ~spend & (count > 0)):
            out[:, i] = False
            out[np.flatnonzero(move[:, i])[-1], i] = True
        return out


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


class _Forest:
    """Copies of the node positions that several plates share.  Copies of
    one position have equal rows of A; the pattern's KKT system stays
    nonsingular while the free copies, each an edge between its position
    and its plate, form a forest (mass moved around a cycle of them would
    change no position's and no plate's total)."""

    def __init__(self, positions: np.ndarray, plate: np.ndarray):
        self.pos, self.plate = positions, plate
        self.copies = np.flatnonzero(np.bincount(positions)[positions] > 1)

    def path(self, free, i):
        """Free copies on the forest path from the position of copy i to
        its plate, from the position on, or None if none joins them.
        Positions are the vertices p >= 0, plates the vertices ~j < 0."""
        adj = {}
        for e in self.copies[free[self.copies]].tolist():
            p, j = int(self.pos[e]), ~int(self.plate[e])
            adj.setdefault(p, []).append((e, j))
            adj.setdefault(j, []).append((e, p))
        via = {int(self.pos[i]): []}
        queue = list(via)
        for v in queue:                    # breadth first
            for e, u in adj.get(v, ()):
                if u not in via:
                    via[u] = via[v] + [e]
                    queue.append(u)
        return via.get(~int(self.plate[i]))

    def release(self, free, fixed, w, caps, i, direction, solved):
        """Free held copy i, whose weight should move by ``direction``.  If
        that closes a cycle of copies free in the solve (``solved``), mass
        moves around it (alternating signs keep every total) until a copy
        reaches a bound and is held there; i is freed unless it is that
        copy.  A cycle through a copy freed since instead holds the copy
        beside i at its weight."""
        path = self.path(free, i)
        if path is None:
            free[i] = True
            return
        if not solved[path].all():
            free[path[0]], free[i] = False, True
            return
        cycle = np.array([i] + path)
        dirs = direction * (-1.0) ** np.arange(cycle.size)
        room = np.where(dirs > 0, caps[cycle] - w[cycle], w[cycle])
        k = int(np.argmin(room))
        fixed[cycle[k]] = caps[cycle[k]] if dirs[k] > 0 else 0.0
        free[cycle[k]] = False
        free[i] = k > 0


def _start_pattern(caps, slices, totals, forest):
    """Free set and fixed weights of the start: every node of cap > 0 free.
    Copies of shared positions are freed in index order while they close no
    cycle; the others are held where each plate's total is spread in
    proportion to its caps (evenly when uncapped)."""
    free, fixed = caps > 0.0, np.zeros(len(caps))
    if forest is None:
        return free, fixed
    share = np.where(np.isfinite(caps), caps, 1.0)
    for sl, total in zip(slices, totals):
        fixed[sl] = np.minimum(share[sl] * (total / share[sl].sum()), caps[sl])
    free[forest.copies] = False
    for i in forest.copies:
        free[i] = caps[i] > 0.0 and forest.path(free, i) is None
    return free, np.where(free, 0.0, fixed)


def _free_block_factor(A, F):
    """float32 Cholesky factor of A[F][:, F] in rectangular full packed
    form (LAPACK spftrf on A.gather_rfp, in place), or None if that block
    is not positive definite in float32.  It holds n(n+1)/2 entries, and
    no float64 copy of the block is made."""
    arf = A.gather_rfp(F)
    factor, info = spftrf(len(F), arf, overwrite_a=1)
    return factor if info == 0 else None


def _bordered_solver(A, F, fp, q):
    """Corrections from one float64 LDL' factor (dsytrf) of the bordered
    matrix [A_FF E; E' 0], taken in place: its lower triangle fills a
    C-ordered square, whose Fortran-ordered transpose LAPACK reads as an
    upper triangle.  Its inertia is |F| positive and q negative eigenvalues
    exactly when A is positive definite on the face's directions; otherwise
    the QP is not convex on that face and NonConvexError is raised."""
    n = len(F)
    K = np.zeros((n + q, n + q))
    A.gather_lower(F, K)
    K[n + fp, np.arange(n)] = 1.0
    ldu, ipiv, _ = dsytrf(K.T, lwork=int(dsytrf_lwork(n + q)[0]),
                          overwrite_a=True)
    # D's 2 x 2 blocks (entry above the diagonal) start where ipiv < 0,
    # read from the top: two blocks in a row may share their ipiv
    off, k = np.zeros(n + q - 1), 0
    while k < n + q - 1:
        off[k] = ldu[k, k + 1] if ipiv[k] < 0 else 0.0
        k += 1 + int(ipiv[k] < 0)
    eig = eigvalsh_tridiagonal(ldu.diagonal(), off)
    inertia = (np.count_nonzero(eig > 0), np.count_nonzero(eig < 0))
    if inertia != (n, q):
        raise NonConvexError(f"the QP is not convex on a face of {n} free "
                             f"nodes: bordered KKT inertia {inertia}")

    def solve(r, m):
        x = dsytrs(ldu, ipiv, np.concatenate([r, m]))[0]
        return x[:n], -x[n:]
    return solve


def _free_block_solver(A, F, fp, q, copies):
    """Solver (r, m) -> (dw, dc) of [A_FF E; E' 0] (dw; -dc) = (r; m), E the
    incidence of the free nodes F on the q plates that have one (``fp``):
    the float32 RFP Cholesky factor of A_FF (spftrs solves) and the q x q
    Schur complement of the multipliers or, when F holds two copies of a
    position (``copies``) or A_FF has no float32 factor, _bordered_solver."""
    n = len(F)
    factor = None if copies else _free_block_factor(A, F)
    if factor is None:
        return _bordered_solver(A, F, fp, q)
    E = np.zeros((n, q), dtype=np.float32, order="F")
    E[np.arange(n), fp] = 1.0
    Y = spftrs(n, factor, E, overwrite_b=1)[0]
    S = np.zeros((q, q))
    np.add.at(S, fp, Y.astype(float))            # E' A_FF^-1 E

    def solve(r, m):
        scale = max(float(np.abs(r).max()), 1e-300)
        u = spftrs(n, factor, (r / scale).astype(np.float32),
                   overwrite_b=1)[0] * scale
        dc = np.linalg.solve(S, m - np.bincount(fp, u, q))
        return u + Y @ dc, dc
    return solve


def _solve_pattern(A, b, slices, totals, plate, free, fixed, caps, positions):
    """Minimizer of w'Aw + 2b'w with the pattern (free, fixed) held: the
    nodes outside ``free`` keep their ``fixed`` weights, and the free nodes
    of plate j carry its remaining mass at a constant potential c_j.

    Iterative refinement: each correction from one _free_block_solver, each
    residual from one float64 matvec with A (none first when ``fixed`` is
    zero).  A plate with no free node takes its constant from
    block_constants_and_kkt.  Returns (w, A w, c, matvecs, moves), ``moves``
    the _bound_moves of w; a first correction with a bound move ends the
    solve, A w and c None.  ``positions`` (or None) is the position index
    of every node."""
    p = len(slices)
    F = np.flatnonzero(free)
    live = np.flatnonzero(np.bincount(plate[F], minlength=p))
    q = len(live)
    fp = np.searchsorted(live, plate[F])
    mass = (np.asarray(totals) - np.array(
        [fixed[sl].sum() for sl in slices]))[live]   # left to the free nodes

    w, c = fixed.copy(), np.zeros(q)
    matvecs = int(fixed.any())
    z = A @ w if matvecs else np.zeros(len(w))
    if F.size:
        copies = positions is not None and \
            np.unique(positions[F]).size < F.size
        solve = _free_block_solver(A, F, fp, q, copies)
        last = np.inf
        for step in range(REFINE_STEPS):
            r = c[fp] - z[F] - b[F]
            dw, dc = solve(r, mass - np.bincount(fp, w[F], q))
            w[F] += dw
            c += dc
            if step == 0:
                move = _bound_moves(w, caps, free, slices, totals)
                if move.any():
                    return w, None, None, matvecs, move
            z = A @ w
            matvecs += 1
            size = float(np.abs(dw).max())
            if size <= REFINE_REL * float(np.abs(w[F]).max()) or \
                    size > 0.5 * last:
                break
            last = size
    consts = block_constants_and_kkt(z + b, w, caps, slices, totals)[0]
    consts[live] = c
    return w, z, consts, matvecs, _bound_moves(w, caps, free, slices, totals)


def _bound_moves(w, caps, free, slices, totals):
    """Free nodes outside [0, caps], to go to the bound they cross.  No move
    may leave a plate without a free node and off its total: a plate whose
    free nodes all cross then moves only its one of largest index (if it has
    more than one)."""
    out = free & ((w < 0.0) | (w > caps))
    for sl, total in zip(slices, totals):
        if out[sl].any() and not (free[sl] & ~out[sl]).any() and abs(
                np.clip(w[sl], 0.0, caps[sl]).sum() - total) > \
                FREE_MARGIN_REL * total:
            last, keep = np.flatnonzero(out[sl])[-1], out[sl].sum() > 1
            out[sl] = False
            out[sl.start + last] = keep
    return out


def _gap_moves(w, z, c, b, caps, free, plate, bound):
    """Held nodes to free, and the normalized potential gaps: potential
    z + b below c_j by more than ``bound`` max(1, |c_j|) below the cap, or
    above it above zero (frozen nodes, cap 0, never).  Only a round with no
    bound move takes them: moving both kinds at once oscillates."""
    cn = c[plate]
    gap = (z + b - cn) / np.maximum(1.0, np.abs(cn))
    return ~free & (((w > 0.0) & (gap > bound)) |
                    ((w < caps) & (gap < -bound))), gap


def _relief(w, caps, free, gap, slices):
    """Exchange for a round with no move left but a plate whose lone free
    node lies outside its bounds: the node goes to its bound, and the plate
    frees its held node of least gap below its cap if the node was above
    its cap (to take mass), else of greatest gap above zero (to give it).
    Returns the nodes sent to a bound, those freed and their directions."""
    out, move = np.zeros((2, len(w)), dtype=bool)
    direction = np.zeros(len(w))
    for sl in slices:
        lone = free[sl] & ((w[sl] < 0.0) | (w[sl] > caps[sl]))
        up = bool((w[sl] > caps[sl]).any())
        room = ~free[sl] & ((w[sl] < caps[sl]) if up else (w[sl] > 0.0))
        if lone.any() and room.any():
            out[sl] = lone
            pick = np.where(room, gap[sl] if up else -gap[sl], np.inf)
            move[sl.start + int(np.argmin(pick))] = True
            direction[sl] = 1.0 if up else -1.0
    return out, move, direction


def _next_pattern(w, caps, free, move, direction, forest):
    """Pattern (free, fixed) after the exchange ``move``: free nodes go to
    their bound (``direction`` None), held ones are freed to move in
    ``direction``, through the forest if they are shared copies."""
    fixed = np.clip(w, 0.0, caps)
    if direction is None:
        free = free & ~move
    elif forest is None:
        free = free | move
    else:
        solved = free.copy()
        free = free | (move & ~np.isin(np.arange(len(w)), forest.copies))
        for i in forest.copies[move[forest.copies]]:
            forest.release(free, fixed, w, caps, i, direction[i], solved)
    return free, np.where(free, 0.0, fixed)


def minimize_quadratic(A, b, slices, totals, caps, tol: Tolerances,
                       positions=None):
    """Block principal pivoting for w'Aw + 2b'w over per-plate capped
    simplexes, converged when no node moves within ``tol.max_iters``
    pattern solves and the KKT residual is within ``tol.kkt``.
    ``positions`` is the position index of every unknown (None: all
    distinct).  A is a PackedMatrix.  Trace rows: round, objective and KKT
    residual of each pattern solve refined past its first correction."""
    N = A.shape[0]
    b = np.zeros(N) if b is None else np.asarray(b, dtype=float)
    caps = np.asarray(caps, dtype=float)
    totals = [float(t) for t in totals]
    for sl, total in zip(slices, totals):
        if caps[sl].sum() < total:
            raise InfeasibleError(f"cap total {caps[sl].sum():.6g} is below "
                                  f"the prescribed mass {total:.6g}")
    plate = np.repeat(np.arange(len(slices)),
                      [sl.stop - sl.start for sl in slices])
    forest = None
    if positions is not None and np.bincount(positions).max() > 1:
        forest = _Forest(np.asarray(positions), plate)
    positions = None if forest is None else forest.pos
    free, fixed = _start_pattern(caps, slices, totals, forest)
    bound = min(tol.kkt, FINISH_KKT)
    rules = (BackupRule(1), BackupRule(1))   # bound moves, gap moves
    trace, matvecs, rounds = [], 0, 0
    pattern = (A, b, slices, totals, plate)
    while rounds < tol.max_iters:
        rounds += 1
        w, z, c, used, move = _solve_pattern(*pattern, free, fixed, caps,
                                             positions)
        matvecs += used
        if z is not None:
            q = float(w @ z + 2.0 * (b @ w))
            consts, kkt = block_constants_and_kkt(z + b, w, caps, slices,
                                                  totals)
            trace.append((rounds, q, kkt))
        if move.any():
            move = rules[0](move[:, None])[:, 0]
            free, fixed = _next_pattern(w, caps, free, move, None, forest)
            continue
        move, gap = _gap_moves(w, z, c, b, caps, free, plate, bound)
        if move.any():
            # a plate with no free node moves its violators together: one
            # freed alone would keep its weight, fixed by the plate's mass
            pick = rules[1](move[:, None])[:, 0]
            alone = np.bincount(plate[free], minlength=len(slices)) == 0
            move = pick | (move & alone[plate] & np.isin(plate, plate[pick]))
            direction = -np.sign(gap)
        else:
            out, move, direction = _relief(w, caps, free, gap, slices)
            if not move.any():
                break
            free, fixed = _next_pattern(w, caps, free, out, None, forest)
        free, fixed = _next_pattern(w, caps, free, move, direction, forest)
    settled = not move.any()
    if np.any((w < 0.0) | (w > caps)):
        # the rounds ended on weights outside their bounds
        settled = False
        w = np.clip(w, 0.0, caps)
        z = A @ w
        matvecs += 1
        q = float(w @ z + 2.0 * (b @ w))
        consts, kkt = block_constants_and_kkt(z + b, w, caps, slices, totals)
    return QPResult(w=w, objective=q, converged=settled and kkt <= tol.kkt,
                    iterations=rounds, kkt_residual=kkt, constants=consts,
                    trace=np.array(trace).reshape(-1, 3), matvecs=matvecs)
