"""Damped Newton-Raphson solver over an assembled MNA system.

:func:`newton_solve` is the primitive: one damped Newton iteration to
convergence or :class:`ConvergenceError`.  When plain Newton fails the
rescue ladder takes over:

* :func:`gmin_step_solve` — Gmin stepping: re-solve under a decreasing
  extra node-to-ground conductance, warm-starting each rung from the
  previous one.  The final rung is the exact system, so a successful
  rescue is a genuine solution.
* :func:`source_step_solve` — source stepping: ramp the independent
  sources from a fraction of their value up to 100 %, again finishing
  with the exact system.
* :func:`rescue_solve` — the full ladder (plain → gmin → source) with
  the trail of attempted stages reported to the caller and recorded on
  the raised error.

:func:`newton_solve_lanes` is the batched counterpart for stacked lane
systems (:mod:`repro.spice.lanes`): one masked chord-Newton loop, dense
and sparse lanes alike, whose four format-dependent steps the lane
system supplies, with per-lane factors cached by lane and a guard that
turns a non-finite update into a refactor.
"""

from __future__ import annotations

import numpy as np

from repro.spice.errors import ConvergenceError, SingularMatrixError
from repro.spice.linalg import (LUFactorization, solve_dense_lanes,
                                solve_dense_nocheck)
from repro.spice.mna import System
from repro.spice.netlist import AnalysisContext

#: Maximum node-voltage change applied in one Newton update (volts).
DEFAULT_VSTEP_MAX = 1.0

#: Absolute node-voltage convergence tolerance (volts).
DEFAULT_VTOL = 1e-6

#: Gmin continuation ladder of the rescue path (ends on the exact system).
GMIN_RESCUE_LADDER = (1e-3, 1e-5, 1e-7, 1e-9, 0.0)

#: Source-stepping ramp of the rescue path (ends on the exact system).
SOURCE_RESCUE_STEPS = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)

#: The lane (chord) iteration refactors when the update norm stops
#: shrinking by this.
MODIFIED_NEWTON_SHRINK = 0.5

#: Extra convergence tightening of the lane (chord) iteration.  A full
#: Newton pass leaves a quadratically small error once ``dv < vtol``;
#: a chord pass only guarantees ~``dv`` itself, and that per-step error
#: accumulates over a chained transient — converging the chord loop a
#: decade deeper keeps lane trajectories well inside the documented
#: 1e-5 fp tolerance of the per-lane path (measured worst-case node
#: divergence over the Fig. 2 sweep: ~3e-6) while costing roughly one
#: cheap residual pass per step over the per-lane tolerance.
LANE_VTOL_FACTOR = 1e-1


def _failing_nodes(system: System, dx: np.ndarray, vtol: float,
                   limit: int = 6) -> list[str]:
    """Names of the nodes still moving more than ``vtol`` (worst first).

    Defensive: callers may hand a ``dx`` spanning branch rows beyond the
    node count, and a circuit's ``node_names`` may be shorter than the
    index set — unnamed rows fall back to ``node#i`` instead of blowing
    up inside error reporting.
    """
    n = min(system.num_nodes, len(dx))
    moves = np.abs(dx[:n])
    bad = [int(i) for i in np.argsort(moves)[::-1]
           if moves[i] > vtol][:limit]
    names = getattr(system.circuit, "node_names", None) or []
    return [names[i] if i < len(names) else f"node#{i}" for i in bad]


def newton_solve(system: System, A_step: np.ndarray, b_step: np.ndarray,
                 ctx: AnalysisContext, x0: np.ndarray, *,
                 max_iter: int = 100, vtol: float = DEFAULT_VTOL,
                 vstep_max: float = DEFAULT_VSTEP_MAX,
                 extra_gmin: float = 0.0,
                 linear_fact: LUFactorization | None = None,
                 fast_solve: bool = False,
                 backend=None) -> np.ndarray:
    """Solve the (possibly nonlinear) system for one analysis point.

    ``A_step``/``b_step`` are the per-step base
    (:meth:`System.step_matrix` and :meth:`System.step_rhs` in a
    transient, :meth:`System.build_step` at DC); nonlinear devices are
    linearised around the running iterate each pass.  Updates are damped
    so no node voltage moves more than ``vstep_max`` per iteration,
    which keeps the exponential devices (diodes, sub-threshold MOSFETs)
    from overflowing.

    ``linear_fact`` — a cached :class:`LUFactorization` of ``A_step``;
    used for the linear fast path so one factorization serves every step
    sharing the same base matrix.

    ``fast_solve`` — the transient step loop's mode.  Dense solves go
    through :func:`~repro.spice.linalg.solve_dense_nocheck`
    (bitwise-identical to ``np.linalg.solve``, minus its wrapper
    overhead), so the caller must hold
    :func:`~repro.spice.linalg.dense_errstate` (the loop holds it
    around its whole step loop) or singular matrices return NaNs
    instead of raising.  A converged Newton solve also leaves the
    pinned sources' branch rows out: only a transient's final state
    exposes them, and the loop recovers its last step's
    (:meth:`~repro.spice.mna.System.recover_branches`).  Other callers
    (DC, the rescue ladders) go through the plain ``np.linalg.solve``.

    ``backend`` — what :func:`~repro.spice.backends.resolve_backend`
    returned: the system's :class:`~repro.spice.backends.SparseBackend`
    to route linear solves through, or ``None`` for the dense solves
    below.  The sparse backend changes the solve kernel, with the
    documented fp tolerance.

    Every dense solve runs on the kept unknowns only (see
    :mod:`repro.spice.mna`): each iteration assembles the kept blocks
    and factors ``A[K,K]`` against ``b[K] - A[K,P]·x_P``, and the full
    update still carries ``x_P`` at the pinned nodes, so damping and
    the ``dv < vtol`` test see every node.  The sparse backend and the
    cached-factorization fast path solve the full system.

    Returns the solution vector, pinned sources' branch currents
    included unless ``fast_solve``; raises :class:`ConvergenceError` or
    :class:`SingularMatrixError` on failure.
    """
    n = system.num_nodes
    sparse = backend is not None
    if not system.has_nonlinear and extra_gmin == 0.0:
        if linear_fact is not None:
            return linear_fact.solve_fast(b_step)
        if sparse:
            return backend.solve(A_step, b_step)
        return solve_pinned(system, A_step, b_step, fast_solve=fast_solve)

    x = x0.copy()
    dx = x
    if not sparse:
        pins = system.pin_step(b_step)
    build_iteration = system.build_iteration
    for _ in range(max_iter):
        ctx.x = x
        if sparse:
            # Full Newton refactors every pass on the dense path too
            # (np.linalg.solve factors internally); the sparse kernel
            # just swaps the factorization's complexity class.
            A, b = build_iteration(A_step, b_step, ctx, extra_gmin,
                                   full=True)
            x_new = backend.solve(A, b)
        else:
            A_kk, A_kt = build_iteration(A_step, b_step, ctx, extra_gmin)
            y = _solve_kept(A_kk, A_kt, pins, fast_solve)
            x_new = system.expand(y, pins)
        # Reuse the solve output as the update buffer (x_new is fresh
        # every pass; in-place subtraction is bitwise the same).
        dx = np.subtract(x_new, x, out=x_new)
        dv_max = float(np.abs(dx[:n]).max()) if n else 0.0
        if dv_max > vstep_max:
            dx = dx * (vstep_max / dv_max)
        x = x + dx
        if dv_max < vtol:
            if sparse:
                return x
            system.complete(x, y, pins)
            return x if fast_solve else system.recover_branches(x)
    nodes = _failing_nodes(system, dx, vtol)
    raise ConvergenceError(
        f"Newton iteration did not converge within {max_iter} iterations "
        f"(time={ctx.time!r}, moving nodes: {', '.join(nodes) or '-'})",
        time=ctx.time, iterations=max_iter, nodes=nodes)


def _solve_kept(A_kk: np.ndarray, A_kt: np.ndarray, pins: tuple,
                fast_solve: bool) -> np.ndarray:
    """The kept unknowns ``y`` of ``A x = b``: ``A[K,K] y = [A[K,P] |
    b[K]]·[-x_P | 1]``, through :func:`solve_dense_nocheck`
    (``fast_solve``) or the plain ``np.linalg.solve`` call."""
    b_k = A_kt.dot(pins[2])
    if fast_solve:
        return solve_dense_nocheck(A_kk, b_k)
    try:
        return np.linalg.solve(A_kk, b_k)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from None


def solve_pinned(system: System, A: np.ndarray, b: np.ndarray, *,
                 fast_solve: bool = False) -> np.ndarray:
    """Solve the linear system ``A x = b`` of ``system`` on its kept
    unknowns: ``x_P`` exactly, ``x_K`` from ``A[K,K]``, the pinned
    branch currents from the pinned nodes' KCL rows.

    ``fast_solve`` only routes the solve through
    :func:`solve_dense_nocheck` (the caller holds its errstate).
    Raises :class:`SingularMatrixError` when ``A`` is singular.
    """
    pins = system.pin_step(b)
    y = _solve_kept(*system.kept_blocks(A, b), pins, fast_solve)
    x = system.complete(system.expand(y, pins), y, pins)
    return system.recover_branches(x)


def _try_solve_lanes(A: np.ndarray, b: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Batched solve that survives per-lane singular matrices.

    Returns ``(x, ok)`` where ``ok`` is a boolean mask over lanes.  The
    common case — no singular lane — is one gufunc call; when the batch
    raises, each lane is re-solved individually so only the offending
    lanes are flagged (their rows are left as zeros).  The caller must
    hold :func:`~repro.spice.linalg.dense_errstate`.
    """
    n_lanes = A.shape[0]
    try:
        return solve_dense_lanes(A, b), np.ones(n_lanes, dtype=bool)
    except SingularMatrixError:
        pass
    x = np.zeros_like(b)
    ok = np.zeros(n_lanes, dtype=bool)
    for k in range(n_lanes):
        try:
            x[k] = solve_dense_nocheck(A[k], b[k])
            ok[k] = True
        except SingularMatrixError:
            pass
    return x, ok


def newton_solve_lanes(lanes, A_step: np.ndarray, b_step: np.ndarray,
                       x0: np.ndarray, lane_idx: np.ndarray, *,
                       temp_c: float, max_iter: int = 100,
                       vtol: float = DEFAULT_VTOL,
                       vstep_max: float = DEFAULT_VSTEP_MAX,
                       shrink: float = MODIFIED_NEWTON_SHRINK,
                       full: bool = False
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Masked batched quasi-Newton over stacked same-topology systems.

    ``lanes`` is a :class:`~repro.spice.lanes.LaneSystem` or its sparse
    subclass; ``A_step`` holds ``n_batch`` step matrices in its storage
    format (``(n_batch, size, size)`` dense, ``(n_batch, nnz)`` CSR data
    rows over the shared sparsity pattern), ``b_step`` and ``x0`` are
    ``(n_batch, size)``, and ``lane_idx`` maps batch rows to global lane
    positions: it keys the per-lane factor cache ``lanes._M`` (dense
    Jacobian inverses, or SuperLU numeric factorizations over the one
    shared symbolic pattern) and its validity flags ``lanes._M_valid``.

    The update is the residual form of the per-lane Newton step,
    ``dx = M (b - A x)``, where ``M`` is each lane's cached factor — a
    batched modified (chord) Newton.  While the update norm shrinks
    geometrically (by ``shrink`` per pass) the factorization is reused
    across iterations *and* time steps, so the factoring cost drops out
    of quiet stretches of the cycle entirely; a stale lane refactors
    and its next pass is a full Newton step.  Because the fixed point
    of the residual iteration is the exact solution of the step's
    nonlinear system, reuse affects only the convergence path, not the
    solution (within ``vtol`` — part of the lane kernel's documented fp
    tolerance).  Damping and the ``dv_max < vtol`` test match
    :func:`newton_solve` per lane.  ``full=True`` refactors every lane
    on every pass instead: the damped full Newton of the serial kernel,
    the lane driver's last rung before it isolates a lane.

    One loop serves both storage formats; the lane system supplies
    the four steps that depend on the format: ``solve_lanes`` (a linear
    system's exact solves), ``refactor_lanes`` (assemble and factor the
    stale rows' Jacobians), ``matvec_lanes`` (``A x``) and
    ``apply_factors`` (``M r``).  SuperLU reports some singular systems
    by returning non-finite solutions rather than raising, so a lane
    whose update norm is not finite keeps its iterate and turns stale:
    the refactor then flags it properly.  That masking runs, with the
    damping, only on a pass whose largest norm fails ``<= vstep_max``,
    as a NaN or infinite norm always does.

    Returns ``(x, failed)``: the stacked solutions and a boolean mask
    over batch rows that did not converge (their rows hold the last
    iterate).  Nothing raises for a lane failure — the lane transient
    driver owns the continuation-retry / isolation policy.  The caller
    must hold :func:`~repro.spice.linalg.dense_errstate`.
    """
    n_batch = x0.shape[0]
    n = lanes.num_nodes
    failed = np.zeros(n_batch, dtype=bool)
    if not lanes.has_nonlinear:
        x, ok = lanes.solve_lanes(A_step, b_step)
        failed[~ok] = True
        return x, failed

    M_cache, M_valid = lanes._M, lanes._M_valid
    size = lanes.size
    x = x0.copy()
    # The loop keeps trimmed working copies (iterate, step system,
    # cached factors, previous update norm) and writes a row back into
    # ``x`` only when its lane leaves them before the others: it
    # converges, fails, or the budget runs out.  When the whole batch
    # converges on one pass, the working iterate is the result.
    active = np.arange(n_batch)
    x_act = x0.copy()
    A_act, b_act = A_step, b_step
    M_act = M_cache[lane_idx]
    dv_prev = np.full(n_batch, np.inf)
    vtol = vtol * LANE_VTOL_FACTOR
    gidx = lane_idx
    # Within one call only a stagnation invalidates a lane's factors (a
    # refactor leaves valid every row it keeps), so staleness is looked
    # up on the first pass and after a stagnation only.
    check = True
    for _ in range(max_iter):
        if full:
            stale = np.ones(active.size, dtype=bool)
        else:
            stale = ~M_valid[gidx] if check else None
            check = False
        if stale is not None and stale.any():
            # Full Jacobian assembly only for the lanes that refactor;
            # their next update is then an exact Newton step.
            M_new, ok = lanes.refactor_lanes(
                A_act[stale], b_act[stale], x_act[stale], temp_c)
            M_cache[gidx[stale]] = M_new
            M_valid[gidx[stale]] = ok
            M_act[stale] = M_new
            if not ok.all():
                bad_rows = np.flatnonzero(stale)[~ok]
                x[active[bad_rows]] = x_act[bad_rows]
                failed[active[bad_rows]] = True
                keep = np.ones(active.size, dtype=bool)
                keep[bad_rows] = False
                active, A_act, b_act, x_act, M_act, dv_prev = (
                    active[keep], A_act[keep], b_act[keep], x_act[keep],
                    M_act[keep], dv_prev[keep])
                if active.size == 0:
                    return x, failed
                gidx = gidx[keep]
        r = b_act - lanes.matvec_lanes(A_act, x_act)
        cur = lanes.residual_currents_lanes(x_act, temp_c)
        if cur is not None:
            r += cur[:, :size]
        dx = lanes.apply_factors(M_act, r)
        dv_max = np.abs(dx[:, :n]).max(axis=1) if n \
            else np.zeros(active.size)
        if not dv_max.max() <= vstep_max:
            # Damping, and the non-finite guard: a NaN or infinite norm
            # fails the test above too.  A non-finite update moves
            # nothing; its infinite norm scales the (zeroed) step to 0
            # and marks the lane stale.  Below the cap the damping
            # scale is exactly 1.0, so skipping it there is bitwise.
            finite = np.isfinite(dv_max)
            if not finite.all():
                dx[~finite] = 0.0
                dv_max = np.where(finite, dv_max, np.inf)
            dx *= (vstep_max / np.maximum(dv_max, vstep_max))[:, None]
        x_act += dx
        conv = dv_max < vtol
        n_conv = np.count_nonzero(conv)
        if n_conv == active.size:
            if n_conv == n_batch:
                return x_act, failed
            x[active] = x_act
            return x, failed
        # Stagnating lanes refactor on the next pass (stale Jacobian).
        slow = ~conv & (dv_max >= shrink * dv_prev)
        if slow.any():
            M_valid[gidx[slow]] = False
            check = True
        dv_prev = dv_max
        if n_conv:
            x[active[conv]] = x_act[conv]
            keep = ~conv
            active, A_act, b_act, x_act, M_act, dv_prev = (
                active[keep], A_act[keep], b_act[keep], x_act[keep],
                M_act[keep], dv_prev[keep])
            gidx = gidx[keep]
    x[active] = x_act
    failed[active] = True
    return x, failed


def gmin_step_solve(system: System, A_step: np.ndarray,
                    b_step: np.ndarray, ctx: AnalysisContext,
                    x0: np.ndarray, *,
                    ladder=GMIN_RESCUE_LADDER, max_iter: int = 100,
                    vtol: float = DEFAULT_VTOL,
                    vstep_max: float = DEFAULT_VSTEP_MAX,
                    backend=None) -> np.ndarray:
    """Gmin stepping: continuation from a regularised system to the exact
    one.  Each rung warm-starts from the previous solution; rungs that
    fail keep the running iterate and move on, so only a failure of the
    *final* (exact) rung is fatal.
    """
    x = x0.copy()
    last_error: ConvergenceError | None = None
    for extra in ladder:
        try:
            x = newton_solve(system, A_step, b_step, ctx, x,
                             max_iter=max_iter, vtol=vtol,
                             vstep_max=vstep_max, extra_gmin=extra,
                             backend=backend)
            last_error = None
        except ConvergenceError as exc:
            last_error = exc
    if last_error is not None:
        raise last_error
    return x


def source_step_solve(system: System, A_step: np.ndarray,
                      b_step: np.ndarray, ctx: AnalysisContext,
                      x0: np.ndarray, *,
                      steps=SOURCE_RESCUE_STEPS, max_iter: int = 100,
                      vtol: float = DEFAULT_VTOL,
                      vstep_max: float = DEFAULT_VSTEP_MAX,
                      backend=None) -> np.ndarray:
    """Source stepping: ramp the excitation vector up to the exact system.

    Scaling ``b_step`` scales every independent source (and, in
    transient, the companion-model history) — the intermediate solves
    only serve as warm starts, and the final step solves the exact
    system, so a returned solution is always genuine.
    """
    x = np.zeros_like(x0)
    for alpha in steps:
        x = newton_solve(system, A_step, alpha * b_step, ctx, x,
                         max_iter=max_iter, vtol=vtol,
                         vstep_max=vstep_max, backend=backend)
    return x


def rescue_solve(system: System, A_step: np.ndarray, b_step: np.ndarray,
                 ctx: AnalysisContext, x0: np.ndarray, *,
                 max_iter: int = 100, vtol: float = DEFAULT_VTOL,
                 vstep_max: float = DEFAULT_VSTEP_MAX,
                 backend=None
                 ) -> tuple[np.ndarray, tuple[str, ...]]:
    """Solve with the full rescue ladder: plain Newton, then Gmin
    stepping, then source stepping.

    Returns ``(solution, trail)`` where ``trail`` names the rescue stage
    that succeeded (``()`` when plain Newton was enough).  On total
    failure the raised :class:`ConvergenceError` carries the attempted
    trail in ``rescue_trail``.
    """
    try:
        return newton_solve(system, A_step, b_step, ctx, x0,
                            max_iter=max_iter, vtol=vtol,
                            vstep_max=vstep_max, backend=backend), ()
    except ConvergenceError:
        pass
    try:
        x = gmin_step_solve(system, A_step, b_step, ctx, x0,
                            max_iter=max_iter, vtol=vtol,
                            vstep_max=vstep_max, backend=backend)
        return x, ("gmin",)
    except ConvergenceError:
        pass
    try:
        x = source_step_solve(system, A_step, b_step, ctx, x0,
                              max_iter=max_iter, vtol=vtol,
                              vstep_max=vstep_max, backend=backend)
        return x, ("gmin", "source")
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"no convergence after rescue ladder (gmin, source): {exc}",
            time=ctx.time, iterations=exc.iterations, nodes=exc.nodes,
            rescue_trail=("gmin", "source")) from exc
