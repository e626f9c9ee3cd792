"""Transient analysis.

The engine steps a fixed grid (``dt`` spacing) augmented with every source
waveform breakpoint, so ideal-ish edges land exactly on time points.  A step
whose Newton solve fails is bisected (exactly like the original strategy)
until it converges or the step floor is reached; at the floor a per-step
Gmin ramp (:func:`repro.spice.solver.gmin_step_solve`) is the last resort.
Every rescued step is recorded on the returned :class:`TransientResult`
(``rescues``) so callers can see the analysis needed help; a final stall
raises a :class:`ConvergenceError` carrying the stall time, the iteration
budget and the non-converging node set.

Initial conditions follow SPICE ``UIC`` semantics: the caller supplies node
voltages (default 0 V) and integration starts immediately — no DC operating
point is computed first.  The DRAM runner exploits this to chain operation
cycles, feeding each cycle's final state into the next.

One step loop implements that strategy: compiled stamp plans, a
per-``dt`` step-matrix cache, a cursor walk of the grid with a bounded
bisection stack, preallocated result buffers, and (for linear circuits)
cached LU factorizations.  It needs the circuit's capacitors and sources
compiled into plans; every built-in device compiles, and a circuit with
a custom capacitor-like or source device raises :class:`SpiceError`.
``tests/golden/spice_transients.json`` pins its trajectories
(DESIGN.md section 5c).
"""

from __future__ import annotations

import time as _time

import numpy as np

from repro.diagnostics import diagnostics
from repro.spice.backends import resolve_backend
from repro.spice.errors import ConvergenceError, SpiceError
from repro.spice.linalg import dense_errstate
from repro.spice.mna import DEFAULT_GMIN, System
from repro.spice.netlist import AnalysisContext, Circuit
from repro.spice.solver import gmin_step_solve, newton_solve
from repro.spice.waveforms import merge_breakpoints


#: Process-wide default lane width for batched sweeps (0 = lanes off).
_LANES_DEFAULT = 0


def set_lanes_default(width: int) -> int:
    """Set the process-wide default lane width for batched Rop sweeps.

    ``0`` (the default) keeps every sweep on the serial path, one
    transient per point — the lanes' parity baseline.
    ``width >= 2`` lets the batch executor group same-topology sweep
    points into multi-lane transients of at most ``width`` lanes (see
    :mod:`repro.spice.lanes`).  Returns the previous value.
    """
    global _LANES_DEFAULT
    previous = _LANES_DEFAULT
    _LANES_DEFAULT = max(0, int(width))
    return previous


def lanes_default() -> int:
    """Current process-wide default lane width (0 = lanes off)."""
    return _LANES_DEFAULT


class RescueEvent:
    """One transient step that only converged through a rescue stage."""

    __slots__ = ("time", "stage")

    def __init__(self, time: float, stage: str):
        self.time = time
        self.stage = stage

    def __repr__(self) -> str:
        return f"RescueEvent(time={self.time:.4g}, stage={self.stage!r})"


class TransientResult:
    """Recorded node voltages over time.

    Supports waveform lookup by node name, linear interpolation at arbitrary
    instants, and exporting the final state for cycle chaining.
    ``rescues`` lists the steps that needed a convergence rescue (empty
    for a cleanly-converged analysis).
    """

    def __init__(self, times: np.ndarray, data: np.ndarray,
                 node_names: list[str], final_x: np.ndarray,
                 rescues: list[RescueEvent] | None = None):
        self.time = times
        self._data = data
        self._col = {name: i for i, name in enumerate(node_names)}
        self.node_names = list(node_names)
        self.final_x = final_x
        self.rescues = list(rescues) if rescues else []

    def __len__(self) -> int:
        return len(self.time)

    def has_node(self, name: str) -> bool:
        return name in self._col

    def v(self, name: str) -> np.ndarray:
        """Full voltage waveform of node ``name``."""
        try:
            return self._data[:, self._col[name]]
        except KeyError:
            raise SpiceError(f"no recorded node named {name!r}") from None

    def at(self, name: str, t: float) -> float:
        """Linearly-interpolated voltage of ``name`` at time ``t``."""
        wave = self.v(name)
        times = self.time
        if t <= times[0]:
            return float(wave[0])
        if t >= times[-1]:
            return float(wave[-1])
        i = int(np.searchsorted(times, t, side="right"))
        t0, t1 = times[i - 1], times[i]
        frac = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        return float(wave[i - 1] + frac * (wave[i] - wave[i - 1]))

    def final(self, name: str) -> float:
        """Voltage of ``name`` at the last time point."""
        return float(self.v(name)[-1])

    def final_state(self) -> dict[str, float]:
        """Map of node name → final voltage (for chaining transients)."""
        return {name: float(self._data[-1, col])
                for name, col in self._col.items()}


def _build_grid(tstop: float, dt: float, waveforms) -> list[float]:
    """Uniform grid plus waveform breakpoints, strictly increasing."""
    n_steps = max(1, int(round(tstop / dt)))
    grid = [tstop * i / n_steps for i in range(n_steps + 1)]
    extra = merge_breakpoints(waveforms, 0.0, tstop)
    if extra:
        merged = sorted(set(grid) | set(extra))
        # Drop points that crowd a neighbour closer than dt/1e6 to avoid
        # degenerate steps.
        tol = dt * 1e-6
        grid = [merged[0]]
        for t in merged[1:]:
            if t - grid[-1] > tol:
                grid.append(t)
        if grid[-1] != tstop:
            grid[-1] = tstop
    return grid


def transient(circuit: Circuit, tstop: float, dt: float, *,
              temp_c: float = 27.0, method: str = "be",
              initial: dict[str, float] | None = None,
              gmin: float = DEFAULT_GMIN,
              max_step_halvings: int = 14,
              system: System | None = None,
              backend: str | None = None) -> TransientResult:
    """Run a transient analysis from 0 to ``tstop``.

    Parameters
    ----------
    circuit:
        The netlist to simulate.
    tstop, dt:
        Stop time and nominal step (seconds).
    temp_c:
        Simulation temperature (degrees Celsius) — fed to every
        temperature-aware device.
    method:
        ``"be"`` (backward Euler, default, very robust) or ``"trap"``
        (trapezoidal, second order).
    initial:
        ``{node_name: volts}`` initial node voltages; unlisted nodes start
        at 0 V.  SPICE ``UIC`` semantics.
    gmin:
        Node-to-ground regularisation conductance.
    max_step_halvings:
        How many times a non-converging step may be bisected before the
        analysis gives up.
    system:
        A prebuilt :class:`System` for ``circuit`` to reuse across calls
        (the DRAM runner chains cycles over one system, keeping its
        step-matrix and factorization caches warm).  Ignored when it does
        not match ``circuit``/``gmin``.  Callers that mutate device
        *values* in place must drop their cached system (the compiled
        plans would go stale).
    backend:
        Linear-solver backend name (``"auto"``, ``"dense"`` or
        ``"sparse"``; see :mod:`repro.spice.backends`); ``None``
        (default) follows the process-wide default
        (:func:`repro.spice.backends.set_backend_default`).

    Raises :class:`SpiceError` for a bad argument, an initial condition
    on an unknown node, or a circuit whose capacitors or sources the
    step plans cannot compile.
    """
    if tstop <= 0 or dt <= 0:
        raise SpiceError("tstop and dt must be positive")
    if method not in ("be", "trap"):
        raise SpiceError(f"unknown integration method {method!r}")
    if (system is None or system.circuit is not circuit
            or system.gmin != gmin or system.plans is None
            or not circuit._finalized):
        system = System(circuit, gmin=gmin)
    if not system._step_plannable:
        raise SpiceError(
            f"transient analysis of {circuit.title!r} needs compiled "
            f"capacitor and source plans; a device of a custom class "
            f"stamps the step layer")

    x = system.initial_state(initial)
    grid = _build_grid(tstop, dt, system.source_waveforms())
    dt_floor = dt / (2 ** max_step_halvings)
    # A stalled transient's counters count too: its caller may drop the
    # system before another transient would flush them.
    try:
        return _run_kernel_loop(system, grid, x, dt_floor, temp_c, method,
                                circuit.node_names, circuit.num_nodes,
                                resolve_backend(backend, system))
    finally:
        system.flush_kernel_counters()


def _run_kernel_loop(system: System, grid: list[float], x: np.ndarray,
                     dt_floor: float, temp_c: float, method: str,
                     node_names: list[str], num_nodes: int,
                     backend=None) -> TransientResult:
    """The step loop: cursor grid walk + bounded bisection stack.

    The grid is walked with an index cursor and only bisection midpoints
    are pushed onto a stack whose depth is bounded by
    ``max_step_halvings``.  ``backend`` is the system's sparse backend,
    or ``None`` for the dense solves.
    """
    n_grid = len(grid)
    capacity = n_grid + 8
    times = np.empty(capacity)
    data = np.empty((capacity, num_nodes))
    times[0] = 0.0
    data[0] = x[:num_nodes]
    count = 1
    rescues: list[RescueEvent] = []

    linear = not system.has_nonlinear
    ctx = AnalysisContext(time=0.0, dt=None, temp_c=temp_c, x=x,
                          x_prev=x, method=method)
    # Waveforms hold still for one transient: resolve them once.
    ctx.sources = system.plans.sources.snapshot()
    diag = diagnostics()
    timers = diag if diag.timing else None

    # One errstate entry serves every fast dense solve of the analysis
    # (newton_solve with fast_solve=True requires the caller to hold it;
    # entering it per step costs microseconds that add up).  Rescue paths
    # that go through np.linalg.solve stack their own errstate on top.
    with dense_errstate():
        result = _step_kernel_loop(system, grid, x, dt_floor, ctx, method,
                                   node_names, num_nodes, linear, timers,
                                   times, data, capacity, count, rescues,
                                   backend)
    diag.count("transient.steps", len(result.time) - 1)
    return result


def _step_kernel_loop(system, grid, x, dt_floor, ctx, method, node_names,
                      num_nodes, linear, timers, times, data, capacity,
                      count, rescues, backend=None):
    """The step loop proper (see :func:`_run_kernel_loop`)."""
    n_grid = len(grid)
    t = 0.0
    gi = 1
    stack: list[float] = []  # pending bisection midpoints (LIFO)
    while True:
        if stack:
            t_target = stack[-1]
        elif gi < n_grid:
            t_target = grid[gi]
        else:
            break
        dt_step = t_target - t
        ctx.time = t_target
        ctx.dt = dt_step
        ctx.x = x
        ctx.x_prev = x
        if timers:
            _t0 = _time.perf_counter()
        A_step = system.step_matrix(dt_step, method)
        b_step = system.step_rhs(ctx)
        fact = (system.step_factorization(dt_step, method, backend)
                if linear else None)
        if timers:
            _t1 = _time.perf_counter()
            timers.add_time("transient.assemble_step", _t1 - _t0)
        try:
            x_new = newton_solve(system, A_step, b_step, ctx, x,
                                 linear_fact=fact, fast_solve=True,
                                 backend=backend)
        except ConvergenceError as exc:
            # Step bisection first, then — once the step floor blocks
            # further bisection — a per-step Gmin ramp as the last
            # resort before giving up.
            if dt_step / 2 >= dt_floor:
                stack.append(t + dt_step / 2)
                continue
            try:
                x_new = gmin_step_solve(system, A_step, b_step, ctx, x,
                                        backend=backend)
            except ConvergenceError as gmin_exc:
                nodes = gmin_exc.nodes or exc.nodes
                raise ConvergenceError(
                    f"transient stalled at t={t:.4g}s: step below floor "
                    f"{dt_floor:.3g}s still fails to converge even with "
                    f"a Gmin ramp (moving nodes: "
                    f"{', '.join(nodes) or '-'})",
                    time=t, iterations=gmin_exc.iterations, nodes=nodes,
                    rescue_trail=("bisect", "gmin")) from None
            rescues.append(RescueEvent(t_target, "gmin"))
            _record_rescue("gmin")
        if timers:
            timers.add_time("transient.solve", _time.perf_counter() - _t1)
        system.accept_step(x, x_new, dt_step, method)
        x = x_new
        t = t_target
        if stack:
            stack.pop()
        else:
            gi += 1
        if count == capacity:
            capacity *= 2
            times = np.concatenate([times, np.empty(capacity - count)])
            grown = np.empty((capacity, num_nodes))
            grown[:count] = data[:count]
            data = grown
        times[count] = t
        data[count] = x[:num_nodes]
        count += 1

    if backend is None and not linear:
        # The fast dense solve leaves the pinned sources' branch rows
        # out; only the final state exposes them.
        system.recover_branches(x)
    return TransientResult(times[:count].copy(), data[:count].copy(),
                           node_names, x, rescues=rescues)


def _record_rescue(stage: str) -> None:
    """Count a successful rescue in the run diagnostics."""
    diagnostics().record_rescue(stage)
