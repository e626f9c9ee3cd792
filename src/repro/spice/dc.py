"""DC operating-point analysis with gmin stepping.

Capacitors are open circuits; sources are evaluated at ``t = 0``.  The
nonlinear solve is continued from a heavily-regularised system (large gmin)
down to the target gmin, which reliably converges circuits with regenerative
feedback such as the sense amplifier latch.  When even the continuation
fails, a source-stepping rescue ramps the excitation from a fraction of its
value up to 100 % — the last line of defence before a
:class:`ConvergenceError` reaches the caller.
"""

from __future__ import annotations

from repro.spice.backends import resolve_backend
from repro.spice.errors import ConvergenceError
from repro.spice.mna import DEFAULT_GMIN, System
from repro.spice.netlist import AnalysisContext, Circuit
from repro.spice.solver import newton_solve, source_step_solve


def dc_operating_point(circuit: Circuit, *, temp_c: float = 27.0,
                       gmin: float = DEFAULT_GMIN,
                       initial: dict[str, float] | None = None,
                       rescues: list[str] | None = None,
                       backend: str | None = None
                       ) -> dict[str, float]:
    """Solve the DC operating point; returns ``{node_name: volts}``.

    ``initial`` (``{node_name: volts}``) seeds the Newton iterate;
    an unknown node raises :class:`~repro.spice.errors.SpiceError`, as
    in :func:`~repro.spice.transient.transient`.  Pass a list as
    ``rescues`` to learn which rescue stages (if any) the solve needed —
    the stage names are appended in order.  ``backend`` selects the
    linear-solver backend (``None`` follows the process-wide default).
    """
    system = System(circuit, gmin=gmin)
    backend_obj = resolve_backend(backend, system)
    x = system.initial_state(initial)

    ctx = AnalysisContext(time=0.0, dt=None, temp_c=temp_c, x=x, x_prev=x)
    A_step, b_step = system.build_step(ctx)

    # Continuation: relax from a strongly-regularised problem to the target.
    gmin_ladder = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 0.0]
    last_error: ConvergenceError | None = None
    for extra in gmin_ladder:
        try:
            x = newton_solve(system, A_step, b_step, ctx, x,
                             extra_gmin=extra, max_iter=200,
                             backend=backend_obj)
            last_error = None
        except ConvergenceError as exc:
            last_error = exc
            # keep the current x and try the next rung anyway
    if last_error is not None:
        # Source-stepping rescue: ramp the excitation up to the exact
        # system.  The final step solves the true circuit, so a success
        # here is a genuine operating point.
        try:
            x = source_step_solve(system, A_step, b_step, ctx, x,
                                  max_iter=200, backend=backend_obj)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"DC operating point failed after gmin and source "
                f"stepping: {exc}", time=0.0,
                iterations=exc.iterations, nodes=exc.nodes,
                rescue_trail=("gmin", "source")) from exc
        if rescues is not None:
            rescues.append("source")
        _record_rescue("source")

    return {node.name: float(x[node.index]) for node in circuit.nodes}


def _record_rescue(stage: str) -> None:
    """Count a successful rescue in the run diagnostics."""
    from repro.diagnostics import diagnostics
    diagnostics().record_rescue(stage)
