"""Operation-level driver of the electrical column model.

:class:`ColumnRunner` owns a built column netlist and applies ``w0``/``w1``/
``r`` cycles to a target cell, carrying the full node state from cycle to
cycle — the electrical-simulation workhorse behind every result plane in
the paper.
"""

from __future__ import annotations

import numpy as np

from repro.stress import NOMINAL_STRESS, StressConditions
from repro.dram.column import (DEFECT_DEVICE, ColumnNetlist, DefectSite,
                               build_column)
from repro.dram.ops import (Op, Operation, OpResult, SequenceResult,
                             parse_ops, run_memoized)
from repro.dram.tech import TechnologyParams, default_tech
from repro.dram.timing import plan_cycle
from repro.spice.errors import NetlistError
from repro.spice.lanes import (LaneSystem, LaneWarmBank, lane_transient,
                               make_lane_system)
from repro.spice.mna import System
from repro.spice.transient import kernels_enabled, transient
from repro.spice.waveforms import Constant, Pulse


def column_idle_state(netlist: ColumnNetlist, tech: TechnologyParams,
                      stress: StressConditions, target_cell: int,
                      vc_target: float,
                      background: int = 0) -> dict[str, float]:
    """Node voltages of a quiescent column before the first cycle.

    ``vc_target`` is the *physical* storage-node voltage of the target
    cell (the paper's ``Vc``); the other cells hold the logical
    ``background`` value through the differential write convention.
    Shared by :class:`ColumnRunner` and :class:`LaneRunner` so both
    paths start every sequence from the identical state.
    """
    vdd = stress.vdd
    vpre = tech.vbl_pre(vdd)
    state = {
        "blt": vpre, "blc": vpre,
        "san": vpre, "sap": vpre,
        "snd_t": tech.v_ref(vdd, stress.temp_c),
        "snd_c": tech.v_ref(vdd, stress.temp_c),
        "dx": 0.0, "doutb": vdd, "dout": 0.0,
        "vdd": vdd, "vref": tech.v_ref(vdd, stress.temp_c),
        "vpre": vpre,
    }
    for i in range(tech.num_wordlines):
        on_true = i % 2 == 0
        physical = background if on_true else 1 - background
        state[f"sn{i}"] = float(physical) * vdd
    state[netlist.storage_node(target_cell)] = float(vc_target)
    # Internal defect nodes start at their neighbour's level.
    if netlist.circuit.has_node(f"s_int{target_cell}"):
        state[f"s_int{target_cell}"] = float(vc_target)
    return state


class ColumnRunner:
    """Apply operation cycles to one target cell of a (defective) column.

    Parameters
    ----------
    tech:
        Technology parameters; defaults to the shared synthetic technology.
    stress:
        Stress conditions applied to every cycle (mutable via
        :meth:`set_stress`).
    defect:
        Optional injected defect.
    target_cell:
        Cell operated on.  Even cells sit on the true bit line (paper's
        "true" rows), odd cells on the complementary line ("comp.").
    record:
        When True, per-cycle waveforms (cell voltage, bit lines) are kept
        on each :class:`OpResult`.
    """

    def __init__(self, *, tech: TechnologyParams | None = None,
                 stress: StressConditions = NOMINAL_STRESS,
                 defect: DefectSite | None = None,
                 target_cell: int = 0,
                 record: bool = False):
        self.tech = tech or default_tech()
        self.stress = stress
        self.target_cell = target_cell
        self.record = record
        self.netlist: ColumnNetlist = build_column(self.tech, defect)
        self._sn = self.netlist.storage_node(target_cell)
        self._system: System | None = None
        self._prefixes: dict = {}

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def set_stress(self, stress: StressConditions) -> None:
        if stress != self.stress:
            self.stress = stress
            self._prefixes.clear()

    def set_defect_resistance(self, resistance: float) -> None:
        if resistance == self.netlist.defect_resistance:
            return
        self.netlist.set_defect_resistance(resistance)
        # The device value changed in place: compiled stamp plans and the
        # step-matrix/factorization caches are stale, so rebuild lazily.
        self._system = None
        self._prefixes.clear()

    @property
    def defect(self) -> DefectSite | None:
        return self.netlist.defect

    @property
    def target_on_true(self) -> bool:
        return self.target_cell % 2 == 0

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------
    def idle_state(self, vc_target: float,
                   background: int = 0) -> dict[str, float]:
        """Node voltages of a quiescent column before the first cycle.

        ``vc_target`` is the *physical* storage-node voltage of the target
        cell (the paper's ``Vc``); the other cells hold the logical
        ``background`` value through the differential write convention.
        """
        return column_idle_state(self.netlist, self.tech, self.stress,
                                 self.target_cell, vc_target,
                                 background=background)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_op(self, op: Op | str, state: dict[str, float],
               cell: int | None = None
               ) -> tuple[OpResult, dict[str, float]]:
        """Apply one operation cycle starting from ``state``.

        ``cell`` overrides the addressed cell for this cycle (defaults
        to the runner's target) — coupling analysis uses this to drive
        an *aggressor* cell while the defective victim floats.  The
        reported ``vc_end`` always tracks the runner's target cell.

        Returns the observed :class:`OpResult` and the node state at the
        end of the cycle (input to the next operation).
        """
        if isinstance(op, str):
            op = Op.parse(op)
        addressed = self.target_cell if cell is None else cell
        plan = plan_cycle(op, self.stress, self.tech, addressed)
        self.netlist.set_waveforms(plan.waveforms)
        dt = self.stress.tcyc * self.tech.dt_frac
        if self._system is None and kernels_enabled():
            self._system = System(self.netlist.circuit)
        res = transient(self.netlist.circuit, self.stress.tcyc, dt,
                        temp_c=self.stress.temp_c, initial=state,
                        system=self._system)
        new_state = res.final_state()

        sensed = None
        if op.operation is Operation.R:
            sensed = 1 if res.at("dout", plan.t_sample) > 0.5 * \
                self.stress.vdd else 0

        result = OpResult(op=op, vc_end=res.final(self._sn), sensed=sensed)
        if self.record:
            result.times = res.time
            result.vc = res.v(self._sn)
            result.extra = {"blt": res.v("blt"), "blc": res.v("blc"),
                            "dout": res.v("dout")}
        return result, new_state

    def run_sequence(self, ops, init_vc: float, background: int = 0
                     ) -> SequenceResult:
        """Apply a whole operation sequence from a fresh idle state,
        resuming from the longest prefix already simulated at this
        resistance and SC (:func:`~repro.dram.ops.run_memoized`).

        ``ops`` may be a string (``"w1 w1 w0 r0"``), or a list of
        :class:`Op`.
        """
        return run_memoized(self, self._prefixes, ops, init_vc, background)


def _lane_system(lanes: LaneSystem | None, system: System,
                 resistances) -> LaneSystem:
    """``lanes`` re-valued to ``resistances``, or a new lane system over
    ``system`` when there is none yet."""
    if lanes is None:
        return make_lane_system(system, resistances, DEFECT_DEVICE)
    if lanes.resistances != tuple(float(r) for r in resistances):
        lanes.set_resistances(resistances)
    return lanes


def _stack_states(circuit, system: System, states) -> np.ndarray:
    """Initial solution vectors from per-lane node-voltage dicts."""
    x2 = np.zeros((len(states), system.size))
    for k, state in enumerate(states):
        for name, volts in state.items():
            x2[k, circuit.node(name).index] = float(volts)
    return x2


def _add_batch_counters(counters: dict, batch: dict) -> None:
    """Sum one lane transient's counters into a sequence's; the launched
    and converged lanes are counted per sequence, not per batch."""
    for name, value in batch.items():
        if name not in ("lanes_launched", "lanes_converged"):
            counters[name] = counters.get(name, 0) + value


class LaneRunner:
    """Run one operation sequence over many ``Rop`` lanes at once.

    The multi-lane counterpart of :class:`ColumnRunner`: one column
    netlist, one compiled :class:`System` template, and a
    :class:`~repro.spice.lanes.LaneSystem` whose per-lane static
    matrices carry the swept defect resistances.  Lanes that fail the
    batched Newton loop (after the continuation retry) come back as
    ``None`` for the caller — typically the batch executor — to re-run
    on the legacy per-lane path with its full rescue ladder.
    """

    def __init__(self, *, tech: TechnologyParams | None = None,
                 stress: StressConditions = NOMINAL_STRESS,
                 defect_kind: str = "open_sn",
                 target_cell: int = 0):
        self.tech = tech or default_tech()
        self.stress = stress
        self.target_cell = target_cell
        # Placeholder resistance: the lanes re-value the device span.
        defect = DefectSite(kind=defect_kind, cell=target_cell,
                            resistance=1.0)
        self.netlist: ColumnNetlist = build_column(self.tech, defect)
        self._sn = self.netlist.storage_node(target_cell)
        self._system = System(self.netlist.circuit)
        self._lanes: LaneSystem | None = None

    def set_stress(self, stress: StressConditions) -> None:
        self.stress = stress

    def run_sequences(self, ops, lanes_in, background: int = 0
                      ) -> tuple[list, dict[str, int]]:
        """Apply one operation sequence to every ``(resistance, init_vc)``
        lane.

        Returns ``(results, counters)`` where ``results[k]`` is the
        lane's :class:`SequenceResult`, or ``None`` when that lane was
        isolated mid-batch, and ``counters`` is the lane bookkeeping for
        :mod:`repro.diagnostics`.
        """
        if isinstance(ops, str):
            ops = parse_ops(ops)
        ops = [Op.parse(o) if isinstance(o, str) else o for o in ops]
        n = len(lanes_in)
        counters = {"lanes_launched": n, "lanes_isolated": 0,
                    "lanes_converged": 0, "lane_continuation_hits": 0}
        # Active lanes, compressed as lanes get isolated: positions into
        # the caller's lane list.
        active = list(range(n))
        states = [
            column_idle_state(self.netlist, self.tech, self.stress,
                              self.target_cell, init_vc,
                              background=background)
            for _, init_vc in lanes_in]
        x2 = _stack_states(self.netlist.circuit, self._system, states)
        per_lane_ops: list[list[OpResult]] = [[] for _ in range(n)]

        dt = self.stress.tcyc * self.tech.dt_frac
        num_nodes = self._system.num_nodes
        for op in ops:
            if not active:
                break
            self._lanes = lanes = _lane_system(
                self._lanes, self._system,
                [lanes_in[k][0] for k in active])
            plan = plan_cycle(op, self.stress, self.tech, self.target_cell)
            self.netlist.set_waveforms(plan.waveforms)
            batch = lane_transient(lanes, self.stress.tcyc, dt,
                                   temp_c=self.stress.temp_c,
                                   method="be", x0=x2)
            _add_batch_counters(counters, batch.counters)
            survivors = []
            x_rows = []
            for pos, res in zip(active, batch.results):
                if res is None:
                    per_lane_ops[pos] = None
                    continue
                sensed = None
                if op.operation is Operation.R:
                    sensed = 1 if res.at("dout", plan.t_sample) > \
                        0.5 * self.stress.vdd else 0
                per_lane_ops[pos].append(
                    OpResult(op=op, vc_end=res.final(self._sn),
                             sensed=sensed))
                survivors.append(pos)
                x_rows.append(res.final_x)
            active = survivors
            if not active:
                break
            # Cycle chaining mirrors the per-lane path's final_state()
            # round trip: node voltages carry over, branch currents
            # restart at zero.
            x2 = np.zeros((len(active), self._system.size))
            for j, row in enumerate(x_rows):
                x2[j, :num_nodes] = row[:num_nodes]

        counters["lanes_converged"] = len(active)
        results = [
            SequenceResult(ops=ops, results=lane_ops)
            if lane_ops is not None else None
            for lane_ops in per_lane_ops]
        return results, counters


# ----------------------------------------------------------------------
# array-scale activation workloads
# ----------------------------------------------------------------------
#: Fraction of the cycle an array activation spends precharging before
#: the addressed word line fires.
ARRAY_PRE_FRAC = 0.2

#: Rise/fall time of the array control edges (seconds).
ARRAY_EDGE = 0.5e-9


class ArrayRunner:
    """Apply activation cycles to one victim cell of an R×C array.

    The array-scale counterpart of :class:`ColumnRunner` for the
    workloads an array without a sense path can express: ``r`` cycles
    (precharge the bit lines, fire the addressed row, observe the
    charge sharing and the defect's disturbance of the victim) and
    ``nop`` cycles (idle retention).  Write cycles need the column's
    write drivers and raise.

    The netlist is built through the trim layer
    (:func:`repro.dram.trim.trim_array`): ``trim=None`` follows the
    process-wide policy, ``"off"`` keeps the full array, ``"auto"`` /
    ``"force"`` simulate only the accessed row/column plus the defect
    neighborhood with boundary loads standing in for the pruned rest.

    Parameters
    ----------
    geometry:
        ``(rows, cols)`` of the logical array.
    address:
        Accessed ``(row, col)``; defaults to the defective cell's own
        position (the standard victim-activation scenario).
    defect:
        Optional injected :class:`~repro.dram.column.DefectSite` with
        the cell index flattened row-major over the geometry.
    trim:
        Trim policy (see :mod:`repro.dram.trim`).
    """

    def __init__(self, *, tech: TechnologyParams | None = None,
                 stress: StressConditions = NOMINAL_STRESS,
                 defect: DefectSite | None = None,
                 geometry: tuple[int, int] = (4, 4),
                 address: tuple[int, int] | None = None,
                 trim: str | None = None,
                 halo: int = 1,
                 record: bool = False):
        from repro.dram.trim import default_address, trim_array
        rows, cols = geometry
        self.tech = tech or default_tech()
        self.stress = stress
        self.rows = int(rows)
        self.cols = int(cols)
        if address is None:
            address = default_address(self.rows, self.cols, defect)
        self.address = (int(address[0]), int(address[1]))
        self.record = record
        self.netlist = trim_array(self.rows, self.cols, self.tech, defect,
                                  address=self.address, policy=trim,
                                  halo=halo)
        if defect is not None:
            self.victim = divmod(defect.cell, self.cols)
        else:
            self.victim = self.address
        self._victim_idx = self.victim[0] * self.cols + self.victim[1]
        self._sn = self.netlist.storage_node(*self.victim)
        self._system: System | None = None
        self._prefixes: dict = {}

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def set_stress(self, stress: StressConditions) -> None:
        if stress != self.stress:
            self.stress = stress
            self._prefixes.clear()

    def set_defect_resistance(self, resistance: float) -> None:
        if resistance == self.netlist.defect_resistance:
            return
        self.netlist.set_defect_resistance(resistance)
        # Values changed in place: compiled plans/factorizations are
        # stale, so the system is rebuilt lazily.
        self._system = None
        self._prefixes.clear()

    @property
    def defect(self) -> DefectSite | None:
        return self.netlist.defect

    @property
    def trimmed(self) -> bool:
        """Did the trim layer actually prune this netlist?"""
        return getattr(self.netlist.circuit, "trimmed", False)

    # ------------------------------------------------------------------
    # state and stimulus
    # ------------------------------------------------------------------
    def idle_state(self, init_vc: float,
                   background: int = 0) -> dict[str, float]:
        """Node voltages of a quiescent array before the first cycle.

        Bit lines rest at the precharge level, word lines low, every
        storage node at the logical ``background`` value — except the
        victim, which holds the physical ``init_vc``.  Works on full
        and trimmed netlists alike (pruned nodes simply do not appear).
        """
        vdd = self.stress.vdd
        vpre = self.tech.vbl_pre(vdd)
        vbg = float(background) * vdd
        state: dict[str, float] = {"vdd": vdd, "vpre": vpre}
        for name in self.netlist.circuit.node_names:
            if name.startswith("sn"):
                state[name] = vbg
            elif name.startswith("bl") or name.startswith("d_int"):
                state[name] = vpre
            elif name.startswith("s_int"):
                state[name] = vbg
        state[self._sn] = float(init_vc)
        if self.netlist.circuit.has_node(f"s_int{self._victim_idx}"):
            state[f"s_int{self._victim_idx}"] = float(init_vc)
        return state

    def cycle_waveforms(self, op: Op) -> tuple[dict, float]:
        """Control waveforms for one cycle plus the sense-sample time.

        An active (``r``) cycle precharges for ``ARRAY_PRE_FRAC`` of
        the stress cycle time, then fires the addressed word line for
        a window scaled by the stress duty cycle — so every ST axis
        (tcyc, duty, T through the simulation, Vdd through the rails
        and boosted levels) stresses the array exactly as it does the
        column.  A ``nop`` cycle holds every control low (retention).
        """
        tcyc = self.stress.tcyc
        vdd = self.stress.vdd
        vpp = self.tech.vpp(vdd)
        t_pre = ARRAY_PRE_FRAC * tcyc
        waves: dict = {"v_vdd": Constant(vdd),
                       "v_pre": Constant(self.tech.vbl_pre(vdd))}
        active = op.operation is Operation.R
        t_act = self.stress.duty * (tcyc - t_pre - 2.0 * ARRAY_EDGE)
        if active:
            waves["v_eq"] = Pulse(vpp, 0.0, delay=t_pre, rise=ARRAY_EDGE,
                                  fall=ARRAY_EDGE, width=10.0)
        else:
            waves["v_eq"] = Constant(0.0)
        for r in range(self.rows):
            if active and r == self.address[0]:
                waves[f"v_wl{r}"] = Pulse(0.0, vpp,
                                          delay=t_pre + ARRAY_EDGE,
                                          rise=ARRAY_EDGE,
                                          fall=ARRAY_EDGE, width=t_act)
            else:
                waves[f"v_wl{r}"] = Constant(0.0)
        t_sample = t_pre + 2.0 * ARRAY_EDGE + t_act
        return waves, t_sample

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_op(self, op: Op | str, state: dict[str, float]
               ) -> tuple[OpResult, dict[str, float]]:
        """Apply one cycle starting from ``state``."""
        if isinstance(op, str):
            op = Op.parse(op)
        if op.operation.is_write:
            raise NetlistError(
                "the array model has no write path; express array "
                "workloads with r/nop cycles (initial data comes from "
                "init_vc/background)")
        waves, t_sample = self.cycle_waveforms(op)
        self.netlist.set_waveforms(waves)
        dt = self.stress.tcyc * self.tech.dt_frac
        if self._system is None and kernels_enabled():
            self._system = System(self.netlist.circuit)
        res = transient(self.netlist.circuit, self.stress.tcyc, dt,
                        temp_c=self.stress.temp_c, initial=state,
                        system=self._system)
        new_state = res.final_state()

        sensed = None
        if op.operation is Operation.R:
            head = f"bl{self.address[1]}_0"
            sensed = 1 if res.at(head, t_sample) > \
                self.tech.vbl_pre(self.stress.vdd) else 0

        result = OpResult(op=op, vc_end=res.final(self._sn), sensed=sensed)
        if self.record:
            result.times = res.time
            result.vc = res.v(self._sn)
            result.extra = {"bl": res.v(f"bl{self.address[1]}_0")}
        return result, new_state

    def run_sequence(self, ops, init_vc: float, background: int = 0
                     ) -> SequenceResult:
        """Apply a whole cycle sequence from a fresh idle state (prefix
        memo as in :meth:`ColumnRunner.run_sequence`)."""
        return run_memoized(self, self._prefixes, ops, init_vc, background)


class ArrayLaneRunner:
    """Run one array cycle sequence over many ``Rop`` lanes at once.

    The array-scale counterpart of :class:`LaneRunner`: one (optionally
    trimmed) array netlist built around a placeholder defect, one
    compiled :class:`System` template, and a lane system whose per-lane
    statics carry the swept defect resistances — dense or sparse
    depending on what the backend policy resolves for this netlist
    (:func:`~repro.spice.lanes.make_lane_system`).  Because the
    template is compiled once, a BR bisection stops paying the
    netlist-build + plan-compile cost per probe that the serial
    :class:`ArrayRunner` path incurs through
    :meth:`ArrayRunner.set_defect_resistance`.

    A :class:`~repro.spice.lanes.LaneWarmBank` carries quasi-Newton
    factorizations and trajectories across successive batches (the
    *generations* of a bisection), warm-starting each new lane from its
    nearest converged log-R neighbour.  The bank is cleared on stress
    changes — a new stress moves every waveform and time grid, so
    nothing stored remains commensurable.
    """

    def __init__(self, *, tech: TechnologyParams | None = None,
                 stress: StressConditions = NOMINAL_STRESS,
                 defect_kind: str = "open_sn",
                 cell: int = 0,
                 geometry: tuple[int, int] = (4, 4),
                 address: tuple[int, int] | None = None,
                 trim: str | None = None,
                 record: bool = False):
        defect = DefectSite(kind=defect_kind, cell=cell, resistance=1.0)
        self._runner = ArrayRunner(tech=tech, stress=stress, defect=defect,
                                   geometry=geometry, address=address,
                                   trim=trim, record=record)
        self.tech = self._runner.tech
        self.stress = stress
        self.record = record
        self._system = System(self._runner.netlist.circuit)
        self._lanes: LaneSystem | None = None
        self._bank = LaneWarmBank()

    @property
    def trimmed(self) -> bool:
        return self._runner.trimmed

    def set_stress(self, stress: StressConditions) -> None:
        if stress != self.stress:
            self.stress = stress
            self._runner.set_stress(stress)
            self._bank.clear()

    def run_sequences(self, ops, lanes_in, background: int = 0
                      ) -> tuple[list, dict[str, int]]:
        """Apply one cycle sequence to every ``(resistance, init_vc)``
        lane.

        Same contract as :meth:`LaneRunner.run_sequences`: returns
        ``(results, counters)`` with ``None`` for isolated lanes, which
        the batch executor re-runs on the serial :class:`ArrayRunner`
        path.
        """
        if isinstance(ops, str):
            ops = parse_ops(ops)
        ops = [Op.parse(o) if isinstance(o, str) else o for o in ops]
        for op in ops:
            if op.operation.is_write:
                raise NetlistError(
                    "the array model has no write path; express array "
                    "workloads with r/nop cycles (initial data comes "
                    "from init_vc/background)")
        runner = self._runner
        n = len(lanes_in)
        counters = {"lanes_launched": n, "lanes_isolated": 0,
                    "lanes_converged": 0, "lane_continuation_hits": 0,
                    "lane_warm_start_hits": 0, "lane_warm_start_misses": 0}
        active = list(range(n))
        states = [runner.idle_state(init_vc, background=background)
                  for _, init_vc in lanes_in]
        x2 = _stack_states(runner.netlist.circuit, self._system, states)
        per_lane_ops: list = [[] for _ in range(n)]

        dt = self.stress.tcyc * self.tech.dt_frac
        num_nodes = self._system.num_nodes
        sn = runner._sn
        head = f"bl{runner.address[1]}_0"
        vpre = self.tech.vbl_pre(self.stress.vdd)
        for oi, op in enumerate(ops):
            if not active:
                break
            self._lanes = lanes = _lane_system(
                self._lanes, self._system,
                [lanes_in[k][0] for k in active])
            waves, t_sample = runner.cycle_waveforms(op)
            runner.netlist.set_waveforms(waves)
            key = (oi, op.operation)
            hits, misses = self._bank.seed(key, lanes)
            counters["lane_warm_start_hits"] += hits
            counters["lane_warm_start_misses"] += misses
            batch = lane_transient(lanes, self.stress.tcyc, dt,
                                   temp_c=self.stress.temp_c,
                                   method="be", x0=x2,
                                   warm=self._bank.view(key))
            _add_batch_counters(counters, batch.counters)
            survivors = []
            x_rows = []
            for row, (pos, res) in enumerate(zip(active, batch.results)):
                if res is None:
                    per_lane_ops[pos] = None
                    continue
                self._bank.store(key, lanes, row, res)
                sensed = None
                if op.operation is Operation.R:
                    sensed = 1 if res.at(head, t_sample) > vpre else 0
                result = OpResult(op=op, vc_end=res.final(sn),
                                  sensed=sensed)
                if self.record:
                    result.times = res.time
                    result.vc = res.v(sn)
                    result.extra = {"bl": res.v(head)}
                per_lane_ops[pos].append(result)
                survivors.append(pos)
                x_rows.append(res.final_x)
            active = survivors
            if not active:
                break
            # Cycle chaining mirrors ArrayRunner's final_state() round
            # trip: node voltages carry over, branch currents restart
            # at zero.
            x2 = np.zeros((len(active), self._system.size))
            for j, row in enumerate(x_rows):
                x2[j, :num_nodes] = row[:num_nodes]

        counters["lanes_converged"] = len(active)
        results = [
            SequenceResult(ops=ops, results=lane_ops)
            if lane_ops is not None else None
            for lane_ops in per_lane_ops]
        return results, counters
