"""Operation-level drivers of the electrical DRAM models.

A runner applies ``w0``/``w1``/``r``/``nop`` cycles to a target cell of
a built netlist (the paper's column, or an R×C array), carrying the
full node state from cycle to cycle — the electrical-simulation
workhorse behind every result plane in the paper.

Four entry points share two bodies.  :class:`CycleRunner` is the serial
cycle body of :class:`ColumnRunner` and :class:`ArrayRunner`;
:class:`LaneLoop` runs one sequence over many ``Rop`` lanes of a serial
*template* runner for :class:`LaneRunner` and :class:`ArrayLaneRunner`.
The four names stay because the end-to-end benchmark binds them: its
trace wraps each class's own ``__init__`` and ``run_sequence(s)`` (and
``transient`` / ``lane_transient`` as globals of this module), and its
workloads construct ``ColumnRunner`` and ``LaneRunner``.  One runner
class waits until that harness binds layer roles instead (ROADMAP, "Let
the benchmark follow refactors").
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
from repro.spice.transient import TransientResult, transient
from repro.spice.waveforms import Constant, Pulse


class CycleRunner:
    """The serial cycle body of :class:`ColumnRunner` and
    :class:`ArrayRunner`.

    It owns the staging (stress, defect resistance, the prefix memo of
    ``run_sequence``, the lazily compiled :class:`System`) and one
    cycle: stimulus, :func:`transient`, :meth:`observe`.  A topology
    sets ``netlist``, ``_sn`` (the target's storage node) and
    ``_recorded`` (label → node of the waveforms kept when ``record``
    is set), and defines ``idle_state``, ``stimulus(op) -> (waveforms,
    t_sample)`` and ``sense(res, t_sample) -> bit``.  Each subclass
    binds :meth:`run_sequence` in its own body too, since the end-to-end
    trace wraps every class's own attribute.
    """

    def __init__(self, tech: TechnologyParams | None,
                 stress: StressConditions, record: bool):
        self.tech = tech or default_tech()
        self.stress = stress
        self.record = record
        self._system: System | None = None
        self._prefixes: dict = {}

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

    def run_op(self, op: Op | str, state: dict[str, float],
               cell: int | None = None
               ) -> tuple[OpResult, dict[str, float]]:
        """Apply one operation cycle starting from ``state``.

        ``cell`` (column only) overrides the addressed cell for this
        cycle — coupling analysis uses this to drive an *aggressor*
        cell while the defective victim floats.  The reported
        ``vc_end`` always tracks the runner's target cell.

        Returns the observed :class:`OpResult` and the node state at the
        end of the cycle (input to the next operation).
        """
        if isinstance(op, str):
            op = Op.parse(op)
        waves, t_sample = (self.stimulus(op) if cell is None
                           else self.stimulus(op, cell))
        self.netlist.set_waveforms(waves)
        dt = self.stress.tcyc * self.tech.dt_frac
        if self._system is None:
            self._system = System(self.netlist.circuit)
        res = transient(self.netlist.circuit, self.stress.tcyc, dt,
                        temp_c=self.stress.temp_c, initial=state,
                        system=self._system)
        return self.observe(op, res, t_sample), res.final_state()

    def observe(self, op: Op, res: TransientResult,
                t_sample: float | None) -> OpResult:
        """The :class:`OpResult` of one simulated cycle: the target's
        end voltage, the sensed bit of a read, and the recorded
        waveforms when ``record`` is set.  Serial and lane cycles both
        end here."""
        sensed = (self.sense(res, t_sample)
                  if op.operation is Operation.R else None)
        result = OpResult(op=op, vc_end=res.final(self._sn), sensed=sensed)
        if self.record:
            result.times = res.time
            result.vc = res.v(self._sn)
            result.extra = {label: res.v(node)
                            for label, node in self._recorded.items()}
        return result

    def run_sequence(self, ops, init_vc: float, background: int = 0
                     ) -> SequenceResult:
        """Apply a whole operation sequence from a fresh idle state,
        resuming from the longest prefix already simulated at this
        resistance and SC (:func:`~repro.dram.ops.run_memoized`).

        ``ops`` may be a string (``"w1 w1 w0 r0"``), or a list of
        :class:`Op`.
        """
        return run_memoized(self, self._prefixes, ops, init_vc, background)


class ColumnRunner(CycleRunner):
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

    _recorded = {"blt": "blt", "blc": "blc", "dout": "dout"}

    def __init__(self, *, tech: TechnologyParams | None = None,
                 stress: StressConditions = NOMINAL_STRESS,
                 defect: DefectSite | None = None,
                 target_cell: int = 0,
                 record: bool = False):
        super().__init__(tech, stress, record)
        self.target_cell = target_cell
        self.netlist: ColumnNetlist = build_column(self.tech, defect)
        self._sn = self.netlist.storage_node(target_cell)

    @property
    def target_on_true(self) -> bool:
        return self.target_cell % 2 == 0

    def idle_state(self, vc_target: float,
                   background: int = 0) -> dict[str, float]:
        """Node voltages of a quiescent column before the first cycle.

        ``vc_target`` is the *physical* storage-node voltage of the target
        cell (the paper's ``Vc``); the other cells hold the logical
        ``background`` value through the differential write convention.
        """
        vdd = self.stress.vdd
        vpre = self.tech.vbl_pre(vdd)
        v_ref = self.tech.v_ref(vdd, self.stress.temp_c)
        state = {
            "blt": vpre, "blc": vpre,
            "san": vpre, "sap": vpre,
            "snd_t": v_ref, "snd_c": v_ref,
            "dx": 0.0, "doutb": vdd, "dout": 0.0,
            "vdd": vdd, "vref": v_ref,
            "vpre": vpre,
        }
        for i in range(self.tech.num_wordlines):
            on_true = i % 2 == 0
            physical = background if on_true else 1 - background
            state[f"sn{i}"] = float(physical) * vdd
        state[self._sn] = float(vc_target)
        # Internal defect nodes start at their neighbour's level.
        if self.netlist.circuit.has_node(f"s_int{self.target_cell}"):
            state[f"s_int{self.target_cell}"] = float(vc_target)
        return state

    def stimulus(self, op: Op, cell: int | None = None
                 ) -> tuple[dict, float | None]:
        """Control waveforms of one cycle addressed at ``cell`` (the
        target by default) plus the sense-sample time
        (:func:`~repro.dram.timing.plan_cycle`)."""
        plan = plan_cycle(op, self.stress, self.tech,
                          self.target_cell if cell is None else cell)
        return plan.waveforms, plan.t_sample

    def sense(self, res: TransientResult, t_sample: float) -> int:
        """A read returns 1 when the data output is above ``Vdd/2``."""
        return 1 if res.at("dout", t_sample) > 0.5 * self.stress.vdd else 0

    run_sequence = CycleRunner.run_sequence


# ----------------------------------------------------------------------
# array-scale activation workloads
# ----------------------------------------------------------------------
#: Fraction of the cycle an array activation spends precharging before
#: the addressed word line fires.
ARRAY_PRE_FRAC = 0.2

#: Rise/fall time of the array control edges (seconds).
ARRAY_EDGE = 0.5e-9


class ArrayRunner(CycleRunner):
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
        super().__init__(tech, stress, record)
        rows, cols = geometry
        self.rows = int(rows)
        self.cols = int(cols)
        if address is None:
            address = default_address(self.rows, self.cols, defect)
        self.address = (int(address[0]), int(address[1]))
        self.netlist = trim_array(self.rows, self.cols, self.tech, defect,
                                  address=self.address, policy=trim,
                                  halo=halo)
        if defect is not None:
            self.victim = divmod(defect.cell, self.cols)
        else:
            self.victim = self.address
        self._victim_idx = self.victim[0] * self.cols + self.victim[1]
        self._sn = self.netlist.storage_node(*self.victim)
        # Head of the accessed bit line: sensed and recorded.
        self._head = f"bl{self.address[1]}_0"
        self._recorded = {"bl": self._head}

    @property
    def trimmed(self) -> bool:
        """Did the trim layer actually prune this netlist?"""
        return getattr(self.netlist.circuit, "trimmed", False)

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

    def stimulus(self, op: Op) -> tuple[dict, float]:
        """Control waveforms for one cycle plus the sense-sample time.

        An active (``r``) cycle precharges for ``ARRAY_PRE_FRAC`` of
        the stress cycle time, then fires the addressed word line for
        a window scaled by the stress duty cycle — so every ST axis
        (tcyc, duty, T through the simulation, Vdd through the rails
        and boosted levels) stresses the array exactly as it does the
        column.  A ``nop`` cycle holds every control low (retention).
        A write raises :class:`NetlistError`.
        """
        if op.operation.is_write:
            raise NetlistError(
                "the array model has no write path; express array "
                "workloads with r/nop cycles (initial data comes from "
                "init_vc/background)")
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

    def sense(self, res: TransientResult, t_sample: float) -> int:
        """A read returns 1 when the accessed bit line's head is above
        the precharge level."""
        return 1 if res.at(self._head, t_sample) > \
            self.tech.vbl_pre(self.stress.vdd) else 0

    run_sequence = CycleRunner.run_sequence


class LaneLoop:
    """The lane loop of :class:`LaneRunner` and :class:`ArrayLaneRunner`.

    Runs one operation sequence over many ``(resistance, init_vc)``
    lanes of a serial *template* runner built at a placeholder
    resistance: one compiled :class:`System`, and a
    :class:`~repro.spice.lanes.LaneSystem` whose per-lane statics carry
    the swept resistances.  Idle states, stimuli and every converged
    cycle's :meth:`CycleRunner.observe` come from the template.  Lanes
    that fail the batched Newton loop come back as ``None`` for the
    caller — typically the batch executor — to re-run on the serial
    path with its full rescue ladder.
    """

    #: Cross-batch warm starts; only :class:`ArrayLaneRunner` keeps one.
    _bank: LaneWarmBank | None = None

    def __init__(self, template: CycleRunner):
        self._runner = template
        self.tech = template.tech
        self._system = System(template.netlist.circuit)
        self._lanes: LaneSystem | None = None

    @property
    def stress(self) -> StressConditions:
        return self._runner.stress

    def set_stress(self, stress: StressConditions) -> None:
        if stress != self._runner.stress:
            self._runner.set_stress(stress)
            if self._bank is not None:
                self._bank.clear()

    def run_sequences(self, ops, lanes_in, background: int = 0
                      ) -> tuple[list, dict[str, int]]:
        """Apply one operation sequence to every ``(resistance, init_vc)``
        lane.

        Returns ``(results, counters)`` where ``results[k]`` is the
        lane's :class:`SequenceResult`, or ``None`` when that lane was
        isolated mid-batch, and ``counters`` is the lane bookkeeping for
        :mod:`repro.diagnostics` (plus the warm bank's hits and misses
        on array lanes).  Each subclass binds this method in its own
        body too, since the end-to-end trace wraps every class's own
        attribute.
        """
        runner = self._runner
        bank = self._bank
        if isinstance(ops, str):
            ops = parse_ops(ops)
        ops = [Op.parse(o) if isinstance(o, str) else o for o in ops]
        # Every cycle's stimulus before the first lane transient: an
        # array write anywhere in the sequence raises before any lane
        # simulates.
        stimuli = [runner.stimulus(op) for op in ops]
        n = len(lanes_in)
        counters = {"lanes_launched": n, "lanes_isolated": 0,
                    "lanes_converged": 0, "lane_continuation_hits": 0}
        if bank is not None:
            counters.update(lane_warm_start_hits=0,
                            lane_warm_start_misses=0)
        system = self._system
        circuit = runner.netlist.circuit
        x2 = np.zeros((n, system.size))
        for k, (_, init_vc) in enumerate(lanes_in):
            state = runner.idle_state(init_vc, background=background)
            for name, volts in state.items():
                x2[k, circuit.node(name).index] = float(volts)
        # Active lanes, compressed as lanes get isolated: positions into
        # the caller's lane list.
        active = list(range(n))
        per_lane_ops: list = [[] for _ in range(n)]

        stress = runner.stress
        dt = stress.tcyc * runner.tech.dt_frac
        num_nodes = system.num_nodes
        for oi, (op, (waves, t_sample)) in enumerate(zip(ops, stimuli)):
            if not active:
                break
            resistances = [lanes_in[k][0] for k in active]
            if self._lanes is None:
                self._lanes = make_lane_system(system, resistances,
                                               DEFECT_DEVICE)
            elif self._lanes.resistances != tuple(
                    float(r) for r in resistances):
                self._lanes.set_resistances(resistances)
            lanes = self._lanes
            runner.netlist.set_waveforms(waves)
            warm = None
            if bank is not None:
                key = (oi, op.operation)
                hits, misses = bank.seed(key, lanes)
                counters["lane_warm_start_hits"] += hits
                counters["lane_warm_start_misses"] += misses
                warm = bank.view(key)
            batch = lane_transient(lanes, stress.tcyc, dt,
                                   temp_c=stress.temp_c, method="be",
                                   x0=x2, warm=warm)
            for name, value in batch.counters.items():
                # Launched and converged lanes count per sequence, not
                # per batch.
                if name not in ("lanes_launched", "lanes_converged"):
                    counters[name] = counters.get(name, 0) + value
            survivors, x_rows = [], []
            for row, (pos, res) in enumerate(zip(active, batch.results)):
                if res is None:
                    per_lane_ops[pos] = None
                    continue
                if bank is not None:
                    bank.store(key, lanes, row, res)
                per_lane_ops[pos].append(runner.observe(op, res, t_sample))
                survivors.append(pos)
                x_rows.append(res.final_x)
            active = survivors
            # Cycle chaining mirrors the serial path's final_state()
            # round trip: node voltages carry over, branch currents
            # restart at zero.
            x2 = np.zeros((len(active), system.size))
            for j, row in enumerate(x_rows):
                x2[j, :num_nodes] = row[:num_nodes]

        counters["lanes_converged"] = len(active)
        results = [
            SequenceResult(ops=ops, results=lane_ops)
            if lane_ops is not None else None
            for lane_ops in per_lane_ops]
        return results, counters


class LaneRunner(LaneLoop):
    """Run one column operation sequence over many ``Rop`` lanes at once.

    The multi-lane counterpart of :class:`ColumnRunner`, over a
    :class:`ColumnRunner` template at a placeholder resistance.  Column
    lanes keep no warm bank: seeding them from one would change their
    chord iteration path, so their trajectories could move within the
    lane tolerance.
    """

    def __init__(self, *, tech: TechnologyParams | None = None,
                 stress: StressConditions = NOMINAL_STRESS,
                 defect_kind: str = "open_sn",
                 target_cell: int = 0):
        # Placeholder resistance: the lanes re-value the device span.
        defect = DefectSite(kind=defect_kind, cell=target_cell,
                            resistance=1.0)
        super().__init__(ColumnRunner(tech=tech, stress=stress,
                                      defect=defect,
                                      target_cell=target_cell))

    run_sequences = LaneLoop.run_sequences


class ArrayLaneRunner(LaneLoop):
    """Run one array cycle sequence over many ``Rop`` lanes at once.

    The array-scale counterpart of :class:`LaneRunner`, over an
    (optionally trimmed) :class:`ArrayRunner` template built around a
    placeholder defect.  Its lane system is dense or sparse depending
    on what the backend policy resolves for this netlist
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
        super().__init__(ArrayRunner(tech=tech, stress=stress,
                                     defect=defect, geometry=geometry,
                                     address=address, trim=trim,
                                     record=record))
        self._bank = LaneWarmBank()

    @property
    def record(self) -> bool:
        return self._runner.record

    @property
    def trimmed(self) -> bool:
        return self._runner.trimmed

    run_sequences = LaneLoop.run_sequences
