"""Active-window netlist trimming for R×C arrays with boundary loads.

A full :func:`~repro.dram.array.build_array` netlist carries ``3·R·C``
cell nodes plus every word-/bit-line RC ladder — 787 MNA unknowns at
16×16, which even the sparse backend pays for on every Newton step.  An
activation-style workload only ever *exercises* the accessed row and
column (plus the injected defect's neighborhood); everything else is
dead weight.  This module trims the netlist to that active window, the
OpenRAM/OpenNVRAM characterizer move ("trim the netlist to remove
unnecessary logic"), while replacing every pruned device with an
aggregated boundary load so the kept nodes see the same electrical
environment.

Why the trim is (near-)exact in this device model
-------------------------------------------------
* MOSFET gates draw no current — the level-1 stamp adds the
  transconductance to the drain/source KCL rows only, so a word line is
  loaded purely by its explicit (linear) tap and gate capacitors.  A
  pruned cell on a kept word line therefore reduces *exactly* to its
  gate capacitance, folded into the tap's boundary capacitor.
* Unselected word lines are driven by ``Constant(0.0)`` sources and
  start at 0 V, so their whole RC ladder sits at 0 V for all time and
  every access transistor on a pruned row stays in its off state.
  Pruning the ladder is exact; the off transistor's residual
  sub-threshold leak into a kept bit line is replaced by an aggregated
  boundary conductance linearised at the precharge operating point
  (:func:`pruned_cell_conductance`, ~1e-19 S for the shared synthetic
  technology — bounded in DESIGN.md §5g).
* Supply, precharge and equalise rails are ideal voltage sources;
  removing their pruned loads cannot move any kept node.

The only approximation is the off-state leak linearisation, so trimmed
and full trajectories agree to solver round-off (measured ~1e-12 V,
see ``reports/trim.txt``) and border-resistance searches land within
the documented 1e-5 lane tolerance.

Policy
------
``trim="off"`` always builds the full array (the parity baseline);
``"force"`` always trims; ``"auto"`` (the default) trims only when the
plan actually prunes cells.  The process-wide default
(:func:`set_trim_default`, CLI ``--trim``) feeds :class:`~repro.engine.request.SequenceRequest`
construction; the policy is part of the request's content hash, so
trimmed and full results can never collide in the cache or the sharded
store.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.array import (DEFAULT_C_WL, DEFAULT_R_BL, DEFAULT_R_WL,
                              ArrayNetlist, build_array)
from repro.dram.column import DEFECT_DEVICE, DefectSite
from repro.dram.tech import TechnologyParams, default_tech
from repro.spice.devices import Capacitor, Resistor, VoltageSource, Diode
from repro.spice.errors import NetlistError
from repro.spice.mosfet import Mosfet, mosfet_curves
from repro.spice.netlist import Circuit
from repro.spice.waveforms import Constant

__all__ = [
    "TRIM_CHOICES", "TrimPlan", "TrimmedArrayNetlist", "plan_trim",
    "build_trimmed_array", "trim_array", "default_address",
    "pruned_cell_conductance", "set_trim_default", "trim_default",
    "resolve_trim",
]

#: Valid values of the trim policy (also the CLI ``--trim`` choices).
TRIM_CHOICES = ("off", "auto", "force")

#: Boundary conductances below this are not worth a device stamp: the
#: solver's gmin regularisation (1e-12 S) dwarfs them by seven orders
#: of magnitude either way.
MIN_BOUNDARY_CONDUCTANCE = 1e-30

_TRIM_DEFAULT = "auto"


def set_trim_default(policy: str) -> str:
    """Set the process-wide trim policy (CLI ``--trim``).

    Returns the previous value.  Workers spawned by fork inherit it
    with the rest of the module state, like the solver-backend default.
    """
    global _TRIM_DEFAULT
    if policy not in TRIM_CHOICES:
        raise NetlistError(
            f"unknown trim policy {policy!r}; choose one of "
            f"{', '.join(TRIM_CHOICES)}")
    previous = _TRIM_DEFAULT
    _TRIM_DEFAULT = policy
    return previous


def trim_default() -> str:
    """Current process-wide trim policy."""
    return _TRIM_DEFAULT


def resolve_trim(policy: str | None) -> str:
    """Validate a trim policy request (``None`` reads the default)."""
    if policy is None:
        return _TRIM_DEFAULT
    if policy not in TRIM_CHOICES:
        raise NetlistError(
            f"unknown trim policy {policy!r}; choose one of "
            f"{', '.join(TRIM_CHOICES)}")
    return policy


def default_address(rows: int, cols: int,
                    defect: DefectSite | None) -> tuple[int, int]:
    """The accessed (row, col) when the caller does not say: the
    defective cell's own position, or the origin for a clean array."""
    if defect is None:
        return (0, 0)
    if defect.cell >= rows * cols:
        raise NetlistError(
            f"defect cell {defect.cell} outside the {rows}x{cols} array")
    return divmod(defect.cell, cols)


@dataclass(frozen=True)
class TrimPlan:
    """Which rows/columns of an R×C array survive the trim.

    ``kept_rows``/``kept_cols`` are sorted and deduplicated; the kept
    cell set is their cross product.  The accessed address and (when a
    defect is injected) the defect's victim/aggressor neighborhood are
    kept by construction.
    """

    rows: int
    cols: int
    address: tuple[int, int]
    kept_rows: tuple[int, ...]
    kept_cols: tuple[int, ...]

    @property
    def cells_kept(self) -> int:
        return len(self.kept_rows) * len(self.kept_cols)

    @property
    def cells_pruned(self) -> int:
        return self.rows * self.cols - self.cells_kept

    def keeps_row(self, row: int) -> bool:
        return row in self.kept_rows

    def keeps_col(self, col: int) -> bool:
        return col in self.kept_cols

    def keeps_cell(self, row: int, col: int) -> bool:
        return self.keeps_row(row) and self.keeps_col(col)

    def describe(self) -> str:
        return (f"{self.rows}x{self.cols} -> rows {list(self.kept_rows)} "
                f"x cols {list(self.kept_cols)} "
                f"({self.cells_kept}/{self.rows * self.cols} cells kept)")


def plan_trim(rows: int, cols: int, address: tuple[int, int],
              defect: DefectSite | None = None, *,
              halo: int = 1) -> TrimPlan:
    """Plan the active window: accessed row/column plus defect halo.

    ``halo`` rows/columns are kept on each side of the defective cell
    so bridge-class defects see their victim/aggressor neighbors; the
    accessed address itself is always kept.
    """
    if rows < 1 or cols < 1:
        raise NetlistError("array needs at least one row and one column")
    if halo < 0:
        raise NetlistError("trim halo must be >= 0")
    arow, acol = address
    if not (0 <= arow < rows and 0 <= acol < cols):
        raise NetlistError(
            f"address ({arow}, {acol}) outside the {rows}x{cols} array")
    kept_rows = {arow}
    kept_cols = {acol}
    if defect is not None:
        if defect.cell >= rows * cols:
            raise NetlistError(
                f"defect cell {defect.cell} outside the "
                f"{rows}x{cols} array")
        drow, dcol = divmod(defect.cell, cols)
        for d in range(-halo, halo + 1):
            if 0 <= drow + d < rows:
                kept_rows.add(drow + d)
            if 0 <= dcol + d < cols:
                kept_cols.add(dcol + d)
    return TrimPlan(rows=rows, cols=cols, address=(arow, acol),
                    kept_rows=tuple(sorted(kept_rows)),
                    kept_cols=tuple(sorted(kept_cols)))


def pruned_cell_conductance(tech: TechnologyParams, *,
                            temp_c: float = 27.0) -> float:
    """Equivalent leakage conductance of one pruned off-state cell.

    Linearises the access transistor at the operating region a pruned
    cell actually sits in — word line at 0 V, bit line precharged,
    storage node at ground background — and returns the secant
    conductance ``I_off / V_ds``.  This is the load a kept bit line
    loses when the cell behind one of its taps is pruned.
    """
    vds = tech.vbl_pre(tech.vdd_nom)
    if vds <= 0:
        return 0.0
    ids, _gm, _gds = mosfet_curves(
        tech.access_params, tech.access_w / tech.access_l,
        vgs=0.0, vds=vds, temp_c=temp_c)
    return max(ids, 0.0) / vds


@dataclass
class TrimmedArrayNetlist(ArrayNetlist):
    """A trimmed array: full-geometry addressing over kept nodes only.

    ``rows``/``cols`` stay the *logical* geometry (cell indices, tap
    names and waveform keys match the full array), but only the nodes
    of the :class:`TrimPlan` exist.  Asking for a pruned cell's storage
    node or tap raises; reprogramming waveforms silently drops the
    constant-0 waves of pruned word lines and refuses anything that
    would actually drive a pruned row — firing a word line outside the
    active window is a trim violation, not a quiet wrong answer.
    """

    plan: TrimPlan = None  # always passed; dataclass needs a default
    #: Aggregated boundary-load bookkeeping (for diagnostics/reports).
    boundary_caps: int = 0
    boundary_leaks: int = 0

    def _require_kept(self, row: int, col: int) -> None:
        if not self.plan.keeps_cell(row, col):
            raise NetlistError(
                f"cell ({row}, {col}) was pruned by the trim plan "
                f"({self.plan.describe()}); use trim='off' to keep it")

    def storage_node(self, row: int, col: int) -> str:
        self.cell_index(row, col)
        self._require_kept(row, col)
        return f"sn{row}_{col}"

    def wordline_tap(self, row: int, col: int) -> str:
        self.cell_index(row, col)
        if not self.plan.keeps_row(row):
            raise NetlistError(
                f"word line {row} was pruned by the trim plan")
        return f"wl{row}_{col}"

    def bitline_tap(self, row: int, col: int) -> str:
        self.cell_index(row, col)
        if not self.plan.keeps_col(col):
            raise NetlistError(
                f"bit line {col} was pruned by the trim plan")
        return f"bl{col}_{row}"

    def set_waveforms(self, waveforms: dict) -> None:
        for name, wave in waveforms.items():
            if name not in self.circuit and name.startswith("v_wl"):
                row = name[4:]
                if row.isdigit() and int(row) < self.rows:
                    if isinstance(wave, Constant) and wave.level == 0.0:
                        continue  # pruned row held low: exactly the trim
                    raise NetlistError(
                        f"waveform for pruned word line {name!r} is not "
                        f"constant-0; widen the trim window or use "
                        f"trim='off'")
            self.source(name).waveform = wave


def build_trimmed_array(rows: int, cols: int,
                        tech: TechnologyParams | None = None,
                        defect: DefectSite | None = None, *,
                        address: tuple[int, int] | None = None,
                        halo: int = 1,
                        r_wl: float = DEFAULT_R_WL,
                        c_wl: float = DEFAULT_C_WL,
                        r_bl: float = DEFAULT_R_BL,
                        c_bl: float | None = None) -> TrimmedArrayNetlist:
    """Build the active-window netlist of an ``rows``×``cols`` array.

    Kept: the accessed row's and column's full RC ladders, every cell
    at a kept-row × kept-column crossing (defect routing identical to
    :func:`~repro.dram.array.build_array`), and the precharge periphery
    of the kept columns.  Pruned devices fold into boundary loads:

    * a pruned cell on a kept word line → its gate capacitance, added
      to the tap's shunt capacitor (``c_trimg*``);
    * a pruned cell on a kept bit line → its off-state access leak,
      aggregated into a tap-to-ground conductance (``r_trimleak*``);
    * pruned rows/columns (ladder, driver, precharge, cells) vanish —
      exactly, since nothing kept couples to them (see module docs).
    """
    tech = tech or default_tech()
    if defect is not None and defect.cell >= rows * cols:
        raise NetlistError(
            f"defect cell {defect.cell} outside the {rows}x{cols} array")
    if address is None:
        address = default_address(rows, cols, defect)
    plan = plan_trim(rows, cols, address, defect, halo=halo)
    if c_bl is None:
        c_bl = tech.cbl / rows
    if r_wl <= 0 or r_bl <= 0 or c_wl <= 0 or c_bl <= 0:
        raise NetlistError("line parasitics must be positive")

    c = Circuit(f"dram_array_{rows}x{cols}_trim")
    c.trimmed = True
    gnd = c.node("0")
    vdd = c.node("vdd")
    vpre = c.node("vpre")
    eq = c.node("eq")
    c.add(VoltageSource("v_vdd", vdd, gnd, Constant(tech.vdd_nom)))
    c.add(VoltageSource("v_pre", vpre, gnd,
                        Constant(tech.vbl_pre(tech.vdd_nom))))
    c.add(VoltageSource("v_eq", eq, gnd, Constant(0.0)))

    boundary_caps = 0
    boundary_leaks = 0

    # Kept word lines: full RC ladder; pruned cells reduce to their
    # gate capacitance at the tap (gates draw no current).
    for r in plan.kept_rows:
        drv = c.node(f"wl{r}d")
        c.add(VoltageSource(f"v_wl{r}", drv, gnd, Constant(0.0)))
        prev = drv
        for col in range(cols):
            tap = c.node(f"wl{r}_{col}")
            c.add(Resistor(f"r_wl{r}_{col}", prev, tap, r_wl))
            c.add(Capacitor(f"c_wl{r}_{col}", tap, gnd, c_wl))
            if not plan.keeps_col(col):
                c.add(Capacitor(f"c_trimg{r}_{col}", tap, gnd,
                                tech.cg_access))
                boundary_caps += 1
            prev = tap

    # Kept bit lines: precharge head + full RC ladder; pruned cells
    # (rows outside the window, always off) reduce to an aggregated
    # off-state leakage conductance at their tap.
    g_off = pruned_cell_conductance(tech)
    for col in plan.kept_cols:
        head = c.node(f"bl{col}_0")
        c.add(Mosfet(f"m_pre{col}", head, eq, vpre, tech.nmos,
                     w=tech.pre_w, l=tech.pre_l))
        c.add(Capacitor(f"c_bl{col}_0", head, gnd, c_bl))
        prev = head
        for r in range(1, rows):
            tap = c.node(f"bl{col}_{r}")
            c.add(Resistor(f"r_bl{col}_{r}", prev, tap, r_bl))
            c.add(Capacitor(f"c_bl{col}_{r}", tap, gnd, c_bl))
            prev = tap
        for r in range(rows):
            if not plan.keeps_row(r) \
                    and g_off > MIN_BOUNDARY_CONDUCTANCE:
                c.add(Resistor(f"r_trimleak{col}_{r}",
                               c.node(f"bl{col}_{r}"), gnd, 1.0 / g_off))
                boundary_leaks += 1

    # Kept cells: identical to the full builder, defect routing
    # included (the plan keeps the defective cell by construction).
    storage_nodes: list[str] = []
    for r in plan.kept_rows:
        for col in plan.kept_cols:
            idx = r * cols + col
            sn = c.node(f"sn{r}_{col}")
            wl_tap = c.node(f"wl{r}_{col}")
            bl_tap = c.node(f"bl{col}_{r}")
            here = defect is not None and defect.cell == idx
            kind = defect.kind if here else None

            if kind == "open_gate":
                gate = c.node(f"g_int{idx}")
                c.add(Resistor(DEFECT_DEVICE, wl_tap, gate,
                               defect.resistance))
            else:
                gate = wl_tap
            c.add(Capacitor(f"c_g{r}_{col}", gate, gnd, tech.cg_access))

            if kind == "open_bl":
                drain = c.node(f"d_int{idx}")
                c.add(Resistor(DEFECT_DEVICE, bl_tap, drain,
                               defect.resistance))
            else:
                drain = bl_tap

            if kind == "open_sn":
                src = c.node(f"s_int{idx}")
                c.add(Resistor(DEFECT_DEVICE, src, sn, defect.resistance))
            else:
                src = sn

            c.add(Mosfet(f"m_acc{r}_{col}", drain, gate, src,
                         tech.access_params,
                         w=tech.access_w, l=tech.access_l))
            c.add(Capacitor(f"c_s{r}_{col}", sn, gnd, tech.cs))
            c.add(Diode(f"d_leak{r}_{col}", gnd, sn, isat=tech.leak_isat,
                        temp_nom_c=tech.leak_tnom_c,
                        isat_tdouble=tech.leak_tdouble))

            if kind == "short_gnd":
                c.add(Resistor(DEFECT_DEVICE, sn, gnd, defect.resistance))
            elif kind == "short_vdd":
                c.add(Resistor(DEFECT_DEVICE, sn, vdd, defect.resistance))
            elif kind == "bridge_bl":
                c.add(Resistor(DEFECT_DEVICE, sn, bl_tap,
                               defect.resistance))
            elif kind == "bridge_wl":
                c.add(Resistor(DEFECT_DEVICE, sn, wl_tap,
                               defect.resistance))

            storage_nodes.append(sn.name)

    control_sources = (["v_vdd", "v_pre", "v_eq"]
                       + [f"v_wl{r}" for r in plan.kept_rows])
    return TrimmedArrayNetlist(
        circuit=c, tech=tech, defect=defect, rows=rows, cols=cols,
        storage_nodes=storage_nodes, control_sources=control_sources,
        plan=plan, boundary_caps=boundary_caps,
        boundary_leaks=boundary_leaks)


def trim_array(rows: int, cols: int,
               tech: TechnologyParams | None = None,
               defect: DefectSite | None = None, *,
               address: tuple[int, int] | None = None,
               policy: str | None = None,
               halo: int = 1,
               r_wl: float = DEFAULT_R_WL,
               c_wl: float = DEFAULT_C_WL,
               r_bl: float = DEFAULT_R_BL,
               c_bl: float | None = None) -> ArrayNetlist:
    """Build an array under the given trim policy.

    ``"off"`` (and ``None`` when the process default says so) returns
    the full :func:`~repro.dram.array.build_array` netlist; ``"force"``
    always trims; ``"auto"`` trims only when the plan prunes at least
    one cell, so degenerate geometries and windows covering the whole
    array keep the untrimmed reference.  Records the outcome in
    :mod:`repro.diagnostics` either way.
    """
    policy = resolve_trim(policy)
    parasitics = dict(r_wl=r_wl, c_wl=c_wl, r_bl=r_bl, c_bl=c_bl)
    if address is None:
        address = default_address(rows, cols, defect)
    if policy != "off":
        plan = plan_trim(rows, cols, address, defect, halo=halo)
        if policy == "force" or plan.cells_pruned > 0:
            arr = build_trimmed_array(rows, cols, tech, defect,
                                      address=address, halo=halo,
                                      **parasitics)
            full_nodes = 3 * rows * cols + rows + 3
            _record_trim({"trim_applied": 1,
                          "trim_cells_pruned": plan.cells_pruned,
                          "trim_nodes_pruned":
                              full_nodes - arr.circuit.num_nodes})
            return arr
        _record_trim({"trim_bypassed": 1})
    return build_array(rows, cols, tech, defect, **parasitics)


def _record_trim(counters: dict) -> None:
    from repro.diagnostics import diagnostics
    diagnostics().count_all(counters, "trim")
