"""Parameterized R×C DRAM cell-array netlist builder.

The folded column (:mod:`repro.dram.column`) models the paper's 2×2
design-validation circuit; array-scale scenarios — neighborhood
coupling, read disturbance, multi-cell stress patterns — need
netlists two orders of magnitude larger.  :func:`build_array` builds an
R×C grid of 1T1C cells sharing *distributed* word- and bit-line
parasitics:

* per row: a word-line driver source feeding an RC ladder (series
  ``r_wl``, shunt ``c_wl`` per cell pitch) with one tap per column —
  the access-gate node of that row's cells;
* per column: a bit line as an RC ladder (series ``r_bl``, shunt
  ``c_bl`` per cell pitch) with one tap per row, headed by an NMOS
  precharge device to the precharge rail (gated by ``eq``);
* per cell: the column builder's access transistor, storage capacitor
  and (time-compressed) junction-leakage diode, on the unchanged
  device/stamp machinery.

A 6×6 array is 117 nodes, a 12×12 is 450 — the scale the sparse solver
backend (:mod:`repro.spice.backends`) exists for.  Node/branch count:
``3·R·C + R + 3`` nodes plus ``R + 3`` source branches.

Defect injection reuses :class:`~repro.dram.column.DefectSite` with the
cell index flattened row-major (``cell = row * cols + col``); all seven
Fig. 7 resistive defect kinds route exactly as in the column builder,
relative to the cell's own word-/bit-line taps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.column import DEFECT_DEVICE, DEFECT_KINDS, DefectSite
from repro.dram.tech import TechnologyParams, default_tech
from repro.spice.devices import Capacitor, Diode, Resistor, VoltageSource
from repro.spice.errors import NetlistError
from repro.spice.mosfet import Mosfet
from repro.spice.netlist import Circuit
from repro.spice.waveforms import Constant, Pulse

__all__ = ["ArrayNetlist", "build_array", "DEFECT_KINDS", "DefectSite"]

#: Default word-line series resistance per cell pitch (ohms) — polysilicon
#: word lines are the resistive ones in a DRAM array.
DEFAULT_R_WL = 100.0

#: Default word-line shunt capacitance per cell pitch (farads).
DEFAULT_C_WL = 2e-15

#: Default bit-line series resistance per cell pitch (ohms) — metal.
DEFAULT_R_BL = 2.0


@dataclass
class ArrayNetlist:
    """The built array: circuit plus the handles analyses need."""

    circuit: Circuit
    tech: TechnologyParams
    defect: DefectSite | None
    rows: int
    cols: int
    #: Storage-node name per flattened cell index (row-major).
    storage_nodes: list[str]
    #: Control-source device names (reprogrammable between analyses).
    control_sources: list[str]

    def cell_index(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise NetlistError(
                f"cell ({row}, {col}) outside the "
                f"{self.rows}x{self.cols} array")
        return row * self.cols + col

    def storage_node(self, row: int, col: int) -> str:
        """Storage-node name of cell ``(row, col)``."""
        return self.storage_nodes[self.cell_index(row, col)]

    def wordline_tap(self, row: int, col: int) -> str:
        """Word-line tap node at cell ``(row, col)``."""
        self.cell_index(row, col)
        return f"wl{row}_{col}"

    def bitline_tap(self, row: int, col: int) -> str:
        """Bit-line tap node at cell ``(row, col)``."""
        self.cell_index(row, col)
        return f"bl{col}_{row}"

    def source(self, name: str) -> VoltageSource:
        dev = self.circuit[name]
        if not isinstance(dev, VoltageSource):
            raise NetlistError(f"{name!r} is not a control source")
        return dev

    def set_waveforms(self, waveforms: dict) -> None:
        """Reprogram control sources (same protocol as the column)."""
        for name, wave in waveforms.items():
            self.source(name).waveform = wave

    @property
    def defect_resistance(self) -> float | None:
        if self.defect is None:
            return None
        return self.circuit[DEFECT_DEVICE].resistance

    def set_defect_resistance(self, resistance: float) -> None:
        """Change the injected defect's resistance in place."""
        if self.defect is None:
            raise NetlistError("this array has no injected defect")
        if resistance <= 0:
            raise NetlistError("defect resistance must be positive")
        self.circuit[DEFECT_DEVICE].resistance = float(resistance)
        self.defect = self.defect.with_resistance(resistance)

    def activation_waveforms(self, row: int, *, t_pre: float = 4e-9,
                             t_act: float = 16e-9) -> dict:
        """Waveforms for one precharge-then-activate cycle on ``row``.

        Precharge (``eq`` boosted high) runs from 0 to ``t_pre``; the
        row's word line then fires to the boosted level for ``t_act``
        seconds.  Every other word line stays low.  This is the stimulus
        the sparse benchmark and the array tests drive: it exercises the
        precharge devices, every access transistor on the fired row, and
        the distributed line parasitics.
        """
        if not 0 <= row < self.rows:
            raise NetlistError(f"row {row} outside the array")
        vdd = self.tech.vdd_nom
        vpp = self.tech.vpp(vdd)
        waves = {
            "v_eq": Pulse(vpp, 0.0, delay=t_pre, rise=0.5e-9,
                          fall=0.5e-9, width=10.0),
        }
        for r in range(self.rows):
            if r == row:
                waves[f"v_wl{r}"] = Pulse(
                    0.0, vpp, delay=t_pre + 1e-9, rise=0.5e-9,
                    fall=0.5e-9, width=t_act)
            else:
                waves[f"v_wl{r}"] = Constant(0.0)
        return waves


def build_array(rows: int, cols: int,
                tech: TechnologyParams | None = None,
                defect: DefectSite | None = None, *,
                r_wl: float = DEFAULT_R_WL,
                c_wl: float = DEFAULT_C_WL,
                r_bl: float = DEFAULT_R_BL,
                c_bl: float | None = None) -> ArrayNetlist:
    """Build an ``rows``×``cols`` cell array with distributed parasitics.

    ``c_bl`` defaults to the technology's total bit-line capacitance
    split evenly over the taps, so a column of the array loads its bit
    line like the folded column does.  Pass a :class:`DefectSite` (cell
    index row-major) to inject one resistive defect.
    """
    tech = tech or default_tech()
    circuit, storage_nodes, control_sources = _build_window(
        rows, cols, tech, defect, range(rows), range(cols),
        r_wl=r_wl, c_wl=c_wl, r_bl=r_bl, c_bl=c_bl)
    return ArrayNetlist(circuit=circuit, tech=tech, defect=defect,
                        rows=rows, cols=cols, storage_nodes=storage_nodes,
                        control_sources=control_sources)


def _build_window(rows: int, cols: int, tech: TechnologyParams,
                  defect: DefectSite | None, kept_rows, kept_cols, *,
                  r_wl: float, c_wl: float, r_bl: float,
                  c_bl: float | None, g_leak: float | None = None
                  ) -> tuple[Circuit, list[str], list[str]]:
    """The netlist of the ``kept_rows`` × ``kept_cols`` window of an
    ``rows``×``cols`` array: ``(circuit, storage_nodes,
    control_sources)``.

    Kept rows and columns get their full word- and bit-line ladders,
    kept cells their devices.  A pruned tap on a kept line keeps the
    load of the cell it lost (:mod:`repro.dram.trim`): a kept word line
    gets the pruned cell's gate capacitance (``c_trimg*``), a kept bit
    line a ``g_leak`` conductance to ground per pruned row
    (``r_trimleak*``; none when ``g_leak`` is ``None``).  With every row
    and column kept this is the full array.
    """
    if rows < 1 or cols < 1:
        raise NetlistError("array needs at least one row and one column")
    if defect is not None and defect.cell >= rows * cols:
        raise NetlistError(
            f"defect cell {defect.cell} outside the {rows}x{cols} array")
    if c_bl is None:
        c_bl = tech.cbl / rows
    if r_wl <= 0 or r_bl <= 0 or c_wl <= 0 or c_bl <= 0:
        raise NetlistError("line parasitics must be positive")

    c = Circuit(f"dram_array_{rows}x{cols}")
    gnd = c.node("0")
    vdd = c.node("vdd")
    vpre = c.node("vpre")
    eq = c.node("eq")
    c.add(VoltageSource("v_vdd", vdd, gnd, Constant(tech.vdd_nom)))
    c.add(VoltageSource("v_pre", vpre, gnd,
                        Constant(tech.vbl_pre(tech.vdd_nom))))
    c.add(VoltageSource("v_eq", eq, gnd, Constant(0.0)))

    # Word lines: driver node + RC ladder with one tap per column; a
    # pruned cell leaves its gate capacitance (gates draw no current).
    for r in kept_rows:
        drv = c.node(f"wl{r}d")
        c.add(VoltageSource(f"v_wl{r}", drv, gnd, Constant(0.0)))
        prev = drv
        for col in range(cols):
            tap = c.node(f"wl{r}_{col}")
            c.add(Resistor(f"r_wl{r}_{col}", prev, tap, r_wl))
            c.add(Capacitor(f"c_wl{r}_{col}", tap, gnd, c_wl))
            if col not in kept_cols:
                c.add(Capacitor(f"c_trimg{r}_{col}", tap, gnd,
                                tech.cg_access))
            prev = tap

    # Bit lines: precharge head + RC ladder with one tap per row; a
    # pruned (always off) cell leaves its aggregated off-state leak.
    for col in kept_cols:
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
        if g_leak is not None:
            for r in range(rows):
                if r not in kept_rows:
                    c.add(Resistor(f"r_trimleak{col}_{r}",
                                   c.node(f"bl{col}_{r}"), gnd,
                                   1.0 / g_leak))

    # Cells, row-major, with the column builder's defect routing relative
    # to the cell's own line taps.
    storage_nodes: list[str] = []
    for r in kept_rows:
        for col in kept_cols:
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
                       + [f"v_wl{r}" for r in kept_rows])
    return c, storage_nodes, control_sources
