"""Catalog of the simulated cell defects (paper Fig. 7).

The paper analyses seven defects — 3 opens, 2 shorts and 2 bridges — each
on the true and the complementary bit line.  :class:`DefectKind` names the
seven; :class:`Defect` adds the placement and resistance and converts to
the low-level :class:`~repro.dram.column.DefectSite` understood by the
netlist builder.

Opens *fail above* a border resistance (a stronger open is a larger
resistance); shorts and bridges *fail below* one (a stronger short is a
smaller resistance).  :attr:`DefectKind.fails_high` captures the polarity,
which the border-resistance search and the optimization criterion both
need: stressing must *extend* the failing range, i.e. push the border
down for opens and up for shorts/bridges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.dram.column import DefectSite


class DefectClass(enum.Enum):
    """Coarse defect family."""

    OPEN = "open"
    SHORT = "short"
    BRIDGE = "bridge"


class Placement(enum.Enum):
    """Which bit line the afflicted cell hangs on."""

    TRUE = "true"
    COMP = "comp"

    @property
    def cell_index(self) -> int:
        """Default afflicted cell: 0 on the true line, 1 on the comp line."""
        return 0 if self is Placement.TRUE else 1


class DefectKind(enum.Enum):
    """The seven Fig. 7 defects."""

    O1 = "O1"   # open: bit-line contact
    O2 = "O2"   # open: word-line / gate connection
    O3 = "O3"   # open: storage-node connection (the paper's Fig. 1 example)
    SG = "Sg"   # short: storage node to GND
    SV = "Sv"   # short: storage node to Vdd
    B1 = "B1"   # bridge: storage node to own bit line
    B2 = "B2"   # bridge: storage node to own word line

    @property
    def defect_class(self) -> DefectClass:
        if self in (DefectKind.O1, DefectKind.O2, DefectKind.O3):
            return DefectClass.OPEN
        if self in (DefectKind.SG, DefectKind.SV):
            return DefectClass.SHORT
        return DefectClass.BRIDGE

    @property
    def site_kind(self) -> str:
        """The netlist-builder kind string."""
        return _SITE_KINDS[self]

    @property
    def fails_high(self) -> bool:
        """True when faults appear *above* the border resistance (opens)."""
        return self.defect_class is DefectClass.OPEN

    @property
    def search_range(self) -> tuple[float, float]:
        """Resistance range (ohms) to analyse for this kind.

        Word-line opens interact with the small gate capacitance, so their
        interesting range sits orders of magnitude higher than the other
        defects'.
        """
        if self is DefectKind.O2:
            return (100e3, 1e9)
        if self.defect_class is DefectClass.OPEN:
            return (10e3, 10e6)
        return (1e3, 30e6)

    def describe(self) -> str:
        return {
            DefectKind.O1: "open between bit line and access drain",
            DefectKind.O2: "open between word line and access gate",
            DefectKind.O3: "open between access transistor and capacitor",
            DefectKind.SG: "short from storage node to GND",
            DefectKind.SV: "short from storage node to Vdd",
            DefectKind.B1: "bridge from storage node to own bit line",
            DefectKind.B2: "bridge from storage node to own word line",
        }[self]


_SITE_KINDS = {
    DefectKind.O1: "open_bl",
    DefectKind.O2: "open_gate",
    DefectKind.O3: "open_sn",
    DefectKind.SG: "short_gnd",
    DefectKind.SV: "short_vdd",
    DefectKind.B1: "bridge_bl",
    DefectKind.B2: "bridge_wl",
}


@dataclass(frozen=True)
class Defect:
    """A concrete defect: kind + placement + resistance."""

    kind: DefectKind
    placement: Placement = Placement.TRUE
    resistance: float = 200e3

    def __post_init__(self):
        if self.resistance <= 0:
            raise ValueError("defect resistance must be positive")

    @property
    def name(self) -> str:
        return f"{self.kind.value} ({self.placement.value})"

    @property
    def cell_index(self) -> int:
        return self.placement.cell_index

    @property
    def fails_high(self) -> bool:
        return self.kind.fails_high

    def site(self) -> DefectSite:
        """The low-level netlist injection spec."""
        return DefectSite(self.kind.site_kind, self.cell_index,
                          self.resistance)

    def with_resistance(self, resistance: float) -> "Defect":
        return Defect(self.kind, self.placement, resistance)

    def __str__(self):
        return f"{self.name} R={self.resistance:.3g}"


#: Every (kind, placement) pair of Table 1, at a representative resistance.
ALL_DEFECTS: tuple[Defect, ...] = tuple(
    Defect(kind, placement)
    for kind in DefectKind
    for placement in (Placement.TRUE, Placement.COMP)
)
