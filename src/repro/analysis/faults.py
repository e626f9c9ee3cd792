"""Functional fault-primitive classification.

Maps a defect's electrical misbehaviour onto the standard single-cell
functional fault primitives of the memory-testing literature (van de
Goor's notation), which is how detection conditions become march tests:

* ``SAF0``/``SAF1`` — stuck-at: the cell cannot hold the other value even
  after repeated writes,
* ``TF_UP``/``TF_DOWN`` — transition fault: a single transition write
  fails (but repeated writes succeed),
* ``RDF0``/``RDF1`` — read destructive fault: the read returns the wrong
  value *and* flips the cell,
* ``IRF0``/``IRF1`` — incorrect read fault: wrong value, cell preserved,
* ``DRDF0``/``DRDF1`` — deceptive read destructive fault: correct value,
  but the read flips the cell (caught by a second read),
* ``WDF0``/``WDF1`` — write destructive fault: a non-transition write
  flips the cell.

Classification drives the model with forced initial cell voltages, so the
cell *state* (not just the external behaviour) is observable — exactly the
diagnostic power the paper says Shmoo plots lack.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.analysis.interface import ColumnModel
from repro.dram.ops import Op, Operation


class FaultPrimitive(enum.Enum):
    """Single-cell functional fault primitives."""

    SAF0 = "SAF0"       # stuck at 0
    SAF1 = "SAF1"       # stuck at 1
    TF_UP = "TF<0/1>"   # up-transition fails
    TF_DOWN = "TF<1/0>"  # down-transition fails
    RDF0 = "RDF0"
    RDF1 = "RDF1"
    IRF0 = "IRF0"
    IRF1 = "IRF1"
    DRDF0 = "DRDF0"
    DRDF1 = "DRDF1"
    WDF0 = "WDF0"
    WDF1 = "WDF1"


@dataclass
class FaultClassification:
    """The primitives observed for one defect resistance, with evidence."""

    resistance: float
    primitives: set[FaultPrimitive] = field(default_factory=set)
    evidence: dict[FaultPrimitive, str] = field(default_factory=dict)

    @property
    def is_faulty(self) -> bool:
        return bool(self.primitives)

    def describe(self) -> str:
        if not self.primitives:
            return f"R={self.resistance:.3g}: fault-free"
        names = ", ".join(sorted(p.value for p in self.primitives))
        return f"R={self.resistance:.3g}: {names}"


def classify_fault_primitives(model: ColumnModel, resistance: float,
                              ) -> FaultClassification:
    """Probe the standard fault primitives at one defect resistance.

    The target cell sits on a known bit line; logical values map to
    physical levels through the model's differential write convention, so
    state checks convert the observed storage voltage back to a logical
    value first.
    """
    model.set_defect_resistance(resistance)
    vdd = model.stress.vdd
    out = FaultClassification(resistance)
    # Physical level that encodes logical d for the target cell.
    target_on_true = getattr(model, "target_on_true", True)

    def physical(value: int) -> float:
        stored = value if target_on_true else 1 - value
        return float(stored) * vdd

    def logical(vc: float) -> int:
        stored = 1 if vc > 0.5 * vdd else 0
        return stored if target_on_true else 1 - stored

    w = {0: Op(Operation.W0), 1: Op(Operation.W1)}
    r = Op(Operation.R)

    for d in (0, 1):
        # --- stuck-at: repeated writes of d never establish d ------------
        seq = model.run_sequence([w[d]] * 6 + [r], init_vc=physical(1 - d))
        if logical(seq.vc_after[-2]) != d and seq.outputs[-1] != d:
            prim = FaultPrimitive.SAF0 if d == 1 else FaultPrimitive.SAF1
            out.primitives.add(prim)
            out.evidence[prim] = (f"w{d}^6 leaves cell at "
                                  f"{seq.vc_after[-2]:.2f} V, reads "
                                  f"{seq.outputs[-1]}")

        # --- transition fault: one write fails, repeated writes work -----
        one = model.run_sequence([w[d]], init_vc=physical(1 - d))
        many_ok = logical(seq.vc_after[4]) == d or seq.outputs[-1] == d
        if logical(one.vc_after[0]) != d and many_ok:
            prim = (FaultPrimitive.TF_UP if d == 1
                    else FaultPrimitive.TF_DOWN)
            out.primitives.add(prim)
            out.evidence[prim] = (f"single w{d} leaves "
                                  f"{one.vc_after[0]:.2f} V")

        # --- read faults: two successive reads from a solid state --------
        reads = model.run_sequence([r, r], init_vc=physical(d))
        first_ok = reads.outputs[0] == d
        state_after_first = logical(reads.vc_after[0])
        if not first_ok:
            prim = ((FaultPrimitive.RDF0 if d == 0 else FaultPrimitive.RDF1)
                    if state_after_first != d else
                    (FaultPrimitive.IRF0 if d == 0 else FaultPrimitive.IRF1))
            out.primitives.add(prim)
            out.evidence[prim] = (f"read of {d} returns {reads.outputs[0]}, "
                                  f"cell then holds "
                                  f"{reads.vc_after[0]:.2f} V")
        elif state_after_first != d:
            prim = (FaultPrimitive.DRDF0 if d == 0
                    else FaultPrimitive.DRDF1)
            out.primitives.add(prim)
            out.evidence[prim] = (f"read of {d} correct but cell flips to "
                                  f"{reads.vc_after[0]:.2f} V "
                                  f"(2nd read: {reads.outputs[1]})")

        # --- write destructive: non-transition write flips the cell ------
        same = model.run_sequence([w[d]], init_vc=physical(d))
        if logical(same.vc_after[0]) != d:
            prim = FaultPrimitive.WDF0 if d == 0 else FaultPrimitive.WDF1
            out.primitives.add(prim)
            out.evidence[prim] = (f"non-transition w{d} leaves "
                                  f"{same.vc_after[0]:.2f} V")

    return out
