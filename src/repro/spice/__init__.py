"""A small SPICE-class electrical circuit simulator.

This package is the substrate that replaces the proprietary Titan simulator
used in the paper.  It provides:

* a netlist abstraction (:class:`~repro.spice.netlist.Circuit`) with named
  nodes and devices,
* linear devices (resistors, capacitors, independent sources) and a level-1
  MOSFET model with temperature-dependent mobility and threshold voltage,
* piecewise-linear / pulse waveforms for driving control signals,
* a modified-nodal-analysis (MNA) equation builder,
* a damped Newton-Raphson nonlinear solver with gmin regularisation,
* transient analysis (backward-Euler or trapezoidal integration) and a DC
  operating-point solver with gmin stepping.

The simulator is deliberately compact: it targets the ~30-node DRAM column
netlists built by :mod:`repro.dram`, not general-purpose circuit simulation.
It is nevertheless a complete nonlinear transient engine and is validated
against analytic solutions in the test suite.
"""

from repro.spice.backends import (
    BACKEND_CHOICES,
    BackendError,
    SparseBackend,
    backend_default,
    resolve_backend,
    set_backend_default,
)
from repro.spice.errors import (
    ConvergenceError,
    NetlistError,
    SingularMatrixError,
    SpiceError,
)
from repro.spice.netlist import Circuit, GROUND, Node
from repro.spice.devices import (
    Capacitor,
    CurrentSource,
    Diode,
    Resistor,
    VoltageSource,
)
from repro.spice.mosfet import Mosfet, MosfetParams, NMOS_DEFAULT, PMOS_DEFAULT
from repro.spice.waveforms import Constant, Pulse, PWL, Waveform
from repro.spice.transient import TransientResult, transient
from repro.spice.dc import dc_operating_point

__all__ = [
    "BACKEND_CHOICES",
    "BackendError",
    "Capacitor",
    "Circuit",
    "Constant",
    "ConvergenceError",
    "CurrentSource",
    "Diode",
    "GROUND",
    "Mosfet",
    "MosfetParams",
    "NMOS_DEFAULT",
    "NetlistError",
    "Node",
    "PMOS_DEFAULT",
    "PWL",
    "Pulse",
    "Resistor",
    "SingularMatrixError",
    "SparseBackend",
    "SpiceError",
    "TransientResult",
    "VoltageSource",
    "Waveform",
    "backend_default",
    "dc_operating_point",
    "resolve_backend",
    "set_backend_default",
    "transient",
]
