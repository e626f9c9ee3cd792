"""Netlist abstraction: circuits, nodes and the device interface.

A :class:`Circuit` is a bag of named nodes plus devices connected between
them.  Node ``"0"``/``"gnd"`` is the global reference and never appears in
the MNA system.  Devices stamp themselves into the system through a
:class:`Stamper`, which hides matrix indexing and the ground convention.

Device taxonomy (how the engine calls back into a device):

``stamp_static``
    Contributions that depend only on device values (linear resistors,
    the constant rows/columns of voltage sources).  Evaluated once per
    analysis (and cached by the engine).
``stamp_dynamic``
    Contributions that depend on the previous time-point solution or the
    step size (capacitor companion models).  Evaluated once per time step.
``stamp_source``
    Time-dependent right-hand-side values (source waveforms).  Evaluated
    once per time step.
``stamp_nonlinear``
    Contributions that depend on the current Newton iterate (MOSFETs,
    diodes).  Evaluated every Newton iteration.

A device only overrides the hooks it needs.
"""

from __future__ import annotations

from typing import Iterable

from repro.spice.errors import NetlistError

#: Sentinel index used for the ground node (excluded from the MNA system).
_GROUND_INDEX = -1


class Node:
    """A named circuit node.  Compares by identity; hashable."""

    __slots__ = ("name", "index")

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index

    @property
    def is_ground(self) -> bool:
        return self.index == _GROUND_INDEX

    def __repr__(self):
        return f"Node({self.name!r})"


#: The global reference node.  Shared across circuits (it carries no state).
GROUND = Node("0", _GROUND_INDEX)

#: Node names that all refer to :data:`GROUND`.
GROUND_ALIASES = ("0", "gnd", "GND", "ground")


class Device:
    """Base class for all circuit elements."""

    def __init__(self, name: str, nodes: Iterable[Node]):
        self.name = name
        self.node_list = tuple(nodes)
        for n in self.node_list:
            if not isinstance(n, Node):
                raise NetlistError(
                    f"device {name!r}: expected Node instances, got {n!r}")

    #: True if the device needs an MNA branch-current unknown.
    needs_branch = False

    def stamp_static(self, st: "Stamper") -> None:
        """Stamp value-only contributions (see module docstring)."""

    def stamp_dynamic(self, st: "Stamper") -> None:
        """Stamp step-size / previous-solution dependent contributions."""

    def stamp_source(self, st: "Stamper") -> None:
        """Stamp time-dependent RHS contributions."""

    def stamp_nonlinear(self, st: "Stamper") -> None:
        """Stamp Newton-iterate dependent contributions."""

    def __repr__(self):
        names = ",".join(n.name for n in self.node_list)
        return f"{type(self).__name__}({self.name!r}, nodes=[{names}])"


class Circuit:
    """A mutable netlist.

    Nodes are created on demand with :meth:`node`; devices are attached with
    :meth:`add`.  Once handed to an analysis the circuit is *finalised*
    (branch indices assigned); adding devices afterwards restarts that
    process transparently.
    """

    def __init__(self, title: str = "circuit"):
        self.title = title
        self._nodes: dict[str, Node] = {}
        self._devices: dict[str, Device] = {}
        self._finalized = False
        self._branch_of: dict[str, int] = {}
        self.num_branches = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        """Return the node called ``name``, creating it if necessary.

        The names ``"0"``, ``"gnd"``, ``"GND"`` and ``"ground"`` all
        refer to ground (:data:`GROUND_ALIASES`).
        """
        if name in GROUND_ALIASES:
            return GROUND
        found = self._nodes.get(name)
        if found is None:
            found = Node(name, len(self._nodes))
            self._nodes[name] = found
        return found

    def add(self, device: Device) -> Device:
        """Attach ``device``; returns it for chaining."""
        if device.name in self._devices:
            raise NetlistError(f"duplicate device name {device.name!r}")
        for n in device.node_list:
            if not n.is_ground and self._nodes.get(n.name) is not n:
                raise NetlistError(
                    f"device {device.name!r} uses node {n.name!r} that does "
                    f"not belong to this circuit")
        self._devices[device.name] = device
        self._finalized = False
        return device

    def remove(self, name: str) -> Device:
        """Detach and return the device called ``name``."""
        try:
            dev = self._devices.pop(name)
        except KeyError:
            raise NetlistError(f"no device named {name!r}") from None
        self._finalized = False
        return dev

    def __contains__(self, name: str) -> bool:
        return name in self._devices

    def __getitem__(self, name: str) -> Device:
        try:
            return self._devices[name]
        except KeyError:
            raise NetlistError(f"no device named {name!r}") from None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    @property
    def node_names(self) -> list[str]:
        return list(self._nodes.keys())

    @property
    def devices(self) -> list[Device]:
        return list(self._devices.values())

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def has_node(self, name: str) -> bool:
        return name in self._nodes or name in GROUND_ALIASES

    # ------------------------------------------------------------------
    # finalisation (assign MNA branch indices)
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Assign branch-current unknowns; idempotent."""
        if self._finalized:
            return
        self._branch_of = {}
        branch = 0
        for dev in self._devices.values():
            if dev.needs_branch:
                self._branch_of[dev.name] = branch
                branch += 1
        self.num_branches = branch
        self._finalized = True

    def branch_index(self, device_name: str) -> int:
        """MNA branch index of a voltage-defined device (after finalize)."""
        self.finalize()
        try:
            return self._branch_of[device_name]
        except KeyError:
            raise NetlistError(
                f"device {device_name!r} has no branch unknown") from None

    @property
    def system_size(self) -> int:
        """Number of MNA unknowns (node voltages + branch currents)."""
        self.finalize()
        return self.num_nodes + self.num_branches

    def __repr__(self):
        return (f"Circuit({self.title!r}, nodes={self.num_nodes}, "
                f"devices={len(self._devices)})")


class AnalysisContext:
    """State shared with devices while stamping.

    Attributes
    ----------
    time:
        Current simulation time (end of the step being solved).
    dt:
        Time-step size, or ``None`` for DC analyses (capacitors open).
    temp_c:
        Simulation temperature in degrees Celsius.
    x:
        Current Newton iterate (node voltages then branch currents).
    x_prev:
        Solution at the previous accepted time point.
    method:
        Integration method: ``"be"`` (backward Euler) or ``"trap"``.
    sources:
        The analysis's :meth:`~repro.spice.plans.SourcePlan.snapshot` of
        the source waveforms, taken once per transient; ``None`` makes
        each step-rhs assembly take a fresh one.
    """

    __slots__ = ("time", "dt", "temp_c", "x", "x_prev", "method", "sources")

    def __init__(self, time=0.0, dt=None, temp_c=27.0, x=None, x_prev=None,
                 method="be"):
        self.time = time
        self.dt = dt
        self.temp_c = temp_c
        self.x = x
        self.x_prev = x_prev
        self.method = method
        self.sources = None


class Stamper:
    """Write adapter from device contributions to the MNA system.

    Ground-connected terminals are silently dropped, which implements the
    reduced MNA formulation.  Devices address branch rows through their
    pre-resolved branch index (``circuit.branch_index``).
    """

    __slots__ = ("A", "b", "num_nodes", "ctx")

    def __init__(self, A, b, num_nodes: int, ctx: AnalysisContext):
        self.A = A
        self.b = b
        self.num_nodes = num_nodes
        self.ctx = ctx

    def rebind(self, A, b, ctx: AnalysisContext) -> "Stamper":
        """Re-target this stamper at new system arrays (hot-loop reuse)."""
        self.A = A
        self.b = b
        self.ctx = ctx
        return self

    # -- reading the current iterate -----------------------------------
    def v(self, node: Node) -> float:
        """Voltage of ``node`` in the current Newton iterate."""
        if node.is_ground:
            return 0.0
        return self.ctx.x[node.index]

    def v_prev(self, node: Node) -> float:
        """Voltage of ``node`` at the previous accepted time point."""
        if node.is_ground:
            return 0.0
        return self.ctx.x_prev[node.index]

    # -- matrix stamps ---------------------------------------------------
    def conductance(self, a: Node, b: Node, g: float) -> None:
        """Stamp a two-terminal conductance ``g`` between nodes ``a``/``b``."""
        A = self.A
        ia, ib = a.index, b.index
        if ia >= 0:
            A[ia, ia] += g
        if ib >= 0:
            A[ib, ib] += g
        if ia >= 0 and ib >= 0:
            A[ia, ib] -= g
            A[ib, ia] -= g

    def transconductance(self, out_p: Node, out_n: Node,
                         in_p: Node, in_n: Node, gm: float) -> None:
        """Stamp a VCCS: current ``gm * (v(in_p) - v(in_n))`` flows from
        ``out_p`` to ``out_n`` through the source (out of ``out_p``'s KCL)."""
        A = self.A
        op, on = out_p.index, out_n.index
        ip, in_ = in_p.index, in_n.index
        if op >= 0:
            if ip >= 0:
                A[op, ip] += gm
            if in_ >= 0:
                A[op, in_] -= gm
        if on >= 0:
            if ip >= 0:
                A[on, ip] -= gm
            if in_ >= 0:
                A[on, in_] += gm

    def current(self, a: Node, b: Node, i: float) -> None:
        """Stamp an independent current ``i`` flowing from ``a`` to ``b``."""
        if a.index >= 0:
            self.b[a.index] -= i
        if b.index >= 0:
            self.b[b.index] += i

    # -- branch (voltage-defined) stamps ----------------------------------
    def branch_row(self, branch: int) -> int:
        return self.num_nodes + branch

    def incidence(self, p: Node, n: Node, branch: int) -> None:
        """Stamp the ±1 incidence pattern of a voltage-defined branch."""
        A = self.A
        row = self.branch_row(branch)
        ip, in_ = p.index, n.index
        if ip >= 0:
            A[ip, row] += 1.0
            A[row, ip] += 1.0
        if in_ >= 0:
            A[in_, row] -= 1.0
            A[row, in_] -= 1.0

    def branch_rhs(self, branch: int, value: float) -> None:
        """Add ``value`` to the RHS of a branch equation (source waveforms)."""
        self.b[self.branch_row(branch)] += value
