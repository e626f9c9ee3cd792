"""Content-addressed description of one operation-sequence simulation.

Every evaluation in the paper — result planes, border bisection, quick
direction panels, Table-1 optimization — reduces to fan-outs of the same
primitive: *simulate one operation sequence on one (defective) column
under one stress combination*.  :class:`SequenceRequest` captures that
primitive as a frozen value object with a deterministic content hash, so
identical simulations can be recognised across callers, cached, and
shipped to worker processes without the netlist ever leaving the process
that needs it.

The hash covers everything the simulation outcome depends on:

* the simulation backend (``"electrical"`` or ``"behavioral"``),
* the full technology parameter set (hashed recursively, so Monte-Carlo
  technology perturbations never collide with the typical corner),
* the defect kind, afflicted cell and resistance,
* the stress combination (tcyc, duty, temperature, Vdd),
* the canonical operation string, the initial cell voltage and the
  logical background.

Floats are rendered with ``repr`` (shortest round-trip form), so equal
doubles always produce equal payloads and the hash is stable across
processes and platforms.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

from repro.defects.catalog import Defect
from repro.dram.column import DefectSite
from repro.dram.ops import format_ops, parse_ops
from repro.dram.tech import TechnologyParams, default_tech
from repro.stress import StressConditions

#: Bumped whenever the simulation semantics change incompatibly, so stale
#: on-disk cache entries can never be returned for new code.
SCHEMA_VERSION = 1


def _canonical(value):
    """JSON-serialisable canonical form of a payload value."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


#: ``id(tech) -> (tech, _canonical(tech))`` for the few technology objects
#: a process hashes requests for.  Keyed on identity, not equality: equal
#: techs can render differently (``0.0 == -0.0``, but their ``repr``s
#: differ).  Each entry holds its tech, so the id cannot be reused while
#: the entry lives.
_TECH_CANONICAL: dict[int, tuple[TechnologyParams, dict]] = {}


def _canonical_tech(tech: TechnologyParams) -> dict:
    """:func:`_canonical` of ``tech``, computed once per tech object."""
    hit = _TECH_CANONICAL.get(id(tech))
    if hit is None:
        if len(_TECH_CANONICAL) >= 8:
            _TECH_CANONICAL.clear()
        hit = _TECH_CANONICAL[id(tech)] = (tech, _canonical(tech))
    return hit[1]


def tech_fingerprint(tech: TechnologyParams) -> str:
    """Deterministic short hash of a full technology parameter set."""
    payload = json.dumps(_canonical_tech(tech), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SequenceRequest:
    """One simulation, fully described and content-addressable.

    Attributes
    ----------
    backend:
        ``"electrical"`` (SPICE-level column) or ``"behavioral"``.
    tech:
        The complete technology parameter set the column is built from.
    defect_kind:
        Netlist-level defect kind string (``"open_sn"`` …), or ``None``
        for a defect-free column.
    cell:
        Index of the afflicted/target cell.
    resistance:
        Defect resistance in ohms (``None`` for defect-free columns).
    stress:
        The stress combination applied to every cycle.
    ops:
        Canonical operation string (``"w1^2 w0 r0"``).
    init_vc:
        Initial physical storage voltage of the target cell.
    background:
        Logical value held by the other cells of the column.
    geometry:
        ``None`` for the seed 2×2 column (the default DUT), or an
        ``(rows, cols)`` pair to simulate an R×C array through
        :class:`~repro.dram.runner.ArrayRunner` instead.
    address:
        Accessed ``(row, col)`` of an array request (``None`` lets the
        runner default to the defective cell's own position).
    trim:
        Netlist trimming policy of an array request —
        ``"off"``/``"auto"``/``"force"``
        (see :mod:`repro.dram.trim`).  Part of the content hash for
        array requests, so trimmed and full results never collide in
        the cache or the verified store.
    tier:
        Which answer tier produced (or owns) the entry this request
        addresses.  ``"sim"`` — the default — is a real simulation
        result; ``"surrogate-cal"`` addresses a surrogate-tier
        calibration journal stored alongside the simulation entries
        (see :mod:`repro.surrogate.store`).  Non-default tiers get
        their own hash axis, so surrogate artifacts can never collide
        with simulation results.
    """

    backend: str
    tech: TechnologyParams
    defect_kind: str | None
    cell: int
    resistance: float | None
    stress: StressConditions
    ops: str
    init_vc: float
    background: int = 0
    geometry: tuple[int, int] | None = None
    address: tuple[int, int] | None = None
    trim: str = "off"
    tier: str = "sim"

    @classmethod
    def build(cls, ops, init_vc: float, *, backend: str,
              defect: Defect | DefectSite | None,
              stress: StressConditions,
              tech: TechnologyParams | None = None,
              background: int = 0,
              geometry: tuple[int, int] | None = None,
              address: tuple[int, int] | None = None,
              trim: str | None = None) -> "SequenceRequest":
        """Build a request from high-level pieces.

        ``ops`` may be a string or a list of :class:`~repro.dram.ops.Op`;
        it is canonicalised through ``format_ops`` either way, so
        ``"w1 w1"`` and ``[w1, w1]`` address the same cache entry.
        ``defect`` may be the high-level catalog :class:`Defect` or the
        netlist-level :class:`DefectSite`.

        ``geometry`` turns the request into an array simulation;
        ``trim=None`` then resolves to the process-wide default
        (:func:`repro.dram.trim.trim_default`).  Column requests always
        carry ``trim="off"`` so their hashes stay unchanged.
        """
        if isinstance(ops, str):
            ops = parse_ops(ops)
        if isinstance(defect, Defect):
            site = defect.site()
        else:
            site = defect
        if geometry is not None:
            from repro.dram.trim import resolve_trim
            geometry = (int(geometry[0]), int(geometry[1]))
            trim = resolve_trim(trim)
            if address is not None:
                address = (int(address[0]), int(address[1]))
        else:
            if address is not None:
                raise ValueError("address requires geometry")
            if trim not in (None, "off"):
                raise ValueError("trim requires geometry (the seed 2x2 "
                                 "column is never trimmed)")
            trim = "off"
        return cls(
            backend=backend,
            tech=tech or default_tech(),
            defect_kind=site.kind if site is not None else None,
            cell=site.cell if site is not None else 0,
            resistance=site.resistance if site is not None else None,
            stress=stress,
            ops=format_ops(ops),
            init_vc=float(init_vc),
            background=int(background),
            geometry=geometry,
            address=address,
            trim=trim,
        )

    @property
    def cycles(self) -> int:
        """Number of operation cycles this request simulates."""
        return len(parse_ops(self.ops))

    @cached_property
    def content_hash(self) -> str:
        """Deterministic hex digest addressing this simulation."""
        payload = {
            "schema": SCHEMA_VERSION,
            "backend": self.backend,
            "tech": _canonical_tech(self.tech),
            "defect_kind": self.defect_kind,
            "cell": self.cell,
            "resistance": _canonical(self.resistance)
            if self.resistance is not None else None,
            "stress": _canonical(self.stress),
            "ops": self.ops,
            "init_vc": repr(self.init_vc),
            "background": self.background,
        }
        # Array fields only enter the payload when used, so every column
        # request keeps the hash it had before arrays existed (cache and
        # verified-store entries stay addressable).
        if self.geometry is not None or self.trim != "off":
            payload["geometry"] = (list(self.geometry)
                                   if self.geometry is not None else None)
            payload["address"] = (list(self.address)
                                  if self.address is not None else None)
            payload["trim"] = self.trim
        # The tier axis likewise only enters for non-simulation entries,
        # so every pre-existing hash is preserved.
        if self.tier != "sim":
            payload["tier"] = self.tier
        payload = json.dumps(payload, sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def site(self) -> DefectSite | None:
        """The netlist-level defect this request injects (or ``None``)."""
        if self.defect_kind is None:
            return None
        return DefectSite(self.defect_kind, self.cell, self.resistance)

    def describe(self) -> str:
        """One-line human-readable summary."""
        defect = ("clean" if self.defect_kind is None else
                  f"{self.defect_kind}@{self.cell} "
                  f"R={self.resistance:.3g}")
        dut = ""
        if self.geometry is not None:
            dut = (f" {self.geometry[0]}x{self.geometry[1]} "
                   f"trim={self.trim}")
        return (f"[{self.backend}]{dut} {defect} {self.stress.describe()} "
                f"ops='{self.ops}' Vc0={self.init_vc:.3f}")
