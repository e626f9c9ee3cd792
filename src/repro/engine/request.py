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
from functools import cached_property, lru_cache

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


#: ``id(obj) -> (obj, canonical JSON of obj)`` for the techs and stresses
#: a process hashes requests with: a sweep reuses a handful of each, and
#: rendering a tech costs more than the rest of a request key.  Both are
#: frozen, so an object's rendering never changes.  Keyed on identity,
#: not equality: equal values can render differently
#: (``0.0 == -0.0``, but their ``repr``s differ).  Each entry holds its
#: object, so the id cannot be reused while the entry lives; past
#: :data:`_CANONICAL_JSON_MAX` entries the oldest is dropped.
_CANONICAL_JSON: dict[int, tuple[object, str]] = {}
_CANONICAL_JSON_MAX = 256


#: The payload encoding: ``json.dumps`` with sorted keys and no
#: whitespace, its encoder built once instead of per call.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _canonical_json(obj) -> str:
    """``_dumps(_canonical(obj))``, computed once per object."""
    hit = _CANONICAL_JSON.get(id(obj))
    if hit is None:
        if len(_CANONICAL_JSON) >= _CANONICAL_JSON_MAX:
            del _CANONICAL_JSON[next(iter(_CANONICAL_JSON))]
        hit = _CANONICAL_JSON[id(obj)] = (obj, _dumps(_canonical(obj)))
    return hit[1]


@lru_cache(maxsize=1024)
def _canonical_ops(text: str) -> tuple[str, int]:
    """An ops string's canonical form and its cycle count, parsed once
    per distinct string."""
    ops = parse_ops(text)
    return format_ops(ops), len(ops)


def tech_fingerprint(tech: TechnologyParams) -> str:
    """Deterministic short hash of a full technology parameter set."""
    return hashlib.sha256(_canonical_json(tech).encode()).hexdigest()[:16]


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
            ops, cycles = _canonical_ops(ops)
        else:
            ops = list(ops)
            ops, cycles = format_ops(ops), len(ops)
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
        request = cls(
            backend=backend,
            tech=tech or default_tech(),
            defect_kind=site.kind if site is not None else None,
            cell=site.cell if site is not None else 0,
            resistance=site.resistance if site is not None else None,
            stress=stress,
            ops=ops,
            init_vc=float(init_vc),
            background=int(background),
            geometry=geometry,
            address=address,
            trim=trim,
        )
        # Counted here, from the ops already in hand, so no cache hit
        # re-parses the ops string.
        request.__dict__["cycles"] = cycles
        return request

    @cached_property
    def cycles(self) -> int:
        """Number of operation cycles this request simulates."""
        return len(parse_ops(self.ops))

    @cached_property
    def content_hash(self) -> str:
        """Deterministic hex digest addressing this simulation.

        The payload is the sorted-key JSON of the request's fields.  The
        tech and the stress, by far its largest values, are rendered
        once per object (:func:`_canonical_json`) and spliced in at
        their sorted place: after every other column and array key,
        before ``"tier"`` and ``"trim"``.  The bytes are those of
        ``_dumps`` over the whole payload.
        """
        head = {
            "schema": SCHEMA_VERSION,
            "backend": self.backend,
            "defect_kind": self.defect_kind,
            "cell": self.cell,
            "resistance": _canonical(self.resistance),
            "ops": self.ops,
            "init_vc": repr(self.init_vc),
            "background": self.background,
        }
        tail = {}
        # Array fields only enter the payload when used, so every column
        # request keeps the hash it had before arrays existed (cache and
        # verified-store entries stay addressable).
        if self.geometry is not None or self.trim != "off":
            head["geometry"] = (list(self.geometry)
                                if self.geometry is not None else None)
            head["address"] = (list(self.address)
                               if self.address is not None else None)
            tail["trim"] = self.trim
        # The tier axis likewise only enters for non-simulation entries,
        # so every pre-existing hash is preserved.
        if self.tier != "sim":
            tail["tier"] = self.tier
        payload = (_dumps(head)[:-1]
                   + ',"stress":' + _canonical_json(self.stress)
                   + ',"tech":' + _canonical_json(self.tech)
                   + ("," + _dumps(tail)[1:] if tail else "}"))
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
