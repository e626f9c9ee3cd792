"""Golden content hashes of engine requests.

``tests/golden/request_hashes.json`` holds the content hash (and, for
simulation requests, the cycle count) of a fixed set of
:class:`~repro.engine.SequenceRequest` objects spanning every payload
axis — both backends, no defect and every kind at several resistances,
signed-zero and subnormal initial voltages, both backgrounds, signed-zero
and Fig. 6 stresses, three techs, repeated ops, array requests with and
without an address under every trim policy, surrogate-calibration
journal keys — plus :func:`~repro.engine.tech_fingerprint` of each tech.

A hash addresses cached results, verified-store records and checkpoint
journals written by earlier runs, so none of these may move: a change in
how the payload is rendered must keep every byte of it.  Each case
builds fresh tech and stress objects, as independent callers do, so
identity-keyed caching is exercised alongside the hash.

Regenerate only when the request schema changes on purpose::

    PYTHONPATH=src python tests/engine/test_golden_hashes.py
"""

import json
from pathlib import Path

import pytest

from repro.defects import Defect, DefectKind, Placement
from repro.dram.column import DefectSite
from repro.dram.ops import Op
from repro.dram.tech import default_tech
from repro.engine import SequenceRequest, tech_fingerprint
from repro.stress import StressConditions
from repro.surrogate.store import journal_request

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / \
    "request_hashes.json"

#: Fresh-object factories: equal values built anew per case.
TECHS = {
    "default": default_tech,
    "perturbed": lambda: default_tech().with_(
        cs=default_tech().cs * 1.01, dt_frac=1.0 / 480.0),
    "v_ref_tc=-0.0": lambda: default_tech().with_(v_ref_tc=-0.0),
}
STRESSES = {
    "nominal": lambda: StressConditions(),
    "temp_c=-0.0": lambda: StressConditions(temp_c=-0.0),
    "fig6": lambda: StressConditions(tcyc=55e-9, temp_c=87.0, vdd=2.1),
    "int-valued": lambda: StressConditions(temp_c=87, vdd=3),
}
SUBNORMAL = 5e-324


def _column(backend, defect=None, *, ops="w1^2 w0 r0", init_vc=0.0,
            background=0, tech="default", stress="nominal") -> dict:
    return {"type": "column", "backend": backend, "defect": defect,
            "ops": ops, "init_vc": init_vc, "background": background,
            "tech": tech, "stress": stress}


def _cases() -> list[dict]:
    cases = []
    for backend in ("behavioral", "electrical"):
        cases.append(_column(backend))
        for kind in DefectKind:
            lo, hi = kind.search_range
            for r in (lo, lo * (hi / lo) ** 0.5, hi):
                cases.append(_column(backend, [kind.value, "true", r]))
            cases.append(_column(backend, [kind.value, "comp", 200e3]))
        o3 = ["O3", "true", 200e3]
        cases.append(_column(backend, ["O3", "true", 200000]))
        for init_vc in (0.0, -0.0, 2.4, SUBNORMAL):
            for background in (0, 1):
                cases.append(_column(backend, o3, init_vc=init_vc,
                                     background=background))
        for tech in TECHS:
            for stress in STRESSES:
                cases.append(_column(backend, o3, tech=tech,
                                     stress=stress))
        for ops in ("w1^6 w0 r0 r0", "w0 w0 w0 r0 r0", "r", "nop r1",
                    "w1 w1 w0 r0 nop r0 w1 r1", ["w1", "w1", "w0", "r0"],
                    ["r", "r", "nop", "w0", "w0"]):
            cases.append(_column(backend, o3, ops=ops))
    for site in (["open_sn", 5, 200e3], ["bridge_wl", 9, 50e3]):
        for address in (None, [1, 2]):
            for trim in ("off", "auto", "force"):
                cases.append({"type": "array", "site": site,
                              "geometry": [4, 4], "address": address,
                              "trim": trim, "ops": "w1 r1", "init_vc": 0.0,
                              "background": 0, "tech": "default",
                              "stress": "nominal"})
    for tech in TECHS:
        for stress in ("temp_c=-0.0", "fig6"):
            cases.append({"type": "array", "site": ["open_sn", 0, 1e6],
                          "geometry": [6, 6], "address": [0, 0],
                          "trim": "force", "ops": "w0 r nop r",
                          "init_vc": -0.0, "background": 1, "tech": tech,
                          "stress": stress})
    for backend in ("behavioral", "electrical"):
        for kind in (DefectKind.O3, DefectKind.SV, DefectKind.B1):
            for placement in ("true", "comp"):
                for rel_tol in (0.05, 0.08):
                    cases.append({"type": "journal", "backend": backend,
                                  "defect": [kind.value, placement],
                                  "tech": "default", "rel_tol": rel_tol})
        for tech in ("perturbed", "v_ref_tc=-0.0"):
            cases.append({"type": "journal", "backend": backend,
                          "defect": ["Sv", "true"], "tech": tech,
                          "rel_tol": 0.05})
    # Every optional key at once, so the order of the tier and array
    # keys around the stress and tech stays pinned.
    cases.append({"type": "raw", "tier": "surrogate-cal",
                  "geometry": [4, 4], "address": None, "trim": "force",
                  "tech": "v_ref_tc=-0.0", "stress": "fig6"})
    return cases


def _defect(spec) -> Defect:
    kind, placement, *resistance = spec
    return Defect(DefectKind(kind), Placement(placement), *resistance)


def _ops(spec):
    return spec if isinstance(spec, str) else [Op.parse(o) for o in spec]


def _build(case: dict) -> SequenceRequest:
    tech = TECHS[case["tech"]]()
    if case["type"] == "journal":
        return journal_request(_defect(case["defect"]),
                               backend=case["backend"], tech=tech,
                               rel_tol=case["rel_tol"])
    stress = STRESSES[case["stress"]]()
    if case["type"] == "raw":
        return SequenceRequest(
            backend="electrical", tech=tech, defect_kind="open_sn",
            cell=0, resistance=None, stress=stress, ops="surrogate-cal",
            init_vc=0.0, geometry=tuple(case["geometry"]),
            address=case["address"], trim=case["trim"],
            tier=case["tier"])
    if case["type"] == "array":
        defect = DefectSite(*case["site"])
        extra = {"backend": "electrical",
                 "geometry": tuple(case["geometry"]),
                 "address": (tuple(case["address"])
                             if case["address"] is not None else None),
                 "trim": case["trim"]}
    else:
        defect = (_defect(case["defect"])
                  if case["defect"] is not None else None)
        extra = {"backend": case["backend"]}
    return SequenceRequest.build(_ops(case["ops"]), case["init_vc"],
                                 defect=defect, stress=stress, tech=tech,
                                 background=case["background"], **extra)


def _record(case: dict) -> dict:
    request = _build(case)
    out = {"case": case, "hash": request.content_hash}
    if case["type"] in ("column", "array"):
        out["cycles"] = request.cycles
    return out


def _generate() -> dict:
    return {"cases": [_record(c) for c in _cases()],
            "tech_fingerprints": {name: tech_fingerprint(make())
                                  for name, make in TECHS.items()}}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_lists_exactly_these_cases(golden):
    assert [r["case"] for r in golden["cases"]] == _cases()


def test_golden_keeps_signed_zeros_and_types(golden):
    """JSON must round-trip the axes whose rendering differs between
    equal values: -0.0, the subnormal, and int-valued resistances."""
    init_vcs = {repr(r["case"]["init_vc"]) for r in golden["cases"]
                if "init_vc" in r["case"]}
    assert {"0.0", "-0.0", "2.4", "5e-324"} <= init_vcs
    resistances = {repr(r["case"]["defect"][2]) for r in golden["cases"]
                   if r["case"]["type"] == "column"
                   and r["case"]["defect"] is not None}
    assert {"200000", "200000.0"} <= resistances


def test_replay_hashes_and_cycles(golden):
    mismatches = [(r["case"], r["hash"], got) for r, got in
                  ((r, _record(r["case"])) for r in golden["cases"])
                  if got != r]
    assert not mismatches, mismatches[:3]


def test_replay_tech_fingerprints(golden):
    assert golden["tech_fingerprints"] == {
        name: tech_fingerprint(make()) for name, make in TECHS.items()}


def test_repeated_objects_hash_as_fresh_ones(golden):
    """One tech and one stress object reused across many requests (the
    sweep pattern) hash exactly like fresh objects per request."""
    tech = TECHS["v_ref_tc=-0.0"]()
    stress = STRESSES["temp_c=-0.0"]()
    seen = 0
    for record in golden["cases"]:
        case = record["case"]
        if (case["type"] == "column" and case["tech"] == "v_ref_tc=-0.0"
                and case["stress"] == "temp_c=-0.0"):
            request = SequenceRequest.build(
                case["ops"], case["init_vc"], backend=case["backend"],
                defect=_defect(case["defect"]), stress=stress, tech=tech,
                background=case["background"])
            assert request.content_hash == record["hash"]
            seen += 1
    assert seen == 2


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_generate(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
