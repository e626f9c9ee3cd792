"""Per-cycle golden data for the behavioral column kernel.

``tests/golden/behav_cycles.json`` holds, for every Table-1 defect (seven
kinds, true and complementary placement) at three stress corners and
three resistances log-spaced over the kind's search range, the
end-of-cycle storage voltage (``float.hex``) and the sensed value of
every cycle of one operation sequence.  The model is deterministic scalar
float code, so a replay must reproduce every bit: any change to the
kernel's arithmetic or its operation order shows here.

Each defect gets one model, re-staged through ``set_stress`` and
``set_defect_resistance`` in file order — the way the engine reuses its
per-process models — so state carried across re-staging shows too.

Regenerate only when the model's semantics change on purpose::

    PYTHONPATH=src python tests/behav/test_golden_cycles.py
"""

import json
from pathlib import Path

import pytest

from repro.behav import behavioral_model
from repro.defects import ALL_DEFECTS, Defect, DefectKind, Placement
from repro.experiments.figures import FIG6_STRESS
from repro.stress import NOMINAL_STRESS, StressConditions

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "behav_cycles.json"

OPS = "w1 w1 w0 r0 nop r0 w1 r1"
INIT_VC = 0.0
#: Nominal, the Fig. 6 corner, and the opposite extreme of every stress.
CORNERS = {
    "nominal": NOMINAL_STRESS,
    "fig6": FIG6_STRESS,
    "opposite": StressConditions(tcyc=65e-9, duty=0.6, temp_c=-33.0,
                                 vdd=2.7),
}


def _resistances(kind: DefectKind) -> list[float]:
    lo, hi = kind.search_range
    return [lo, lo * (hi / lo) ** 0.5, hi]


def _run(model, stress: StressConditions, resistance: float) -> dict:
    model.set_stress(stress)
    model.set_defect_resistance(resistance)
    seq = model.run_sequence(OPS, init_vc=INIT_VC)
    return {"vc_end": [r.vc_end.hex() for r in seq.results],
            "sensed": [r.sensed for r in seq.results]}


def _defect(case: dict) -> Defect:
    return Defect(DefectKind(case["kind"]), Placement(case["placement"]))


def _generate() -> dict:
    cases = []
    for defect in ALL_DEFECTS:
        model = behavioral_model(defect)
        for corner, stress in CORNERS.items():
            for resistance in _resistances(defect.kind):
                cases.append({"kind": defect.kind.value,
                              "placement": defect.placement.value,
                              "corner": corner,
                              "resistance": resistance,
                              **_run(model, stress, resistance)})
    return {"ops": OPS, "init_vc": INIT_VC,
            "corners": {name: vars(s) for name, s in CORNERS.items()},
            "cases": cases}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_defect_corner_and_resistance(golden):
    assert golden["ops"] == OPS and golden["init_vc"] == INIT_VC
    assert golden["corners"] == {n: vars(s) for n, s in CORNERS.items()}
    seen = {(c["kind"], c["placement"], c["corner"], c["resistance"])
            for c in golden["cases"]}
    assert len(seen) == len(golden["cases"]) == len(ALL_DEFECTS) * 3 * 3
    assert {(k, p) for k, p, _, _ in seen} == {
        (d.kind.value, d.placement.value) for d in ALL_DEFECTS}


@pytest.mark.parametrize("defect", ALL_DEFECTS, ids=lambda d: d.name)
def test_replay_is_bit_identical(golden, defect):
    model = behavioral_model(defect)
    cases = [c for c in golden["cases"] if _defect(c) == defect]
    assert cases
    for case in cases:
        got = _run(model, StressConditions(**golden["corners"][case["corner"]]),
                   case["resistance"])
        assert got == {"vc_end": case["vc_end"], "sensed": case["sensed"]}, (
            f"{defect.name} {case['corner']} R={case['resistance']!r}")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_generate(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
