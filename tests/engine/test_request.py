"""Content-addressed sequence requests: hashing and canonicalisation."""

import os
import subprocess
import sys

from repro.defects import Defect, DefectKind
from repro.engine import SequenceRequest, tech_fingerprint
from repro.stress import NOMINAL_STRESS
from repro.dram.tech import default_tech


def _request(**overrides) -> SequenceRequest:
    kwargs = dict(ops="w1^2 w0 r0", init_vc=0.0, backend="behavioral",
                  defect=Defect(DefectKind.O3, resistance=200e3),
                  stress=NOMINAL_STRESS)
    kwargs.update(overrides)
    return SequenceRequest.build(kwargs.pop("ops"), kwargs.pop("init_vc"),
                                 **kwargs)


class TestContentHash:
    def test_deterministic_within_process(self):
        assert _request().content_hash == _request().content_hash

    def test_stable_across_processes(self):
        """The hash is a pure content function — a fresh interpreter
        computes the same digest (no PYTHONHASHSEED dependence)."""
        code = (
            "from repro.defects import Defect, DefectKind\n"
            "from repro.engine import SequenceRequest\n"
            "from repro.stress import NOMINAL_STRESS\n"
            "r = SequenceRequest.build('w1^2 w0 r0', 0.0,"
            " backend='behavioral',"
            " defect=Defect(DefectKind.O3, resistance=200e3),"
            " stress=NOMINAL_STRESS)\n"
            "print(r.content_hash)\n")
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == _request().content_hash

    def test_every_field_contributes(self):
        base = _request()
        variants = [
            _request(ops="w1 w0 r0"),
            _request(init_vc=0.1),
            _request(defect=Defect(DefectKind.O3, resistance=300e3)),
            _request(defect=Defect(DefectKind.SG, resistance=200e3)),
            _request(stress=NOMINAL_STRESS.with_(vdd=2.1)),
            _request(background=1),
        ]
        hashes = {base.content_hash} | {v.content_hash for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_equal_but_distinct_techs_keep_their_own_hash(self):
        """The tech's canonical form is cached per object, not per value:
        ``0.0 == -0.0``, so these techs compare equal, but they render
        differently and must hash as they would uncached."""
        minus = default_tech().with_(v_ref_tc=-0.0)
        cold = _request(tech=minus).content_hash
        plus = default_tech().with_(v_ref_tc=0.0)
        assert plus == minus
        assert _request(tech=plus).content_hash != cold
        assert tech_fingerprint(plus) != tech_fingerprint(minus)
        again = default_tech().with_(v_ref_tc=-0.0)
        assert _request(tech=again).content_hash == cold

    def test_ops_spelling_is_canonicalised(self):
        """Equivalent sequence spellings address the same result."""
        expanded = _request(ops="w1 w1 w0 r0")
        assert expanded.content_hash == _request().content_hash

    def test_cycles_counts_operations(self):
        assert _request().cycles == 4
        assert _request(ops="r0").cycles == 1
        assert _request(ops="w1^6 w0 r0 r0").cycles == 9


class TestRequestObject:
    def test_frozen_and_hashable(self):
        req = _request()
        assert req == _request()
        assert hash(req) == hash(_request())

    def test_site_reconstructs_defect(self):
        site = _request().site()
        assert site is not None
        assert site.resistance == 200e3

    def test_describe_mentions_backend_and_ops(self):
        text = _request().describe()
        assert "behavioral" in text
        assert "w1^2 w0 r0" in text

    def test_tech_fingerprint_tracks_parameters(self):
        tech = default_tech()
        assert tech_fingerprint(tech) == tech_fingerprint(tech)
        bumped = tech.with_(cs=tech.cs * 1.01)
        assert tech_fingerprint(bumped) != tech_fingerprint(tech)


class TestArrayRequests:
    """Array geometry/address/trim fields and their hash gating."""

    #: Hash of the reference column request, pinned before the array
    #: fields existed — column requests must keep their cache/store
    #: addresses forever.
    PINNED = "dd3de624ce1c5cefb963bb51a94dc2f5f472926a020f2f96410906a55736c812"

    def test_column_hash_pinned(self):
        assert _request().content_hash == self.PINNED

    def test_column_requests_default_trim_off(self):
        req = _request()
        assert req.geometry is None
        assert req.trim == "off"

    def test_geometry_changes_the_hash(self):
        base = _request()
        arr = _request(geometry=(4, 4))
        assert arr.content_hash != base.content_hash

    def test_trim_policies_never_collide(self):
        hashes = {_request(geometry=(6, 6), trim=t).content_hash
                  for t in ("off", "auto", "force")}
        assert len(hashes) == 3

    def test_address_contributes(self):
        a = _request(geometry=(4, 4), address=(0, 0))
        b = _request(geometry=(4, 4), address=(1, 1))
        assert a.content_hash != b.content_hash

    def test_trim_default_resolution(self):
        from repro.dram.trim import set_trim_default, trim_default
        prev = set_trim_default("force")
        try:
            assert _request(geometry=(4, 4)).trim == "force"
            # Explicit policy wins over the process default.
            assert _request(geometry=(4, 4), trim="off").trim == "off"
            # Column requests ignore the default entirely.
            assert _request().trim == "off"
        finally:
            set_trim_default(prev)
        assert trim_default() == prev

    def test_trim_without_geometry_rejected(self):
        import pytest
        with pytest.raises(ValueError):
            _request(trim="force")
        with pytest.raises(ValueError):
            _request(address=(0, 0))

    def test_describe_mentions_geometry_and_trim(self):
        text = _request(geometry=(6, 6), trim="force").describe()
        assert "6x6" in text
        assert "trim=force" in text
