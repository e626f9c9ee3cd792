"""Operation tokens, parsing and sequence results."""

import pytest
from hypothesis import given, strategies as st

from repro.dram.ops import (
    Op,
    Operation,
    OpResult,
    SequenceResult,
    format_ops,
    parse_ops,
    run_memoized,
)


class TestOperation:
    def test_write_values(self):
        assert Operation.W0.write_value == 0
        assert Operation.W1.write_value == 1

    def test_read_has_no_write_value(self):
        with pytest.raises(ValueError):
            Operation.R.write_value

    def test_is_write(self):
        assert Operation.W0.is_write
        assert Operation.W1.is_write
        assert not Operation.R.is_write
        assert not Operation.NOP.is_write


class TestOpParsing:
    @pytest.mark.parametrize("token,op,expected", [
        ("w0", Operation.W0, None),
        ("w1", Operation.W1, None),
        ("r", Operation.R, None),
        ("r0", Operation.R, 0),
        ("r1", Operation.R, 1),
        ("nop", Operation.NOP, None),
        ("  R1 ", Operation.R, 1),
    ])
    def test_tokens(self, token, op, expected):
        parsed = Op.parse(token)
        assert parsed.operation is op
        assert parsed.expected == expected

    def test_unknown_token(self):
        with pytest.raises(ValueError):
            Op.parse("w2")

    def test_expected_only_on_reads(self):
        with pytest.raises(ValueError):
            Op(Operation.W0, expected=0)

    def test_expected_must_be_bit(self):
        with pytest.raises(ValueError):
            Op(Operation.R, expected=2)

    def test_str_roundtrip(self):
        for text in ("w0", "w1", "r", "r0", "r1"):
            assert str(Op.parse(text)) == text


class TestSequenceParsing:
    def test_whitespace_and_commas(self):
        assert [str(o) for o in parse_ops("w1, w0 r0")] == \
            ["w1", "w0", "r0"]

    def test_repetition(self):
        ops = parse_ops("w1^3 w0 r0")
        assert [str(o) for o in ops] == ["w1", "w1", "w1", "w0", "r0"]

    def test_bad_repetition(self):
        with pytest.raises(ValueError):
            parse_ops("w1^0")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_ops("   ")

    def test_format_compacts_runs(self):
        assert format_ops(parse_ops("w1 w1 w1 w0 r0 r0")) == \
            "w1^3 w0 r0^2"

    @given(st.lists(st.sampled_from(["w0", "w1", "r0", "r1", "r"]),
                    min_size=1, max_size=12))
    def test_format_parse_roundtrip(self, tokens):
        ops = parse_ops(" ".join(tokens))
        again = parse_ops(format_ops(ops))
        assert [str(a) for a in again] == [str(o) for o in ops]


class TestResults:
    def _read_result(self, expected, sensed):
        return OpResult(Op(Operation.R, expected=expected), vc_end=1.0,
                        sensed=sensed)

    def test_detected_fault_on_mismatch(self):
        assert self._read_result(0, 1).detected_fault
        assert not self._read_result(0, 0).detected_fault

    def test_no_fault_without_expectation(self):
        r = OpResult(Op(Operation.R), vc_end=1.0, sensed=1)
        assert not r.detected_fault

    def test_sequence_aggregates(self):
        seq = SequenceResult(
            ops=parse_ops("w1 r1"),
            results=[OpResult(Op(Operation.W1), vc_end=2.2),
                     self._read_result(1, 0)])
        assert seq.any_fault
        assert seq.vc_after == [2.2, 1.0]
        assert seq.outputs == [None, 0]

    def test_describe_marks_faults(self):
        seq = SequenceResult(ops=parse_ops("r0"),
                             results=[self._read_result(0, 1)])
        assert "!" in seq.describe()


class _Echo:
    """A model whose cycles report the state they start from and count
    themselves into it, in place."""

    def idle_state(self, vc_target, background=0):
        return {"vc": vc_target, "n": 10 * background}

    def run_op(self, op, state):
        state["n"] += 1
        return OpResult(op=op, vc_end=state["vc"], sensed=state["n"]), state


class TestRunMemoized:
    def test_resumes_from_the_longest_simulated_prefix(self):
        model, memo = _Echo(), {}
        run_memoized(model, memo, "w1 r1 r1", init_vc=0.0)
        seq = run_memoized(model, memo, "w1 r1 w0 r0", init_vc=0.0)
        # The in-place state update of the first run did not leak into
        # the memoized state the second run resumed from.
        assert seq.outputs == [1, 2, 3, 4]
        assert [str(r.op) for r in seq.results] == ["w1", "r1", "w0", "r0"]

    def test_keys_apart_what_a_fresh_run_tells_apart(self):
        model, memo = _Echo(), {}
        run_memoized(model, memo, "r", init_vc=0.0)
        assert run_memoized(model, memo, "r", init_vc=-0.0) \
            .results[0].vc_end.hex() == (-0.0).hex()
        assert run_memoized(model, memo, "r", init_vc=0.0,
                            background=1).outputs == [11]
