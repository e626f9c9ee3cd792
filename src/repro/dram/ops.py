"""Memory operations and per-operation results.

The paper works with three operations applied to the cell under analysis:
``w0`` (write 0), ``w1`` (write 1) and ``r`` (read).  Detection conditions
additionally annotate reads with the *expected* value (``r0``/``r1``); a
fault is detected when a read returns the complement of its expectation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.diagnostics import diagnostics


class Operation(enum.Enum):
    """A single-cycle memory operation on the target cell.

    ``NOP`` is an idle cycle: the cell is not accessed but time passes —
    march tests use it to model operations addressed at *other* cells,
    during which a leaky/shorted cell keeps decaying.
    """

    W0 = "w0"
    W1 = "w1"
    R = "r"
    NOP = "nop"

    @property
    def is_write(self) -> bool:
        return self in (Operation.W0, Operation.W1)

    @property
    def write_value(self) -> int:
        """Logical value written (0/1); raises for reads."""
        if self is Operation.W0:
            return 0
        if self is Operation.W1:
            return 1
        raise ValueError("read operations do not write a value")


@dataclass(frozen=True)
class Op:
    """An operation plus (for reads) its expected logical value.

    ``Op.parse("r0")`` is a read expecting 0; ``Op.parse("r")`` is a read
    with no expectation (used while exploring behaviour rather than
    testing).
    """

    operation: Operation
    expected: int | None = None

    def __post_init__(self):
        if self.expected is not None:
            if self.operation is not Operation.R:
                raise ValueError("only reads carry an expected value")
            if self.expected not in (0, 1):
                raise ValueError(f"expected must be 0 or 1, "
                                 f"got {self.expected}")

    @classmethod
    def parse(cls, token: str) -> "Op":
        token = token.strip().lower()
        if token == "w0":
            return cls(Operation.W0)
        if token == "w1":
            return cls(Operation.W1)
        if token == "r":
            return cls(Operation.R)
        if token == "nop":
            return cls(Operation.NOP)
        if token == "r0":
            return cls(Operation.R, expected=0)
        if token == "r1":
            return cls(Operation.R, expected=1)
        raise ValueError(f"unknown operation token {token!r}")

    def __str__(self):
        if self.operation is Operation.R and self.expected is not None:
            return f"r{self.expected}"
        return self.operation.value


def parse_ops(text: str) -> list[Op]:
    """Parse a whitespace/comma-separated operation sequence.

    Supports repetition with ``^``: ``"w1^3 w0 r0"`` →
    ``[w1, w1, w1, w0, r0]``.
    """
    ops: list[Op] = []
    for token in text.replace(",", " ").split():
        if "^" in token:
            base, _, count = token.partition("^")
            n = int(count)
            if n < 1:
                raise ValueError(f"repetition count must be >= 1 in "
                                 f"{token!r}")
            ops.extend([Op.parse(base)] * n)
        else:
            ops.append(Op.parse(token))
    if not ops:
        raise ValueError("empty operation sequence")
    return ops


def format_ops(ops) -> str:
    """Render an operation list compactly (``w1^2 w0 r0``)."""
    out: list[str] = []
    i = 0
    ops = list(ops)
    while i < len(ops):
        j = i
        while j < len(ops) and str(ops[j]) == str(ops[i]):
            j += 1
        count = j - i
        out.append(str(ops[i]) if count == 1 else f"{ops[i]}^{count}")
        i = j
    return " ".join(out)


@dataclass
class OpResult:
    """Observed behaviour of one operation cycle.

    Attributes
    ----------
    op:
        The operation applied.
    vc_end:
        Target-cell storage voltage at the end of the cycle.
    sensed:
        For reads: the logical value produced at the data output;
        ``None`` for writes.
    detected_fault:
        True when ``op`` carries an expectation and the sensed value
        differs from it.
    times, vc:
        Optional recorded waveform of the cell voltage over the cycle
        (present when the runner is asked to record traces).
    extra:
        Optional additional recorded waveforms keyed by node name.
    """

    op: Op
    vc_end: float
    sensed: int | None = None
    times: object = None
    vc: object = None
    extra: dict = field(default_factory=dict)

    @property
    def detected_fault(self) -> bool:
        return (self.op.expected is not None and self.sensed is not None
                and self.sensed != self.op.expected)


@dataclass
class SequenceResult:
    """Results of applying an operation sequence to the target cell."""

    ops: list[Op]
    results: list[OpResult]

    @property
    def vc_after(self) -> list[float]:
        """Cell voltage after each operation."""
        return [r.vc_end for r in self.results]

    @property
    def outputs(self) -> list[int | None]:
        """Read outputs in order (``None`` entries for writes)."""
        return [r.sensed for r in self.results]

    @property
    def any_fault(self) -> bool:
        """True if any expecting read observed the wrong value."""
        return any(r.detected_fault for r in self.results)

    def describe(self) -> str:
        parts = []
        for r in self.results:
            bit = "" if r.sensed is None else f"->{r.sensed}"
            flag = "!" if r.detected_fault else ""
            parts.append(f"{r.op}{bit}{flag}(Vc={r.vc_end:.2f})")
        return " ".join(parts)


def run_memoized(model, memo: dict, ops, init_vc: float,
                 background: int = 0) -> SequenceResult:
    """Apply ``ops`` (a string or a list of ops) to ``model`` from a
    fresh idle state, through ``model.run_op`` — the ``run_sequence`` of
    every single-lane model.

    ``memo`` is the model's trie of the prefixes it simulated,
    ``{(init_vc.hex(), background): {op: (OpResult, state after op,
    children)}}``; a sequence resumes from its longest prefix in it
    (counted as ``sequence.reused_cycles``), bit for bit a fresh run
    since every cycle is deterministic.  It holds for one defect
    resistance and one SC: the model clears it when either changes
    value.
    """
    if isinstance(ops, str):
        ops = parse_ops(ops)
    ops = [Op.parse(o) if isinstance(o, str) else o for o in ops]
    # hex() keeps 0.0 and -0.0 apart: they are equal keys but may end a
    # cycle with differently signed voltages.
    node = memo.setdefault((float(init_vc).hex(), int(background)), {})
    results: list[OpResult] = []
    state = None
    for op in ops:
        entry = node.get(op)
        if entry is None:
            break
        result, state, node = entry
        results.append(result)
    if results:
        diagnostics().count("sequence.reused_cycles", len(results))
    if state is None:
        state = model.idle_state(init_vc, background=background)
    for op in ops[len(results):]:
        # A copy: the behavioral run_op updates its state in place, and
        # a memoized state must stay as its cycle left it.
        result, state = model.run_op(op, dict(state))
        entry = node[op] = (result, state, {})
        node = entry[2]
        results.append(result)
    return SequenceResult(ops=ops, results=results)
