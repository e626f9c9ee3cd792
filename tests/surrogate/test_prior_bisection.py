"""Prior-guided bisection: bitwise identity with the serial search.

These tests drive :func:`repro.analysis.border.border_resistance`
through synthetic predicates (no simulation), comparing the
prior-seeded search bitwise against the plain serial loop over a grid
of borders, polarities, tolerances and prior qualities.  The guided
search's contract is exact: a prior may only change *how many* probes
run, never the returned result.
"""

import math

import pytest

from repro.analysis.border import (GRID_LATTICE, SPECULATE_DEPTH,
                                   bisect_lattice, border_resistance,
                                   log_lattice)

R_LO = 1e3
R_HI = 1e7


class CountingPredicate:
    """Monotone fault predicate with a call counter.

    ``fails_high=True`` (opens): faulty at and above the border.
    ``fails_high=False`` (shorts/bridges): faulty at and below it.
    """

    def __init__(self, border: float, fails_high: bool):
        self.border = border
        self.fails_high = fails_high
        self.calls = 0

    def __call__(self, r: float) -> bool:
        self.calls += 1
        if self.fails_high:
            return r >= self.border
        return r <= self.border


def _search(border, fails_high, *, rel_tol=0.05, prior=None):
    pred = CountingPredicate(border, fails_high)
    result = border_resistance(None, fails_high=fails_high,
                               r_lo=R_LO, r_hi=R_HI, predicate=pred,
                               rel_tol=rel_tol, prior=prior)
    return result, pred.calls


BORDERS = [1.7e3, 9.99e3, 5.4e4, 1.54e5, 8.8e5, 6.66e6]


@pytest.mark.parametrize("fails_high", [True, False])
@pytest.mark.parametrize("border", BORDERS)
@pytest.mark.parametrize("rel_tol", [0.05, 0.01])
def test_exact_prior_is_bitwise_identical_and_cheaper(border, fails_high,
                                                      rel_tol):
    serial, serial_calls = _search(border, fails_high, rel_tol=rel_tol)
    guided, guided_calls = _search(border, fails_high, rel_tol=rel_tol,
                                   prior=serial.resistance)
    assert guided.resistance == serial.resistance          # bitwise
    assert guided.always_faulty == serial.always_faulty
    assert guided.never_faulty == serial.never_faulty
    assert guided_calls < serial_calls
    assert guided_calls <= 4


@pytest.mark.parametrize("fails_high", [True, False])
@pytest.mark.parametrize("border", BORDERS)
@pytest.mark.parametrize("factor", [0.5, 0.9, 1.3, 4.0])
def test_offset_prior_still_bitwise_identical(border, fails_high, factor):
    serial, serial_calls = _search(border, fails_high)
    guided, guided_calls = _search(border, fails_high,
                                   prior=border * factor)
    assert guided.resistance == serial.resistance
    # a wrong prior only costs probes (re-aim + verify), bounded-ly so
    assert guided_calls <= 3 * serial_calls


@pytest.mark.parametrize("fails_high", [True, False])
@pytest.mark.parametrize("prior", [R_LO, R_HI, 1e-3, 1e12, 1.0])
def test_extreme_priors_are_safe(fails_high, prior):
    border = 5.4e4
    serial, _ = _search(border, fails_high)
    guided, _ = _search(border, fails_high, prior=prior)
    assert guided.resistance == serial.resistance


@pytest.mark.parametrize("fails_high", [True, False])
@pytest.mark.parametrize("prior", [None, 5e4, R_LO, R_HI])
def test_degenerate_ranges_match_serial(fails_high, prior):
    always = border_resistance(
        None, fails_high=fails_high, r_lo=R_LO, r_hi=R_HI,
        predicate=lambda r: True, prior=prior)
    assert always.always_faulty and always.resistance is None
    never = border_resistance(
        None, fails_high=fails_high, r_lo=R_LO, r_hi=R_HI,
        predicate=lambda r: False, prior=prior)
    assert never.never_faulty and never.resistance is None


@pytest.mark.parametrize("prior", [math.nan, math.inf, -1.0, 0.0])
def test_non_finite_priors_fall_back_to_serial(prior):
    serial, serial_calls = _search(5.4e4, True)
    guided, guided_calls = _search(5.4e4, True, prior=prior)
    assert guided.resistance == serial.resistance
    assert guided_calls == serial_calls       # prior path never entered


def test_isolate_policy_ignores_prior():
    border = 5.4e4
    unseeded = CountingPredicate(border, True)
    serial = border_resistance(None, fails_high=True, r_lo=R_LO,
                               r_hi=R_HI, predicate=unseeded,
                               on_error="isolate")
    pred = CountingPredicate(border, True)
    guided = border_resistance(None, fails_high=True, r_lo=R_LO,
                               r_hi=R_HI, predicate=pred,
                               on_error="isolate", prior=border)
    assert guided.resistance == serial.resistance
    assert pred.calls == unseeded.calls


def test_non_monotone_predicate_returns_a_true_transition():
    """The bitwise-identity contract assumes a monotone predicate; a
    non-monotone one may land the guided search on a different (but
    genuine) transition.  What it must never do is fabricate a border
    where the probes show none."""
    def noisy(r):
        # two transitions: faulty band in the middle of the range
        return 2e4 <= r <= 3e5

    for prior in [1.5e4, 1e5, 5e5]:
        got = border_resistance(None, fails_high=True, r_lo=R_LO,
                                r_hi=R_HI, predicate=noisy, prior=prior)
        if got.resistance is not None:
            # a served border brackets a real, probe-verified
            # False->True transition (leaf half-width < 1.03 at
            # rel_tol=0.05)
            assert not noisy(got.resistance / 1.03)
            assert noisy(got.resistance * 1.03)


@pytest.mark.parametrize("fails_high", [True, False])
def test_dense_border_sweep_identity(fails_high):
    """Dense deterministic sweep across the whole range and the leaf
    lattice: every prior leaf position must reproduce serial exactly."""
    n = 60
    for i in range(n):
        border = R_LO * (R_HI / R_LO) ** ((i + 0.5) / n)
        serial, _ = _search(border, fails_high)
        for prior in (serial.resistance, border, border * 1.07,
                      border / 1.07):
            guided, _ = _search(border, fails_high, prior=prior)
            assert guided.resistance == serial.resistance, (
                f"border={border!r} prior={prior!r}")


# ----------------------------------------------------------------------
# schedule parity: serial, speculative batch and prior on both lattices
# ----------------------------------------------------------------------
GRID_N = 97


def _lattice_case(lattice_name, rel_tol):
    """``(lattice, lo, hi, borders)`` of one lattice in the parity grid."""
    if lattice_name == "log":
        return log_lattice(rel_tol), R_LO, R_HI, BORDERS
    return GRID_LATTICE, 0, GRID_N - 1, [1, 2, 17, 48, 49, 80, 95, 96]


class RecordingSide:
    """Monotone ``side`` recording the points it answers for; with
    ``fetched`` set, every answered point must have been prefetched."""

    def __init__(self, border, fetched=None):
        self.border = border
        self.fetched = fetched
        self.consumed = []

    def __call__(self, x, lo, hi):
        if self.fetched is not None:
            assert x in self.fetched, f"{x!r} consumed before prefetch"
        self.consumed.append(x)
        return x >= self.border


@pytest.mark.parametrize("lattice_name", ["log", "grid"])
@pytest.mark.parametrize("rel_tol", [0.05, 0.01])
def test_schedules_reach_the_serial_leaf(lattice_name, rel_tol):
    lattice, lo, hi, borders = _lattice_case(lattice_name, rel_tol)
    for border in borders:
        serial_side = RecordingSide(border)
        serial = bisect_lattice(lattice, lo, hi, serial_side)

        fetched, batches = set(), []

        def prefetch(points):
            batches.append(list(points))
            fetched.update(points)

        spec_side = RecordingSide(border, fetched)
        speculative = bisect_lattice(lattice, lo, hi, spec_side,
                                     prefetch=prefetch)
        assert speculative == serial                          # bitwise
        assert spec_side.consumed == serial_side.consumed
        assert batches[0][:2] == [lo, hi]
        assert all(len(b) <= 2 ** SPECULATE_DEPTH + 1 for b in batches)

        for prior in (serial[0], serial[1], border, lo, hi,
                      lattice.shift(border, *serial, 5),
                      lattice.shift(border, *serial, -5)):
            prior_side = RecordingSide(border)
            guided = bisect_lattice(lattice, lo, hi, prior_side,
                                    prior=prior)
            assert guided == serial, f"border={border!r} prior={prior!r}"
            if prior == serial[0]:
                # a prior on the leaf costs its two endpoints
                assert prior_side.consumed == list(serial)


@pytest.mark.parametrize("lattice_name", ["log", "grid"])
def test_speculative_batches_are_subdivision_trees(lattice_name):
    lattice, lo, hi, borders = _lattice_case(lattice_name, 0.05)
    batches = []
    bisect_lattice(lattice, lo, hi, RecordingSide(borders[2]),
                   prefetch=batches.append)
    mid = lattice.split(lo, hi)
    assert batches[0] == [lo, hi, mid, lattice.split(lo, mid),
                          lattice.split(mid, hi)]
    # every point is measured once
    flat = [x for b in batches for x in b]
    assert len(flat) == len(set(flat))
