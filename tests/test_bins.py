"""Tests for the bin-packing machinery (Figure 2, lines 33-70)."""

from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.operations import OpKind
from repro.ir.types import ScalarType
from repro.machine.configs import MACHINE_FACTORIES, paper_machine
from repro.vectorize.bins import Bins, placement_freedom
from tests.bins_spec import Bins as SpecBins

F64 = ScalarType.F64
I64 = ScalarType.I64


@pytest.fixture
def bins(paper):
    return Bins(paper)


def info(paper, kind, dtype=F64, vector=False):
    return paper.opcode_info_for(kind, dtype, vector)


class TestBins:
    def test_starts_empty(self, bins, paper):
        assert bins.high_water_mark() == 0
        assert bins.load == [0] * len(bins.names)
        assert SpecBins(paper).sum_of_squares() == 0

    def test_single_reservation(self, bins, paper):
        bins.reserve_least_used(info(paper, OpKind.ADD), key=1)
        assert bins.high_water_mark() == 1

    def test_alternatives_balance(self, bins, paper):
        # 2 fp units: two fp adds share the high-water mark of 1.
        bins.reserve_least_used(info(paper, OpKind.ADD), key=1)
        bins.reserve_least_used(info(paper, OpKind.ADD), key=2)
        assert bins.high_water_mark() == 1
        bins.reserve_least_used(info(paper, OpKind.ADD), key=3)
        assert bins.high_water_mark() == 2

    def test_issue_slots_fill_across_six(self, bins, paper):
        for k in range(6):
            bins.reserve_least_used(info(paper, OpKind.ADD, I64), key=k)
        # 6 ops over 6 slots, but only 4 int units -> int is the constraint
        assert bins.high_water_mark() == 2

    def test_blocking_divide_weights(self, bins, paper):
        bins.reserve_least_used(info(paper, OpKind.DIV), key=1)
        assert bins.high_water_mark() == 32

    def test_reserving_an_existing_key_raises(self, bins, paper):
        bins.reserve_least_used(info(paper, OpKind.ADD), key="a")
        before = (list(bins.load), {k: list(v) for k, v in bins.reservations.items()})
        with pytest.raises(KeyError):
            bins.reserve_least_used(info(paper, OpKind.MUL), key="a")
        assert (bins.load, bins.reservations) == before

    def test_release_restores_exactly(self, bins, paper):
        # The flat bins release only inside a probe, on a copy.
        bins.reserve_least_used(info(paper, OpKind.ADD), key="a")
        before = bins.high_water_mark()
        bins.reserve_least_used(info(paper, OpKind.DIV), key="b")
        assert bins.probe(["b"], []) == before
        spec = SpecBins(paper)
        spec.reserve_least_used(info(paper, OpKind.ADD), key="a")
        snapshot = dict(spec.weights)
        spec.reserve_least_used(info(paper, OpKind.MUL), key="b")
        spec.release("b")
        assert spec.weights == snapshot

    def test_release_unknown_key_is_noop(self, bins, paper):
        bins.reserve_least_used(info(paper, OpKind.ADD), key="a")
        assert bins.probe(["ghost"], []) == bins.high_water_mark() == 1
        spec = SpecBins(paper)
        spec.release("ghost")
        assert spec.high_water_mark() == 0

    def test_double_release_detected(self, paper):
        spec = SpecBins(paper)
        spec.reserve_least_used(info(paper, OpKind.ADD), key="a")
        ledger = list(spec.reservations["a"])
        spec.release("a")
        spec.reservations["a"] = ledger
        with pytest.raises(RuntimeError):
            spec.release("a")

    def test_copy_is_independent(self, bins, paper):
        # A probe works on a copy of the loads, like the spec's copy().
        bins.reserve_least_used(info(paper, OpKind.ADD), key="a")
        state = (list(bins.load), {k: list(v) for k, v in bins.reservations.items()})
        plan = paper.reservation_spec(info(paper, OpKind.DIV))
        assert bins.probe(["a"], [plan]) == 32
        assert (bins.load, bins.reservations) == state
        assert bins.high_water_mark() == 1
        spec = SpecBins(paper)
        spec.reserve_least_used(info(paper, OpKind.ADD), key="a")
        clone = spec.copy()
        clone.reserve_least_used(info(paper, OpKind.ADD), key="b")
        assert spec.high_water_mark() == 1
        assert "b" not in spec.reservations

    def test_squared_tiebreak_spreads_load(self, bins, paper):
        """When the high-water mark is unaffected, reservations spread
        across alternatives (minimizing the sum of squares)."""
        for k in range(4):
            bins.reserve_least_used(info(paper, OpKind.ADD, I64), key=k)
        int_weights = [bins.weights[f"int{i}"] for i in range(4)]
        assert int_weights == [1, 1, 1, 1]

    def test_bounded_probe_at_the_bound_draws_no_plan(self, bins, paper):
        """Released loads already at the bound: the probe returns them
        without drawing a single plan."""
        bins.reserve_least_used(info(paper, OpKind.DIV), key="d")
        bins.reserve_least_used(info(paper, OpKind.ADD), key="a")

        def untouchable():
            raise AssertionError("the probe drew a plan")
            yield  # a generator that raises when advanced

        assert bins.probe(["a"], untouchable(), bound=32) == 32
        assert bins.probe(["a"], untouchable(), bound=5) == 32
        # Releasing the divide leaves the loads below the bound, so the
        # probe has to draw.
        with pytest.raises(AssertionError, match="drew a plan"):
            bins.probe(["d"], untouchable(), bound=32)

    def test_bounded_probe_stops_drawing_part_way(self, bins, paper):
        """A plan that lifts the high-water mark to the bound ends the
        probe: the plans after it are never drawn."""
        bins.reserve_least_used(info(paper, OpKind.ADD), key="a")
        add = paper.reservation_spec(info(paper, OpKind.ADD))
        div = paper.reservation_spec(info(paper, OpKind.DIV))
        drawn = []

        def plans():
            for plan in (add, div, add):
                drawn.append(plan)
                yield plan

        assert bins.probe([], plans(), bound=2) >= 2
        assert drawn == [add, div]
        drawn.clear()
        assert bins.probe([], plans()) == 33
        assert drawn == [add, div, add]

    @given(st.lists(st.sampled_from(["add", "mul", "load", "store"]), max_size=24))
    def test_hwm_equals_max_weight_invariant(self, kinds):
        paper = paper_machine()
        bins = Bins(paper)
        for i, k in enumerate(kinds):
            kind = {"add": OpKind.ADD, "mul": OpKind.MUL,
                    "load": OpKind.LOAD, "store": OpKind.STORE}[k]
            bins.reserve_least_used(info(paper, kind), key=i)
        assert bins.high_water_mark() == max(bins.weights.values())
        total = sum(bins.weights.values())
        # Every op reserves exactly slot + one unit = 2 cycles.
        assert total == 2 * len(kinds)

    @given(st.lists(st.sampled_from(["add", "mul", "load"]), min_size=1, max_size=16))
    def test_release_all_returns_to_empty(self, kinds):
        paper = paper_machine()
        bins = Bins(paper)
        spec = SpecBins(paper)
        for i, k in enumerate(kinds):
            kind = {"add": OpKind.ADD, "mul": OpKind.MUL, "load": OpKind.LOAD}[k]
            bins.reserve_least_used(info(paper, kind), key=i)
            spec.reserve_least_used(info(paper, kind), key=i)
        assert bins.probe(range(len(kinds)), []) == 0
        for i in range(len(kinds)):
            spec.release(i)
        assert all(w == 0 for w in spec.weights.values())


class TestPlacementFreedom:
    def test_fp_op_freedom(self, paper):
        # slot(6) x fp(2)
        assert placement_freedom(paper, info(paper, OpKind.ADD)) == 12

    def test_branch_is_most_constrained(self, paper):
        assert placement_freedom(paper, info(paper, OpKind.CBR, I64)) == 6

    def test_int_op_freedom(self, paper):
        assert placement_freedom(paper, info(paper, OpKind.ADD, I64)) == 24


# ----------------------------------------------------------------------
# Flat bins against the dict-keyed executable spec (tests/bins_spec.py)


def _opcode_pool(machine):
    """Every opcode a partition can reserve on ``machine``."""
    pool = []
    kinds = (OpKind.ADD, OpKind.MUL, OpKind.DIV, OpKind.LOAD, OpKind.STORE)
    for kind in kinds:
        for dtype in (F64, I64):
            for vector in (False, True):
                try:
                    pool.append(machine.opcode_info_for(kind, dtype, vector))
                except ValueError:
                    pass
    for kind in (OpKind.BUMP, OpKind.IVINC, OpKind.CBR):
        pool.append(machine.opcode_info_for(kind, I64, False))
    if machine.has_resource(machine.merge_resource):
        pool.append(machine.opcode_info_for(OpKind.MERGE, F64, True))
    return [info for info in pool if info.uses]


_ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["reserve", "checkpoint", "rollback"]),
        # Opcodes reserved under one new key.
        st.lists(st.integers(0, 63), min_size=1, max_size=3),
        # The probe after the action: distinct keys to release (live
        # ones or an absent one), then one plan per opcode list.
        st.lists(st.integers(0, 63), max_size=3),
        st.lists(st.lists(st.integers(0, 63), max_size=3), max_size=3),
    ),
    max_size=40,
)


def _plan(machine, opcodes):
    return tuple(use for o in opcodes for use in machine.reservation_spec(o))


def _assert_matches_spec(flat, spec):
    names = flat.names
    assert flat.weights == spec.weights
    assert {
        key: [(names[i], cycles) for i, cycles in entries]
        for key, entries in flat.reservations.items()
    } == spec.reservations
    assert flat.high_water_mark() == spec.high_water_mark()


def _spec_probe(spec, keys, opcode_lists):
    """TEST-REPARTITION by the spec: copy, release, reserve, read."""
    probe = spec.copy()
    for key in keys:
        probe.release(key)
    for j, opcodes in enumerate(opcode_lists):
        probe.reserve_all(opcodes, ("probe", j))
    return probe.high_water_mark()


@pytest.mark.parametrize("balance_ties", [True, False])
@pytest.mark.parametrize("machine_name", sorted(MACHINE_FACTORIES))
@settings(max_examples=40, deadline=None)
@given(actions=_ACTIONS)
def test_flat_bins_match_spec(machine_name, balance_ties, actions):
    """Reserve (each key once), checkpoint and rollback drive both bins
    alike, and after every action a probe on the flat bins equals the
    spec's copy -> release -> reserve -> high-water mark."""
    machine = MACHINE_FACTORIES[machine_name]()
    pool = _opcode_pool(machine)
    flat = Bins(machine, balance_ties=balance_ties)
    spec = SpecBins(machine, balance_ties=balance_ties)
    marks = []
    for n, (action, picks, release_picks, plan_picks) in enumerate(actions):
        if action == "reserve":
            opcodes = [pool[p % len(pool)] for p in picks]
            flat.reserve(_plan(machine, opcodes), n)
            spec.reserve_all(opcodes, n)
        elif action == "checkpoint":
            marks.append((flat.checkpoint(), spec.checkpoint()))
        elif marks:
            flat_mark, spec_mark = marks.pop()
            flat.rollback(flat_mark)
            spec.rollback(spec_mark)
            if spec_mark == 0:
                # Rolling the spec back to 0 ends its journal, and every
                # enclosing mark is 0 too.
                marks.clear()
        _assert_matches_spec(flat, spec)
        live = [*flat.reservations, "absent"]
        # ``probe`` requires distinct keys.
        keys = list(dict.fromkeys(live[p % len(live)] for p in release_picks))
        opcode_lists = [[pool[p % len(pool)] for p in ps] for ps in plan_picks]
        plans = [_plan(machine, opcodes) for opcodes in opcode_lists]
        state = (list(flat.load), {k: list(v) for k, v in flat.reservations.items()})
        assert flat.probe(keys, plans) == _spec_probe(spec, keys, opcode_lists)
        assert (flat.load, flat.reservations) == state


@pytest.mark.parametrize("balance_ties", [True, False])
@pytest.mark.parametrize("machine_name", ["paper", "vl4", "freecomm"])
@settings(max_examples=60, deadline=None)
@given(
    reserved=st.lists(st.lists(st.integers(0, 63), min_size=1, max_size=3), max_size=12),
    release_picks=st.lists(st.integers(0, 63), max_size=3),
    plan_picks=st.lists(st.lists(st.integers(0, 63), max_size=3), max_size=4),
    offset=st.integers(-6, 6),
)
def test_bounded_probe_is_exact_below_the_bound(
    machine_name, balance_ties, reserved, release_picks, plan_picks, offset
):
    """Under a bound, a probe returns the exact cost when that is below
    the bound and a value at least the bound otherwise, and leaves the
    live bins untouched either way."""
    machine = MACHINE_FACTORIES[machine_name]()
    pool = _opcode_pool(machine)
    bins = Bins(machine, balance_ties=balance_ties)
    for key, picks in enumerate(reserved):
        bins.reserve(_plan(machine, [pool[p % len(pool)] for p in picks]), key)
    live = [*bins.reservations, "absent"]
    keys = list(dict.fromkeys(live[p % len(live)] for p in release_picks))
    plans = [_plan(machine, [pool[p % len(pool)] for p in ps]) for ps in plan_picks]
    state = (list(bins.load), {k: list(v) for k, v in bins.reservations.items()})
    exact = bins.probe(keys, plans)
    bound = max(exact + offset, 0)
    bounded = bins.probe(keys, iter(plans), bound)
    if exact < bound:
        assert bounded == exact
    else:
        assert bounded >= bound
    assert bins.probe(keys, iter(plans), inf) == exact
    assert (bins.load, bins.reservations) == state


@settings(max_examples=300, deadline=None)
@given(
    span=st.lists(st.integers(0, 40), min_size=1, max_size=8),
    cycles=st.integers(1, 36),
    headroom=st.integers(0, 40),
)
def test_least_used_argmin_equals_explicit_scan(span, cycles, headroom):
    """The paper's (high-water mark, sum-of-squares) choice is the first
    least-loaded alternative whenever a use reserves at least one cycle."""
    hwm = max(span) + headroom
    best = None
    for i, old in enumerate(span):
        new = old + cycles
        score = (max(hwm, new), new * new - old * old)
        if best is None or score < best[0]:
            best = (score, i)
    assert best[1] == span.index(min(span))
