"""Property-based tests for the row-segment structure used by detailed
legalization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.detailed import RowSegments
from repro.geometry.chip import ChipGeometry
from repro.netlist.netlist import Netlist
from repro.netlist.placement import Placement

WIDTH = 100e-6


def make_segments():
    nl = Netlist("rows")
    nl.add_cell("c0", 1e-6, 1e-6)
    chip = ChipGeometry(width=WIDTH, height=10e-6, num_layers=1,
                        row_height=1e-6, row_pitch=1.25e-6)
    return RowSegments(Placement.at_center(nl, chip))


# widths as fractions of the row, desired positions as fractions
cells = st.lists(
    st.tuples(st.floats(min_value=0.01, max_value=0.2),
              st.floats(min_value=0.0, max_value=1.0)),
    min_size=1, max_size=12)


@given(cells)
@settings(max_examples=60, deadline=None)
def test_greedy_insertion_never_overlaps(specs):
    """Inserting at nearest_slot positions always stays legal."""
    segs = make_segments()
    placed = 0
    for i, (w_frac, x_frac) in enumerate(specs):
        w = w_frac * WIDTH
        slot = segs.nearest_slot(0, 0, x_frac * WIDTH, w)
        if slot is None:
            continue
        segs.insert(0, 0, i, slot, w)
        placed += 1
    starts = segs._starts[(0, 0)]
    ends = segs._ends[(0, 0)]
    assert len(starts) == placed
    for (s1, e1), (s2, e2) in zip(zip(starts, ends),
                                  zip(starts[1:], ends[1:])):
        assert e1 <= s2 + 1e-12
    if starts:
        assert starts[0] >= -1e-12
        assert ends[-1] <= WIDTH + 1e-12


@given(cells, st.floats(min_value=0.01, max_value=0.2),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_push_plan_invariants(specs, new_w_frac, new_x_frac):
    """push_plan keeps order, bounds and disjointness whenever it
    reports success."""
    segs = make_segments()
    next_id = 0
    for w_frac, x_frac in specs:
        w = w_frac * WIDTH
        slot = segs.nearest_slot(0, 0, x_frac * WIDTH, w)
        if slot is not None:
            segs.insert(0, 0, next_id, slot, w)
            next_id += 1
    order_before = segs.occupants(0, 0)
    w_new = new_w_frac * WIDTH
    plan = segs.push_plan(0, 0, new_x_frac * WIDTH, w_new)
    if segs.free_width(0, 0) < w_new - 1e-15:
        assert plan is None
        return
    assert plan is not None
    center, displaced = plan
    segs.apply_push(0, 0, 999, center, w_new, displaced, None)
    starts = segs._starts[(0, 0)]
    ends = segs._ends[(0, 0)]
    # disjoint, in bounds
    for (s1, e1), (s2, e2) in zip(zip(starts, ends),
                                  zip(starts[1:], ends[1:])):
        assert e1 <= s2 + 1e-9
    assert starts[0] >= -1e-9
    assert ends[-1] <= WIDTH + 1e-9
    # relative order of pre-existing cells preserved
    order_after = [c for c in segs.occupants(0, 0) if c != 999]
    assert order_after == order_before


@given(cells)
@settings(max_examples=40, deadline=None)
def test_free_width_accounting(specs):
    segs = make_segments()
    used = 0.0
    for i, (w_frac, x_frac) in enumerate(specs):
        w = w_frac * WIDTH
        slot = segs.nearest_slot(0, 0, x_frac * WIDTH, w)
        if slot is not None:
            segs.insert(0, 0, i, slot, w)
            used += w
    assert segs.free_width(0, 0) == pytest.approx(WIDTH - used)
