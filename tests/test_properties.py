"""Property-based tests (hypothesis) for core data structures and
invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cellshift import shifted_widths
from repro.core.config import PlacementConfig
from repro.core.objective import ObjectiveState
from repro.geometry.chip import ChipGeometry
from repro.geometry.density import DensityMesh
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.netlist import Netlist
from repro.netlist.placement import Placement
from repro.partition.fm import FMRefiner, cut_cost
from repro.partition.hypergraph import Hypergraph
from repro.partition.multilevel import BisectionConfig, bisect

# ----------------------------------------------------------------------
# geometry
# ----------------------------------------------------------------------
coords = st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False,
                   allow_infinity=False)
layers = st.integers(min_value=0, max_value=7)


# ----------------------------------------------------------------------
# cell shifting widths (Eq. 16 invariants)
# ----------------------------------------------------------------------
densities = st.lists(st.floats(min_value=0.0, max_value=8.0,
                               allow_nan=False),
                     min_size=2, max_size=24)


@given(densities)
def test_shifted_widths_conserve_row_width(d):
    w = shifted_widths(d, 1.0, a_lower=0.5, a_upper=1.0, b=1.0)
    assert w.sum() == pytest.approx(len(d))


@given(densities)
def test_shifted_widths_positive_no_crossover(d):
    w = shifted_widths(d, 1.0, a_lower=0.5, a_upper=1.0, b=1.0)
    assert np.all(w > 0)
    bounds = np.cumsum(w)
    assert np.all(np.diff(bounds) > 0)


@given(densities)
def test_shifted_widths_noop_without_congestion(d):
    if max(d) <= 1.0:
        w = shifted_widths(d, 1.0, a_lower=0.5, a_upper=1.0, b=1.0)
        assert np.allclose(w, 1.0)


@given(densities)
def test_shifted_widths_congested_never_shrink(d):
    w = shifted_widths(d, 1.0, a_lower=0.5, a_upper=1.0, b=1.0)
    for di, wi in zip(d, w):
        if di > 1.0:
            assert wi >= 1.0 - 1e-12


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
@st.composite
def hypergraphs(draw):
    n = draw(st.integers(min_value=4, max_value=24))
    m = draw(st.integers(min_value=1, max_value=40))
    nets = []
    for _ in range(m):
        size = draw(st.integers(min_value=2, max_value=min(5, n)))
        pins = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                             min_size=size, max_size=size, unique=True))
        nets.append(pins)
    return Hypergraph(n, nets)


@given(hypergraphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_fm_refine_invariants(graph, seed):
    """FM never worsens a balanced start; an unbalanced start may trade
    cut for feasibility but must land inside the balance window."""
    rng = np.random.default_rng(seed)
    parts = rng.integers(0, 2, graph.num_vertices)
    before = cut_cost(graph, parts)
    refiner = FMRefiner(graph, rng=np.random.default_rng(seed))
    w0_before = float(graph.vertex_weights[parts == 0].sum())
    started_feasible = refiner.lo <= w0_before <= refiner.hi
    after = refiner.refine(parts)
    assert after == pytest.approx(cut_cost(graph, parts))
    w0_after = float(graph.vertex_weights[parts == 0].sum())
    if started_feasible:
        assert after <= before + 1e-9
        assert refiner.lo - 1e-9 <= w0_after <= refiner.hi + 1e-9
    else:
        # feasibility outranks cut: the violation must not grow
        viol_before = max(refiner.lo - w0_before,
                          w0_before - refiner.hi)
        viol_after = max(0.0, refiner.lo - w0_after,
                         w0_after - refiner.hi)
        assert viol_after <= viol_before + 1e-9


@given(hypergraphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_bisect_cut_is_reported_correctly(graph, seed):
    parts, cut = bisect(graph, BisectionConfig(seed=seed))
    assert set(np.unique(parts)) <= {0, 1}
    assert cut == pytest.approx(cut_cost(graph, parts))


@given(hypergraphs())
@settings(max_examples=30, deadline=None)
def test_contract_preserves_total_vertex_weight(graph):
    rng = np.random.default_rng(0)
    match = np.arange(graph.num_vertices)
    # random pairing
    perm = rng.permutation(graph.num_vertices)
    for i in range(0, len(perm) - 1, 2):
        match[perm[i + 1]] = perm[i]
    coarse, vmap = graph.contract(match)
    assert coarse.vertex_weights.sum() == pytest.approx(
        graph.vertex_weights.sum())
    assert len(vmap) == graph.num_vertices
    assert vmap.max() == coarse.num_vertices - 1


# ----------------------------------------------------------------------
# objective incremental consistency under random move sequences
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=1000),
       st.booleans())
@settings(max_examples=15, deadline=None)
def test_objective_incremental_equals_rebuild(seed, thermal):
    netlist = generate_netlist(GeneratorSpec(
        name="prop", num_cells=60, total_area=60 * 5e-12, seed=13))
    config = PlacementConfig(alpha_ilv=1e-5,
                             alpha_temp=4e-5 if thermal else 0.0,
                             num_layers=4, seed=0)
    chip = ChipGeometry.for_cell_area(
        netlist.total_cell_area, 4, netlist.average_cell_height,
        min_row_width=24 * netlist.average_cell_width)
    pl = Placement.random(netlist, chip, seed=seed)
    state = ObjectiveState(pl, config)
    rng = np.random.default_rng(seed)
    for _ in range(30):
        cid = int(rng.integers(0, netlist.num_cells))
        move = (cid, float(rng.uniform(0, chip.width)),
                float(rng.uniform(0, chip.height)),
                int(rng.integers(0, 4)))
        state.apply_moves([move])
    state.check_consistency()


# ----------------------------------------------------------------------
# density mesh bookkeeping
# ----------------------------------------------------------------------
@given(st.lists(st.tuples(coords, coords, layers), min_size=1,
                max_size=40))
@settings(max_examples=40, deadline=None)
def test_density_mesh_area_conserved(cells):
    chip = ChipGeometry(width=2e-3, height=2e-3, num_layers=8,
                        row_height=2e-6, row_pitch=2.5e-6)
    mesh = DensityMesh(chip, nx=5, ny=5)
    area = 3e-12
    netlist = Netlist("mesh")
    for i in range(len(cells)):
        netlist.add_cell(f"c{i}", 3e-6, 1e-6)
    x, y, z = zip(*cells)
    placement = Placement(netlist, chip, x=np.abs(x), y=np.abs(y), z=z)
    mesh.build_from_placement(placement, np.full(len(cells), area))
    total = mesh.densities.sum() * mesh.bin_capacity
    assert total == pytest.approx(len(cells) * area)
