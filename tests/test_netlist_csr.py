"""Unit tests for the netlist's CSR, its caches, and the per-net kernels
that read it instead of walking ``Net.pins``."""

import numpy as np
import pytest

from repro.core.config import PlacementConfig
from repro.core.context import PlacementContext
from repro.core.detailed import DetailedLegalizer
from repro.metrics.wirelength import compute_net_metrics
from repro.netlist.csr import build_signal_csr, signal_csr
from repro.netlist.net import PinRole
from repro.netlist.netlist import Netlist
from repro.netlist.suite import load_benchmark
from repro.technology import TechnologyConfig


def _small_netlist():
    nl = Netlist("csr")
    for name in "abcd":
        nl.add_cell(name, 2e-6, 1e-6)
    nl.add_net("n0", [(0, PinRole.DRIVER), (1, PinRole.SINK),
                      (2, PinRole.SINK)], activity=0.3)
    nl.add_net("n1", [(2, PinRole.DRIVER), (3, PinRole.SINK)],
               activity=0.5)
    return nl


class TestBuildSignalCSR:
    def test_pin_lists_match_nets(self):
        nl = _small_netlist()
        csr = build_signal_csr(nl)
        assert csr.num_nets == 2
        assert csr.pins == [[0, 1, 2], [2, 3]]
        assert csr.drivers == [[0], [2]]

    def test_matches_python_construction_on_suite(self):
        nl = load_benchmark("ibm01", scale=0.02, seed=0)
        csr = build_signal_csr(nl)
        assert csr.num_nets == nl.num_nets
        for net, pins, drivers in zip(nl.nets, csr.pins, csr.drivers):
            assert pins == [cid for cid, _ in net.pins]
            assert drivers == net.driver_ids

    def test_index_arrays_are_int64(self):
        csr = build_signal_csr(_small_netlist())
        for name in ("net_ptr", "pin_cell", "pin_key", "drv_ptr",
                     "drv_cell", "drv_net", "cell_net_ptr",
                     "cell_net_idx"):
            assert getattr(csr, name).dtype == np.int64, name

    def test_shared_arrays_are_read_only(self):
        csr = signal_csr(_small_netlist())
        for name in ("net_ptr", "pin_cell", "pin_key", "drv_ptr",
                     "drv_cell", "drv_net", "cell_net_ptr",
                     "cell_net_idx", "cell_net_drvmult"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(csr, name)[0] = 1


class TestSignalCSRCaching:
    def test_instance_cache_reused(self):
        nl = _small_netlist()
        assert signal_csr(nl) is signal_csr(nl)

    def test_add_cell_invalidates(self):
        nl = _small_netlist()
        first = signal_csr(nl)
        nl.add_cell("e", 2e-6, 1e-6)
        assert signal_csr(nl) is not first

    def test_add_signal_net_invalidates(self):
        nl = _small_netlist()
        first = signal_csr(nl)
        nl.add_net("n2", [(0, PinRole.DRIVER), (3, PinRole.SINK)],
                   activity=0.1)
        again = signal_csr(nl)
        assert again is not first
        assert again.num_nets == 3


# ----------------------------------------------------------------------
# Reference loops: the per-net Python walks over ``Net.pins`` that the
# CSR kernels replaced.  The kernels must match them bit for bit.
# ----------------------------------------------------------------------
def _ref_net_metrics(placement):
    netlist = placement.netlist
    m = netlist.num_nets
    wl_x = np.zeros(m)
    wl_y = np.zeros(m)
    ilv = np.zeros(m, dtype=np.int64)
    xs = placement.x.tolist()
    ys = placement.y.tolist()
    zs = placement.z.tolist()
    for net in netlist.nets:
        ids = net.unique_cell_ids
        nx = [xs[c] for c in ids]
        ny = [ys[c] for c in ids]
        nz = [zs[c] for c in ids]
        wl_x[net.id] = max(nx) - min(nx)
        wl_y[net.id] = max(ny) - min(ny)
        ilv[net.id] = max(nz) - min(nz)
    return wl_x, wl_y, ilv


def _ref_cell_powers(power_model, metrics, floors=None):
    wl = metrics.wl_x + metrics.wl_y
    ilv = metrics.ilv.astype(np.float64)
    if floors is not None:
        wl = np.maximum(wl, floors.wl_x + floors.wl_y)
        ilv = np.maximum(ilv, floors.ilv)
    per_net_share = (power_model.s_wl * wl + power_model.s_ilv * ilv
                     + power_model.s_input_pins)
    powers = power_model.leakage_powers().copy()
    for net in power_model.netlist.nets:
        share = float(per_net_share[net.id])
        if share == 0.0:
            continue
        for driver in net.driver_ids:
            powers[driver] += share
    return powers


def _ref_nets_of_cell(netlist):
    incidence = [[] for _ in range(len(netlist.cells))]
    for net in netlist.nets:
        for cid in net.unique_cell_ids:
            incidence[cid].append(net.id)
    return incidence


def _ref_sensitivities(netlist):
    degree = np.zeros(netlist.num_cells, dtype=np.float64)
    for net in netlist.nets:
        for cid in net.unique_cell_ids:
            degree[cid] += 1
    areas = netlist.areas
    mean_area = max(float(areas.mean()), 1e-30)
    return degree + areas / mean_area


def _hand_built():
    """A multi-driver net, two one-pin nets, a repeated sink pin and a
    fixed cell."""
    nl = Netlist("hand")
    for i, width in enumerate((2e-6, 3e-6, 2e-6, 4e-6, 2e-6)):
        nl.add_cell(f"c{i}", width, 1e-6)
    nl.add_cell("pad", 1e-6, 1e-6, fixed=True,
                fixed_position=(0.0, 0.0, 0))
    D, S = PinRole.DRIVER, PinRole.SINK
    nl.add_net("fanout", [(0, D), (1, S), (2, S)], activity=0.3)
    nl.add_net("multi", [(1, D), (2, D), (3, S), (5, S)], activity=0.5)
    nl.add_net("lone_driver", [(3, D)], activity=0.2)
    nl.add_net("lone_sink", [(4, S)], activity=0.2)
    nl.add_net("repeat", [(4, D), (0, S), (0, S), (2, S)], activity=0.1)
    return nl


_NETLISTS = {
    "ibm01": lambda: load_benchmark("ibm01", scale=0.03, seed=0),
    "synthetic1k": lambda: load_benchmark("synthetic1k", scale=1.0,
                                          seed=0),
    "hand": _hand_built,
}


def _same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    return np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.fixture(params=sorted(_NETLISTS), scope="module")
def random_contexts(request):
    """Two random placements of each netlist: one continuous, one on a
    coarse grid (ties and zero spans), both over three layers."""
    netlist = _NETLISTS[request.param]()
    # leakage makes every cell's starting power nonzero
    config = PlacementConfig(
        num_layers=3, alpha_temp=1e-5, seed=0,
        tech=TechnologyConfig(leakage_power_density=1e5))
    contexts = []
    for grid in (None, 4):
        ctx = PlacementContext.create(netlist, config)
        rng = np.random.default_rng(7)
        pl = ctx.placement
        n = netlist.num_cells
        fx = rng.random(n)
        fy = rng.random(n)
        if grid is not None:
            fx = np.floor(fx * grid) / grid
            fy = np.floor(fy * grid) / grid
        pl.x[:] = fx * pl.chip.width
        pl.y[:] = fy * pl.chip.height
        pl.z[:] = rng.integers(0, pl.chip.num_layers, size=n)
        contexts.append(ctx)
    return contexts


class TestKernelsMatchReferenceLoops:
    def test_compute_net_metrics(self, random_contexts):
        for ctx in random_contexts:
            metrics = compute_net_metrics(ctx.placement)
            wl_x, wl_y, ilv = _ref_net_metrics(ctx.placement)
            assert _same_bits(metrics.wl_x, wl_x)
            assert _same_bits(metrics.wl_y, wl_y)
            assert _same_bits(metrics.ilv, ilv)

    def test_cell_powers(self, random_contexts):
        for ctx in random_contexts:
            pm = ctx.power_model
            metrics = compute_net_metrics(ctx.placement)
            assert _same_bits(pm.cell_powers(metrics),
                              _ref_cell_powers(pm, metrics))
            floors = pm.peko_optimal(ctx.config.alpha_ilv)
            assert _same_bits(pm.cell_powers(metrics, floors=floors),
                              _ref_cell_powers(pm, metrics, floors))

    def test_nets_of_cell(self, random_contexts):
        netlist = random_contexts[0].netlist
        assert [netlist.nets_of_cell(cid)
                for cid in range(netlist.num_cells)] \
            == _ref_nets_of_cell(netlist)

    def test_sensitivities(self, random_contexts):
        for ctx in random_contexts:
            legalizer = DetailedLegalizer(ctx.objective, ctx.config)
            assert _same_bits(legalizer._sensitivities(),
                              _ref_sensitivities(ctx.netlist))
