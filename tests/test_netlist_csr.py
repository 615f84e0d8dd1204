"""Unit tests for the dtype-minimized signal CSR and its caches."""

import numpy as np

from repro.netlist.csr import build_signal_csr, index_dtype, signal_csr
from repro.netlist.net import PinRole
from repro.netlist.netlist import Netlist
from repro.netlist.suite import load_benchmark


def _small_netlist():
    nl = Netlist("csr")
    for name in "abcd":
        nl.add_cell(name, 2e-6, 1e-6)
    nl.add_net("n0", [(0, PinRole.DRIVER), (1, PinRole.SINK),
                      (2, PinRole.SINK)], activity=0.3)
    nl.add_net("n1", [(2, PinRole.DRIVER), (3, PinRole.SINK)],
               activity=0.5)
    return nl


class TestIndexDtype:
    def test_small_ranges_use_int32(self):
        assert index_dtype(0) == np.int32
        assert index_dtype(2**31 - 1) == np.int32

    def test_overflow_guard_promotes_to_int64(self):
        assert index_dtype(2**31) == np.int64
        assert index_dtype(2**40) == np.int64


class TestBuildSignalCSR:
    def test_pin_lists_match_nets(self):
        nl = _small_netlist()
        csr = build_signal_csr(nl)
        assert csr.num_nets == 2
        assert csr.pin_lists() == [[0, 1, 2], [2, 3]]
        assert csr.driver_lists() == [[0], [2]]

    def test_matches_python_construction_on_suite(self):
        nl = load_benchmark("ibm01", scale=0.02, seed=0)
        csr = build_signal_csr(nl)
        expected_ids = [net.id for net in nl.nets if net.pins]
        assert csr.net_ids.tolist() == expected_ids
        nets = {net.id: net for net in nl.nets}
        for net_id, pins, drivers in zip(csr.net_ids.tolist(),
                                         csr.pin_lists(),
                                         csr.driver_lists()):
            net = nets[net_id]
            assert pins == [cid for cid, _ in net.pins]
            assert drivers == net.driver_ids

    def test_minimized_dtypes(self):
        nl = _small_netlist()
        csr = build_signal_csr(nl)
        assert csr.pin_cell.dtype == np.int32
        assert csr.net_ptr.dtype == np.int32
        # pin keys index net*num_cells products, so always int64
        assert csr.pin_key.dtype == np.int64


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
