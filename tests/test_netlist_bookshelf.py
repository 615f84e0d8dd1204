"""Unit tests for the Bookshelf reader/writer."""

import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.geometry.chip import ChipGeometry
from repro.netlist import bookshelf
from repro.netlist.netlist import Netlist
from repro.netlist.placement import Placement

NODES = """UCLA nodes 1.0
# comment line
NumNodes : 4
NumTerminals : 1
  a 2.0 1.0
  b 3.0 1.0
  c 2.5 1.0
  p1 1.0 1.0 terminal
"""

NETS = """UCLA nets 1.0
NumNets : 2
NumPins : 5
NetDegree : 3 n_first
  a O
  b I
  c I
NetDegree : 2
  c
  p1
"""

PL = """UCLA pl 1.0
  a 0.0 0.0 0
  b 4.0 0.0 1
  c 0.0 2.0 0
  p1 10.0 10.0 0
"""


@pytest.fixture
def prefix(tmp_path):
    p = tmp_path / "circ"
    (tmp_path / "circ.nodes").write_text(NODES)
    (tmp_path / "circ.nets").write_text(NETS)
    (tmp_path / "circ.pl").write_text(PL)
    return str(p)


class TestReading:
    def test_nodes(self, prefix):
        nl = bookshelf.read_bookshelf(prefix)
        assert nl.num_cells == 4
        assert nl.cell("a").width == pytest.approx(2e-6)
        assert nl.cell("p1").fixed

    def test_nets_with_directions(self, prefix):
        nl = bookshelf.read_bookshelf(prefix)
        net = nl.net("n_first")
        assert net.degree == 3
        assert net.driver_ids == [nl.cell("a").id]
        assert net.num_input_pins == 2

    def test_nets_without_directions_get_first_pin_driver(self, prefix):
        nl = bookshelf.read_bookshelf(prefix)
        net = nl.nets[1]
        assert net.name == "net1"
        assert net.driver_ids == [nl.cell("c").id]

    def test_pl_updates_fixed_positions(self, prefix):
        nl = bookshelf.read_bookshelf(prefix)
        pad = nl.cell("p1")
        # centre = corner + half dims
        assert pad.fixed_position[0] == pytest.approx(10.5e-6)
        assert pad.fixed_position[1] == pytest.approx(10.5e-6)

    def test_pl_returns_centres_and_layers(self, prefix):
        nl = Netlist("t")
        bookshelf.read_nodes(prefix + ".nodes", nl)
        positions = bookshelf.read_pl(prefix + ".pl", nl)
        assert positions["b"][2] == 1
        assert positions["a"][0] == pytest.approx(1e-6)  # 0 + width/2

    def test_unknown_cell_in_pl(self, prefix, tmp_path):
        nl = Netlist("t")
        bookshelf.read_nodes(prefix + ".nodes", nl)
        bad = tmp_path / "bad.pl"
        bad.write_text("UCLA pl 1.0\n  zz 0 0\n")
        with pytest.raises(ValueError):
            bookshelf.read_pl(str(bad), nl)

    def test_unit_scaling(self, prefix):
        nl = Netlist("t")
        bookshelf.read_nodes(prefix + ".nodes", nl, unit=2e-6)
        assert nl.cell("a").width == pytest.approx(4e-6)


class TestRoundTrip:
    def test_write_read_identity(self, prefix, tmp_path):
        nl = bookshelf.read_bookshelf(prefix)
        chip = ChipGeometry(width=50e-6, height=50e-6, num_layers=2,
                            row_height=1e-6, row_pitch=1.25e-6)
        pl = Placement.random(nl, chip, seed=2)
        out = str(tmp_path / "out")
        bookshelf.write_bookshelf(out, nl, pl)
        back = bookshelf.read_bookshelf(out)
        assert back.num_cells == nl.num_cells
        assert back.num_nets == nl.num_nets
        for cell in nl.cells:
            other = back.cell(cell.name)
            assert other.width == pytest.approx(cell.width, rel=1e-5)
            assert other.fixed == cell.fixed
        for net in nl.nets:
            other = back.net(net.name)
            assert other.degree == net.degree
            assert other.driver_ids == net.driver_ids

    def test_position_roundtrip(self, prefix, tmp_path):
        nl = bookshelf.read_bookshelf(prefix)
        chip = ChipGeometry(width=50e-6, height=50e-6, num_layers=4,
                            row_height=1e-6, row_pitch=1.25e-6)
        pl = Placement.random(nl, chip, seed=4)
        out = str(tmp_path / "pos")
        bookshelf.write_nodes(out + ".nodes", nl)
        bookshelf.write_pl(out + ".pl", nl, pl)
        nl2 = Netlist("t")
        bookshelf.read_nodes(out + ".nodes", nl2)
        positions = bookshelf.read_pl(out + ".pl", nl2)
        for cell in nl.cells:
            if cell.fixed:
                continue
            x, y, z = positions[cell.name]
            assert x == pytest.approx(pl.x[cell.id], rel=1e-5)
            assert y == pytest.approx(pl.y[cell.id], rel=1e-5)
            assert z == pl.z[cell.id]

    def _assert_netlists_equal(self, a, b):
        assert a.num_cells == b.num_cells
        assert a.num_nets == b.num_nets
        for ca, cb in zip(a.cells, b.cells):
            assert ca.name == cb.name
            assert ca.width == cb.width
            assert ca.height == cb.height
            assert ca.fixed == cb.fixed
            assert ca.fixed_position == cb.fixed_position
        for na, nb in zip(a.nets, b.nets):
            assert na.name == nb.name
            assert list(na.pins) == list(nb.pins)
            assert na.activity == nb.activity

    def _assert_round_trips(self, prefix, tmp_path):
        """read → write → read reproduces the first read exactly."""
        first = bookshelf.read_bookshelf(prefix)
        positions = None
        if os.path.exists(prefix + ".pl"):
            centres = bookshelf.read_pl(prefix + ".pl", first)
            positions = SimpleNamespace(**{
                axis: np.array([centres[c.name][k] for c in first.cells])
                for k, axis in enumerate("xyz")})
        out = str(tmp_path / "again")
        bookshelf.write_bookshelf(out, first, positions)
        self._assert_netlists_equal(first, bookshelf.read_bookshelf(out))

    def test_reader_round_trips_fixture(self, prefix, tmp_path):
        self._assert_round_trips(prefix, tmp_path)

    def test_reader_round_trips_suite_circuit(self, tmp_path):
        from repro.netlist.suite import load_benchmark
        nl = load_benchmark("ibm01", scale=0.05, seed=0)
        chip = ChipGeometry(width=500e-6, height=500e-6, num_layers=4,
                            row_height=1e-6, row_pitch=1.25e-6)
        pl = Placement.random(nl, chip, seed=7)
        out = str(tmp_path / "ibm")
        bookshelf.write_bookshelf(out, nl, pl)
        self._assert_round_trips(out, tmp_path)

    def test_reader_round_trips_synthetic(self, tmp_path):
        from repro.netlist.suite import load_benchmark
        nl = load_benchmark("synthetic2k", scale=1.0, seed=1)
        out = str(tmp_path / "syn")
        bookshelf.write_bookshelf(out, nl)
        self._assert_round_trips(out, tmp_path)


class TestStreamingErrorPaths:
    """Malformed and truncated inputs must fail loudly, not silently,
    with a ``ValueError`` naming the file."""

    def _nodes(self, tmp_path, text):
        path = tmp_path / "bad.nodes"
        path.write_text(text)
        return str(path)

    def _nets(self, tmp_path, text):
        path = tmp_path / "bad.nets"
        path.write_text(text)
        return str(path)

    def test_nodes_missing_header(self, tmp_path):
        path = self._nodes(tmp_path, "UCLA nodes 1.0\n")
        with pytest.raises(ValueError, match="missing NumNodes"):
            bookshelf.read_nodes(path, Netlist("t"))

    def test_nodes_record_before_header(self, tmp_path):
        path = self._nodes(tmp_path, "UCLA nodes 1.0\n  a 2.0 1.0\n")
        with pytest.raises(ValueError, match="before NumNodes"):
            bookshelf.read_nodes(path, Netlist("t"))

    def test_nodes_truncated(self, tmp_path):
        path = self._nodes(
            tmp_path, "UCLA nodes 1.0\nNumNodes : 3\n  a 2.0 1.0\n")
        with pytest.raises(ValueError, match="truncated .nodes"):
            bookshelf.read_nodes(path, Netlist("t"))

    def test_nodes_overdeclared(self, tmp_path):
        path = self._nodes(
            tmp_path, "UCLA nodes 1.0\nNumNodes : 1\n"
                      "  a 2.0 1.0\n  b 2.0 1.0\n")
        with pytest.raises(ValueError, match="more than NumNodes"):
            bookshelf.read_nodes(path, Netlist("t"))

    def test_nodes_without_dimensions(self, tmp_path):
        path = self._nodes(
            tmp_path, "UCLA nodes 1.0\nNumNodes : 1\n  a\n")
        with pytest.raises(ValueError, match="no dimensions"):
            bookshelf.read_nodes(path, Netlist("t"))

    def test_nodes_malformed_header(self, tmp_path):
        path = self._nodes(tmp_path, "UCLA nodes 1.0\nNumNodes : x\n")
        with pytest.raises(ValueError, match="malformed NumNodes"):
            bookshelf.read_nodes(path, Netlist("t"))

    def _netlist_ab(self):
        nl = Netlist("t")
        nl.add_cell("a", 2e-6, 1e-6)
        nl.add_cell("b", 2e-6, 1e-6)
        return nl

    def test_nets_missing_headers(self, tmp_path):
        path = self._nets(tmp_path, "UCLA nets 1.0\n")
        with pytest.raises(ValueError, match="missing NumNets"):
            bookshelf.read_nets(path, self._netlist_ab())

    def test_nets_netdegree_before_headers(self, tmp_path):
        path = self._nets(tmp_path,
                          "UCLA nets 1.0\nNetDegree : 2\n  a\n  b\n")
        with pytest.raises(ValueError, match="before NumNets"):
            bookshelf.read_nets(path, self._netlist_ab())

    def test_nets_truncated_mid_net(self, tmp_path):
        path = self._nets(
            tmp_path, "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
                      "NetDegree : 2\n  a\n")
        with pytest.raises(ValueError, match="missing 1 of its pins"):
            bookshelf.read_nets(path, self._netlist_ab())

    def test_nets_count_mismatch(self, tmp_path):
        path = self._nets(
            tmp_path, "UCLA nets 1.0\nNumNets : 2\nNumPins : 2\n"
                      "NetDegree : 2\n  a\n  b\n")
        with pytest.raises(ValueError, match="expected 2 nets"):
            bookshelf.read_nets(path, self._netlist_ab())

    def test_nets_pin_count_mismatch(self, tmp_path):
        path = self._nets(
            tmp_path, "UCLA nets 1.0\nNumNets : 1\nNumPins : 3\n"
                      "NetDegree : 2\n  a\n  b\n")
        with pytest.raises(ValueError, match="NumPins=3"):
            bookshelf.read_nets(path, self._netlist_ab())

    def test_nets_unknown_cell(self, tmp_path):
        path = self._nets(
            tmp_path, "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
                      "NetDegree : 2\n  a\n  zz\n")
        with pytest.raises(ValueError, match="unknown cell 'zz'"):
            bookshelf.read_nets(path, self._netlist_ab())

    def test_nets_malformed_netdegree(self, tmp_path):
        path = self._nets(
            tmp_path, "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
                      "NetDegree : x\n")
        with pytest.raises(ValueError, match="malformed NetDegree"):
            bookshelf.read_nets(path, self._netlist_ab())

    def test_nets_stray_record(self, tmp_path):
        path = self._nets(
            tmp_path, "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
                      "  a\n")
        with pytest.raises(ValueError, match="expected NetDegree"):
            bookshelf.read_nets(path, self._netlist_ab())

    def test_nets_negative_netdegree(self, tmp_path):
        path = self._nets(
            tmp_path, "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
                      "NetDegree : -1\n  a\n  b\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: malformed NetDegree line: 'NetDegree : -1'")):
            bookshelf.read_nets(path, self._netlist_ab())

    def test_nets_zero_netdegree(self, tmp_path):
        path = self._nets(
            tmp_path, "UCLA nets 1.0\nNumNets : 2\nNumPins : 2\n"
                      "NetDegree : 0 n1\nNetDegree : 2 n2\n  a\n  b\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: net 'n1' has no pins: 'NetDegree : 0 n1'")):
            bookshelf.read_nets(path, self._netlist_ab())

    def test_nodes_non_numeric_size(self, tmp_path):
        path = self._nodes(
            tmp_path, "UCLA nodes 1.0\nNumNodes : 1\n  a 2.0 tall\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: non-numeric value 'tall' in 'a 2.0 tall'")):
            bookshelf.read_nodes(path, Netlist("t"))

    @pytest.mark.parametrize("size", ["nan", "inf"])
    def test_nodes_non_finite_size(self, tmp_path, size):
        path = self._nodes(
            tmp_path, f"UCLA nodes 1.0\nNumNodes : 1\n  a 2.0 {size}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: non-finite value '{size}' in 'a 2.0 {size}'")):
            bookshelf.read_nodes(path, Netlist("t"))

    def _pl(self, tmp_path, text):
        path = tmp_path / "bad.pl"
        path.write_text(text)
        return str(path)

    def test_pl_short_line(self, tmp_path):
        path = self._pl(tmp_path, "UCLA pl 1.0\n  a 1.0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: expected 'name x y', got 'a 1.0'")):
            bookshelf.read_pl(path, self._netlist_ab())

    def test_pl_non_numeric_coordinate(self, tmp_path):
        path = self._pl(tmp_path, "UCLA pl 1.0\n  a 1.0 y0 0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: non-numeric value 'y0' in 'a 1.0 y0 0'")):
            bookshelf.read_pl(path, self._netlist_ab())

    def test_pl_non_finite_coordinate(self, tmp_path):
        path = self._pl(tmp_path, "UCLA pl 1.0\n  a -inf 1.0 0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: non-finite value '-inf' in 'a -inf 1.0 0'")):
            bookshelf.read_pl(path, self._netlist_ab())
