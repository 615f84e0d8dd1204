"""Reader/writer for the UCLA Bookshelf placement format.

The IBM-PLACE benchmark suite the paper evaluates on is distributed in
this format.  We support the three files placement needs:

- ``.nodes`` — cell names and dimensions, ``terminal`` keyword for pads;
- ``.nets``  — hypergraph nets with per-pin direction (``O`` = output /
  driver, ``I`` = input / sink, ``B`` = bidirectional, treated as sink);
- ``.pl``    — cell positions (used for fixed terminals and for dumping
  results).

Dimensions in Bookshelf files are in abstract "units"; a ``unit`` scale
factor converts them to metres on read (IBM-PLACE units are on a ~1 µm
grid, so the default scale is 1e-6).

The writer emits files the reader round-trips exactly, so placements can
be checkpointed to disk and reloaded.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.netlist.net import PinRole
from repro.netlist.netlist import Netlist

_ROLE_OF_DIRECTION = {"O": PinRole.DRIVER, "I": PinRole.SINK,
                      "B": PinRole.SINK}
_DIRECTION_OF_ROLE = {PinRole.DRIVER: "O", PinRole.SINK: "I"}

#: Pin-role codes in the reader's preallocated role array.
_ROLE_SINK = 0
_ROLE_DRIVER = 1
_ROLE_CODE = {PinRole.SINK: _ROLE_SINK, PinRole.DRIVER: _ROLE_DRIVER}


def _iter_content_lines(path: str) -> Iterator[str]:
    """Stream the non-empty, non-comment lines of a Bookshelf file.

    The first line of every Bookshelf file is a format banner (``UCLA
    nodes 1.0`` etc.) which is skipped along with ``#`` comments.
    Iterating the open file reads in buffered chunks — the whole file
    is never resident, which is what keeps the reader's peak memory at
    the size of its preallocated arrays.
    """
    with open(path) as f:
        for i, line in enumerate(f):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if i == 0 and stripped.upper().startswith("UCLA"):
                continue
            yield stripped


def _header_count(path: str, line: str, key: str) -> int:
    """Parse a ``<key> : <count>`` header line's count."""
    fields = line.replace(":", " ").split()
    if len(fields) < 2:
        raise ValueError(f"{path}: malformed {key} header: {line!r}")
    try:
        count = int(fields[1])
    except ValueError:
        raise ValueError(
            f"{path}: malformed {key} header: {line!r}") from None
    if count < 0:
        raise ValueError(f"{path}: negative {key}: {count}")
    return count


def _number(path: str, line: str, token: str) -> float:
    """``float(token)``, or a ``ValueError`` naming the file and line.

    ``float`` also parses ``nan`` and ``inf``; neither is a size or a
    coordinate, so both are rejected too.
    """
    try:
        value = float(token)
    except ValueError:
        raise ValueError(
            f"{path}: non-numeric value {token!r} in {line!r}") from None
    if not math.isfinite(value):
        raise ValueError(
            f"{path}: non-finite value {token!r} in {line!r}")
    return value


def read_nodes(path: str, netlist: Netlist, unit: float = 1e-6,
               default_height: Optional[float] = None) -> None:
    """Parse a ``.nodes`` file into an existing (usually empty) netlist.

    Node records go into width/height/terminal arrays sized from the
    ``NumNodes`` header — no per-line Python list accumulation — and
    the cells are materialized after the last record.  Terminals are
    added as fixed cells at the origin; their true positions come
    later from :func:`read_pl`.

    Args:
        path: the ``.nodes`` file.
        netlist: destination netlist; cells are appended.
        unit: metres per Bookshelf unit.
        default_height: height for nodes listed without one, metres.

    Raises:
        ValueError: missing/malformed ``NumNodes`` header, a node line
            without dimensions or with a non-numeric or non-finite one,
            more nodes than declared, or a truncated file (fewer nodes
            than declared).
    """
    num_nodes = -1
    names: List[str] = []
    widths = heights = terminal = None
    count = 0
    for line in _iter_content_lines(path):
        fields = line.split()
        key = fields[0]
        if key == "NumNodes":
            num_nodes = _header_count(path, line, "NumNodes")
            names = [""] * num_nodes
            widths = np.zeros(num_nodes, dtype=np.float64)
            heights = np.zeros(num_nodes, dtype=np.float64)
            terminal = np.zeros(num_nodes, dtype=bool)
            continue
        if key == "NumTerminals":
            continue
        if num_nodes < 0:
            raise ValueError(
                f"{path}: node record before NumNodes header: {line!r}")
        if count >= num_nodes:
            raise ValueError(
                f"{path}: more than NumNodes={num_nodes} node records")
        assert widths is not None and heights is not None \
            and terminal is not None
        rest = fields[1:]
        is_term = "terminal" in rest
        dims = [f for f in rest if f != "terminal"]
        if len(dims) >= 2:
            widths[count] = _number(path, line, dims[0]) * unit
            heights[count] = _number(path, line, dims[1]) * unit
        elif len(dims) == 1:
            if default_height is None:
                raise ValueError(
                    f"{path}: node {key} has no height and no default")
            widths[count] = _number(path, line, dims[0]) * unit
            heights[count] = default_height
        else:
            raise ValueError(f"{path}: node {key} has no dimensions")
        names[count] = key
        terminal[count] = is_term
        count += 1
    if num_nodes < 0:
        raise ValueError(f"{path}: missing NumNodes header")
    if count != num_nodes:
        raise ValueError(f"{path}: truncated .nodes file: "
                         f"expected {num_nodes} nodes, found {count}")
    assert widths is not None and heights is not None \
        and terminal is not None
    for i in range(num_nodes):
        if terminal[i]:
            netlist.add_cell(names[i], float(widths[i]),
                             float(heights[i]), fixed=True,
                             fixed_position=(0.0, 0.0, 0))
        else:
            netlist.add_cell(names[i], float(widths[i]),
                             float(heights[i]))


def read_nets(path: str, netlist: Netlist,
              default_activity: float = 0.2) -> None:
    """Parse a ``.nets`` file into a netlist whose cells already exist.

    Pin records go straight into flat arrays sized from the
    ``NumNets`` / ``NumPins`` headers.  A net listing no explicit pin
    directions, or directions but no driver, gets its first pin as
    driver — the convention the IBM-PLACE conversion scripts used.

    Raises:
        ValueError: missing headers, a malformed, negative or zero
            ``NetDegree``, an unknown cell name, more nets/pins than
            declared, or a truncated file (a net cut short, or fewer
            nets/pins than the headers declare).
    """
    num_nets = num_pins = -1
    net_names: List[str] = []
    net_ptr = pin_cell = pin_role = None
    cell_ids = netlist._cell_by_name
    net_i = 0
    pin_i = 0
    remaining = 0          # pins still expected for the open net
    net_start = 0
    saw_direction = False
    saw_driver = False
    for line in _iter_content_lines(path):
        fields = line.split()
        key = fields[0]
        if remaining:
            # a pin record of the open NetDegree block
            assert pin_cell is not None and pin_role is not None
            cid = cell_ids.get(key)
            if cid is None:
                raise ValueError(f"{path}: net {net_names[net_i]!r} "
                                 f"references unknown cell {key!r}")
            if pin_i >= num_pins:
                raise ValueError(
                    f"{path}: more than NumPins={num_pins} pin records")
            role = PinRole.SINK
            if len(fields) > 1 and fields[1] in _ROLE_OF_DIRECTION:
                role = _ROLE_OF_DIRECTION[fields[1]]
                saw_direction = True
            pin_cell[pin_i] = cid
            pin_role[pin_i] = _ROLE_CODE[role]
            saw_driver = saw_driver or role is PinRole.DRIVER
            pin_i += 1
            remaining -= 1
            if remaining == 0:
                # close the block: apply the driver-defaulting rules
                if not saw_direction or not saw_driver:
                    pin_role[net_start] = _ROLE_DRIVER
                net_i += 1
            continue
        if key == "NumNets":
            num_nets = _header_count(path, line, "NumNets")
            continue
        if key == "NumPins":
            num_pins = _header_count(path, line, "NumPins")
            continue
        if key != "NetDegree":
            raise ValueError(f"{path}: expected NetDegree, got {line!r}")
        if num_nets < 0 or num_pins < 0:
            raise ValueError(f"{path}: NetDegree before NumNets/"
                             f"NumPins headers: {line!r}")
        if net_ptr is None:
            net_ptr = np.zeros(num_nets + 1, dtype=np.int64)
            pin_cell = np.zeros(num_pins, dtype=np.int64)
            pin_role = np.zeros(num_pins, dtype=np.uint8)
        if net_i >= num_nets:
            raise ValueError(
                f"{path}: more than NumNets={num_nets} nets")
        parts = line.replace(":", " ").split()
        try:
            degree = int(parts[1])
        except (IndexError, ValueError):
            degree = -1
        if degree < 0:
            raise ValueError(
                f"{path}: malformed NetDegree line: {line!r}")
        name = parts[2] if len(parts) > 2 else f"net{net_i}"
        if degree == 0:
            raise ValueError(
                f"{path}: net {name!r} has no pins: {line!r}")
        net_names.append(name)
        net_start = pin_i
        net_ptr[net_i] = net_start
        remaining = degree
        saw_direction = False
        saw_driver = False
    if num_nets < 0 or num_pins < 0:
        raise ValueError(f"{path}: missing NumNets/NumPins headers")
    if remaining:
        raise ValueError(f"{path}: truncated .nets file: net "
                         f"{net_names[-1]!r} is missing {remaining} "
                         f"of its pins")
    if net_i != num_nets:
        raise ValueError(f"{path}: truncated .nets file: expected "
                         f"{num_nets} nets, found {net_i}")
    if pin_i != num_pins:
        raise ValueError(f"{path}: NumPins={num_pins} but found "
                         f"{pin_i} pin records")
    assert net_ptr is not None and pin_cell is not None \
        and pin_role is not None
    net_ptr[num_nets] = pin_i
    for i in range(num_nets):
        lo, hi = int(net_ptr[i]), int(net_ptr[i + 1])
        pins = [(int(pin_cell[p]),
                 PinRole.DRIVER if pin_role[p] == _ROLE_DRIVER
                 else PinRole.SINK)
                for p in range(lo, hi)]
        netlist.add_net(net_names[i], pins, activity=default_activity)


def read_pl(path: str, netlist: Netlist, unit: float = 1e-6
            ) -> Dict[str, Tuple[float, float, int]]:
    """Parse a ``.pl`` file; returns ``{cell name: (x, y, layer)}``.

    Fixed cells in the netlist get their ``fixed_position`` updated in
    place.  Positions in ``.pl`` files are lower-left corners; they are
    converted to cell centres.  An optional fourth numeric column is read
    as the layer index (our 3D extension); 2D files default to layer 0.

    Raises:
        ValueError: an unknown cell, a cell listed twice, a line with
            fewer than three fields, a non-numeric or non-finite
            coordinate, or a negative layer.
    """
    positions: Dict[str, Tuple[float, float, int]] = {}
    for line in _iter_content_lines(path):
        fields = line.split()
        if len(fields) < 3:
            raise ValueError(f"{path}: expected 'name x y', got {line!r}")
        name = fields[0]
        if name not in netlist._cell_by_name:
            raise ValueError(f"{path}: unknown cell {name!r}")
        if name in positions:
            raise ValueError(f"{path}: cell {name!r} listed twice")
        x = _number(path, line, fields[1]) * unit
        y = _number(path, line, fields[2]) * unit
        layer = 0
        if len(fields) > 3:
            try:
                layer = int(fields[3])
            except ValueError:
                layer = 0  # orientation token such as ": N"
            if layer < 0:
                raise ValueError(
                    f"{path}: cell {name!r} on negative layer {layer}")
        cell = netlist.cell(name)
        cx = x + 0.5 * cell.width
        cy = y + 0.5 * cell.height
        positions[name] = (cx, cy, layer)
        if cell.fixed:
            cell.fixed_position = (cx, cy, layer)
    return positions


def read_bookshelf(prefix: str, unit: float = 1e-6,
                   default_activity: float = 0.2) -> Netlist:
    """Read ``<prefix>.nodes`` and ``<prefix>.nets`` (plus ``.pl`` if
    present) into a fresh netlist.

    Every file streams line by line into preallocated arrays, so peak
    memory during the parse is bounded by those arrays plus the
    netlist being built, not by the file's size.
    """
    netlist = Netlist(name=os.path.basename(prefix))
    read_nodes(prefix + ".nodes", netlist, unit=unit)
    read_nets(prefix + ".nets", netlist,
              default_activity=default_activity)
    if os.path.exists(prefix + ".pl"):
        read_pl(prefix + ".pl", netlist, unit=unit)
    netlist.validate()
    return netlist


# benchmarks/e2e/workload.py calls the reader by this name; drop the
# alias with the next change to that benchmark.
read_bookshelf_streaming = read_bookshelf


def write_nodes(path: str, netlist: Netlist, unit: float = 1e-6) -> None:
    """Write a ``.nodes`` file (signal cells only)."""
    with open(path, "w") as f:
        f.write("UCLA nodes 1.0\n")
        f.write(f"NumNodes : {netlist.num_cells}\n")
        f.write(f"NumTerminals : {len(netlist.fixed_cells())}\n")
        for cell in netlist.cells:
            w = cell.width / unit
            h = cell.height / unit
            suffix = " terminal" if cell.fixed else ""
            f.write(f"  {cell.name} {w:.6f} {h:.6f}{suffix}\n")


def write_nets(path: str, netlist: Netlist) -> None:
    """Write a ``.nets`` file."""
    nets = netlist.nets
    num_pins = sum(n.degree for n in nets)
    with open(path, "w") as f:
        f.write("UCLA nets 1.0\n")
        f.write(f"NumNets : {len(nets)}\n")
        f.write(f"NumPins : {num_pins}\n")
        for net in nets:
            f.write(f"NetDegree : {net.degree} {net.name}\n")
            for cid, role in net.pins:
                f.write(f"  {netlist.cells[cid].name} "
                        f"{_DIRECTION_OF_ROLE[role]}\n")


def write_pl(path: str, netlist: Netlist, positions, unit: float = 1e-6
             ) -> None:
    """Write a ``.pl`` file from a :class:`Placement`-like object with
    ``x``/``y``/``z`` arrays (cell centres; corners are written)."""
    with open(path, "w") as f:
        f.write("UCLA pl 1.0\n")
        for cell in netlist.cells:
            x = (positions.x[cell.id] - 0.5 * cell.width) / unit
            y = (positions.y[cell.id] - 0.5 * cell.height) / unit
            z = int(positions.z[cell.id])
            f.write(f"  {cell.name} {x:.6f} {y:.6f} {z}\n")


def write_bookshelf(prefix: str, netlist: Netlist, positions=None,
                    unit: float = 1e-6) -> None:
    """Write ``<prefix>.nodes`` / ``.nets`` (and ``.pl`` when positions
    are given)."""
    write_nodes(prefix + ".nodes", netlist, unit=unit)
    write_nets(prefix + ".nets", netlist)
    if positions is not None:
        write_pl(prefix + ".pl", netlist, positions, unit=unit)
