"""Plain-text visualization of placements and temperature fields.

The library is dependency-light (numpy/scipy only), so visual inspection
happens in the terminal: density maps, temperature maps and layer
summaries rendered as character grids.  Each renderer returns a string;
print it.

Example::

    from repro.viz import density_map, temperature_map
    print(density_map(placement, layer=0))
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.geometry.density import DensityMesh
from repro.netlist.placement import Placement

if TYPE_CHECKING:  # pragma: no cover - the solver loads scipy.sparse
    from repro.thermal.solver import TemperatureField

#: Shade ramp from empty to overfull/hot.
_RAMP = " .:-=+*#%@"


def _shade(value: float, lo: float, hi: float) -> str:
    if hi <= lo:
        return _RAMP[0]
    t = (value - lo) / (hi - lo)
    idx = int(min(max(t, 0.0), 1.0) * (len(_RAMP) - 1))
    return _RAMP[idx]


def _render_grid(grid: np.ndarray, lo: float, hi: float,
                 title: str) -> str:
    """Render a 2D array (x right, y up) as shaded characters."""
    nx, ny = grid.shape
    lines = [title]
    for j in range(ny - 1, -1, -1):
        lines.append("|" + "".join(_shade(float(grid[i, j]), lo, hi)
                                   for i in range(nx)) + "|")
    lines.append(f"scale: '{_RAMP[0]}' = {lo:.3g} .. "
                 f"'{_RAMP[-1]}' = {hi:.3g}")
    return "\n".join(lines)


def density_map(placement: Placement, layer: int,
                nx: int = 48, ny: Optional[int] = None) -> str:
    """Cell-density map of one layer as shaded text.

    Args:
        placement: the placement to render.
        layer: active-layer index.
        nx: horizontal character resolution; ``ny`` scales with the die
            aspect ratio when omitted.
    """
    chip = placement.chip
    if not 0 <= layer < chip.num_layers:
        raise IndexError(f"layer {layer} out of range")
    if ny is None:
        ny = max(4, int(round(nx * chip.height / chip.width * 0.5)))
    mesh = DensityMesh(chip, nx, ny)
    mesh.build_from_placement(placement, placement.netlist.areas)
    grid = mesh.densities[:, :, layer]
    return _render_grid(grid, 0.0, max(float(grid.max()), 1.0),
                        f"cell density, layer {layer} "
                        f"(max {grid.max():.2f})")


def temperature_map(field: TemperatureField, layer: int) -> str:
    """Temperature map of one layer of a solved field as shaded text."""
    if not 0 <= layer < field.active.shape[2]:
        raise IndexError(f"layer {layer} out of range")
    grid = field.active[:, :, layer]
    full_max = float(field.active.max())
    return _render_grid(grid, 0.0, max(full_max, 1e-30),
                        f"temperature above ambient, layer {layer} "
                        f"(layer max {grid.max():.3f} K, "
                        f"chip max {full_max:.3f} K)")


def layer_summary(placement: Placement,
                  cell_powers: Optional[np.ndarray] = None) -> str:
    """Per-layer table: cells, area utilization and (optionally) power."""
    chip = placement.chip
    counts = placement.layer_populations()
    areas = placement.layer_areas()
    # row capacity per layer: rows * width * row height
    capacity = chip.rows_per_layer * chip.width * chip.row_height
    lines = [f"{'layer':>5} {'cells':>7} {'area util':>10}"
             + (f" {'power':>10}" if cell_powers is not None else "")]
    layer_power = None
    if cell_powers is not None:
        layer_power = np.zeros(chip.num_layers)
        for cid in range(placement.netlist.num_cells):
            layer_power[int(placement.z[cid])] += cell_powers[cid]
    for z in range(chip.num_layers):
        row = f"{z:>5} {counts[z]:>7} {areas[z] / capacity:>9.1%}"
        if layer_power is not None:
            row += f" {layer_power[z] * 1e3:>8.3f}mW"
        lines.append(row)
    return "\n".join(lines)


def tradeoff_ascii(points: List[tuple], width: int = 60,
                   height: int = 16,
                   xlabel: str = "wirelength",
                   ylabel: str = "ILVs") -> str:
    """Scatter a tradeoff curve as an ASCII plot.

    Args:
        points: ``(x, y)`` pairs (e.g. wirelength vs via count).
    """
    if not points:
        raise ValueError("no points to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    span_x = (x_hi - x_lo) or 1.0
    span_y = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in points:
        i = int((x - x_lo) / span_x * (width - 1))
        j = int((y - y_lo) / span_y * (height - 1))
        grid[height - 1 - j][i] = "o"
    lines = [f"{ylabel} ({y_lo:.3g} .. {y_hi:.3g})"]
    lines.extend("|" + "".join(row) + "|" for row in grid)
    lines.append(f"{xlabel} ({x_lo:.3g} .. {x_hi:.3g})")
    return "\n".join(lines)
