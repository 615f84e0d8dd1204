"""Quadratic (force-directed) global placement: the ``quadratic`` stage.

The paper's introduction argues that partitioning suits 3D placement
better than the force-directed paradigm because quadratic placers "rely
on an encompassing arrangement of IO pads ... to produce a well-spread
initial placement" [4].  This module implements that paradigm so the
claim can be tested empirically (see
``benchmarks/bench_ext_forcedirected.py``):

1. every net becomes a clique of springs with weight ``1/(p-1)``;
2. the quadratic system ``L x = b`` is solved per axis (fixed pads
   enter the right-hand side; without pads the system is singular and
   only a weak centre tether keeps it solvable — which is precisely the
   degenerate collapse the paper warns about);
3. rank-based spreading stretches the solution over the die, a few
   anchor-pull iterations alternate solve and spread;
4. the continuous z solution is quantized to layers; the downstream
   stages legalize (the force-directed baseline is the spec
   ``[quadratic, detailed]``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import PlacementConfig
from repro.geometry.chip import ChipGeometry
from repro.netlist.netlist import Netlist
from repro.netlist.placement import Placement

#: Solve/spread rounds.
ITERATIONS = 3

#: Relative weight of the centre tether applied to every movable cell;
#: needed for solvability when no pads exist and deliberately weak so
#: pad-driven spreading dominates when pads do exist.
TETHER = 1e-3


class QuadraticPlacer:
    """Clique-model quadratic placement with rank spreading.

    Args:
        netlist: circuit to place; fixed cells act as pad anchors.
        config: shared placement configuration (the via coefficient
            scales the z-direction spring stiffness).
        chip: placement volume.
    """

    def __init__(self, netlist: Netlist, config: PlacementConfig,
                 chip: ChipGeometry) -> None:
        self.netlist = netlist
        self.config = config
        self.chip = chip

    # ------------------------------------------------------------------
    def place_global(self, placement: Placement) -> None:
        """Solve, spread and quantize layers into ``placement``."""
        netlist = self.netlist
        chip = self.chip
        movable = [c.id for c in netlist.cells if c.movable]
        index = {cid: i for i, cid in enumerate(movable)}
        if not movable:
            return
        x, y, z = self._solve_all(index, placement)
        for _ in range(ITERATIONS - 1):
            x = _rank_spread(x, 0.0, chip.width)
            y = _rank_spread(y, 0.0, chip.height)
            # re-solve with spread positions as soft anchors
            x, y, z = self._solve_all(index, placement,
                                      anchors=(x, y, z))
        x = _rank_spread(x, 0.0, chip.width)
        y = _rank_spread(y, 0.0, chip.height)
        layers = self._quantize_layers(z)
        for cid, i in index.items():
            placement.x[cid] = x[i]
            placement.y[cid] = y[i]
            placement.z[cid] = layers[i]

    # ------------------------------------------------------------------
    def _solve_all(self, index: Dict[int, int], placement: Placement,
                   anchors: Optional[Tuple[np.ndarray, np.ndarray,
                                           np.ndarray]] = None
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        chip = self.chip
        x = self._solve_axis(index, placement.x, placement,
                             0.5 * chip.width, "lateral",
                             anchors[0] if anchors else None)
        y = self._solve_axis(index, placement.y, placement,
                             0.5 * chip.height, "lateral",
                             anchors[1] if anchors else None)
        z_phys = placement.z.astype(float) * chip.layer_pitch
        z = self._solve_axis(index, z_phys, placement,
                             0.5 * (chip.num_layers - 1)
                             * chip.layer_pitch, "vertical",
                             anchors[2] if anchors else None)
        return x, y, z

    def _solve_axis(self, index: Dict[int, int],
                    coords: np.ndarray, placement: Placement,
                    center: float, direction: str,
                    anchor: Optional[np.ndarray]) -> np.ndarray:
        """Solve one axis of the clique-spring system."""
        # imported here: only this solve needs scipy.sparse, and the
        # stage registry imports this module into every run
        from scipy.sparse import coo_matrix
        from scipy.sparse.linalg import spsolve

        n = len(index)
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        diag = np.zeros(n)
        rhs = np.zeros(n)

        def add_edge(a: Optional[int], b: Optional[int], w: float,
                     pos_a: float, pos_b: float) -> None:
            # a/b are movable indices or None for fixed endpoints
            if a is not None and b is not None:
                rows.extend((a, b))
                cols.extend((b, a))
                vals.extend((-w, -w))
                diag[a] += w
                diag[b] += w
            elif a is not None:
                diag[a] += w
                rhs[a] += w * pos_b
            elif b is not None:
                diag[b] += w
                rhs[b] += w * pos_a

        for net in self.netlist.nets:
            ids = net.unique_cell_ids
            if len(ids) < 2:
                continue
            w = 1.0 / (len(ids) - 1)
            if direction == "vertical":
                # stiffer vertical springs when vias are cheap, softer
                # when alpha_ilv prices them high
                w *= min(1.0, 1e-5 / self.config.alpha_ilv)
            for i_pos in range(len(ids)):
                for j_pos in range(i_pos + 1, len(ids)):
                    ca, cb = ids[i_pos], ids[j_pos]
                    add_edge(index.get(ca), index.get(cb), w,
                             float(coords[ca]), float(coords[cb]))

        # weak tether: solvability without pads (the collapse mode the
        # paper describes is visible because this is deliberately weak)
        base = max(diag.max(), 1.0) if n else 1.0
        tether_w = TETHER * base
        diag += tether_w
        if anchor is not None:
            rhs += tether_w * anchor
        else:
            rhs += tether_w * center

        rows.extend(range(n))
        cols.extend(range(n))
        vals.extend(diag.tolist())
        matrix = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        return spsolve(matrix, rhs)

    def _quantize_layers(self, z_phys: np.ndarray) -> np.ndarray:
        """Round the continuous vertical solution to balanced layers."""
        chip = self.chip
        if chip.num_layers == 1:
            return np.zeros(len(z_phys), dtype=np.int64)
        order = np.argsort(z_phys)
        layers = np.empty(len(z_phys), dtype=np.int64)
        per_layer = int(np.ceil(len(z_phys) / chip.num_layers))
        for rank, idx in enumerate(order):
            layers[idx] = min(rank // max(per_layer, 1),
                              chip.num_layers - 1)
        return layers


def _rank_spread(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Spread values over ``[lo, hi]`` preserving order (rank mapping).

    The classic cheap spreading step: the sorted positions are replaced
    by an even grid, erasing clumps while keeping relative order.
    """
    n = len(values)
    if n == 0:
        return values
    order = np.argsort(values, kind="stable")
    spread = np.empty(n)
    span = hi - lo
    for rank, idx in enumerate(order):
        spread[idx] = lo + (rank + 0.5) / n * span
    return spread
