"""Full-chip steady-state temperature solver (finite-volume network).

The paper evaluates its placements with finite-element analysis [2],
with convective boundary conditions at the heat sink under the bulk
substrate.  We discretize the same physics as a finite-volume resistive
network: hexahedral control volumes on a regular ``nx x ny`` lateral
grid, one volume plane per active layer plus several planes through the
bulk substrate, conduction conductances between face-adjacent volumes
(``G = k A / d``) and a convective film conductance (``G = h A``) from
every boundary face to ambient.  On a regular hexahedral mesh with
piecewise-constant material properties this is the same discrete system
first-order FEA produces (DESIGN.md substitution #3).

Temperatures are solved from ``G T = P``.  The conductance matrix
depends only on the geometry, so its sparse LU factorization is
computed once and cached: every solve after the first is a pair of
cheap triangular back-substitutions (the placer calls
:meth:`ThermalSolver.solve_powers` once per evaluation, and sweeps call
it hundreds of times on the same geometry).  Assembly itself is
vectorized — face couplings are generated from index grids, not a
triple Python loop.  Temperatures are reported relative to ambient.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import splu

from repro.analysis import FloatArray, IntArray, contract
from repro.geometry.chip import ChipGeometry
from repro.netlist.placement import Placement
from repro.obs import get_recorder
from repro.technology import TechnologyConfig

#: Process-wide LU cache keyed by a content hash of the resistance
#: -model inputs (chip geometry + layer stack + thermal technology +
#: grid), not object identity: rebuilding a solver — or a
#: ``ResistanceModel``/chip — with identical parameters reuses the warm
#: factorization instead of re-running ``splu``.  Bounded LRU so sweeps
#: over many geometries cannot grow it without limit.
_LU_CACHE: "OrderedDict[str, Any]" = OrderedDict()
_LU_CACHE_MAX = 8


@contract(shapes={"x": ("n",), "y": ("n",)},
          dtypes={"x": np.floating, "y": np.floating})
def grid_bin_indices(chip: ChipGeometry, nx: int, ny: int,
                     x: FloatArray, y: FloatArray
                     ) -> Tuple[IntArray, IntArray]:
    """Lateral grid bin of each ``(x, y)`` position, clamped to the die.

    Shared by power-map accumulation (:meth:`ThermalSolver.
    solve_placement`) and temperature lookups (:meth:`TemperatureField.
    cell_temperatures`), so both bin positions identically.
    """
    i = np.clip((np.asarray(x, dtype=np.float64) / chip.width
                 * nx).astype(np.int64), 0, nx - 1)
    j = np.clip((np.asarray(y, dtype=np.float64) / chip.height
                 * ny).astype(np.int64), 0, ny - 1)
    return i, j


@dataclass
class TemperatureField:
    """A solved temperature field.

    Attributes:
        chip: the geometry the field was solved on.
        nx, ny: lateral grid resolution.
        active: temperatures of the active-layer volumes above ambient,
            shape ``(nx, ny, num_layers)``, kelvin.
        substrate: temperatures of the substrate volume planes,
            shape ``(nx, ny, n_substrate)``, kelvin (plane 0 is adjacent
            to the heat sink).
    """

    chip: ChipGeometry
    nx: int
    ny: int
    active: FloatArray
    substrate: FloatArray

    def at(self, x: float, y: float, layer: int) -> float:
        """Temperature above ambient at a point on an active layer."""
        i = min(max(int(x / self.chip.width * self.nx), 0), self.nx - 1)
        j = min(max(int(y / self.chip.height * self.ny), 0), self.ny - 1)
        return float(self.active[i, j, layer])

    def cell_temperatures(self, placement: Placement) -> FloatArray:
        """Temperature above ambient at each cell's position."""
        i, j = grid_bin_indices(self.chip, self.nx, self.ny,
                                placement.x, placement.y)
        return self.active[i, j, placement.z.astype(np.int64)]

    @property
    def max_temperature(self) -> float:
        """Hottest active volume, kelvin above ambient."""
        return float(self.active.max())

    @property
    def mean_temperature(self) -> float:
        """Mean active-volume temperature, kelvin above ambient."""
        return float(self.active.mean())


class ThermalSolver:
    """Finite-volume thermal solver bound to a chip geometry.

    Args:
        chip: the placement volume.
        tech: technology parameters (conductivity, film coefficients).
        nx, ny: lateral grid resolution (defaults scale with aspect).
        n_substrate: number of volume planes through the bulk substrate;
            more planes capture lateral heat spreading more accurately.
            Forced to 0 when the technology excludes the substrate from
            the thermal path (the paper's [2]-style boundary condition,
            the default) — the heat-sink film then sits directly under
            layer 0.
    """

    def __init__(self, chip: ChipGeometry,
                 tech: Optional[TechnologyConfig] = None,
                 nx: int = 16, ny: int = 16,
                 n_substrate: int = 4) -> None:
        if nx < 1 or ny < 1 or n_substrate < 0:
            raise ValueError("grid resolutions must be positive")
        self.chip = chip
        self.tech = tech or TechnologyConfig()
        self.nx = nx
        self.ny = ny
        self.n_substrate = (n_substrate
                            if self.tech.substrate_in_thermal_path else 0)
        self._matrix: Optional[csr_matrix] = None
        # cached sparse LU of the conductance matrix (scipy SuperLU,
        # which ships no type stubs)
        self._factor: Optional[Any] = None

    # ------------------------------------------------------------------
    def factor_key(self) -> str:
        """Content hash of everything the conductance matrix depends
        on — the key of the process-wide LU cache."""
        from repro.obs.manifest import content_hash
        chip = self.chip
        tech = self.tech
        return content_hash({
            "width": chip.width,
            "height": chip.height,
            "num_layers": chip.num_layers,
            "layer_thickness": chip.layer_thickness,
            "interlayer_thickness": chip.interlayer_thickness,
            "substrate_thickness": chip.substrate_thickness,
            "thermal_conductivity": tech.thermal_conductivity,
            "substrate_conductivity": tech.substrate_conductivity,
            "heat_sink_convection": tech.heat_sink_convection,
            "secondary_convection": tech.secondary_convection,
            "substrate_in_thermal_path": tech.substrate_in_thermal_path,
            "nx": self.nx,
            "ny": self.ny,
            "n_substrate": self.n_substrate,
        })

    # ------------------------------------------------------------------
    @property
    def _nz(self) -> int:
        return self.chip.num_layers + self.n_substrate

    def _plane_thickness(self, kz: int) -> float:
        """Thickness of volume plane ``kz`` (0 = bottom substrate plane)."""
        if kz < self.n_substrate:
            return self.chip.substrate_thickness / self.n_substrate
        return self.chip.layer_thickness

    def _plane_conductivity(self, kz: int) -> float:
        """Conductivity of volume plane ``kz``: bulk silicon in the
        substrate, the effective stack value in the active layers."""
        if kz < self.n_substrate:
            return self.tech.substrate_conductivity
        return self.tech.thermal_conductivity

    def _vertical_resistance_per_area(self, kz: int) -> float:
        """Series thermal resistance (times area) between the centres of
        planes ``kz`` and ``kz+1``: half of each plane at its own
        conductivity, plus the bonding dielectric between active layers
        at the effective stack conductivity."""
        r = (0.5 * self._plane_thickness(kz) / self._plane_conductivity(kz)
             + 0.5 * self._plane_thickness(kz + 1)
             / self._plane_conductivity(kz + 1))
        if kz >= self.n_substrate:
            r += (self.chip.interlayer_thickness
                  / self.tech.thermal_conductivity)
        return r

    def _assemble(self) -> csr_matrix:
        """Build the conductance matrix once; it depends only on geometry.

        Couplings are generated per face direction from index grids:
        every x-face pairs ``node[kz, j, i]`` with ``node[kz, j, i+1]``
        and so on, with per-plane conductances broadcast across the
        plane — no Python loop over volumes.
        """
        if self._matrix is not None:
            return self._matrix
        nx, ny, nz = self.nx, self.ny, self._nz
        dx = self.chip.width / nx
        dy = self.chip.height / ny
        n = nx * ny * nz
        # node ids laid out as [kz, j, i]: (kz * ny + j) * nx + i
        idx = np.arange(n, dtype=np.int64).reshape(nz, ny, nx)
        diag = np.zeros(n, dtype=np.float64)

        t = np.array([self._plane_thickness(kz) for kz in range(nz)],
                     dtype=np.float64)
        k_plane = np.array([self._plane_conductivity(kz)
                            for kz in range(nz)], dtype=np.float64)
        g_x = k_plane * (dy * t) / dx
        g_y = k_plane * (dx * t) / dy
        g_z = np.array([(dx * dy) / self._vertical_resistance_per_area(kz)
                        for kz in range(nz - 1)], dtype=np.float64)

        couples: List[Tuple[IntArray, IntArray, FloatArray]] = []
        if nx > 1:
            couples.append((idx[:, :, :-1].ravel(), idx[:, :, 1:].ravel(),
                            np.repeat(g_x, ny * (nx - 1))))
        if ny > 1:
            couples.append((idx[:, :-1, :].ravel(), idx[:, 1:, :].ravel(),
                            np.repeat(g_y, (ny - 1) * nx)))
        if nz > 1:
            couples.append((idx[:-1, :, :].ravel(), idx[1:, :, :].ravel(),
                            np.repeat(g_z, ny * nx)))
        for a, b, g in couples:
            np.add.at(diag, a, g)
            np.add.at(diag, b, g)

        # boundary films to ambient (accumulated on the diagonal)
        diag3 = diag.reshape(nz, ny, nx)
        h_sink = self.tech.heat_sink_convection
        h2 = self.tech.secondary_convection
        # heat-sink face, in series with conduction through the
        # half-thickness of the bottom plane
        r_film = 1.0 / (h_sink * dx * dy)
        r_half = (0.5 * t[0]) / (k_plane[0] * dx * dy)
        diag3[0] += 1.0 / (r_film + r_half)
        if h2 > 0:
            diag3[nz - 1] += h2 * dx * dy
            mask_i = np.zeros(nx, dtype=bool)
            mask_i[0] = mask_i[nx - 1] = True
            mask_j = np.zeros(ny, dtype=bool)
            mask_j[0] = mask_j[ny - 1] = True
            diag3[:, :, mask_i] += (h2 * dy * t)[:, None, None]
            diag3[:, mask_j, :] += (h2 * dx * t)[:, None, None]

        rows = np.concatenate([np.concatenate([a for a, _, _ in couples]),
                               np.concatenate([b for _, b, _ in couples]),
                               np.arange(n, dtype=np.int64)]) \
            if couples else np.arange(n, dtype=np.int64)
        cols = np.concatenate([np.concatenate([b for _, b, _ in couples]),
                               np.concatenate([a for a, _, _ in couples]),
                               np.arange(n, dtype=np.int64)]) \
            if couples else np.arange(n, dtype=np.int64)
        neg = (np.concatenate([-g for _, _, g in couples])
               if couples else np.zeros(0, dtype=np.float64))
        vals = np.concatenate([neg, neg, diag])
        self._matrix = coo_matrix((vals, (rows, cols)),
                                  shape=(n, n)).tocsr()
        return self._matrix

    def _factorize(self) -> Any:
        """Sparse LU of the conductance matrix, computed once per
        *geometry* (not per solver object) and reused by every
        subsequent solve.  Lookup order: this instance, then the
        process-wide content-keyed cache, then a fresh ``splu``."""
        rec = get_recorder()
        if self._factor is not None:
            rec.count("thermal/lu_hit")
            return self._factor
        key = self.factor_key()
        cached = _LU_CACHE.get(key)
        if cached is not None:
            _LU_CACHE.move_to_end(key)
            rec.count("thermal/lu_shared_hit")
            self._factor = cached
            return cached
        rec.count("thermal/lu_miss")
        with rec.span("thermal/factorize"):
            self._factor = splu(self._assemble().tocsc())
        _LU_CACHE[key] = self._factor
        while len(_LU_CACHE) > _LU_CACHE_MAX:
            _LU_CACHE.popitem(last=False)
        return self._factor

    # ------------------------------------------------------------------
    @contract(dtypes={"power_density": np.floating})
    def solve_powers(self, power_density: FloatArray
                     ) -> TemperatureField:
        """Solve for a given active-layer power map.

        Args:
            power_density: watts injected per active-layer volume, shape
                ``(nx, ny, num_layers)``.

        Returns:
            The solved :class:`TemperatureField` (relative to ambient).
        """
        expected = (self.nx, self.ny, self.chip.num_layers)
        if power_density.shape != expected:
            raise ValueError(f"power map shape {power_density.shape}, "
                             f"expected {expected}")
        factor = self._factorize()
        rhs = np.zeros((self._nz, self.ny, self.nx), dtype=np.float64)
        rhs[self.n_substrate:] = power_density.transpose(2, 1, 0)
        temps = factor.solve(rhs.ravel())
        grid = temps.reshape(self._nz, self.ny, self.nx).transpose(2, 1, 0)
        return TemperatureField(
            chip=self.chip, nx=self.nx, ny=self.ny,
            active=grid[:, :, self.n_substrate:].copy(),
            substrate=grid[:, :, :self.n_substrate].copy())

    @contract(shapes={"cell_powers": ("c",)},
              dtypes={"cell_powers": np.floating})
    def solve_placement(self, placement: Placement,
                        cell_powers: FloatArray) -> TemperatureField:
        """Solve the temperature field of a placement.

        Args:
            placement: cell positions.
            cell_powers: watts per cell (e.g. from
                :meth:`repro.thermal.power.PowerModel.cell_powers`).

        Returns:
            The solved temperature field.
        """
        if cell_powers.shape != (placement.netlist.num_cells,):
            raise ValueError("cell_powers must be indexed by cell id")
        pmap = np.zeros((self.nx, self.ny, self.chip.num_layers),
                        dtype=np.float64)
        i, j = grid_bin_indices(self.chip, self.nx, self.ny,
                                placement.x, placement.y)
        np.add.at(pmap, (i, j, placement.z.astype(np.int64)),
                  cell_powers)
        return self.solve_powers(pmap)
