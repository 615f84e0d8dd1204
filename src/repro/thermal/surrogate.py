"""Closed-form compact thermal surrogate (image-source superposition).

The exact finite-volume solve in :mod:`repro.thermal.solver` costs a
sparse triangular solve per temperature-field evaluation.  This module
replaces it, inside inner loops, with the analytic spreading model of
ATPlace2.5D-style compact thermal estimators: every heat source tile
contributes a closed-form spreading kernel

    ``F(a, b, c) = (2 / sqrt(pi)) * (b * log((c + d) / sqrt(a^2 + b^2))
                   + c * log((b + d) / sqrt(a^2 + c^2))
                   - a * atan(b c / (a d)))``,  ``d = |(a, b, c)|``,

summed over the four image terms of its rectangular footprint *and*
over first-order mirror images of the source across the four die
edges.  The mirrors matter: the die sidewalls are nearly adiabatic
(the secondary film coefficient is six orders of magnitude below the
heat-sink one), so heat piles up against the edges in a way a
free-space kernel badly underpredicts — reflecting each source across
``x = 0``, ``x = W``, ``y = 0`` and ``y = H`` reproduces that
confinement and cuts the fit error by roughly 5x on real chips, whose
extreme aspect ratios also demand independent (anisotropic) ``lx`` and
``ly`` spreading lengths per source layer.

Because the model is *linear in the injected powers*, calibration
against the exact solver is a linear least-squares fit (per-layer-pair
couplings plus a per-layer bias) on top of a small deterministic
search over the spreading lengths — no randomness, so calibration is
bit-reproducible for a given chip.

Evaluation is a precomputed dense-operator contraction: sources are
binned to the same ``nx x ny x L`` grid the exact solver uses, each
source layer's spatial kernel is one ``(nx*ny, nx*ny)`` matrix, and a
full-field solve is a batched matvec plus a tiny layer-coupling
product.  The real speed lever is :meth:`~SurrogateThermalModel
.move_delta`: calibration also bakes the couplings *into* the spatial
operators, so the field change from moving one source between tiles is
a single scaled row difference of a precomputed matrix — a few
microseconds against the exact path's full sparse back-substitution.

The placer does not use this model: Eq. 3 prices heat through the
closed-form per-layer resistance table, and temperature fields are
computed only at evaluation time by the exact solver
(:mod:`repro.thermal.analysis`).  The model stays as a standalone,
tested component because the contract benchmark's per-layer harness
(``benchmarks/e2e/layers.py``) wraps :meth:`SurrogateThermalModel
.calibrate` by name for its ``thermal.calibrate`` row; it can be
deleted together with that row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import FloatArray, contract
from repro.geometry.chip import ChipGeometry
from repro.netlist.placement import Placement
from repro.obs import get_recorder
from repro.technology import TechnologyConfig
from repro.thermal.solver import (TemperatureField, ThermalSolver,
                                  grid_bin_indices)

__all__ = ["SurrogateCoefficients", "SurrogateThermalModel",
           "power_map_of", "relative_error", "spreading_kernel"]

#: Spreading-length search grid, as multiples of the tile half-pitch.
#: Log-spaced and wide because real dies are strongly anisotropic: the
#: short axis often wants near-uniform mixing (scale >> 1) while the
#: long axis stays localized (scale ~ 1).
_SCALE_GRID: Tuple[float, ...] = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0)

#: Domain guard for the kernel's logs/atan at coincident source/query.
_EPS = 1e-12


def spreading_kernel(a: FloatArray, b: FloatArray,
                     c: FloatArray) -> FloatArray:
    """The analytic image-source spreading function ``F(a, b, c)``.

    Vectorized over broadcastable inputs.  ``a`` is the normalized
    source depth, ``b``/``c`` the normalized lateral offsets of one
    image corner; the guards keep the logs and the arctangent defined
    at coincident source/query points (``b`` or ``c`` -> 0).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    delta = np.sqrt(a * a + b * b + c * c)
    term_b = b * np.log((c + delta + _EPS)
                        / np.sqrt(a * a + b * b + _EPS))
    term_c = c * np.log((b + delta + _EPS)
                        / np.sqrt(a * a + c * c + _EPS))
    term_a = a * np.arctan(b * c / (a * delta + _EPS))
    out = (2.0 / np.sqrt(np.pi)) * (term_b + term_c - term_a)
    assert isinstance(out, np.ndarray)
    return out


def relative_error(candidate: TemperatureField,
                   reference: TemperatureField) -> float:
    """Relative L2 error of one active field against a reference."""
    if candidate.active.shape != reference.active.shape:
        raise ValueError("temperature fields have different grids")
    norm = float(np.linalg.norm(reference.active))
    diff = float(np.linalg.norm(candidate.active - reference.active))
    return diff / max(norm, _EPS)


@dataclass(frozen=True)
class SurrogateCoefficients:
    """The calibrated parameters of one surrogate fit.

    Attributes:
        lx: per-source-layer x spreading length, metres.
        ly: per-source-layer y spreading length, metres.
        depth: the kernel's normalized source depth ``a``.
        amplitude: global amplitude ``A`` (RMS of the layer-pair
            couplings), K/W.
        bias: global bias ``B`` (mean per-query-layer bias), K/W.
        gains: layer-pair couplings relative to ``amplitude``,
            ``gains[ls][lq]`` (dimensionless).
        layer_bias: per-query-layer bias, K/W (``bias`` is its mean).
        residual: relative L2 fit error over the calibration probes.
    """

    lx: Tuple[float, ...]
    ly: Tuple[float, ...]
    depth: float
    amplitude: float
    bias: float
    gains: Tuple[Tuple[float, ...], ...]
    layer_bias: Tuple[float, ...]
    residual: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (recorded in run manifests)."""
        return {
            "lx": list(self.lx),
            "ly": list(self.ly),
            "depth": self.depth,
            "amplitude": self.amplitude,
            "bias": self.bias,
            "gains": [list(row) for row in self.gains],
            "layer_bias": list(self.layer_bias),
            "residual": self.residual,
        }


class SurrogateThermalModel:
    """Calibrated closed-form surrogate bound to one chip geometry.

    Mirrors the :class:`~repro.thermal.solver.ThermalSolver` interface
    (``solve_powers`` / ``solve_placement`` on the same lateral grid)
    but must be :meth:`calibrate`-d against an exact solver before the
    first solve.

    Args:
        chip: the placement volume.
        tech: technology parameters (only used for bookkeeping; the
            physics enters through the calibration targets).
        nx, ny: lateral grid resolution; must match the exact solver
            the model is calibrated against.
    """

    def __init__(self, chip: ChipGeometry,
                 tech: Optional[TechnologyConfig] = None,
                 nx: int = 16, ny: int = 16) -> None:
        if nx < 1 or ny < 1:
            raise ValueError("grid resolutions must be positive")
        self.chip = chip
        self.tech = tech or TechnologyConfig()
        self.nx = nx
        self.ny = ny
        self._coeffs: Optional[SurrogateCoefficients] = None
        # batched per-source-layer spatial operators (L, nx*ny, nx*ny)
        self._ops: Optional[FloatArray] = None
        # raw layer couplings (L_source, L_query) and per-layer bias
        self._raw_gains: Optional[FloatArray] = None
        self._beta: Optional[FloatArray] = None
        # couplings baked into the operators for O(tiles) move deltas:
        # (L_source, n_tiles, n_tiles * L_query)
        self._combined: Optional[FloatArray] = None
        # mirror-image index sets into the extended kernel table: the
        # direct offset plus first-order reflections across both edges
        # of each axis (the table is indexed at offset + extent - 1)
        ix = np.arange(nx, dtype=np.int64)
        jy = np.arange(ny, dtype=np.int64)
        shift_x = 2 * nx - 1
        shift_y = 2 * ny - 1
        self._ux: Tuple[FloatArray, ...] = tuple(
            np.asarray(u + shift_x, dtype=np.int64) for u in (
                ix[:, None] - ix[None, :],
                ix[:, None] + ix[None, :] + 1,
                ix[:, None] + ix[None, :] + 1 - 2 * nx))
        self._vy: Tuple[FloatArray, ...] = tuple(
            np.asarray(v + shift_y, dtype=np.int64) for v in (
                jy[:, None] - jy[None, :],
                jy[:, None] + jy[None, :] + 1,
                jy[:, None] + jy[None, :] + 1 - 2 * ny))

    # ------------------------------------------------------------------
    @property
    def calibrated(self) -> bool:
        """Whether :meth:`calibrate` has run."""
        return self._coeffs is not None

    @property
    def coefficients(self) -> SurrogateCoefficients:
        """The current fit; raises before the first calibration."""
        if self._coeffs is None:
            raise RuntimeError("surrogate model is not calibrated")
        return self._coeffs

    # ------------------------------------------------------------------
    def _kernel_table(self, lx: float, ly: float,
                      depth: float) -> FloatArray:
        """Summed four-image-term kernel over all *extended* offsets.

        Returns shape ``(4*nx - 1, 4*ny - 1)``: entry ``[u, v]`` is the
        response at lateral offset ``(u - (2*nx - 1), v - (2*ny - 1))``
        tiles from a source tile of the grid pitch's footprint.  The
        extended range covers mirror-image sources reflected across the
        die edges, whose offsets reach ``+-(2n - 1)`` tiles.
        """
        dx = self.chip.width / self.nx
        dy = self.chip.height / self.ny
        ox = (np.arange(-(2 * self.nx - 1), 2 * self.nx,
                        dtype=np.float64) * dx)
        oy = (np.arange(-(2 * self.ny - 1), 2 * self.ny,
                        dtype=np.float64) * dy)
        ddx = ox[:, None]
        ddy = oy[None, :]
        total = np.zeros((ox.size, oy.size), dtype=np.float64)
        for sx in (-1.0, 1.0):
            for sy in (-1.0, 1.0):
                b = (0.5 * dx - sx * ddx) / lx
                c = (0.5 * dy - sy * ddy) / ly
                total += spreading_kernel(
                    np.asarray(depth, dtype=np.float64), b, c)
        return total

    def _spatial_operator(self, table: FloatArray) -> FloatArray:
        """Dense ``(nx*ny, nx*ny)`` operator from one kernel table.

        Rows are query tiles, columns source tiles, both raveled in C
        order over ``(i, j)`` — the same ordering ``solve_powers``
        ravels power maps with.  Sums the direct term and the eight
        first-order mirror images (3 x-positions times 3 y-positions).
        """
        shape = (self.nx, self.ny, self.nx, self.ny)
        op = np.zeros(shape, dtype=np.float64)
        for u in self._ux:
            for v in self._vy:
                op += table[u[:, None, :, None], v[None, :, None, :]]
        return op.reshape(self.nx * self.ny, self.nx * self.ny)

    def probe_power_maps(self) -> List[FloatArray]:
        """Deterministic calibration probes: per-layer unit sources.

        Three point sources per layer (centre and two off-centre
        tiles) plus one uniform all-layer map — enough excitations to
        pin the layer-pair couplings and the lateral spreading shape.
        """
        num_layers = self.chip.num_layers
        shape = (self.nx, self.ny, num_layers)
        spots = ((self.nx // 2, self.ny // 2),
                 (self.nx // 4, self.ny // 4),
                 ((3 * self.nx) // 4, (3 * self.ny) // 4))
        probes: List[FloatArray] = []
        for layer in range(num_layers):
            for i, j in spots:
                pmap = np.zeros(shape, dtype=np.float64)
                pmap[i, j, layer] = 1.0
                probes.append(pmap)
        probes.append(np.full(shape, 1.0 / (self.nx * self.ny),
                              dtype=np.float64))
        return probes

    # ------------------------------------------------------------------
    def _fit(self, ops: FloatArray, probes: FloatArray,
             targets: FloatArray, ptot: FloatArray
             ) -> Tuple[float, FloatArray, FloatArray]:
        """LSQ-fit couplings/bias for fixed spatial operators.

        Args:
            ops: batched per-source-layer operators, ``(L, nt, nt)``.
            probes: stacked probe power maps, ``(N, nx, ny, L)``.
            targets: exact active fields for the probes, same shape.
            ptot: total power per probe, ``(N,)``.

        Returns:
            ``(residual, raw_gains, beta)`` — the relative L2 error
            over all probes, the ``(L, L)`` coupling matrix and the
            per-query-layer bias.
        """
        num_layers = self.chip.num_layers
        n_probes = probes.shape[0]
        n_tiles = self.nx * self.ny
        # features[n, q, ls] = sum_s ops[ls][q, s] * probes[n, s, ls]
        p_flat = probes.reshape(n_probes, n_tiles, num_layers)
        features = np.einsum("lqs,nsl->nql", ops, p_flat)
        design = np.concatenate(
            [features.reshape(n_probes * n_tiles, num_layers),
             np.repeat(ptot, n_tiles)[:, None]], axis=1)
        t_flat = targets.reshape(n_probes, n_tiles, num_layers)
        # one multi-RHS solve: the design matrix is shared by every
        # query layer, only the target column differs
        sol, _, _, _ = np.linalg.lstsq(
            design, t_flat.reshape(n_probes * n_tiles, num_layers),
            rcond=None)
        raw_gains = np.ascontiguousarray(sol[:num_layers],
                                         dtype=np.float64)
        beta = np.ascontiguousarray(sol[num_layers], dtype=np.float64)
        pred = (np.einsum("nql,lm->nqm", features, raw_gains)
                + ptot[:, None, None] * beta[None, None, :])
        norm = float(np.linalg.norm(t_flat))
        residual = (float(np.linalg.norm(pred - t_flat))
                    / max(norm, _EPS))
        return residual, raw_gains, beta

    def calibrate(self, solver: ThermalSolver,
                  extra_power_maps: Sequence[FloatArray] = (),
                  ) -> SurrogateCoefficients:
        """Fit the surrogate against the exact solver.

        Solves the deterministic probe set (plus any caller-supplied
        power maps, e.g. the current placement's) with the exact
        solver, then fits couplings/bias by linear least squares
        inside a deterministic search over anisotropic per-layer
        spreading lengths: a shared ``(sx, sy)`` grid scan followed by
        one per-layer, per-axis refinement pass.  No RNG anywhere.

        Args:
            solver: the exact solver to calibrate against; must share
                the chip geometry and lateral grid.
            extra_power_maps: additional ``(nx, ny, L)`` power maps to
                include as fit targets (recalibration passes the live
                power map so drift is corrected where it matters).

        Returns:
            The fitted :class:`SurrogateCoefficients` (also retained
            on the model for :meth:`solve_powers`).
        """
        if (solver.nx, solver.ny) != (self.nx, self.ny) \
                or solver.chip.num_layers != self.chip.num_layers:
            raise ValueError("exact solver grid disagrees with surrogate")
        rec = get_recorder()
        with rec.span("thermal/surrogate"):
            probe_list = self.probe_power_maps() + [
                np.asarray(p, dtype=np.float64)
                for p in extra_power_maps]
            probes = np.stack(probe_list, axis=0)
            targets = np.stack([solver.solve_powers(p).active
                                for p in probe_list], axis=0)
            ptot = probes.sum(axis=(1, 2, 3))
            num_layers = self.chip.num_layers
            half_x = 0.5 * self.chip.width / self.nx
            half_y = 0.5 * self.chip.height / self.ny
            depth = 1.0
            n_tiles = self.nx * self.ny

            op_cache: Dict[Tuple[float, float], FloatArray] = {}

            def op_of(sx: float, sy: float) -> FloatArray:
                key = (float(sx), float(sy))
                if key not in op_cache:
                    table = self._kernel_table(
                        key[0] * half_x, key[1] * half_y, depth)
                    op_cache[key] = self._spatial_operator(table)
                return op_cache[key]

            def fit_at(pairs: FloatArray) -> Tuple[float, FloatArray,
                                                   FloatArray]:
                ops = np.zeros((num_layers, n_tiles, n_tiles),
                               dtype=np.float64)
                for ls in range(num_layers):
                    ops[ls] = op_of(pairs[ls, 0], pairs[ls, 1])
                return self._fit(ops, probes, targets, ptot)

            # shared anisotropic (sx, sy) scan over the full grid ...
            best_pairs = np.full((num_layers, 2), _SCALE_GRID[0],
                                 dtype=np.float64)
            best = fit_at(best_pairs)
            for sx in _SCALE_GRID:
                for sy in _SCALE_GRID:
                    candidate = np.full((num_layers, 2), 0.0,
                                        dtype=np.float64)
                    candidate[:, 0] = sx
                    candidate[:, 1] = sy
                    if np.array_equal(candidate, best_pairs):
                        continue
                    fit = fit_at(candidate)
                    if fit[0] < best[0]:
                        best, best_pairs = fit, candidate
            # ... then one per-layer, per-axis coordinate refinement
            for layer in range(num_layers):
                for axis in (0, 1):
                    for scale in _SCALE_GRID:
                        candidate = best_pairs.copy()
                        candidate[layer, axis] = scale
                        if np.array_equal(candidate, best_pairs):
                            continue
                        fit = fit_at(candidate)
                        if fit[0] < best[0]:
                            best, best_pairs = fit, candidate
            residual, raw_gains, beta = best
            ops = np.zeros((num_layers, n_tiles, n_tiles),
                           dtype=np.float64)
            for ls in range(num_layers):
                ops[ls] = op_of(best_pairs[ls, 0], best_pairs[ls, 1])
            self._ops = ops
            self._raw_gains = raw_gains
            self._beta = beta
            # bake couplings into the operators: combined[ls, s] is the
            # flattened (q, lq) field response to one watt in (s, ls)
            self._combined = np.ascontiguousarray(
                np.einsum("lqs,lm->lsqm", ops, raw_gains).reshape(
                    num_layers, n_tiles, n_tiles * num_layers),
                dtype=np.float64)
            amplitude = float(np.sqrt(np.mean(raw_gains ** 2)))
            self._coeffs = SurrogateCoefficients(
                lx=tuple(float(s) * half_x for s in best_pairs[:, 0]),
                ly=tuple(float(s) * half_y for s in best_pairs[:, 1]),
                depth=depth,
                amplitude=amplitude,
                bias=float(beta.mean()),
                gains=tuple(
                    tuple(float(g) / max(amplitude, _EPS) for g in row)
                    for row in raw_gains),
                layer_bias=tuple(float(b) for b in beta),
                residual=float(residual),
            )
            rec.count("thermal/surrogate/calibrations")
            rec.gauge("thermal/surrogate/residual", float(residual))
        return self._coeffs

    # ------------------------------------------------------------------
    @contract(dtypes={"power_density": np.floating})
    def solve_powers(self, power_density: FloatArray
                     ) -> TemperatureField:
        """Surrogate temperature field for an active-layer power map.

        Same contract as :meth:`ThermalSolver.solve_powers`, evaluated
        as one batched dense contraction against the calibrated
        operators (the substrate block is empty — the surrogate only
        models active layers, which is all the placer reads).
        """
        expected = (self.nx, self.ny, self.chip.num_layers)
        if power_density.shape != expected:
            raise ValueError(f"power map shape {power_density.shape}, "
                             f"expected {expected}")
        if self._ops is None or self._raw_gains is None \
                or self._beta is None:
            raise RuntimeError("surrogate model is not calibrated")
        num_layers = self.chip.num_layers
        n_tiles = self.nx * self.ny
        # (L_s, n_tiles, 1): per-source-layer flattened power columns
        p_cols = np.ascontiguousarray(
            power_density.transpose(2, 0, 1).reshape(
                num_layers, n_tiles, 1), dtype=np.float64)
        spread = np.matmul(self._ops, p_cols)[:, :, 0]
        active = spread.T @ self._raw_gains
        active += self._beta[None, :] * float(power_density.sum())
        get_recorder().count("thermal/surrogate/solves")
        return TemperatureField(
            chip=self.chip, nx=self.nx, ny=self.ny,
            active=active.reshape(self.nx, self.ny, num_layers),
            substrate=np.zeros((self.nx, self.ny, 0), dtype=np.float64))

    @contract(shapes={"cell_powers": ("c",)},
              dtypes={"cell_powers": np.floating})
    def solve_placement(self, placement: Placement,
                        cell_powers: FloatArray) -> TemperatureField:
        """Surrogate field of a placement (mirrors the exact solver).

        Cells are binned with the shared :func:`grid_bin_indices`
        helper, so surrogate and exact evaluations see bit-identical
        power maps for the same placement.
        """
        if cell_powers.shape != (placement.netlist.num_cells,):
            raise ValueError("cell_powers must be indexed by cell id")
        return self.solve_powers(power_map_of(
            placement, cell_powers, self.nx, self.ny))

    # ------------------------------------------------------------------
    def source_column(self, tile: int, layer: int) -> FloatArray:
        """Per-watt field response of one source tile, flattened.

        Returns a read-only view of shape ``(n_tiles * L,)``: the
        active-field change per watt injected at raveled tile ``tile``
        on source layer ``layer``, in the same ``(q, lq)`` C-order as
        ``TemperatureField.active.reshape(-1)``.
        """
        if self._combined is None:
            raise RuntimeError("surrogate model is not calibrated")
        n_tiles = self.nx * self.ny
        if not 0 <= tile < n_tiles:
            raise ValueError(f"tile {tile} out of range [0, {n_tiles})")
        if not 0 <= layer < self.chip.num_layers:
            raise ValueError(f"layer {layer} out of range")
        out = self._combined[layer, tile]
        assert isinstance(out, np.ndarray)
        return out

    def move_delta(self, old_tile: int, old_layer: int, new_tile: int,
                   new_layer: int, power: float) -> FloatArray:
        """Field change from moving ``power`` watts between tiles.

        The inner-loop primitive: the active-field delta (flattened
        ``(n_tiles * L,)``, same ordering as :meth:`source_column`)
        when a source of ``power`` watts moves from ``(old_tile,
        old_layer)`` to ``(new_tile, new_layer)``.  Total power is
        conserved, so the bias term cancels and the delta is one
        scaled row difference of the precomputed combined operator —
        no solve, no binning, O(n_tiles * L) flops.
        """
        old_col = self.source_column(old_tile, old_layer)
        new_col = self.source_column(new_tile, new_layer)
        out = power * (new_col - old_col)
        assert isinstance(out, np.ndarray)
        return out


def power_map_of(placement: Placement, cell_powers: FloatArray,
                 nx: int, ny: int) -> FloatArray:
    """Bin per-cell powers to an ``(nx, ny, L)`` active-layer map."""
    chip = placement.chip
    pmap = np.zeros((nx, ny, chip.num_layers), dtype=np.float64)
    i, j = grid_bin_indices(chip, nx, ny, placement.x, placement.y)
    np.add.at(pmap, (i, j, placement.z.astype(np.int64)),
              np.asarray(cell_powers, dtype=np.float64))
    return pmap
