"""Geometric primitives for 3D-IC placement.

This subpackage provides the spatial substrate every other part of the
placer builds on:

- :class:`~repro.geometry.chip.ChipGeometry` — the placement volume of a
  3D IC: die outline, active layers, standard-cell rows and vertical stack
  dimensions (layer / interlayer / substrate thicknesses).
- :class:`~repro.geometry.density.DensityMesh` — a 3D grid of the cell
  area per bin, with one binning rule, used by coarse legalization (cell
  shifting, move/swap target regions), detailed legalization's bin
  ranking and the density maps.
"""

from repro.geometry.chip import ChipGeometry
from repro.geometry.density import DensityMesh

__all__ = ["ChipGeometry", "DensityMesh"]
