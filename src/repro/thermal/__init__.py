"""Thermal and power models for 3D ICs.

- :class:`~repro.thermal.power.PowerModel` — the dynamic power model of
  Eqs. 4-5 and the per-cell attribution of Eqs. 10-11, with the PEKO-3D
  optimal lower bounds of Eqs. 13-15.
- :class:`~repro.thermal.resistance.ResistanceModel` — the paper's
  simple straight-path conduction/convection thermal resistances and the
  vertical profile ``R ~ R0 + Rslope * dz`` that drives TRR nets.
- :class:`~repro.thermal.solver.ThermalSolver` — a full-chip
  finite-volume temperature solver (the evaluation-side substitute for
  the paper's FEA, see DESIGN.md substitution #3).
- :class:`~repro.thermal.surrogate.SurrogateThermalModel` — the
  calibrated closed-form image-source surrogate of the exact solver
  (a standalone model; the placer never calls it).
- :mod:`~repro.thermal.analysis` — temperature summaries of placements.

The package re-exports only the two models the placer prices heat
with.  The solver, the surrogate and the analysis build on
``scipy.sparse``; import them from their own modules, so that a
placement that evaluates no temperature field never loads it.
"""

from repro.thermal.power import PekoOptimal, PowerModel
from repro.thermal.resistance import ResistanceModel, VerticalProfile

__all__ = [
    "PowerModel",
    "PekoOptimal",
    "ResistanceModel",
    "VerticalProfile",
]
