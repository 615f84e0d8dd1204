"""Shared state the pipeline stages operate on.

A :class:`PlacementContext` bundles everything one placement run owns:
the netlist (read, never mutated), the chip volume, the coordinate
arrays, the power model, the lazily built incremental
:class:`~repro.core.objective.ObjectiveState` and the telemetry
recorder.  Stages receive the context and nothing else,
so any stage composition the :class:`~repro.core.pipeline.PipelineSpec`
describes runs against the same state without hidden coupling.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import PlacementConfig
from repro.core.objective import ObjectiveState
from repro.geometry.chip import ChipGeometry
from repro.netlist.netlist import Netlist
from repro.netlist.placement import Placement
from repro.obs import NULL_RECORDER, Recorder, get_logger
from repro.thermal.power import PowerModel

__all__ = ["PlacementContext", "auto_chip"]

_log = get_logger(__name__)


def auto_chip(netlist: Netlist, config: PlacementConfig) -> ChipGeometry:
    """Size the placement volume from cell area and the config knobs.

    The single source of the sizing policy previously duplicated by
    ``Placer3D`` and the baseline placers.
    """
    return ChipGeometry.for_cell_area(
        netlist.total_cell_area, config.num_layers,
        netlist.average_cell_height,
        whitespace=config.tech.whitespace,
        inter_row_space=config.tech.inter_row_space,
        min_row_width=24.0 * netlist.average_cell_width,
        layer_thickness=config.tech.layer_thickness,
        interlayer_thickness=config.tech.interlayer_thickness,
        substrate_thickness=config.tech.substrate_thickness)


class PlacementContext:
    """Everything one placement run reads and mutates.

    Build one with :meth:`create` rather than the constructor.

    Attributes:
        netlist: the circuit being placed.
        config: the placement configuration.
        chip: the placement volume.
        placement: the evolving coordinate arrays.
        power_model: netlist-bound power attribution (Eq. 10).
        recorder: the run's telemetry recorder (never ``None``; the
            shared null recorder when telemetry is off).
    """

    def __init__(self, netlist: Netlist, config: PlacementConfig,
                 chip: ChipGeometry, placement: Placement,
                 power_model: PowerModel,
                 recorder: Recorder = NULL_RECORDER) -> None:
        self.netlist = netlist
        self.config = config
        self.chip = chip
        self.placement = placement
        self.power_model = power_model
        self.recorder = recorder
        self._objective: Optional[ObjectiveState] = None

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, netlist: Netlist, config: PlacementConfig,
               chip: Optional[ChipGeometry] = None,
               recorder: Recorder = NULL_RECORDER) -> "PlacementContext":
        """Prepare a fresh run with every cell at the chip centre."""
        if chip is None:
            chip = auto_chip(netlist, config)
        elif chip.num_layers != config.num_layers:
            raise ValueError("chip layer count disagrees with config")
        placement = Placement.at_center(netlist, chip)
        power_model = PowerModel(netlist, config.tech)
        return cls(netlist, config, chip, placement, power_model,
                   recorder=recorder)

    # ------------------------------------------------------------------
    @property
    def objective_built(self) -> bool:
        """Whether the incremental objective state exists yet."""
        return self._objective is not None

    @property
    def objective(self) -> ObjectiveState:
        """The incremental objective, built on first access."""
        return self.ensure_objective()

    def ensure_objective(self) -> ObjectiveState:
        """Build the objective state if needed; return it.

        The build runs under an ``objective_build`` span at whatever
        point of the pipeline first needs it — for the default spec
        that is right after global placement, before the first
        coarse+detailed round, matching the historical span layout.
        """
        if self._objective is None:
            with self.recorder.span("objective_build"):
                self._objective = ObjectiveState(
                    self.placement, self.config, self.power_model)
            _log.info("objective state built: objective %.6e",
                      self._objective.total)
        return self._objective

    def invalidate_objective(self) -> None:
        """Drop the objective state (a stage replaced the placement
        wholesale and the caches must be rebuilt on next access)."""
        self._objective = None
