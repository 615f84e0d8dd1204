"""The full placement pipeline (Section 6 of the paper).

``Placer3D`` is a thin driver over the composable stage pipeline: it
builds the default :class:`~repro.core.pipeline.PipelineSpec` from the
config (or accepts a custom one), creates the shared
:class:`~repro.core.context.PlacementContext`, and hands both to the
:class:`~repro.core.pipeline.PlacementPipeline` runner.  The default
spec is the paper's flow:

1. start all cells at the chip centre (context creation);
2. global placement by recursive bisection (Section 3);
3. global then local move/swap passes (Section 4.2);
4. iterative cell shifting until the coarse mesh's max density is close
   to one (Section 4.1);
5. detailed legalization (Section 5);
6. optionally repeat the coarse+detailed stages ("can be repeated
   multiple times if additional optimization is required" — the 65x/7.7%
   effort knob of Section 7).

Timing and convergence metrics go through :mod:`repro.obs`: the run is
a span tree (``place/round2/moves`` …) rather than a flat timing dict,
so repeated coarse+detailed rounds keep their boundaries.  The flat
``stage_seconds`` view (summed across rounds) is still derived — from
the spec, not a hardcoded stage list; ``round_seconds`` and
``telemetry`` carry the per-round detail.

With a ``checkpoint_dir``, the runner serializes the context after
every stage boundary, and ``run(resume=True)`` picks the run back up
from the last boundary, reproducing the uninterrupted run's final
placement bit-identically (see :mod:`repro.core.checkpoint`).

Every finished run ends with the check its spec implies: ``check_legal``
when the spec ends legalized (see
:meth:`~repro.core.pipeline.PipelineSpec.ends_legal`), else
``check_bounds`` — a global-only placement overlaps by design, but its
cells must still lie inside the die and the layer stack.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager, Dict, List, Optional, Union

from repro.core.config import PlacementConfig
from repro.core.context import PlacementContext, auto_chip
from repro.core.detailed import check_bounds, check_legal
from repro.core.pipeline import (PipelineSpec, PlacementPipeline,
                                 default_pipeline_spec, stage_summary)
from repro.geometry.chip import ChipGeometry
from repro.netlist.netlist import Netlist
from repro.netlist.placement import Placement
from repro.obs import Recorder, Telemetry, get_logger, use_recorder

__all__ = ["PlacementResult", "Placer3D"]

_log = get_logger(__name__)


@dataclass
class PlacementResult:
    """Outcome of a full placement run.

    Attributes:
        placement: the final placement; legal whenever the spec ends
            legalized.
        objective: final objective value (Eq. 3).
        wirelength: final total lateral HPWL, metres.
        ilv: final interlayer-via count.
        runtime_seconds: wall-clock runtime of :meth:`Placer3D.run`.
        stage_seconds: wall-clock per pipeline stage, summed across
            coarse+detailed rounds (back-compat flat view).
        round_seconds: one ``{stage: seconds}`` dict per
            coarse+detailed round, in round order.
        telemetry: full recorder snapshot (span tree, counters,
            series) for the run.
    """

    placement: Placement
    objective: float
    wirelength: float
    ilv: int
    runtime_seconds: float
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    round_seconds: List[Dict[str, float]] = field(default_factory=list)
    telemetry: Optional[Telemetry] = None


class Placer3D:
    """Thermal- and via-aware 3D placer.

    Args:
        netlist: the circuit to place; read, never mutated, so one
            netlist can back any number of placers.
        config: coefficients and effort knobs.
        chip: the placement volume; sized automatically from the cell
            area, layer count, whitespace and row spacing when omitted.
        recorder: optional telemetry recorder.  When given, it is also
            installed as the ambient recorder for the duration of
            :meth:`run`, so deep components (FM passes, the thermal
            solver, move/shift loops) report counters and series into
            it.  When omitted, a private recorder captures stage spans
            only — the ambient recorder stays the shared no-op, keeping
            the default path at its historical cost.
        spec: the pipeline to run; defaults to the paper's flow derived
            from ``config`` (``default_pipeline_spec``).  Custom specs
            swap stages by registry name — e.g. ``quadratic`` instead
            of ``global`` — without touching this driver; the
            baselines are specs too (``[random, detailed]``,
            ``[random, anneal, detailed]``, ``[quadratic, detailed]``).

    Example:
        >>> from repro import Placer3D, PlacementConfig, load_benchmark
        >>> netlist = load_benchmark("ibm01", scale=0.02)
        >>> placer = Placer3D(netlist, PlacementConfig(alpha_ilv=1e-5))
        >>> result = placer.run()
        >>> result.ilv >= 0
        True
    """

    def __init__(self, netlist: Netlist, config: PlacementConfig,
                 chip: Optional[ChipGeometry] = None,
                 recorder: Optional[Recorder] = None,
                 spec: Optional[PipelineSpec] = None) -> None:
        self.netlist = netlist
        self.config = config
        self.recorder = recorder
        if chip is None:
            chip = auto_chip(netlist, config)
        elif chip.num_layers != config.num_layers:
            raise ValueError("chip layer count disagrees with config")
        self.chip = chip
        self.spec = spec if spec is not None \
            else default_pipeline_spec(config)

    # ------------------------------------------------------------------
    def run(self, *,
            checkpoint_dir: Optional[Union[str, Path]] = None,
            resume: bool = False,
            preempt: Optional[Callable[[str], bool]] = None,
            ) -> PlacementResult:
        """Run the configured pipeline and check its final placement.

        Args:
            checkpoint_dir: serialize the run state here after every
                stage boundary (and resume from here).
            resume: restore the last checkpoint in ``checkpoint_dir``
                before running; completed stages are skipped and the
                final placement is bit-identical to an uninterrupted
                run.
            preempt: stop hook called with each completed unit's
                label (e.g. ``"1:round1/detailed"``) after its
                checkpoint is saved; returning ``True`` stops the run
                there with :class:`~repro.core.pipeline.PipelineHalted`
                (the job worker's cancel path and ``--halt-after``).

        Returns:
            A :class:`PlacementResult` with the checked placement.

        Raises:
            AssertionError: the final placement fails the check its
                spec implies (``check_legal`` or ``check_bounds``).
            CheckpointError: ``resume`` without a matching checkpoint.
            PipelineHalted: the ``preempt`` hook requested a stop.
        """
        config = self.config
        provided = self.recorder
        rec = provided if provided is not None and provided.enabled \
            else Recorder()
        scope: ContextManager[object] = (
            use_recorder(provided) if provided is not None
            else nullcontext())
        _log.info("placing %s: %d cells, %d nets, %d layers",
                  self.netlist.name, self.netlist.num_cells,
                  self.netlist.num_nets, config.num_layers)

        with scope, rec.span("place"):
            ctx = PlacementContext.create(self.netlist, config,
                                          chip=self.chip, recorder=rec)
            pipeline = PlacementPipeline(self.spec, ctx,
                                         checkpoint_dir=checkpoint_dir,
                                         preempt=preempt)
            if resume:
                pipeline.resume()
            pipeline.run()
            objective = ctx.objective
            if self.spec.ends_legal():
                check_legal(ctx.placement)
            else:
                check_bounds(ctx.placement)

        place_node = rec.tracer.root.child("place")
        stage_seconds, round_seconds = stage_summary(place_node,
                                                     self.spec)
        return PlacementResult(
            placement=ctx.placement,
            objective=objective.total,
            wirelength=objective.wirelength(),
            ilv=objective.total_ilv(),
            runtime_seconds=place_node.seconds,
            stage_seconds=stage_seconds,
            round_seconds=round_seconds,
            telemetry=rec.snapshot(),
        )
