"""The placement engine: the paper's primary contribution.

Pipeline (Section 6 of the paper):

1. All cells start at the chip centre.
2. :mod:`~repro.core.globalplace` — recursive bisection with
   direction-aware cuts, terminal propagation, thermal net weights
   (Eq. 8) and, in z cuts, TRR nets (Eq. 12).
3. :mod:`~repro.core.moves` — global then local move/swap passes.
4. :mod:`~repro.core.cellshift` — iterative row-aware cell shifting
   until the maximum bin density approaches one.
5. :mod:`~repro.core.detailed` — detailed legalization into rows.

Everything optimizes the single objective of Eq. 3, implemented
incrementally in :mod:`~repro.core.objective`.

The one-call entry point is :class:`~repro.core.placer.Placer3D`; the
comparison baselines (random, annealing, quadratic) run through it as
pipeline specs (see :mod:`repro.core.stages`).
"""

from repro.core.checkpoint import (CheckpointError, has_checkpoint,
                                   load_checkpoint, save_checkpoint)
from repro.core.config import PlacementConfig
from repro.core.context import PlacementContext
from repro.core.objective import ObjectiveState
from repro.core.pipeline import (PipelineHalted, PipelineSpec,
                                 PlacementPipeline, RepeatEntry,
                                 StageEntry, default_pipeline_spec)
from repro.core.placer import Placer3D, PlacementResult
from repro.core.refine import LegalRefiner
from repro.core.stages import (Stage, available_stages, create_stage,
                               get_stage, register_stage)

__all__ = ["PlacementConfig", "ObjectiveState", "Placer3D",
           "PlacementResult", "LegalRefiner",
           "PlacementContext", "PipelineSpec", "StageEntry",
           "RepeatEntry", "PlacementPipeline", "PipelineHalted",
           "default_pipeline_spec",
           "Stage", "available_stages", "create_stage", "get_stage",
           "register_stage",
           "CheckpointError", "has_checkpoint", "load_checkpoint",
           "save_checkpoint"]
