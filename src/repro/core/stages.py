"""The stage registry: named, swappable pipeline stages.

A stage is a small object with a registry ``name`` and a
``run(ctx)`` method operating on a shared
:class:`~repro.core.context.PlacementContext`.  Stages register
themselves here with :func:`register_stage`; a
:class:`~repro.core.pipeline.PipelineSpec` refers to them purely by
name, so swapping the global placer for the quadratic or random
baseline — or inserting an experimental stage — is a spec edit, not a
driver edit.

Stage instances are created fresh for every invocation (once per round
for stages inside a repeat group) via :func:`create_stage`; they hold
no state between invocations.  Everything persistent lives in the
context.  Outside this module and the pipeline runner, instantiating a
stage class directly is a lint error (rule RPL010) — go through the
registry so specs, checkpoints and the CLI all see the same catalogue.

Each stage class declares its :class:`Legality` effect, from which
:meth:`~repro.core.pipeline.PipelineSpec.ends_legal` derives the check
every finished run ends with.

Registered stages:

============= =======================================================
``global``    recursive-bisection global placement (Section 3)
``quadratic`` clique-spring quadratic placement, a drop-in ``global``
              alternative (no legalization; downstream stages do that)
``random``    uniform random scatter, the floor baseline
``anneal``    simulated annealing over cell positions, the annealing
              baseline (options ``moves_per_cell``, ``stages``)
``moves``     one global then one local greedy move/swap pass
              (Section 4.2)
``cellshift`` row-aware cell shifting (Section 4.1)
``detailed``  detailed legalization into rows (Section 5); makes the
              placement legal
``refine``    legality-preserving post-optimization passes; keeps the
              placement legal
============= =======================================================
"""

from __future__ import annotations

import enum
from typing import (Any, Callable, ClassVar, Dict, Mapping, Optional,
                    Tuple, Type, cast)

from repro.core.baseline import anneal
from repro.core.cellshift import CellShifter
from repro.core.context import PlacementContext
from repro.core.detailed import DetailedLegalizer
from repro.core.globalplace import GlobalPlacer
from repro.core.moves import MoveOptimizer
from repro.core.quadratic import QuadraticPlacer
from repro.core.refine import LegalRefiner
from repro.netlist.placement import Placement

__all__ = ["Legality", "Stage", "available_stages", "create_stage",
           "get_stage", "register_stage"]


class Legality(enum.Enum):
    """A stage's effect on the legality of the placement it leaves."""

    #: may leave the placement illegal
    BREAKS = "breaks"
    #: leaves a legal placement legal
    KEEPS = "keeps"
    #: leaves any placement legal
    MAKES = "makes"


class Stage:
    """Base protocol for pipeline stages.

    Attributes:
        name: registry name; also the telemetry span the runner opens
            around :meth:`run`.
        needs_objective: whether the stage reads/writes the incremental
            :class:`~repro.core.objective.ObjectiveState`.  The runner
            materializes the objective (under its ``objective_build``
            span) before the first stage or repeat group that needs it.
        legality: the stage's effect on legality.
    """

    name: ClassVar[str] = ""
    needs_objective: ClassVar[bool] = True
    legality: ClassVar[Legality] = Legality.BREAKS

    def run(self, ctx: PlacementContext) -> None:
        """Execute the stage against the shared context."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<stage {self.name!r}>"


_REGISTRY: Dict[str, Type[Stage]] = {}


def register_stage(name: str) -> Callable[[Type[Stage]], Type[Stage]]:
    """Class decorator registering a stage under ``name``."""

    def wrap(cls: Type[Stage]) -> Type[Stage]:
        if name in _REGISTRY:
            raise ValueError(f"stage {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return wrap


def get_stage(name: str) -> Type[Stage]:
    """Look up a stage class by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown stage {name!r} (registered: {known})") from None


def available_stages() -> Tuple[str, ...]:
    """Sorted names of every registered stage."""
    return tuple(sorted(_REGISTRY))


def create_stage(name: str,
                 options: Optional[Mapping[str, Any]] = None) -> Stage:
    """Instantiate a registered stage with per-stage spec options.

    Raises:
        ValueError: unknown stage name, or options the stage's
            constructor rejects (reported with the stage name so a bad
            spec entry is easy to locate).
    """
    factory = cast(Callable[..., Stage], get_stage(name))
    try:
        return factory(**dict(options or {}))
    except TypeError as exc:
        raise ValueError(f"bad options for stage {name!r}: {exc}") from exc


# ----------------------------------------------------------------------
@register_stage("global")
class GlobalBisectionStage(Stage):
    """Recursive-bisection global placement (the paper's Section 3)."""

    needs_objective = False

    def run(self, ctx: PlacementContext) -> None:
        GlobalPlacer(ctx.placement, ctx.config, ctx.power_model).run()


@register_stage("quadratic")
class QuadraticGlobalStage(Stage):
    """Quadratic (force-directed) global placement alternative."""

    needs_objective = False

    def run(self, ctx: PlacementContext) -> None:
        QuadraticPlacer(ctx.netlist, ctx.config,
                        ctx.chip).place_global(ctx.placement)
        ctx.invalidate_objective()


@register_stage("random")
class RandomGlobalStage(Stage):
    """Uniform random scatter — the floor-baseline global stage."""

    needs_objective = False

    def run(self, ctx: PlacementContext) -> None:
        scattered = Placement.random(ctx.netlist, ctx.chip,
                                     seed=ctx.config.seed)
        ctx.placement.x[:] = scattered.x
        ctx.placement.y[:] = scattered.y
        ctx.placement.z[:] = scattered.z
        ctx.invalidate_objective()


@register_stage("anneal")
class AnnealStage(Stage):
    """Simulated annealing over cell positions (the annealing baseline).

    Args:
        moves_per_cell: attempted moves per movable cell over the run.
        stages: number of temperature stages (>= 1).
    """

    def __init__(self, moves_per_cell: int = 60, stages: int = 24) -> None:
        if int(stages) < 1:
            raise ValueError("anneal stages must be >= 1")
        self.moves_per_cell = int(moves_per_cell)
        self.stages = int(stages)

    def run(self, ctx: PlacementContext) -> None:
        anneal(ctx.objective, ctx.config.seed, self.moves_per_cell,
               self.stages)


@register_stage("moves")
class MovesStage(Stage):
    """One global then one local greedy move/swap pass (Section 4.2)."""

    def run(self, ctx: PlacementContext) -> None:
        mover = MoveOptimizer(ctx.objective, ctx.config)
        mover.global_pass()
        mover.local_pass()


@register_stage("cellshift")
class CellShiftStage(Stage):
    """Row-aware cell shifting until densities approach one."""

    def run(self, ctx: PlacementContext) -> None:
        CellShifter(ctx.objective).run()


@register_stage("detailed")
class DetailedStage(Stage):
    """Detailed legalization into rows (Section 5)."""

    legality = Legality.MAKES

    def run(self, ctx: PlacementContext) -> None:
        DetailedLegalizer(ctx.objective, ctx.config).run()


@register_stage("refine")
class RefineStage(Stage):
    """Legality-preserving post-optimization passes."""

    legality = Legality.KEEPS

    def run(self, ctx: PlacementContext) -> None:
        if ctx.config.refine_passes > 0:
            LegalRefiner(ctx.objective, ctx.config).run(
                ctx.config.refine_passes)
