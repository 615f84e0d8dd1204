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

Registered stages:

============ ========================================================
``global``   recursive-bisection global placement (Section 3)
``quadratic`` clique-spring quadratic placement, a drop-in ``global``
             alternative (no legalization; downstream stages do that)
``random``   uniform random scatter, the floor baseline
``moves``    global+local greedy move/swap passes (Section 4.2)
``cellshift`` row-aware cell shifting (Section 4.1)
``detailed`` detailed legalization into rows (Section 5)
``refine``   legality-preserving post-optimization passes
============ ========================================================
"""

from __future__ import annotations

from typing import (Any, Callable, ClassVar, Dict, Mapping, Optional,
                    Tuple, Type, cast)

from repro.core.cellshift import CellShifter
from repro.core.context import PlacementContext
from repro.core.detailed import DetailedLegalizer
from repro.core.globalplace import GlobalPlacer
from repro.core.moves import MoveOptimizer
from repro.core.refine import LegalRefiner
from repro.netlist.placement import Placement

__all__ = ["Stage", "available_stages", "create_stage", "get_stage",
           "register_stage"]


class Stage:
    """Base protocol for pipeline stages.

    Attributes:
        name: registry name; also the telemetry span the runner opens
            around :meth:`run`.
        needs_objective: whether the stage reads/writes the incremental
            :class:`~repro.core.objective.ObjectiveState`.  The runner
            materializes the objective (under its ``objective_build``
            span) before the first stage or repeat group that needs it.
    """

    name: ClassVar[str] = ""
    needs_objective: ClassVar[bool] = True

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
    """Quadratic (force-directed) global placement alternative.

    Args:
        iterations: solve/spread rounds.
        tether: relative centre-tether weight (solvability without
            pads; see :class:`~repro.core.quadratic.QuadraticPlacer`).
    """

    needs_objective = False

    def __init__(self, iterations: int = 3, tether: float = 1e-3) -> None:
        self.iterations = int(iterations)
        self.tether = float(tether)

    def run(self, ctx: PlacementContext) -> None:
        # Imported here: quadratic.py needs the result type, which the
        # placer re-exports, and the registry must stay importable from
        # the placer without a cycle.
        from repro.core.quadratic import QuadraticPlacer
        placer = QuadraticPlacer(ctx.netlist, ctx.config, chip=ctx.chip,
                                 iterations=self.iterations,
                                 tether=self.tether)
        placer.place_global(ctx.placement)
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


@register_stage("moves")
class MovesStage(Stage):
    """Global then local greedy move/swap passes (Section 4.2)."""

    def run(self, ctx: PlacementContext) -> None:
        mover = MoveOptimizer(ctx.objective, ctx.config)
        for _ in range(max(1, ctx.config.move_passes)):
            mover.global_pass()
            mover.local_pass()


@register_stage("cellshift")
class CellShiftStage(Stage):
    """Row-aware cell shifting until densities approach one."""

    def run(self, ctx: PlacementContext) -> None:
        CellShifter(ctx.objective, ctx.config).run()


@register_stage("detailed")
class DetailedStage(Stage):
    """Detailed legalization into rows (Section 5)."""

    def run(self, ctx: PlacementContext) -> None:
        DetailedLegalizer(ctx.objective, ctx.config).run()


@register_stage("refine")
class RefineStage(Stage):
    """Legality-preserving post-optimization passes."""

    def run(self, ctx: PlacementContext) -> None:
        if ctx.config.refine_passes > 0:
            LegalRefiner(ctx.objective, ctx.config).run(
                ctx.config.refine_passes)
