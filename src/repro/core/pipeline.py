"""Declarative stage pipeline: spec, runner, checkpoint boundaries.

The placement flow is described by a :class:`PipelineSpec` — an ordered
list of entries, each either a single :class:`StageEntry` (a registry
name plus per-stage options) or a :class:`RepeatEntry` grouping stages
into repeated coarse+detailed rounds with the best-snapshot/restore
policy the paper's Section 7 effort knob relies on.  The
:class:`PlacementPipeline` runner executes a spec against a shared
:class:`~repro.core.context.PlacementContext`, opening the same
telemetry spans the monolithic ``Placer3D.run()`` used to hardwire
(``global``, ``objective_build``, ``round1/moves`` …), so manifests,
stage summaries and the benchmark harness see an unchanged tree.

Every executed **unit** (a stage, a round's bookkeeping, a group's
best-restore) is a checkpoint boundary: with a checkpoint directory
configured, the runner serializes the context after each unit and can
later resume, skipping completed units and reproducing the
uninterrupted run bit-identically (see :mod:`repro.core.checkpoint`).

Spec JSON is a plain document, editable by hand and loadable with
``--pipeline SPEC.json``::

    {"pipeline": [
        {"stage": "random"},
        {"stage": "anneal", "options": {"moves_per_cell": 20}},
        {"repeat": {"rounds": 2, "stages": [
            {"stage": "moves"}, {"stage": "cellshift"},
            {"stage": "detailed"}, {"stage": "refine"}]}}
    ]}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import json

from repro.core import checkpoint as ckpt
from repro.core.config import PlacementConfig
from repro.core.context import PlacementContext
from repro.core.stages import Legality, create_stage, get_stage
from repro.obs import get_logger
from repro.obs.trace import SpanStats

__all__ = ["PipelineHalted", "PipelineSpec", "PlacementPipeline",
           "RepeatEntry", "StageEntry", "default_pipeline_spec",
           "stage_summary"]

_log = get_logger(__name__)


class PipelineHalted(RuntimeError):
    """Raised when the ``preempt`` hook stops the run at a boundary.

    The stop comes *after* that unit's checkpoint was saved, so the run
    is resumable bit-identically.

    Attributes:
        unit: the unit label the run halted after.
        directory: the checkpoint directory holding the saved state.
    """

    def __init__(self, unit: str, directory: Optional[str]) -> None:
        super().__init__(
            f"pipeline halted after {unit!r}"
            + (f"; checkpoint at {directory}" if directory else ""))
        self.unit = unit
        self.directory = directory


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StageEntry:
    """One pipeline step: a registered stage name plus options.

    Attributes:
        stage: registry name (see :mod:`repro.core.stages`).
        options: keyword options for the stage constructor; must be
            JSON-safe so specs round-trip.
    """

    stage: str
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        get_stage(self.stage)  # fail fast on unknown names

    @property
    def needs_objective(self) -> bool:
        """Whether this stage operates on the incremental objective."""
        return get_stage(self.stage).needs_objective

    def to_dict(self) -> Dict[str, Any]:
        """JSON form (``options`` omitted when empty)."""
        out: Dict[str, Any] = {"stage": self.stage}
        if self.options:
            out["options"] = dict(self.options)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StageEntry":
        """Inverse of :meth:`to_dict`, rejecting unknown keys."""
        unknown = sorted(set(data) - {"stage", "options"})
        if unknown:
            raise ValueError(f"unknown stage-entry keys: {unknown}")
        if "stage" not in data:
            raise ValueError("stage entry needs a 'stage' name")
        options = data.get("options", {})
        if not isinstance(options, Mapping):
            raise ValueError("stage options must be an object")
        return cls(stage=str(data["stage"]), options=dict(options))


@dataclass(frozen=True)
class RepeatEntry:
    """A repeated group of stages (the coarse+detailed rounds).

    Attributes:
        stages: the stages run once per round, in order.
        rounds: how many rounds to run (>= 1).

    The runner tracks the best post-round objective snapshot of every
    group and restores it after the last round if the final state is
    worse: the move/swap phase deliberately un-legalizes, so rounds are
    not monotone.
    """

    stages: Tuple[StageEntry, ...]
    rounds: int = 1

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("repeat rounds must be >= 1")
        if not self.stages:
            raise ValueError("repeat group needs at least one stage")

    @property
    def needs_objective(self) -> bool:
        """Whether any stage in the group needs the objective.

        The snapshot policy reads the objective too, so a repeat group
        always materializes it before its first round span opens —
        matching the historical ``objective_build`` span position.
        """
        return True

    def to_dict(self) -> Dict[str, Any]:
        """JSON form."""
        return {"repeat": {
            "rounds": self.rounds,
            "stages": [s.to_dict() for s in self.stages],
        }}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RepeatEntry":
        """Inverse of :meth:`to_dict`, rejecting unknown keys."""
        unknown = sorted(set(data) - {"rounds", "stages"})
        if unknown:
            raise ValueError(f"unknown repeat-group keys: {unknown}")
        stages = data.get("stages")
        if not isinstance(stages, Sequence) or isinstance(stages, str):
            raise ValueError("repeat group needs a 'stages' list")
        return cls(
            stages=tuple(StageEntry.from_dict(s) for s in stages),
            rounds=int(data.get("rounds", 1)))


Entry = Union[StageEntry, RepeatEntry]


@dataclass(frozen=True)
class PipelineSpec:
    """An ordered, serializable description of a placement run."""

    entries: Tuple[Entry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("pipeline spec needs at least one entry")

    # -- derived views -------------------------------------------------
    @property
    def total_rounds(self) -> int:
        """Rounds across all repeat groups (for ``round N/M`` logs)."""
        return sum(e.rounds for e in self.entries
                   if isinstance(e, RepeatEntry))

    def top_stage_names(self) -> List[str]:
        """Names of stages that run outside any repeat group."""
        return [e.stage for e in self.entries
                if isinstance(e, StageEntry)]

    def round_stage_names(self) -> List[str]:
        """Stage names that appear inside repeat groups, in order,
        deduplicated."""
        seen: List[str] = []
        for entry in self.entries:
            if isinstance(entry, RepeatEntry):
                for stage in entry.stages:
                    if stage.stage not in seen:
                        seen.append(stage.stage)
        return seen

    def ends_legal(self) -> bool:
        """Whether a finished run of this spec is legal by construction.

        Walking back from the last stage, stages that keep a legal
        placement legal (``refine``) are skipped; the spec ends legal
        when the first other stage legalizes (``detailed``).  A repeat
        group counts as its stages once, in order: every round ends
        with the group's last stage, and the best-round restore brings
        back one round's end state.
        """
        names = [name for entry in self.entries
                 for name in ([entry.stage] if isinstance(entry, StageEntry)
                              else [s.stage for s in entry.stages])]
        for name in reversed(names):
            legality = get_stage(name).legality
            if legality is not Legality.KEEPS:
                return legality is Legality.MAKES
        return False

    def units(self) -> List[str]:
        """Every checkpoint-boundary unit label, in execution order.

        Labels are ``{entry_index}:{name}`` for top-level stages,
        ``{entry_index}:round{R}/{name}`` for stages inside a repeat
        group (``R`` counts rounds globally across groups, matching
        the ``roundR`` telemetry spans), ``…/end`` for a round's
        bookkeeping and ``{entry_index}:end`` for a group's
        best-restore.
        """
        labels: List[str] = []
        round_no = 0
        for idx, entry in enumerate(self.entries):
            if isinstance(entry, StageEntry):
                labels.append(f"{idx}:{entry.stage}")
                continue
            for _ in range(entry.rounds):
                round_no += 1
                labels.extend(f"{idx}:round{round_no}/{s.stage}"
                              for s in entry.stages)
                labels.append(f"{idx}:round{round_no}/end")
            labels.append(f"{idx}:end")
        return labels

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON form: ``{"pipeline": [entry, ...]}``."""
        return {"pipeline": [e.to_dict() for e in self.entries]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineSpec":
        """Inverse of :meth:`to_dict`, rejecting unknown keys."""
        unknown = sorted(set(data) - {"pipeline"})
        if unknown:
            raise ValueError(f"unknown pipeline-spec keys: {unknown}")
        entries_data = data.get("pipeline")
        if not isinstance(entries_data, Sequence) \
                or isinstance(entries_data, str):
            raise ValueError("pipeline spec needs a 'pipeline' list")
        entries: List[Entry] = []
        for item in entries_data:
            if not isinstance(item, Mapping):
                raise ValueError("pipeline entries must be objects")
            if "repeat" in item:
                extra = sorted(set(item) - {"repeat"})
                if extra:
                    raise ValueError(
                        f"unknown keys next to 'repeat': {extra}")
                repeat = item["repeat"]
                if not isinstance(repeat, Mapping):
                    raise ValueError("'repeat' must be an object")
                entries.append(RepeatEntry.from_dict(repeat))
            else:
                entries.append(StageEntry.from_dict(item))
        return cls(entries=tuple(entries))

    @classmethod
    def from_json_file(cls, path: Union[str, Path]) -> "PipelineSpec":
        """Load a spec from a JSON file (the CLI's ``--pipeline``)."""
        with open(str(path), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, Mapping):
            raise ValueError(f"{path} is not a JSON object")
        return cls.from_dict(data)


def default_pipeline_spec(config: PlacementConfig) -> PipelineSpec:
    """The paper's flow, derived from the config's effort knobs.

    Global recursive bisection, then ``legalization_rounds`` rounds of
    moves → cell shifting → detailed legalization (→ refinement when
    ``refine_passes`` > 0), with best-snapshot/restore across rounds.
    This is exactly the sequence ``Placer3D.run()`` used to hardwire.
    """
    round_stages: List[StageEntry] = [
        StageEntry("moves"), StageEntry("cellshift"),
        StageEntry("detailed")]
    if config.refine_passes > 0:
        round_stages.append(StageEntry("refine"))
    return PipelineSpec(entries=(
        StageEntry("global"),
        RepeatEntry(stages=tuple(round_stages),
                    rounds=max(1, config.legalization_rounds)),
    ))


# ----------------------------------------------------------------------
def stage_summary(place_node: SpanStats, spec: PipelineSpec,
                  ) -> Tuple[Dict[str, float], List[Dict[str, float]]]:
    """Derive the flat and per-round stage timing views from the spec.

    Args:
        place_node: the ``place`` span (the run root).
        spec: the spec that produced the span tree; its stage names —
            not a hardcoded list — decide which children are read.

    Returns:
        ``(stage_seconds, round_seconds)`` where ``stage_seconds`` sums
        each stage across rounds (round boundaries collapsed, matching
        the historical dict) and ``round_seconds`` keeps them separate.
    """
    stage_seconds: Dict[str, float] = {}
    round_seconds: List[Dict[str, float]] = []
    for name in spec.top_stage_names() + ["objective_build"]:
        node = place_node.children.get(name)
        if node is not None and node.calls:
            stage_seconds[name] = node.seconds
    rounds = sorted((c for c in place_node.children.values()
                     if c.name.startswith("round")),
                    key=lambda c: int(c.name[len("round"):]))
    round_stage_names = spec.round_stage_names()
    for rnd in rounds:
        per_round: Dict[str, float] = {}
        for stage in round_stage_names:
            node = rnd.children.get(stage)
            if node is not None and node.calls:
                per_round[stage] = node.seconds
                stage_seconds[stage] = stage_seconds.get(stage, 0.0) \
                    + node.seconds
        round_seconds.append(per_round)
    return stage_seconds, round_seconds


# ----------------------------------------------------------------------
class PlacementPipeline:
    """Executes a :class:`PipelineSpec` against a shared context.

    Args:
        spec: the run description.
        ctx: the shared placement state.
        checkpoint_dir: when given, the context is serialized after
            every completed unit, and :meth:`resume` can pick the run
            back up from the last boundary.
        preempt: the stop hook, called with each completed unit's label
            (``1:round1/moves``) *after* its checkpoint is saved.
            Returning ``True`` stops the run with
            :class:`PipelineHalted`.  The job worker backs it with the
            job document's ``cancel_requested`` field, so a cancelled
            job parks at the nearest stage boundary; the CLI's
            ``--halt-after`` backs it with a label match.
    """

    def __init__(self, spec: PipelineSpec, ctx: PlacementContext,
                 checkpoint_dir: Optional[Union[str, Path]] = None,
                 preempt: Optional[Callable[[str], bool]] = None) -> None:
        self.spec = spec
        self.ctx = ctx
        self.checkpoint_dir = (str(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        self.preempt = preempt
        self._spec_dict = spec.to_dict()
        self._completed: List[str] = []
        self._best: Optional[ckpt.BestState] = None

    # -- resume --------------------------------------------------------
    def resume(self) -> None:
        """Restore state from ``checkpoint_dir``'s last checkpoint.

        Raises:
            CheckpointError: no checkpoint, or one that does not match
                this run's config, spec or netlist.
        """
        if self.checkpoint_dir is None:
            raise ckpt.CheckpointError(
                "resume requested without a checkpoint directory")
        data = ckpt.load_checkpoint(self.checkpoint_dir)
        ckpt.verify_matches(data, self.ctx, self._spec_dict)
        placement = self.ctx.placement
        placement.x[:] = data.x
        placement.y[:] = data.y
        placement.z[:] = data.z
        if data.meta["objective_built"]:
            assert data.power is not None and data.wl is not None
            self.ctx.ensure_objective().restore_checkpoint(
                data.power, float(data.meta["objective_total"]), data.wl,
                data.drv_rsum)
        self._best = data.best
        self._completed = data.completed
        _log.info("resumed from %s: %d/%d units done",
                  self.checkpoint_dir, len(self._completed),
                  len(self.spec.units()))

    # -- execution -----------------------------------------------------
    def run(self) -> None:
        """Execute every not-yet-completed unit of the spec in order."""
        round_no = 0
        for idx, entry in enumerate(self.spec.entries):
            if entry.needs_objective:
                self.ctx.ensure_objective()
            if isinstance(entry, StageEntry):
                self._run_stage_unit(f"{idx}:{entry.stage}", entry)
                continue
            for _ in range(entry.rounds):
                round_no += 1
                self._run_round(idx, entry, round_no)
            self._finish_group(idx)

    def _run_stage_unit(self, unit: str, entry: StageEntry) -> None:
        if unit in self._completed:
            return
        with self.ctx.recorder.span(entry.stage):
            create_stage(entry.stage, entry.options).run(self.ctx)
        self.ctx.recorder.sample_resources(entry.stage)
        self._complete(unit)

    def _run_round(self, idx: int, entry: RepeatEntry,
                   round_no: int) -> None:
        rec = self.ctx.recorder
        stage_units = [(f"{idx}:round{round_no}/{s.stage}", s)
                       for s in entry.stages]
        end_unit = f"{idx}:round{round_no}/end"
        pending = [pair for pair in stage_units
                   if pair[0] not in self._completed]
        if pending:
            with rec.span(f"round{round_no}"):
                for unit, stage_entry in pending:
                    with rec.span(stage_entry.stage):
                        create_stage(stage_entry.stage,
                                     stage_entry.options).run(self.ctx)
                    rec.sample_resources(
                        f"round{round_no}/{stage_entry.stage}")
                    self._complete(unit)
        if end_unit in self._completed:
            return
        objective = self.ctx.objective
        if self._best is None or objective.total < self._best[0]:
            placement = self.ctx.placement
            self._best = (objective.total, placement.x.copy(),
                          placement.y.copy(), placement.z.copy())
        terms = objective.terms()
        best_objective = (self._best[0] if self._best is not None
                          else objective.total)
        rec.record("placer/round", round=float(round_no),
                   objective=objective.total,
                   best_objective=best_objective,
                   wl_term=terms.wl_term,
                   ilv_term=terms.ilv_term,
                   thermal_term=terms.thermal_term)
        _log.info(
            "round %d/%d: objective %.6e (best %.6e, wl %.4e, ilv %d)",
            round_no, self.spec.total_rounds, objective.total,
            best_objective, terms.wirelength, terms.ilv)
        self._complete(end_unit)

    def _finish_group(self, idx: int) -> None:
        unit = f"{idx}:end"
        if unit in self._completed:
            return
        if self._best is not None:
            objective = self.ctx.objective
            if objective.total > self._best[0]:
                placement = self.ctx.placement
                placement.x[:] = self._best[1]
                placement.y[:] = self._best[2]
                placement.z[:] = self._best[3]
                objective.rebuild()
                _log.info("restored best round snapshot: %.6e",
                          objective.total)
        self._complete(unit)

    # -- bookkeeping ---------------------------------------------------
    def _complete(self, unit: str) -> None:
        self._completed.append(unit)
        if self.checkpoint_dir is not None:
            with self.ctx.recorder.span("checkpoint"):
                ckpt.save_checkpoint(self.checkpoint_dir, self.ctx,
                                     self._spec_dict, self._completed,
                                     best=self._best)
        if self.preempt is not None and self.preempt(unit):
            _log.info("halted after %s", unit)
            raise PipelineHalted(unit, self.checkpoint_dir)
