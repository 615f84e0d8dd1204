"""Checkpoint/resume: serialize a run at any stage boundary.

A checkpoint is a directory holding two files:

- ``checkpoint.json`` — metadata: the full config (plus its stable
  hash), the serialized pipeline spec (plus hash), the netlist's name
  and content hash, the ordered list of completed pipeline units and
  the objective accumulators' scalar half.  The document is pinned
  by ``checkpoint_schema.json`` and validated with the same
  dependency-free validator the run manifests use.
- an arrays file, the one ``checkpoint.json`` names in ``arrays_file``
  (``state-0.npz`` or ``state-1.npz``; ``state.npz`` in older
  checkpoints) — the placement coordinate arrays, the incremental
  objective's *history-dependent* arrays (per-cell power, per-net
  spans and, when maintained, per-net driver resistance sums: their
  low bits depend on the order moves were applied in, see
  :meth:`~repro.core.objective.ObjectiveState.checkpoint_state`), and
  the best-round snapshot arrays when one exists.

A save never writes over the files of the current checkpoint.  Each
file is written under a temporary name and renamed into place: the
arrays first, under the name the current metadata does not use, then
the metadata; the superseded arrays file is removed only after that.
So a save that fails at any point leaves the previous checkpoint whole
(and removes what it wrote), and metadata is never paired with arrays
from another boundary.

Resume validates the config hash, spec hash and netlist hash before
touching any state, so a checkpoint can never be silently applied to
a different circuit, different knobs or a different pipeline.  With
all three equal, a resumed run replays the remaining units with the
same per-stage seeded generators and the same accumulator bits,
reproducing the uninterrupted run's final placement bit-identically.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.analysis import FloatArray, IntArray
from repro.core.context import PlacementContext
from repro.netlist.netlist import netlist_hash
from repro.obs.clock import wall_time
from repro.obs.manifest import (CHECKPOINT_KIND, config_hash, content_hash,
                                validate_checkpoint_meta)

__all__ = ["CHECKPOINT_VERSION", "CheckpointData", "CheckpointError",
           "checkpoint_paths", "has_checkpoint", "load_checkpoint",
           "save_checkpoint", "verify_matches"]

CHECKPOINT_VERSION = 1

#: Best-round snapshot: (objective, x, y, z).
BestState = Tuple[float, FloatArray, FloatArray, IntArray]


class CheckpointError(RuntimeError):
    """A checkpoint is missing, corrupt, or does not match the run."""


@dataclass
class CheckpointData:
    """One loaded checkpoint: metadata plus the serialized arrays.

    Attributes:
        meta: the ``checkpoint.json`` document (schema-validated).
        x, y, z: placement coordinate arrays at the boundary.
        power: per-cell power accumulator of the objective, or ``None``
            when the objective had not been built yet.
        wl: per-net spans of the objective, or ``None`` likewise.
        drv_rsum: per-net driver resistance sums of the objective, or
            ``None`` when it did not maintain them at the boundary.
        best: best-round snapshot ``(objective, x, y, z)``, if any.
    """

    meta: Dict[str, Any]
    x: FloatArray
    y: FloatArray
    z: IntArray
    power: Optional[FloatArray] = None
    wl: Optional[FloatArray] = None
    drv_rsum: Optional[FloatArray] = None
    best: Optional[BestState] = None

    @property
    def completed(self) -> List[str]:
        """Ordered unit labels already executed."""
        return [str(u) for u in self.meta["completed"]]


def checkpoint_paths(directory: Union[str, Path]) -> Tuple[Path, Path]:
    """The ``(checkpoint.json, arrays file)`` paths of a directory: the
    arrays file its metadata names, or ``state.npz`` while there is no
    readable metadata."""
    meta_path = Path(directory) / "checkpoint.json"
    try:
        name = _read_meta(meta_path)["arrays_file"]
    except (OSError, CheckpointError):
        name = "state.npz"
    return meta_path, meta_path.with_name(name)


def has_checkpoint(directory: Union[str, Path]) -> bool:
    """Whether a complete checkpoint exists in ``directory``."""
    meta_path, npz_path = checkpoint_paths(directory)
    return meta_path.is_file() and npz_path.is_file()


def _read_meta(meta_path: Path) -> Dict[str, Any]:
    """Parse and schema-validate a ``checkpoint.json``; raises
    :class:`CheckpointError` if it is not valid JSON, fails the schema
    or names an arrays file outside its directory."""
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except ValueError as exc:  # JSON or UTF-8 decoding
        raise CheckpointError(f"{meta_path} is not valid JSON: {exc}"
                              ) from None
    if not isinstance(meta, dict):
        raise CheckpointError(f"{meta_path} is not a JSON object")
    errors = validate_checkpoint_meta(meta)
    if errors:
        raise CheckpointError(
            f"{meta_path} failed schema validation: " + "; ".join(errors))
    name = meta["arrays_file"]
    if os.path.basename(name) != name or name in ("", ".", ".."):
        raise CheckpointError(
            f"{meta_path} names arrays file {name!r}, not a file name "
            "in its directory")
    return meta


@contextmanager
def _replacing(path: Path, mode: str,
               encoding: Optional[str] = None) -> Iterator[IO[Any]]:
    """Open a temporary file beside ``path`` and rename it over
    ``path`` when the block completes; on an error remove it instead,
    so ``path`` keeps its old content whole."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _netlist_identity(ctx: PlacementContext) -> Dict[str, Any]:
    return {"name": ctx.netlist.name, "hash": netlist_hash(ctx.netlist)}


def save_checkpoint(directory: Union[str, Path], ctx: PlacementContext,
                    spec_dict: Dict[str, Any], completed: List[str],
                    best: Optional[BestState] = None) -> str:
    """Serialize the run state after a completed stage boundary; a
    save that fails at any point leaves the previous checkpoint whole
    (see the module docstring).

    Args:
        directory: checkpoint directory (created if needed).
        ctx: the run's context (placement and objective).
        spec_dict: the serialized pipeline spec being executed.
        completed: ordered unit labels finished so far.
        best: the runner's best-round snapshot, if tracking one.

    Returns:
        The path of the written ``checkpoint.json``.
    """
    os.makedirs(str(Path(directory)), exist_ok=True)
    meta_path, previous = checkpoint_paths(directory)
    npz_path = previous.with_name(
        "state-1.npz" if previous.name == "state-0.npz" else "state-0.npz")
    arrays: Dict[str, Any] = {
        "x": ctx.placement.x,
        "y": ctx.placement.y,
        "z": ctx.placement.z,
    }
    objective_total: Optional[float] = None
    if ctx.objective_built:
        power, objective_total, wl, drv_rsum = \
            ctx.objective.checkpoint_state()
        arrays["power"] = power
        arrays["wl"] = wl
        if drv_rsum is not None:
            arrays["drv_rsum"] = drv_rsum
    best_objective: Optional[float] = None
    if best is not None:
        best_objective = float(best[0])
        arrays["best_x"] = best[1]
        arrays["best_y"] = best[2]
        arrays["best_z"] = best[3]
    meta: Dict[str, Any] = {
        "kind": CHECKPOINT_KIND,
        "schema_version": CHECKPOINT_VERSION,
        "created_unix": wall_time(),
        "seed": int(ctx.config.seed),
        "config": ctx.config.to_dict(),
        "config_hash": config_hash(ctx.config),
        "spec": spec_dict,
        "spec_hash": content_hash(spec_dict),
        "netlist": _netlist_identity(ctx),
        "completed": list(completed),
        "objective_built": ctx.objective_built,
        "objective_total": objective_total,
        "best_objective": best_objective,
        "arrays_file": npz_path.name,
    }
    errors = validate_checkpoint_meta(meta)
    if errors:
        raise CheckpointError(
            "refusing to write an invalid checkpoint: "
            + "; ".join(errors))
    with _replacing(npz_path, "wb") as fh:
        np.savez(fh, **arrays)
    try:
        with _replacing(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except BaseException:
        npz_path.unlink(missing_ok=True)  # no metadata names it
        raise
    previous.unlink(missing_ok=True)
    return str(meta_path)


def load_checkpoint(directory: Union[str, Path]) -> CheckpointData:
    """Load and schema-validate a checkpoint directory.

    Raises:
        CheckpointError: missing files, unparseable or schema-violating
            metadata, or arrays inconsistent with the metadata.
    """
    meta_path = Path(directory) / "checkpoint.json"
    if not meta_path.is_file():
        raise CheckpointError(f"no checkpoint at {meta_path}")
    meta = _read_meta(meta_path)
    npz_path = meta_path.with_name(meta["arrays_file"])
    if not npz_path.is_file():
        raise CheckpointError(
            f"checkpoint arrays missing: {npz_path} (torn write?)")
    with np.load(str(npz_path)) as arrays:
        x = np.asarray(arrays["x"], dtype=np.float64)
        y = np.asarray(arrays["y"], dtype=np.float64)
        z = np.asarray(arrays["z"], dtype=np.int64)
        power: Optional[FloatArray] = None
        wl: Optional[FloatArray] = None
        drv_rsum: Optional[FloatArray] = None
        if meta["objective_built"]:
            for key in ("power", "wl"):
                if key not in arrays:
                    raise CheckpointError(
                        "checkpoint claims a built objective but has no "
                        f"{key} array")
            power = np.asarray(arrays["power"], dtype=np.float64)
            wl = np.asarray(arrays["wl"], dtype=np.float64)
            if "drv_rsum" in arrays:
                drv_rsum = np.asarray(arrays["drv_rsum"], dtype=np.float64)
        best: Optional[BestState] = None
        if meta["best_objective"] is not None:
            for key in ("best_x", "best_y", "best_z"):
                if key not in arrays:
                    raise CheckpointError(
                        f"checkpoint has best_objective but no {key}")
            best = (float(meta["best_objective"]),
                    np.asarray(arrays["best_x"], dtype=np.float64),
                    np.asarray(arrays["best_y"], dtype=np.float64),
                    np.asarray(arrays["best_z"], dtype=np.int64))
    return CheckpointData(meta=meta, x=x, y=y, z=z, power=power, wl=wl,
                          drv_rsum=drv_rsum, best=best)


def verify_matches(data: CheckpointData, ctx: PlacementContext,
                   spec_dict: Dict[str, Any]) -> None:
    """Refuse to resume against a different run.

    Raises:
        CheckpointError: when the config hash, spec hash or netlist
            hash of the checkpoint disagrees with the current run.
    """
    want_config = config_hash(ctx.config)
    got_config = data.meta["config_hash"]
    if got_config != want_config:
        raise CheckpointError(
            f"checkpoint config hash {got_config} != current "
            f"{want_config}; resume requires identical knobs")
    want_spec = content_hash(spec_dict)
    got_spec = data.meta["spec_hash"]
    if got_spec != want_spec:
        raise CheckpointError(
            f"checkpoint pipeline spec hash {got_spec} != current "
            f"{want_spec}; resume requires the identical spec")
    identity = _netlist_identity(ctx)
    stored = data.meta["netlist"]
    if stored != identity:
        raise CheckpointError(
            f"checkpoint netlist {stored} != current {identity}")
    n = ctx.netlist.num_cells
    for label, array in (("x", data.x), ("y", data.y), ("z", data.z)):
        if array.shape != (n,):
            raise CheckpointError(
                f"checkpoint {label} array has shape {array.shape}, "
                f"expected ({n},)")
