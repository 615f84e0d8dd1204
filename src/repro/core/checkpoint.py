"""Checkpoint/resume: serialize a run at any stage boundary.

A checkpoint is one file, ``checkpoint.npz``, in the run's checkpoint
directory.  It holds:

- the placement coordinate arrays ``x``, ``y`` and ``z``;
- the incremental objective's *history-dependent* arrays: per-cell
  ``power``, per-net spans ``wl`` and, when maintained, per-net driver
  resistance sums ``drv_rsum`` (their low bits depend on the order
  moves were applied in, see
  :meth:`~repro.core.objective.ObjectiveState.checkpoint_state`);
- the best-round snapshot arrays ``best_x``, ``best_y`` and ``best_z``
  when one exists;
- ``meta``, the metadata as a JSON string: the full config (plus its
  stable hash), the serialized pipeline spec (plus hash), the
  netlist's name and content hash, the ordered list of completed
  pipeline units and the objective accumulators' scalar half.  It is
  pinned by ``checkpoint_schema.json`` and validated with the same
  dependency-free validator the run manifests use.

A save writes ``checkpoint.npz.tmp`` and renames it over
``checkpoint.npz`` in one ``os.replace``, so a save that fails at any
point leaves the previous checkpoint whole (and removes what it
wrote), and metadata is never paired with arrays from another
boundary.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.analysis import FloatArray, IntArray
from repro.core.context import PlacementContext
from repro.netlist.netlist import netlist_hash
from repro.obs.clock import wall_time
from repro.obs.manifest import (CHECKPOINT_KIND, config_hash, content_hash,
                                validate_checkpoint_meta)

__all__ = ["CHECKPOINT_VERSION", "CheckpointData", "CheckpointError",
           "has_checkpoint", "load_checkpoint", "save_checkpoint",
           "verify_matches"]

CHECKPOINT_VERSION = 2

#: The checkpoint's file name inside its directory.
_FILE = "checkpoint.npz"

#: Best-round snapshot: (objective, x, y, z).
BestState = Tuple[float, FloatArray, FloatArray, IntArray]


class CheckpointError(RuntimeError):
    """A checkpoint is missing, corrupt, or does not match the run."""


@dataclass
class CheckpointData:
    """One loaded checkpoint: metadata plus the serialized arrays.

    Attributes:
        meta: the metadata document (schema-validated).
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


def has_checkpoint(directory: Union[str, Path]) -> bool:
    """Whether a checkpoint exists in ``directory``."""
    return (Path(directory) / _FILE).is_file()


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
        The path of the written ``checkpoint.npz``.
    """
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
    }
    errors = validate_checkpoint_meta(meta)
    if errors:
        raise CheckpointError(
            "refusing to write an invalid checkpoint: "
            + "; ".join(errors))
    os.makedirs(str(directory), exist_ok=True)
    path = Path(directory) / _FILE
    tmp = path.with_name(_FILE + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta, sort_keys=True)),
                     **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return str(path)


def load_checkpoint(directory: Union[str, Path]) -> CheckpointData:
    """Load and schema-validate a checkpoint directory.

    Raises:
        CheckpointError: no checkpoint, an unreadable file (not an
            ``.npz``, no ``meta`` entry, ``meta`` not JSON),
            schema-violating metadata, or arrays inconsistent with the
            metadata.
    """
    path = Path(directory) / _FILE
    if not path.is_file():
        raise CheckpointError(f"no checkpoint at {path}")
    try:
        with np.load(str(path)) as npz:
            arrays = {name: npz[name] for name in npz.files}
        meta = json.loads(str(arrays.pop("meta")))
    except Exception as exc:
        # a damaged file makes the zip and .npy readers raise nearly
        # anything (BadZipFile, EOFError, NotImplementedError, a
        # RuntimeError for "encrypted" entries, tokenize errors ...)
        raise CheckpointError(f"{path} is not a readable checkpoint: "
                              f"{type(exc).__name__}: {exc}") from exc
    errors = validate_checkpoint_meta(meta)
    if errors:
        raise CheckpointError(
            f"{path} failed schema validation: " + "; ".join(errors))

    needed = ["x", "y", "z"]
    if meta["objective_built"]:
        needed += ["power", "wl"]
    if meta["best_objective"] is not None:
        needed += ["best_x", "best_y", "best_z"]
    missing = [name for name in needed if name not in arrays]
    if missing:
        raise CheckpointError(f"{path} has no {', '.join(missing)} "
                              "array for its metadata")

    def get(name: str, dtype: Any = np.float64) -> Any:
        return (np.asarray(arrays[name], dtype=dtype)
                if name in arrays else None)

    built = meta["objective_built"]
    best: Optional[BestState] = None
    if meta["best_objective"] is not None:
        best = (float(meta["best_objective"]), get("best_x"),
                get("best_y"), get("best_z", np.int64))
    return CheckpointData(
        meta=meta, x=get("x"), y=get("y"), z=get("z", np.int64),
        power=get("power") if built else None,
        wl=get("wl") if built else None,
        drv_rsum=get("drv_rsum") if built else None, best=best)


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
