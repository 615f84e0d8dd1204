"""Placement configuration: objective coefficients and effort knobs."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

from repro.technology import TechnologyConfig

__all__ = ["PlacementConfig"]


@dataclass
class PlacementConfig:
    """All knobs of the 3D placement flow.

    The two coefficients that define the paper's tradeoff space:

    Attributes:
        alpha_ilv: interlayer-via coefficient (metres of wirelength one
            via is worth, Eq. 1).  The paper sweeps 5e-9 .. 5.2e-3,
            centred around the average cell width (~1e-5).
        alpha_temp: thermal coefficient (Eq. 1).  0 disables thermal
            placement; the paper sweeps up to ~5e-3.
        num_layers: active layers in the stack.

    Thermal-mechanism toggles (for ablations):
        use_thermal_net_weights: apply Eq. 8 net weights in partitioning.
        use_trr_nets: add thermal-resistance-reduction nets (Eq. 12)
            to z-cut bisection tasks.

    Global placement:
        partition_starts: random starts per bisection (effort knob;
            Section 7 reports 3.8% improvement at 3.4x runtime from
            raising effort).

    Coarse legalization:
        move_target_bins: bins in a global move/swap target region.
        legalization_rounds: how many times coarse+detailed legalization
            repeat (Section 7: 10 rounds gave 7.7% improvement at 65x
            runtime).
        refine_passes: legality-preserving post-optimization passes
            after detailed legalization (Section 4's "post-optimization
            phase"); 0 disables.

    Execution:
        num_workers: parallelism degree of the execution backend used
            by the embarrassingly-parallel hot paths (per-level
            recursive-bisection regions; see :mod:`repro.parallel`).
            ``0`` means auto — honour the ``REPRO_WORKERS``
            environment variable, else run serially.  Results are
            bit-identical for every worker count; this knob trades
            wall time for cores only, so it is excluded from the
            scientific config hash manifests and checkpoints pin.

    Misc:
        seed: every random choice flows from this.
        tech: technology / process parameters (Table 2).
    """

    alpha_ilv: float = 1e-5
    alpha_temp: float = 0.0
    num_layers: int = 4
    use_thermal_net_weights: bool = True
    use_trr_nets: bool = True

    partition_starts: int = 3

    move_target_bins: int = 27
    legalization_rounds: int = 1
    refine_passes: int = 3

    num_workers: int = 0

    seed: int = 0
    tech: TechnologyConfig = field(default_factory=TechnologyConfig)

    def __post_init__(self) -> None:
        if self.alpha_ilv <= 0:
            raise ValueError("alpha_ilv must be positive (it is also the "
                             "z-cut cost scale); use a tiny value to make "
                             "vias nearly free")
        if self.alpha_temp < 0:
            raise ValueError("alpha_temp cannot be negative")
        if self.num_layers < 1:
            raise ValueError("need at least one layer")
        if self.num_workers < 0:
            raise ValueError("num_workers cannot be negative "
                             "(0 = auto via REPRO_WORKERS)")

    @property
    def thermal_enabled(self) -> bool:
        """Whether any thermal mechanism is active."""
        return self.alpha_temp > 0 and (self.use_thermal_net_weights
                                        or self.use_trr_nets)

    # -- JSON round-trip -----------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Flatten to JSON-safe primitives (``tech`` as a nested dict).

        The layout matches what the obs manifest hashes, so a config
        loaded back with :meth:`from_dict` hashes identically.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlacementConfig":
        """Inverse of :meth:`to_dict`, rejecting unknown keys.

        Args:
            data: a mapping as produced by :meth:`to_dict` (for
                example the ``config`` section of a run manifest or a
                checkpoint).  ``tech`` may be a nested mapping or
                absent.

        Raises:
            ValueError: on unknown keys (at either level) or on values
                the dataclass validators refuse — a typo in a config
                file fails loudly instead of silently running with
                defaults.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown PlacementConfig keys: {unknown}")
        kwargs: Dict[str, Any] = dict(data)
        tech = kwargs.get("tech")
        if isinstance(tech, Mapping):
            tech_known = {f.name for f in
                          dataclasses.fields(TechnologyConfig)}
            tech_unknown = sorted(set(tech) - tech_known)
            if tech_unknown:
                raise ValueError(
                    f"unknown TechnologyConfig keys: {tech_unknown}")
            kwargs["tech"] = TechnologyConfig(**tech)
        elif tech is not None and not isinstance(tech, TechnologyConfig):
            raise ValueError("tech must be a mapping or TechnologyConfig")
        return cls(**kwargs)
