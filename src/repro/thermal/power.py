"""Dynamic power: Eqs. 4-5 (net power) and Eqs. 10-15 (cell attribution).

The paper assumes dynamic power dominates and is dissipated in the
driver cells (driver resistance >> interconnect resistance).  Net ``i``
dissipates

    P_i = 1/2 f Vdd^2 a_i C_i                                   (Eq. 4)
    C_i = C_wl WL_i + C_ilv ILV_i + C_pin n_i^input_pins         (Eq. 5)

and a cell's power is the share of its driven nets' power (Eq. 10),
split evenly among a net's drivers via the per-output-pin coefficients
``s_i^wl``, ``s_i^ilv`` and ``s_i^input pins`` (Eqs. 6, 11).

At the start of global placement all cells sit at the chip centre and
WL = ILV = 0, which would zero out the TRR net weights; Eqs. 13-15
provide PEKO-style *optimal* lower bounds used as floors in that case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis import FloatArray, exact_nonzero
from repro.metrics.wirelength import NetMetrics, compute_net_metrics
from repro.netlist.netlist import Netlist
from repro.netlist.placement import Placement
from repro.technology import TechnologyConfig


@dataclass
class PekoOptimal:
    """PEKO-3D optimal lower bounds per net (Eqs. 13-15).

    Attributes:
        wl_x, wl_y: optimal x/y bounding-box extents, metres.
        ilv: optimal interlayer-via counts (floats, clipped at >= 0).
    """

    wl_x: FloatArray
    wl_y: FloatArray
    ilv: FloatArray


class PowerModel:
    """Dynamic-power calculations bound to a netlist and technology.

    All per-net quantities are NumPy arrays indexed by net id.
    """

    def __init__(self, netlist: Netlist, tech: Optional[TechnologyConfig]
                 = None) -> None:
        self.netlist = netlist
        self.tech = tech or TechnologyConfig()
        m = netlist.num_nets
        self._activity = np.zeros(m, dtype=np.float64)
        self._n_input = np.zeros(m, dtype=np.float64)
        self._n_output = np.zeros(m, dtype=np.float64)
        for net in netlist.nets:
            self._activity[net.id] = net.activity
            self._n_input[net.id] = net.num_input_pins
            self._n_output[net.id] = max(1, net.num_output_pins)
        scale = self.tech.switching_energy_scale
        act = scale * self._activity
        # Eq. 6/11 coefficients, per output pin:
        self.s_wl = act * self.tech.cap_per_wirelength / self._n_output
        self.s_ilv = act * self.tech.cap_per_via / self._n_output
        self.s_input_pins = (act * self.tech.input_pin_cap * self._n_input
                             / self._n_output)

    # ------------------------------------------------------------------
    # net-level power (Eqs. 4-5)
    # ------------------------------------------------------------------
    def net_capacitances(self, metrics: NetMetrics) -> FloatArray:
        """Total capacitance per net (Eq. 5), farads."""
        tech = self.tech
        return (tech.cap_per_wirelength * (metrics.wl_x + metrics.wl_y)
                + tech.cap_per_via * metrics.ilv
                + tech.input_pin_cap * self._n_input)

    def net_powers(self, metrics: NetMetrics) -> FloatArray:
        """Dynamic power per net (Eq. 4), watts."""
        return (self.tech.switching_energy_scale * self._activity
                * self.net_capacitances(metrics))

    def total_power(self, placement: Placement,
                    metrics: Optional[NetMetrics] = None) -> float:
        """Total power (dynamic + leakage) of a placement, watts."""
        if metrics is None:
            metrics = compute_net_metrics(placement)
        return float(self.net_powers(metrics).sum()
                     + self.leakage_powers().sum())

    def leakage_powers(self) -> FloatArray:
        """Static power per cell, watts (Section 3.2's extension).

        Proportional to cell area; zero by default (the paper's
        dynamic-only model).
        """
        return (self.tech.leakage_power_density
                * self.netlist.areas)

    # ------------------------------------------------------------------
    # cell-level power (Eqs. 10-11)
    # ------------------------------------------------------------------
    def cell_powers(self, metrics: NetMetrics,
                    floors: Optional[PekoOptimal] = None) -> FloatArray:
        """Per-cell dissipated power (Eq. 10), watts, indexed by cell id.

        Args:
            metrics: current per-net geometry.
            floors: if given, WL and ILV are floored at the PEKO-3D
                optimal values (the paper's rule for computing TRR net
                weights while cells still sit on top of each other).
        """
        wl = metrics.wl_x + metrics.wl_y
        ilv = metrics.ilv.astype(np.float64)
        if floors is not None:
            wl = np.maximum(wl, floors.wl_x + floors.wl_y)
            ilv = np.maximum(ilv, floors.ilv)
        per_net_share = self.s_wl * wl + self.s_ilv * ilv + self.s_input_pins
        powers = self.leakage_powers().copy()
        for net in self.netlist.nets:
            share = float(per_net_share[net.id])
            if not exact_nonzero(share):
                continue
            for driver in net.driver_ids:
                powers[driver] += share
        return powers

    # ------------------------------------------------------------------
    # PEKO-3D optimal floors (Eqs. 13-15)
    # ------------------------------------------------------------------
    def peko_optimal(self, alpha_ilv: float) -> PekoOptimal:
        """Approximate optimal WL/ILV per net for a given via coefficient.

        Eqs. 13-15 of the paper: with average cell width ``w`` and height
        ``h`` and total pin count ``n``, the optimal placement of one net
        occupies a box of volume ``w*h*alpha_ilv*n`` (the via coefficient
        acting as the "height" cost of the z direction), giving

            WL_x_opt = cbrt(alpha_ilv w h n) - w
            WL_y_opt = cbrt(alpha_ilv w h n) - h
            ILV_opt  = cbrt(w h n / alpha_ilv^2) - 1

        all clipped at zero.
        """
        if alpha_ilv <= 0:
            raise ValueError("alpha_ilv must be positive for PEKO floors")
        w = self.netlist.average_cell_width
        h = self.netlist.average_cell_height
        n_pins = np.array([net.degree for net in self.netlist.nets],
                          dtype=np.float64)
        side = np.cbrt(alpha_ilv * w * h * n_pins)
        return PekoOptimal(wl_x=np.clip(side - w, 0.0, None),
                           wl_y=np.clip(side - h, 0.0, None),
                           ilv=np.clip(side / alpha_ilv - 1.0, 0.0, None))
