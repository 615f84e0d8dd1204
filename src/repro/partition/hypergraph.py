"""Weighted hypergraphs with fixed vertices and contraction.

Nets are stored as plain Python lists of distinct vertex ids: the
placer's nets are tiny (2-4 pins on average), where list operations beat
NumPy's per-array overhead by a wide margin, and the FM inner loop is the
hottest code in the whole library.  Every constructor goes through one
array canonicalization (:func:`canonical_csr`) that sorts each net's
pins, drops duplicates and checks their range, and the graph keeps the
resulting flat CSR arrays for the vectorized kernels; a contraction
canonicalizes its mapped pins once and keeps a subset of those nets.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import IntArray

#: Marker for vertices free to go to either side.
FREE = -1

#: A canonical net/pin structure: ``(net_ptr, pins, pin_net)``.
CSR = Tuple[IntArray, IntArray, IntArray]


def canonical_csr(num_vertices: int, net_ptr: IntArray,
                  pins: IntArray) -> CSR:
    """Sort each net's pins ascending and drop its duplicate pins.

    Args:
        num_vertices: vertex count; every pin must lie in
            ``0..num_vertices-1``.
        net_ptr: length ``m + 1``; net ``e``'s pins are
            ``pins[net_ptr[e]:net_ptr[e + 1]]``.
        pins: vertex ids, all nets concatenated, any order within a net.

    Returns:
        New int64 arrays ``(net_ptr, pins, pin_net)`` of the same ``m``
        nets, each net's pins distinct and ascending; ``pin_net`` maps
        each pin back to its net.

    Raises:
        ValueError: naming the first net that holds an out-of-range pin.
    """
    net_ptr = np.asarray(net_ptr, dtype=np.int64)
    pins = np.asarray(pins, dtype=np.int64)
    m = len(net_ptr) - 1
    pin_net = np.repeat(np.arange(m, dtype=np.int64), np.diff(net_ptr))
    bad = (pins < 0) | (pins >= num_vertices)
    if bad.any():
        e = int(pin_net[np.argmax(bad)])
        net = sorted(set(pins[net_ptr[e]:net_ptr[e + 1]].tolist()))
        raise ValueError(f"net pin out of range: {net}")
    # one key per pin orders nets first, pins second; equal neighbours
    # are duplicate pins of one net
    stride = np.int64(max(num_vertices, 1))
    key = pin_net * stride
    key += pins
    key.sort()
    distinct = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=distinct[1:])
    pin_net, pins = np.divmod(key[distinct], stride)
    ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(pin_net, minlength=m), out=ptr[1:])
    return ptr, pins, pin_net


class Hypergraph:
    """A vertex- and net-weighted hypergraph for bisection.

    Attributes:
        num_vertices: vertex count; vertices are ``0..num_vertices-1``.
        nets: list of pin lists; each pin list holds distinct vertex ids.
        net_weights: list of floats, cost of cutting each net.
        net_weight_array: the same weights as a read-only float64
            array, for the array passes.
        vertex_weights: float array, balance weight of each vertex
            (cell area in the placer; fixed vertices conventionally get
            weight 0 because they do not occupy the region being split).
        fixed: int array; ``FREE`` (-1) for movable vertices, else the
            side (0/1) the vertex is pinned to.  Used for terminal
            propagation.
        free: read-only bool mask of the free vertices
            (``fixed == FREE``).
        free_ids: read-only ids of the free vertices, ascending.
        free_weight: total balance weight of the free vertices.

    Nothing mutates a hypergraph after construction, so the net-weight
    array and the free-vertex values are computed once, in
    :meth:`_setup`.
    """

    def __init__(self, num_vertices: int,
                 nets: Sequence[Sequence[int]],
                 net_weights: Optional[Sequence[float]] = None,
                 vertex_weights: Optional[Sequence[float]] = None,
                 fixed: Optional[Sequence[int]] = None) -> None:
        m = len(nets)
        net_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.fromiter((len(p) for p in nets), dtype=np.int64,
                              count=m), out=net_ptr[1:])
        pins = np.fromiter(chain.from_iterable(nets), dtype=np.int64,
                           count=int(net_ptr[-1]))
        self._setup(num_vertices,
                    canonical_csr(int(num_vertices), net_ptr, pins),
                    net_weights, vertex_weights, fixed)

    @classmethod
    def from_csr(cls, num_vertices: int, net_ptr: IntArray,
                 pins: IntArray,
                 net_weights: Optional[Sequence[float]] = None,
                 vertex_weights: Optional[Sequence[float]] = None,
                 fixed: Optional[Sequence[int]] = None) -> "Hypergraph":
        """Build from flat CSR pin arrays (see :func:`canonical_csr`);
        the arguments are read, never written."""
        graph = cls.__new__(cls)
        graph._setup(num_vertices,
                     canonical_csr(int(num_vertices), net_ptr, pins),
                     net_weights, vertex_weights, fixed)
        return graph

    def _setup(self, num_vertices: int, csr: CSR,
               net_weights: Optional[Sequence[float]],
               vertex_weights: Optional[Sequence[float]],
               fixed: Optional[Sequence[int]]) -> None:
        """Adopt a canonical CSR (:func:`canonical_csr`'s output, kept
        as is) and check the weights and fixed sides against it."""
        self.num_vertices = int(num_vertices)
        self._csr: CSR = csr
        flat = csr[1].tolist()
        bounds = csr[0].tolist()
        self.nets: List[List[int]] = [
            flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        m = len(self.nets)
        net_w = (np.ones(m) if net_weights is None
                 else np.array(net_weights, dtype=np.float64))
        if net_w.shape != (m,):
            raise ValueError("net_weights length mismatch")
        # FM's exact pass stop relies on finite, non-negative weights
        if not (np.isfinite(net_w).all() and (net_w >= 0).all()):
            raise ValueError("net weights must be finite and "
                             "non-negative")
        net_w.flags.writeable = False
        self.net_weight_array = net_w
        self.net_weights: List[float] = net_w.tolist()
        self.vertex_weights = (np.ones(self.num_vertices)
                               if vertex_weights is None
                               else np.asarray(vertex_weights, dtype=float))
        if self.vertex_weights.shape != (self.num_vertices,):
            raise ValueError("vertex_weights length mismatch")
        # FM's balance rule relies on finite, non-negative weights
        if not (np.isfinite(self.vertex_weights).all()
                and (self.vertex_weights >= 0).all()):
            raise ValueError("vertex weights must be finite and "
                             "non-negative")
        self.fixed = (np.full(self.num_vertices, FREE, dtype=np.int64)
                      if fixed is None
                      else np.asarray(fixed, dtype=np.int64))
        if self.fixed.shape != (self.num_vertices,):
            raise ValueError("fixed length mismatch")
        self.free = self.fixed == FREE
        self.free.flags.writeable = False
        self.free_ids = np.flatnonzero(self.free)
        self.free_ids.flags.writeable = False
        self.free_weight = float(self.vertex_weights[self.free].sum())
        self._vertex_nets: Optional[List[List[int]]] = None

    # ------------------------------------------------------------------
    @property
    def num_nets(self) -> int:
        """Number of nets."""
        return len(self.nets)

    def net_csr(self) -> CSR:
        """Flat CSR view of the net/pin structure.

        Returns:
            ``(net_ptr, pin_vertex, pin_net)`` int64 arrays:
            ``pin_vertex[net_ptr[e]:net_ptr[e+1]]`` are net ``e``'s pins
            (the lists of :attr:`nets`) and ``pin_net`` maps each flat
            pin back to its net.  Nets are immutable after construction,
            so the view never goes stale.  This is the structure the
            vectorized FM gain and cut-cost kernels reduce over.
        """
        return self._csr

    def vertex_nets_all(self) -> List[List[int]]:
        """Incidence lists: for each vertex, the indices of its nets."""
        if self._vertex_nets is None:
            incidence: List[List[int]] = [[] for _ in
                                          range(self.num_vertices)]
            for e, pins in enumerate(self.nets):
                for p in pins:
                    incidence[p].append(e)
            self._vertex_nets = incidence
        return self._vertex_nets

    def vertex_nets(self, v: int) -> List[int]:
        """Indices of nets incident to vertex ``v``."""
        return self.vertex_nets_all()[v]

    def neighbors_scored(self, v: int) -> Dict[int, float]:
        """Heavy-edge connectivity scores of v's hypergraph neighbours.

        Each shared net ``e`` contributes ``w_e / (|e| - 1)`` — the
        standard heavy-edge rating for hypergraph coarsening.
        """
        scores: Dict[int, float] = {}
        for e in self.vertex_nets(v):
            pins = self.nets[e]
            if len(pins) < 2:
                continue
            share = self.net_weights[e] / (len(pins) - 1)
            for u in pins:
                if u != v:
                    scores[u] = scores.get(u, 0.0) + share
        return scores

    # ------------------------------------------------------------------
    def contract(self, match: np.ndarray) -> Tuple["Hypergraph", np.ndarray]:
        """Contract the hypergraph along a vertex map.

        Args:
            match: array mapping each vertex to its *group representative*
                (any vertex id; vertices sharing a representative merge).

        Returns:
            ``(coarse, vertex_map)`` where ``vertex_map[v]`` is the coarse
            vertex id of fine vertex ``v``.  Coarse vertex weights are
            summed; coarse nets drop duplicate pins, single-pin nets are
            removed, and parallel nets are merged with summed weights.
            Fixed sides propagate (merging differently-fixed vertices is
            an error).
        """
        # coarse ids number the representatives in first-appearance order
        _, first, rep_of = np.unique(np.asarray(match, dtype=np.int64),
                                     return_index=True, return_inverse=True)
        n_coarse = len(first)
        rank = np.empty(n_coarse, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(n_coarse, dtype=np.int64)
        vertex_map = rank[rep_of]

        # np.add.at adds in vertex order, as a loop over vertices would
        weights = np.zeros(n_coarse)
        np.add.at(weights, vertex_map, self.vertex_weights)
        pinned = ~self.free
        groups = vertex_map[pinned]
        fixed = np.full(n_coarse, FREE, dtype=np.int64)
        fixed[groups] = self.fixed[pinned]
        if (fixed[groups] != self.fixed[pinned]).any():
            raise ValueError(
                "cannot merge vertices fixed to different sides")

        ptr, pins, _ = self._csr
        coarse_ptr, coarse_pins, coarse_pin_net = canonical_csr(
            n_coarse, ptr, vertex_map[pins])
        flat = coarse_pins.tolist()
        bounds = coarse_ptr.tolist()
        # parallel nets merge into the first, weights summed in net order
        merged: Dict[Tuple[int, ...], float] = {}
        kept: List[int] = []
        for e, w in enumerate(self.net_weights):
            a, b = bounds[e], bounds[e + 1]
            if b - a < 2:
                continue
            net = tuple(flat[a:b])
            if net not in merged:
                kept.append(e)
            merged[net] = merged.get(net, 0.0) + w
        # the kept nets' pins, already canonical, in net order
        keep = np.zeros(self.num_nets, dtype=bool)
        keep[kept] = True
        sizes = np.diff(coarse_ptr)[keep]
        net_ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=net_ptr[1:])
        csr = (net_ptr, coarse_pins[keep[coarse_pin_net]],
               np.repeat(np.arange(len(sizes), dtype=np.int64), sizes))
        coarse = Hypergraph.__new__(Hypergraph)
        coarse._setup(n_coarse, csr, list(merged.values()), weights, fixed)
        return coarse, vertex_map
