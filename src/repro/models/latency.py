"""Analytic latency model: per-layer breakdown and batch-size scaling.

Apparate's runtime decisions consume exactly two latency artefacts that are
collected once per model during bootstrapping (§3.3):

1. a **layer-wise breakdown** of inference time (per batch size), used to
   translate "input exited at depth p" into saved milliseconds, and
2. the **latency overhead of each ramp**, used in utility scores and to
   enforce the ramp budget.

This module provides both from the model spec and its dataflow graph.  The
per-layer split follows each node's FLOPs share; the batch-size scaling law
captures GPU amortization: a batch of ``b`` inputs takes
``t1 * (1 + c * (b - 1))`` where ``c`` is the model's marginal batching cost
(< 1, so throughput grows with batch size while per-request latency also
grows — the tension of Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.graph.builders import build_graph_for_model
from repro.graph.ir import ModelGraph
from repro.models.zoo import ModelSpec

__all__ = ["LatencyProfile", "build_latency_profile"]


@dataclass
class LatencyProfile:
    """Latency breakdown of one model.

    Attributes
    ----------
    spec:
        The model this profile describes.
    node_names:
        Node names in topological order.
    node_latency_ms:
        Latency attributed to each node at batch size 1 (same order).  The
        profile keeps a read-only copy and sums it once at construction:
        :meth:`total_latency_ms` (called on every batch-time prediction)
        scales that cached bs=1 total instead of re-summing the nodes.
    cumulative_fraction:
        Fraction of total bs=1 latency spent once each node has finished.
    """

    spec: ModelSpec
    node_names: List[str]
    node_latency_ms: np.ndarray
    cumulative_fraction: np.ndarray

    def __post_init__(self) -> None:
        self.node_latency_ms = np.array(self.node_latency_ms, dtype=float)
        self.node_latency_ms.flags.writeable = False
        self.cumulative_fraction = np.asarray(self.cumulative_fraction, dtype=float)
        self._index = {name: i for i, name in enumerate(self.node_names)}
        self._bs1_total_ms = float(self.node_latency_ms.sum())

    # ------------------------------------------------------------ whole model
    def total_latency_ms(self, batch_size: int = 1) -> float:
        """Serving time of a full forward pass for a batch of ``batch_size``."""
        return self.batch_scale(batch_size) * self._bs1_total_ms

    def batch_scale(self, batch_size: int) -> float:
        """Multiplier on bs=1 latency when serving ``batch_size`` inputs."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return 1.0 + self.spec.batch_marginal_cost * (batch_size - 1)

    def throughput_qps(self, batch_size: int) -> float:
        """Steady-state throughput (queries/second) at the given batch size."""
        return 1000.0 * batch_size / self.total_latency_ms(batch_size)

    def scaled(self, speed: float) -> "LatencyProfile":
        """This profile on hardware running ``speed``× faster (or slower).

        Every per-node latency divides by ``speed`` while the relative
        breakdown (``cumulative_fraction``) is unchanged — the mechanism
        behind heterogeneous fleets: a 2× replica's platform carries
        ``profile.scaled(2.0)`` so its batching policy, SLO checks and the
        ``least_work_left`` balancer all cost its queue in true milliseconds.
        """
        if not speed > 0.0:
            raise ValueError(f"speed must be positive, got {speed}")
        if speed == 1.0:
            return self
        return LatencyProfile(
            spec=self.spec,
            node_names=list(self.node_names),
            node_latency_ms=self.node_latency_ms / speed,
            cumulative_fraction=self.cumulative_fraction.copy(),
        )

    # ------------------------------------------------------------- per depth
    def depth_fraction(self, node_name: str) -> float:
        """Fraction of bs=1 serving time elapsed when ``node_name`` completes."""
        return float(self.cumulative_fraction[self._index[node_name]])

    def latency_to_depth(self, depth_fraction: float, batch_size: int = 1) -> float:
        """Serving time needed to reach ``depth_fraction`` of the model."""
        depth_fraction = float(np.clip(depth_fraction, 0.0, 1.0))
        return depth_fraction * self.total_latency_ms(batch_size)

    def savings_for_exit(self, depth_fraction: float, batch_size: int = 1) -> float:
        """Serving time saved by releasing a result at ``depth_fraction``."""
        return self.total_latency_ms(batch_size) - self.latency_to_depth(depth_fraction, batch_size)

    # ------------------------------------------------------------------ ramps
    def ramp_overhead_ms(self, ramp_flops_fraction: float, batch_size: int = 1) -> float:
        """Latency a ramp of the given relative cost adds to one batch."""
        return float(ramp_flops_fraction) * self.total_latency_ms(batch_size)

    def sweep_batch_sizes(self, batch_sizes: Sequence[int]) -> Dict[int, Dict[str, float]]:
        """Latency/throughput table across batch sizes (used for Figure 1)."""
        table: Dict[int, Dict[str, float]] = {}
        for bs in batch_sizes:
            table[int(bs)] = {
                "latency_ms": self.total_latency_ms(bs),
                "throughput_qps": self.throughput_qps(bs),
            }
        return table


def build_latency_profile(spec: ModelSpec, graph: Optional[ModelGraph] = None) -> LatencyProfile:
    """Construct the latency profile of ``spec`` from its dataflow graph.

    Each node receives a share of the model's bs=1 latency proportional to its
    FLOPs share (nodes with zero FLOPs, e.g. residual adds, receive a small
    epsilon so the cumulative curve is strictly increasing).
    """
    graph = graph or build_graph_for_model(spec.name)
    order = graph.topological_order()
    shares = np.array([max(node.flops_share, 1e-6) for node in order], dtype=float)
    shares /= shares.sum()
    node_latency = shares * spec.bs1_latency_ms
    cumulative = np.cumsum(shares)
    return LatencyProfile(
        spec=spec,
        node_names=[node.name for node in order],
        node_latency_ms=node_latency,
        cumulative_fraction=cumulative,
    )
