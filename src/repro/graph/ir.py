"""A lightweight ONNX-like dataflow IR.

The IR represents a model as a directed acyclic graph of operator nodes.  It
carries just enough structure for Apparate's model-preparation phase:

* topology (edges between operators) — used to find cut vertices, i.e. legal
  ramp positions;
* per-node metadata (operator category, parameter count, FLOPs share, output
  width) — used to size ramps and to split the model's latency profile across
  layers;
* block annotations (e.g. which residual/encoder block a node belongs to) —
  used to report human-readable ramp locations.

The graph is deliberately framework-agnostic: builders in
:mod:`repro.graph.builders` synthesize graphs with the same block structure as
the real ResNet / VGG / BERT / GPT-2 / T5 / Llama2 models the paper evaluates.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

__all__ = ["OpCategory", "Node", "ModelGraph"]


class OpCategory(str, enum.Enum):
    """Coarse operator categories (sufficient for ramp placement decisions)."""

    INPUT = "input"
    CONV = "conv"
    POOL = "pool"
    NORM = "norm"
    ACTIVATION = "activation"
    ADD = "add"
    ATTENTION = "attention"
    FEEDFORWARD = "feedforward"
    EMBEDDING = "embedding"
    LINEAR = "linear"
    OUTPUT = "output"


@dataclass
class Node:
    """One operator in the dataflow graph.

    Attributes
    ----------
    name:
        Unique node identifier, e.g. ``"layer2.block1.conv2"``.
    op:
        Operator category.
    block:
        Name of the coarse block the node belongs to (residual block, encoder
        layer, ...) or ``None`` for top-level nodes.
    params:
        Number of trainable parameters attributed to this node.
    flops_share:
        Fraction of whole-model FLOPs attributed to this node (sums to ~1).
    output_width:
        Width (channel / hidden dimension) of the node's output tensor, used
        to size the fully-connected layer of a ramp attached here.
    """

    name: str
    op: OpCategory
    block: Optional[str] = None
    params: int = 0
    flops_share: float = 0.0
    output_width: int = 0


class ModelGraph:
    """Directed acyclic dataflow graph of :class:`Node` objects.

    Adjacency is two dicts of dicts (successors and predecessors of every
    node); dicts keep insertion order, so nodes, edges and neighbour lists
    come back in the order they were added.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._succ: Dict[str, Dict[str, None]] = {}
        self._pred: Dict[str, Dict[str, None]] = {}

    # ------------------------------------------------------------------ build
    def add_node(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name: {node.name}")
        self._nodes[node.name] = node
        self._succ[node.name] = {}
        self._pred[node.name] = {}
        return node

    def add_edge(self, src: str, dst: str) -> None:
        if src not in self._nodes or dst not in self._nodes:
            raise KeyError(f"unknown node in edge {src!r} -> {dst!r}")
        # The graph is acyclic before the edge, so the edge closes a cycle
        # exactly when it is a self-loop or dst already reaches src.
        if src == dst or src in self._reachable(dst, self._succ.__getitem__):
            raise ValueError(f"edge {src!r} -> {dst!r} would create a cycle")
        self._succ[src][dst] = None
        self._pred[dst][src] = None

    @staticmethod
    def _reachable(start: str, step: Callable[[str], Iterable[str]]) -> Set[str]:
        """Every node reached from ``start`` (itself included) by following
        ``step(node)`` repeatedly."""
        seen = {start}
        todo = [start]
        while todo:
            for other in step(todo.pop()):
                if other not in seen:
                    seen.add(other)
                    todo.append(other)
        return seen

    def _neighbours(self, name: str) -> List[str]:
        """Adjacent nodes of ``name`` in the undirected view of the graph."""
        return [*self._succ[name], *self._pred[name]]

    # ------------------------------------------------------------ inspection
    def node(self, name: str) -> Node:
        return self._nodes[name]

    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    def num_nodes(self) -> int:
        return len(self._nodes)

    def edges(self) -> List[Tuple[str, str]]:
        return [(src, dst) for src, succ in self._succ.items() for dst in succ]

    def successors(self, name: str) -> List[str]:
        return list(self._succ[name])

    def predecessors(self, name: str) -> List[str]:
        return list(self._pred[name])

    def _topological_names(self) -> List[str]:
        """Kahn's algorithm taking the smallest ready name first, so the
        order is the lexicographic topological sort; a node on a cycle is
        never ready, so a cyclic graph yields fewer names than it holds."""
        indegree = {name: len(pred) for name, pred in self._pred.items()}
        ready = [name for name, degree in indegree.items() if degree == 0]
        heapq.heapify(ready)
        order: List[str] = []
        while ready:
            name = heapq.heappop(ready)
            order.append(name)
            for child in self._succ[name]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, child)
        return order

    def topological_order(self) -> List[Node]:
        """Nodes in a deterministic topological order."""
        return [self._nodes[n] for n in self._topological_names()]

    def input_nodes(self) -> List[Node]:
        return [self._nodes[n] for n, pred in self._pred.items() if not pred]

    def output_nodes(self) -> List[Node]:
        return [self._nodes[n] for n, succ in self._succ.items() if not succ]

    def blocks(self) -> List[str]:
        """Distinct block names in topological order of first appearance."""
        seen: Set[str] = set()
        ordered: List[str] = []
        for node in self.topological_order():
            if node.block and node.block not in seen:
                seen.add(node.block)
                ordered.append(node.block)
        return ordered

    def total_params(self) -> int:
        return sum(n.params for n in self._nodes.values())

    def total_flops_share(self) -> float:
        return sum(n.flops_share for n in self._nodes.values())

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Raise ``ValueError`` if the graph is not a well-formed model graph."""
        if self.num_nodes() == 0:
            raise ValueError("empty graph")
        if len(self._topological_names()) != self.num_nodes():
            raise ValueError("graph contains a cycle")
        inputs = self.input_nodes()
        outputs = self.output_nodes()
        if len(inputs) != 1:
            raise ValueError(f"expected exactly one input node, found {len(inputs)}")
        if len(outputs) != 1:
            raise ValueError(f"expected exactly one output node, found {len(outputs)}")
        if len(self._reachable(next(iter(self._nodes)),
                               self._neighbours)) != self.num_nodes():
            raise ValueError("graph is not connected")

    def depth_fraction(self, name: str) -> float:
        """Fraction of model FLOPs executed once ``name`` has been computed.

        This is the "depth" used to reason about how much of the model a ramp
        placed after ``name`` gets to observe, and hence how much latency an
        exit at that ramp saves.
        """
        order = self.topological_order()
        total = sum(n.flops_share for n in order) or 1.0
        running = 0.0
        for node in order:
            running += node.flops_share
            if node.name == name:
                return running / total
        raise KeyError(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModelGraph(name={self.name!r}, nodes={self.num_nodes()}, edges={len(self.edges())})"
