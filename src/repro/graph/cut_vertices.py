"""Cut-vertex analysis for ramp placement (paper §3.1, Figure 7).

Apparate marks a node as a *feasible ramp position* when it is a cut vertex of
the dataflow graph: no edge may start before the node and re-enter the model's
computation after it.  Ramps attached at such nodes therefore consume every
intermediate the original model has produced so far.  Inside residual blocks
(ResNet blocks, BERT encoders) the skip connection bypasses the interior
nodes, so only block boundaries qualify; in chained models such as VGG every
layer qualifies.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.graph.ir import ModelGraph, Node, OpCategory

__all__ = ["cut_vertex_nodes", "feasible_ramp_positions"]

# Operator categories that never host a ramp even when structurally feasible:
# the graph input (nothing has been computed yet), the embedding lookup (same
# reason for transformers) and the model's own output head.
_EXCLUDED_OPS: Set[OpCategory] = {OpCategory.INPUT, OpCategory.EMBEDDING, OpCategory.OUTPUT}


def _articulation_points(graph: ModelGraph) -> Set[str]:
    """Articulation points of the undirected view of ``graph``.

    Tarjan's depth-first search, run with an explicit stack: ``low[v]`` is
    the earliest discovery index reachable from ``v``'s subtree through one
    back edge, and a non-root ``u`` is an articulation point when some
    child's subtree cannot climb above it (``low[child] >= disc[u]``); the
    root is one when it has two or more DFS children.
    """
    names = [node.name for node in graph.nodes()]
    adjacency = {name: graph.successors(name) + graph.predecessors(name)
                 for name in names}
    disc: Dict[str, int] = {}
    low: Dict[str, int] = {}
    points: Set[str] = set()
    for root in names:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        root_children = 0
        stack = [(root, None, iter(adjacency[root]))]
        while stack:
            node, parent, neighbours = stack[-1]
            for other in neighbours:
                if other == parent:
                    continue
                if other in disc:
                    low[node] = min(low[node], disc[other])
                else:
                    disc[other] = low[other] = len(disc)
                    stack.append((other, node, iter(adjacency[other])))
                    break
            else:
                stack.pop()
                if stack:
                    up = stack[-1][0]
                    low[up] = min(low[up], low[node])
                    if up == root:
                        root_children += 1
                    elif low[node] >= disc[up]:
                        points.add(up)
        if root_children > 1:
            points.add(root)
    return points


def cut_vertex_nodes(graph: ModelGraph) -> List[str]:
    """Return names of nodes that are cut vertices of the dataflow graph.

    A node ``v`` qualifies when every path from the model input to the model
    output passes through ``v``; equivalently, removing ``v`` disconnects the
    (undirected view of the) graph, or ``v`` is the input/output endpoint of a
    single-path graph.  Results are returned in topological order.
    """
    graph.validate()
    articulation = _articulation_points(graph)

    # Endpoints of the graph are never articulation points but every path
    # trivially passes through them; include them so that callers can filter
    # by operator category instead.
    endpoints = {graph.input_nodes()[0].name, graph.output_nodes()[0].name}

    names_in_order = [n.name for n in graph.topological_order()]
    qualifying = articulation | endpoints
    return [name for name in names_in_order if name in qualifying]


def feasible_ramp_positions(graph: ModelGraph) -> List[Node]:
    """Return nodes where Apparate may attach a ramp, in topological order.

    Structural feasibility (cut vertex) is combined with semantic exclusions:
    ramps are never attached to the raw input, embedding lookups or the final
    output head, since a ramp there would either see no computation or
    duplicate the model's own classifier.
    """
    positions: List[Node] = []
    for name in cut_vertex_nodes(graph):
        node = graph.node(name)
        if node.op in _EXCLUDED_OPS:
            continue
        positions.append(node)
    return positions


def ramp_coverage(graph: ModelGraph) -> float:
    """Fraction of (non-input/output) layers that can host a ramp.

    The paper reports 9.2–68.4% coverage across its model corpus; this helper
    is used by tests to confirm the builders land in a comparable range.
    """
    eligible = [n for n in graph.nodes() if n.op not in _EXCLUDED_OPS]
    if not eligible:
        return 0.0
    return len(feasible_ramp_positions(graph)) / len(eligible)
