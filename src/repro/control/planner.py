"""Path planning over the control-plane state graph.

"For each disaggregated memory allocation request, the control plane
traverses the graph looking for the best available path connecting the
compute and memory stealing endpoints involved. Once a suitable path is
found and its resources are reserved, the control plane generates the
suitable configurations and pushes them to the appropriate agents."
(§IV-C)

Paths are ranked by hop count (fewer switch crossings = lower RTT) and
then by how loaded their transceivers are, which spreads flows across
channels.

The search is a depth-first walk from the compute endpoint in adjacency
order, bounded by each node's hop distance to the memory endpoint
through nodes a path may cross: a subtree is entered only if a path of
at most :data:`MAX_PATH_EDGES` edges through it can still reach the
target. Every pruned subtree holds no usable path, and the walk visits
the kept ones in the order an exhaustive simple-path enumeration would,
so the ranked list is the same as enumerating and filtering every
simple path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .graph import GraphError, NodeKind, StateGraph

__all__ = ["PathPlanner", "PlannedPath", "NoPathError"]

#: Longest cep→mep path considered, in edges. A direct cable is 3 edges,
#: one switch crossing 5; 6 admits a detour through a third switch port.
MAX_PATH_EDGES = 6

_ENDPOINTS = (NodeKind.COMPUTE_ENDPOINT, NodeKind.MEMORY_ENDPOINT)


class NoPathError(GraphError):
    """No usable path between the requested endpoints."""

    code = "graph/no-path"


@dataclass(frozen=True)
class PlannedPath:
    """A reserved route between a compute and a memory endpoint.

    ``channel_indices`` are the compute-side transceiver (channel)
    numbers the flow will use — what the agent programs into the route
    table. ``reserved_nodes`` is everything the planner reserved, for
    symmetric release.
    """

    compute_host: str
    memory_host: str
    channel_indices: Tuple[int, ...]
    reserved_nodes: Tuple[str, ...]
    hop_count: int
    #: Full cep→…→mep node sequences, one per planned channel. Used by
    #: the orchestrator to program intermediate switching layers.
    node_paths: Tuple[Tuple[str, ...], ...] = ()

    @property
    def bonded(self) -> bool:
        return len(self.channel_indices) > 1


class PathPlanner:
    """Finds and reserves channel paths between endpoint pairs."""

    def __init__(self, state: StateGraph):
        self.state = state

    # -- path discovery ---------------------------------------------------------------
    def candidate_paths(
        self, compute_host: str, memory_host: str
    ) -> List[List[str]]:
        """All simple cep→mep paths with free capacity, best first.

        A usable path has at most :data:`MAX_PATH_EDGES` edges and
        crosses only transceivers and switch ports with free capacity
        (paths must not tunnel through other endpoints).
        """
        graph = self.state.graph
        source = self.state.cep(compute_host)
        target = self.state.mep(memory_host)
        if not graph.has_node(source) or not graph.has_node(target):
            raise NoPathError(
                f"unknown endpoint(s): {compute_host!r} / {memory_host!r}"
            )
        adjacency = graph.adj
        hops = self._hops_to(target)
        usable = []
        path = [source]
        stack = [iter(adjacency[source])]
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                path.pop()
            elif node == target:
                usable.append(path + [target])
            elif (
                node in hops
                and len(path) + hops[node] <= MAX_PATH_EDGES
                and node not in path
            ):
                path.append(node)
                stack.append(iter(adjacency[node]))
        usable.sort(
            key=lambda p: (
                len(p),
                -min(self.state.free_capacity(n) for n in p[1:-1]),
            )
        )
        return usable

    def _hops_to(self, target: str) -> Dict[str, int]:
        """Fewest edges from each passable node to ``target``.

        Breadth-first from ``target`` through passable nodes only: not
        an endpoint, free capacity > 0. Nodes farther than a path of
        :data:`MAX_PATH_EDGES` edges could use are left out, as are
        impassable ones.
        """
        adjacency = self.state.graph.adj
        nodes = self.state.graph.nodes
        hops = {target: 0}
        frontier = [target]
        for depth in range(1, MAX_PATH_EDGES):
            reached = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if (
                        neighbor not in hops
                        and nodes[neighbor]["kind"] not in _ENDPOINTS
                        and self.state.free_capacity(neighbor) > 0
                    ):
                        hops[neighbor] = depth
                        reached.append(neighbor)
            frontier = reached
        return hops

    def _disjoint_paths(
        self, compute_host: str, memory_host: str, channels: int
    ) -> List[List[str]]:
        """Up to ``channels`` node-disjoint candidate paths, best first.

        Greedy over :meth:`candidate_paths`: a path is taken unless it
        shares a transceiver or switch port with one already taken
        (bonded channels must be physically disjoint).
        """
        chosen: List[List[str]] = []
        used: set = set()
        for path in self.candidate_paths(compute_host, memory_host):
            middle = set(path[1:-1])
            if middle & used:
                continue
            chosen.append(path)
            used |= middle
            if len(chosen) == channels:
                break
        return chosen

    # -- reservation -------------------------------------------------------------------
    def plan(
        self,
        compute_host: str,
        memory_host: str,
        channels: int = 1,
    ) -> PlannedPath:
        """Reserve ``channels`` disjoint paths (2 = bonding).

        Raises :class:`NoPathError` when fewer than ``channels`` disjoint
        usable paths exist.
        """
        if channels < 1:
            raise GraphError(f"channels must be >= 1: {channels}")
        if compute_host == memory_host:
            raise GraphError("compute and memory host must differ")
        chosen = self._disjoint_paths(compute_host, memory_host, channels)
        if len(chosen) < channels:
            raise NoPathError(
                f"only {len(chosen)} disjoint path(s) from "
                f"{compute_host} to {memory_host}, need {channels}"
            )
        reserved: List[str] = []
        channel_indices: List[int] = []
        for path in chosen:
            middle = path[1:-1]
            self.state.reserve(middle)
            reserved.extend(middle)
            first_xcvr = middle[0]
            channel_indices.append(
                self.state.node_attr(first_xcvr, "channel")
            )
        return PlannedPath(
            compute_host=compute_host,
            memory_host=memory_host,
            channel_indices=tuple(channel_indices),
            reserved_nodes=tuple(reserved),
            hop_count=max(len(path) - 2 for path in chosen),
            node_paths=tuple(tuple(path) for path in chosen),
        )

    def release(self, planned: PlannedPath) -> None:
        self.state.release(planned.reserved_nodes)

    # -- capacity headroom --------------------------------------------------------------
    def capacity_headroom(self) -> Tuple[int, int]:
        """Cluster-wide donor capacity as ``(free_bytes, total_bytes)``.

        The admission side of QoS: best-effort attaches are denied when
        granting them would leave less free donor capacity than the
        reserve fraction kept for guaranteed tenants (see
        :meth:`~repro.control.orchestrator.ControlPlane.attach`).
        """
        free = 0
        total = 0
        for host in self.state.hosts():
            free += self.state.donor_free(host)
            total += self.state.node_attr(
                self.state.mep(host), "donor_capacity"
            )
        return free, total

    # -- donor selection ----------------------------------------------------------------
    def pick_donor(
        self,
        compute_host: str,
        size: int,
        exclude: Tuple[str, ...] = (),
        channels: int = 1,
    ) -> str:
        """Choose the donor with the most free memory that is reachable
        over ``channels`` disjoint paths (2 = a bonded attach)."""
        best: Optional[Tuple[int, str]] = None
        for host in self.state.hosts():
            if host == compute_host or host in exclude:
                continue
            free = self.state.donor_free(host)
            if free < size:
                continue
            paths = self._disjoint_paths(compute_host, host, channels)
            if len(paths) < channels:
                continue
            if best is None or free > best[0]:
                best = (free, host)
        if best is None:
            raise NoPathError(
                f"no reachable donor with {size} bytes free for "
                f"{compute_host}"
            )
        return best[1]
