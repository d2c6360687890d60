"""Fixed vs. disaggregated datacentre models — paper §II / Fig. 1.

* :class:`FixedDatacentre` — "12555 servers, matching the configuration
  of the Google trace": each server bundles 1.0 CPU + 1.0 memory; a
  task must fit both resources on one server.
* :class:`DisaggregatedDatacentre` — "12555 compute and 12555 memory
  modules, with the total available memory spread evenly among the
  latter. … each module connects to the data-centre interconnect via 16
  links … a fully connected topology enables any permutation of
  point-to-point connections". A task takes CPU from one compute module
  and memory from one or more memory modules, consuming one link per
  compute↔memory pairing.

Both use an online best-fit allocator without overcommitment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .trace import TaskRequest

__all__ = [
    "Placement",
    "FixedDatacentre",
    "DisaggregatedDatacentre",
    "AllocationFailure",
]


class AllocationFailure(RuntimeError):
    """The model could not place a task (capacity or connectivity)."""


@dataclass
class Placement:
    """Where a task landed; the handle used to free it later."""

    task: TaskRequest
    compute_unit: int
    memory_shares: List[Tuple[int, float]]  # (unit index, amount)


class FixedDatacentre:
    """Conventional servers: CPU and memory welded together."""

    def __init__(self, servers: int = 12_555):
        if servers < 1:
            raise ValueError(f"servers must be >= 1: {servers}")
        self.servers = servers
        self.cpu_free = np.ones(servers)
        self.mem_free = np.ones(servers)
        self.tasks_on = np.zeros(servers, dtype=np.int64)

    # -- best-fit placement -----------------------------------------------------------
    def allocate(self, task: TaskRequest) -> Placement:
        """Best fit: the feasible server with least total slack left."""
        feasible = (self.cpu_free >= task.cpu) & (self.mem_free >= task.memory)
        if not feasible.any():
            raise AllocationFailure(
                f"task {task.task_id}: no server fits "
                f"(cpu={task.cpu:.3f}, mem={task.memory:.3f})"
            )
        slack = np.where(
            feasible,
            (self.cpu_free - task.cpu) + (self.mem_free - task.memory),
            np.inf,
        )
        best_index = int(np.argmin(slack))
        self.cpu_free[best_index] -= task.cpu
        self.mem_free[best_index] -= task.memory
        self.tasks_on[best_index] += 1
        return Placement(task, best_index, [(best_index, task.memory)])

    def release(self, placement: Placement) -> None:
        index = placement.compute_unit
        self.cpu_free[index] += placement.task.cpu
        self.mem_free[index] += placement.task.memory
        self.tasks_on[index] -= 1

    # -- metrics inputs -----------------------------------------------------------------
    def servers_off(self) -> int:
        """Completely unused servers (could be switched off)."""
        return int((self.tasks_on == 0).sum())

    def stranded_cpu(self) -> float:
        """CPU capacity locked inside powered-on servers but unused."""
        on = self.tasks_on > 0
        return float(self.cpu_free[on].sum())

    def stranded_memory(self) -> float:
        on = self.tasks_on > 0
        return float(self.mem_free[on].sum())

    @property
    def total_memory(self) -> float:
        return float(self.servers)


class DisaggregatedDatacentre:
    """Compute and memory modules composed over a full-mesh fabric."""

    def __init__(
        self,
        compute_modules: int = 12_555,
        memory_modules: int = 12_555,
        links_per_module: int = 16,
    ):
        self.compute_modules = compute_modules
        self.memory_modules = memory_modules
        self.links_per_module = links_per_module
        self.cpu_free = np.ones(compute_modules)
        self.mem_free = np.ones(memory_modules)
        self.compute_tasks = np.zeros(compute_modules, dtype=np.int64)
        self.memory_users = np.zeros(memory_modules, dtype=np.int64)
        self.compute_links_free = np.full(compute_modules, links_per_module,
                                          dtype=np.int64)
        self.memory_links_free = np.full(memory_modules, links_per_module,
                                         dtype=np.int64)

    # -- placement ---------------------------------------------------------------------
    def allocate(self, task: TaskRequest) -> Placement:
        compute = self._best_fit_compute(task)
        shares = self._place_memory(task, compute)
        self.cpu_free[compute] -= task.cpu
        self.compute_tasks[compute] += 1
        for unit, amount in shares:
            self.mem_free[unit] -= amount
            self.memory_users[unit] += 1
            self.memory_links_free[unit] -= 1
            self.compute_links_free[compute] -= 1
        return Placement(task, compute, shares)

    def release(self, placement: Placement) -> None:
        compute = placement.compute_unit
        self.cpu_free[compute] += placement.task.cpu
        self.compute_tasks[compute] -= 1
        for unit, amount in placement.memory_shares:
            self.mem_free[unit] += amount
            self.memory_users[unit] -= 1
            self.memory_links_free[unit] += 1
            self.compute_links_free[compute] += 1

    def _best_fit_compute(self, task: TaskRequest) -> int:
        feasible = (self.cpu_free >= task.cpu) & (self.compute_links_free >= 1)
        if not feasible.any():
            raise AllocationFailure(
                f"task {task.task_id}: no compute module fits "
                f"cpu={task.cpu:.3f}"
            )
        slack = np.where(feasible, self.cpu_free - task.cpu, np.inf)
        return int(np.argmin(slack))

    def _place_memory(
        self, task: TaskRequest, compute: int
    ) -> List[Tuple[int, float]]:
        """Best-fit on one module; split across modules when needed."""
        # Single-module best fit first (uses one link).
        feasible = (self.mem_free >= task.memory) & (self.memory_links_free >= 1)
        if feasible.any():
            slack = np.where(feasible, self.mem_free - task.memory, np.inf)
            return [(int(np.argmin(slack)), task.memory)]
        # Split: largest-remaining-first until satisfied, bounded by the
        # compute module's free links.
        remaining = task.memory
        shares: List[Tuple[int, float]] = []
        usable = (self.memory_links_free >= 1) & (self.mem_free > 0)
        order = np.argsort(-self.mem_free)
        links_budget = int(self.compute_links_free[compute])
        for index in order:
            if remaining <= 1e-12 or len(shares) >= links_budget:
                break
            if not usable[index]:
                continue
            amount = float(min(self.mem_free[index], remaining))
            shares.append((int(index), amount))
            remaining -= amount
        if remaining > 1e-12:
            raise AllocationFailure(
                f"task {task.task_id}: cannot assemble "
                f"{task.memory:.3f} memory across modules"
            )
        return shares

    # -- metrics inputs -----------------------------------------------------------------
    def stranded_cpu(self) -> float:
        on = self.compute_tasks > 0
        return float(self.cpu_free[on].sum())

    def stranded_memory(self) -> float:
        on = self.memory_users > 0
        return float(self.mem_free[on].sum())

    def compute_off(self) -> int:
        return int((self.compute_tasks == 0).sum())

    def memory_off(self) -> int:
        return int((self.memory_users == 0).sum())

    @property
    def total_memory(self) -> float:
        return float(self.memory_modules)
