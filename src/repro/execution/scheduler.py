"""Trajectory-to-device scheduling.

PTSBE's inter-trajectory axis is embarrassingly parallel (paper §3:
"the calculation process trivially scales to arbitrarily many GPUs"), but
a good schedule still matters when trajectory costs are skewed — one
trajectory with 10**7 shots should not share a device with nothing else
while ten smaller ones queue elsewhere.  Two policies:

* :func:`round_robin` — the trivial baseline;
* :func:`greedy_by_cost` — longest-processing-time-first bin packing on an
  analytic per-item cost (prep cost + shots * per-shot cost), the classic
  4/3-approximation for makespan.

Both policies are generic over the *items* they bin: raw
:class:`~repro.pts.base.TrajectorySpec`s, or — what the sharded executor
schedules — deduplicated :class:`~repro.pts.base.SpecGroup`s (so that a
group is never split across devices and each unique state is still
prepared exactly once).  Any item type works as long as the cost
function accepts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.pts.base import TrajectorySpec

__all__ = ["Assignment", "Scheduler", "round_robin", "greedy_by_cost"]


@dataclass
class Assignment:
    """Result of scheduling: items per device plus predicted makespan."""

    per_device: List[List[Any]]
    predicted_loads: List[float]

    @property
    def num_devices(self) -> int:
        return len(self.per_device)

    @property
    def makespan(self) -> float:
        return max(self.predicted_loads) if self.predicted_loads else 0.0

    def imbalance(self) -> float:
        """max/mean predicted load — 1.0 is perfect balance."""
        loads = [l for l in self.predicted_loads]
        mean = sum(loads) / len(loads) if loads else 0.0
        return self.makespan / mean if mean > 0 else 1.0


def default_cost(spec: TrajectorySpec, prep_cost: float = 1.0, shot_cost: float = 1e-4) -> float:
    """Analytic item cost: one preparation plus per-shot sampling.

    Works for any item exposing ``num_shots`` (a spec) or ``total_shots``
    (a dedup group).
    """
    shots = getattr(spec, "num_shots", None)
    if shots is None:
        shots = spec.total_shots
    return prep_cost + shot_cost * shots


def round_robin(specs: Sequence[Any], num_devices: int,
                cost_fn: Optional[Callable[[Any], float]] = None) -> Assignment:
    """Deal items to devices in order."""
    if num_devices <= 0:
        raise ExecutionError("num_devices must be positive")
    cost_fn = cost_fn or default_cost
    per_device: List[List[Any]] = [[] for _ in range(num_devices)]
    loads = [0.0] * num_devices
    for i, spec in enumerate(specs):
        d = i % num_devices
        per_device[d].append(spec)
        loads[d] += cost_fn(spec)
    return Assignment(per_device, loads)


def greedy_by_cost(specs: Sequence[Any], num_devices: int,
                   cost_fn: Optional[Callable[[Any], float]] = None) -> Assignment:
    """Longest-processing-time-first: sort by cost, assign to least-loaded."""
    if num_devices <= 0:
        raise ExecutionError("num_devices must be positive")
    cost_fn = cost_fn or default_cost
    per_device: List[List[Any]] = [[] for _ in range(num_devices)]
    loads = [0.0] * num_devices
    for spec in sorted(specs, key=cost_fn, reverse=True):
        d = int(np.argmin(loads))  # replint: disable=XP001 -- host cost model, (devices,) floats
        per_device[d].append(spec)
        loads[d] += cost_fn(spec)
    return Assignment(per_device, loads)


class Scheduler:
    """Policy holder used by the sharded executor."""

    POLICIES = {"round_robin": round_robin, "greedy": greedy_by_cost}

    def __init__(self, policy: str = "greedy",
                 cost_fn: Optional[Callable[[Any], float]] = None):
        if policy not in self.POLICIES:
            raise ExecutionError(f"unknown scheduling policy {policy!r}")
        self.policy = policy
        self.cost_fn = cost_fn

    def assign(self, specs: Sequence[Any], num_devices: int) -> Assignment:
        return self.POLICIES[self.policy](specs, num_devices, self.cost_fn)
