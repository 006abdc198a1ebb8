"""Batched execution (BE): realizing PTS trajectory specs efficiently.

Every in-process strategy is one loop (:mod:`repro.execution.stack`):
deduplicate the specs, prepare each distinct noisy state exactly once,
draw its full shot batch in bulk, with retry, capacity halving and
ordered streaming shared.  What differs is the engine behind it: one
per-trajectory backend (``serial``, :mod:`repro.execution.batched`), a
``(B, 2**n)`` stack evolved in lockstep (``vectorized``,
:mod:`repro.execution.vectorized`), batched Pauli-frame propagation for
pure-Clifford circuits with Pauli-mixture noise (``clifford``,
:mod:`repro.execution.clifford`), or — past the dense width cap — one
compiled gate schedule replayed over a trajectory-stacked truncated MPS
(``tensornet``, :mod:`repro.execution.tensornet`).  The ``sharded``
strategy composes the paper's two parallel axes, binning dedup groups
across an emulated device pool (:mod:`repro.execution.scheduler`) with
stacked chunks per shard, optionally on worker processes
(:mod:`repro.execution.sharded`).  ``strategy="auto"`` picks clifford
or tensornet automatically via the per-circuit engine router
(:mod:`repro.execution.router`).  Results carry per-shot provenance
(:mod:`repro.execution.results`) and can be delivered incrementally —
every strategy exposes ``execute_stream`` yielding
:class:`~repro.execution.streaming.ShotChunk`\\ s as dedup groups /
stacks / shards complete (:mod:`repro.execution.streaming`,
:func:`~repro.execution.batched.run_ptsbe_stream`).  Every dense strategy
draws identical per-trajectory shots for a fixed seed, and every strategy
orders its results by spec position, so the dense shot tables match row
for row — and an unseeded run resolves one recorded root seed up front,
so it replays exactly too.  See
``docs/architecture.md`` for when to pick which.
"""

from repro.execution.results import ShotTable, TrajectoryResult, PTSBEResult
from repro.execution.streaming import ShotChunk, StreamedResult
from repro.execution.batched import (
    BackendSpec,
    BatchedExecutor,
    run_ptsbe,
    run_ptsbe_stream,
    VALID_STRATEGIES,
)
from repro.execution.plan import (
    FusedPlan,
    build_fused_plan,
    clear_plan_cache,
    get_fused_plan,
)
from repro.execution.scheduler import Scheduler, round_robin, greedy_by_cost
from repro.execution.vectorized import VectorizedExecutor
from repro.execution.sharded import ShardedExecutor
from repro.execution.clifford import CliffordFrameExecutor
from repro.execution.tensornet import TensorNetExecutor, compile_schedule
from repro.execution.router import (
    CircuitProfile,
    analyze_circuit,
    clear_router_cache,
    resolve_strategy,
)

__all__ = [
    "ShotTable",
    "TrajectoryResult",
    "PTSBEResult",
    "ShotChunk",
    "StreamedResult",
    "BackendSpec",
    "BatchedExecutor",
    "run_ptsbe",
    "run_ptsbe_stream",
    "VALID_STRATEGIES",
    "FusedPlan",
    "build_fused_plan",
    "clear_plan_cache",
    "get_fused_plan",
    "Scheduler",
    "round_robin",
    "greedy_by_cost",
    "VectorizedExecutor",
    "ShardedExecutor",
    "CliffordFrameExecutor",
    "TensorNetExecutor",
    "compile_schedule",
    "CircuitProfile",
    "analyze_circuit",
    "clear_router_cache",
    "resolve_strategy",
]
