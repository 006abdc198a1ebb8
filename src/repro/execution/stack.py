"""The one stacked-execution loop every in-process strategy runs.

Batched execution is one loop (paper §3): prepare each pre-sampled
trajectory once, then draw all of its shots in bulk.  This module owns
that loop; what differs between the in-process strategies is only the
*representation* a prepared trajectory lives in, which an :class:`Engine`
supplies (Cirq's split between one simulator loop and per-representation
state):

==============  ===========================================  ==============
strategy        engine state                                 rows per unit
==============  ===========================================  ==============
``serial``      one per-trajectory backend (``run_fixed``)   1
``vectorized``  one ``(B, 2**n)`` stacked statevector        ``max_batch``
``clifford``    compiled Pauli frames, one per dedup group   1
``tensornet``   one ``(B, D, 2, D)`` trajectory-stacked MPS  ``max_batch``
==============  ===========================================  ==============

:meth:`StackExecutor.execute_stream` validates the request, opens the
engine eagerly (so every configuration error raises at call time), and
hands the engine to :func:`stream_stack`, which

1. deduplicates the specs (:func:`~repro.pts.base.deduplicate_specs`) so
   each distinct Kraus prescription is prepared exactly once;
2. cuts the groups into work units of ``engine.rows`` groups, named
   ``{strategy}/stack:{a}:{b}`` — the fault-injection sites;
3. runs each unit under :func:`~repro.faults.retry.run_unit_with_retry`:
   ``engine.prepare`` once, then ``engine.sample`` per live spec from the
   spec's own ``(seed, trajectory_id)`` Philox stream, so a retried unit
   re-emits bitwise-identical shots;
4. halves a unit in place when it raises
   :class:`~repro.errors.CapacityError` (a ``batch-halved`` recovery
   event), escalating to :class:`~repro.errors.FaultError` at one row;
5. releases completed trajectories in spec order through an
   :class:`~repro.execution.streaming.OrderedDelivery` buffer, and calls
   ``engine.release()`` on exhaustion, failure, or ``close()``.

Timing: the engine's open (plan / frame / schedule compile) is charged to
the first unit's preparation; a unit's preparation is split evenly over
its unique rows and charged to each group's first spec (duplicates ride
free); sampling is timed per spec.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.config import DEFAULT_CONFIG
from repro.errors import CapacityError, ExecutionError, FaultError
from repro.execution.results import PTSBEResult, TrajectoryResult
from repro.execution.streaming import OrderedDelivery, StreamedResult
from repro.faults.retry import (
    FaultContext,
    RecoveryEvent,
    describe_exception,
    run_unit_with_retry,
)
from repro.pts.base import TrajectorySpec, deduplicate_specs
from repro.rng import StreamFactory

__all__ = ["Engine", "StackExecutor", "stream_stack"]


class Engine:
    """One opened representation the stacked loop prepares and samples.

    ``rows`` is the number of dedup groups per work unit; ``config`` the
    :class:`~repro.config.Config` whose fault plan and retry policy the
    run obeys (``None`` falls back to the library default).
    """

    rows: int = 1
    config: Any = None

    def prepare(self, choices_list: Sequence[dict]) -> Tuple[Sequence[float], Sequence[bool]]:
        """Prepare one unit: row ``i`` realizes ``choices_list[i]``.

        Returns per-row ``(weights, alive)``; a dead row (the prescribed
        Kraus combination annihilates the state) gets zero weight and no
        shots.  Must be a pure function of ``choices_list`` so a retried
        unit reproduces it exactly.
        """
        raise NotImplementedError

    def sample(self, row: int, num_shots: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``num_shots`` measured bit rows from prepared ``row``."""
        raise NotImplementedError

    def release(self) -> None:
        """Free the unit's buffers (idempotent)."""


class StackExecutor:
    """Base of the in-process strategies: validate, open, stream the loop.

    Subclasses declare their registered ``strategy`` name and implement
    :meth:`open`; everything else — dedup, retry, halving, ordered
    delivery, timing — is :func:`stream_stack`.
    """

    strategy: str = ""

    def open(self, circuit: Circuit, measured: Tuple[int, ...]) -> Engine:
        """Build the engine for ``circuit``; its errors raise at call time."""
        raise NotImplementedError

    def execute(
        self,
        circuit: Circuit,
        specs: Sequence[TrajectorySpec],
        seed: Optional[int] = None,
    ) -> PTSBEResult:
        """Run every spec: one preparation per dedup group, bulk sampling."""
        return self.execute_stream(circuit, specs, seed=seed).finalize()

    def execute_stream(
        self,
        circuit: Circuit,
        specs: Sequence[TrajectorySpec],
        seed: Optional[int] = None,
        retain: bool = True,
    ) -> StreamedResult:
        """Stream each work unit's trajectories as it completes, in spec order.

        Concatenated chunks match :meth:`execute` bitwise.  ``retain=False``
        drops chunks after delivery (``finalize`` unavailable) to bound
        memory for pure-ingest consumers; abandoning the stream releases
        the engine's buffers.
        """
        circuit.freeze()
        measured = tuple(circuit.measured_qubits)
        if not measured:
            raise ExecutionError("circuit has no measurements to sample")
        if not specs:
            raise ExecutionError("no trajectory specs to execute")
        t0 = time.perf_counter()
        engine = self.open(circuit, measured)
        open_seconds = time.perf_counter() - t0
        return stream_stack(
            engine,
            specs,
            StreamFactory(seed),
            measured,
            strategy=self.strategy,
            retain=retain,
            open_seconds=open_seconds,
        )


def stream_stack(
    engine: Engine,
    specs: Sequence[TrajectorySpec],
    streams: StreamFactory,
    measured: Tuple[int, ...],
    *,
    strategy: str,
    retain: bool = True,
    open_seconds: float = 0.0,
) -> StreamedResult:
    """Drive ``engine`` over ``specs``; see the module docstring."""
    groups = deduplicate_specs(specs)
    ctx = FaultContext.from_config(
        engine.config or DEFAULT_CONFIG, streams.seed, strategy=strategy
    )
    events: List[RecoveryEvent] = []
    no_shots = np.empty((0, len(measured)), dtype=np.uint8)

    def run_unit(start: int, end: int, carry_prep: float):
        unit = groups[start:end]
        t0 = time.perf_counter()
        weights, alive = engine.prepare([specs[g.indices[0]].choices for g in unit])
        prep_each = (carry_prep + time.perf_counter() - t0) / len(unit)
        completed = []
        for row, group in enumerate(unit):
            for j, spec_index in enumerate(group.indices):
                spec = specs[spec_index]
                bits, weight, sample_seconds = no_shots, 0.0, 0.0
                if alive[row]:
                    weight = float(weights[row])
                    if spec.num_shots:
                        rng = streams.rng_for(spec.record.trajectory_id)
                        t1 = time.perf_counter()
                        bits = engine.sample(row, spec.num_shots, rng)
                        sample_seconds = time.perf_counter() - t1
                completed.append(
                    (
                        spec_index,
                        TrajectoryResult(
                            record=spec.record,
                            bits=bits,
                            actual_weight=weight,
                            prep_seconds=prep_each if j == 0 else 0.0,
                            sample_seconds=sample_seconds,
                        ),
                    )
                )
        return completed

    def deliver():
        delivery = OrderedDelivery(len(specs))
        pending = deque(
            (start, min(start + engine.rows, len(groups)))
            for start in range(0, len(groups), engine.rows)
        )
        carry_prep = open_seconds
        try:
            while pending:
                start, end = pending.popleft()
                unit = f"{strategy}/stack:{start}:{end}"
                try:
                    completed = run_unit_with_retry(
                        lambda attempt: run_unit(start, end, carry_prep),
                        unit=unit,
                        ctx=ctx,
                        recovery=events,
                    )
                except CapacityError as exc:
                    if end - start == 1:
                        raise FaultError(
                            f"stacked preparation of {unit!r} failed at the "
                            f"single-row floor: {describe_exception(exc)}",
                            unit=unit,
                            attempts=1,
                        ) from exc
                    mid = (start + end) // 2
                    events.append(
                        RecoveryEvent(
                            kind="batch-halved",
                            strategy=strategy,
                            unit=unit,
                            attempt=0,
                            error=describe_exception(exc),
                            detail=f"split into stack:{start}:{mid} and stack:{mid}:{end}",
                        )
                    )
                    pending.extendleft([(mid, end), (start, mid)])
                    continue
                carry_prep = 0.0
                ready = delivery.add(completed)
                if ready:
                    yield ready
        finally:
            engine.release()

    return StreamedResult(
        deliver(),
        measured_qubits=measured,
        seed=streams.seed,
        total_trajectories=len(specs),
        unique_preparations=len(groups),
        # The engine is opened eagerly; a close() before the first chunk
        # never enters the generator, so its finally cannot release.
        on_close=engine.release,
        engine=strategy,
        retain=retain,
        recovery=events,
    )
