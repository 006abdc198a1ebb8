"""Vectorized trajectory-stacked execution.

The dense stacked engine of the shared loop in
:mod:`repro.execution.stack` (the serial
:class:`~repro.execution.batched.BatchedExecutor` is the same loop over
one per-trajectory backend):

1. **Deduplicate** — specs are grouped by
   :meth:`~repro.pts.base.TrajectorySpec.dedup_key` so identical Kraus
   prescriptions are prepared exactly once (their shot budgets are served
   from the same stacked row);
2. **Compile** — the circuit's :class:`~repro.execution.plan.FusedPlan`
   is resolved once up front (fused gate/noise windows under
   ``Config.fusion="auto"``, one step per op under ``"off"``) and shared
   by every chunk, so B trajectories with the same Kraus prescription pay
   window compilation once;
3. **Stack** — each chunk of unique trajectories becomes one
   ``(B, 2**n)`` stack on a
   :class:`~repro.backends.batched_statevector.BatchedStatevectorBackend`,
   prepared with one plan walk (shared windows hit all rows in a single
   broadcast kernel, divergent Kraus variants hit row sub-slices);
4. **Bulk-sample** — every spec draws its full shot budget from the
   stack-wide cached cumulative tensor with the stream derived from
   ``(seed, trajectory_id)``.

Because the per-row arithmetic deliberately mirrors the serial backend
operation-for-operation, and sampling uses the exact same per-trajectory
Philox streams, a vectorized run is *shot-for-shot identical* to a serial
``BatchedExecutor`` run with the same seed — verified in
``tests/test_vectorized.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro.circuits.circuit import Circuit
from repro.errors import ExecutionError
from repro.execution.batched import BackendSpec
from repro.execution.plan import get_fused_plan
from repro.execution.stack import Engine, StackExecutor

__all__ = ["VectorizedExecutor"]


class _StackedEngine(Engine):
    """One ``(B, 2**n)`` stack per unit, rows sampled from its cached CDF."""

    def __init__(self, backend, circuit: Circuit, measured, rows: int):
        self.backend = backend
        self.config = getattr(backend, "config", None)
        self.circuit = circuit
        self.measured = measured
        self.rows = rows

    def prepare(self, choices_list):
        return self.backend.run_fixed_stack(self.circuit, choices_list)

    def sample(self, row, num_shots, rng):
        return self.backend.sample(row, num_shots, self.measured, rng)

    def release(self) -> None:
        release = getattr(self.backend, "release", None)
        if release is not None:
            release()


class VectorizedExecutor(StackExecutor):
    """Execute trajectory specs as stacked tensors on one process.

    Parameters
    ----------
    backend:
        A :class:`BackendSpec` of kind ``"batched_statevector"`` or
        ``"statevector"`` (the latter is upgraded to the stacked backend
        with the same options), or a callable ``num_qubits -> backend``
        returning a :class:`BatchedStatevectorBackend`-compatible object.
    max_batch:
        Upper bound on stacked rows per preparation chunk; the effective
        bound also respects the backend's dense amplitude budget.
    sample_kwargs:
        Accepted for signature symmetry with the other executors, but the
        stacked dense backend takes no sampling options — a non-empty
        value is rejected up front rather than crashing mid-run.
    """

    strategy = "vectorized"

    def __init__(
        self,
        backend: Union[BackendSpec, Callable[[int], BatchedStatevectorBackend], None] = None,
        max_batch: int = 64,
        sample_kwargs: Optional[Dict] = None,
    ):
        if backend is None:
            backend = BackendSpec.batched_statevector()
        if isinstance(backend, BackendSpec) and backend.kind not in (
            "statevector",
            "batched_statevector",
        ):
            raise ExecutionError(
                f"VectorizedExecutor supports dense statevector stacks only, "
                f"not backend kind {backend.kind!r}"
            )
        if max_batch <= 0:
            raise ExecutionError(f"max_batch must be positive, got {max_batch}")
        if sample_kwargs:
            raise ExecutionError(
                "VectorizedExecutor's stacked statevector backend takes no "
                f"sample options, got sample_kwargs={dict(sample_kwargs)!r}"
            )
        self.backend = backend
        self.max_batch = int(max_batch)

    def open(self, circuit: Circuit, measured) -> Engine:
        if isinstance(self.backend, BackendSpec):
            backend = BatchedStatevectorBackend(
                circuit.num_qubits, **dict(self.backend.options)
            )
        else:
            backend = self.backend(circuit.num_qubits)
            if not hasattr(backend, "run_fixed_stack"):
                raise ExecutionError(
                    f"backend factory returned {type(backend).__name__}, which "
                    "lacks run_fixed_stack; VectorizedExecutor needs a stacked "
                    "backend"
                )
        engine = _StackedEngine(
            backend, circuit, measured, min(self.max_batch, backend.max_batch_rows)
        )
        # Resolve (and memoize) the fused plan once at open: every unit's
        # run_fixed_stack call then hits the plan cache.
        if engine.config is not None:
            get_fused_plan(circuit, engine.config)
        return engine
