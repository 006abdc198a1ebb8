"""Batched Pauli-frame execution: the Clifford fast path as a strategy.

The Pauli-frame strategy (``run_ptsbe(strategy="clifford")``): for
circuits that are pure Clifford with Pauli-mixture noise, trajectory
realization does not need a dense state at all.  The
:class:`~repro.backends.pauli_frame.FrameSampler` compiles the circuit
once — one tableau analysis of the ideal circuit plus one conjugation
walk that propagates every noise branch's Pauli pattern to the end — and
then each PTS :class:`~repro.pts.base.TrajectorySpec` costs:

* **O(sites)** to assemble its terminal frame: with the spec's Kraus
  choices *fixed*, the frame is deterministic — the XOR of the chosen
  branches' end-propagated X patterns (this is where PTS and Stim-style
  frame sampling compose: pre-sampling removes the per-shot branch draw
  the conventional frame sampler does);
* **two vectorized XORs** for its whole shot budget: reference outcome
  ⊕ random affine-generator combination ⊕ frame flips.

That is millions of shots per second at *any* width — the dense
strategies stop at ``Config.max_dense_qubits`` (26), this one happily
runs 40-qubit syndrome-extraction workloads.  The strategy is an engine
of the shared loop in :mod:`repro.execution.stack`: specs are
deduplicated so each distinct Kraus prescription pays its frame assembly
once (one dedup group per work unit, ``clifford/stack:{a}:{b}``), with
the same retry, ordered delivery, ``retain=False`` and mid-stream
``close()`` behaviour as every other strategy.

Faithfulness contract: per-trajectory *conditional distributions* and
weights are exactly those of the dense strategies (Pauli conjugation is
exact, and Pauli mixtures make weights state-independent products of
branch probabilities), but the per-shot random draws use a different
stochastic mechanism than dense amplitude sampling — so cross-strategy
conformance is distributional (TVD / chi-square, the sweep oracle's
statistical tier), not bitwise.  Seeded replay of *this* strategy is
still bitwise: shots derive from the same per-trajectory Philox streams
``(seed, trajectory_id)`` as everywhere else.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from repro.backends.pauli_frame import FrameSampler
from repro.circuits.circuit import Circuit
from repro.errors import BackendError, ExecutionError
from repro.execution.batched import BackendSpec
from repro.execution.stack import Engine, StackExecutor

__all__ = ["CliffordFrameExecutor"]


class _FrameEngine(Engine):
    """A compiled frame sampler; one dedup group's frame per unit."""

    def __init__(self, sampler: FrameSampler, config):
        self.sampler = sampler
        self.config = config
        self.flips = None

    def prepare(self, choices_list):
        self.flips, weight = self.sampler.frame_for_choices(choices_list[0])
        return [weight], [True]

    def sample(self, row, num_shots, rng):
        return self.sampler.sample_fixed(self.flips, num_shots, rng)


class CliffordFrameExecutor(StackExecutor):
    """Execute trajectory specs by batched Pauli-frame propagation.

    Parameters
    ----------
    backend:
        Accepted for dispatch-signature symmetry.  Frame sampling needs
        no dense backend, so only the default dense kinds (which carry no
        state the frame path would miss) are tolerated — their ``config``
        option still supplies the fault plan and retry policy; an
        ``"mps"`` spec or a backend factory is a real request for a
        specific simulator and is rejected rather than silently ignored.
    sample_kwargs:
        Accepted for signature symmetry; the frame sampler takes no
        sampling options, so a non-empty value is rejected up front.
    """

    strategy = "clifford"

    def __init__(
        self,
        backend: Union[BackendSpec, Callable, None] = None,
        sample_kwargs: Optional[Dict] = None,
    ):
        if backend is not None and not isinstance(backend, BackendSpec):
            raise ExecutionError(
                "CliffordFrameExecutor simulates with Pauli frames, not a "
                "backend factory; drop the factory or pick a dense strategy"
            )
        if isinstance(backend, BackendSpec) and backend.kind not in (
            "statevector",
            "batched_statevector",
        ):
            raise ExecutionError(
                f"CliffordFrameExecutor cannot honor backend kind "
                f"{backend.kind!r}; it replaces dense simulation entirely"
            )
        if sample_kwargs:
            raise ExecutionError(
                "CliffordFrameExecutor's frame sampler takes no sample "
                f"options, got sample_kwargs={dict(sample_kwargs)!r}"
            )
        self.config = (
            dict(backend.options).get("config") if isinstance(backend, BackendSpec) else None
        )

    def open(self, circuit: Circuit, measured) -> Engine:
        try:
            sampler = FrameSampler(circuit)
        except BackendError as exc:
            raise ExecutionError(
                f"strategy 'clifford' requires a pure-Clifford circuit with "
                f"Pauli-mixture noise: {exc}"
            ) from exc
        return _FrameEngine(sampler, self.config)
