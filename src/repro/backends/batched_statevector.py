"""Trajectory-stacked dense statevector backend (the vectorized BE engine).

Where :class:`~repro.backends.statevector.StatevectorBackend` evolves one
``2**n`` statevector at a time, this backend prepares a ``(B, 2**n)``
*stack* of trajectory states in one call and samples them with
stack-wide primitives:

* **Each shared Kraus prefix is evolved once.**  PTS trajectories take
  the dominant branch at almost every noise window, so rows that
  prescribe the same Kraus indices up to a window hold the same state
  there.  :meth:`BatchedStatevectorBackend.run_fixed_stack` therefore
  walks the circuit's compiled :class:`~repro.execution.plan.FusedPlan`
  as a *prefix tree* over the rows' variant keys (the tuple of
  prescribed Kraus indices at a noise window's sites; absent sites use
  the channel's dominant operator, exactly like
  :meth:`PureStateBackend.run_fixed`).  The walk starts from a single
  |0> row.  A coherent window updates every frontier row in one fused
  kernel call (:func:`~repro.linalg.apply.apply_compiled_stack` over a
  reshape view of the frontier).  At a noise window a frontier row splits
  only where its trajectories' keys diverge, and each variant is applied
  once per distinct prefix.  The leaves are copied into the output stack
  in ``choices_list`` order; rows with equal key sequences share one
  leaf.  ``row_steps`` counts the window applications actually executed.
* **The frontier is sized to the cache.**  A block of frontier rows
  holds at most ``_FRONTIER_BYTES`` (1 MiB), so the block plus one kernel
  output stay in a core's 2 MiB L2.  A split that would outgrow the
  budget is cut into consecutive blocks, walked depth-first from an
  explicit work stack.  Measured per 64-row stack of ``brickwork(n, 6)``
  PTS draws (``brickwork(8, 4)`` at 8 qubits) on a 2-vCPU Xeon VM with
  one BLAS thread, median of 5 rounds:

  =======  =====================  ======================  ==============
  qubits   whole-stack grouping   unbounded prefix walk   1 MiB budget
  =======  =====================  ======================  ==============
  8        6.4 ms                 6.1 ms                  5.8 ms
  10       20.7 ms                15.7 ms                 16.3 ms
  12       88.4 ms                68.0 ms                 61.5 ms
  14       567 ms                 406 ms                  281 ms
  =======  =====================  ======================  ==============

  The first column is the previous design: every row evolved from |0>
  through every window, the majority variant applied to the whole stack.
  At 14 qubits the walk executes 63% of the whole-stack row-steps
  (4,247 of 6,732 over six stacks), and the budget keeps them in cache.
  Budgets from 256 KiB to 2 MiB were within 10% of each other at every
  width.
* **Batched renormalization** after each noise window runs the *shared*
  :func:`~repro.linalg.reductions.row_norms_squared` reduction once over
  the block — the same row-independent reduction the serial backend's
  ``norm_squared`` applies to its state as a 1-row stack — with a single
  host sync for the block's norm vector, and multiplies each node's
  weight by its squared norm.

Every kernel and the reduction are row-independent, and each row meets
the same float sequence on its path through the tree (weight products
included) as its serial preparation.  A stacked trajectory is therefore
*bitwise identical* to the same trajectory run on
:class:`StatevectorBackend`, however the tree is cut into blocks.  The
seed-fixed tests in ``tests/test_vectorized.py`` and
``tests/test_fusion.py`` and the property test in
``tests/test_prefix_walk.py`` assert it.

Rows whose prescribed Kraus branch annihilates the actual state (possible
for general, non-unitary-mixture channels whose nominal probabilities are
only priors) are marked *dead*: their prefix drops out of the walk, the
row stays zeroed with weight zero, and no shots are drawn — matching the
serial engine's :class:`~repro.errors.ZeroProbabilityTrajectory`
handling.

Sampling stays the cheap polynomial part of the PTSBE story: one
stack-wide cumulative tensor (``|stack|**2`` normalized and cumsummed
along the state axis, built on the array module in a single pass) serves
every row, and each row draws its full shot budget at once through the
shared kernel of :mod:`repro.linalg.sampling` — the same inverse-CDF
search and bit-table gather the serial backend runs, so a row's shots
are bitwise the serial trajectory's.  Past one shot per basis state the
search walks a guide table built from the row's cumulative vector
(expected ``O(2**n + m)`` for ``m`` shots), rebuilt per draw.  Below
that, past ``2**20`` basis states, and on a device module, it is
``searchsorted``; on a device module only the final shot indices cross
back to host.  A row whose norm is NaN or infinite raises
:class:`~repro.errors.BackendError` when the cumulative tensor is built.

The stack lives on the array module resolved from ``Config.array_module``
(:mod:`repro.linalg.backend`): NumPy on host, CuPy on GPU when available.
Per-row probability vectors are transferred to host at the sampling
boundary, and shots are always drawn with host NumPy streams — the
``(seed, trajectory_id)`` determinism contract does not depend on where
the stack was prepared.
"""

from __future__ import annotations

import time
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import validate_deferred_measurement
from repro.linalg.apply import apply_compiled_stack, apply_matrix_stack
from repro.linalg.backend import get_array_backend
from repro.linalg.reductions import row_norms_squared, scale_rows_inverse_sqrt
from repro.linalg.sampling import bits_from_indices, check_norm, inverse_cdf
from repro.circuits.circuit import Circuit
from repro.config import Config, DEFAULT_CONFIG
from repro.errors import BackendError, CapacityError, ExecutionError

__all__ = ["BatchedStatevectorBackend"]

#: Squared-norm threshold below which a trajectory row is considered
#: annihilated (same threshold as PureStateBackend.apply_channel_choice).
_DEAD_NORM = 1e-300

#: Working-set budget of one prefix-walk block, in bytes.  A block holds
#: at most this many bytes of frontier rows, so the block and one kernel
#: output of the same size fit one core's 2 MiB L2 (4 rows at 14 qubits,
#: 16 at 12, the whole 64-row stack at 10 and below under complex128).
_FRONTIER_BYTES = 1 << 20


def _split_by_key(step, members, choices_list):
    """Children of a block at a noise window, as ``(key, parent, rows)``.

    Each node splits only where its member rows' variant keys differ; the
    children are grouped by key (first-seen order) so every variant
    covers one contiguous run of the child block.
    """
    by_key: Dict[Tuple[int, ...], list] = {}
    for parent, rows in enumerate(members):
        split: Dict[Tuple[int, ...], List[int]] = {}
        for row in rows:
            split.setdefault(step.key_for(choices_list[row]), []).append(row)
        for key, sub in split.items():
            by_key.setdefault(key, []).append((key, parent, sub))
    return [child for group in by_key.values() for child in group]


class BatchedStatevectorBackend:
    """Dense simulator evolving a ``(batch, 2**n)`` stack of pure states.

    This is *not* a :class:`~repro.backends.base.PureStateBackend`: it
    deliberately trades the one-state interface for stack-wide primitives.
    Use it through :class:`~repro.execution.vectorized.VectorizedExecutor`
    (or ``run_ptsbe(..., strategy="vectorized")``) rather than through
    :class:`~repro.execution.batched.BatchedExecutor`.

    Parameters
    ----------
    num_qubits:
        Width of every state in the stack.
    batch_size:
        Initial number of stacked trajectories; :meth:`reset` and
        :meth:`run_fixed_stack` may resize the stack.
    config:
        Optional :class:`~repro.config.Config`; the stack must fit the
        dense amplitude budget ``2**max_dense_qubits`` *in total*, i.e.
        ``batch_size * 2**num_qubits`` amplitudes.
    """

    def __init__(
        self,
        num_qubits: int,
        batch_size: int = 1,
        config: Optional[Config] = None,
    ):
        config = config or DEFAULT_CONFIG
        if num_qubits <= 0:
            raise BackendError(f"num_qubits must be positive, got {num_qubits}")
        if num_qubits > config.max_dense_qubits:
            raise CapacityError(
                f"{num_qubits} qubits exceeds the dense cap of {config.max_dense_qubits} "
                f"(a 2**{num_qubits} statevector per stacked trajectory)"
            )
        self.num_qubits = int(num_qubits)
        self._config = config
        self._ab = get_array_backend(config.array_module)
        self._xp = self._ab.xp
        self._dim = 2**self.num_qubits
        self._stack = self._xp.empty((0, self._dim), dtype=config.dtype)
        self._alive: np.ndarray = np.empty(0, dtype=bool)
        self._probs_cache: Dict[int, np.ndarray] = {}
        self._cum_stack = None  # (B, dim) cumulative tensor on the array module
        self._cum_totals: Optional[np.ndarray] = None  # host per-row norms
        self.preparations = 0  # total stacked trajectories prepared (dedup audit)
        #: Window applications actually executed, summed over rows: one
        #: per distinct Kraus prefix per plan step (the prefix-sharing
        #: audit; a stack without sharing would count rows x steps).
        self.row_steps = 0
        #: Cumulative wall time spent renormalizing the stack after noise
        #: windows (reduction + scale + bookkeeping) — the benchmark
        #: counter behind the strategy table's renorm column.
        self.renorm_seconds = 0.0
        self.reset(batch_size)

    # ------------------------------------------------------------------ #
    # stack management
    # ------------------------------------------------------------------ #
    @property
    def batch_size(self) -> int:
        return int(self._stack.shape[0])

    @property
    def max_batch_rows(self) -> int:
        """Largest stack that fits the dense amplitude budget."""
        return max(1, 2 ** max(0, self._config.max_dense_qubits - self.num_qubits))

    @property
    def alive(self) -> np.ndarray:
        """Boolean mask of rows that still hold a valid (non-dead) state."""
        return self._alive

    @property
    def config(self) -> Config:
        """The configuration this backend was built with."""
        return self._config

    @property
    def array_backend(self):
        """The resolved :class:`~repro.linalg.backend.ArrayBackend`."""
        return self._ab

    def reset(self, batch_size: Optional[int] = None) -> None:
        """Reset every row to |0...0>, optionally resizing the stack."""
        self._allocate(self.batch_size if batch_size is None else int(batch_size))
        self._stack[:, 0] = 1.0
        self._alive = np.ones(self.batch_size, dtype=bool)

    def _allocate(self, b: int) -> None:
        """Replace the stack with ``b`` zeroed rows (capacity-checked)."""
        if b <= 0:
            raise BackendError(f"batch_size must be positive, got {b}")
        if b > self.max_batch_rows:
            raise CapacityError(
                f"stack of {b} x 2**{self.num_qubits} amplitudes exceeds the dense "
                f"budget of 2**{self._config.max_dense_qubits} (max {self.max_batch_rows} rows)"
            )
        try:
            self._stack = self._xp.zeros((b, self._dim), dtype=self._config.dtype)
        except MemoryError as exc:
            # Within the configured budget but past what the host actually
            # has: surface the same actionable error type as the cap check
            # instead of a raw allocation failure.
            raise CapacityError(
                f"allocating a {b} x 2**{self.num_qubits} dense stack ran out "
                f"of memory; lower the batch size or use strategy "
                f"'tensornet'/'clifford' for wide circuits"
            ) from exc
        self._invalidate()

    def statevector(self, row: int):
        """Row ``row``'s amplitude array (a direct view — do not mutate).

        Lives on the backend's array module; use
        ``backend.array_backend.to_host(...)`` for a host copy.
        """
        return self._stack[row]

    def release(self) -> None:
        """Drop the stack and every sampling cache (device buffers too).

        The stack-completion boundary for streaming consumers: when a
        :class:`~repro.execution.streaming.StreamedResult` is abandoned
        mid-run, the executor calls this so the ``(B, 2**n)`` stack and
        the stack-wide cumulative tensor do not outlive the stream — on a
        CuPy module that is the difference between freeing device memory
        now and holding it until garbage collection.  Idempotent.  The
        backend stays usable, but the stack is gone: reallocate with an
        explicit size — ``reset(batch_size)`` or :meth:`run_fixed_stack`
        (an argument-less ``reset()`` has no previous size to restore and
        raises).
        """
        self._stack = self._xp.empty((0, self._dim), dtype=self._config.dtype)
        self._alive = np.empty(0, dtype=bool)
        self._invalidate()

    def _invalidate(self) -> None:
        self._probs_cache.clear()
        self._cum_stack = None
        self._cum_totals = None

    # ------------------------------------------------------------------ #
    # batched state evolution
    # ------------------------------------------------------------------ #
    def apply_matrix(
        self,
        matrix: np.ndarray,
        targets: Sequence[int],
        rows: Optional[Sequence[int]] = None,
    ) -> None:
        """Apply one ``(2**k, 2**k)`` matrix to ``targets`` of many rows.

        ``rows=None`` hits the whole stack with one fused kernel call
        (the shared-gate fast path); an explicit row list transforms only
        that sub-slice (the divergent-Kraus path).  No renormalization.
        """
        targets = list(targets)
        k = len(targets)
        dim_k = 2**k
        matrix = np.asarray(matrix) if not hasattr(matrix, "shape") else matrix
        if matrix.shape != (dim_k, dim_k):
            raise BackendError(
                f"matrix shape {matrix.shape} incompatible with targets {targets}"
            )
        if any(t < 0 or t >= self.num_qubits for t in targets):
            raise BackendError(f"targets {targets} out of range")
        if len(set(targets)) != k:
            raise BackendError(f"duplicate targets {targets}")

        if rows is not None:
            # Deduplicate so the gather/scatter (and the whole-stack
            # shortcut below) see well-defined fancy-index semantics.
            rows = np.unique(np.asarray(rows, dtype=np.intp))
            if rows.size and (rows[0] < 0 or rows[-1] >= self.batch_size):
                raise BackendError(
                    f"rows {rows.tolist()} out of range for a "
                    f"{self.batch_size}-row stack"
                )
            if rows.size == self.batch_size:
                rows = None  # the "sub-slice" is the whole stack
        if rows is None:
            self._stack = apply_matrix_stack(
                self._stack, matrix, targets, self.num_qubits, self._config.dtype,
                xp=self._xp,
            )
        else:
            if rows.size == 0:
                return
            self._stack[rows] = apply_matrix_stack(
                self._xp.ascontiguousarray(self._stack[rows]),
                matrix,
                targets,
                self.num_qubits,
                self._config.dtype,
                xp=self._xp,
            )
        self._invalidate()

    def norms_squared(self) -> np.ndarray:
        """Per-row <psi|psi> of the current stack (host NumPy).

        One stack-wide :func:`~repro.linalg.reductions.row_norms_squared`
        call — the same shared reduction the serial backend's
        ``norm_squared`` runs, so entry ``i`` is bitwise what
        ``StatevectorBackend`` would report for row ``i``'s state.
        """
        return self._ab.to_host(
            row_norms_squared(self._stack, self._xp)
        ).astype(np.float64, copy=False)

    # ------------------------------------------------------------------ #
    # stacked trajectory preparation (the vectorized BE primitive)
    # ------------------------------------------------------------------ #
    def run_fixed_stack(
        self,
        circuit: Circuit,
        choices_list: Sequence[Optional[Dict[int, int]]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Prepare one trajectory state per entry of ``choices_list``.

        Each entry maps ``site_id -> kraus_index`` exactly as in
        :meth:`PureStateBackend.run_fixed`; sites absent from a map use
        the channel's dominant operator.  Returns ``(weights, alive)``:
        the per-row product of actual branch probabilities, and a mask of
        rows whose prescribed branches were all realizable.  Dead rows
        have weight 0 and a zeroed state.

        Execution walks the circuit's compiled
        :class:`~repro.execution.plan.FusedPlan` — the same plan (same
        fused matrices, application order, and renormalization points) the
        serial :class:`StatevectorBackend` walks — as a prefix tree over
        the rows' variant keys (see the module docstring), so each
        distinct Kraus prefix is evolved once however many rows share it.
        Every kernel and the reduction are row-independent, which keeps
        each stacked row bitwise identical to its serial preparation with
        fusion on or off.
        """
        # Imported lazily: repro.execution imports this module at package
        # init, so a top-level import would be circular.
        from repro.execution.plan import get_fused_plan

        if not circuit.frozen:
            raise ExecutionError("run_fixed_stack requires a frozen circuit")
        if circuit.num_qubits != self.num_qubits:
            raise BackendError(
                f"circuit has {circuit.num_qubits} qubits, backend has {self.num_qubits}"
            )
        validate_deferred_measurement(circuit)
        if len(choices_list) == 0:
            raise ExecutionError("empty trajectory stack")
        plan = get_fused_plan(circuit, self._config)
        b = len(choices_list)
        # Rows no leaf reaches (dead trajectories) keep the zeroed state,
        # zero weight and alive=False set here.
        self._allocate(b)
        self._alive = np.zeros(b, dtype=bool)
        weights = np.zeros(b, dtype=np.float64)
        self.preparations += b
        self._walk_prefixes(plan.steps, choices_list, weights)
        return weights, self._alive.copy()

    def _walk_prefixes(
        self,
        steps: Sequence[object],
        choices_list: Sequence[Optional[Dict[int, int]]],
        weights: np.ndarray,
    ) -> None:
        """Evolve every distinct Kraus prefix once; write leaves to the stack.

        A *block* is a set of frontier nodes at one plan step: ``states``
        holds one row per node, ``node_w`` its accumulated weight and
        ``members`` the stack rows sharing its prefix.  A gate window hits
        the whole block in one kernel call; a noise window splits each
        node by its members' variant keys, applies each variant once to
        the nodes that chose it and renormalizes.  A split that outgrows
        the working-set budget is cut into consecutive blocks walked
        depth-first from an explicit work stack; a pending block holds its
        parent block's states and realizes its noise window when popped.
        """
        from repro.execution.plan import GateStep

        xp = self._xp
        dtype = self._config.dtype
        budget = max(1, _FRONTIER_BYTES // (self._dim * np.dtype(dtype).itemsize))
        root = xp.zeros((1, self._dim), dtype=dtype)
        root[0, 0] = 1.0
        # Work item: (step index, states, node weights, members, pending).
        # ``pending`` is None for a block realized up to the step index,
        # else the (key, parent, rows) children still to be realized at
        # that noise step from ``states`` (shared with sibling blocks).
        work: List[tuple] = [
            (0, root, np.ones(1, dtype=np.float64), [list(range(len(choices_list)))], None)
        ]
        while work:
            i, states, node_w, members, pending = work.pop()
            if pending is not None:
                states, node_w, members = self._realize(
                    steps[i], states, node_w, pending, shared=True
                )
                i += 1
            while members and i < len(steps):
                step = steps[i]
                i += 1
                if isinstance(step, GateStep):
                    states = apply_compiled_stack(states, step.op, self.num_qubits, xp=xp)
                    self.row_steps += len(members)
                    continue
                children = _split_by_key(step, members, choices_list)
                blocks = [
                    children[lo : lo + budget] for lo in range(0, len(children), budget)
                ]
                # Later blocks wait on the work stack, the next one on top.
                for block in reversed(blocks[1:]):
                    work.append((i - 1, states, node_w, None, block))
                states, node_w, members = self._realize(
                    step, states, node_w, blocks[0], shared=len(blocks) > 1
                )
            for node, rows in enumerate(members):
                self._stack[rows] = states[node]
                weights[rows] = node_w[node]
                self._alive[rows] = True

    def _realize(self, step, states, node_w, children, shared: bool):
        """Apply one noise window to a block of children; renormalize them.

        ``children`` are ``(key, parent, rows)`` triples, grouped by key;
        each variant runs once over its contiguous run of child rows.
        Children whose squared norm falls to ``_DEAD_NORM`` or below are
        dropped from the block (their rows are dead).  Returns the child
        block's ``(states, node weights, members)``.
        """
        xp = self._xp
        parents = [parent for _, parent, _ in children]
        if not shared and parents == list(range(states.shape[0])):
            block = states  # one child per node, in order: update in place
        else:
            block = states[np.asarray(parents, dtype=np.intp)]
        start = 0
        for key, run in groupby(children, key=itemgetter(0)):
            stop = start + sum(1 for _ in run)
            if stop - start == len(children):
                block = apply_compiled_stack(
                    block, step.variant(key), self.num_qubits, xp=xp
                )
            else:
                rows = block[start:stop]
                out = apply_compiled_stack(rows, step.variant(key), self.num_qubits, xp=xp)
                if out is not rows:
                    block[start:stop] = out
            start = stop
        self.row_steps += len(children)
        # Renormalization: the same row-independent reduction and scale the
        # serial backend runs on its state as a 1-row stack, so per-row
        # norms and divisors are bitwise serial-identical; one host sync
        # per block carries the norm vector.  Dead children divide by 1.0.
        t0 = time.perf_counter()
        norms = row_norms_squared(block, xp)
        norms_host = self._ab.to_host(norms).astype(np.float64, copy=False)
        scale_rows_inverse_sqrt(block, norms, xp, dead_norm=_DEAD_NORM)
        # Same float sequence as serial's ``weight *= norm2`` per window.
        child_w = node_w[parents] * norms_host
        members = [rows for _, _, rows in children]
        live = norms_host > _DEAD_NORM
        if not live.all():
            # The branch annihilates the actual state (nominal
            # probabilities are only priors for general channels).
            keep = np.flatnonzero(live)
            block = block[keep]
            child_w = child_w[keep]
            members = [members[k] for k in keep]
        self.renorm_seconds += time.perf_counter() - t0
        return block, child_w, members

    # ------------------------------------------------------------------ #
    # stacked probabilities and bulk sampling
    # ------------------------------------------------------------------ #
    def probabilities(self, row: int) -> np.ndarray:
        """|amplitude|**2 of one row (cached until the stack mutates).

        Always returned on host NumPy — the array-module boundary feeding
        the sampling layer.
        """
        cached = self._probs_cache.get(row)
        if cached is None:
            probs = self._xp.abs(self._stack[row]) ** 2
            total = probs.sum()
            check_norm(total, f"stack row {row}")
            cached = self._ab.to_host(probs / total).astype(np.float64, copy=False)
            self._probs_cache[row] = cached
        return cached

    def probability_stack(self) -> np.ndarray:
        """The full ``(batch, 2**n)`` probability tensor (dead rows zero)."""
        out = np.zeros((self.batch_size, self._dim), dtype=np.float64)
        for row in range(self.batch_size):
            if self._alive[row]:
                out[row] = self.probabilities(row)
        return out

    def cumulative_stack(self):
        """The ``(batch, 2**n)`` cumulative-probability tensor, stack-wide.

        Built in one pass on the array module — ``|stack|**2``, per-row
        normalization, ``cumsum`` along the state axis, tail clamped to
        1.0 so ``searchsorted`` never falls off the end — replacing the
        old per-row Python loop.  The per-row arithmetic (element-wise
        square/divide, then a row-independent cumulative sum) matches the
        serial backend's per-state path exactly, so sampling stays bitwise
        identical to :class:`StatevectorBackend`.  Dead (zero-norm) rows
        come out all-zero with only the clamped tail entry at 1.0 — never
        a valid distribution — so sampling guards on the per-row norm and
        raises before such a row could be drawn from.

        The tensor stays on the array module (device-resident under
        CuPy); only final shot indices are transferred to host.
        """
        if self._cum_stack is None:
            xp = self._xp
            probs = xp.abs(self._stack) ** 2
            totals = probs.sum(axis=1, keepdims=True)
            host_totals = self._ab.to_host(totals).reshape(-1).astype(
                np.float64, copy=False
            )
            bad = np.flatnonzero(~np.isfinite(host_totals))
            if bad.size:
                raise BackendError(
                    f"stack rows {bad.tolist()} have a non-finite norm"
                )
            self._cum_totals = host_totals
            safe = xp.where(totals > 0, totals, xp.asarray(1.0, dtype=totals.dtype))
            cum = xp.cumsum(
                (probs / safe).astype(np.float64, copy=False), axis=1
            )
            # Clamp the tail so searchsorted never falls off the end.
            cum[:, -1] = 1.0
            self._cum_stack = cum
        return self._cum_stack

    def sample_indices(
        self, row: int, num_shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Bulk-sample basis-state indices from one stacked trajectory.

        Uniforms always come from the host ``rng`` (the
        ``(seed, trajectory_id)`` determinism contract); the shared
        :func:`~repro.linalg.sampling.inverse_cdf` search runs wherever the
        cumulative tensor lives, and only the resulting shot indices cross
        back to host.
        """
        if num_shots < 0:
            raise BackendError("num_shots must be >= 0")
        if num_shots == 0:
            return np.empty(0, dtype=np.int64)
        xp = self._xp
        cum = self.cumulative_stack()[row]
        check_norm(self._cum_totals[row], f"stack row {row}")
        indices = inverse_cdf(cum, xp.asarray(rng.random(num_shots)), xp=xp)
        # Shot indices are the one bulk device->host transfer of the
        # sampling hot path: stage through pinned memory under CuPy
        # (identity under NumPy) for DMA-speed copies.
        return self._ab.to_host_pinned(indices).astype(np.int64, copy=False)

    def sample(
        self,
        row: int,
        num_shots: int,
        qubits: Sequence[int],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw ``num_shots`` shots of ``qubits`` from stack row ``row``."""
        indices = self.sample_indices(row, num_shots, rng)
        return bits_from_indices(indices, qubits, self.num_qubits)

    def sample_stack(
        self,
        shots_per_row: Sequence[int],
        qubits: Sequence[int],
        rngs: Sequence[np.random.Generator],
    ) -> List[np.ndarray]:
        """Bulk multinomial sampling over the whole stack, one rng per row.

        Dead rows yield an empty ``(0, len(qubits))`` table.  Each live row
        draws its full budget in one vectorized inverse-CDF search — the
        "sampling all m_alpha desired quantum bitstrings at once" step of
        the paper, here over the stacked probability tensor.
        """
        if len(shots_per_row) != self.batch_size or len(rngs) != self.batch_size:
            raise BackendError(
                f"expected {self.batch_size} shot counts and rngs, got "
                f"{len(shots_per_row)} and {len(rngs)}"
            )
        out: List[np.ndarray] = []
        for row, (shots, rng) in enumerate(zip(shots_per_row, rngs)):
            if not self._alive[row]:
                out.append(np.empty((0, len(qubits)), dtype=np.uint8))
            else:
                out.append(self.sample(row, shots, qubits, rng))
        return out

    def __repr__(self) -> str:
        return (
            f"BatchedStatevectorBackend(qubits={self.num_qubits}, "
            f"batch={self.batch_size}, dtype={self._config.dtype}, xp={self._ab.name})"
        )
