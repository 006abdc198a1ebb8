"""The four benchmark workloads: circuits, request recipes and output checks.

Every input is built here from public ``repro`` constructors, so edits to
the older ``benchmarks/bench_*.py`` scripts cannot move this benchmark.
Each workload builds its circuit once; requests differ only in their seed,
which :func:`request_seed` derives from the workload seed.

A workload is ``small``-scalable: the self-tests run the same recipes on
narrower circuits and fewer samples, so every code path is exercised in
seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import (
    BackendSpec,
    Circuit,
    NoiseModel,
    ProbabilisticPTS,
    ShotTable,
    StatevectorBackend,
    TopKPTS,
    depolarizing,
    run_ptsbe,
    run_ptsbe_stream,
    two_qubit_depolarizing,
)
from repro.analysis.convergence import exact_distribution
from repro.circuits.gates import S
from repro.circuits.operations import GateOp, MeasureOp, NoiseOp
from repro.qec import (
    msd_benchmark_circuit,
    msd_preparation_circuit,
    repetition_code,
    steane_code,
)
from repro.sweep.oracle import check_strategy_equivalence, check_streaming_concat
from repro.sweep.spec import OracleSpec

#: Request-seed domain for the one verification request of a run, kept
#: apart from the timed requests' indices.
VERIFY_INDEX = 1 << 30
WARMUP_INDEX = VERIFY_INDEX + 1


def request_seed(seed: int, index: int) -> int:
    """Seed of request ``index`` of a run started with workload ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# --------------------------------------------------------------------- #
# circuits
# --------------------------------------------------------------------- #
def brickwork(num_qubits: int, layers: int) -> Circuit:
    """CX brickwork with alternating H/T layers and depolarizing gate noise."""
    circ = Circuit(num_qubits, name=f"brickwork_{num_qubits}x{layers}")
    for layer in range(layers):
        for q in range(num_qubits):
            circ.h(q) if layer % 2 == 0 else circ.t(q)
        for q in range(layer % 2, num_qubits - 1, 2):
            circ.cx(q, q + 1)
    circ.measure_all()
    model = (
        NoiseModel()
        .add_all_qubit_gate_noise("cx", two_qubit_depolarizing(0.01))
        .add_all_qubit_gate_noise("h", depolarizing(0.002))
        .add_all_qubit_gate_noise("t", depolarizing(0.002))
    )
    return model.apply(circ).freeze()


def clifford_msd(repetitions: int) -> Circuit:
    """Repetition-encoded MSD circuit with its magic rotations replaced by S.

    Replacing the non-Clifford ``ry``/``rz`` preparation makes the circuit
    pure Clifford, so ``strategy="auto"`` routes it to the Pauli-frame
    engine.  Noise is the MSD model: two-qubit depolarizing 0.01 on CZ and
    0.002 depolarizing on SX, SY and SXdg.
    """
    msd = msd_benchmark_circuit(repetition_code(repetitions))
    circ = Circuit(msd.num_qubits, name=f"msd_clifford_rep{repetitions}")
    for op in msd:
        if isinstance(op, GateOp) and op.gate.name in ("ry", "rz"):
            circ.gate(S, *op.qubits)
        else:
            circ.append(op)
    model = (
        NoiseModel()
        .add_all_qubit_gate_noise("cz", two_qubit_depolarizing(0.01))
        .add_all_qubit_gate_noise("sx", depolarizing(0.002))
        .add_all_qubit_gate_noise("sy", depolarizing(0.002))
        .add_all_qubit_gate_noise("sxdg", depolarizing(0.002))
    )
    return model.apply(circ).freeze()


def steane_msd_preparation() -> Circuit:
    """Five Steane-encoded magic-state blocks (35 qubits), 0.005 noise on CX."""
    model = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.005))
    return model.apply(msd_preparation_circuit(steane_code())).freeze()


# --------------------------------------------------------------------- #
# checks
# --------------------------------------------------------------------- #
class CheckFailed(Exception):
    """A correctness check of the benchmark rejected a program output."""


def check_dense_equivalence(
    circuit: Circuit, sampler_factory: Callable, options: Dict, other: Dict, seed: int
) -> List[str]:
    """Bitwise strategy equivalence plus streamed-chunk concatenation.

    Runs one verification request with the workload's ``options`` twice
    (streamed and materialized) and once with the ``other`` dense strategy
    on the same seed; returns the oracle findings' details, raising
    :class:`CheckFailed` on a mismatch.
    """
    stream = run_ptsbe_stream(circuit, sampler_factory(), seed=seed, **options)
    chunks = tuple(chunk.shot_table() for chunk in stream)
    table = run_ptsbe(circuit, sampler_factory(), seed=seed, **options).shot_table()
    reference = run_ptsbe(circuit, sampler_factory(), seed=seed, **other)
    if stream.engine == reference.engine:
        raise CheckFailed(f"both sides of the equivalence ran {stream.engine!r}")
    return [
        require(check_streaming_concat(stream.engine, chunks, table)),
        require_tables_equal(stream.engine, table, {reference.engine: reference.shot_table()}),
    ]


def require_tables_equal(name: str, table: ShotTable, others: Dict[str, ShotTable]) -> str:
    """Raise :class:`CheckFailed` unless every table equals ``table`` bitwise."""
    return require(check_strategy_equivalence(name, table, others))


def require(finding) -> str:
    if not finding.ok:
        raise CheckFailed(f"{finding.check}: {finding.detail}")
    return f"{finding.check}: {finding.detail}"


def exact_marginals(probs: np.ndarray, num_qubits: int) -> Dict[tuple, np.ndarray]:
    """One-bit marginals of every qubit and two-bit marginals of neighbours.

    ``probs`` is indexed with qubit 0 as the most significant bit.
    """
    tensor = probs.reshape((2,) * num_qubits)
    out: Dict[tuple, np.ndarray] = {}
    for q in range(num_qubits):
        axes = tuple(a for a in range(num_qubits) if a != q)
        out[(q,)] = tensor.sum(axis=axes)
    for q in range(num_qubits - 1):
        axes = tuple(a for a in range(num_qubits) if a not in (q, q + 1))
        out[(q, q + 1)] = tensor.sum(axis=axes).reshape(4)
    return out


def empirical_marginals(bits: np.ndarray, keys: Sequence[tuple]) -> Dict[tuple, np.ndarray]:
    out = {}
    for key in keys:
        index = np.zeros(len(bits), dtype=np.int64)
        for q in key:
            index = (index << 1) | bits[:, q]
        out[key] = np.bincount(index, minlength=1 << len(key)) / len(bits)
    return out


#: Per-cell z-score of the binomial marginal tolerance.  With ~60 cells per
#: trajectory and a handful of trajectories, z=5 keeps the family-wise
#: false-alarm rate below 1e-4.
MARGINAL_Z = 5.0


def check_frame_marginals(circuit: Circuit, trajectories) -> str:
    """Clifford-engine marginals against the dense engine's exact ones.

    For each trajectory the dense :class:`StatevectorBackend` prepares the
    same Kraus choices; every one- and two-bit marginal cell of the
    frame-sampled shots must lie within ``MARGINAL_Z`` binomial standard
    errors (plus one count) of the exact value.  The full ``2**n``
    histogram is out of reach: a trajectory's support is every outcome.
    """
    n = circuit.num_qubits
    worst = 0.0
    for traj in trajectories:
        backend = StatevectorBackend(n)
        backend.run_fixed(circuit, traj.record.choices)
        exact = exact_marginals(np.asarray(backend.probabilities()), n)
        shots = len(traj.bits)
        found = empirical_marginals(traj.bits, list(exact))
        for key, p in exact.items():
            allowed = MARGINAL_Z * np.sqrt(p * (1 - p) / shots) + 1.0 / shots
            ratio = float(np.max(np.abs(found[key] - p) / allowed))
            worst = max(worst, ratio)
            if ratio > 1.0:
                raise CheckFailed(
                    f"frame marginal {key} of trajectory "
                    f"{traj.record.trajectory_id} deviates: {found[key]} vs {p}"
                )
    return f"frame marginals: {len(trajectories)} trajectories, worst cell at {worst:.2f} of tolerance"


def block_subcircuit(circuit: Circuit, qubits: Sequence[int]) -> Circuit:
    """``circuit``'s gates and noise restricted to ``qubits``, renumbered."""
    where = {q: i for i, q in enumerate(qubits)}
    sub = Circuit(len(qubits), name=f"{circuit.name}_block")
    for op in circuit:
        if isinstance(op, MeasureOp) or not all(q in where for q in op.qubits):
            continue
        mapped = tuple(where[q] for q in op.qubits)
        if isinstance(op, GateOp):
            sub.append(GateOp(op.gate, mapped))
        else:
            sub.append(NoiseOp(op.channel, mapped))
    return sub.measure_all().freeze()


def _dominant_prob(channel) -> float:
    return channel.nominal_probs[channel.dominant_index()]


def check_block_marginals(circuit: Circuit, trajectories, block: int) -> str:
    """Each block's weighted marginal against its density-matrix reference.

    The blocks share no gates, so block ``b``'s outcome distribution is
    that of its own sub-circuit.  Trajectories are grouped by their Kraus
    choices inside the block; each group's pooled histogram is weighted by
    the group's nominal block probability.  The TVD to the exact
    distribution must stay within the sweep oracle's bound: its tolerance
    plus the block probability mass no group covers.
    """
    sites = {op.site_id: op for op in circuit.noise_sites}
    tolerance = OracleSpec().tvd_tolerance
    details = []
    for b in range(circuit.num_qubits // block):
        qubits = range(b * block, (b + 1) * block)
        block_sites = [s for s, op in sites.items() if op.qubits[0] in qubits]
        dominant = math.prod(_dominant_prob(sites[s].channel) for s in block_sites)
        pooled: Dict[tuple, List[np.ndarray]] = {}
        prob: Dict[tuple, float] = {}
        for traj in trajectories:
            events = tuple(e for e in traj.record.events if e.site_id in block_sites)
            key = tuple((e.site_id, e.kraus_index) for e in events)
            pooled.setdefault(key, []).append(traj.bits[:, b * block:(b + 1) * block])
            p = dominant
            for e in events:
                p *= e.probability / _dominant_prob(sites[e.site_id].channel)
            prob[key] = p
        estimate = np.zeros(1 << block)
        weights = 1 << np.arange(block - 1, -1, -1)
        for key, parts in pooled.items():
            bits = np.concatenate(parts)
            hist = np.bincount(bits.astype(np.int64) @ weights, minlength=1 << block)
            estimate += prob[key] * hist / len(bits)
        covered = sum(prob.values())
        estimate /= covered
        exact = exact_distribution(block_subcircuit(circuit, list(qubits)))
        tvd = 0.5 * float(np.abs(estimate - exact).sum())
        bound = tolerance + max(0.0, 1.0 - covered)
        if tvd > bound:
            raise CheckFailed(f"block {b}: TVD {tvd:.4f} exceeds bound {bound:.4f}")
        details.append(f"{tvd:.3f}<={bound:.3f}")
    return "block TVDs " + " ".join(details)


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #
@dataclass
class Workload:
    """One benchmark workload: a circuit and how each request is issued."""

    name: str
    build: Callable[[], Circuit]
    sampler: Callable[[], object]
    options: Dict
    verify: Callable[[Circuit, "Workload", int], List[str]]
    #: Extra per-trajectory invariant run on every timed request.
    per_trajectory: Optional[Callable[[object], Optional[str]]] = None
    #: Serial-strategy twin for the ``ref`` pass (dense-prep only).
    reference: Optional[Dict] = None

    def stream(self, circuit: Circuit, seed: int, options: Optional[Dict] = None, sampler=None):
        """Open one request's stream in pure-ingest mode (``retain=False``)."""
        return run_ptsbe_stream(
            circuit,
            sampler or self.sampler(),
            seed=seed,
            retain=False,
            **(options or self.options),
        )


def _verify_dense(other: Dict):
    def verify(circuit, workload, seed):
        return check_dense_equivalence(
            circuit, workload.sampler, workload.options, other, seed
        )

    return verify


def _verify_frames(circuit, workload, seed):
    stream = run_ptsbe_stream(circuit, workload.sampler(), seed=seed, **workload.options)
    trajectories = stream.finalize().trajectories
    if stream.engine != "clifford":
        raise CheckFailed(f"clifford-frames routed to {stream.engine!r}")
    # The first trajectory plus the two with the most errors.
    picked = [trajectories[0]] + sorted(
        trajectories[1:], key=lambda t: -t.record.num_errors()
    )[:2]
    return [check_frame_marginals(circuit, picked)]


def _frame_weight_exact(traj) -> Optional[str]:
    """Pauli mixtures make every trajectory weight its nominal probability."""
    if not math.isclose(traj.actual_weight, traj.record.nominal_probability, rel_tol=1e-12):
        return (
            f"trajectory {traj.record.trajectory_id}: weight {traj.actual_weight!r} "
            f"!= nominal {traj.record.nominal_probability!r}"
        )
    return None


def _verify_blocks(block: int, samples: int, shots: int):
    def verify(circuit, workload, seed):
        stream = run_ptsbe_stream(
            circuit, ProbabilisticPTS(samples, shots), seed=seed, **workload.options
        )
        trajectories = stream.finalize().trajectories
        if stream.engine != "tensornet":
            raise CheckFailed(f"tensornet workload routed to {stream.engine!r}")
        return [check_block_marginals(circuit, trajectories, block)]

    return verify


def workloads(small: bool = False) -> Dict[str, Workload]:
    """The benchmark's workloads, or their reduced-size twins for self-tests."""
    vectorized = dict(backend=BackendSpec.batched_statevector(), strategy="vectorized")
    if small:
        prep_circuit = lambda: brickwork(8, 4)  # noqa: E731
        shots_circuit = lambda: brickwork(6, 2)  # noqa: E731
        frames_circuit = lambda: clifford_msd(2)  # noqa: E731
        prep, topk, frames, tn = (32, 16), (4, 1000), (16, 2000), (16, 16)
        tn_verify = (16, 256)
    else:
        prep_circuit = lambda: brickwork(14, 6)  # noqa: E731
        shots_circuit = lambda: brickwork(12, 4)  # noqa: E731
        frames_circuit = lambda: clifford_msd(4)  # noqa: E731
        prep, topk, frames, tn = (256, 64), (16, 250_000), (128, 100_000), (256, 32)
        tn_verify = (64, 512)
    return {
        "dense-prep": Workload(
            "dense-prep",
            prep_circuit,
            lambda: ProbabilisticPTS(*prep),
            vectorized,
            _verify_dense(dict(strategy="serial")),
            reference=dict(strategy="serial"),
        ),
        "dense-shots": Workload(
            "dense-shots",
            shots_circuit,
            lambda: TopKPTS(k=topk[0], nshots=topk[1]),
            {},
            _verify_dense(vectorized),
        ),
        "clifford-frames": Workload(
            "clifford-frames",
            frames_circuit,
            lambda: ProbabilisticPTS(*frames),
            {},
            _verify_frames,
            per_trajectory=_frame_weight_exact,
        ),
        "tensornet-35q": Workload(
            "tensornet-35q",
            steane_msd_preparation,
            lambda: ProbabilisticPTS(*tn),
            {},
            _verify_blocks(7, *tn_verify),
        ),
    }
