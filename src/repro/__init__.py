"""repro — Pre-Trajectory Sampling with Batched Execution (PTSBE).

A from-scratch reproduction of "Augmenting Simulated Noisy Quantum Data
Collection by Orders of Magnitude Using Pre-Trajectory Sampling with
Batched Execution" (SC '25): noisy quantum trajectory simulation where the
stochastic Kraus-operator decisions are sampled *before* state evolution
(PTS) and every prepared noisy state is bulk-sampled for its full shot
budget (BE), with error-provenance metadata on every shot.

Quick start::

    from repro import (
        Circuit, NoiseModel, depolarizing,
        ProbabilisticPTS, run_ptsbe,
    )

    ideal = Circuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()
    noise = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.01))
    noisy = noise.apply(ideal).freeze()

    result = run_ptsbe(noisy, ProbabilisticPTS(nsamples=200, nshots=10_000), seed=7)
    table = result.shot_table()          # shots + per-shot trajectory ids
    labels = result.records              # Kraus-level error provenance
"""

from repro._version import __version__
from repro.config import Config, DEFAULT_CONFIG, configure
from repro.errors import (
    BackendError,
    CapacityError,
    ChannelError,
    CircuitError,
    DataError,
    DeviceError,
    ExecutionError,
    FaultError,
    GateError,
    NoiseModelError,
    QECError,
    ReproError,
    SamplingError,
    WorkerCrashError,
)
from repro.rng import StreamFactory, make_rng, trajectory_rng
from repro.faults import FaultPlan, FaultSpec, RecoveryEvent, RetryPolicy

from repro.circuits import Circuit, Gate, library
from repro.channels import (
    KrausChannel,
    NoiseModel,
    PauliString,
    amplitude_damping,
    bit_flip,
    depolarizing,
    pauli_channel,
    phase_damping,
    phase_flip,
    two_qubit_depolarizing,
)
from repro.backends import (
    BatchedStatevectorBackend,
    DensityMatrixBackend,
    MPSBackend,
    StabilizerBackend,
    StatevectorBackend,
)
from repro.trajectory import TrajectorySimulator, TrajectoryRecord, KrausEvent
from repro.pts import (
    ExhaustivePTS,
    ProbabilisticPTS,
    ProbabilityBandPTS,
    ProportionalPTS,
    PTSResult,
    TopKPTS,
    TrajectorySpec,
)
from repro.execution import (
    BackendSpec,
    BatchedExecutor,
    PTSBEResult,
    ShardedExecutor,
    ShotChunk,
    ShotTable,
    StreamedResult,
    VectorizedExecutor,
    run_ptsbe,
    run_ptsbe_stream,
)

__all__ = [
    "__version__",
    "Config",
    "DEFAULT_CONFIG",
    "configure",
    "StreamFactory",
    "make_rng",
    "trajectory_rng",
    # errors
    "ReproError",
    "CircuitError",
    "GateError",
    "ChannelError",
    "NoiseModelError",
    "BackendError",
    "CapacityError",
    "SamplingError",
    "ExecutionError",
    "WorkerCrashError",
    "FaultError",
    "DeviceError",
    "QECError",
    "DataError",
    # fault tolerance
    "FaultSpec",
    "FaultPlan",
    "RetryPolicy",
    "RecoveryEvent",
    # circuits / channels
    "Circuit",
    "Gate",
    "library",
    "KrausChannel",
    "NoiseModel",
    "PauliString",
    "depolarizing",
    "two_qubit_depolarizing",
    "bit_flip",
    "phase_flip",
    "pauli_channel",
    "amplitude_damping",
    "phase_damping",
    # backends
    "StatevectorBackend",
    "BatchedStatevectorBackend",
    "DensityMatrixBackend",
    "MPSBackend",
    "StabilizerBackend",
    # trajectory + PTS + execution
    "TrajectorySimulator",
    "TrajectoryRecord",
    "KrausEvent",
    "ProbabilisticPTS",
    "ProportionalPTS",
    "ProbabilityBandPTS",
    "ExhaustivePTS",
    "TopKPTS",
    "PTSResult",
    "TrajectorySpec",
    "BackendSpec",
    "BatchedExecutor",
    "VectorizedExecutor",
    "ShardedExecutor",
    "PTSBEResult",
    "ShotTable",
    "ShotChunk",
    "StreamedResult",
    "run_ptsbe",
    "run_ptsbe_stream",
]
