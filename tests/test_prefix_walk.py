"""Prefix-tree stack preparation: bitwise equivalence to per-row serial
preparation, and the ``row_steps`` audit of the shared-prefix saving."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.backends.batched_statevector as bsv
from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro.backends.statevector import StatevectorBackend
from repro.channels.standard import (
    amplitude_damping,
    depolarizing,
    generalized_amplitude_damping,
    pauli_channel,
    phase_damping,
    reset_channel,
    two_qubit_depolarizing,
)
from repro.circuits import Circuit
from repro.circuits.gates import CCX
from repro.config import Config
from repro.errors import ZeroProbabilityTrajectory
from repro.execution.plan import NoiseStep, get_fused_plan

ONE_QUBIT_GATES = ("h", "t", "s", "x", "sx")
ONE_QUBIT_CHANNELS = (
    depolarizing(0.1),
    pauli_channel(0.05, 0.1, 0.02),
    amplitude_damping(0.3),
    phase_damping(0.2),
    generalized_amplitude_damping(0.2, 0.3),
    reset_channel(0.25),
)


@st.composite
def noisy_circuits(draw):
    """A random frozen circuit on <= 6 qubits with 1/2/3-qubit gates and
    unitary-mixture as well as general (non-unitary) noise channels."""
    n = draw(st.integers(min_value=1, max_value=6))
    circ = Circuit(n)
    qubit = st.integers(min_value=0, max_value=n - 1)
    kinds = ["gate1", "rz", "noise1"] + (["cx", "noise2"] if n >= 2 else [])
    kinds += ["ccx"] if n >= 3 else []
    for _ in range(draw(st.integers(min_value=1, max_value=14))):
        kind = draw(st.sampled_from(kinds))
        if kind == "gate1":
            getattr(circ, draw(st.sampled_from(ONE_QUBIT_GATES)))(draw(qubit))
        elif kind == "rz":
            circ.rz(draw(st.floats(min_value=-3.0, max_value=3.0)), draw(qubit))
        elif kind == "noise1":
            circ.attach(draw(st.sampled_from(ONE_QUBIT_CHANNELS)), draw(qubit))
        else:
            arity = {"cx": 2, "noise2": 2, "ccx": 3}[kind]
            qubits = draw(
                st.lists(qubit, min_size=arity, max_size=arity, unique=True)
            )
            if kind == "cx":
                circ.cx(*qubits)
            elif kind == "ccx":
                circ.gate(CCX, *qubits)
            else:
                circ.attach(two_qubit_depolarizing(0.15), *qubits)
    return circ.measure_all().freeze()


@st.composite
def choice_stacks(draw, circuit):
    """Stack rows drawn from a small pool of choice maps, so rows repeat,
    share prefixes and diverge; a map may name a site's dominant index
    explicitly (the same key sequence as ``{}``)."""
    sites = circuit.noise_sites
    pool = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        choices = {}
        for op in sites:
            if draw(st.integers(min_value=0, max_value=3)) == 0:
                choices[op.site_id] = draw(
                    st.integers(min_value=0, max_value=len(op.channel) - 1)
                )
            elif draw(st.integers(min_value=0, max_value=5)) == 0:
                choices[op.site_id] = op.channel.dominant_index()
        pool.append(choices)
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))


def _assert_rows_match_serial(circuit, choices_list, config):
    stacked = BatchedStatevectorBackend(circuit.num_qubits, config=config)
    weights, alive = stacked.run_fixed_stack(circuit, choices_list)
    serial = StatevectorBackend(circuit.num_qubits, config=config)
    for row, choices in enumerate(choices_list):
        try:
            weight = serial.run_fixed(circuit, choices)
        except ZeroProbabilityTrajectory:
            assert not alive[row] and weights[row] == 0.0
            assert not np.any(stacked.statevector(row))
            continue
        assert alive[row]
        assert weights[row] == weight  # exact: the same float product
        assert stacked.statevector(row).tobytes() == serial.statevector.tobytes()
    return stacked


def _distinct_prefix_row_steps(circuit, choices_list, config):
    """Window applications of a walk that evolves each distinct Kraus
    prefix once: per plan step, the number of distinct key sequences the
    rows have taken up to and including that step (no row may die)."""
    prefixes = [() for _ in choices_list]
    total = 0
    for step in get_fused_plan(circuit, config).steps:
        if isinstance(step, NoiseStep):
            prefixes = [p + (step.key_for(c),) for p, c in zip(prefixes, choices_list)]
        total += len(set(prefixes))
    return total


class TestPrefixWalkMatchesSerial:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_circuits_bitwise(self, data):
        circuit = data.draw(noisy_circuits())
        choices_list = data.draw(choice_stacks(circuit))
        config = Config(
            fusion=data.draw(st.sampled_from(["auto", "off"])),
            dtype=np.dtype(data.draw(st.sampled_from([np.complex64, np.complex128]))),
        )
        # A one-byte budget cuts the frontier to one row per block, so
        # every split is walked depth-first across blocks.
        budget = data.draw(st.sampled_from([bsv._FRONTIER_BYTES, 1]))
        with mock.patch.object(bsv, "_FRONTIER_BYTES", budget):
            _assert_rows_match_serial(circuit, choices_list, config)

    @pytest.mark.parametrize("budget", [1, None])
    @pytest.mark.parametrize("fusion", ["auto", "off"])
    def test_row_dies_mid_tree_while_siblings_live(self, budget, fusion):
        # Kraus 1 of the damping site on qubit 0 annihilates |0>, so a row
        # choosing it dies unless the depolarizing site flipped the qubit
        # first; it dies after sharing the earlier windows with live rows.
        circuit = (
            Circuit(2)
            .h(1)
            .attach(depolarizing(0.1), 0)
            .attach(amplitude_damping(0.2), 0)
            .cx(0, 1)
            .attach(amplitude_damping(0.2), 1)
            .measure_all()
            .freeze()
        )
        dep, damp0, damp1 = (op.site_id for op in circuit.noise_sites)
        choices_list = [
            {},
            {damp0: 1},  # dies at the first damping window
            {dep: 1, damp0: 1},  # X first: survives
            {dep: 1, damp0: 1},
            {damp1: 1},
            {dep: 1, damp0: 1, damp1: 1},
        ]
        config = Config(fusion=fusion)
        with mock.patch.object(bsv, "_FRONTIER_BYTES", budget or bsv._FRONTIER_BYTES):
            stacked = _assert_rows_match_serial(circuit, choices_list, config)
        assert stacked.alive.tolist() == [True, False, True, True, True, True]

    def test_same_key_sequence_from_distinct_maps_shares_one_leaf(self, noisy_ghz3):
        dominant = {
            op.site_id: op.channel.dominant_index() for op in noisy_ghz3.noise_sites
        }
        config = Config()
        stacked = _assert_rows_match_serial(noisy_ghz3, [{}, dominant, None], config)
        steps = get_fused_plan(noisy_ghz3, config).num_steps
        assert stacked.row_steps == steps  # one prefix, evolved once


class TestRowSteps:
    @pytest.mark.parametrize("budget_rows", [1, 2, None])
    def test_counts_distinct_prefixes(self, mixed_noise_circuit, budget_rows):
        ops = mixed_noise_circuit.noise_sites
        first, last = ops[0].site_id, ops[-1].site_id
        two_qubit = next(op.site_id for op in ops if len(op.channel) == 16)
        choices_list = [
            {},
            {},
            {first: 1},
            {first: 1, last: 1},
            {two_qubit: 3},
            {last: 1},
            {first: 1},
        ]
        config = Config()
        budget = bsv._FRONTIER_BYTES
        if budget_rows is not None:
            budget = budget_rows * 16 * 2**mixed_noise_circuit.num_qubits  # complex128
        stacked = BatchedStatevectorBackend(4, config=config)
        with mock.patch.object(bsv, "_FRONTIER_BYTES", budget):
            stacked.run_fixed_stack(mixed_noise_circuit, choices_list)
        expected = _distinct_prefix_row_steps(mixed_noise_circuit, choices_list, config)
        assert stacked.row_steps == expected
        unshared = len(choices_list) * get_fused_plan(mixed_noise_circuit, config).num_steps
        assert expected < unshared
        # The counters accumulate across preparations.
        renorm = stacked.renorm_seconds
        assert renorm > 0.0
        stacked.run_fixed_stack(mixed_noise_circuit, choices_list)
        assert stacked.row_steps == 2 * expected
        assert stacked.preparations == 2 * len(choices_list)
        assert stacked.renorm_seconds > renorm
