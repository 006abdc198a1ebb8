"""The shared bulk-sampling kernel: the guide-table search is bitwise
``searchsorted``, the bit-table gather is bitwise the shift/mask formula,
and every dense engine that draws through it stays bitwise equal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.linalg.sampling as sampling
from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro.backends.density_matrix import DensityMatrixBackend
from repro.backends.statevector import StatevectorBackend
from repro.channels.standard import depolarizing
from repro.circuits import Circuit
from repro.devices.device import DeviceMesh
from repro.devices.partition import DistributedStatevector
from repro.errors import BackendError, DeviceError
from repro.linalg.sampling import bits_from_indices, inverse_cdf
from repro.rng import make_rng

CDF_KINDS = ("uniform", "dominant", "zero_runs", "subnormal", "overshoot", "spiky")


def _probabilities(kind: str, d: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "uniform":
        return rng.random(d)
    if kind == "dominant":
        p = np.full(d, 1e-300)
        p[rng.integers(d)] = 1.0
        return p
    if kind == "zero_runs":
        p = rng.random(d) * (rng.random(d) < 0.1)
        p[rng.integers(d)] += 1e-9
        return p
    if kind == "subnormal":
        p = np.full(d, 5e-324)
        p[rng.integers(d, size=3)] = rng.random(3) + 1e-3
        return p
    if kind == "spiky":
        return rng.exponential(size=d) ** 8
    return np.ones(d)  # "overshoot": the tail is forced above 1.0 below


def _cdf(kind: str, n: int, seed: int) -> np.ndarray:
    """A CDF as the backends build it: cumsum, tail clamped to 1.0."""
    rng = np.random.default_rng(seed)
    d = 1 << n
    p = _probabilities(kind, d, rng)
    cum = np.cumsum(p / p.sum())
    if kind == "overshoot" and d > 2:
        # Rounding can leave the entries before the clamped tail an ulp
        # above 1.0; the kernel must still match searchsorted there.
        cum[-3:-1] = np.nextafter(1.0, 2.0)
    cum[-1] = 1.0
    return cum


def _uniforms(cum: np.ndarray, seed: int) -> np.ndarray:
    """Random uniforms plus every kind of edge, enough to use the table."""
    d = cum.shape[0]
    rng = np.random.default_rng(seed)
    m = sampling._guide_table(cum, np).shape[0] - 1
    edges = rng.integers(0, m, size=min(m, 2048)) / m
    # Uniforms right at the CDF's own values, and just below them.
    at_cdf = cum[cum < 1.0][: 1024]
    below = np.nextafter(at_cdf, 0.0)
    extremes = np.array([0.0, np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0)])
    draws = max(d, 4096)
    u = np.concatenate([rng.random(draws), edges, at_cdf, below, extremes])
    rng.shuffle(u)
    return u


def _shift_mask_bits(indices, qubits, num_qubits):
    """The shift/mask bit extraction the bit-table gather replaced."""
    indices = np.asarray(indices, dtype=np.uint64)
    shifts = np.array([num_qubits - 1 - q for q in qubits], dtype=np.uint64)
    return ((indices[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


class TestInverseCdf:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 16),
        kind=st.sampled_from(CDF_KINDS),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_searchsorted_bitwise(self, n, kind, seed):
        cum = _cdf(kind, n, seed)
        u = _uniforms(cum, seed + 1)
        assert sampling._table_pays(np, cum.shape[0], u.shape[0])
        expected = np.searchsorted(cum, u, side="right")
        got = inverse_cdf(cum, u)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

    def test_below_crossover_is_searchsorted(self):
        cum = _cdf("uniform", 12, 3)
        u = np.random.default_rng(4).random(4095)
        assert not sampling._table_pays(np, cum.shape[0], u.shape[0])
        np.testing.assert_array_equal(
            inverse_cdf(cum, u), np.searchsorted(cum, u, side="right")
        )

    def test_capped_table_wider_than_bucket_count(self):
        # 2**18 entries exceed the 2**17-bucket cap: brackets hold several
        # entries each and the search must still be exact.
        cum = _cdf("spiky", 18, 5)
        assert sampling._guide_table(cum, np).shape[0] - 1 < cum.shape[0]
        u = np.random.default_rng(6).random(cum.shape[0])
        np.testing.assert_array_equal(
            inverse_cdf(cum, u), np.searchsorted(cum, u, side="right")
        )

    def test_empty_uniforms(self):
        cum = _cdf("uniform", 3, 0)
        assert inverse_cdf(cum, np.empty(0)).shape == (0,)

    def test_device_module_keeps_searchsorted(self):
        assert not sampling._table_pays(object(), 16, 1 << 20)

    def test_unmeasured_widths_keep_searchsorted(self):
        limit = sampling._MAX_TABLE_ENTRIES
        assert sampling._table_pays(np, limit, limit)
        assert not sampling._table_pays(np, 2 * limit, 4 * limit)


class TestBitsFromIndices:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 26))
    def test_matches_shift_mask_formula(self, data, n):
        qubits = data.draw(
            st.one_of(
                st.just([]),
                st.permutations(range(n)),
                st.lists(st.integers(0, n - 1), max_size=2 * n),
            ),
            label="qubits",
        )
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        rng = np.random.default_rng(seed)
        indices = np.concatenate(
            [rng.integers(0, 1 << n, size=257), [0, (1 << n) - 1]]
        ).astype(np.int64)
        got = bits_from_indices(indices, qubits, n)
        assert got.dtype == np.uint8
        assert got.shape == (indices.shape[0], len(qubits))
        np.testing.assert_array_equal(got, _shift_mask_bits(indices, qubits, n))

    def test_empty_indices(self):
        assert bits_from_indices(np.empty(0, dtype=np.int64), [0, 2], 3).shape == (0, 2)

    def test_out_of_range_qubit_raises(self):
        with pytest.raises(BackendError):
            bits_from_indices(np.array([1]), [3], 3)

    def test_tables_are_read_only_and_bounded(self):
        for shift, table in sampling._bit_tables(26, tuple(range(26))):
            assert not table.flags.writeable
            assert table.nbytes <= 1 << 20

    def test_cache_is_byte_bounded(self):
        def cached_bytes():
            return sum(
                t.nbytes for tables in sampling._bit_cache.values() for _, t in tables
            )

        # Ten distinct 16-qubit lists hold 1 MiB of table each.
        lists = [tuple(range(16))[k:] + tuple(range(16))[:k] for k in range(10)]
        for qubits in lists:
            sampling._bit_tables(16, qubits)
            assert cached_bytes() == sampling._bit_cache_bytes
            assert cached_bytes() <= sampling._BIT_CACHE_BYTES
        # The newest list is kept, and a hit makes it most recently used.
        assert (16, lists[-1]) in sampling._bit_cache
        assert sampling._bit_tables(16, lists[-1]) is sampling._bit_tables(16, lists[-1])
        assert next(reversed(sampling._bit_cache)) == (16, lists[-1])


def _noisy_circuit(n: int) -> Circuit:
    circ = Circuit(n)
    for q in range(n):
        circ.h(q).t(q)
    for q in range(n - 1):
        circ.cx(q, q + 1)
        circ.attach(depolarizing(0.1), q)
    return circ.measure_all().freeze()


class TestEnginesAcrossCrossover:
    @pytest.mark.parametrize("n", [4, 13])
    def test_serial_equals_stacked_bitwise(self, n):
        circ = _noisy_circuit(n)
        choices = [{}, {0: 1}, {1: 3}]
        crossover = max(1 << n, 4096)
        stacked = BatchedStatevectorBackend(n)
        stacked.run_fixed_stack(circ, choices)
        qubits = list(range(n))[::-1]
        for shots in (crossover - 1, crossover, crossover + 1):
            for row, choice in enumerate(choices):
                serial = StatevectorBackend(n)
                serial.run_fixed(circ, choice)
                seed = 1000 * row + shots
                a = serial.sample(shots, qubits, make_rng(seed))
                b = stacked.sample(row, shots, qubits, make_rng(seed))
                np.testing.assert_array_equal(a, b)
                cum = np.cumsum(serial.probabilities())
                cum[-1] = 1.0
                ref = np.searchsorted(cum, make_rng(seed).random(shots), side="right")
                np.testing.assert_array_equal(a, _shift_mask_bits(ref, qubits, n))

    def test_alternating_rows_and_state_changes_stay_bitwise(self):
        n = 5
        circ = _noisy_circuit(n)
        stacked = BatchedStatevectorBackend(n)
        stacked.run_fixed_stack(circ, [{}, {0: 2}])
        serial = [StatevectorBackend(n), StatevectorBackend(n)]
        serial[0].run_fixed(circ, {})
        serial[1].run_fixed(circ, {0: 2})
        # Alternate rows past the crossover, then mutate every state.
        for seed, row in enumerate([0, 1, 0, 1]):
            np.testing.assert_array_equal(
                stacked.sample_indices(row, 5000, make_rng(seed)),
                serial[row].sample_indices(5000, make_rng(seed)),
            )
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        stacked.apply_matrix(x, [2])
        for sv in serial:
            sv.apply_matrix(x, [2])
        for row in (0, 1):
            np.testing.assert_array_equal(
                stacked.sample_indices(row, 5000, make_rng(9)),
                serial[row].sample_indices(5000, make_rng(9)),
            )

    def test_density_matrix_oracle_draws_through_the_kernel(self):
        circ = _noisy_circuit(3)
        dm = DensityMatrixBackend(3).run(circ)
        cum = np.cumsum(dm.probabilities())
        cum[-1] = 1.0
        for shots in (100, 5000):
            ref = np.searchsorted(cum, make_rng(2).random(shots), side="right")
            np.testing.assert_array_equal(
                dm.sample(shots, [2, 0], make_rng(2)),
                _shift_mask_bits(ref, [2, 0], 3),
            )


class TestNonFiniteStates:
    def test_set_statevector_rejects_nan(self):
        sv = StatevectorBackend(2)
        with pytest.raises(BackendError, match="non-finite"):
            sv.set_statevector(np.array([np.nan, 1, 0, 0]))

    def test_set_statevector_rejects_zero(self):
        sv = StatevectorBackend(2)
        with pytest.raises(BackendError, match="zero norm"):
            sv.set_statevector(np.zeros(4))
        with pytest.raises(BackendError, match="zero norm"):
            sv.set_statevector(np.zeros(4), normalize=True)

    @pytest.mark.parametrize("shots", [10, 10_000])
    def test_serial_sampling_rejects_nan_state(self, shots):
        sv = StatevectorBackend(2)
        sv.statevector[1] = np.nan
        with pytest.raises(BackendError, match="non-finite"):
            sv.sample(shots, [0, 1], make_rng(0))
        with pytest.raises(BackendError, match="non-finite"):
            sv.probabilities()

    def test_serial_sampling_rejects_infinite_state(self):
        sv = StatevectorBackend(2)
        sv.statevector[3] = np.inf
        with pytest.raises(BackendError, match="non-finite"):
            sv.sample(10, [0, 1], make_rng(0))

    @pytest.mark.parametrize("shots", [10, 10_000])
    def test_stacked_sampling_rejects_nan_row(self, shots):
        stacked = BatchedStatevectorBackend(2, batch_size=2)
        stacked.statevector(1)[0] = np.nan
        with pytest.raises(BackendError, match="non-finite"):
            stacked.cumulative_stack()
        with pytest.raises(BackendError, match="non-finite"):
            stacked.sample_indices(1, shots, make_rng(0))
        with pytest.raises(BackendError, match="non-finite"):
            stacked.probabilities(1)

    def test_density_matrix_rejects_nan(self):
        dm = DensityMatrixBackend(1)
        dm._rho[0, 0] = np.nan
        with pytest.raises(BackendError, match="non-finite"):
            dm.sample(10, [0], make_rng(0))

    def test_partitioned_state_rejects_nan(self):
        dist = DistributedStatevector(3, DeviceMesh(2))
        dist.slices[0][0] = np.nan
        with pytest.raises(DeviceError, match="non-finite"):
            dist.sample(10, [0, 1, 2], make_rng(0))
