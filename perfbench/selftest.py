"""Self-tests of the benchmark (run: ``python3 -m pytest perfbench/selftest.py -q``).

Each workload runs at reduced input size in both modes; every named metric
must be emitted with its unit, and the correctness gates must reject
corrupted outputs.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

from repro import BackendSpec, ProbabilisticPTS, ShotTable, run_ptsbe  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import (  # noqa: E402
    CheckFailed,
    brickwork,
    check_frame_marginals,
    clifford_msd,
    require_tables_equal,
    workloads,
)

NAMES = sorted(workloads(small=True))


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_emitted_with_units(name):
    result, lines = run.run(name, seed=3, seconds=0.3, trace=0, small=True)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert result["metrics"] == {
        metric: {"value": result["metrics"][metric]["value"], "unit": unit}
        for metric, unit in run.E2E_METRICS.items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)


@pytest.mark.parametrize("name", NAMES)
def test_layer_metrics_emitted_with_units(name):
    result, lines = run.run(name, seed=3, seconds=0.3, trace=1, small=True)
    assert result["correct"], lines
    assert {k: m["unit"] for k, m in result["metrics"].items()} == LAYER_METRICS
    assert result["metrics"]["router.cache_misses"]["value"] == 0
    assert result["metrics"]["plan.cache_misses"]["value"] == 0


def test_trace_spans_nest_by_layer():
    run.run("dense-prep", seed=3, seconds=0.3, trace=1, small=True)
    trace = json.loads((run.OUT / "trace-dense-prep-seed3.json").read_text())
    parents = {(e["name"], e["args"]["parent"]) for e in trace["traceEvents"]}
    assert {
        ("pts.sample", "request"),
        ("router.resolve", "request"),
        ("exec", "request"),
        ("stack.prep", "exec"),
        ("kernel.apply", "stack.prep"),
        ("kernel.norm", "stack.prep"),
    } <= parents
    assert ("request", None) in parents
    assert trace["otherData"]["self_seconds"]["kernel.apply"] > 0


def test_dense_gate_rejects_one_flipped_bit():
    circuit = brickwork(6, 2)
    sampler = lambda: ProbabilisticPTS(32, 16)  # noqa: E731
    table = run_ptsbe(
        circuit, sampler(), BackendSpec.batched_statevector(), seed=5, strategy="vectorized"
    ).shot_table()
    reference = run_ptsbe(circuit, sampler(), seed=5, strategy="serial").shot_table()
    require_tables_equal("vectorized", table, {"serial": reference})
    bits = reference.bits.copy()
    bits[len(bits) // 2, 0] ^= 1
    flipped = ShotTable(bits, reference.trajectory_ids, reference.measured_qubits)
    with pytest.raises(CheckFailed):
        require_tables_equal("vectorized", table, {"serial": flipped})


def test_frame_gate_rejects_correlated_neighbours():
    circuit = clifford_msd(2)
    result = run_ptsbe(circuit, ProbabilisticPTS(16, 4000), seed=2)
    assert result.engine == "clifford"
    trajectory = result.trajectories[0]
    check_frame_marginals(circuit, [trajectory])
    # Every outcome of this circuit is equally likely, so a bit-extraction
    # bug that copies one column into its neighbour shows only in the
    # two-bit marginals.
    bits = trajectory.bits.copy()
    bits[:, 1] = bits[:, 0]
    corrupted = type(trajectory)(
        record=trajectory.record,
        bits=bits,
        actual_weight=trajectory.actual_weight,
        prep_seconds=0.0,
        sample_seconds=0.0,
    )
    with pytest.raises(CheckFailed):
        check_frame_marginals(circuit, [corrupted])


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
