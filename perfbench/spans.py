"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

:class:`Tracer` swaps each layer's public entry point for a wrapper that
records a span (name, start, end, parent span, request id) and the counts
the layer metrics need, and puts the originals back on :meth:`uninstall`.
Spans nest as the calls do: request -> pts / router / plan / exec ->
stack / sv / frames / tn -> kernel.  They stay in memory and are written
once, as Chrome trace-event JSON that Perfetto opens offline.

``exec`` is the time the consumer blocks in ``StreamedResult.__next__``:
the executor skeleton and the delivery layer run there, so its self time
(the wait minus child-layer spans) is the skeleton's own overhead.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Per-layer metrics of the traced run, with their units.
LAYER_METRICS: Dict[str, str] = {
    "pts.sample_s": "s",
    "pts.specs": "count",
    "pts.unique_ratio": "fraction",
    "router.resolve_s": "s",
    "router.cache_misses": "count",
    "plan.compile_s": "s",
    "plan.cache_misses": "count",
    "exec.wait_s": "s",
    "exec.self_s": "s",
    "exec.chunks": "count",
    "exec.dedup_ratio": "fraction",
    "exec.holdback_max": "count",
    "stack.prep_s": "s",
    "stack.rows": "count",
    "stack.sample_s": "s",
    "sv.prep_s": "s",
    "sv.sample_s": "s",
    "sv.preps": "count",
    "kernel.apply_s": "s",
    "kernel.apply_calls": "count",
    "kernel.apply_bytes": "B",
    "kernel.apply_gbps": "GB/s",
    "kernel.norm_s": "s",
    "kernel.scale_s": "s",
    "frames.compile_s": "s",
    "frames.compiles": "count",
    "frames.prep_s": "s",
    "frames.sample_s": "s",
    "tn.compile_s": "s",
    "tn.replay_s": "s",
    "tn.env_s": "s",
    "tn.sample_s": "s",
    "tn.sample_calls": "count",
    "ref.serial_shots_per_s": "shots/s",
    "ref.batch_speedup": "ratio",
    "trace.overhead": "fraction",
    "trace.unattributed_s": "s",
}

# A span is a mutable list for speed: [name, start, end, parent index,
# request id].  Parent -1 marks a root.
NAME, START, END, PARENT, REQUEST = range(5)


def _stack_bytes(stack) -> float:
    """Computed bytes one stacked kernel call moves: read + write of the stack."""
    rows, dim = stack.shape if stack.ndim == 2 else (1, stack.shape[0])
    return 2.0 * rows * dim * stack.itemsize


def _layer_points() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, counter) for every wrapped entry point.

    Module functions are wrapped at the names their callers resolve at call
    time, so one function bound in two modules is wrapped in both.
    """
    import repro.backends.batched_statevector as bsv
    import repro.backends.statevector as sv
    import repro.execution.plan as plan
    import repro.execution.router as router
    import repro.execution.tensornet as tn
    import repro.execution.vectorized as vec
    from repro.backends.pauli_frame import FrameSampler
    from repro.execution.streaming import StreamedResult

    def rows(tracer, args, kwargs, result):
        tracer.count("stack.rows", len(args[2]))

    def kernel_bytes(tracer, args, kwargs, result):
        tracer.count("kernel.apply_bytes", _stack_bytes(args[0]))

    def chunk(tracer, args, kwargs, result):
        tracer.count("exec.chunks", 1)

    points = [
        (router, "resolve_strategy", "router.resolve", None),
        (plan, "get_fused_plan", "plan.get", None),
        (vec, "get_fused_plan", "plan.get", None),
        (plan, "build_fused_plan", "plan.build", None),
        (StreamedResult, "__next__", "exec", chunk),
        (bsv.BatchedStatevectorBackend, "run_fixed_stack", "stack.prep", rows),
        (bsv.BatchedStatevectorBackend, "sample", "stack.sample", None),
        (sv.StatevectorBackend, "run_fixed", "sv.prep", None),
        (sv.StatevectorBackend, "sample", "sv.sample", None),
        (FrameSampler, "__init__", "frames.compile", None),
        (FrameSampler, "frame_for_choices", "frames.prep", None),
        (FrameSampler, "sample_fixed", "frames.sample", None),
        (tn, "compile_schedule", "tn.compile", None),
        (tn, "replay_schedule", "tn.replay", None),
        (tn, "compute_right_environments_batched", "tn.env", None),
        (tn, "sample_cached", "tn.sample", None),
    ]
    for module in (bsv, sv):
        points += [
            (module, "apply_compiled_stack", "kernel.apply", kernel_bytes),
            (module, "apply_matrix_stack", "kernel.apply", kernel_bytes),
            (module, "row_norms_squared", "kernel.norm", None),
            (module, "scale_rows_inverse_sqrt", "kernel.scale", None),
        ]
    return points


class Tracer:
    """In-memory span and counter recorder around the layers' entry points."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        self.request = -1
        self._open: List[int] = []
        self._restore: List[Tuple[object, str, object, bool]] = []
        self._held: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def count(self, key: str, value: float) -> None:
        self.counts[(self.request, key)] += value

    def begin(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, self.request]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._open.pop()

    def start_request(self, request: int) -> list:
        self.request = request
        self._held.clear()
        return self.begin("request")

    def wrap(self, owner, attr: str, name: str, counter: Optional[Callable] = None) -> None:
        # Class attributes are restored from the class's own dict so an
        # inherited method is not copied onto the subclass.
        own = attr in vars(owner) if isinstance(owner, type) else True
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original, own))

    def install(self, sampler_class: type) -> None:
        """Wrap every layer entry point, plus the workload's PTS sampler."""
        from repro.execution.streaming import OrderedDelivery

        def pts(tracer, args, kwargs, result):
            tracer.count("pts.specs", len(result.specs))
            tracer.count("pts.attempted", result.attempted_samples)

        self.wrap(sampler_class, "sample", "pts.sample", pts)
        for owner, attr, name, counter in _layer_points():
            self.wrap(owner, attr, name, counter)

        original_add = OrderedDelivery.add
        tracer = self

        def add(delivery, completions, *args, **kwargs):
            # Completions buffered behind a missing earlier position: the
            # reorder buffer's hold-back (``outstanding`` also counts work
            # still in flight, so it is not used here).
            ready = original_add(delivery, completions, *args, **kwargs)
            key = id(delivery)
            held = tracer._held.get(key, 0) + len(completions) - len(ready)
            tracer._held[key] = held
            peak = (tracer.request, "exec.holdback_max")
            tracer.counts[peak] = max(tracer.counts[peak], held)
            return ready

        OrderedDelivery.add = add
        self._restore.append((OrderedDelivery, "add", original_add, True))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def self_seconds_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[NAME]] += own
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def layer_metrics(self, requests: Sequence[int]) -> Dict[str, float]:
        """Per-request medians of busy time and counts over ``requests``.

        A layer's busy time counts only its outermost spans, so a nested
        call of the same layer (``plan.get`` -> ``plan.build``) is not
        counted twice.
        """
        own = self.self_times()
        names = [s[NAME] for s in self.spans]
        busy: Dict[Tuple[int, str], float] = defaultdict(float)
        calls: Dict[Tuple[int, str], int] = defaultdict(int)
        selfs: Dict[Tuple[int, str], float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            name, request = span[NAME], span[REQUEST]
            layer, dot, _ = name.partition(".")
            parent = span[PARENT]
            if dot and (parent < 0 or not names[parent].startswith(layer + ".")):
                busy[(request, layer)] += span[END] - span[START]
            busy[(request, name)] += span[END] - span[START]
            calls[(request, name)] += 1
            selfs[(request, name)] += own[i]

        def med(table, key):
            return statistics.median(table.get((r, key), 0) for r in requests)

        apply_s = sum(busy.get((r, "kernel.apply"), 0.0) for r in requests)
        apply_bytes = sum(self.counts.get((r, "kernel.apply_bytes"), 0.0) for r in requests)
        unique = [
            self.counts[(r, "pts.specs")] / self.counts[(r, "pts.attempted")]
            for r in requests
            if self.counts.get((r, "pts.attempted"))
        ]
        dedup = [
            self.counts[(r, "exec.unique")] / self.counts[(r, "exec.trajectories")]
            for r in requests
            if self.counts.get((r, "exec.trajectories"))
        ]
        return {
            "pts.sample_s": med(busy, "pts.sample"),
            "pts.specs": med(self.counts, "pts.specs"),
            "pts.unique_ratio": statistics.median(unique) if unique else 0.0,
            "router.resolve_s": med(busy, "router.resolve"),
            "plan.compile_s": med(busy, "plan"),
            "exec.wait_s": med(busy, "exec"),
            "exec.self_s": med(selfs, "exec"),
            "exec.chunks": med(self.counts, "exec.chunks"),
            "exec.dedup_ratio": statistics.median(dedup) if dedup else 0.0,
            "exec.holdback_max": max(
                (self.counts.get((r, "exec.holdback_max"), 0) for r in requests), default=0
            ),
            "stack.prep_s": med(busy, "stack.prep"),
            "stack.rows": med(self.counts, "stack.rows"),
            "stack.sample_s": med(busy, "stack.sample"),
            "sv.prep_s": med(busy, "sv.prep"),
            "sv.sample_s": med(busy, "sv.sample"),
            "sv.preps": med(calls, "sv.prep"),
            "kernel.apply_s": med(busy, "kernel.apply"),
            "kernel.apply_calls": med(calls, "kernel.apply"),
            "kernel.apply_bytes": med(self.counts, "kernel.apply_bytes"),
            "kernel.apply_gbps": apply_bytes / apply_s / 1e9 if apply_s else 0.0,
            "kernel.norm_s": med(busy, "kernel.norm"),
            "kernel.scale_s": med(busy, "kernel.scale"),
            "frames.compile_s": med(busy, "frames.compile"),
            "frames.compiles": med(calls, "frames.compile"),
            "frames.prep_s": med(busy, "frames.prep"),
            "frames.sample_s": med(busy, "frames.sample"),
            "tn.compile_s": med(busy, "tn.compile"),
            "tn.replay_s": med(busy, "tn.replay"),
            "tn.env_s": med(busy, "tn.env"),
            "tn.sample_s": med(busy, "tn.sample"),
            "tn.sample_calls": med(calls, "tn.sample"),
            "trace.unattributed_s": med(selfs, "request"),
        }

    def chrome_trace(self, metadata: Dict) -> Dict:
        """The spans as Chrome trace-event JSON (complete ``X`` events)."""
        origin = min((s[START] for s in self.spans), default=0.0)
        events = [
            {
                "name": s[NAME],
                "cat": s[NAME].split(".")[0],
                "ph": "X",
                "ts": (s[START] - origin) * 1e6,
                "dur": (s[END] - s[START]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "request": s[REQUEST],
                    "parent": self.spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None,
                },
            }
            for s in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {**metadata, "self_seconds": self.self_seconds_by_name()},
        }

    def write(self, path, metadata: Dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace(metadata)))
