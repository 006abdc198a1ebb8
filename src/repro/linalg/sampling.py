"""Bulk shot sampling kernels shared by every dense engine.

Once a trajectory is prepared, drawing its shots is two steps: map each
uniform ``u`` to a basis-state index through the state's cumulative
distribution (inverse-CDF sampling), then turn each index into the
measured bit columns.  This module holds the one implementation of each.
The serial and stacked statevector backends, the density-matrix oracle
and the device-partitioned statevector all call it, so their shots agree
bit for bit.

**Search.**  :func:`inverse_cdf` returns exactly
``searchsorted(cum, u, side="right")``: the same index for every uniform.
Past the crossover (at least one uniform per CDF entry, and at least
4096) it runs a bucketed search over a guide table (Chen & Asau, 1974)
instead of one branchy binary search per uniform.  Why it is exact:

* The table has ``M`` buckets, a power of two (``len(cum)`` rounded up
  to a power of two, times ``2**_GUIDE_SHIFT``, at most ``2**17``).  So
  ``u * M`` and ``cum * M`` are exact in float64, and ``floor(u * M)``
  names the bucket ``[k/M, (k+1)/M)`` that holds ``u``.
* ``lo[k] = #{j : cum[j] <= k/M}`` is the answer at the bucket's left
  edge.  The answer is monotone in ``u``, so every ``u`` in bucket ``k``
  maps into ``[lo[k], lo[k+1]]``.  The table is built in
  ``O(len(cum) + M)`` with one ``bincount`` of ``ceil(cum * M)`` and one
  ``cumsum``.
* A bucket whose bracket is empty is answered by the table alone.  The
  rest are searched by a vectorised binary search over their brackets,
  as many halvings as the widest bracket needs.  On a 12-qubit state
  about 5% of uniforms need a search.

The expected cost is ``O(len(cum) + m)`` for ``m`` uniforms, against
``O(m log len(cum))`` for the whole-array ``searchsorted``, whose
per-uniform branch mispredictions dominate on a cache-resident CDF.  The
backends clamp ``cum[-1]`` to 1.0, which can leave the entries just
before it an ulp above 1.0.  Every uniform is below both, so the count
above still equals the insertion point.  Below the crossover the table
would cost more to build than it saves, and plain ``searchsorted`` runs;
it also runs past ``2**20`` CDF entries, where the table is unmeasured.
On a device module (CuPy) ``xp.searchsorted`` is already a parallel
search, so it is used at every size.  The table is built per call: each
trajectory is sampled once, right after it is prepared, so a cached
table would never be reused.

**Bits.**  :func:`bits_from_indices` gathers whole rows of a cached
``(2**w, len(qubits))`` uint8 bit table, one table per ``w``-bit slice
of the index (one slice up to 16 qubits, two of at most 13 bits up to
26), OR-ing the slices.  The cache holds about 2 MiB of tables.  A row gather runs at memory speed, where
shifting and masking the index against every qubit materialises two
``(m, len(qubits))`` uint64 temporaries.  Unpacking the index bytes
with ``unpackbits`` and then selecting columns by a fancy index is no
substitute: 5.4 ms against the gather's 1.0 ms for 250k 12-qubit shots.

Measured on a 2-vCPU Xeon VM, per 250k-shot draw from the 12-qubit
brickwork state of the ``dense-shots`` perfbench workload (medians of 41
calls, three rounds): search 23-27 ms -> 2.4-2.8 ms plus a 0.2 ms table
build, bit extraction 25-27 ms -> 1.0-1.4 ms, the whole
``StatevectorBackend.sample`` 53-55 ms -> 4.7-5.8 ms.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BackendError

__all__ = ["bits_from_indices", "check_norm", "inverse_cdf"]

#: Guide-table refinement: a table over ``len(cum)`` entries has
#: ``len(cum) << _GUIDE_SHIFT`` buckets (an eighth of an entry per bucket
#: on average), capped at ``2**_GUIDE_MAX_BITS`` buckets so the table
#: (8 bytes a bucket, 1 MiB at the cap) stays in a core's L2.  Shift 3
#: beat shift 2 in 9 of 10 rounds of 250k draws from a 12-qubit
#: brickwork state (median 4.4 against 5.1 ms, before the search was
#: blocked); shift 4 was faster still but its table build cost more than
#: it saved near the crossover at 14-16 qubits.
_GUIDE_SHIFT = 3
_GUIDE_MAX_BITS = 17

#: Fewest draws a guide table pays for, whatever the CDF's length: below
#: this the search's fixed per-call cost (~15 array calls) exceeds what
#: ``searchsorted`` spends.  The measured break-even was 2.5k-4k draws at
#: 6 to 12 qubits.
_MIN_TABLE_DRAWS = 4096

#: Most CDF entries a guide table is used for.  From 15 qubits up the
#: buckets are capped, so a bracket spans several entries and nearly
#: every uniform is searched; the table still beat ``searchsorted`` 2-3x
#: at one draw per entry on Porter-Thomas states (15q 6.0 -> 3.0 ms,
#: 18q 83 -> 38 ms, 20q 572 -> 234 ms; 2-vCPU Xeon VM, medians of 7).
#: Wider states are unmeasured (a draw per entry there takes hundreds of
#: MiB) and keep ``searchsorted``.
_MAX_TABLE_ENTRIES = 1 << 20

#: Uniforms bucketed per block of the guide-table search (a 512 KiB
#: index buffer).  Bucketing all uniforms into one full-length buffer
#: measured 3.5 ms per 250k draws against 2.5 ms in 64k blocks: the
#: second full-length temporary is written once and never cached.
_SEARCH_BLOCK = 1 << 16

#: Widest index slice served by one bit table: a table holds at most
#: ``2**16`` rows of ``len(qubits)`` bytes (1 MiB at 16 qubits).
_BIT_TABLE_BITS = 16

#: Bytes of bit tables kept cached.  Once the total passes this, the least
#: recently used qubit lists are evicted; the newest is always kept.  One
#: request measures one or two qubit lists.
_BIT_CACHE_BYTES = 2 << 20

_bit_cache: Dict[Tuple[int, Tuple[int, ...]], Tuple[Tuple[int, np.ndarray], ...]] = {}
_bit_cache_bytes = 0
_bit_cache_lock = threading.Lock()


def check_norm(total: Any, what: str) -> None:
    """Raise :class:`BackendError` unless the squared norm ``total`` is
    finite and positive.

    A NaN or infinite norm would otherwise pass a ``total <= 0`` guard and
    sample garbage (a NaN CDF maps every uniform to index 0).
    """
    value = float(total)
    if not math.isfinite(value):
        raise BackendError(f"{what} has a non-finite norm ({value})")
    if value <= 0:
        raise BackendError(f"{what} has zero norm")


def _table_pays(xp: Any, num_entries: int, num_draws: int) -> bool:
    """True when a guide table over ``num_entries`` pays for ``num_draws``.

    The crossover is one draw per CDF entry (building the table costs
    about as much as searching ``num_entries`` uniforms with it), and at
    least ``_MIN_TABLE_DRAWS``.  Never on a device module, whose
    ``searchsorted`` is already a parallel search, nor past
    ``_MAX_TABLE_ENTRIES``.
    """
    return (
        xp is np
        and num_entries <= _MAX_TABLE_ENTRIES
        and num_draws >= max(num_entries, _MIN_TABLE_DRAWS)
    )


def _guide_table(cum: Any, xp: Any) -> Any:
    """The guide table of a host cumulative distribution.

    An ``(M + 1,)`` intp array.  Entry ``k`` is
    ``lo[k] = #{j : cum[j] <= k / M}``.  A bucket whose bracket
    ``[lo[k], lo[k + 1]]`` holds at least one entry stores ``~lo[k]``
    (negative) instead, so one gather both answers the settled uniforms
    and flags the rest.
    """
    m = 1 << min((cum.shape[0] - 1).bit_length() + _GUIDE_SHIFT, _GUIDE_MAX_BITS)
    # ceil(cum * M) is exact.  Entries an ulp above 1.0 (before a clamped
    # tail) join edge M, which only widens the top bucket's bracket.
    edges = cum * m
    xp.ceil(edges, out=edges)
    xp.minimum(edges, m, out=edges)
    table = xp.cumsum(xp.bincount(edges.astype(xp.intp), minlength=m + 1))
    head = table[:-1]
    xp.invert(head, out=head, where=table[1:] != head)
    return table


def inverse_cdf(cum: Any, u: Any, xp: Optional[Any] = None) -> Any:
    """``searchsorted(cum, u, side="right")``, bitwise, for uniforms in [0, 1).

    ``cum`` is a non-decreasing float64 CDF whose last entry is clamped
    to 1.0, and ``u`` float64 uniforms on the same module ``xp`` (NumPy
    when omitted).  Returns intp indices.
    """
    if xp is None:
        xp = np
    if not _table_pays(xp, cum.shape[0], u.shape[0]):
        return xp.searchsorted(cum, u, side="right")
    table = _guide_table(cum, xp)
    m = table.shape[0] - 1
    out = xp.empty(u.shape, dtype=xp.intp)
    # Bucket and gather a block at a time: the block's bucket indices
    # (floor(u * M), exact, cast straight into an intp buffer) stay in
    # cache, and the only full-length array written is ``out``.
    bucket = xp.empty(min(u.shape[0], _SEARCH_BLOCK), dtype=xp.intp)
    for start in range(0, u.shape[0], _SEARCH_BLOCK):
        block = u[start : start + _SEARCH_BLOCK]
        b = bucket[: block.shape[0]]
        xp.multiply(block, m, out=b, casting="unsafe")
        # Bucket indices are always in range; "clip" lets take write
        # straight into ``out`` ("raise" would stage through a copy).
        xp.take(table, b, out=out[start : start + _SEARCH_BLOCK], mode="clip")
    pending = xp.flatnonzero(out < 0)
    if pending.shape[0]:
        # Uniform i's answer lies in [lo, hi], the decoded bracket of its
        # bucket; search it by halving.
        v = u[pending]
        lo = ~out[pending]
        hi = xp.empty(v.shape, dtype=xp.intp)
        xp.multiply(v, m, out=hi, casting="unsafe")
        hi = table[hi + 1]
        xp.invert(hi, out=hi, where=hi < 0)
        # As many halvings as the widest bracket needs: a settled entry
        # (lo == hi, the answer, whose cum exceeds v) stays put.
        for _ in range(int(xp.max(hi - lo)).bit_length()):
            mid = lo + hi
            mid >>= 1
            right = cum[mid] <= v
            xp.copyto(hi, mid, where=~right)
            mid += 1
            xp.copyto(lo, mid, where=right)
        out[pending] = lo
    return out


def _build_bit_tables(
    num_qubits: int, qubits: Tuple[int, ...]
) -> Tuple[Tuple[int, np.ndarray], ...]:
    """``(shift, table)`` per index slice; ``table[v]`` holds the bits of
    ``qubits`` that slice ``v`` of an index carries (zero elsewhere).
    Built a column at a time, so no temporary is wider than one column."""
    slices = -(-num_qubits // _BIT_TABLE_BITS)
    width = -(-num_qubits // slices)
    out = []
    for shift in range(0, num_qubits, width):
        values = np.arange(1 << min(width, num_qubits - shift), dtype=np.uint32)
        table = np.zeros((values.shape[0], len(qubits)), dtype=np.uint8)
        for col, q in enumerate(qubits):
            local = num_qubits - 1 - q - shift
            if 0 <= local < width:
                table[:, col] = (values >> local) & 1
        table.setflags(write=False)
        out.append((shift, table))
    return tuple(out)


def _bit_tables(num_qubits: int, qubits: Tuple[int, ...]) -> Tuple[Tuple[int, np.ndarray], ...]:
    """The cached bit tables of ``qubits``, held to ``_BIT_CACHE_BYTES``."""
    global _bit_cache_bytes
    key = (num_qubits, qubits)
    with _bit_cache_lock:
        tables = _bit_cache.pop(key, None)
        if tables is None:
            tables = _build_bit_tables(num_qubits, qubits)
            _bit_cache_bytes += sum(t.nbytes for _, t in tables)
        _bit_cache[key] = tables  # most recently used last
        while _bit_cache_bytes > _BIT_CACHE_BYTES and len(_bit_cache) > 1:
            oldest = _bit_cache.pop(next(iter(_bit_cache)))
            _bit_cache_bytes -= sum(t.nbytes for _, t in oldest)
    return tables


def bits_from_indices(indices: Any, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Extract bit columns for ``qubits`` from basis-state indices.

    Qubit 0 is the most significant bit of an index (library convention).
    Always host NumPy: shot indices cross the array-module boundary before
    they become :class:`~repro.execution.results.ShotTable` rows.
    Returns ``(len(indices), len(qubits))`` uint8.
    """
    qubits = tuple(int(q) for q in qubits)
    if any(q < 0 or q >= num_qubits for q in qubits):
        raise BackendError(f"qubits {list(qubits)} out of range for {num_qubits} qubits")
    indices = np.asarray(indices, dtype=np.intp).reshape(-1)
    if not qubits:
        return np.zeros((indices.shape[0], 0), dtype=np.uint8)
    tables = _bit_tables(int(num_qubits), qubits)
    if len(tables) == 1:
        return np.take(tables[0][1], indices, axis=0)
    out = np.zeros((indices.shape[0], len(qubits)), dtype=np.uint8)
    for shift, table in tables:
        out |= np.take(table, (indices >> shift) & (table.shape[0] - 1), axis=0)
    return out
