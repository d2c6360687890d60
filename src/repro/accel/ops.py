"""Scalar kernels for the hot datapath math.

Serialization schedules for runs of frames on a link, per-line frame
digest signatures for CRC coverage, DRAM bank service windows for burst
transactions, the latency recorders' sample sort and the DSE effects
model's linear solve. Every float operation here runs in a fixed
association order, so simulated timestamps and digests repeat
bit-for-bit for a seed.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Sequence, Tuple

# The benchmark harness records NAME in its provenance and wraps the five
# kernels below by name, so both must stay even with one implementation.
NAME = "python"

#: Compiled ``frame_digest`` layouts by signature length. A line takes
#: at least one flit, so lengths stay within ``flits_per_frame``.
_DIGEST_STRUCTS: Dict[int, struct.Struct] = {}


def serialization_schedule(
    start_s: float, sizes_bytes: Sequence[int], payload_bits_per_s: float
) -> List[float]:
    """Wire-occupancy boundaries for frames serialized back to back.

    Returns ``len(sizes_bytes) + 1`` instants: frame ``i`` occupies
    ``[bounds[i], bounds[i + 1])``. Accumulation is strictly sequential
    (``((start + t0) + t1) + ...``), which fixes the link timestamps
    bit-for-bit.
    """
    bounds = [start_s]
    cursor = start_s
    for size in sizes_bytes:
        cursor = cursor + size * 8 / payload_bits_per_s
        bounds.append(cursor)
    return bounds


def frame_digest(
    identity: int, entries: Iterable[Tuple[int, int, int]]
) -> bytes:
    """Canonical digest bytes of one LLC frame's transaction headers.

    ``entries`` holds ``(txn_id, command_value, burst)`` per
    transaction; a burst contributes one signature per cacheline (the
    per-line headers the unbatched formulation would put on the wire),
    so CRC coverage is identical in both formulations.
    """
    signature: List[int] = []
    for txn_id, command_value, burst in entries:
        first = txn_id * 131 + command_value
        if burst == 1:
            signature.append(first)
        else:
            # Line ``k`` signs as ``(txn_id + k) * 131 + command_value``.
            signature.extend(range(first, first + 131 * burst, 131))
    count = len(signature)
    packer = _DIGEST_STRUCTS.get(count)
    if packer is None:
        packer = _DIGEST_STRUCTS[count] = struct.Struct(f"<Q{count}q")
    return packer.pack(identity & 0xFFFFFFFFFFFFFFFF, *signature)


def sort_values(values: Sequence[float]) -> List[float]:
    """Ascending sort of latency samples (CDF/percentile preparation)."""
    return sorted(values)


def solve_linear_system(
    matrix: Sequence[Sequence[float]], rhs: Sequence[float]
) -> List[float]:
    """Solve ``matrix @ x = rhs`` by Gaussian elimination.

    Partial pivoting (first row of maximal magnitude), in-place
    elimination over an augmented copy, sequential back-substitution.
    The DSE effects models feed this their (ridge-regularized) normal
    equations; systems are small and dense. Raises
    ``ZeroDivisionError`` on a singular pivot column. Rows whose
    factor is zero are skipped, which preserves signed zeros.
    """
    n = len(rhs)
    a = [list(map(float, matrix[i])) + [float(rhs[i])] for i in range(n)]
    for k in range(n):
        pivot = k
        best = abs(a[k][k])
        for r in range(k + 1, n):
            magnitude = abs(a[r][k])
            if magnitude > best:
                best = magnitude
                pivot = r
        if best == 0.0:
            raise ZeroDivisionError(f"singular system at column {k}")
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
        base = a[k]
        for r in range(k + 1, n):
            row = a[r]
            factor = row[k] / base[k]
            if factor == 0.0:
                continue
            for j in range(k, n + 1):
                row[j] -= factor * base[j]
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        row = a[k]
        acc = row[n]
        for j in range(k + 1, n):
            acc -= row[j] * x[j]
        x[k] = acc / row[k]
    return x


def bank_service_windows(
    starts_s: Sequence[float],
    line_counts: Sequence[int],
    banks: int,
    access_latency_s: float,
    line_transfer_s: float,
) -> Tuple[List[float], List[int]]:
    """Completion instants and bank occupancy for a batch of bursts.

    Lines of one burst proceed in parallel across banks, so each
    burst's service is a single per-line interval regardless of length
    (see ``DramDevice._access_burst``); occupancy is capped at the
    device's bank count.
    """
    service = access_latency_s + line_transfer_s
    completions = [start + service for start in starts_s]
    slots = [lines if lines < banks else banks for lines in line_counts]
    return completions, slots
