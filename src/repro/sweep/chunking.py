"""Task chunking for the sweep dispatcher.

The dispatcher never ships :class:`~repro.sweep.runner.SweepTask` objects
to workers per-call -- workers hydrate the whole grid once (fork
copy-on-write, or one pickled blob per worker under ``spawn``) and then
receive only *index chunks*: tuples of positions into that shared grid.
One chunk costs one IPC round-trip regardless of how many tasks it holds,
which is the whole point -- at chunk size ``k`` the per-task dispatch
overhead is ``1/k`` of a round-trip.

The functions here are pure and order-preserving, and the property suite
(``tests/sweep/test_chunking_props.py``) pins the contract: chunks
partition ``range(n)`` with no loss, no duplication, and no reordering,
which is what lets the ordered merge reproduce serial output byte-for-byte.
"""

from __future__ import annotations

__all__ = ["chunk_indices", "resolve_chunk_size"]

#: auto mode aims for this many chunks per worker, so a slow task only
#: stalls 1/OVERSUBSCRIBE of one worker's share instead of a whole stripe
OVERSUBSCRIBE = 4

#: auto mode never grows a chunk past this, so progress/fault granularity
#: stays bounded even on huge grids
MAX_AUTO_CHUNK = 32


def resolve_chunk_size(n_tasks: int, workers: int, chunk_size: int | None = None) -> int:
    """Pick the chunk size for a grid of ``n_tasks`` over ``workers``.

    ``chunk_size=None`` is the auto policy: roughly :data:`OVERSUBSCRIBE`
    chunks per worker (capped at :data:`MAX_AUTO_CHUNK`), so uniform grids
    amortize dispatch while skewed grids still load-balance.  An explicit
    size is validated and passed through.
    """
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        return chunk_size
    if n_tasks <= 0 or workers < 1:
        return 1
    auto = -(-n_tasks // (workers * OVERSUBSCRIBE))  # ceil division
    return max(1, min(auto, MAX_AUTO_CHUNK))


def chunk_indices(n_tasks: int, chunk_size: int) -> list[tuple[int, ...]]:
    """Split ``range(n_tasks)`` into contiguous, order-preserving chunks.

    Every chunk is non-empty, at most ``chunk_size`` long, and the
    concatenation of all chunks is exactly ``0..n_tasks-1`` in order.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        tuple(range(start, min(start + chunk_size, n_tasks)))
        for start in range(0, n_tasks, chunk_size)
    ]
