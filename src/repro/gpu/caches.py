"""Functional set-associative cache model with LRU replacement.

Used for the vertex cache and the tile cache, whose hit/miss behaviour
feeds the activity factors of Figure 11 (tile-cache loads and misses)
and the energy model.  Addresses are synthetic byte addresses assigned
by the producing stage (e.g. polygon-list record offsets).
"""

from __future__ import annotations

import numpy as np

from repro.gpu.config import CacheConfig


class Cache:
    """Set-associative LRU cache over non-negative byte addresses.

    Each set is a Python list of resident line numbers in recency
    order, most recently used last: a hit moves the line to the end, a
    miss appends it and, when the set already holds ``ways`` lines,
    evicts the first (least recently used) one.  A set fills its empty
    ways before it evicts anything.  The hot path is
    :meth:`access_many`, which collapses consecutive same-line
    accesses (always hits that leave the recency order unchanged) and
    walks the remaining line stream in one loop.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._ways = config.ways
        self._sets: list[list[int]] = [[] for _ in range(self._num_sets)]
        self.accesses = 0
        self.misses = 0

    def reset_stats(self) -> None:
        self.accesses = 0
        self.misses = 0

    def flush(self) -> None:
        """Invalidate all lines (between frames, if desired)."""
        for lines in self._sets:
            lines.clear()

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def access(self, address: int) -> bool:
        """Touch one byte address; returns True on hit."""
        return self.access_line(address // self._line_bytes)

    def access_line(self, line: int) -> bool:
        """Touch one line number; returns True on hit."""
        return not self._walk((line,))

    def access_range(self, address: int, length: int) -> int:
        """Touch every line of ``[address, address+length)``; returns misses."""
        if length <= 0:
            return 0
        first = address // self._line_bytes
        last = (address + length - 1) // self._line_bytes
        return len(self._walk(range(first, last + 1)))

    def access_many(
        self, addresses: np.ndarray, offsets: np.ndarray | None = None
    ) -> int | np.ndarray:
        """Touch a sequence of byte addresses in order; returns misses.

        With ``offsets`` (CSR boundaries ``offsets[k]:offsets[k+1]`` of
        consecutive segments of ``addresses``), returns the ``(k,)``
        int64 array of misses per segment instead of the total, so one
        pass over a long stream can still be charged piecewise.
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        lines = addrs // self._line_bytes
        # Consecutive accesses to the same line are all hits that leave
        # the recency order as it is: only the first of a run is walked.
        keep = np.ones(lines.shape[0], dtype=bool)
        keep[1:] = lines[1:] != lines[:-1]
        walked = np.flatnonzero(keep)
        missed = self._walk(lines[walked].tolist())
        # The collapsed duplicates still count as (hit) accesses.
        self.accesses += lines.shape[0] - walked.shape[0]
        if offsets is None:
            return len(missed)
        miss_positions = walked[np.asarray(missed, dtype=np.int64)]
        per_segment = np.bincount(
            np.searchsorted(offsets, miss_positions, side="right") - 1,
            minlength=len(offsets) - 1,
        )
        return per_segment.astype(np.int64, copy=False)

    def _walk(self, lines) -> list[int]:
        """Touch each line in order; returns the stream positions that missed."""
        sets = self._sets
        num_sets = self._num_sets
        ways = self._ways
        missed: list[int] = []
        position = 0
        for line in lines:
            resident = sets[line % num_sets]
            if line in resident:
                if resident[-1] != line:
                    resident.remove(line)
                    resident.append(line)
            else:
                missed.append(position)
                if len(resident) == ways:
                    del resident[0]
                resident.append(line)
            position += 1
        self.accesses += position
        self.misses += len(missed)
        return missed
