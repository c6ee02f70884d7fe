"""Frozen dense boolean observation store: the oracle for the packed kernels.

:class:`repro.model.packed.PackedBackend` is the only production storage
for path observations. This is the original boolean ``(T, paths)`` store
it replaced, kept as the executable specification: the equivalence suites
wrap it with :meth:`repro.model.status.ObservationMatrix.from_backend` and
check every query and every estimator output against the packed backend.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.model.status import ObservationMatrix


class DenseBackend:
    """The original boolean ``(T, paths)`` store — reference semantics."""

    def __init__(self, congested: np.ndarray) -> None:
        congested = np.asarray(congested, dtype=bool)
        if congested.ndim != 2:
            raise ValueError("DenseBackend expects a 2-D (T, paths) matrix")
        self._congested = congested

    @property
    def num_intervals(self) -> int:
        return self._congested.shape[0]

    @property
    def num_paths(self) -> int:
        return self._congested.shape[1]

    def dense(self) -> np.ndarray:
        return self._congested

    def congested_in_interval(self, interval: int) -> np.ndarray:
        if not 0 <= interval < self.num_intervals:
            raise IndexError(f"interval {interval} outside horizon")
        return self._congested[interval]

    def congestion_counts(self) -> np.ndarray:
        return self._congested.sum(axis=0, dtype=np.int64)

    def all_good_counts(self, path_sets: Sequence[Sequence[int]]) -> np.ndarray:
        counts = np.empty(len(path_sets), dtype=np.int64)
        total = self.num_intervals
        for i, path_set in enumerate(path_sets):
            indices = list(path_set)
            if not indices:
                counts[i] = total
                continue
            congested_any = self._congested[:, indices].any(axis=1)
            counts[i] = total - int(congested_any.sum())
        return counts

    def slice_intervals(self, start: int, stop: int) -> "DenseBackend":
        if not 0 <= start <= stop <= self.num_intervals:
            raise IndexError(f"window [{start}, {stop}) outside horizon")
        return DenseBackend(self._congested[start:stop])


def dense_observations(congested: np.ndarray) -> ObservationMatrix:
    """An :class:`ObservationMatrix` answering from the dense oracle store."""
    return ObservationMatrix.from_backend(DenseBackend(congested))
