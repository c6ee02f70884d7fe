"""Boolean status conventions of Section 2.

Link status ``X_e(t)`` and path status ``Y_p(t)`` are 0 for *good* and 1 for
*congested*. The simulator emits these as boolean numpy matrices indexed by
(interval, link) and (interval, path); :class:`ObservationMatrix` wraps the
path-status matrix with the empirical frequency queries every
probability-computation algorithm consumes.

Storage is columnar and bit-packed (:mod:`repro.model.packed`):
path statuses live as ``uint64`` words, and the hot query — the empirical
all-good frequency of a path set, Eq. 1's left-hand side — is an
OR-reduction over packed rows plus a popcount, batched over many path sets
at once via :meth:`ObservationMatrix.all_good_frequencies`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Sequence, Union

import numpy as np

from repro.model.packed import PackedBackend

#: Status value for a good link or path (``X = 0`` / ``Y = 0``).
GOOD = 0
#: Status value for a congested link or path (``X = 1`` / ``Y = 1``).
CONGESTED = 1


@dataclass(frozen=True)
class IntervalRecord:
    """Ground truth and observation for a single time interval ``t``.

    Attributes
    ----------
    interval:
        The interval index ``t``.
    congested_links:
        The true congested link set ``E^c(t)``.
    congested_paths:
        The observed congested path set ``P^c(t)``.
    """

    interval: int
    congested_links: FrozenSet[int]
    congested_paths: FrozenSet[int]


class ObservationMatrix:
    """Path observations over ``T`` intervals with frequency queries.

    Parameters
    ----------
    congested:
        Boolean matrix of shape (T, num_paths); ``congested[t, p]`` is true
        iff path ``p`` was observed congested during interval ``t``
        (``Y_p(t) = 1``). Statuses are stored bit-packed
        (:class:`~repro.model.packed.PackedBackend`); to wrap an
        already-constructed storage backend without a dense round-trip, use
        :meth:`from_backend` instead.
    """

    def __init__(self, congested: Union[np.ndarray, Sequence]) -> None:
        congested = np.asarray(congested, dtype=bool)
        if congested.ndim != 2:
            raise ValueError("ObservationMatrix expects a 2-D (T, paths) matrix")
        self._backend = PackedBackend.from_dense(congested)

    @classmethod
    def from_backend(cls, backend: PackedBackend) -> "ObservationMatrix":
        """Wrap an existing storage backend without a dense round-trip.

        This is how the simulator hands over observations it packed while
        generating them, so large horizons never materialise the full
        boolean matrix. Any object with the backend's query methods is
        accepted; the test suite wraps its dense reference store this way.
        """
        matrix = cls.__new__(cls)
        matrix._backend = backend
        return matrix

    @property
    def num_intervals(self) -> int:
        """The number of observed intervals ``T``."""
        return self._backend.num_intervals

    @property
    def num_paths(self) -> int:
        """The number of monitored paths."""
        return self._backend.num_paths

    @property
    def matrix(self) -> np.ndarray:
        """The boolean (T, paths) congestion matrix (read-only).

        This materialises the dense matrix on demand; prefer the frequency
        queries, which run on packed words.
        """
        return self._backend.dense()

    def congested_paths(self, interval: int) -> FrozenSet[int]:
        """The congested path set ``P^c(t)`` for interval ``interval``."""
        mask = self._backend.congested_in_interval(interval)
        return frozenset(np.flatnonzero(mask).tolist())

    def path_congestion_frequency(self) -> np.ndarray:
        """Empirical ``P(Y_p = 1)`` per path, shape (num_paths,)."""
        total = self.num_intervals
        counts = self._backend.congestion_counts()
        if total == 0:
            return np.zeros(self.num_paths)
        return counts / float(total)

    def all_good_frequency(self, path_set: Iterable[int]) -> float:
        """Empirical probability that every path in ``path_set`` is good.

        This is the left-hand side of the paper's Eq. 1,
        ``P(intersection_{p in P} Y_p = 0)``, estimated over the ``T``
        observed intervals. The empty set has frequency 1.
        """
        indices = sorted(set(path_set))
        if not indices:
            return 1.0
        counts = self._backend.all_good_counts([indices])
        return float(counts[0] / self.num_intervals)

    def all_good_frequencies(self, path_sets: Sequence[Iterable[int]]) -> np.ndarray:
        """Batched :meth:`all_good_frequency` over many path sets.

        One packed-kernel invocation answers the whole batch; this is the
        query the estimation stack routes every Eq. 1 evaluation through.
        Returns a float array of length ``len(path_sets)``.
        """
        if not len(path_sets):
            return np.zeros(0)
        normalized = [sorted(set(s)) for s in path_sets]
        counts = self._backend.all_good_counts(normalized)
        return counts / float(self.num_intervals)

    def always_good_paths(self, tolerance: float = 0.0) -> FrozenSet[int]:
        """Paths (effectively) never observed congested.

        Used to prune potentially congested correlation subsets
        (Section 5.2). With a noisy E2E monitor (Assumption 2 is imperfect:
        "probing ... may incur false negatives and false positives"), a path
        whose links are all good can still flip to congested in a few
        intervals; ``tolerance`` declares a path always-good when its
        congestion frequency is at most that fraction, so that monitoring
        noise does not void the pruning.
        """
        if not 0.0 <= tolerance < 1.0:
            raise ValueError("tolerance must be in [0, 1)")
        if self.num_intervals == 0:
            # An empty horizon observes nothing: no path qualifies as
            # always-good (matching the pre-packed NaN-comparison result).
            return frozenset()
        frequency = self.path_congestion_frequency()
        return frozenset(np.flatnonzero(frequency <= tolerance).tolist())

    def always_congested_paths(self, tolerance: float = 0.0) -> FrozenSet[int]:
        """Paths congested in (effectively) every interval.

        Their all-good frequency is 0 (or tiny), so no reliable Eq. 1
        equation can use them; ``tolerance`` mirrors
        :meth:`always_good_paths`.
        """
        if not 0.0 <= tolerance < 1.0:
            raise ValueError("tolerance must be in [0, 1)")
        if self.num_intervals == 0:
            return frozenset()
        frequency = self.path_congestion_frequency()
        return frozenset(np.flatnonzero(frequency >= 1.0 - tolerance).tolist())

    def slice_intervals(self, start: int, stop: int) -> "ObservationMatrix":
        """The window ``[start, stop)`` as a new :class:`ObservationMatrix`.

        Backed by the storage backend's own slicing — with packed words a
        word-aligned window is a column slice plus a tail mask, so windowed
        estimation never re-packs (or even materialises) the dense matrix.
        """
        return ObservationMatrix.from_backend(
            self._backend.slice_intervals(start, stop)
        )
