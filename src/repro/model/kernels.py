"""The frequency kernel: the packed backend's two word-level loops.

Every estimator in this package bottoms out in two loops over the
bit-packed observation store (:mod:`repro.model.packed`):

* the **union popcount** — gather a path set's uint64 rows, OR them, and
  popcount the union (the batched Eq. 1 numerator,
  ``PackedBackend.all_good_counts``);
* the **row popcount** — per-path congested-interval counts
  (``PackedBackend.congestion_counts``).

Both run on numpy ufuncs: a chunked fancy-index gather over a
dummy-padded word store, ``np.bitwise_or.reduce`` over the member axis,
and ``np.bitwise_count`` over the union. Word matrices may be strided
(ring-buffer window views are non-contiguous column slices).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

#: Bytes per uint64 storage word (mirrors :data:`repro.model.packed.WORD_BYTES`).
_WORD_BYTES = 8

#: Working-set bound (bytes) for one gathered batch chunk: the padded
#: ``(chunk, widest, words)`` uint64 cube *plus* the ``(chunk, widest)``
#: index block that drives the gather. Sized to stay L2-resident.
GATHER_WORKING_SET_BYTES = 1 << 21

#: Floor on the batch chunk. Without it, a single very wide path set
#: (``widest * words * 8 > GATHER_WORKING_SET_BYTES``) degenerated the
#: batch to ``chunk=1`` — one reduce call per set, all Python overhead.
MIN_GATHER_CHUNK = 16


def gather_chunk(widest: int, num_words: int, index_itemsize: int) -> int:
    """Sets per gather chunk under the working-set bound, floored.

    Accounts for both the gathered uint64 cube and the index cube's own
    dtype (``np.intp``), which the old hard-coded heuristic ignored.
    """
    row_bytes = max(1, widest) * (num_words * _WORD_BYTES + index_itemsize)
    return max(MIN_GATHER_CHUNK, GATHER_WORKING_SET_BYTES // max(1, row_bytes))


class NumpyKernel:
    """Chunked gather + OR-reduce + popcount on numpy ufuncs."""

    name = "numpy"

    def congestion_counts(self, words: np.ndarray) -> np.ndarray:
        """Per-row popcount sums: congested-interval counts per path.

        ``words`` is ``(num_paths, num_words)`` uint64, possibly strided.
        Returns int64 of shape ``(num_paths,)``.
        """
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)

    def union_popcounts(
        self,
        words: np.ndarray,
        indices: np.ndarray,
        lengths: np.ndarray,
        scratch: Dict[str, np.ndarray],
    ) -> np.ndarray:
        """Popcount of the OR-union of each path set's rows.

        ``indices`` is the ``(num_sets, widest)`` intp member matrix: row
        ``i``'s first ``lengths[i]`` entries are real path rows, the rest
        are padded with the dummy value ``num_paths`` (an implicit
        all-good row), so an empty set popcounts to zero. ``scratch`` is
        the backend-owned cache dict tied to ``words``. Returns int64
        congested-in-any counts; the caller derives all-good counts as
        ``T - result``.
        """
        # The padded copy appends one all-zero (all-good) dummy row the
        # index matrix's padding points at — a no-op under OR — so the
        # whole ragged batch gathers as one rectangular cube. Cached in
        # the backend's scratch dict across batches.
        padded = scratch.get("words_padded")
        if padded is None:
            padded = np.concatenate(
                [words, np.zeros((1, words.shape[1]), dtype=np.uint64)]
            )
            scratch["words_padded"] = padded
        num_sets, widest = indices.shape
        counts = np.empty(num_sets, dtype=np.int64)
        chunk = gather_chunk(widest, words.shape[1], indices.itemsize)
        for lo in range(0, num_sets, chunk):
            block = indices[lo : lo + chunk]
            union = np.bitwise_or.reduce(padded[block], axis=1)
            counts[lo : lo + chunk] = np.bitwise_count(union).sum(
                axis=1, dtype=np.int64
            )
        return counts


_KERNEL = NumpyKernel()


def active_kernel() -> NumpyKernel:
    """The kernel instance every packed-backend query dispatches through.

    Kept as an accessor only because ``perfbench/run.py`` and
    ``perfbench/tracer.py`` read its ``name`` and patch its class methods
    to time and count kernel calls.
    """
    return _KERNEL
