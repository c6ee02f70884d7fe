"""The frequency kernel: gather chunking, parity with the dense oracle.

The parity sweeps compare the kernel bit for bit with the dense reference
backend over window offsets, window lengths, and path-set widths,
including unaligned ``slice_intervals`` windows and the strided word
views served by the streaming ring buffer.
"""

from __future__ import annotations

import numpy as np

from repro.model.kernels import (
    GATHER_WORKING_SET_BYTES,
    MIN_GATHER_CHUNK,
    NumpyKernel,
    active_kernel,
    gather_chunk,
)
from repro.model.status import ObservationMatrix
from repro.streaming.buffer import PackedRingBuffer
from tests.model.dense_backend import dense_observations


class TestGatherChunk:
    def test_narrow_batches_get_large_chunks(self):
        chunk = gather_chunk(widest=2, num_words=4, index_itemsize=8)
        assert chunk > MIN_GATHER_CHUNK
        assert chunk * 2 * (4 * 8 + 8) <= GATHER_WORKING_SET_BYTES

    def test_wide_sets_floor_instead_of_degenerating(self):
        # One very wide set over a long horizon used to drive chunk to 1.
        assert gather_chunk(widest=4096, num_words=512, index_itemsize=8) == (
            MIN_GATHER_CHUNK
        )

    def test_index_dtype_counts_toward_the_working_set(self):
        ignoring = gather_chunk(widest=64, num_words=1, index_itemsize=0)
        counting = gather_chunk(widest=64, num_words=1, index_itemsize=8)
        assert counting < ignoring

    def test_degenerate_shapes(self):
        assert gather_chunk(widest=0, num_words=0, index_itemsize=8) >= (
            MIN_GATHER_CHUNK
        )


def _reference_union_popcounts(matrix, path_sets):
    """Dense OR/any reference for congested-in-any counts."""
    counts = []
    for path_set in path_sets:
        members = list(path_set)
        if not members:
            counts.append(0)
        else:
            counts.append(int(matrix[:, members].any(axis=1).sum()))
    return np.array(counts, dtype=np.int64)


class TestKernelParity:
    def test_union_popcounts_unit_contract(self):
        """Raw kernel call vs dense reference, dummy padding and length 0."""
        rng = np.random.default_rng(31)
        matrix = rng.random((3 * 64 + 17, 19)) < 0.35
        obs = ObservationMatrix(matrix)
        words = obs._backend.words
        num_paths = matrix.shape[1]
        path_sets = [[], [0], [num_paths - 1], list(range(num_paths))] + [
            sorted(rng.choice(num_paths, size=k, replace=False).tolist())
            for k in (1, 2, 5, 9)
            for _ in range(4)
        ]
        widest = max(len(s) for s in path_sets)
        indices = np.full((len(path_sets), widest), num_paths, dtype=np.intp)
        lengths = np.zeros(len(path_sets), dtype=np.int64)
        for i, members in enumerate(path_sets):
            indices[i, : len(members)] = members
            lengths[i] = len(members)
        counts = active_kernel().union_popcounts(words, indices, lengths, {})
        np.testing.assert_array_equal(
            counts, _reference_union_popcounts(matrix, path_sets)
        )

    def test_congestion_counts_match_dense(self):
        rng = np.random.default_rng(37)
        matrix = rng.random((5 * 64 + 1, 11)) < 0.5
        obs = ObservationMatrix(matrix)
        np.testing.assert_array_equal(
            obs._backend.congestion_counts(),
            matrix.sum(axis=0, dtype=np.int64),
        )

    def test_window_offset_length_widest_sweep(self):
        """Packed == dense over a (offset, length, widest) property grid.

        Offsets straddle word boundaries (so unaligned ``slice_intervals``
        bit-shifting is exercised), lengths include sub-word, exact-word,
        and multi-word windows, and path-set widths run from empty to the
        full path population.
        """
        rng = np.random.default_rng(41)
        matrix = rng.random((7 * 64 + 13, 23)) < 0.3
        packed = ObservationMatrix(matrix)
        dense = dense_observations(matrix)
        num_paths = matrix.shape[1]
        for offset in (0, 1, 31, 63, 64, 65, 127, 200):
            for length in (1, 7, 63, 64, 65, 130, 256):
                stop = offset + length
                if stop > matrix.shape[0]:
                    continue
                packed_window = packed.slice_intervals(offset, stop)
                dense_window = dense.slice_intervals(offset, stop)
                sets = [[]] + [
                    sorted(rng.choice(num_paths, size=widest, replace=False).tolist())
                    for widest in (1, 2, 3, 5, 8, 13, num_paths)
                ]
                np.testing.assert_array_equal(
                    packed_window.all_good_frequencies(sets),
                    dense_window.all_good_frequencies(sets),
                )
                interval = int(rng.integers(length))
                assert packed_window.congested_paths(
                    interval
                ) == dense_window.congested_paths(interval)

    def test_strided_ring_window_views(self):
        """Ring-buffer windows are strided word views; the kernel must
        accept them and agree with a dense recomputation of the same rows."""
        rng = np.random.default_rng(43)
        num_paths = 13
        ring = PackedRingBuffer(num_paths, retention=512)
        stream = rng.random((900, num_paths)) < 0.25
        for lo in range(0, stream.shape[0], 37):
            ring.append(stream[lo : lo + 37])
        for start, stop in (
            (ring.first_interval, ring.first_interval + 64),
            (ring.first_interval + 3, ring.first_interval + 130),
            (ring.end_interval - 65, ring.end_interval),
            (ring.first_interval, ring.end_interval),
        ):
            window = ring.window(start, stop)
            reference = dense_observations(stream[start:stop])
            sets = [[]] + [
                sorted(rng.choice(num_paths, size=k, replace=False).tolist())
                for k in (1, 3, 6, num_paths)
            ]
            np.testing.assert_array_equal(
                window.all_good_frequencies(sets),
                reference.all_good_frequencies(sets),
            )
            np.testing.assert_array_equal(
                window.path_congestion_frequency(),
                reference.path_congestion_frequency(),
            )


def test_numpy_kernel_scratch_caches_padded_words():
    rng = np.random.default_rng(53)
    matrix = rng.random((100, 5)) < 0.5
    obs = ObservationMatrix(matrix)
    kernel = NumpyKernel()
    words = obs._backend.words
    scratch: dict = {}
    indices = np.array([[0, 5], [1, 2]], dtype=np.intp)  # 5 = dummy row
    lengths = np.array([1, 2], dtype=np.int64)
    first = kernel.union_popcounts(words, indices, lengths, scratch)
    padded = scratch["words_padded"]
    assert padded.shape == (6, words.shape[1])
    assert not padded[-1].any()
    second = kernel.union_popcounts(words, indices, lengths, scratch)
    assert scratch["words_padded"] is padded
    np.testing.assert_array_equal(first, second)


def test_backend_pickle_drops_kernel_scratch():
    import pickle

    rng = np.random.default_rng(59)
    obs = ObservationMatrix(rng.random((130, 7)) < 0.5)
    obs.all_good_frequencies([[0, 1], [2]])  # populate the scratch
    restored = pickle.loads(pickle.dumps(obs))
    assert restored._backend._kernel_scratch == {}
    np.testing.assert_array_equal(
        restored.all_good_frequencies([[0, 1], [2]]),
        obs.all_good_frequencies([[0, 1], [2]]),
    )


def test_backend_dispatches_through_the_active_kernel_class(monkeypatch):
    """Timing wrappers patch the kernel's class methods (as the perfbench
    tracer does); every packed-backend query must go through them."""
    kernel = active_kernel()
    assert kernel.name == "numpy"
    assert active_kernel() is kernel
    calls = []
    cls = type(kernel)
    for method in ("union_popcounts", "congestion_counts"):
        original = getattr(cls, method)

        def wrapped(self, *args, _original=original, _method=method):
            calls.append(_method)
            return _original(self, *args)

        monkeypatch.setattr(cls, method, wrapped)
    obs = ObservationMatrix(np.random.default_rng(61).random((70, 4)) < 0.5)
    obs.all_good_frequencies([[0, 1], [2]])
    obs._backend.congestion_counts()
    assert calls == ["union_popcounts", "congestion_counts"]
