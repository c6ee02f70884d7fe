"""The pluggable frequency-kernel layer: dispatch, fallback, and parity.

Two families of guarantees:

* **Dispatch** — ``REPRO_KERNEL`` / :func:`set_kernel` / :func:`use_kernel`
  select kernels predictably, unknown names fail fast, and requesting a
  kernel that cannot run degrades to the numpy kernel with exactly one
  warning.
* **Parity** — every available kernel is bit-identical to the dense
  reference backend on a property sweep over window offsets, window
  lengths, and path-set widths, including unaligned ``slice_intervals``
  windows and the strided word views served by the streaming ring buffer.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.model import kernels
from repro.model.kernels import (
    NumpyKernel,
    active_kernel,
    get_kernel,
    kernel_names,
    microbenchmark,
    requested_kernel,
    reset_kernel_selection,
    set_kernel,
    use_kernel,
)
from repro.model.kernels.numpy_kernel import (
    GATHER_WORKING_SET_BYTES,
    MIN_GATHER_CHUNK,
    gather_chunk,
)
from repro.model.status import ObservationMatrix
from repro.streaming.buffer import PackedRingBuffer
from tests.model.dense_backend import dense_observations


@pytest.fixture(autouse=True)
def clean_selection(monkeypatch):
    """Each test starts from env-free auto selection and leaves no override."""
    monkeypatch.delenv(kernels.KERNEL_ENV, raising=False)
    reset_kernel_selection()
    yield
    reset_kernel_selection()


def available_kernel_names():
    return [name for name in kernel_names() if get_kernel(name).is_available()]


class TestDispatch:
    def test_registry_prefers_compiled_kernel(self):
        assert kernel_names() == ["numba", "numpy"]

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            get_kernel("simd")

    def test_numpy_kernel_always_available(self):
        kernel = get_kernel("numpy")
        assert kernel.is_available()
        assert kernel.unavailable_reason() == ""
        assert not kernel.releases_gil

    def test_auto_resolves_to_an_available_kernel(self):
        assert requested_kernel() == kernels.AUTO
        assert active_kernel().is_available()

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV, "numpy")
        assert requested_kernel() == "numpy"
        assert active_kernel() is get_kernel("numpy")

    def test_set_kernel_overrides_env(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV, "auto")
        assert set_kernel("numpy") is get_kernel("numpy")
        assert active_kernel() is get_kernel("numpy")
        set_kernel(None)
        assert requested_kernel() == "auto"

    def test_set_kernel_unknown_rejected(self):
        with pytest.raises(ValueError):
            set_kernel("simd")

    def test_use_kernel_scopes_and_restores(self):
        before = requested_kernel()
        with use_kernel("numpy") as kernel:
            assert kernel is get_kernel("numpy")
            assert active_kernel() is kernel
        assert requested_kernel() == before

    def test_use_kernel_none_is_a_noop_scope(self):
        with use_kernel(None) as kernel:
            assert kernel is active_kernel()
        assert requested_kernel() == kernels.AUTO

    def test_unavailable_request_falls_back_with_one_warning(self, monkeypatch):
        """``REPRO_KERNEL=numba`` without numba degrades cleanly, warns once."""
        numba = kernels.KERNELS["numba"]
        monkeypatch.setattr(numba, "is_available", lambda: False)
        monkeypatch.setattr(
            numba, "unavailable_reason", lambda: "numba is not importable"
        )
        monkeypatch.setenv(kernels.KERNEL_ENV, "numba")
        reset_kernel_selection()
        with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
            assert active_kernel() is get_kernel("numpy")
        # Re-resolving the same unavailable request must stay silent.
        kernels._resolved = None  # force re-resolution without clearing _warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert active_kernel() is get_kernel("numpy")

    def test_auto_fallback_is_silent(self, monkeypatch):
        numba = kernels.KERNELS["numba"]
        monkeypatch.setattr(numba, "is_available", lambda: False)
        reset_kernel_selection()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert active_kernel().is_available()

    def test_microbenchmark_times_available_kernels(self):
        for name in available_kernel_names():
            assert microbenchmark(get_kernel(name), repeats=1) > 0.0


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


@pytest.mark.parametrize("name", kernel_names())
class TestKernelParity:
    @pytest.fixture(autouse=True)
    def skip_unavailable(self, name):
        kernel = get_kernel(name)
        if not kernel.is_available():
            pytest.skip(f"kernel {name} unavailable: "
                        f"{kernel.unavailable_reason()}")

    def test_union_popcounts_unit_contract(self, name):
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
        counts = get_kernel(name).union_popcounts(words, indices, lengths, {})
        np.testing.assert_array_equal(
            counts, _reference_union_popcounts(matrix, path_sets)
        )

    def test_congestion_counts_match_dense(self, name):
        rng = np.random.default_rng(37)
        matrix = rng.random((5 * 64 + 1, 11)) < 0.5
        obs = ObservationMatrix(matrix)
        with use_kernel(name):
            np.testing.assert_array_equal(
                obs._backend.congestion_counts(),
                matrix.sum(axis=0, dtype=np.int64),
            )

    def test_window_offset_length_widest_sweep(self, name):
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
        with use_kernel(name):
            for offset in (0, 1, 31, 63, 64, 65, 127, 200):
                for length in (1, 7, 63, 64, 65, 130, 256):
                    stop = offset + length
                    if stop > matrix.shape[0]:
                        continue
                    packed_window = packed.slice_intervals(offset, stop)
                    dense_window = dense.slice_intervals(offset, stop)
                    sets = [[]] + [
                        sorted(
                            rng.choice(
                                num_paths, size=widest, replace=False
                            ).tolist()
                        )
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

    def test_strided_ring_window_views(self, name):
        """Ring-buffer windows are strided word views; kernels must accept
        them and agree with a dense recomputation of the same rows."""
        rng = np.random.default_rng(43)
        num_paths = 13
        ring = PackedRingBuffer(num_paths, retention=512)
        stream = rng.random((900, num_paths)) < 0.25
        with use_kernel(name):
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
                    sorted(
                        rng.choice(num_paths, size=k, replace=False).tolist()
                    )
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

    def test_kernels_agree_pairwise(self, name):
        """Every available kernel reproduces the numpy kernel's exact bits."""
        rng = np.random.default_rng(47)
        matrix = rng.random((321, 17)) < 0.4
        sets = [[]] + [
            sorted(rng.choice(17, size=k, replace=False).tolist())
            for k in (1, 2, 4, 8, 17)
            for _ in range(3)
        ]
        with use_kernel("numpy"):
            reference = ObservationMatrix(matrix).all_good_frequencies(sets)
        with use_kernel(name):
            np.testing.assert_array_equal(
                ObservationMatrix(matrix).all_good_frequencies(sets), reference
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
