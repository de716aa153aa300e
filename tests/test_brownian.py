"""Tests for time grids and the Philox-keyed Brownian store."""

import os
import signal
import tracemalloc
import types

import numpy as np
import pytest
from scipy import stats

from conftest import assert_no_child
from fbsdekit import brownian
from fbsdekit.brownian import (
    PathBatch,
    coarsen_increments,
    make_time_grid,
    sample_fine_increments,
)
from fbsdekit.errors import InvalidArgument


# missing or non-finite: each is rejected with the rule's own message
NOT_A_NUMBER = [None, float("nan"), float("inf"), -float("inf")]


class TestTimeGrid:
    def test_quarter_horizon_four_steps(self):
        grid = make_time_grid(0.25, 4)
        assert grid.h == 0.0625
        assert np.array_equal(grid.nodes, [0.0, 0.0625, 0.125, 0.1875, 0.25])

    def test_single_step(self):
        grid = make_time_grid(1.0, 1)
        assert np.array_equal(grid.nodes, [0.0, 1.0])

    def test_sweep_resolution(self):
        assert make_time_grid(0.25, 32).h == 0.0078125

    def test_nodes_increasing_and_endpoints(self):
        grid = make_time_grid(0.7, 13)
        assert np.all(np.diff(grid.nodes) > 0)
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == 0.7
        assert len(grid.nodes) == 14

    @pytest.mark.parametrize("horizon", [0.25, 0.3, 0.7, 1 / 3])
    def test_coarser_nodes_are_an_exact_stride_of_finer_ones(self, horizon):
        # i / n and (r * i) / (r * n) are one rational, correctly rounded
        for n in range(1, 65):
            nodes = make_time_grid(horizon, n).nodes
            for r in range(2, 9):
                fine = make_time_grid(horizon, r * n).nodes
                assert np.array_equal(nodes, fine[::r]), (n, r)

    @pytest.mark.parametrize("horizon", [0.25, 0.3, 0.7, 1 / 3])
    def test_power_of_two_nodes_are_multiples_of_the_step(self, horizon):
        # T / N and i / N are exact, so both forms round T * i / N once
        for n in (2**k for k in range(13)):
            grid = make_time_grid(horizon, n)
            assert np.array_equal(grid.nodes, grid.h * np.arange(n + 1)), n

    @pytest.mark.parametrize("horizon,n", [(0.25, 0), (0.0, 4), (-1.0, 4)])
    def test_invalid_arguments(self, horizon, n):
        with pytest.raises(InvalidArgument):
            make_time_grid(horizon, n)

    @pytest.mark.parametrize("n", NOT_A_NUMBER)
    def test_missing_or_non_finite_step_count_rejected(self, n):
        # the rule's own message, not a bare TypeError, ValueError or
        # OverflowError from int()
        with pytest.raises(InvalidArgument, match="step count must be a positive"):
            make_time_grid(0.25, n)

    @pytest.mark.parametrize("horizon", NOT_A_NUMBER)
    def test_missing_or_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(InvalidArgument, match="horizon must be positive"):
            make_time_grid(horizon, 4)


# A small store, pinned value for value: a numpy release that changes the
# Philox bit stream or the ziggurat normals changes every draw, and must
# fail here rather than move the experiments' numbers unnoticed.
PINNED_SEED = 0x299F31D0A4093822
PINNED_HEX = [  # (path, step, component) of the store below
    [["-0x1.8e207c65f0000p-4", "-0x1.0987143e28000p-3"],
     ["0x1.06c9aa1e32000p-1", "-0x1.1847424f90000p-2"],
     ["0x1.c1d358ce00000p-9", "0x1.dc274edd00000p-3"],
     ["0x1.cd8cf162e0000p-4", "-0x1.329b40f860000p-5"],
     ["-0x1.1f729d9750000p-4", "-0x1.5e4ee7e5b0000p-4"]],
    [["-0x1.0ea8cdab6c000p-1", "-0x1.43fe462260000p-5"],
     ["-0x1.b3d60886f4000p-2", "-0x1.05118b8c08000p-3"],
     ["0x1.1f47a23ffc000p-2", "0x1.fe6cdf89f0000p-4"],
     ["-0x1.1c762eb470000p-3", "-0x1.698e7326e8000p-3"],
     ["-0x1.686febe320000p-5", "-0x1.318f066d78000p-3"]],
    [["0x1.49bda235b0000p-2", "0x1.7423c6087c000p-2"],
     ["-0x1.21cc3d9380000p-6", "-0x1.e54dd96300000p-7"],
     ["-0x1.0fbf485de0000p-4", "-0x1.0a97825100000p-4"],
     ["-0x1.20f67a63cc000p-1", "-0x1.33cd75d5f8000p-3"],
     ["-0x1.817ce85b58000p-3", "0x1.d9a884f000000p-6"]],
]


def pinned_store():
    return sample_fine_increments(PINNED_SEED, 3, 5, 2, 0.25)


class TestStream:
    def test_step_is_the_documented_philox_draw(self):
        # Step k is Generator(Philox(key=seed, counter=[0, k, 0, 0]))
        # .standard_normal((paths, dim_w)), scaled and quantized to 2^-40.
        # One call draws every step, so this also checks that the store's
        # generator starts each step from an empty buffer.
        store = pinned_store()
        quantum = 2.0**-40
        scale = np.sqrt(store.fine_step_variance)
        draws = [
            np.random.Generator(
                np.random.Philox(key=PINNED_SEED, counter=[0, k, 0, 0])
            ).standard_normal((3, 2))
            for k in range(store.fine_n)
        ]
        expected = np.rint(np.stack(draws, axis=1) * (scale / quantum)) * quantum
        assert np.array_equal(store.increments, expected)

    def test_quantized_to_two_to_minus_forty(self):
        units = sample_fine_increments(5, 40, 300, 3, 0.25).increments * 2.0**40
        assert np.array_equal(units, np.rint(units))

    def test_pinned_values(self):
        expected = np.vectorize(float.fromhex)(np.array(PINNED_HEX))
        assert np.array_equal(pinned_store().increments, expected), (
            "the numpy Philox/standard_normal stream changed; every seeded "
            "result of the package moves with it"
        )


class TestStore:
    def test_regeneration_bit_identical(self):
        s1 = sample_fine_increments(42, 32, 128, 2, 0.5)
        s2 = sample_fine_increments(42, 32, 128, 2, 0.5)
        assert np.array_equal(s1.increments, s2.increments)

    def test_seeds_differ(self):
        a = sample_fine_increments(1, 16, 64, 1, 0.25).increments
        b = sample_fine_increments(2, 16, 64, 1, 0.25).increments
        assert not np.array_equal(a, b)

    def test_window_matches_full_slice(self):
        # Counter addressing: a sub-window equals the slice of the full
        # array without generating anything outside it.
        store = sample_fine_increments(7, 64, 256, 3, 0.25)
        full = store.increments
        assert np.array_equal(store.fine_increments(37, 101), full[:, 37:101])
        assert np.array_equal(store.fine_increments(0, 1), full[:, 0:1])
        assert np.array_equal(store.fine_increments(255, 256), full[:, 255:256])

    @pytest.mark.parametrize("dim_w,k0,k1", [(4, 1920, 2560), (1, 0, 20480)])
    def test_path_prefix_matches_smaller_store(self, dim_w, k0, k1):
        # Path j's increments do not depend on how many paths the store
        # holds, so few paths can be checked against a large run.
        wide = sample_fine_increments(7, 128, 20480, dim_w, 0.25)
        narrow = sample_fine_increments(7, 4, 20480, dim_w, 0.25)
        assert np.array_equal(
            wide.fine_increments(k0, k1)[:4], narrow.fine_increments(k0, k1)
        )

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArgument):
            sample_fine_increments(1, 0, 8, 1, 0.25)
        with pytest.raises(InvalidArgument):
            sample_fine_increments(1, 8, 8, 1, -0.25)
        store = sample_fine_increments(1, 4, 8, 1, 0.25)
        with pytest.raises(InvalidArgument):
            store.fine_increments(3, 9)

    def test_missing_horizon_rejected(self):
        # the rule make_time_grid applies, not a TypeError from the compare
        with pytest.raises(InvalidArgument, match="horizon must be positive"):
            sample_fine_increments(7, 2, 4, 1, None)

    @pytest.mark.parametrize("seed", [2.5, None, float("nan"), "7"],
                             ids=["fraction", "none", "nan", "string"])
    def test_seed_must_be_a_whole_number(self, seed):
        # 2.5 would run the seed-2 store, and None or NaN fail in int()
        with pytest.raises(InvalidArgument, match="seed must be a whole number"):
            sample_fine_increments(seed, 2, 4, 1, 0.25)

    def test_whole_seeds_of_any_sign_are_masked_to_64_bits(self):
        assert sample_fine_increments(7.0, 2, 4, 1, 0.25).seed == 7
        assert sample_fine_increments(-1, 2, 4, 1, 0.25).seed == 2**64 - 1
        assert sample_fine_increments(2**64 + 7, 2, 4, 1, 0.25).seed == 7

    def test_missing_path_count_rejected(self):
        with pytest.raises(InvalidArgument, match="num_paths must be a positive"):
            sample_fine_increments(7, None, 4, 1, 0.25)

    def test_moments_at_experiment_scale(self):
        # 4 standard errors for the mean; 1% relative for the variance.
        horizon, fine_n, num_paths = 0.25, 20480, 15000
        store = sample_fine_increments(7, num_paths, fine_n, 1, horizon)
        total = 0.0
        total_sq = 0.0
        count = num_paths * fine_n
        for k0 in range(0, fine_n, 1024):
            block = store.fine_increments(k0, k0 + 1024)
            total += block.sum()
            total_sq += np.square(block).sum()
        var_target = horizon / fine_n
        mean_bound = 4.0 * np.sqrt(var_target) / np.sqrt(count)
        assert abs(total / count) <= mean_bound
        sample_var = total_sq / count - (total / count) ** 2
        assert abs(sample_var - var_target) <= 0.01 * var_target

    def test_kolmogorov_smirnov(self):
        horizon, fine_n, num_paths = 0.25, 8192, 128
        store = sample_fine_increments(11, num_paths, fine_n, 1, horizon)
        sample = store.increments.ravel() / np.sqrt(horizon / fine_n)
        n = sample.size
        assert n >= 10**6
        statistic = stats.kstest(sample, "norm").statistic
        critical = np.sqrt(-0.5 * np.log(0.0005)) / np.sqrt(n)
        assert statistic < critical


class TestCoarsen:
    def test_identity(self):
        store = sample_fine_increments(3, 8, 32, 2, 0.25)
        assert np.array_equal(coarsen_increments(store, 32), store.increments)

    def test_two_window_definition(self):
        store = sample_fine_increments(5, 6, 4, 1, 1.0)
        fine = store.increments
        coarse = coarsen_increments(store, 2)
        assert np.array_equal(coarse[:, 0], fine[:, 0] + fine[:, 1])
        assert np.array_equal(coarse[:, 1], fine[:, 2] + fine[:, 3])

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_telescoping_exact(self, n):
        store = sample_fine_increments(9, 20, 16, 3, 0.5)
        coarse = coarsen_increments(store, n)
        assert np.array_equal(coarse.sum(axis=1), store.increments.sum(axis=1))

    def test_divisor_chain_consistency(self):
        # Coarsening to n2 then window-summing equals coarsening to n1,
        # exactly, for n1 | n2 | fine_n; fresh stores avoid cache reuse.
        n1, n2 = 5, 20
        via_n2 = coarsen_increments(sample_fine_increments(13, 12, 80, 2, 0.3), n2)
        direct = coarsen_increments(sample_fine_increments(13, 12, 80, 2, 0.3), n1)
        summed = via_n2.reshape(12, n1, n2 // n1, 2).sum(axis=2)
        assert np.array_equal(summed, direct)

    def test_cache_derivation_matches_streaming(self):
        warm = sample_fine_increments(21, 10, 64, 2, 0.25)
        coarsen_increments(warm, 32)  # populates the cache
        derived = coarsen_increments(warm, 8)
        fresh = coarsen_increments(sample_fine_increments(21, 10, 64, 2, 0.25), 8)
        assert np.array_equal(derived, fresh)

    def test_one_window_alive_at_a_time(self, monkeypatch):
        # each streamed window is freed before the next is drawn; the walk
        # draws in process, where tracemalloc sees its windows, and numpy's
        # lazily imported ``random`` is loaded before tracing starts
        monkeypatch.setattr(brownian, "_producer_allowed", lambda: False)
        np.random.Generator
        store = sample_fine_increments(3, 128, 2048, 4, 0.25)
        tracemalloc.start()
        try:
            coarsen_increments(store, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * brownian._STREAM_VALUES * 8

    def test_non_divisor_raises(self):
        store = sample_fine_increments(1, 4, 20, 1, 0.25)
        with pytest.raises(InvalidArgument):
            coarsen_increments(store, 3)

    @pytest.mark.parametrize("n", [2.5, 0, -2])
    def test_non_positive_integer_step_count_raises(self, n):
        # as make_time_grid does: 2.5 is not truncated to 2
        store = sample_fine_increments(1, 4, 8, 1, 1.0)
        with pytest.raises(InvalidArgument, match="positive integer"):
            coarsen_increments(store, n)

    def test_coarse_variance(self):
        store = sample_fine_increments(17, 4000, 64, 1, 0.25)
        coarse = coarsen_increments(store, 4)
        assert np.allclose(coarse.var(), 0.25 / 4, rtol=0.05)


def walked(store, n):
    """Copies of every ``(i, k0, window)`` of one walk, then the coarse
    increments it cached."""
    windows = [(i, k0, window.copy()) for i, k0, window in store._walk(n)]
    return windows, store._coarse_cache[n]


def assert_same_walk(a, b):
    (windows_a, coarse_a), (windows_b, coarse_b) = a, b
    assert [w[:2] for w in windows_a] == [w[:2] for w in windows_b]
    for (_, _, wa), (_, _, wb) in zip(windows_a, windows_b):
        assert np.array_equal(wa, wb)
    assert np.array_equal(coarse_a, coarse_b)


class TestProducer:
    """Walks of a forked draw producer against walks drawn in process.

    ``forked_walks`` lowers the gate so that every walk forks; the store
    below has 8-step coarse steps on ``n = 8``.
    """

    @staticmethod
    def store():
        return sample_fine_increments(6, 30, 64, 4, 0.25)

    @pytest.mark.parametrize("steps", [None, 3], ids=["whole", "split"])
    def test_same_windows_and_coarse_increments(self, forked_walks, monkeypatch,
                                                steps):
        # 3-step windows split every coarse step; either way the ring of
        # four slots is reused
        if steps:
            monkeypatch.setattr(brownian, "_STREAM_VALUES", steps * 30 * 4)
        forked = walked(self.store(), 8)
        assert len(forked_walks) == 1
        monkeypatch.setattr(brownian, "_producer_allowed", lambda: False)
        assert_same_walk(forked, walked(self.store(), 8))
        assert len(forked_walks) == 1
        assert_no_child()

    def test_interleaved_walks_of_one_step_windows(self, forked_walks,
                                                   monkeypatch):
        # three producers and the parent outnumber the cores; each walk
        # hands 256 one-step windows through its four slots, and a slot
        # handed back too early would show as a changed window
        monkeypatch.setattr(brownian, "_STREAM_VALUES", 1)
        stores = [sample_fine_increments(seed, 30, 256, 4, 0.25)
                  for seed in (1, 2, 3)]
        walks = [store._walk(8) for store in stores]
        for steps in zip(*walks):
            for store, (i, k0, window) in zip(stores, steps):
                assert np.array_equal(window, store.fine_increments(k0, k0 + 1))
        assert [next(walk, None) for walk in walks] == [None] * 3  # each ends
        assert len(forked_walks) == 3
        assert_no_child()

    def test_windows_valid_until_the_next_is_requested(self, forked_walks):
        # a window is a view of a ring slot that is drawn over later
        views = [window for _, _, window in self.store()._walk(8)]
        assert forked_walks
        assert not np.array_equal(views[0], self.store().fine_increments(0, 8))
        assert_no_child()

    def test_closed_walk_leaves_no_child(self, forked_walks):
        walk = self.store()._walk(8)
        next(walk)
        next(walk)
        walk.close()
        assert len(forked_walks) == 1
        assert_no_child()

    def test_killed_producer_gives_the_same_windows(self, forked_walks,
                                                    monkeypatch):
        # the producer is at most four windows ahead when it is killed
        # during window 1, so the parent draws windows 5 to 7 itself
        store = self.store()
        fine_increments = brownian.BrownianStore.fine_increments
        drawn_here = []

        def counted(self, k0, k1):
            drawn_here.append(k0)
            return fine_increments(self, k0, k1)

        monkeypatch.setattr(brownian.BrownianStore, "fine_increments", counted)
        windows = []
        for j, (i, k0, window) in enumerate(store._walk(8)):
            windows.append((i, k0, window.copy()))
            if j == 1:
                os.kill(forked_walks[0], signal.SIGKILL)
        assert drawn_here[-3:] == [40, 48, 56]
        assert_no_child()
        killed = (windows, store._coarse_cache[8])
        monkeypatch.setattr(brownian, "_producer_allowed", lambda: False)
        assert_same_walk(killed, walked(self.store(), 8))

    @pytest.mark.parametrize("paths,fine_n,dim_w", [
        (30, 64, 4), (128, 2048, 4), (1000, 64, 3), (4000, 16, 1),
    ])
    def test_ring_bounded_whatever_the_store_size(self, forked_walks, monkeypatch,
                                                 paths, fine_n, dim_w):
        # tracemalloc cannot see the shared mmap, so its size is recorded
        lengths = []

        def recorded(fileno, length, *args, **kwargs):
            lengths.append(length)
            return mmap(fileno, length, *args, **kwargs)

        mmap = brownian.mmap.mmap
        monkeypatch.setattr(brownian, "mmap", types.SimpleNamespace(mmap=recorded))
        coarsen_increments(sample_fine_increments(3, paths, fine_n, dim_w, 0.25), 2)
        assert lengths == [4 * brownian._STREAM_VALUES * 8]
        assert_no_child()

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable cores")
    def test_producer_keeps_off_the_parent_core(self, forked_walks, monkeypatch):
        usable = os.sched_getaffinity(0)
        others = brownian._other_cores()
        assert others < usable and len(others) == len(usable) - 1
        monkeypatch.setattr(brownian, "_other_cores", lambda: {max(usable)})
        walk = self.store()._walk(8)
        next(walk)  # window 0 is drawn, so the producer has pinned itself
        assert os.sched_getaffinity(forked_walks[0]) == {max(usable)}
        walk.close()
        assert_no_child()

    def test_walk_forks_from_the_gate_size_on(self, forked_walks, monkeypatch):
        normals = 30 * 64 * 4
        monkeypatch.setattr(brownian, "_FORK_NORMALS", normals + 1)
        coarsen_increments(self.store(), 8)
        assert forked_walks == []
        monkeypatch.setattr(brownian, "_FORK_NORMALS", normals)
        coarsen_increments(self.store(), 8)
        assert len(forked_walks) == 1
        assert_no_child()

    @pytest.mark.parametrize("paths,fine_n,dim_w", [
        (8192, 64, 4), (4000, 1024, 1),
    ])
    def test_benchmark_walks_cross_the_gate(self, monkeypatch, paths, fine_n, dim_w):
        # the e1-fit walk (2^21 normals) and each e2-sweep walk fork
        monkeypatch.setattr(brownian, "_producer_allowed", lambda: True)
        forks, init = [], brownian._Draws.__init__

        def recorded(self, store, plan, fork):
            forks.append(fork)
            init(self, store, plan, fork)

        monkeypatch.setattr(brownian._Draws, "__init__", recorded)
        walk = sample_fine_increments(7, paths, fine_n, dim_w, 0.25)._walk(8)
        next(walk)
        walk.close()
        assert forks == [True]
        assert_no_child()

    @pytest.mark.parametrize("threads,cores,allowed", [
        (None, 2, True), ("2", 2, True), ("4", 8, True), ("1", 2, False),
        (None, 1, False), ("2", 1, False), ("many", 2, False),
    ])
    def test_producer_gate(self, monkeypatch, threads, cores, allowed):
        if threads is None:
            monkeypatch.delenv("FBSDE_THREADS", raising=False)
        else:
            monkeypatch.setenv("FBSDE_THREADS", threads)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert brownian._producer_allowed() is allowed
        if allowed:
            monkeypatch.delattr(os, "fork", raising=False)
            assert brownian._producer_allowed() is False


class TestLayout:
    """Per-path arrays are stored paths-fastest: each component column of
    a step's ``(paths, dim_w)`` slice is contiguous."""

    def test_fine_increment_steps(self):
        window = sample_fine_increments(3, 50, 64, 3, 0.25).fine_increments(5, 17)
        for k in (0, 7, 11):
            step = window[:, k]
            assert step.strides[0] == step.itemsize

    def test_coarse_increments_streamed_and_derived(self):
        store = sample_fine_increments(3, 50, 64, 3, 0.25)
        for n in (16, 4):  # 16 is streamed, 4 derived from the cached 16
            coarse = coarsen_increments(store, n)
            assert coarse.strides[0] == coarse.itemsize
            assert coarse[:, 1].strides[0] == coarse.itemsize


def test_all_states_is_a_view_listing_every_state():
    rng = np.random.default_rng(1)
    batch = PathBatch(
        x=np.asfortranarray(rng.normal(size=(5, 9, 2))), y=rng.normal(size=(5, 9)),
        z=rng.normal(size=(5, 9, 3)),
    )
    states = batch.all_states()
    assert np.shares_memory(states, batch.x)
    assert np.array_equal(
        np.sort(states, axis=0), np.sort(batch.x.reshape(-1, 2), axis=0)
    )


def test_strided_batch_views_every_kth_node():
    rng = np.random.default_rng(0)
    batch = PathBatch(
        x=rng.normal(size=(5, 9, 2)), y=rng.normal(size=(5, 9)),
        z=rng.normal(size=(5, 9, 3)),
    )
    thin = batch.strided(4)
    for got, full in ((thin.x, batch.x), (thin.y, batch.y), (thin.z, batch.z)):
        assert np.array_equal(got, full[:, [0, 4, 8]])
        assert got.base is full
    assert batch.strided(1).num_nodes == 9
