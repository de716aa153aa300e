"""Tests for time grids and the counter-addressed Brownian store."""

import numpy as np
import pytest
from scipy import stats

from fbsdekit._philox import philox_words, uniform_stream
from fbsdekit.brownian import (
    PathBatch,
    coarsen_increments,
    make_time_grid,
    sample_fine_increments,
)
from fbsdekit.errors import InvalidArgument


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

    @pytest.mark.parametrize("horizon,n", [(0.25, 0), (0.0, 4), (-1.0, 4)])
    def test_invalid_arguments(self, horizon, n):
        with pytest.raises(InvalidArgument):
            make_time_grid(horizon, n)


# Philox-4x32-10 known-answer vectors from Random123 (kat_vectors):
# (key, counter, output), as 32-bit words.
PHILOX_KAT = [
    ((0x00000000, 0x00000000), (0x00000000,) * 4,
     (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF, 0xFFFFFFFF), (0xFFFFFFFF,) * 4,
     (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0xA4093822, 0x299F31D0), (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


def philox_reference(key, counter):
    """Philox-4x32-10 written from the specification, lane by lane.

    ``counter`` holds four Python ints or four equal-shape uint64 arrays
    of 32-bit values; every lane is evaluated on its own, all at once.
    """
    k0, k1 = key
    x0, x1, x2, x3 = counter
    for _ in range(10):
        p0 = x0 * 0xD2511F53
        p1 = x2 * 0xCD9E8D57
        x0, x1, x2, x3 = (
            (p1 >> 32) ^ x1 ^ k0,
            p1 & 0xFFFFFFFF,
            (p0 >> 32) ^ x3 ^ k1,
            p0 & 0xFFFFFFFF,
        )
        k0 = (k0 + 0x9E3779B9) & 0xFFFFFFFF
        k1 = (k1 + 0xBB67AE85) & 0xFFFFFFFF
    return x0, x1, x2, x3


def uniforms_reference(seed, k0, num_paths, n_steps, n_blocks):
    """The uniform stream with every lane's counter built on its own."""
    path, step, block = np.meshgrid(
        np.arange(num_paths, dtype=np.uint64),
        np.arange(k0, k0 + n_steps, dtype=np.uint64),
        np.arange(n_blocks, dtype=np.uint64),
        indexing="ij",
    )
    key = (seed & 0xFFFFFFFF, seed >> 32)
    x0, x1, x2, x3 = philox_reference(key, (step, path, block, np.zeros_like(step)))
    out = np.empty((num_paths, n_steps, 2 * n_blocks))
    for col, (hi, lo) in enumerate(((x0, x1), (x2, x3))):
        bits = ((hi << 32) | lo) >> 11
        out[:, :, col::2] = (bits.astype(np.float64) + 0.5) * 2.0**-53
    return out


class TestUniformStream:
    @pytest.mark.parametrize("key,counter,expected", PHILOX_KAT)
    def test_philox_known_answers(self, key, counter, expected):
        words = [np.array([c], dtype=np.uint64) for c in counter]
        scratch = np.empty((2, 1), dtype=np.uint64)
        philox_words(key[0] | key[1] << 32, *words, *scratch)
        assert [int(w[0]) for w in words] == list(expected)
        assert philox_reference(key, counter) == expected

    @pytest.mark.parametrize(
        "seed,k0,num_paths,n_steps,n_blocks",
        [
            (1234567, 5, 17, 23, 3),  # one kernel block of whole paths
            (2**64 - 1, 11, 5, 7001, 1),  # several blocks of 2 paths each
            (99, 1000, 2, 20000, 1),  # one path spans two blocks
            (0x299F31D0A4093822, 3, 3, 6000, 3),  # 18000 lanes: two blocks a path
        ],
    )
    def test_stream_matches_per_lane_evaluation(
        self, seed, k0, num_paths, n_steps, n_blocks
    ):
        expected = uniforms_reference(seed, k0, num_paths, n_steps, n_blocks)
        got = uniform_stream(seed, k0, num_paths, n_steps, n_blocks)
        assert np.array_equal(got, expected)

    def test_open_unit_interval(self):
        u = uniform_stream(3, 0, 50, 64, 1)
        assert u.min() > 0.0
        assert u.max() < 1.0


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

    def test_non_divisor_raises(self):
        store = sample_fine_increments(1, 4, 20, 1, 0.25)
        with pytest.raises(InvalidArgument):
            coarsen_increments(store, 3)

    def test_coarse_variance(self):
        store = sample_fine_increments(17, 4000, 64, 1, 0.25)
        coarse = coarsen_increments(store, 4)
        assert np.allclose(coarse.var(), 0.25 / 4, rtol=0.05)


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
