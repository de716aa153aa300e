"""Tests for reference simulation, error metrics, and rate fitting."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import assert_no_child
from fbsdekit import brownian
from fbsdekit.brownian import (
    BrownianStore,
    PathBatch,
    coarsen_increments,
    make_time_grid,
    sample_fine_increments,
)
from fbsdekit.errors import InvalidArgument, NumericalFailure, UnsupportedProblem
from fbsdekit.problems import (
    ProblemSpec,
    decoupled_test_problem,
    example1_problem,
    example2_problem,
)
from fbsdekit.reference import compute_errors, fit_rate, simulate_reference


class TestSimulateReference:
    def test_frozen_dynamics_reads_fields_at_start_point(self):
        problem = ProblemSpec(
            name="frozen",
            dim_w=1,
            x0=np.array([0.7]),
            horizon=0.25,
            b=lambda t, x, y, z: np.zeros_like(x),
            sigma=lambda t, x, y: np.zeros((x.shape[0], 1, 1)),
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda x: np.square(x[:, 0]),
            grad_g=lambda x: 2.0 * x,
            analytic_u=lambda t, x: (1.0 + t) * np.square(x[:, 0]),
            analytic_v=lambda t, x: np.zeros((x.shape[0], 1)),
        )
        store = sample_fine_increments(1, 20, 16, 1, 0.25)
        grid = make_time_grid(0.25, 4)
        ref = simulate_reference(problem, store, grid)
        assert np.all(ref.x == 0.7)
        for i, t in enumerate(grid.nodes):
            assert np.allclose(ref.y[:, i], (1.0 + t) * 0.49)

    def test_example2_initial_values(self):
        problem = example2_problem()
        store = sample_fine_increments(2, 50, 64, 1, problem.horizon)
        ref = simulate_reference(problem, store, make_time_grid(0.25, 4))
        assert np.allclose(ref.y[:, 0], math.sin(1.5), rtol=1e-15)
        assert np.allclose(ref.z[:, 0, 0], math.cos(1.5) ** 2, rtol=1e-15)

    def test_example1_initial_value(self):
        problem = example1_problem()
        store = sample_fine_increments(2, 25, 64, 4, problem.horizon)
        ref = simulate_reference(problem, store, make_time_grid(0.25, 4))
        assert np.allclose(ref.y[:, 0], 2.2027812596127347, rtol=1e-14)

    def test_brownian_linear_paths_equal_start_plus_noise(self):
        problem = decoupled_test_problem("brownian-linear")
        store = sample_fine_increments(3, 40, 64, 1, problem.horizon)
        grid = make_time_grid(problem.horizon, 8)
        ref = simulate_reference(problem, store, grid)
        coarse = coarsen_increments(store, 8)
        # Euler is exact for unit diffusion: nodes are partial sums, and
        # quantized increments make the comparison exact
        partial = np.cumsum(coarse[:, :, 0], axis=1)
        assert np.array_equal(ref.x[:, 1:, 0], partial)
        assert np.array_equal(ref.y[:, 1:], partial)

    def test_shared_nodes_identical_across_grids(self):
        problem = example2_problem()
        store = sample_fine_increments(4, 30, 64, 1, problem.horizon)
        ref8 = simulate_reference(problem, store, make_time_grid(0.25, 8))
        ref4 = simulate_reference(problem, store, make_time_grid(0.25, 4))
        assert np.array_equal(ref8.x[:, ::2], ref4.x)

    def test_nodes_stored_paths_fastest(self):
        problem = example1_problem()
        store = sample_fine_increments(4, 30, 64, 4, problem.horizon)
        ref = simulate_reference(problem, store, make_time_grid(problem.horizon, 8))
        for nodes in (ref.x, ref.y, ref.z):
            assert nodes.strides[0] == nodes.itemsize

    def test_one_window_alive_at_a_time(self, monkeypatch):
        # each streamed window is freed before the next is drawn, so one
        # window bounds the transient memory; the walk draws in process,
        # where tracemalloc sees its windows, and numpy's lazily imported
        # ``random`` is loaded before tracing starts
        monkeypatch.setattr(brownian, "_producer_allowed", lambda: False)
        np.random.Generator
        problem = example1_problem()
        store = sample_fine_increments(3, 128, 2048, 4, problem.horizon)
        tracemalloc.start()
        try:
            simulate_reference(problem, store, make_time_grid(problem.horizon, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * brownian._STREAM_VALUES * 8

    def test_populates_coarse_cache(self, monkeypatch):
        # after a reference on 8 steps, coarsening to 8 and 4 steps draws
        # no fine increment and equals the coarsening of a fresh store
        problem = example2_problem()
        store = sample_fine_increments(5, 30, 64, 1, problem.horizon)
        simulate_reference(problem, store, make_time_grid(0.25, 8))
        fine_increments = BrownianStore.fine_increments
        calls = []

        def counted(self, k0, k1):
            calls.append((k0, k1))
            return fine_increments(self, k0, k1)

        monkeypatch.setattr(BrownianStore, "fine_increments", counted)
        warm = [coarsen_increments(store, n) for n in (8, 4)]
        assert calls == []
        for n, coarse in zip((8, 4), warm):
            fresh = sample_fine_increments(5, 30, 64, 1, problem.horizon)
            assert np.array_equal(coarse, coarsen_increments(fresh, n))
        assert calls  # the fresh stores were walked

    def test_same_nodes_for_any_window_size(self, monkeypatch):
        # three-step windows split each eight-step coarse step unevenly
        problem = example1_problem()
        grid = make_time_grid(problem.horizon, 4)

        def run():
            store = sample_fine_increments(6, 30, 32, 4, problem.horizon)
            ref = simulate_reference(problem, store, grid)
            return ref.x, ref.y, ref.z, coarsen_increments(store, 4)

        whole = run()
        monkeypatch.setattr(brownian, "_STREAM_VALUES", 3 * 30 * 4)
        for a, b in zip(whole, run()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("steps", [None, 3], ids=["whole", "split"])
    def test_same_nodes_with_a_producer(self, forked_walks, monkeypatch, steps):
        # a forked producer draws the windows, also 3-step windows that
        # split each eight-step coarse step
        problem = example1_problem()
        grid = make_time_grid(problem.horizon, 4)

        def run():
            store = sample_fine_increments(6, 30, 32, 4, problem.horizon)
            ref = simulate_reference(problem, store, grid)
            return ref.x, ref.y, ref.z, coarsen_increments(store, 4)

        if steps:
            monkeypatch.setattr(brownian, "_STREAM_VALUES", steps * 30 * 4)
        forked = run()
        assert len(forked_walks) == 1
        monkeypatch.setattr(brownian, "_producer_allowed", lambda: False)
        for a, b in zip(forked, run()):
            assert np.array_equal(a, b)
        assert len(forked_walks) == 1
        assert_no_child()

    @pytest.mark.parametrize("factory", [example1_problem, example2_problem])
    def test_one_fields_call_per_node(self, factory):
        # the readout takes y and z from one call of the closed form's
        # fields, and they equal analytic_u and analytic_v bit for bit
        problem = factory()
        fields, nodes = problem.closed_form.fields, []

        def counted(t, x):
            nodes.append(t)
            return fields(t, x)

        counting = dataclasses.replace(
            problem,
            closed_form=dataclasses.replace(problem.closed_form, fields=counted),
        )
        assert counting.closed_form.fields is counted
        grid = make_time_grid(problem.horizon, 4)
        store = sample_fine_increments(4, 20, 16, problem.dim_w, problem.horizon)
        ref = simulate_reference(counting, store, grid)
        assert nodes == list(grid.nodes)
        for i, t in enumerate(grid.nodes):
            assert np.array_equal(ref.y[:, i], problem.analytic_u(t, ref.x[:, i]))
            assert np.array_equal(ref.z[:, i], problem.analytic_v(t, ref.x[:, i]))

    def test_requires_analytic_solution(self):
        problem = ProblemSpec(
            name="bare",
            dim_w=1,
            x0=np.array([0.0]),
            horizon=0.25,
            b=lambda t, x, y, z: np.zeros_like(x),
            sigma=lambda t, x, y: np.ones((x.shape[0], 1, 1)),
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda x: x[:, 0],
            grad_g=lambda x: np.ones_like(x),
        )
        store = sample_fine_increments(1, 10, 16, 1, 0.25)
        with pytest.raises(UnsupportedProblem):
            simulate_reference(problem, store, make_time_grid(0.25, 4))

    @staticmethod
    def blow_up():
        """A problem whose paths 3 and 7 blow up from t = 0.1, and a store."""

        def b(t, x, y, z):
            out = np.zeros_like(x)
            if t >= 0.1:
                out[[3, 7]] = np.inf
            return out

        problem = ProblemSpec(
            name="blow-up",
            dim_w=1,
            x0=np.array([0.0]),
            horizon=0.25,
            b=b,
            sigma=lambda t, x, y: np.ones((x.shape[0], 1, 1)),
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda x: x[:, 0].copy(),
            grad_g=lambda x: np.ones_like(x),
            analytic_u=lambda t, x: x[:, 0].copy(),
            analytic_v=lambda t, x: np.ones((x.shape[0], 1)),
        )
        return problem, sample_fine_increments(1, 10, 64, 1, 0.25)

    def test_blow_up_reported_at_its_coarse_step_and_path(self):
        problem, store = self.blow_up()
        # fine step 26 (t = 0.1015625) is the first with t >= 0.1; it lies
        # in coarse step 3 of 8, which ends at node 4
        with pytest.raises(NumericalFailure) as err:
            simulate_reference(problem, store, make_time_grid(0.25, 8))
        assert (err.value.step, err.value.path) == (3, 3)
        assert "node 4" in str(err.value)

    def test_blow_up_reaps_the_producer(self, forked_walks):
        # the failure closes the walk mid-way, which ends its producer,
        # while the traceback held in err still refers to the walk
        problem, store = self.blow_up()
        with pytest.raises(NumericalFailure) as err:
            simulate_reference(problem, store, make_time_grid(0.25, 8))
        assert len(forked_walks) == 1
        assert_no_child()
        assert err.value.step == 3

    def test_incompatible_grid(self):
        problem = example2_problem()
        store = sample_fine_increments(1, 10, 16, 1, problem.horizon)
        with pytest.raises(InvalidArgument):
            simulate_reference(problem, store, make_time_grid(0.25, 3))

    @pytest.mark.parametrize("horizon", [0.5, math.nextafter(0.25, 1.0)],
                             ids=["double", "one-ulp"])
    def test_store_for_another_horizon_rejected(self, horizon):
        problem = example2_problem()
        store = sample_fine_increments(1, 10, 16, 1, horizon)
        with pytest.raises(InvalidArgument, match="disagree on the horizon"):
            simulate_reference(problem, store, make_time_grid(0.25, 4))

    @pytest.mark.parametrize("dim_w", [1, 3, 5])
    def test_store_of_another_brownian_dimension_rejected(self, dim_w):
        # example1 has dim_w = 4: one component would move all four states
        # alike, and three or five would not align with them
        problem = example1_problem()
        store = sample_fine_increments(1, 10, 16, dim_w, problem.horizon)
        with pytest.raises(InvalidArgument, match="Brownian components"):
            simulate_reference(problem, store, make_time_grid(problem.horizon, 4))


def batch(x, y, z):
    return PathBatch(x=x, y=y, z=z)


def random_batch(rng, num_paths=40, n=4, dim=2, dim_w=3):
    return batch(
        rng.normal(size=(num_paths, n + 1, dim)),
        rng.normal(size=(num_paths, n + 1)),
        rng.normal(size=(num_paths, n + 1, dim_w)),
    )


class TestComputeErrors:
    def setup_method(self):
        self.grid = make_time_grid(0.5, 4)
        self.rng = np.random.default_rng(0)

    def test_identical_batches(self):
        ref = random_batch(self.rng)
        report = compute_errors(ref, ref, self.grid)
        assert report.err_x == report.err_y == report.err_z == 0.0
        assert report.total == 0.0

    def test_constant_y_offset(self):
        ref = random_batch(self.rng)
        approx = batch(ref.x.copy(), ref.y + 0.3, ref.z.copy())
        report = compute_errors(approx, ref, self.grid)
        assert math.isclose(report.err_y, 0.09, rel_tol=1e-12)
        assert report.err_x == 0.0
        assert report.err_z == 0.0
        assert report.total == report.err_x + report.err_y + report.err_z

    def test_constant_z_offset_all_components(self):
        ref = random_batch(self.rng, dim_w=3)
        approx = batch(ref.x.copy(), ref.y.copy(), ref.z + 0.2)
        report = compute_errors(approx, ref, self.grid)
        # horizon * dim_w * c^2
        assert math.isclose(report.err_z, 0.5 * 3 * 0.04, rel_tol=1e-12)

    def test_path_permutation_invariance(self):
        ref = random_batch(self.rng)
        approx = random_batch(self.rng)
        perm = self.rng.permutation(ref.num_paths)
        before = compute_errors(approx, ref, self.grid)
        after = compute_errors(
            batch(approx.x[perm], approx.y[perm], approx.z[perm]),
            batch(ref.x[perm], ref.y[perm], ref.z[perm]),
            self.grid,
        )
        assert math.isclose(before.err_x, after.err_x, rel_tol=1e-12)
        assert math.isclose(before.err_z, after.err_z, rel_tol=1e-12)

    def test_quadratic_scaling(self):
        ref = random_batch(self.rng)
        approx = random_batch(self.rng)
        base = compute_errors(approx, ref, self.grid)
        scaled = compute_errors(
            batch(
                ref.x + 3.0 * (approx.x - ref.x),
                ref.y + 3.0 * (approx.y - ref.y),
                ref.z + 3.0 * (approx.z - ref.z),
            ),
            ref,
            self.grid,
        )
        assert math.isclose(scaled.err_x, 9.0 * base.err_x, rel_tol=1e-12)
        assert math.isclose(scaled.err_y, 9.0 * base.err_y, rel_tol=1e-12)
        assert math.isclose(scaled.err_z, 9.0 * base.err_z, rel_tol=1e-12)

    def test_last_node_excluded_from_z_error(self):
        ref = random_batch(self.rng)
        approx = batch(ref.x.copy(), ref.y.copy(), ref.z.copy())
        approx.z[:, -1, :] += 5.0
        report = compute_errors(approx, ref, self.grid)
        assert report.err_z == 0.0

    def test_same_bits_for_either_layout(self):
        # the means over paths add in one order, paths-fastest or not
        approx = random_batch(self.rng, num_paths=3000, dim=4, dim_w=4)
        ref = random_batch(self.rng, num_paths=3000, dim=4, dim_w=4)
        report = compute_errors(approx, ref, self.grid)
        approx_f, ref_f = (
            batch(*(np.asfortranarray(a) for a in (b.x, b.y, b.z)))
            for b in (approx, ref)
        )
        assert compute_errors(approx_f, ref_f, self.grid) == report
        assert compute_errors(approx_f, ref, self.grid) == report

    @pytest.mark.parametrize("dim, arrays", [(4, 2.25), (1, 4.25)])
    def test_deviations_squared_in_place(self, dim, arrays):
        # the difference is squared in place and freed before its C-order
        # copy; at dim 1 the sum over components and that copy are as large
        # as the difference, so the bound is in units of a (paths, nodes,
        # dim) array
        num_paths, n = 8192, 8
        approx, ref = (
            batch(*(np.asfortranarray(a) for a in (b.x, b.y, b.z)))
            for b in (random_batch(self.rng, num_paths, n, dim, dim)
                      for _ in range(2))
        )
        grid = make_time_grid(0.25, n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            compute_errors(approx, ref, grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < arrays * num_paths * (n + 1) * dim * 8

    def test_shape_mismatch(self):
        ref = random_batch(self.rng)
        small = random_batch(self.rng, num_paths=10)
        with pytest.raises(InvalidArgument):
            compute_errors(small, ref, self.grid)


class TestFitRate:
    def test_inverse_decay(self):
        points = [(n, 3.0 / n) for n in (2, 4, 8, 16, 32)]
        assert math.isclose(fit_rate(points), -1.0, rel_tol=1e-12)

    def test_constant(self):
        assert abs(fit_rate([(2, 0.5), (4, 0.5), (8, 0.5)])) <= 1e-12

    def test_quadratic_decay(self):
        points = [(n, 7.0 / n**2) for n in (2, 4, 8)]
        assert math.isclose(fit_rate(points), -2.0, rel_tol=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(InvalidArgument):
            fit_rate([(2, 0.5)])

    def test_needs_two_distinct_step_counts(self):
        # one distinct n leaves the slope undetermined
        with pytest.raises(InvalidArgument, match="distinct"):
            fit_rate([(4, 0.1), (4, 0.1)])

    def test_rejects_nonpositive_errors(self):
        with pytest.raises(InvalidArgument):
            fit_rate([(2, 0.5), (4, 0.0)])
