"""Tests for the forward sweep, backward pass, and the outer iteration."""

import dataclasses
import json
import math
import weakref

import numpy as np
import pytest

from fbsdekit import solver
from fbsdekit.brownian import (
    coarsen_increments,
    make_time_grid,
    sample_fine_increments,
)
from fbsdekit.errors import InvalidArgument, NumericalFailure
from fbsdekit.fields import (
    QuadraticField,
    clamp,
    eval_u,
    eval_v_diff,
    features,
    num_features,
    zero_field,
)
from fbsdekit.problems import (
    ProblemSpec,
    decoupled_test_problem,
    example1_problem,
    example2_problem,
)
from fbsdekit.reference import simulate_reference
from fbsdekit.solver import (
    METHODS,
    SolverConfig,
    backward_pass,
    forward_simulate,
    run_markovian_iteration,
)

BOX = (np.array([-10.0]), np.array([10.0]))


def make_problem(drift=0.0, vol=0.0, x0=1.0, horizon=0.25):
    """Deterministic 1-d problem with constant coefficients."""
    return ProblemSpec(
        name="toy",
        dim_w=1,
        x0=np.array([x0]),
        horizon=horizon,
        b=lambda t, x, y, z: np.full_like(x, drift),
        sigma=lambda t, x, y: np.full((x.shape[0], 1, 1), vol),
        f=lambda t, x, y, z: np.zeros(x.shape[0]),
        g=lambda x: x[:, 0].copy(),
        grad_g=lambda x: np.ones_like(x),
    )


def zero_fields(n, dim=1):
    return [zero_field(dim, *BOX)] * n


def direct_zero_fields(problem, n):
    """``n`` zero fields of the direct method's ``1 + dim_w`` columns."""
    fld = zero_field(problem.dim_x, problem.x0 - 3.0, problem.x0 + 3.0)
    coeffs = np.zeros((fld.coeffs.size, 1 + problem.dim_w))
    return [dataclasses.replace(fld, coeffs=coeffs)] * n


# per-step field lists that example1 (dim_x = dim_w = 4) on a 4-step grid
# rejects: one field short, one over, and fields on states of another dim
FIELD_LISTS = [
    (3, 4, "need 4 per-step fields, got 3"),
    (5, 4, "need 4 per-step fields, got 5"),
    (4, 2, "2-dimensional states, not dim_x = 4"),
    (4, 5, "5-dimensional states, not dim_x = 4"),
]
FIELD_LIST_IDS = ["three", "five", "dim-2", "dim-5"]


class TestForwardSimulate:
    def test_frozen_dynamics(self):
        problem = make_problem(drift=0.0, vol=0.0, x0=2.0)
        grid = make_time_grid(0.25, 4)
        inc = np.zeros((8, 4, 1))
        paths = forward_simulate(problem, zero_fields(4), inc, grid)
        assert np.all(paths.x == 2.0)

    def test_single_euler_step(self):
        problem = make_problem(drift=1.0, vol=0.0, x0=2.0)
        grid = make_time_grid(0.25, 1)
        paths = forward_simulate(problem, zero_fields(1), np.zeros((3, 1, 1)), grid)
        assert np.allclose(paths.x[:, 1, 0], 2.25)

    def test_zero_fields_reduce_example2_drift(self):
        # with zero fields Y = Z = 0, so the drift is the z-free part
        problem = example2_problem()
        grid = make_time_grid(problem.horizon, 8)
        store = sample_fine_increments(3, 200, 32, 1, problem.horizon)
        inc = coarsen_increments(store, 8)
        paths = forward_simulate(problem, zero_fields(8), inc, grid)
        assert np.all(paths.y[:, :8] == 0.0)
        assert np.all(paths.z[:, :8] == 0.0)
        state = np.full((200, 1), 1.5)
        for i in range(8):
            w = grid.nodes[i] + state
            drift = -0.5 * np.sin(w) * np.cos(w) * np.square(np.sin(w))
            state = state + drift * grid.h + np.cos(w) * inc[:, i]
        assert np.allclose(paths.x[:, 8], state, rtol=0, atol=1e-14)

    def test_terminal_values_from_g(self):
        problem = make_problem(drift=0.0, vol=1.0)
        grid = make_time_grid(0.25, 2)
        store = sample_fine_increments(4, 50, 4, 1, 0.25)
        inc = coarsen_increments(store, 2)
        paths = forward_simulate(problem, zero_fields(2), inc, grid)
        assert np.array_equal(paths.y[:, 2], paths.x[:, 2, 0])
        assert np.allclose(paths.z[:, 2, 0], 1.0)  # grad_g * sigma = 1

    def test_non_finite_state_raises_with_location(self):
        problem = ProblemSpec(
            name="explode",
            dim_w=1,
            x0=np.array([1.0]),
            horizon=0.25,
            b=lambda t, x, y, z: 1e200 * x,
            sigma=lambda t, x, y: np.zeros((x.shape[0], 1, 1)),
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda x: x[:, 0].copy(),
            grad_g=lambda x: np.ones_like(x),
        )
        grid = make_time_grid(0.25, 4)
        with np.errstate(over="ignore"), pytest.raises(NumericalFailure) as err:
            forward_simulate(problem, zero_fields(4), np.zeros((2, 4, 1)), grid)
        assert err.value.step is not None

    @pytest.mark.parametrize("factory, half_width", [
        (example2_problem, 0.01),
        (example1_problem, 0.3),
    ])
    def test_gradient_process_from_the_step_diffusion(self, factory, half_width):
        # Y equals eval_u and Z eval_v_diff of each field, from the one
        # sigma call per node that the Euler step also uses, on the closed
        # form and on the composed spec; the box clamps some paths
        problem = factory()
        grid = make_time_grid(problem.horizon, 4)
        inc = coarsen_increments(
            sample_fine_increments(3, 200, 16, problem.dim_w, problem.horizon), 4
        )
        lo, hi = problem.x0 - half_width, problem.x0 + half_width
        rng = np.random.default_rng(5)
        base = 0.2 * rng.normal(size=num_features(problem.dim_x))
        base[0] = 1.0  # Y about 1, so example1's diffusion moves
        fields = [QuadraticField(problem.dim_x, base * (i + 1), lo, hi)
                  for i in range(4)]
        calls = []

        def sigma(t, x, y):
            calls.append(t)
            return problem.sigma(t, x, y)

        counting = dataclasses.replace(problem, sigma=sigma)
        paths = forward_simulate(problem, fields, inc, grid)
        composed = forward_simulate(counting, fields, inc, grid)
        assert len(calls) == grid.n + 1
        inner = paths.x[:, 1 : grid.n]
        assert np.any((inner < lo) | (inner > hi))
        for batch in (paths, composed):
            for i in range(grid.n):
                state = batch.x[:, i]
                assert np.array_equal(batch.y[:, i], eval_u(fields[i], state))
                assert np.array_equal(
                    batch.z[:, i],
                    eval_v_diff(fields[i], problem.sigma, grid.nodes[i], state),
                )

    @pytest.mark.parametrize("method", METHODS)
    def test_paths_stored_paths_fastest(self, method):
        problem = example1_problem()
        grid = make_time_grid(problem.horizon, 4)
        inc = coarsen_increments(
            sample_fine_increments(2, 40, 16, 4, problem.horizon), 4
        )
        if method == "direct":
            fields = direct_zero_fields(problem, 4)
        else:
            fields = [zero_field(4, problem.x0 - 3.0, problem.x0 + 3.0)] * 4
        paths = forward_simulate(problem, fields, inc, grid)
        for arr in (paths.x, paths.y, paths.z):
            assert arr.strides[0] == arr.itemsize

    @pytest.mark.parametrize("factory", [
        example1_problem, example2_problem,
        lambda: decoupled_test_problem("brownian-linear"),
    ], ids=["example1", "example2", "brownian-linear"])
    def test_zero_gradient_fields_equal_differentiated_zero_fields(self, factory):
        # the direct method's first sweep differentiates scalar zero
        # fields instead of reading zero direct fields: the same bits
        problem = factory()
        grid = make_time_grid(problem.horizon, 8)
        inc = coarsen_increments(
            sample_fine_increments(3, 400, 64, problem.dim_w, problem.horizon), 8
        )
        fields = [zero_field(problem.dim_x, problem.x0 - 3.0, problem.x0 + 3.0)] * 8
        differentiated = forward_simulate(problem, fields, inc, grid)
        read = forward_simulate(problem, direct_zero_fields(problem, 8), inc, grid)
        for name in ("x", "y", "z"):
            ours, theirs = getattr(differentiated, name), getattr(read, name)
            assert np.array_equal(ours, theirs)
            assert np.array_equal(np.signbit(ours), np.signbit(theirs))

    @pytest.mark.parametrize("factory", [example1_problem, example2_problem])
    def test_direct_field_columns_give_value_and_gradient(self, factory):
        # one feature matrix per node: column 0 gives Y and the others Z,
        # bit for bit as the column views' products; the box clamps paths
        problem = factory()
        grid = make_time_grid(problem.horizon, 4)
        inc = coarsen_increments(
            sample_fine_increments(3, 300, 16, problem.dim_w, problem.horizon), 4
        )
        rng = np.random.default_rng(4)
        lo, hi = problem.x0 - 0.01, problem.x0 + 0.01
        fields = []
        for fld in direct_zero_fields(problem, 4):
            coeffs = 0.1 * rng.normal(size=fld.coeffs.shape)
            coeffs[0, 0] = 1.0  # Y about 1, so example1's diffusion moves
            fields.append(QuadraticField(problem.dim_x, coeffs, lo, hi))
        paths = forward_simulate(problem, fields, inc, grid)
        inner = paths.x[:, 1 : grid.n]
        assert np.any((inner < lo) | (inner > hi))
        for i, fld in enumerate(fields):
            phi = features(clamp(paths.x[:, i], fld), problem.dim_x)
            assert np.array_equal(paths.y[:, i], phi @ fld.coeffs[:, 0])
            assert np.array_equal(paths.z[:, i], phi @ fld.coeffs[:, 1:])

    @pytest.mark.parametrize("count, dim, message", FIELD_LISTS,
                             ids=FIELD_LIST_IDS)
    def test_fields_of_another_count_or_dim_rejected(self, count, dim, message):
        problem = example1_problem()
        grid = make_time_grid(problem.horizon, 4)
        fields = [zero_field(dim, np.full(dim, -2.0), np.full(dim, 4.0))] * count
        with pytest.raises(InvalidArgument, match=message):
            forward_simulate(problem, fields, np.zeros((3, 4, 4)), grid)

    @pytest.mark.parametrize("columns", [2, 4, 6])
    def test_direct_field_needs_one_plus_dim_w_columns(self, columns):
        # example1 has dim_w = 4: a field of 2 or 4 columns would broadcast
        # into Z or leave out Y
        problem = example1_problem()
        grid = make_time_grid(problem.horizon, 2)
        fields = [dataclasses.replace(direct_zero_fields(problem, 1)[0],
                                      coeffs=np.zeros((15, columns)))] * 2
        with pytest.raises(InvalidArgument, match=rf"{columns} coefficient columns"):
            forward_simulate(problem, fields, np.zeros((3, 2, 4)), grid)

    @pytest.mark.parametrize("shape", [(50, 8, 1), (50, 4, 4), (50, 8)],
                             ids=["one-component", "too-few-steps", "no-components"])
    def test_increments_of_another_shape_rejected(self, shape):
        # example1 has dim_w = 4: one component would broadcast across all
        # four, and four steps on an eight-step grid would run out
        problem = example1_problem()
        grid = make_time_grid(problem.horizon, 8)
        fields = [zero_field(4, problem.x0 - 3.0, problem.x0 + 3.0)] * 8
        with pytest.raises(InvalidArgument, match=r"not \(paths, N, dim_w\)"):
            forward_simulate(problem, fields, np.zeros(shape), grid)


class TestBackwardPass:
    def test_constant_terminal_condition(self):
        problem = decoupled_test_problem("constant", value=2.0)
        grid = make_time_grid(0.25, 4)
        store = sample_fine_increments(5, 2000, 16, 1, 0.25)
        inc = coarsen_increments(store, 4)
        paths = forward_simulate(problem, zero_fields(4), inc, grid)
        fields = backward_pass(problem, paths, inc, grid, zero_fields(4))
        for fld in fields:
            assert fld.coeffs.ndim == 1
            vals = eval_u(fld, np.linspace(-1.0, 1.0, 7)[:, None])
            assert np.allclose(vals, 2.0, atol=1e-7)

    def test_single_step_fits_terminal_targets(self):
        problem = decoupled_test_problem("brownian-linear")
        grid = make_time_grid(0.25, 1)
        store = sample_fine_increments(6, 5000, 1, 1, 0.25)
        inc = coarsen_increments(store, 1)
        paths = forward_simulate(problem, zero_fields(1), inc, grid)
        fields = backward_pass(problem, paths, inc, grid, zero_fields(1))
        assert len(fields) == 1
        # E[W_T | W_0 = 0] = 0 and the field is evaluated only at x0 = 0
        assert abs(eval_u(fields[0], np.zeros((1, 1)))[0]) <= 5.0 / np.sqrt(5000)

    def test_unknown_method_rejected(self):
        problem = make_problem()
        grid = make_time_grid(0.25, 2)
        inc = np.zeros((3, 2, 1))
        paths = forward_simulate(problem, zero_fields(2), inc, grid)
        with pytest.raises(InvalidArgument):
            backward_pass(problem, paths, inc, grid, zero_fields(2),
                          method="Direct")

    @pytest.mark.parametrize("shape", [(50, 8, 1), (50, 4, 4), (49, 8, 4)],
                             ids=["one-component", "too-few-steps", "other-paths"])
    def test_increments_of_another_shape_rejected(self, shape):
        # the fits take the sweep's increments: (paths, N, dim_w) with the
        # paths of the batch and example1's dim_w = 4
        problem = example1_problem()
        grid = make_time_grid(problem.horizon, 8)
        fields = [zero_field(4, problem.x0 - 3.0, problem.x0 + 3.0)] * 8
        paths = forward_simulate(problem, fields, np.zeros((50, 8, 4)), grid)
        with pytest.raises(InvalidArgument, match=r"not \(paths, N, dim_w\)"):
            backward_pass(problem, paths, np.zeros(shape), grid, fields)

    @staticmethod
    def example1_sweep():
        problem = example1_problem()
        grid = make_time_grid(problem.horizon, 4)
        fields = [zero_field(4, problem.x0 - 3.0, problem.x0 + 3.0)] * 4
        inc = np.zeros((50, 4, 4))
        return problem, grid, fields, inc, forward_simulate(problem, fields, inc, grid)

    @pytest.mark.parametrize("count, dim, message", FIELD_LISTS,
                             ids=FIELD_LIST_IDS)
    def test_warm_fields_of_another_count_or_dim_rejected(self, count, dim,
                                                           message):
        # the forward sweep's rule: 3 fields ran out at step 3, a fifth was
        # ignored, and another dim failed to broadcast inside the fit
        problem, grid, _, inc, paths = self.example1_sweep()
        warm = [zero_field(dim, np.full(dim, -2.0), np.full(dim, 4.0))] * count
        with pytest.raises(InvalidArgument, match=message):
            backward_pass(problem, paths, inc, grid, warm)

    def test_warm_field_of_another_column_count_rejected(self):
        problem, grid, fields, inc, paths = self.example1_sweep()
        warm = [dataclasses.replace(fld, coeffs=np.zeros((15, 2))) for fld in fields]
        with pytest.raises(InvalidArgument, match="2 coefficient columns"):
            backward_pass(problem, paths, inc, grid, warm, method="direct")

    def test_first_target_is_the_sweeps_terminal_value(self):
        # the sweep stored g(x_N) at node N, so the backward pass reads it
        # there and calls g no more
        problem = example1_problem()
        grid = make_time_grid(problem.horizon, 2)
        inc = coarsen_increments(
            sample_fine_increments(2, 300, 16, 4, problem.horizon), 2
        )
        fields = [zero_field(4, problem.x0 - 3.0, problem.x0 + 3.0)] * 2
        paths = forward_simulate(problem, fields, inc, grid)

        def no_g(x):
            raise AssertionError("g called again")

        fitted = backward_pass(dataclasses.replace(problem, g=no_g), paths, inc,
                               grid, fields)
        again = backward_pass(problem, paths, inc, grid, fields)
        for ours, theirs in zip(fitted, again):
            assert np.array_equal(ours.coeffs, theirs.coeffs)

    def test_martingale_identity_fields(self):
        problem = decoupled_test_problem("brownian-linear")
        n, lam = 4, 20000
        grid = make_time_grid(0.25, n)
        store = sample_fine_increments(8, lam, 16, 1, 0.25)
        inc = coarsen_increments(store, n)
        paths = forward_simulate(problem, zero_fields(n), inc, grid)
        fields = backward_pass(problem, paths, inc, grid, zero_fields(n))
        tol = 5.0 / np.sqrt(lam)
        for i in range(1, n):  # step 0 sees the degenerate single point x0
            xs = np.quantile(paths.x[:, i, 0], [0.25, 0.5, 0.75])[:, None]
            assert np.max(np.abs(eval_u(fields[i], xs) - xs[:, 0])) <= tol


    def test_diffusion_failure_at_the_first_fit_names_step_n_minus_1(self):
        # NaN sigma matrices on the composed path fail the first fit
        problem = decoupled_test_problem("brownian-linear")
        n = 4
        grid = make_time_grid(problem.horizon, n)
        inc = coarsen_increments(
            sample_fine_increments(8, 200, 16, 1, problem.horizon), n
        )
        paths = forward_simulate(problem, zero_fields(n), inc, grid)
        bad = dataclasses.replace(
            problem, sigma=lambda t, xs, y: np.full((xs.shape[0], 1, 1), np.nan)
        )
        with pytest.raises(NumericalFailure, match="diffusion") as err:
            backward_pass(bad, paths, inc, grid, zero_fields(n))
        assert err.value.step == n - 1

    def test_diffusion_failure_names_the_step_of_the_bad_warm_field(self):
        # example1's closed form, sigma = sigma_bar y I: the warm field of
        # step k has non-finite values, and the fits above it succeed
        problem = example1_problem()
        n, k = 4, 1
        grid = make_time_grid(problem.horizon, n)
        inc = coarsen_increments(
            sample_fine_increments(6, 300, 16, 4, problem.horizon), n
        )
        lo, hi = problem.x0 - 1.0, problem.x0 + 1.0
        coeffs = 3.0 * np.eye(15)[0] + 0.3 * np.eye(15)[2]
        warm = [QuadraticField(4, coeffs, lo, hi)] * n
        paths = forward_simulate(problem, warm, inc, grid)
        warm[k] = dataclasses.replace(warm[k], coeffs=np.full(15, np.inf))
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
            NumericalFailure, match="diffusion"
        ) as err:
            backward_pass(problem, paths, inc, grid, warm)
        assert err.value.step == k


def test_auto_box_equals_the_quantiles_of_row_major_states():
    # the box's quantiles do not depend on the order the states are listed
    problem = example1_problem()
    grid = make_time_grid(problem.horizon, 8)
    inc = coarsen_increments(
        sample_fine_increments(6, 500, 64, 4, problem.horizon), 8
    )
    lo, hi = problem.x0 - 1.0, problem.x0 + 1.0
    fields = [QuadraticField(4, 3.0 * np.eye(15)[0] + 0.3 * np.eye(15)[2], lo, hi)] * 8
    paths = forward_simulate(problem, fields, inc, grid)
    rows = np.ascontiguousarray(paths.x).reshape(-1, 4)
    q_lo = np.quantile(rows, 0.0005, axis=0)
    q_hi = np.quantile(rows, 0.9995, axis=0)
    center = 0.5 * (q_lo + q_hi)
    half = np.maximum(0.55 * (q_hi - q_lo), 3.0)
    assert np.any(0.55 * (q_hi - q_lo) > 3.0)
    box = solver._auto_box(paths)
    assert np.array_equal(box[0], center - half)
    assert np.array_equal(box[1], center + half)


class TestRunMarkovianIteration:
    def test_single_iteration_matches_manual_passes(self):
        problem = decoupled_test_problem("brownian-linear")
        cfg = SolverConfig(n_steps=4, num_iterations=1, num_paths=500, fine_n=16,
                           seed=9, trunc_lo=BOX[0], trunc_hi=BOX[1])
        result = run_markovian_iteration(problem, cfg)
        store = sample_fine_increments(9, 500, 16, 1, 0.25)
        grid = make_time_grid(0.25, 4)
        inc = coarsen_increments(store, 4)
        paths = forward_simulate(problem, zero_fields(4), inc, grid)
        fields = backward_pass(problem, paths, inc, grid, zero_fields(4))
        for got, expected in zip(result.fields[0], fields):
            assert np.array_equal(got.coeffs, expected.coeffs)

    def test_deterministic_rerun(self):
        problem = example2_problem()
        cfg = SolverConfig(n_steps=4, num_iterations=2, num_paths=300, fine_n=64)
        a = run_markovian_iteration(problem, cfg)
        b = run_markovian_iteration(problem, cfg)
        assert np.array_equal(a.final_paths.x, b.final_paths.x)
        assert np.array_equal(a.final_paths.z, b.final_paths.z)
        for fa, fb in zip(a.fields[-1], b.fields[-1]):
            assert np.array_equal(fa.coeffs, fb.coeffs)

    def test_field_counts(self):
        problem = example2_problem()
        cfg = SolverConfig(n_steps=5, num_iterations=3, num_paths=200, fine_n=40)
        result = run_markovian_iteration(problem, cfg)
        assert len(result.fields) == 3
        assert all(len(per_step) == 5 for per_step in result.fields)
        assert all(f.coeffs.shape == (3,) for per_step in result.fields
                   for f in per_step)

    def test_direct_method_fields_hold_value_and_gradient_columns(self):
        # one field per (iteration, step): P rows, 1 + dim_w columns
        problem = example2_problem()
        cfg = SolverConfig(
            n_steps=4, num_iterations=2, num_paths=300, fine_n=16,
            method="direct",
        )
        result = run_markovian_iteration(problem, cfg)
        assert len(result.fields) == 2
        assert all(len(per_step) == 4 for per_step in result.fields)
        assert all(f.coeffs.shape == (3, 2) for per_step in result.fields
                   for f in per_step)
        assert not hasattr(result, "zfields")

    def test_zero_coupling_iterations_identical(self):
        # forward law does not react to the fields, so later iterations
        # refit identical regressions
        problem = decoupled_test_problem("brownian-linear")
        cfg = SolverConfig(n_steps=3, num_iterations=3, num_paths=400, fine_n=12)
        result = run_markovian_iteration(problem, cfg)
        for i in range(3):
            first = result.fields[0][i].coeffs
            last = result.fields[2][i].coeffs
            assert np.array_equal(first, last)

    def test_per_iteration_errors_contract(self):
        problem = example2_problem()
        lam, fine = 2000, 256
        store = sample_fine_increments(11, lam, fine, 1, problem.horizon)
        grid = make_time_grid(problem.horizon, 8)
        reference = simulate_reference(problem, store, grid)
        cfg = SolverConfig(n_steps=8, num_iterations=4, num_paths=lam, fine_n=fine,
                           seed=11)
        result = run_markovian_iteration(
            problem, cfg, store=store, reference_paths=reference
        )
        totals = [r.total for r in result.per_iteration_errors]
        assert len(totals) == 4
        # contraction with Monte Carlo slack from the second iteration on
        for before, after in zip(totals[1:], totals[2:]):
            assert after <= 1.2 * before

    @pytest.mark.parametrize("seed, num_paths, dim_w, horizon", [
        (7, 10, 1, 0.25),  # paths
        (7, 11, 1, 0.5),  # horizon: coarse increments of twice the variance
        (7, 11, 1, math.nextafter(0.25, 1.0)),  # horizon, one ulp off
        (7, 11, 2, 0.25),  # dim_w: two Brownian components for one
        (2, 11, 1, 0.25),  # seed: not the seed the configuration reports
    ], ids=["paths", "horizon", "horizon-ulp", "dim_w", "seed"])
    def test_mismatched_store_rejected(self, seed, num_paths, dim_w, horizon):
        problem = example2_problem()
        store = sample_fine_increments(seed, num_paths, 16, dim_w, horizon)
        cfg = SolverConfig(n_steps=4, num_iterations=1, num_paths=11, fine_n=16)
        with pytest.raises(InvalidArgument, match="does not match"):
            run_markovian_iteration(problem, cfg, store=store)

    def test_config_validation(self):
        with pytest.raises(InvalidArgument):
            SolverConfig(n_steps=3, num_iterations=1, num_paths=10, fine_n=16)
        with pytest.raises(InvalidArgument):
            SolverConfig(n_steps=4, num_iterations=1, num_paths=10, fine_n=16,
                         method="bogus")
        with pytest.raises(InvalidArgument):
            SolverConfig(n_steps=4, num_iterations=0, num_paths=10, fine_n=16)
        # whole positive counts only, each with the rule's own message
        counts = {"n_steps": 4, "num_iterations": 1, "num_paths": 10, "fine_n": 16}
        for bad in [{"n_steps": None}, {"n_steps": 2.5, "fine_n": 20},
                    {"num_paths": 2.5}, {"n_steps": float("nan")}]:
            with pytest.raises(InvalidArgument, match="must be a positive integer"):
                SolverConfig(**{**counts, **bad})
        assert type(SolverConfig(**{**counts, "n_steps": 4.0}).n_steps) is int

    @pytest.mark.parametrize("seed", [2.5, None, float("nan"), "7"],
                             ids=["fraction", "none", "nan", "string"])
    def test_seed_must_be_a_whole_number(self, seed):
        # the config's own check, before the store would truncate 2.5 or
        # fail in int() on None and NaN
        counts = {"n_steps": 4, "num_iterations": 1, "num_paths": 10, "fine_n": 16}
        with pytest.raises(InvalidArgument, match="seed must be a whole number"):
            SolverConfig(**counts, seed=seed)

    def test_whole_seed_stored_as_int(self):
        counts = {"n_steps": 4, "num_iterations": 1, "num_paths": 10, "fine_n": 16}
        cfg = SolverConfig(**counts, seed=7.0)
        assert type(cfg.seed) is int and cfg.seed == 7
        # the row reports the seed as given; the store masks it
        assert SolverConfig(**counts, seed=-1).seed == -1

    def test_explicit_box_reaches_fitted_fields(self):
        problem = decoupled_test_problem("brownian-linear")
        cfg = SolverConfig(
            n_steps=2, num_iterations=1, num_paths=200, fine_n=8,
            trunc_lo=np.array([-0.25]), trunc_hi=np.array([0.75]),
        )
        result = run_markovian_iteration(problem, cfg)
        for fld in result.fields[0]:
            assert np.array_equal(fld.trunc_lo, [-0.25])
            assert np.array_equal(fld.trunc_hi, [0.75])

    def test_per_iteration_report_matches_shorter_run(self):
        # the m-th per-iteration report equals the final report of a run
        # stopped at m iterations
        problem = example2_problem()
        store = sample_fine_increments(12, 500, 64, 1, problem.horizon)
        grid = make_time_grid(problem.horizon, 4)
        reference = simulate_reference(problem, store, grid)
        long, short = (
            run_markovian_iteration(
                problem,
                SolverConfig(n_steps=4, num_iterations=m, num_paths=500,
                             fine_n=64, seed=12),
                store=store, reference_paths=reference,
            )
            for m in (3, 2)
        )
        assert (long.per_iteration_errors[1].total
                == short.per_iteration_errors[-1].total)

    @pytest.mark.parametrize("with_reference", [False, True])
    def test_forward_sweep_count(self, monkeypatch, with_reference):
        # M + 1 sweeps on the base increments, with or without reports
        problem = example2_problem()
        store = sample_fine_increments(13, 300, 16, 1, problem.horizon)
        grid = make_time_grid(problem.horizon, 4)
        reference = simulate_reference(problem, store, grid) if with_reference else None
        calls = []

        def counting(problem, fields, *args, **kwargs):
            calls.append(fields)
            return forward_simulate(problem, fields, *args, **kwargs)

        monkeypatch.setattr(solver, "forward_simulate", counting)
        cfg = SolverConfig(n_steps=4, num_iterations=3, num_paths=300, fine_n=16,
                           seed=13)
        result = run_markovian_iteration(problem, cfg, store=store,
                                         reference_paths=reference)
        assert len(calls) == 4
        assert calls[-1] is result.fields[-1]
        if with_reference:
            assert len(result.per_iteration_errors) == 3

    @pytest.mark.parametrize("method", METHODS)
    def test_each_sweep_freed_before_the_next(self, monkeypatch, method):
        # one sweep's paths at a time: sweep m is gone when m + 1 starts
        problem = example2_problem()
        sweeps = []

        def tracking(*args, **kwargs):
            assert all(ref() is None for ref in sweeps)
            paths = forward_simulate(*args, **kwargs)
            sweeps.append(weakref.ref(paths))
            return paths

        monkeypatch.setattr(solver, "forward_simulate", tracking)
        cfg = SolverConfig(n_steps=4, num_iterations=3, num_paths=300, fine_n=16,
                           method=method)
        result = run_markovian_iteration(problem, cfg)
        assert len(sweeps) == 4 and sweeps[-1]() is result.final_paths

    def test_checkpoint_round_trip(self, tmp_path):
        # a direct checkpoint is one table: a header, then M x N records of
        # (P, 1 + dim_w) fields
        from fbsdekit.solver import read_checkpoint, write_checkpoint

        problem = example2_problem()
        cfg = SolverConfig(n_steps=3, num_iterations=2, num_paths=200,
                           fine_n=12, method="direct")
        result = run_markovian_iteration(problem, cfg)
        path = tmp_path / "fields.jsonl"
        write_checkpoint(result, path)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"iterations": 2, "steps": 3}
        assert len(lines) == 1 + 2 * 3
        fields = read_checkpoint(path)
        assert len(fields) == 2 and len(fields[0]) == 3
        for m in range(2):
            for i in range(3):
                assert fields[m][i].coeffs.shape == (3, 2)
                assert np.array_equal(
                    fields[m][i].coeffs, result.fields[m][i].coeffs
                )

    @pytest.mark.parametrize("box", [([-1.0], [1.0]), ([-1.0, np.nan], [1.0, 1.0])],
                             ids=["1-box", "nan-lo"])
    def test_checkpoint_with_malformed_box_rejected(self, tmp_path, box):
        from fbsdekit.solver import read_checkpoint, write_checkpoint

        problem = example1_problem(dim=2)
        cfg = SolverConfig(n_steps=2, num_iterations=1, num_paths=100, fine_n=8)
        path = tmp_path / "fields.jsonl"
        write_checkpoint(run_markovian_iteration(problem, cfg), path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[-1]["trunc_lo"], records[-1]["trunc_hi"] = box
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(InvalidArgument):
            read_checkpoint(path)

    @staticmethod
    def _drop(dropped):
        """Edit of a checkpoint's lines that leaves out the records
        ``dropped`` holds for; it drops at least one."""
        def edit(lines):
            kept = [line for line in lines if not dropped(json.loads(line))]
            assert len(kept) < len(lines)
            return "".join(line + "\n" for line in kept)
        return edit

    @staticmethod
    def _fifth_line(change):
        """Edit of a checkpoint's lines that applies ``change`` to the
        record on line 5."""
        def edit(lines):
            record = json.loads(lines[4])
            change(record)
            lines[4] = json.dumps(record)
            return "".join(line + "\n" for line in lines)
        return edit

    @pytest.mark.parametrize("edit, message", [
        (_drop(lambda r: r.get("iteration") == 1), r"no field at .* = \(1, 0\)"),
        (_drop(lambda r: r.get("iteration") == 3), r"no field at .* = \(3, 0\)"),
        (_drop(lambda r: r.get("time_index") == 2), r"no field at .* = \(1, 2\)"),
        (_drop(lambda r: "iterations" in r), "lacks its header record"),
        (lambda lines: "\n".join(lines)[:-20],
         r"line 10 is no field record \(JSONDecodeError: "),
        (lambda lines: "\n".join(lines) + "\n\n",
         r"line 11 is no field record \(JSONDecodeError: Expecting value\)"),
        (_fifth_line(lambda r: r.pop("iteration")),
         r"line 5 is no field record \(KeyError: 'iteration'\)"),
        (_fifth_line(lambda r: r.update(iteration=[1])),
         r"line 5 is no field record \(TypeError: .* are not ints\)"),
    ], ids=["first-iteration", "last-iteration", "last-step", "header",
            "cut-last-line", "blank-last-line", "no-iteration", "list-iteration"])
    def test_incomplete_checkpoint_rejected(self, tmp_path, edit, message):
        from fbsdekit.solver import read_checkpoint, write_checkpoint

        problem = example2_problem()
        cfg = SolverConfig(n_steps=3, num_iterations=3, num_paths=200,
                           fine_n=12, method="direct")
        path = tmp_path / "fields.jsonl"
        write_checkpoint(run_markovian_iteration(problem, cfg), path)
        path.write_text(edit(path.read_text().splitlines()))
        with pytest.raises(InvalidArgument, match=message):
            read_checkpoint(path)

    @pytest.mark.parametrize("header, message", [
        ({"iterations": 2}, r"extra field at .* = \(3, 0\)"),
        ({"gradient_fields": True}, "lacks its header record"),
        ({"steps": "3"}, "lacks its header record"),
        # a count below 1 read back as no fields at all
        ({"iterations": 0}, "header key 'iterations' must be a positive integer"),
        ({"iterations": -2}, "header key 'iterations' must be a positive integer"),
        ({"steps": 0}, "header key 'steps' must be a positive integer"),
    ], ids=["fewer-iterations", "two-table-header", "malformed", "zero-iterations",
            "negative-iterations", "zero-steps"])
    def test_checkpoint_beyond_its_header_rejected(self, tmp_path, header, message):
        # a header that names a gradient table, as the earlier two-table
        # format's did, is no header of this format
        from fbsdekit.solver import read_checkpoint, write_checkpoint

        problem = example2_problem()
        cfg = SolverConfig(n_steps=3, num_iterations=3, num_paths=200,
                           fine_n=12, method="direct")
        path = tmp_path / "fields.jsonl"
        write_checkpoint(run_markovian_iteration(problem, cfg), path)
        first, rest = path.read_text().split("\n", 1)
        path.write_text(json.dumps({**json.loads(first), **header}) + "\n" + rest)
        with pytest.raises(InvalidArgument, match=message):
            read_checkpoint(path)

    @pytest.mark.parametrize("method", METHODS)
    def test_duplicate_checkpoint_record_rejected(self, tmp_path, method):
        # a second (1, 0) record must not overwrite the first one silently
        from fbsdekit.solver import read_checkpoint, write_checkpoint

        problem = example2_problem()
        cfg = SolverConfig(n_steps=3, num_iterations=2, num_paths=200,
                           fine_n=12, method=method)
        path = tmp_path / "fields.jsonl"
        write_checkpoint(run_markovian_iteration(problem, cfg), path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        duplicate = next(
            r for r in records[1:] if (r["iteration"], r["time_index"]) == (1, 0)
        )
        duplicate = {**duplicate,
                     "coeffs": np.full_like(duplicate["coeffs"], 9.0).tolist()}
        with open(path, "a") as handle:
            handle.write(json.dumps(duplicate) + "\n")
        with pytest.raises(InvalidArgument,
                           match=r"duplicate field at .* = \(1, 0\)"):
            read_checkpoint(path)

    @pytest.mark.parametrize("method", METHODS)
    def test_fit_failure_names_iteration_and_step(self, monkeypatch, method):
        # the fit raises unlabelled, in iteration 2 at step 1; the loops
        # above it label the failure
        name = f"fit_step_{method}"
        fit = getattr(solver, name)
        n, m, i = 4, 2, 1
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == (m - 1) * n + (n - i):  # steps run N-1 .. 0
                raise NumericalFailure("non-finite values in regression inputs")
            return fit(*args, **kwargs)

        monkeypatch.setattr(solver, name, failing)
        cfg = SolverConfig(n_steps=n, num_iterations=3, num_paths=300, fine_n=16,
                           method=method)
        with pytest.raises(NumericalFailure) as err:
            run_markovian_iteration(example2_problem(), cfg)
        assert (err.value.iteration, err.value.step) == (m, i)
        assert len(err.value.partial_fields) == m - 1

    def test_partial_fields_attached_on_failure(self):
        # blow up only once the fields are nonzero: forward sweep 2, which
        # is the final sweep of a one-iteration run
        problem = ProblemSpec(
            name="late-explode",
            dim_w=1,
            x0=np.array([1.0]),
            horizon=0.25,
            b=lambda t, x, y, z: 1e250 * y[:, None] * x,
            sigma=lambda t, x, y: np.ones((x.shape[0], 1, 1)),
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda x: x[:, 0].copy(),
            grad_g=lambda x: np.ones_like(x),
        )
        for num_iterations in (1, 3):
            cfg = SolverConfig(n_steps=4, num_iterations=num_iterations,
                               num_paths=200, fine_n=16)
            with np.errstate(over="ignore"), pytest.raises(NumericalFailure) as err:
                run_markovian_iteration(problem, cfg)
            assert len(err.value.partial_fields) == 1
            assert err.value.iteration == 2


class TestClosedFormRuns:
    """A run on a problem's closed form equals the run that composes its
    coefficients, bit for bit: every field and the final paths."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("factory", [example1_problem, example2_problem])
    def test_closed_form_run_equals_composed_run(self, factory, method):
        problem = factory()
        assert problem.closed_form is not None
        cfg = SolverConfig(n_steps=4, num_iterations=2, num_paths=300, fine_n=64,
                           method=method, seed=5)
        closed = run_markovian_iteration(problem, cfg)
        composed = run_markovian_iteration(
            dataclasses.replace(problem, closed_form=None), cfg
        )
        for ours, theirs in zip(closed.fields, composed.fields, strict=True):
            for a, b in zip(ours, theirs, strict=True):
                assert np.array_equal(a.coeffs, b.coeffs)
        for name in ("x", "y", "z"):
            assert np.array_equal(getattr(closed.final_paths, name),
                                  getattr(composed.final_paths, name))
