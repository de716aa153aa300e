"""Tests for the least-squares kernels and per-step fits."""

import dataclasses
import json
import logging
import textwrap

import numpy as np
import pytest
from oracles import grad_features

from fbsdekit import regression
from fbsdekit.brownian import coarsen_increments, sample_fine_increments
from fbsdekit.errors import (
    InvalidArgument,
    NumericalFailure,
    RankDeficiencyError,
)
from fbsdekit.fields import (
    QuadraticField,
    eval_u,
    eval_v_diff,
    features,
    zero_field,
)
from fbsdekit.problems import (
    decoupled_test_problem,
    example1_problem,
    example2_problem,
)
from fbsdekit.regression import (
    fit_step_differentiation,
    fit_step_direct,
    solve_linear_lsq,
)

WIDE = (np.array([-20.0]), np.array([20.0]))


class TestSolveLinearLsq:
    def test_square_invertible_exact(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
        y = rng.normal(size=5)
        c = solve_linear_lsq(a, y, ridge=0.0)
        assert np.allclose(a @ c, y, atol=1e-10)

    def test_zero_targets_zero_coeffs(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(40, 4))
        for ridge in (0.0, 1e-10, 1e-2):
            assert np.allclose(solve_linear_lsq(a, np.zeros(40), ridge), 0.0)

    def test_matches_pseudo_inverse_oracle(self):
        # independent SVD route on 100 random overdetermined systems
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rng.normal(size=(100, 5))
            y = rng.normal(size=100)
            ours = solve_linear_lsq(a, y, ridge=0.0)
            oracle = np.linalg.pinv(a) @ y
            assert np.linalg.norm(ours - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_normal_equation_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(200, 6))
        y = rng.normal(size=200)
        ridge = 1e-4
        c = solve_linear_lsq(a, y, ridge)
        lam = ridge * np.trace(a.T @ a) / 6
        resid = a.T @ (y - a @ c) - lam * c
        scale = np.linalg.norm(a.T @ y)
        assert np.linalg.norm(resid) <= 1e-8 * scale

    def test_rank_deficient_raises_and_ridge_recovers(self):
        a = np.ones((30, 3))  # identical columns
        y = np.linspace(0.0, 1.0, 30)
        with pytest.raises(RankDeficiencyError):
            solve_linear_lsq(a, y, ridge=0.0)
        c = solve_linear_lsq(a, y, ridge=1e-8)
        assert np.all(np.isfinite(c))

    def test_ridge_must_be_finite_and_nonnegative(self):
        for ridge in (-1.0, np.inf, np.nan, None, "0.1"):
            with pytest.raises(InvalidArgument, match="finite and nonnegative"):
                solve_linear_lsq(np.eye(2), np.ones(2), ridge)

    def test_same_bits_for_either_design_layout(self):
        # the normal equations take the design paths-fastest, whatever its layout
        rng = np.random.default_rng(4)
        a = rng.normal(size=(9000, 15))
        y = rng.normal(size=9000)
        assert np.array_equal(
            solve_linear_lsq(np.asfortranarray(a), y, 1e-10),
            solve_linear_lsq(a, y, 1e-10),
        )

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgument):
            solve_linear_lsq(np.ones((4, 2)), np.ones(5))

    def test_non_finite_rejected(self):
        a = np.ones((4, 2))
        y = np.array([1.0, np.nan, 0.0, 2.0])
        with pytest.raises(NumericalFailure):
            solve_linear_lsq(a, y)


@pytest.mark.skipif(regression._BLAS_POOL is None,
                    reason="no OpenBLAS thread-count symbols for numpy in this build")
class TestOneBlasThread:
    """Each solve runs numpy's bundled OpenBLAS pool at one thread and gives
    back the count it found.  The checks run in a child process: the count
    of two they start from would leave a second OpenBLAS thread in this
    one, which every later draw producer would be forked with."""

    # argv[1] is "solve" or "raise"; prints the counts seen in the
    # factorization, before the solve and after it
    PROBE = textwrap.dedent("""
        import json, sys
        import numpy as np
        from fbsdekit import regression
        from fbsdekit.errors import RankDeficiencyError
        get, set_ = regression._BLAS_POOL
        set_(2)  # a count the pin has to change and give back
        inside, cholesky = [], np.linalg.cholesky
        def recording(*args, **kwargs):
            inside.append(get())
            return cholesky(*args, **kwargs)
        # the factorization as regression sees it
        regression.np.linalg.cholesky = recording
        before = get()
        if sys.argv[1] == "solve":
            rng = np.random.default_rng(5)
            regression.solve_linear_lsq(rng.normal(size=(300, 4)),
                                        rng.normal(size=300))
        else:
            try:
                regression.solve_linear_lsq(np.ones((30, 3)),
                                            np.linspace(0.0, 1.0, 30), 0.0)
            except RankDeficiencyError:
                pass
            else:
                sys.exit("the rank-deficient solve did not raise")
        print(json.dumps({"inside": inside, "before": before, "after": get()}))
    """)

    @classmethod
    def check(cls, run_child, solve):
        seen = json.loads(run_child(["-c", cls.PROBE, solve], "1").stdout)
        assert seen["inside"] == [1]
        assert seen["after"] == seen["before"]

    def test_pins_the_solve_and_restores_the_counts(self, run_child):
        self.check(run_child, "solve")

    def test_restores_the_counts_when_the_solve_raises(self, run_child):
        self.check(run_child, "raise")


def linear_target_batch(rng, n=400, a=0.7, b=-1.3):
    x = rng.normal(size=(n, 1))
    dw = 0.05 * rng.normal(size=(n, 1))
    y_next = a + b * x[:, 0] + b * dw[:, 0]
    return x, dw, y_next, (a, b)


class TestFitStepDifferentiation:
    def setup_method(self):
        self.problem = decoupled_test_problem("brownian-linear")
        self.warm = zero_field(1, *WIDE)

    def test_recovers_exact_linear_model(self):
        rng = np.random.default_rng(4)
        x, dw, y_next, (a, b) = linear_target_batch(rng)
        field, _ = fit_step_differentiation(
            self.problem, 0.1, x, y_next, dw, self.warm, h=0.05
        )
        assert np.allclose(field.coeffs, [a, b, 0.0], atol=1e-8)

    def test_constant_target(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(300, 1))
        dw = 0.05 * rng.normal(size=(300, 1))
        field, _ = fit_step_differentiation(
            self.problem, 0.0, x, np.full(300, 2.5), dw, self.warm, h=0.1
        )
        assert np.allclose(field.coeffs, [2.5, 0.0, 0.0], atol=1e-8)

    def test_inner_iterations_converge_immediately_without_nonlinearity(
        self, monkeypatch
    ):
        # f = 0 and state-independent sigma: one solve reaches the fixed point
        rng = np.random.default_rng(6)
        x, dw, y_next, _ = linear_target_batch(rng)
        fits = []
        for solves in (1, 3):
            monkeypatch.setattr(regression, "_INNER_SOLVES", solves)
            fits.append(fit_step_differentiation(
                self.problem, 0.0, x, y_next, dw, self.warm, h=0.05,
            )[0])
        one, three = fits
        assert np.array_equal(one.coeffs, three.coeffs)

    def test_matches_pseudo_inverse_oracle(self, monkeypatch):
        # with f = 0 the joint fit collapses to one linear regression on
        # rows phi(x) + grad_phi(x) sigma dW, solvable by the SVD oracle
        rng = np.random.default_rng(7)
        x, dw, y_next, _ = linear_target_batch(rng)
        monkeypatch.setattr(regression, "_RIDGE", 0.0)
        monkeypatch.setattr(regression, "_INNER_SOLVES", 1)
        field, _ = fit_step_differentiation(
            self.problem, 0.0, x, y_next, dw, self.warm, h=0.05,
        )
        design = features(x, 1) + grad_features(x, 1)[:, :, 0] * dw
        oracle = np.linalg.pinv(design) @ y_next
        assert np.linalg.norm(field.coeffs - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_inner_loop_loss_behaves_on_benchmark_step(self, monkeypatch):
        # the Z-coupled benchmark at a production step size: the empirical
        # joint loss settles; the fit reports it through loss_history only
        problem, t, h, x, y_next, dw, warm = example2_benchmark_step()
        losses = []
        monkeypatch.setattr(regression, "_INNER_SOLVES", 4)
        fit_step_differentiation(
            problem, t, x, y_next, dw, warm, h=h, loss_history=losses,
        )
        assert len(losses) == 4
        assert losses[-1] <= losses[0] * 1.001

    def test_loss_increase_logs_nothing(self, caplog, monkeypatch):
        # the last iterate of this step raises the joint loss by about 1e-9
        # relative: noise that the fit does not turn into log records
        problem, t, h, x, y_next, dw, warm = example2_benchmark_step()
        losses = []
        monkeypatch.setattr(regression, "_INNER_SOLVES", 4)
        with caplog.at_level(logging.DEBUG):
            fit_step_differentiation(
                problem, t, x, y_next, dw, warm, h=h, loss_history=losses,
            )
        assert losses[-1] > losses[-2]
        assert caplog.records == []

    @pytest.mark.parametrize("batch", ["example1", "example2"])
    def test_loss_history_changes_no_bits(self, batch, monkeypatch):
        problem, t, h, x, y_next, dw, warm = (
            example1_batch() if batch == "example1" else example2_benchmark_step()
        )
        monkeypatch.setattr(regression, "_INNER_SOLVES", 4)
        field, y = fit_step_differentiation(problem, t, x, y_next, dw, warm, h=h)
        losses = []
        field_l, y_l = fit_step_differentiation(
            problem, t, x, y_next, dw, warm, h=h, loss_history=losses
        )
        assert len(losses) == 4
        assert field_l.coeffs.tobytes() == field.coeffs.tobytes()
        assert y_l.tobytes() == y.tobytes()

    def test_paths_fastest_inputs_give_the_same_bits(self):
        problem, t, h, x, y_next, dw, warm = example1_batch(n=5000)
        field, y = fit_step_differentiation(
            problem, t, x, y_next, dw, warm, h=h
        )
        field_f, y_f = fit_step_differentiation(
            problem, t, np.asfortranarray(x), y_next, np.asfortranarray(dw), warm,
            h=h,
        )
        assert np.array_equal(field_f.coeffs, field.coeffs)
        assert np.array_equal(y_f, y)

    def test_non_finite_targets_raise(self):
        x = np.zeros((10, 1))
        dw = np.zeros((10, 1))
        bad = np.full(10, np.nan)
        with pytest.raises(NumericalFailure):
            fit_step_differentiation(
                self.problem, 0.0, x, bad, dw, self.warm, h=0.1
            )

    def test_non_finite_diffusion_raises_on_the_composed_path(self):
        # sigma matrices from the problem's own callable; backward_pass
        # labels the step (tests/test_solver.py)
        rng = np.random.default_rng(8)
        x, dw, y_next, _ = linear_target_batch(rng)
        problem = dataclasses.replace(
            self.problem, sigma=lambda t, xs, y: np.full((xs.shape[0], 1, 1), np.nan)
        )
        with pytest.raises(NumericalFailure, match="diffusion"):
            fit_step_differentiation(
                problem, 0.0, x, y_next, dw, self.warm, h=0.05
            )

    def test_non_finite_diffusion_raises_on_the_closed_form(self):
        # example1's closed form: sigma = sigma_bar y I at a warm field
        # whose values are non-finite
        problem, t, h, x, y_next, dw, warm = example1_batch(n=200)
        assert problem.closed_form is not None
        bad = dataclasses.replace(warm, coeffs=np.full_like(warm.coeffs, np.inf))
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
            NumericalFailure, match="diffusion"
        ):
            fit_step_differentiation(problem, t, x, y_next, dw, bad, h=h)


def example1_batch(n=3000, seed=11):
    """One late step of example1 on states spread around ``x0``.

    Returns ``(problem, t, h, x, y_next, dw, warm)``.  The box clamps a few
    paths in every component, and the warm start is the plain value
    regression, so every linearization has a full-rank design.
    """
    problem = example1_problem()
    h = problem.horizon / 8
    t = problem.horizon - h
    rng = np.random.default_rng(seed)
    x = problem.x0 + 0.6 * rng.normal(size=(n, problem.dim_x))
    dw = np.sqrt(h) * rng.normal(size=(n, problem.dim_w))
    smat = problem.sigma(t, x, problem.analytic_u(t, x))
    y_next = problem.g(x + np.einsum("nic,nc->ni", smat, dw))
    lo, hi = problem.x0 - 1.5, problem.x0 + 1.5
    warm = QuadraticField(
        dim=problem.dim_x,
        coeffs=solve_linear_lsq(features(np.clip(x, lo, hi), problem.dim_x), y_next),
        trunc_lo=lo,
        trunc_hi=hi,
    )
    return problem, t, h, x, y_next, dw, warm


def example2_benchmark_step():
    """The last step of example2 at N = 32 on 4000 states around 1.5.

    Returns ``(problem, t, h, x, y_next, dw, warm)``; ``dw`` is the
    store's paths-fastest coarse increment, as the backward pass passes it.
    """
    problem = example2_problem()
    n, lam = 32, 4000
    h = problem.horizon / n
    store = sample_fine_increments(17, lam, 64, 1, problem.horizon)
    coarse = coarsen_increments(store, n)
    rng = np.random.default_rng(17)
    x = 1.5 + 0.3 * rng.normal(size=(lam, 1))
    y_next = np.sin(problem.horizon + x[:, 0])
    warm = zero_field(1, np.array([-2.0]), np.array([5.0]))
    return problem, problem.horizon - h, h, x, y_next, coarse[:, -1], warm


def joint_loss(problem, t, h, x, y_next, dw, field):
    """The empirical joint loss of ``field``, from the public evaluators."""
    y = eval_u(field, x)
    z = eval_v_diff(field, problem.sigma, t, x)
    pred = y - h * problem.f(t, x, y, z) + np.einsum("nc,nc->n", z, dw)
    return float(np.mean(np.square(y_next - pred)))


def fit_from_public_evaluators(problem, t, x, y_next, dw, warm, h):
    """The fixed-point loop with every iterate re-evaluated by ``eval_u``
    and ``eval_v_diff`` and the design from the three-operand contraction."""
    lo, hi = warm.trunc_lo, warm.trunc_hi
    xc = np.clip(x, lo, hi)
    phi = features(xc, warm.dim)
    jac = grad_features(xc, warm.dim) * ((x > lo) & (x < hi))[:, None, :]
    field = warm
    for _ in range(regression._INNER_SOLVES):
        y_bar = eval_u(field, x)
        z_bar = eval_v_diff(field, problem.sigma, t, x)
        sigma_bar = problem.sigma(t, x, y_bar)
        design = phi + np.einsum("npk,nkc,nc->np", jac, sigma_bar, dw)
        targets = y_next + h * problem.f(t, x, y_bar, z_bar)
        field = QuadraticField(
            dim=warm.dim,
            coeffs=solve_linear_lsq(design, targets, regression._RIDGE),
            trunc_lo=lo,
            trunc_hi=hi,
        )
    return field.coeffs


class TestFitStepDifferentiationEvaluations:
    """Each iterate that a later solve linearizes at, or whose loss is
    collected, is evaluated once and carried into both; the returned
    iterate of a fit that collects no loss is not evaluated."""

    @pytest.mark.parametrize(
        "collect, expected",
        [(False, {"sigma": 3, "f": 3}), (True, {"sigma": 4, "f": 4})],
        ids=["no-loss", "loss-history"],
    )
    def test_coefficient_calls_per_fit(self, collect, expected):
        # one sigma and one f per iterate that is evaluated: the warm start
        # and the first two solves' iterates, and the third's for its loss
        problem, t, h, x, y_next, dw, warm = example1_batch(n=500)
        calls = {"sigma": 0, "f": 0}

        def counted(name):
            inner = getattr(problem, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        counting = dataclasses.replace(
            problem, sigma=counted("sigma"), f=counted("f")
        )
        fit_step_differentiation(
            counting, t, x, y_next, dw, warm, h=h,
            loss_history=[] if collect else None,
        )
        assert calls == expected

    @pytest.mark.parametrize("solves", [1, 2, 3])
    def test_last_loss_is_that_of_the_returned_field(self, solves, monkeypatch):
        problem, t, h, x, y_next, dw, warm = example1_batch()
        losses = []
        monkeypatch.setattr(regression, "_INNER_SOLVES", solves)
        field, _ = fit_step_differentiation(
            problem, t, x, y_next, dw, warm, h=h, loss_history=losses,
        )
        assert len(losses) == solves
        assert losses[-1] == joint_loss(problem, t, h, x, y_next, dw, field)

    def test_matches_loop_over_public_evaluators(self):
        # both fits also return their value field on x, bit for bit as
        # eval_u gives it, clamped paths included
        problem, t, h, x, y_next, dw, warm = example1_batch()
        assert np.any((x < warm.trunc_lo) | (x > warm.trunc_hi))
        field, y = fit_step_differentiation(problem, t, x, y_next, dw, warm, h=h)
        oracle = fit_from_public_evaluators(problem, t, x, y_next, dw, warm, h)
        assert np.linalg.norm(field.coeffs - oracle) <= 1e-10 * np.linalg.norm(oracle)
        assert np.array_equal(y, eval_u(field, x))
        # the direct field's value column, as the forward sweep reads it
        field, y = fit_step_direct(problem, t, x, y_next, dw, warm, h=h)
        phi = features(np.clip(x, warm.trunc_lo, warm.trunc_hi), 4)
        assert np.array_equal(y, phi @ field.coeffs[:, 0])
        assert np.allclose(y, eval_u(field, x)[:, 0], rtol=1e-12, atol=0.0)


class TestFitStepDirect:
    def setup_method(self):
        self.problem = decoupled_test_problem("brownian-linear")
        self.warm = zero_field(1, *WIDE)

    def test_constant_target(self):
        rng = np.random.default_rng(8)
        n = 40_000
        x = rng.normal(size=(n, 1))
        dw = np.sqrt(0.05) * rng.normal(size=(n, 1))
        field, _ = fit_step_direct(
            self.problem, 0.0, x, np.full(n, 3.0), dw, self.warm, h=0.05
        )
        values = eval_u(field, np.linspace(-1.5, 1.5, 9)[:, None])
        assert np.allclose(values[:, 0], 3.0, atol=1e-8)
        # the gradient regression sees independent noise: values at
        # moderate points shrink like 1/sqrt(n)
        assert np.max(np.abs(values[:, 1])) <= 5 * 3.0 / np.sqrt(n * 0.05)

    def test_brownian_martingale_conditional_expectations(self):
        # X = W, Y_next = X_N: exactly E[X_N | X_i] = X_i and
        # h^-1 E[X_N dW_i | X_i] = 1
        horizon, n_steps = 0.25, 8
        store = sample_fine_increments(123, 40_000, 64, 1, horizon)
        coarse = coarsen_increments(store, n_steps)
        paths = np.concatenate(
            [np.zeros((40_000, 1, 1)), np.cumsum(coarse, axis=1)], axis=1
        )
        i = 4
        x_i = paths[:, i, :]
        y_next = paths[:, n_steps, 0]
        dw_i = coarse[:, i, :]
        h = horizon / n_steps
        field, _ = fit_step_direct(
            self.problem, i * h, x_i, y_next, dw_i, self.warm, h=h
        )
        points = np.quantile(x_i[:, 0], [0.2, 0.35, 0.5, 0.65, 0.8])[:, None]
        # 5 standard errors of each fitted value at the points: the
        # residual spread of its target (about 0.35 for u, 3.0 for Z)
        # times sqrt(phi(x)^T (Phi^T Phi)^-1 phi(x)).
        phi = features(x_i, 1)
        phi_pts = features(points, 1)
        leverage = np.einsum(
            "ip,pq,iq->i", phi_pts, np.linalg.inv(phi.T @ phi), phi_pts
        )
        for column, target, truth in (
            (0, y_next, points[:, 0]),
            (1, y_next * dw_i[:, 0] / h, 1.0),
        ):
            residual = target - eval_u(field, x_i)[:, column]
            spread = np.sqrt(residual @ residual / (len(target) - phi.shape[1]))
            se = spread * np.sqrt(leverage)
            deviation = np.abs(eval_u(field, points)[:, column] - truth)
            assert np.all(deviation <= 5.0 * se)

    def test_matches_differentiation_on_linear_model(self):
        # same u recovery as the differentiation method on the synthetic
        # linear target
        rng = np.random.default_rng(9)
        x, dw, y_next, (a, b) = linear_target_batch(rng)
        field, _ = fit_step_direct(
            self.problem, 0.0, x, y_next, dw, self.warm, h=0.05
        )
        # the u regression sees target a + b x + b dw with dw independent
        # noise of scale 0.05; coefficients match (a, b) at MC accuracy
        assert np.allclose(field.coeffs[:, 0], [a, b, 0.0],
                           atol=5 * 0.05 / np.sqrt(400))

    def test_driver_takes_next_values_and_fitted_gradient(self):
        # example2's driver y z - cos(t + x) depends on y, so only the
        # value regression against Y_next + h f(t, X, Y_next, Z) matches
        from fbsdekit.problems import example2_problem

        problem = example2_problem()
        n, h = 2000, problem.horizon / 8
        t = problem.horizon - h
        rng = np.random.default_rng(21)
        x = 1.5 + 0.4 * rng.normal(size=(n, 1))
        dw = np.sqrt(h) * rng.normal(size=(n, 1))
        y_next = np.sin(problem.horizon + x[:, 0] + dw[:, 0])
        warm = zero_field(1, np.array([0.8]), np.array([2.2]))
        field, y = fit_step_direct(
            problem, t, x, y_next, dw, warm, h=h
        )
        phi = features(np.clip(x, warm.trunc_lo, warm.trunc_hi), 1)
        z = phi @ field.coeffs[:, 1:]
        targets = y_next + h * problem.f(t, x, y_next, z)
        expected = solve_linear_lsq(phi, targets, regression._RIDGE)
        assert np.array_equal(field.coeffs[:, 0], expected)
        assert np.array_equal(y, phi @ expected)


    def test_every_component_equals_its_own_regression(self):
        # dim_w = 4 columns and the value regression share one factored
        # Gram; each column equals the regression of its target alone,
        # the value's first, whose driver takes phi @ beta
        problem, t, h, x, y_next, dw, warm = example1_batch()
        field, y = fit_step_direct(
            problem, t, x, y_next, dw, warm, h=h
        )
        assert field.coeffs.shape == (15, 5)
        phi = features(np.clip(x, warm.trunc_lo, warm.trunc_hi), 4)
        beta = np.column_stack([
            solve_linear_lsq(phi, y_next * dw[:, c] / h, regression._RIDGE)
            for c in range(4)
        ])
        assert np.array_equal(field.coeffs[:, 1:], beta)
        targets = y_next + h * problem.f(t, x, y_next, phi @ beta)
        alpha = solve_linear_lsq(phi, targets, regression._RIDGE)
        assert np.array_equal(field.coeffs[:, 0], alpha)
        assert np.array_equal(y, phi @ alpha)
