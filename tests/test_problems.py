"""Tests for the benchmark problems.

The quasi-linear PDE residual is evaluated with finite differences of the
analytic value field, so it certifies that the coded ``b``, ``sigma``,
``f``, ``g``, ``u``, ``v`` are mutually consistent without reusing any
hand-derived derivative.
"""

import dataclasses
import math

import numpy as np
import pytest

from fbsdekit.diagnostics import AssumptionConstants, check_conditions, report_to_json
from fbsdekit.errors import InvalidArgument
from fbsdekit.problems import (
    ProblemSpec,
    decoupled_test_problem,
    example1_assumption_constants,
    example1_problem,
    example2_problem,
)

_DT = 1e-6
_DX1 = 1e-6  # first derivatives
_DX2 = 2e-4  # second derivatives


def fd_time(problem, t, x):
    up = problem.analytic_u(t + _DT, x)
    dn = problem.analytic_u(t - _DT, x)
    return (up - dn) / (2 * _DT)


def fd_grad(problem, t, x, step=_DX1):
    n, d = x.shape
    out = np.empty((n, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = step
        out[:, k] = (
            problem.analytic_u(t, x + e) - problem.analytic_u(t, x - e)
        ) / (2 * step)
    return out


def fd_hessian(problem, t, x):
    n, d = x.shape
    u0 = problem.analytic_u(t, x)
    out = np.empty((n, d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = _DX2
        out[:, i, i] = (
            problem.analytic_u(t, x + ei)
            - 2.0 * u0
            + problem.analytic_u(t, x - ei)
        ) / _DX2**2
        for k in range(i + 1, d):
            ek = np.zeros(d)
            ek[k] = _DX2
            mixed = (
                problem.analytic_u(t, x + ei + ek)
                - problem.analytic_u(t, x + ei - ek)
                - problem.analytic_u(t, x - ei + ek)
                + problem.analytic_u(t, x - ei - ek)
            ) / (4.0 * _DX2**2)
            out[:, i, k] = mixed
            out[:, k, i] = mixed
    return out


def pde_terms(problem, t, x):
    """The time, diffusion, drift and driver terms of the quasi-linear PDE
    the decoupling field must satisfy."""
    u = problem.analytic_u(t, x)
    grad = fd_grad(problem, t, x)
    hess = fd_hessian(problem, t, x)
    smat = problem.sigma(t, x, u)
    z = np.einsum("ni,nic->nc", grad, smat)
    ssT = np.einsum("nic,nkc->nik", smat, smat)
    diffusion = 0.5 * np.einsum("nik,nik->n", ssT, hess)
    drift = np.einsum("ni,ni->n", grad, problem.b(t, x, u, z))
    return fd_time(problem, t, x), diffusion, drift, problem.f(t, x, u, z)


def pde_residual(problem, t, x):
    """Residual of the quasi-linear PDE the decoupling field must satisfy."""
    time, diffusion, drift, driver = pde_terms(problem, t, x)
    return time + diffusion + drift + driver


def sample_interior(problem, rng, n=100):
    t = rng.uniform(0.05 * problem.horizon, 0.95 * problem.horizon)
    x = problem.x0[None, :] + rng.uniform(-1.5, 1.5, size=(n, problem.dim_x))
    return t, x


class TestExample1:
    def test_initial_value(self):
        problem = example1_problem()
        expected = math.exp(-0.25) * 4.0 * math.sin(math.pi / 4.0)
        got = problem.analytic_u(0.0, problem.x0[None, :])[0]
        assert math.isclose(got, expected, rel_tol=1e-14)
        assert math.isclose(got, 2.2027812596, rel_tol=1e-9)

    def test_terminal_consistency(self):
        problem = example1_problem()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 4))
        assert np.allclose(
            problem.analytic_u(problem.horizon, x), problem.g(x), rtol=1e-14
        )

    def test_decoupling_field_consistency(self):
        # analytic_v must equal grad_x u * sigma(t, x, u)
        problem = example1_problem()
        rng = np.random.default_rng(1)
        for _ in range(5):
            t, x = sample_interior(problem, rng, n=20)
            grad = fd_grad(problem, t, x)
            smat = problem.sigma(t, x, problem.analytic_u(t, x))
            v_fd = np.einsum("ni,nic->nc", grad, smat)
            assert np.allclose(problem.analytic_v(t, x), v_fd, atol=1e-8)

    def test_pde_residual(self):
        problem = example1_problem()
        rng = np.random.default_rng(2)
        t, x = sample_interior(problem, rng, n=100)
        assert np.max(np.abs(pde_residual(problem, t, x))) <= 1e-6

    def test_dimensions_and_defaults(self):
        problem = example1_problem()
        assert problem.dim_x == problem.dim_w == 4
        assert problem.horizon == 0.25
        assert np.allclose(problem.x0, np.pi / 4.0)

    def test_driver_sums_z_components(self):
        problem = example1_problem(kappa_y=0.5, kappa_z=0.0, rate=0.0)
        x = np.zeros((1, 4))
        y = np.zeros(1)
        z0 = np.zeros((1, 4))
        z1 = np.ones((1, 4))
        assert problem.f(0.1, x, y, z1)[0] - problem.f(0.1, x, y, z0)[0] == -0.5 * 4

    @pytest.mark.parametrize("dim", [0, -1, 2.5, None, "4", float("nan")])
    def test_invalid_dim(self, dim):
        with pytest.raises(InvalidArgument, match="dim must be a positive integer"):
            example1_problem(dim=dim)

    @pytest.mark.parametrize("name", ["kappa_y", "kappa_z", "sigma_bar", "rate",
                                      "x0_scalar"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, None, "1"])
    def test_parameters_must_be_finite_reals(self, name, value):
        # a non-finite one used to surface as a numerical failure of the
        # reference at step 0
        with pytest.raises(InvalidArgument,
                           match=f"^{name} must be a finite real number"):
            example1_problem(**{name: value})

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0, None])
    def test_horizon_must_be_positive(self, horizon):
        with pytest.raises(InvalidArgument, match="^horizon must be positive"):
            example1_problem(horizon=horizon)


class TestExample2:
    @pytest.mark.parametrize("value", [math.nan, math.inf, None])
    def test_start_must_be_a_finite_real(self, value):
        with pytest.raises(InvalidArgument,
                           match="^x0_scalar must be a finite real number"):
            example2_problem(x0_scalar=value)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
    def test_horizon_must_be_positive(self, horizon):
        with pytest.raises(InvalidArgument, match="^horizon must be positive"):
            example2_problem(horizon=horizon)

    def test_initial_values(self):
        problem = example2_problem()
        x0 = problem.x0[None, :]
        assert math.isclose(
            problem.analytic_u(0.0, x0)[0], math.sin(1.5), rel_tol=1e-14
        )
        assert math.isclose(
            problem.analytic_v(0.0, x0)[0, 0], math.cos(1.5) ** 2, rel_tol=1e-14
        )
        assert math.isclose(problem.analytic_u(0.0, x0)[0], 0.997495, abs_tol=5e-7)
        assert math.isclose(problem.analytic_v(0.0, x0)[0, 0], 0.005004, abs_tol=5e-7)

    def test_drift_does_not_depend_on_y(self):
        problem = example2_problem()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 1))
        z = rng.normal(size=(20, 1))
        b1 = problem.b(0.1, x, np.full(20, -5.0), z)
        b2 = problem.b(0.1, x, np.full(20, 7.0), z)
        assert np.array_equal(b1, b2)

    def test_decoupling_relation_exact(self):
        # v = du/dx * sigma = cos(t+x)^2 holds exactly by the chain rule
        problem = example2_problem()
        rng = np.random.default_rng(4)
        t, x = sample_interior(problem, rng, n=50)
        grad = fd_grad(problem, t, x)
        smat = problem.sigma(t, x, problem.analytic_u(t, x))
        v_fd = np.einsum("ni,nic->nc", grad, smat)
        assert np.allclose(problem.analytic_v(t, x), v_fd, atol=1e-9)

    def test_terminal_consistency(self):
        problem = example2_problem()
        x = np.linspace(-2.0, 5.0, 40)[:, None]
        assert np.allclose(
            problem.analytic_u(problem.horizon, x), problem.g(x), rtol=1e-14
        )

    def test_pde_residual(self):
        problem = example2_problem()
        rng = np.random.default_rng(5)
        t, x = sample_interior(problem, rng, n=100)
        assert np.max(np.abs(pde_residual(problem, t, x))) <= 1e-6


CLOSED_FORM_PROBLEMS = {
    "example1": example1_problem,
    "example1-dim1": lambda: example1_problem(dim=1),
    "example1-custom": lambda: example1_problem(
        kappa_y=0.35, kappa_z=0.6, sigma_bar=1.7, rate=2.3, horizon=1.0
    ),
    "example2": example2_problem,
    "example2-T1": lambda: example2_problem(horizon=1.0),
}


# (paths, d) inputs to the closed forms in C order, and in the
# paths-fastest layout the solver and the reference store them in; the
# composition they are held to takes the C-order inputs
PATH_COUNTS_AND_LAYOUTS = pytest.mark.parametrize("num_paths, layout", [
    pytest.param(1, np.ascontiguousarray, id="1"),
    pytest.param(128, np.ascontiguousarray, id="128"),
    pytest.param(15000, np.ascontiguousarray, id="15000"),
    pytest.param(15000, np.asfortranarray, id="15000-paths-fastest"),
])


class TestPDEResiduals:
    """Every closed-form variant solves its PDE.

    Each formula of the examples has one home, so the closed-form tests
    below compare it with itself; this is the independent check of the
    formulas.  The finite differences err in proportion to the size of the
    PDE's terms (up to 2.3e-8 of their absolute sum over 500 points, on
    every variant), so the bound is relative to that sum at each point.
    """

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_PROBLEMS))
    def test_residual_small_against_its_terms(self, name):
        problem = CLOSED_FORM_PROBLEMS[name]()
        rng = np.random.default_rng(13)
        for _ in range(5):
            t, x = sample_interior(problem, rng, n=100)
            terms = pde_terms(problem, t, x)
            size = sum(np.abs(term) for term in terms)
            assert np.all(np.abs(pde_residual(problem, t, x)) <= 1e-6 * size)


class TestClosedFormSteps:
    """Each closed-form reference step equals the composed step bit for bit.

    The closed forms restate the formulas of ``b``, ``sigma`` and the
    analytic fields; this is what keeps the two copies in step.
    """

    @PATH_COUNTS_AND_LAYOUTS
    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_PROBLEMS))
    def test_bit_identical_to_composition(self, name, num_paths, layout):
        problem = CLOSED_FORM_PROBLEMS[name]()
        composed = dataclasses.replace(problem, closed_form=None)
        assert problem.closed_form is not None
        rng = np.random.default_rng(num_paths)
        T = problem.horizon
        for t in (0.0, 1e-5, 0.123 * T, 0.5 * T, T):
            for h in (T / 20480, T / 64):
                # well beyond the truncation box as well as near x0
                x = problem.x0[None, :] + rng.uniform(
                    -40.0, 40.0, size=(num_paths, problem.dim_x)
                )
                x[: num_paths // 2] = problem.x0 + rng.normal(
                    scale=0.5, size=(num_paths // 2, problem.dim_x)
                )
                dw = rng.normal(scale=math.sqrt(h), size=(num_paths, problem.dim_w))
                assert np.array_equal(
                    problem.reference_step(t, layout(x), layout(dw), h),
                    composed.reference_step(t, x, dw, h),
                )

    def test_replaced_coefficient_bypasses_the_closed_form(self):
        problem = example1_problem()
        seen = []

        def b(t, x, y, z):
            seen.append(t)
            return 2.0 * problem.b(t, x, y, z)

        variant = dataclasses.replace(problem, b=b)
        assert variant.closed_form is None
        rng = np.random.default_rng(11)
        x = problem.x0 + rng.normal(size=(64, 4))
        dw = rng.normal(scale=0.01, size=(64, 4))
        stepped = variant.reference_step(0.1, x, dw, 1e-3)
        composed = dataclasses.replace(variant, closed_form=None)
        assert seen == [0.1]
        assert np.array_equal(stepped, composed.reference_step(0.1, x, dw, 1e-3))
        assert not np.array_equal(stepped, problem.reference_step(0.1, x, dw, 1e-3))
        y, z = rng.normal(size=64), rng.normal(size=(64, 4))
        assert np.array_equal(
            variant.at(0.1, x).b(y, z), composed.at(0.1, x).b(y, z)
        )


class TestClosedFormCoefficients:
    """Each closed-form ``at`` equals the composed coefficients bit for bit.

    ``at(t, x)`` binds the coefficients to one step's states; the closed
    forms restate ``b``, ``sigma`` and ``f`` and apply the diffusion
    without forming its matrices.
    """

    @PATH_COUNTS_AND_LAYOUTS
    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_PROBLEMS))
    def test_bit_identical_to_composition(self, name, num_paths, layout):
        problem = CLOSED_FORM_PROBLEMS[name]()
        composed = dataclasses.replace(problem, closed_form=None)
        assert problem.closed_form is not None
        rng = np.random.default_rng(num_paths + 1)
        T = problem.horizon
        for t in (0.0, 1e-5, 0.123 * T, 0.5 * T, T):
            # well beyond the truncation box as well as near x0
            x = problem.x0[None, :] + rng.uniform(
                -40.0, 40.0, size=(num_paths, problem.dim_x)
            )
            x[: num_paths // 2] = problem.x0 + rng.normal(
                scale=0.5, size=(num_paths // 2, problem.dim_x)
            )
            y = rng.normal(scale=2.0, size=num_paths)
            z = rng.normal(size=(num_paths, problem.dim_w))
            w = rng.normal(size=(num_paths, problem.dim_w))
            # gradients of a field, zero along some clamped directions
            g = rng.normal(size=(num_paths, problem.dim_x))
            g[rng.random(g.shape) < 0.2] = 0.0
            # the closed form takes the inputs in the layout under test
            xs, zs, ws, gs = (layout(a) for a in (x, z, w, g))
            closed, plain = problem.at(t, xs), composed.at(t, x)
            f_closed = closed.f(y, zs)
            assert np.array_equal(f_closed, plain.f(y, z))
            # the state terms are kept from the first call
            assert np.array_equal(closed.f(y, 2.0 * zs), plain.f(y, 2.0 * z))
            assert np.array_equal(closed.f(y, zs), f_closed)
            assert np.array_equal(closed.b(y, zs), plain.b(y, z))
            diffusion, matrices = closed.diffusion(y), plain.diffusion(y)
            assert np.array_equal(diffusion.apply(ws), matrices.apply(w))
            # the gradient process is stored as is: zeros keep their sign too
            assert (diffusion.gradient(gs).tobytes()
                    == matrices.gradient(g).tobytes())
            assert diffusion.finite() and matrices.finite()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_PROBLEMS))
    def test_non_finite_diffusion_detected(self, name, bad):
        # example1's diffusion goes bad with y, example2's with x
        problem = CLOSED_FORM_PROBLEMS[name]()
        composed = dataclasses.replace(problem, closed_form=None)
        x = np.tile(problem.x0, (3, 1))
        x[1, 0] = bad
        y = np.array([0.5, bad, 0.25])
        with np.errstate(invalid="ignore"):
            assert not problem.at(0.1, x).diffusion(y).finite()
            assert not composed.at(0.1, x).diffusion(y).finite()

    def test_replaced_driver_bypasses_the_closed_form(self):
        problem = example1_problem()
        seen = []

        def f(t, x, y, z):
            seen.append(t)
            return 2.0 * problem.f(t, x, y, z)

        variant = dataclasses.replace(problem, f=f)
        assert variant.closed_form is None
        rng = np.random.default_rng(12)
        x = problem.x0 + rng.normal(size=(64, 4))
        y = rng.normal(size=64)
        z = rng.normal(size=(64, 4))
        got = variant.at(0.1, x).f(y, z)
        assert seen == [0.1]
        assert np.array_equal(got, 2.0 * problem.at(0.1, x).f(y, z))
        dw = rng.normal(scale=0.01, size=(64, 4))
        composed = dataclasses.replace(variant, closed_form=None)
        assert np.array_equal(
            variant.reference_step(0.1, x, dw, 1e-3),
            composed.reference_step(0.1, x, dw, 1e-3),
        )


class TestClosedFormSettledAtBuild:
    """A spec keeps its closed form only while its callables are the ones
    the closed form restates, so ``closed_form is None`` exactly when
    ``reference_step`` and ``at`` compose."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_PROBLEMS))
    def test_factories_keep_their_closed_form(self, name):
        problem = CLOSED_FORM_PROBLEMS[name]()
        assert problem.closed_form is not None
        # name is not among the callables the closed form restates
        renamed = dataclasses.replace(problem, name="renamed")
        assert renamed.closed_form is problem.closed_form

    @pytest.mark.parametrize(
        "field", ["b", "sigma", "f", "analytic_u", "analytic_v"]
    )
    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_PROBLEMS))
    def test_replaced_callable_drops_the_closed_form(self, name, field):
        problem = CLOSED_FORM_PROBLEMS[name]()
        original = getattr(problem, field)
        variant = dataclasses.replace(
            problem, **{field: lambda *args: original(*args)}
        )
        assert variant.closed_form is None
        # the wrapper returns the same values, so the variant composes the
        # same numbers as the spec built without a closed form
        composed = dataclasses.replace(problem, closed_form=None)
        rng = np.random.default_rng(5)
        n, t, h = 64, 0.1, 1e-3
        x = problem.x0 + rng.normal(size=(n, problem.dim_x))
        dw = rng.normal(scale=math.sqrt(h), size=(n, problem.dim_w))
        y, z = rng.normal(size=n), rng.normal(size=(n, problem.dim_w))
        assert np.array_equal(
            variant.reference_step(t, x, dw, h), composed.reference_step(t, x, dw, h)
        )
        got, want = variant.at(t, x), composed.at(t, x)
        assert np.array_equal(got.b(y, z), want.b(y, z))
        assert np.array_equal(got.f(y, z), want.f(y, z))
        assert np.array_equal(
            got.diffusion(y).apply(dw), want.diffusion(y).apply(dw)
        )


class TestDecoupledProblems:
    def test_brownian_linear_fields(self):
        problem = decoupled_test_problem("brownian-linear")
        x = np.array([[0.3], [-1.2]])
        assert np.array_equal(problem.analytic_u(0.1, x), [0.3, -1.2])
        assert np.array_equal(problem.analytic_v(0.1, x), [[1.0], [1.0]])
        # u(t, x) = x solves the PDE: all derivative terms vanish
        rng = np.random.default_rng(6)
        t, xs = sample_interior(problem, rng, n=30)
        assert np.max(np.abs(pde_residual(problem, t, xs))) <= 1e-9

    def test_constant_problem(self):
        problem = decoupled_test_problem("constant", value=2.5)
        x = np.zeros((3, 1))
        assert np.array_equal(problem.g(x), [2.5, 2.5, 2.5])
        assert np.array_equal(problem.analytic_v(0.0, x), np.zeros((3, 1)))

    def test_unknown_kind(self):
        with pytest.raises(InvalidArgument):
            decoupled_test_problem("bogus")

    def test_dim_x_is_read_off_x0(self):
        problem = decoupled_test_problem("constant")
        assert dataclasses.replace(problem, x0=np.zeros(3)).dim_x == 3
        fields = {f.name: getattr(problem, f.name)
                  for f in dataclasses.fields(ProblemSpec)}
        with pytest.raises(TypeError):
            ProblemSpec(**fields, dim_x=1)  # no field can contradict x0


class TestExample1Constants:
    def test_valid_and_monotone_driver(self):
        c = example1_assumption_constants()
        assert c.k_f == -1.0
        assert c.k_b == 0.0
        assert c.T == 0.25
        assert c.b_z == 2.0 * 0.1**2

    @pytest.mark.parametrize(
        "settings",
        [{}, dict(kappa_y=0.01, kappa_z=0.01, sigma_bar=0.2, dim=1)],
        ids=["default", "weak"],
    )
    def test_python_floats_give_the_numpy_scalar_report(self, settings):
        c = example1_assumption_constants(**settings)
        values = dataclasses.asdict(c)
        assert all(type(v) is float for v in values.values())
        as_numpy = AssumptionConstants(**{k: np.float64(v) for k, v in values.items()})
        assert report_to_json(check_conditions(c)) == report_to_json(
            check_conditions(as_numpy)
        )

    def test_conditions_reported_honestly(self):
        # The sufficient conditions are conservative: at these coupling
        # strengths the L0 bound already exceeds 1/e, driven by the
        # diffusion's Y-Lipschitz constant and the quartic driver growth,
        # even though the solver converges on this problem in practice.
        report = check_conditions(example1_assumption_constants())
        assert report.L0 > math.exp(-1.0)
        assert not report.conditionL0

    def test_weakening_couplings_restores_conditions(self):
        c = example1_assumption_constants(
            kappa_y=0.001, kappa_z=0.001, sigma_bar=0.05, dim=1, horizon=0.05
        )
        report = check_conditions(c)
        assert report.conditionL0
