"""Tests for the convergence-constant evaluators."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsdekit.diagnostics import (
    AssumptionConstants,
    check_conditions,
    compute_A_constants,
    compute_c2,
    compute_c2_at,
    compute_c_functions,
    compute_D_constants,
    compute_L0_L1,
    default_lambdas,
    gamma0,
    gamma0_disc,
    gamma1,
    gamma1_disc,
    parse_constants,
    report_to_json,
    report_to_table,
    z_field_lipschitz_factor,
)
from fbsdekit.errors import InvalidArgument


def constants(**overrides):
    base = dict(
        k_b=0.0, k_f=0.0, K=1.0, b_y=0.0, b_z=0.0, sigma_x=0.0, sigma_y=0.0,
        f_x=0.0, f_z=0.0, g_x=1.0, b_0=0.0, sigma_0=0.0, f_0=0.0, g_0=0.0,
        Sigma=1.0, T=1.0,
    )
    base.update(overrides)
    return AssumptionConstants(**base)


# the constants of demos/constants_weak_coupling.txt
DEMO = dict(
    k_b=0.0, k_f=-1.0, K=1.0, b_y=0.05, b_z=0.01, sigma_x=0.2, sigma_y=0.05,
    f_x=0.5, f_z=0.2, g_x=1.0, b_0=0.1, sigma_0=0.1, f_0=0.2, g_0=1.0,
    Sigma=1.0, T=0.25,
)


class TestGamma0:
    def test_at_one(self):
        assert math.isclose(gamma0(1.0), math.e - 1.0, rel_tol=1e-12)

    def test_limit_at_zero(self):
        assert gamma0(0.0) == 1.0

    def test_series_branch_continuity(self):
        # direct formula just outside the branch cut vs the series value
        x = 1e-7
        direct = gamma0(x)
        series = 1.0 + x / 2.0 + x * x / 6.0
        assert abs(direct - series) <= 1e-9 * series

    def test_disc_limit(self):
        assert gamma0_disc(10, 0.0, 0.1) == 1.0

    def test_disc_matches_geometric_sum(self):
        # Gamma0^i(x) = h * sum_{j<i} (1+xh)^j
        x, h, i = 0.7, 0.01, 37
        expected = h * sum((1.0 + x * h) ** j for j in range(i))
        assert math.isclose(gamma0_disc(i, x, h), expected, rel_tol=1e-12)

    def test_monotone_increasing(self):
        xs = np.linspace(-5.0, 5.0, 101)
        vals = gamma0(xs)
        assert np.all(np.diff(vals) > 0)


class TestGamma1:
    def test_zero_arguments(self):
        assert gamma1(0.0, 0.0) == 1.0

    def test_disc_zero_arguments(self):
        assert math.isclose(gamma1_disc(7, 0.0, 0.0, 0.25), 7 * 0.25, rel_tol=1e-12)

    def test_positive_arguments_boundary_supremum(self):
        # theta e^(theta x) Gamma0(theta y) is increasing in theta for
        # x, y >= 0, so the supremum sits at theta -> 1.
        assert math.isclose(gamma1(1.0, 1.0), math.e * (math.e - 1.0), rel_tol=1e-12)

    def test_matches_brute_force_grid(self):
        # the grid includes theta = 1, where the sup of the open interval
        # is attained whenever no stationary point lies inside it
        thetas = np.linspace(0.0, 1.0, 200_001)
        cases = [
            # interior maxima: theta* = -log1p(y/x)/y, or -1/x at y = 0
            (-2.0, 1.0), (-1.0, -1.0), (-20.0, 15.0), (-1.5, 0.0),
            (-3.0, 1e-9), (-3.0, -1e-9), (-3.0, 5e-324),
            # maxima at theta = 1: no stationary point, or one beyond 1
            (0.5, -3.0), (-5.0, 5.0), (10.0, -30.0), (-0.5, 0.0),
            (2.0, 1e-12), (0.0, -4.0), (20.0, 20.0),
        ]
        for x, y in cases:
            brute = np.max(thetas * np.exp(thetas * x) * gamma0(thetas * y))
            assert gamma1(x, y) >= brute * (1.0 - 1e-12), (x, y)
            assert math.isclose(gamma1(x, y), brute, rel_tol=1e-8), (x, y)

    @pytest.mark.parametrize(
        "x, y, expected",
        [
            (math.inf, 1.0, math.inf), (1.0, math.inf, math.inf),
            (800.0, 1.0, math.inf), (1.0, 800.0, math.inf),
            (math.nan, 1.0, math.inf), (-math.inf, 1.0, 0.0),
        ],
    )
    def test_non_finite_conventions(self, x, y, expected):
        assert gamma1(x, y) == expected


class TestLimitIdentities:
    # Discrete-grid functions approach the horizon-scaled continuous ones.
    N = 100_000

    @pytest.mark.parametrize("x", [-5.0, -2.0, -0.5, 0.5, 2.0, 5.0])
    def test_gamma0_disc_limit(self, x):
        T = 1.0
        h = T / self.N
        lhs = gamma0_disc(self.N, x, h)
        rhs = T * gamma0(x * T)
        assert abs(lhs - rhs) <= 1e-3 * abs(rhs)

    @pytest.mark.parametrize("x,y", [(-5.0, 5.0), (2.0, -3.0), (1.0, 1.0), (-1.0, -1.0)])
    def test_gamma1_disc_limit(self, x, y):
        T = 1.0
        h = T / self.N
        lhs = gamma1_disc(self.N, x, y, h)
        rhs = T * gamma1(x * T, y * T)
        assert abs(lhs - rhs) <= 1e-3 * abs(rhs)


class TestAConstants:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=1e-6, max_value=0.01),
    )
    def test_default_multipliers_make_a3_one(self, K, h):
        c = constants(K=K, f_x=0.3, f_z=0.2, k_b=-0.1, k_f=-0.2, sigma_x=0.4)
        a3 = compute_A_constants(c, h)[2]
        assert abs(a3 - 1.0) <= 1e-12

    def test_zeroed_constants_limits(self):
        c = constants(K=0.0, k_b=0.0, k_f=0.0, sigma_x=0.0, f_z=0.0)
        a1, _, _, a4, _, _, _ = compute_A_constants(c, 1e-8)
        assert a1 == 1.0
        assert a4 == 1.0

    def test_lambda3_formula(self):
        lambda2, lambda3 = default_lambdas(constants(K=1.0), 0.01)
        assert math.isclose(lambda2, 0.1, rel_tol=1e-15)
        assert math.isclose(lambda3, 0.79, rel_tol=1e-12)

    def test_step_too_large_raises(self):
        with pytest.raises(InvalidArgument):
            compute_A_constants(constants(K=10.0), 0.25)

    @pytest.mark.parametrize(
        "h, match", [(0.0, "lambda2"), (-0.01, "h must be nonnegative")]
    )
    def test_zero_or_negative_step_raises(self, h, match):
        with pytest.raises(InvalidArgument, match=match):
            compute_A_constants(constants(K=1.0), h)

    def test_b_constants(self):
        c = constants(K=2.0, b_0=1.0, sigma_0=0.5, f_0=3.0)
        _, _, _, _, _, b1, b2 = compute_A_constants(c, 0.001)
        assert math.isclose(b1, 1.5 + 2.0 * 0.001, rel_tol=1e-15)
        assert math.isclose(b2, 3.0 + 2.0 * 3.0 * 0.001, rel_tol=1e-15)


class TestDConstants:
    def test_no_z_coupling_collapses(self):
        d = compute_D_constants(constants(b_z=0.0, sigma_x=1.0, sigma_y=2.0,
                                          sigma_0=3.0), 0.1, 5.0)
        assert d == (0.0, 0.0, 0.0)

    def test_formula(self):
        c = constants(b_z=1.0, sigma_x=3.0)
        assert compute_D_constants(c, 0.0, 2.0)[0] == 6.0

    def test_linear_in_lbar(self):
        c = constants(b_z=0.5, sigma_x=1.0, sigma_y=2.0, sigma_0=0.25)
        once = np.array(compute_D_constants(c, 0.05, 1.0))
        twice = np.array(compute_D_constants(c, 0.05, 2.0))
        assert np.allclose(twice, 2.0 * once, rtol=1e-15)


class TestL0L1:
    def test_zero_coupling_gives_zero_l0(self):
        l0, _ = compute_L0_L1(constants(b_y=0.0, sigma_y=0.0, b_z=0.0))
        assert l0 == 0.0

    def test_exponential_case(self):
        c = constants(
            b_y=0.0, sigma_y=0.0, b_z=0.0, g_x=1.0, f_x=0.0,
            k_b=0.0, k_f=0.0, sigma_x=0.0, f_z=0.0, T=1.0,
        )
        _, l1 = compute_L0_L1(c)
        assert math.isclose(l1, math.exp(4.0), rel_tol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.1, max_value=4.0),
    )
    def test_nonnegative_and_floor(self, b_y, sigma_y, b_z, g_x):
        c = constants(b_y=b_y, sigma_y=sigma_y, b_z=b_z, g_x=g_x, f_x=0.3, T=0.5)
        l0, l1 = compute_L0_L1(c)
        assert l0 >= 0.0
        assert l1 >= g_x

    def test_no_z_coupling_reduction(self):
        # with b_z = 0 the formulas coincide with the z-term deleted
        c = constants(b_y=0.4, sigma_y=0.3, b_z=0.0, g_x=1.5, f_x=0.7,
                      k_b=-0.1, k_f=-0.2, sigma_x=0.2, f_z=0.1, T=0.5)
        coupling = c.b_y + c.sigma_y
        gterm = c.g_x + c.f_x * c.T
        expo = coupling * gterm * c.T + (
            2 * c.k_b + 2 * c.k_f + 3 + c.sigma_x + c.f_z
        ) * c.T
        l0, l1 = compute_L0_L1(c)
        assert math.isclose(l0, coupling * gterm * c.T * math.exp(expo), rel_tol=1e-12)
        assert math.isclose(l1, gterm * max(math.exp(expo + 1.0), 1.0), rel_tol=1e-12)

    def test_uses_z_field_lipschitz_factor(self):
        c = constants(b_y=0.1, sigma_y=0.2, b_z=0.3, sigma_x=0.4, Sigma=2.0,
                      g_x=1.0, f_x=0.5, T=0.25)
        coupling = c.b_y + c.sigma_y + z_field_lipschitz_factor(c) * c.b_z
        gterm = c.g_x + c.f_x * c.T
        expo = coupling * gterm * c.T + (
            2 * c.k_b + 2 * c.k_f + 3 + c.sigma_x + c.f_z
        ) * c.T
        l0, _ = compute_L0_L1(c)
        assert math.isclose(l0, coupling * gterm * c.T * math.exp(expo), rel_tol=1e-12)
        assert z_field_lipschitz_factor(c) == 2 * 0.4 + 2 * 0.2 + 2 * 2.0


class TestCFunctions:
    def test_c1_identity(self):
        c = constants(b_y=0.2, sigma_y=0.1, b_z=0.05, sigma_x=0.3, f_x=0.4,
                      g_x=1.0, T=0.5)
        c0, c1, _ = compute_c_functions(c, growth=2.0, lbar=3.0)
        a2_bar = c.b_y + c.sigma_y
        d2_bar = c.b_z * 3.0 * c.sigma_y
        assert math.isclose(c1, (a2_bar + d2_bar) * c0, rel_tol=1e-14)

    def test_zero_coupling_gives_zero_c1(self):
        c = constants(b_y=0.0, sigma_y=0.0, b_z=0.0, f_x=0.5, g_x=1.0)
        _, c1, _ = compute_c_functions(c, growth=1.0, lbar=1.0)
        assert c1 == 0.0


class TestC2:
    def test_bounded_by_value_at_one(self):
        c = constants(b_y=0.2, sigma_y=0.1, b_z=0.05, sigma_x=0.1,
                      f_x=0.3, g_x=1.0, T=0.5)
        val, lam = compute_c2(c, lip=1.0, growth=1.0, lbar=2.0)
        assert val <= compute_c2_at(c, 1.0, 1.0, 1.0, 2.0) + 1e-12
        assert lam > 0.0
        # the reported minimizer attains the reported value
        assert compute_c2_at(c, lam, 1.0, 1.0, 2.0) == val

    def test_one_search_reaches_a_fine_grid_minimum(self):
        # log c2 is convex in lambda1, so the golden-section search alone
        # must reach the minimum over a fine log grid of the same range
        rng = np.random.default_rng(15)
        lambdas = np.logspace(-6.0, 6.0, 4001)
        for _ in range(6):
            c = constants(
                k_b=rng.uniform(-0.5, 0.5), k_f=rng.uniform(-0.5, 0.5),
                b_y=rng.uniform(0.0, 1.0), b_z=rng.uniform(0.0, 0.5),
                sigma_x=rng.uniform(0.0, 1.0), sigma_y=rng.uniform(0.0, 1.0),
                f_x=rng.uniform(0.0, 2.0), f_z=rng.uniform(0.0, 1.0),
                g_x=rng.uniform(0.0, 2.0), Sigma=rng.uniform(0.0, 2.0),
                T=rng.uniform(0.1, 1.5),
            )
            lip, growth, lbar = rng.uniform(0.01, 5.0, size=3)
            val, lam = compute_c2(c, lip, growth, lbar)
            grid_min = min(compute_c2_at(c, x, lip, growth, lbar) for x in lambdas)
            assert 0.0 < val <= (1.0 + 1e-12) * grid_min
            assert compute_c2_at(c, lam, lip, growth, lbar) == val

    def test_zero_coupling_gives_zero(self):
        c = constants(b_y=0.0, sigma_y=0.0, b_z=0.0, f_x=0.5, g_x=1.0)
        val, _ = compute_c2(c, lip=1.0, growth=1.0, lbar=1.0)
        assert val == 0.0

    def test_monotone_in_growth_and_lipschitz(self):
        rng = np.random.default_rng(6)
        for _ in range(4):
            c = constants(
                k_b=rng.uniform(-0.3, 0.1), k_f=rng.uniform(-0.3, 0.1),
                K=rng.uniform(0.0, 0.5), b_y=rng.uniform(0.0, 0.3),
                b_z=rng.uniform(0.0, 0.1), sigma_x=rng.uniform(0.0, 0.3),
                sigma_y=rng.uniform(0.0, 0.3), f_x=rng.uniform(0.0, 0.5),
                f_z=rng.uniform(0.0, 0.3), g_x=rng.uniform(0.5, 2.0),
                Sigma=rng.uniform(0.5, 2.0), T=rng.uniform(0.2, 0.8),
            )
            grid = [0.5, 1.0, 2.0, 4.0]
            along_growth = [compute_c2(c, 1.0, g, 2.0)[0] for g in grid]
            along_lip = [compute_c2(c, l, 1.0, 2.0)[0] for l in grid]
            assert all(
                b >= a - 1e-9 * max(1.0, abs(a))
                for a, b in zip(along_growth, along_growth[1:])
            )
            assert all(
                b >= a - 1e-9 * max(1.0, abs(a))
                for a, b in zip(along_lip, along_lip[1:])
            )


class TestCheckConditions:
    def test_decoupled_all_conditions_hold(self):
        c = constants(b_y=0.0, b_z=0.0, sigma_y=0.0, f_x=1.0, f_z=0.5,
                      g_x=1.0, K=1.0, sigma_x=0.5, T=1.0)
        report = check_conditions(c)
        assert report.conditionL0
        assert report.conditionC1
        assert report.conditionC2

    def test_long_horizon_breaks_l0(self):
        couplings = dict(b_y=0.05, sigma_y=0.05, b_z=0.01, g_x=1.0, f_x=1.0)
        short = check_conditions(constants(T=0.25, **couplings))
        long = check_conditions(constants(T=25.0, **couplings))
        assert short.conditionL0
        assert not long.conditionL0

    def test_report_invariants(self):
        report = check_conditions(constants(b_y=0.1, sigma_y=0.1, f_x=0.5))
        assert report.conditionL0 == (report.L0 < math.exp(-1.0))
        assert report.conditionC1 == (report.c1_at_L1 < 1.0)
        assert report.conditionC2 == (report.c2_at_L1L1 < 1.0)
        assert report.Lbar == pytest.approx(1.01 * report.L1)

    @pytest.mark.parametrize("overrides", [
        {"f_z": 1e308}, {"k_f": 1e20}, {"f_z": 1e308, "g_0": 0.0},
    ], ids=["f_z", "k_f", "f_z-no-g_0"])
    def test_overflowing_term_reads_inf_and_fails_its_condition(self, overrides):
        # exp(A4 T) in L2 overflowed with an uncaught OverflowError
        report = check_conditions(constants(**{**DEMO, **overrides}))
        assert report.L2_at_L1 == math.inf
        assert not (report.conditionL0 or report.conditionC1 or report.conditionC2)

    def test_k_too_large_for_the_report_step_size_raises(self):
        # (1 + K)^2 in the report step size overflowed uncaught
        with pytest.raises(InvalidArgument, match=r"^K=1e\+308 is too large"):
            check_conditions(constants(**{**DEMO, "K": 1e308}))


class TestConstantsValidation:
    @pytest.mark.parametrize(
        "name", [field.name for field in fields(AssumptionConstants)]
    )
    def test_nan_is_rejected_by_name(self, name):
        with pytest.raises(InvalidArgument, match=f"^{name} must not be NaN"):
            constants(**{name: math.nan})

    @pytest.mark.parametrize("T", [0.0, -1.0, math.inf])
    def test_horizon_must_be_finite_and_positive(self, T):
        with pytest.raises(InvalidArgument, match="^T must be finite and positive"):
            constants(T=T)

    def test_infinite_lipschitz_constant_is_accepted(self):
        # an unbounded constant is a valid (if hopeless) input: the
        # report carries the overflow instead of rejecting it
        report = check_conditions(constants(b_y=math.inf))
        assert not report.conditionL0


class TestConstantsIO:
    def make_text(self):
        return "\n".join(
            f"{k} = {v}"
            for k, v in dict(
                k_b=0.0, k_f=-1.0, K=1.0, b_y=0.1, b_z=0.01, sigma_x=0.0,
                sigma_y=1.0, f_x=2.0, f_z=0.1, g_x=4.0, b_0=0.0, sigma_0=0.0,
                f_0=1.0, g_0=16.0, Sigma=16.0, T=0.25,
            ).items()
        )

    def test_round_trip(self):
        c = parse_constants(self.make_text())
        assert c.k_f == -1.0
        assert c.Sigma == 16.0

    def test_missing_key_named(self):
        text = "\n".join(
            line for line in self.make_text().splitlines()
            if not line.startswith("sigma_y")
        )
        with pytest.raises(InvalidArgument, match="sigma_y"):
            parse_constants(text)

    def test_unknown_key_named(self):
        with pytest.raises(InvalidArgument, match="bogus"):
            parse_constants(self.make_text() + "\nbogus = 3")

    def test_bad_value_line_number(self):
        with pytest.raises(InvalidArgument, match="line 17"):
            parse_constants(self.make_text() + "\nT = soup")

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n" + self.make_text().replace(
            "T = 0.25", "T = 0.5  # trailing"
        ) + "\n"
        assert parse_constants(text).T == 0.5

    def test_repeated_key_names_both_lines(self):
        # the second k_b used to replace the first without a word
        with pytest.raises(InvalidArgument,
                           match="line 17: constant 'k_b' already set on line 1"):
            parse_constants(self.make_text() + "\nk_b = 0.5")

    def test_report_serialization(self):
        report = check_conditions(parse_constants(self.make_text()))
        as_json = report_to_json(report)
        assert '"conditionL0"' in as_json
        table = report_to_table(report)
        assert "c2_at_L1L1" in table
        assert "lambda1_star" in table
