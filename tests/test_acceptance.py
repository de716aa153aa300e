"""Full-size acceptance battery.

Each test implements one acceptance criterion and prints one PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them).  The
two benchmark experiments run at their production settings: 15000 paths,
fine grid 20480, step counts 2..32, five iterations.  Expect several
minutes on one core.

Two checks are known-red and left failing deliberately; see the
assertion messages:

* criterion 1's level thresholds on the 4-d fully coupled benchmark sit
  below the strong error of the forward Euler scheme itself: driven by
  the exact decoupling fields, the coarse sweep gives err_x 2.56e-2 at
  N = 32.  The degree-2 basis accounts for the rest of err_y and of the
  rate (the 1-d variant misses too, narrowly, on err_x), and
* criterion 4's stalling inequality for the direct baseline, whose
  iteration curve oscillates (systematically across seeds) instead of
  plateauing.
"""

import math

import numpy as np
import pytest

from fbsdekit.brownian import make_time_grid, sample_fine_increments
from fbsdekit.fields import QuadraticField, eval_u, eval_v_diff, num_features
from fbsdekit.problems import (
    decoupled_test_problem,
    example1_problem,
    example2_problem,
)
from fbsdekit.reference import fit_rate, simulate_reference
from fbsdekit.solver import SolverConfig, run_markovian_iteration
from fbsdekit.diagnostics import (
    AssumptionConstants,
    compute_A_constants,
    compute_D_constants,
    gamma0,
    gamma0_disc,
    gamma1,
    gamma1_disc,
)

SEED = 7
PATHS = 15000
FINE_N = 20480
SWEEP = (2, 4, 8, 16, 32)
ITERATIONS = 5


def report_line(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def run_sweep(problem, method, store, reference_32):
    """One solver run per sweep N; per-iteration totals kept for N=32."""
    reports = {}
    m_totals = None
    for n in SWEEP:
        reference = reference_32.strided(SWEEP[-1] // n)
        cfg = SolverConfig(
            n_steps=n, num_iterations=ITERATIONS, num_paths=PATHS,
            method=method, seed=SEED, fine_n=FINE_N,
        )
        result = run_markovian_iteration(
            problem, cfg, store=store, reference_paths=reference
        )
        reports[n] = result.per_iteration_errors[-1]
        if n == SWEEP[-1]:
            m_totals = [r.total for r in result.per_iteration_errors]
    return reports, m_totals


@pytest.fixture(scope="module")
def example1_runs():
    problem = example1_problem()
    store = sample_fine_increments(SEED, PATHS, FINE_N, problem.dim_w,
                                   problem.horizon)
    reference_32 = simulate_reference(
        problem, store, make_time_grid(problem.horizon, SWEEP[-1])
    )
    diff_reports, diff_m = run_sweep(problem, "differentiation", store,
                                     reference_32)
    _, direct_m = run_sweep(problem, "direct", store, reference_32)
    return {"diff": diff_reports, "diff_m": diff_m, "direct_m": direct_m}


@pytest.fixture(scope="module")
def example2_runs():
    problem = example2_problem()
    store = sample_fine_increments(SEED, PATHS, FINE_N, problem.dim_w,
                                   problem.horizon)
    reference_32 = simulate_reference(
        problem, store, make_time_grid(problem.horizon, SWEEP[-1])
    )
    diff_reports, _ = run_sweep(problem, "differentiation", store,
                                reference_32)
    direct_reports, _ = run_sweep(problem, "direct", store, reference_32)
    return {"diff": diff_reports, "direct": direct_reports}


class TestCriterion1TimeStepConvergenceFullyCoupled:
    def test_rate_and_levels(self, example1_runs):
        reports = example1_runs["diff"]
        rate = fit_rate([(n, reports[n].total) for n in SWEEP])
        err_x = reports[32].err_x
        err_y = reports[32].err_y
        ok = rate <= -0.8 and err_x <= 1e-4 and err_y <= 1e-4
        detail = f"rate={rate:.3f} err_x={err_x:.3e} err_y={err_y:.3e}"
        report_line(1, ok, detail)
        assert ok, (
            f"fully coupled 4-d benchmark: {detail}; thresholds rate<=-0.8, "
            f"errors<=1e-4. For err_x the cause is the forward Euler scheme, "
            f"not the fit: the coarse Euler sweep driven by the exact u and v, "
            f"on the same store and reference, gives err_x 2.56e-2 at N=32, "
            f"256 times the threshold. Its leading error is the Milstein term "
            f"sigma'sigma((dW)^2-h)/2 of the state-dependent diffusion, which "
            f"is not of the form a(X)+c(X)dW, so no decoupling field removes "
            f"it (Kloeden & Platen 1992); at strong order 1/2, err_x<=1e-4 "
            f"needs N of about 8000. The degree-2 basis explains the rest: "
            f"err_y against the exact-field level 7.95e-3, and the rate "
            f"against -0.96. The 1-d variant misses too, narrowly: at these "
            f"settings (seed 7, 15000 paths, fine_n 20480, N=2..32, M=5) "
            f"example1_problem(dim=1) gives rate -0.943, err_y 9.03e-5 and "
            f"err_x 1.39e-4 > 1e-4, on its own exact-field err_x of 1.365e-4"
        )


class TestCriterion2TimeStepConvergenceZCoupled:
    def test_rate(self, example2_runs):
        reports = example2_runs["diff"]
        rate = fit_rate([(n, reports[n].total) for n in SWEEP])
        ok = rate <= -0.8
        report_line(2, ok, f"rate={rate:.3f}")
        assert ok


class TestCriterion3BaselineDivergence:
    def test_z_error_grows(self, example2_runs):
        reports = example2_runs["direct"]
        z4, z32 = reports[4].err_z, reports[32].err_z
        ok = z32 > z4 and z32 >= 1e-3
        report_line(3, ok, f"err_z(4)={z4:.3e} err_z(32)={z32:.3e}")
        assert ok


class TestCriterion4IterationBehavior:
    def test_differentiation_converges_and_stabilizes(self, example1_runs):
        totals = example1_runs["diff_m"]
        ok = (
            totals[2] <= totals[0]
            and abs(totals[4] - totals[3]) <= 0.5 * totals[3]
        )
        detail = "totals=" + " ".join(f"{t:.3e}" for t in totals)
        report_line("4a", ok, detail)
        assert ok

    def test_direct_stalls(self, example1_runs):
        totals = example1_runs["direct_m"]
        ok = totals[4] >= 0.9 * totals[2]
        detail = "totals=" + " ".join(f"{t:.3e}" for t in totals)
        report_line("4b", ok, detail)
        assert ok, (
            f"direct baseline iteration curve {detail}: instead of "
            f"plateauing after three iterations it oscillates -- the noisy "
            f"independently-fitted Z field ejects the next forward sweep "
            f"(spike at M=3, systematic across seeds 1,2,3,7), whose "
            f"clamped regressions then produce tame fields again (trough "
            f"at M=4); err_z is 792 of the spike's 797. Mechanism at seed 7: "
            f"iteration 3 fits its Z fields on states whose step-1 spread "
            f"is only 0.054 per component (0.34 in iteration 2), where the "
            f"quadratic regressions of Y dW / h reach coefficients of "
            f"3.2e2, 1.7e2, 1.2e2, 76 at steps 1-4 (design condition "
            f"number 2.8e3); the next sweep evaluates them across the "
            f"frozen box [-2.21, 3.79] and meets |Z| up to 8.7e2 (about "
            f"1.1e3 at seeds 1-3, against about 3 one iteration later). The "
            f"literal inequality total(5) >= 0.9 total(3) "
            f"compares a trough against the spike and fails, although the "
            f"baseline's failure to converge (the claim under test) is "
            f"even more pronounced than a stall"
        )


class TestCriterion5GradientChain:
    def test_differentiation_matches_finite_differences(self):
        # 1000 random (field, point) samples strictly inside the box,
        # nontrivial state- and value-dependent diffusion
        rng = np.random.default_rng(10)
        dim, dim_w = 3, 3

        def sigma(t, x, y):
            base = np.eye(dim)[None, :, :] * (1.0 + 0.1 * np.sin(x))[:, :, None]
            return base + 0.05 * y[:, None, None]

        worst = 0.0
        for _ in range(10):
            field = QuadraticField(
                dim=dim,
                coeffs=rng.normal(size=num_features(dim)),
                trunc_lo=np.full(dim, -6.0),
                trunc_hi=np.full(dim, 6.0),
            )
            x = rng.uniform(-5.0, 5.0, size=(100, dim))
            got = eval_v_diff(field, sigma, 0.3, x)
            step = 1e-5
            grad_fd = np.empty_like(x)
            for k in range(dim):
                e = np.zeros(dim)
                e[k] = step
                grad_fd[:, k] = (
                    eval_u(field, x + e) - eval_u(field, x - e)
                ) / (2 * step)
            smat = sigma(0.3, x, eval_u(field, x))
            expected = np.einsum("ni,nic->nc", grad_fd, smat)
            scale = np.maximum(np.abs(expected), 1.0)
            worst = max(worst, float(np.max(np.abs(got - expected) / scale)))
        ok = worst <= 1e-6
        report_line(5, ok, f"max relative deviation={worst:.2e}")
        assert ok


class TestCriterion6RegressionOracle:
    def test_lsq_matches_pseudo_inverse(self):
        from fbsdekit.regression import solve_linear_lsq

        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            a = rng.normal(size=(100, 5))
            y = rng.normal(size=100)
            ours = solve_linear_lsq(a, y, ridge=0.0)
            oracle = np.linalg.pinv(a) @ y
            worst = max(
                worst,
                float(np.linalg.norm(ours - oracle) / np.linalg.norm(oracle)),
            )
        ok = worst <= 1e-10
        report_line("6a", ok, f"max relative deviation={worst:.2e}")
        assert ok

    def test_martingale_field_recovery(self):
        problem = decoupled_test_problem("brownian-linear")
        cfg = SolverConfig(
            n_steps=8, num_iterations=1, num_paths=PATHS, seed=SEED,
            fine_n=64,
            trunc_lo=np.array([-20.0]), trunc_hi=np.array([20.0]),
        )
        result = run_markovian_iteration(problem, cfg)
        tol = 5.0 / math.sqrt(PATHS)
        worst = 0.0
        for i in range(1, 8):  # step 0 sees only the degenerate point x0
            coeffs = result.fields[0][i].coeffs
            worst = max(
                worst,
                abs(coeffs[0]), abs(coeffs[1] - 1.0), abs(coeffs[2]),
            )
        ok = worst <= tol
        report_line("6b", ok, f"max coefficient error={worst:.3e} tol={tol:.3e}")
        assert ok


class TestCriterion7DiagnosticsProperties:
    def test_gamma_limits(self):
        n = 100_000
        worst = 0.0
        for x in (-5.0, -1.0, 1.0, 5.0):
            lhs = gamma0_disc(n, x, 1.0 / n)
            rhs = gamma0(x)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        for x, y in ((-5.0, 5.0), (2.0, -3.0), (1.0, 1.0)):
            lhs = gamma1_disc(n, x, y, 1.0 / n)
            rhs = gamma1(x, y)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        ok = worst <= 1e-3
        report_line("7a", ok, f"max relative gap={worst:.2e}")
        assert ok

    def test_a3_is_one_under_default_multipliers(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(50):
            c = AssumptionConstants(
                k_b=rng.uniform(-0.5, 0.2), k_f=rng.uniform(-0.5, 0.2),
                K=rng.uniform(0.0, 4.0), b_y=0.1, b_z=0.05, sigma_x=0.2,
                sigma_y=0.1, f_x=0.5, f_z=0.3, g_x=1.0, b_0=0.1,
                sigma_0=0.1, f_0=0.1, g_0=1.0, Sigma=1.0, T=0.5,
            )
            a3 = compute_A_constants(c, rng.uniform(1e-6, 0.01))[2]
            worst = max(worst, abs(a3 - 1.0))
        ok = worst <= 1e-12
        report_line("7b", ok, f"max |A3 - 1|={worst:.2e}")
        assert ok

    def test_no_z_coupling_collapses_d_constants(self):
        c = AssumptionConstants(
            k_b=0.0, k_f=0.0, K=1.0, b_y=0.5, b_z=0.0, sigma_x=1.0,
            sigma_y=2.0, f_x=0.5, f_z=0.5, g_x=1.0, b_0=1.0, sigma_0=3.0,
            f_0=0.5, g_0=1.0, Sigma=1.0, T=0.5,
        )
        d = compute_D_constants(c, 0.01, 10.0)
        ok = d == (0.0, 0.0, 0.0)
        report_line("7c", ok, f"D={d}")
        assert ok

    def test_pde_residuals(self):
        from test_problems import pde_residual, sample_interior

        worst = 0.0
        rng = np.random.default_rng(13)
        for problem in (example1_problem(), example2_problem()):
            t, x = sample_interior(problem, rng, n=100)
            worst = max(worst, float(np.max(np.abs(pde_residual(problem, t, x)))))
        ok = worst <= 1e-6
        report_line("7d", ok, f"max residual={worst:.2e}")
        assert ok


class TestCriterion8Determinism:
    def test_csv_identical_across_runs_and_thread_caps(self, run_child):
        args = [
            "-m", "fbsdekit.cli", "run",
            "--problem", "example1", "--N", "4", "--M", "2",
            "--paths", "800", "--fine-n", "512", "--seed", str(SEED),
        ]
        outputs = []
        for threads in ("1", "4", "1"):
            proc = run_child(args, threads)
            rows = [
                line.rsplit(",", 1)[0]  # drop wall_ms
                for line in proc.stdout.strip().splitlines()
            ]
            outputs.append("\n".join(rows))
        ok = outputs[0] == outputs[1] == outputs[2]
        report_line(8, ok, "byte-identical rows across reruns and FBSDE_THREADS 1/4")
        assert ok
