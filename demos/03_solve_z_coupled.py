"""Solve the 1-d FBSDE with Z-coupled drift and check convergence in N.

A scaled-down version of the flagship experiment: the Markovian iteration
with the differentiation method, error metrics against a fine-grid
decoupled reference, and a log-log rate fit.  Full-size settings
(15000 paths, fine_n 20480) live in the acceptance suite and the CLI.
"""

import numpy as np

from fbsdekit import (
    SolverConfig,
    example2_problem,
    fit_rate,
    make_time_grid,
    run_markovian_iteration,
    sample_fine_increments,
    simulate_reference,
)

problem = example2_problem()
num_paths, fine_n = 3000, 2048
store = sample_fine_increments(7, num_paths, fine_n, problem.dim_w,
                               problem.horizon)

# one fine-grid reference serves every coarse grid in the sweep
reference_32 = simulate_reference(problem, store, make_time_grid(0.25, 32))

print(f"Y_0 reference: {reference_32.y[0, 0]:.6f}  "
      f"(exact sin(1.5) = {np.sin(1.5):.6f})")
print(f"\n{'N':>4} {'err_x':>10} {'err_y':>10} {'err_z':>10} {'total':>10}")

points = []
for n in (2, 4, 8, 16, 32):
    reference = reference_32.strided(32 // n)
    cfg = SolverConfig(n_steps=n, num_iterations=5, num_paths=num_paths,
                       fine_n=fine_n, seed=7)
    result = run_markovian_iteration(problem, cfg, store=store,
                                     reference_paths=reference)
    report = result.per_iteration_errors[-1]
    points.append((n, report.total))
    print(f"{n:>4} {report.err_x:>10.2e} {report.err_y:>10.2e} "
          f"{report.err_z:>10.2e} {report.total:>10.2e}")

print(f"\nfitted rate of the total error: {fit_rate(points):.2f} "
      "(first order would be -1)")
