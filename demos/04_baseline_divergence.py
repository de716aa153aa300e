"""Why the gradient process must be tied to the value field.

The baseline fits the Z field by its own regression of h^-1 Y dW per time
step.  Under Z-coupled drift that error feeds back through the forward
equation, and Err(Z) *grows* as the grid is refined, while the
differentiation method converges on the same data.
"""

from fbsdekit import (
    SolverConfig,
    example2_problem,
    make_time_grid,
    run_markovian_iteration,
    sample_fine_increments,
    simulate_reference,
)

problem = example2_problem()
num_paths, fine_n = 3000, 2048
store = sample_fine_increments(7, num_paths, fine_n, problem.dim_w,
                               problem.horizon)
reference_32 = simulate_reference(problem, store, make_time_grid(0.25, 32))

print(f"{'N':>4} {'err_z direct':>14} {'err_z differentiation':>22}")
for n in (4, 8, 16, 32):
    reference = reference_32.strided(32 // n)
    row = []
    for method in ("direct", "differentiation"):
        cfg = SolverConfig(n_steps=n, num_iterations=5, num_paths=num_paths,
                           fine_n=fine_n, seed=7, method=method)
        result = run_markovian_iteration(problem, cfg, store=store,
                                         reference_paths=reference)
        row.append(result.per_iteration_errors[-1].err_z)
    print(f"{n:>4} {row[0]:>14.2e} {row[1]:>22.2e}")

print("\nrefining the grid makes the baseline worse: the h^-1 factor in its"
      "\nZ regression amplifies noise that the drift then re-injects.")
