"""Step-keyed Brownian increments and exact coarsening.

Fine step k of the store is the draw of numpy's Philox-4x64-10 generator
keyed by the seed and counted by k,
Generator(Philox(key=seed, counter=[0, k, 0, 0])).standard_normal((paths, dim_w)),
and the paths are a prefix of that draw.  Any window can be generated
independently, and window sums are exact in double precision, so one
fine-grid path can drive every coarse grid in a step-size sweep without
re-simulation artifacts.
"""

import numpy as np

from fbsdekit import coarsen_increments, sample_fine_increments

store = sample_fine_increments(seed=42, num_paths=6, fine_n=512, dim_w=1,
                               horizon=0.25)

full = store.increments
window = store.fine_increments(100, 228)
print("window == slice of full array:",
      np.array_equal(window, full[:, 100:228]))

again = sample_fine_increments(42, 6, 512, 1, 0.25).increments
print("regeneration is bit-identical:", np.array_equal(full, again))

fewer = sample_fine_increments(42, 3, 512, 1, 0.25).increments
print("paths are a prefix of a larger store:", np.array_equal(fewer, full[:3]))

coarse8 = coarsen_increments(store, 8)
coarse4 = coarsen_increments(store, 4)
print("divisor-chain coarsening is exact:",
      np.array_equal(coarse8.reshape(6, 4, 2, 1).sum(axis=2), coarse4))
print("total sums telescope exactly:",
      np.array_equal(coarse4.sum(axis=1), full.sum(axis=1)))

print("\nper-step variance  target: %.3e  sample: %.3e"
      % (store.fine_step_variance,
         sample_fine_increments(42, 2000, 512, 1, 0.25).increments.var()))
