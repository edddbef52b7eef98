# Where the E2 - E0 gap closes, and how fast it drifts toward lambda = -1.
import numpy as np

from bjjsense.criticality import locate_critical_gap
from bjjsense.model import ModelParams, eigenvalues

# Gap profile for one size: the minimum marks the finite-size critical point.
n = 200
grid = np.linspace(-1.4, -0.8, 31)
levels = eigenvalues(ModelParams(n), grid, 3)
gaps = levels[:, 2] - levels[:, 0]
print(f"N = {n}: gap E2 - E0 along lambda")
for lam, gap in zip(grid[::5], gaps[::5]):
    print(f"  lambda = {lam:7.3f}   gap = {gap:8.4f}")

print()
print("minimum location vs size (shift = -1 - lambda_c^(N)):")
for n in (100, 200, 400, 800):
    result = locate_critical_gap(n)
    print(f"  N = {n:4d}   lambda_c^(N) = {result.lambda_c:9.5f}   "
          f"shift = {result.shift:.5f}   shift * N^(2/3) = "
          f"{result.shift * n ** (2 / 3):.3f}")
