# Synthetic shot records -> double-Gaussian fits -> chi estimates with
# bootstrap error bars, the same chain the `bjjsense pipeline` command runs:
# `series_estimates` returns the fits with the estimates, and the bootstrap
# redraws every record from those fits.
import numpy as np

import bjjsense.estimation as est

# A smooth imbalance ramp steepest near a = -1.75, like a transition crossing.
a = np.round(-2.4 + 0.2 * np.arange(8), 10)
zbar = 0.2 + 0.22 * (a + 2.4) + 0.12 * (1.0 + np.tanh((a + 1.75) / 0.2))
truth = [est.DoubleGaussianFit(z, 0.1, 0.5, 0.5) for z in zbar]

series = est.synth_samples(a, truth, n_samples=4000, seed=11)
points, fits = est.series_estimates(series)

boots = {
    name: est.bootstrap(series, name, n_replicas=300, seed=11, base_fits=fits)
    for name in ("chi_mom", "chi_cl")
}

print("fitted separation vs generating value:")
for ai, zi, fz, fw in zip(a, zbar, points["zbar"], points["sigma"]):
    print(f"  a = {ai:6.2f}   zbar = {zi:.3f}   fitted = {fz:.3f}"
          f"   width = {fw:.3f}")

print()
print(f"{'a':>7} {'chi_mom':>16} {'chi_cl':>16}")
for i, ai in enumerate(a):
    mom = f"{points['chi_mom'][i]:7.2f} +- {boots['chi_mom'].widths[i]:5.2f}"
    if np.isfinite(points["chi_cl"][i]):
        cl = f"{points['chi_cl'][i]:7.2f} +- {boots['chi_cl'].widths[i]:5.2f}"
    else:
        cl = "(edge)"
    print(f"{ai:7.2f} {mom:>16} {cl:>16}")

peak_mom = int(np.argmax(points["chi_mom"]))
peak_cl = int(np.nanargmax(points["chi_cl"]))
print(f"\nboth estimators peak at a = {a[peak_mom]:.2f} "
      f"(grid indices {peak_mom} and {peak_cl})")
