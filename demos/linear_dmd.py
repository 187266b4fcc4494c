"""Exact spectral recovery of a linear system from one trajectory.

For x+ = Ax with identity observables, the DMD eigenvalues are the
eigenvalues of A and the modes line up with A's eigenvectors. This script
fits a random stable 4-dimensional system from 16 snapshots and compares
against numpy's eigendecomposition, then forecasts ahead of the data.
"""

import numpy as np

from dmdkit import SnapshotPair, fit_svd_dmd, predict

rng = np.random.default_rng(7)
n = 4
a = rng.standard_normal((n, n))
a *= 0.9 / max(np.abs(np.linalg.eigvals(a)))

x0 = rng.standard_normal(n)
cols = [x0]
for _ in range(4 * n - 1):
    cols.append(a @ cols[-1])
states = np.column_stack(cols)
pair = SnapshotPair(states[:, :-1], states[:, 1:])

model = fit_svd_dmd(pair)

true_vals = sorted(np.linalg.eigvals(a), key=abs, reverse=True)
fit_vals = sorted(model.eigenvalues, key=abs, reverse=True)
print("eigenvalues (true vs fitted):")
for t, f in zip(true_vals, fit_vals):
    print(f"  {t: .12f}   {f: .12f}   |gap| = {abs(t - f):.2e}")

print(f"\ntraining residual: {model.fit_residual:.2e}")

# Forecast 10 steps past the training window and compare with the map itself.
steps = 10
forecast = predict(model, states[:, -1], steps)
x = states[:, -1].copy()
worst = 0.0
for m in range(steps):
    x = a @ x
    worst = max(worst, float(np.max(np.abs(forecast[m] - x))))
print(f"worst forecast error over {steps} extrapolated steps: {worst:.2e}")
