"""EDMD on a nonlinear system with a known invariant subspace.

The map x1+ = mu x1, x2+ = lam x2 + c x1^2 is nonlinear, yet the
observables {1, x1, x2, x1^2} close under it, so a quadratic dictionary
gives a finite exact Koopman representation with eigenvalues
{1, mu, lam, mu^2}. The script fits degree-2 EDMD, checks the spectrum
against the symbolically built lift, evaluates an eigenfunction along the
trajectory, and shows how a too-small dictionary announces itself through
the lifted residual.
"""

import numpy as np

from dmdkit import (
    PolynomialDictionary,
    eigenfunction_values,
    exact_lift_oracle,
    fit_edmd,
    quadratic_system,
    simulate,
    snapshot_pairs,
)

mu, lam, c = 0.9, 0.5, 1.0
spec = quadratic_system(mu, lam, c, (1.0, -0.4), 30)
pair = snapshot_pairs(simulate(spec))

dictionary = PolynomialDictionary(2, degree=2)
model = fit_edmd(pair, dictionary)

oracle = exact_lift_oracle(spec, dictionary)
print("exact lift acts on:", ", ".join(oracle.names))
print("oracle eigenvalues:", np.round(sorted(np.linalg.eigvals(oracle.matrix).real), 6))
print("fitted eigenvalues:", np.round(sorted(model.eigenvalues.real), 6))
print(f"lifted residual (degree 2): {model.lifted_residual:.2e}")

# The eigenfunction paired with mu^2 behaves like x1 squared: its value
# along the trajectory scales by 0.81 each step.
i = int(np.argmin(np.abs(model.eigenvalues - mu**2)))
values = eigenfunction_values(model, pair.x[:, :5])[i]
ratios = [abs(values[t + 1] / values[t]) for t in range(4)]
print("eigenfunction ratio along trajectory:", np.round(ratios, 8))

# A linear dictionary cannot represent the x1^2 coupling and the residual
# reports the span violation instead of failing silently.
small = fit_edmd(pair, PolynomialDictionary(2, degree=1))
print(f"lifted residual (degree 1): {small.lifted_residual:.2e}")
