"""Kernel EDMD computes the same decomposition as explicit EDMD.

A polynomial kernel of degree alpha corresponds to a weighted monomial
dictionary, but the kernel route only ever factors an m x m Gram matrix,
where m is the number of snapshots. With 12 snapshots of a planar spiral
the degree-3 dictionary has 10 monomials; both routes are cheap here, but
the kernel cost would not change if the dictionary were a million
functions wide.
"""

import numpy as np

from dmdkit import GaussianKernel, PolynomialKernel, SnapshotPair, fit_edmd, fit_kernel_edmd

angle = 0.4
rot = 0.9 * np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
cols = [np.array([1.0, 0.2])]
for _ in range(11):
    cols.append(rot @ cols[-1])
states = np.column_stack(cols)
pair = SnapshotPair(states[:, :-1], states[:, 1:])

for degree in (1, 2, 3):
    kernel = PolynomialKernel(degree)
    km = fit_kernel_edmd(pair, kernel)
    em = fit_edmd(pair, kernel.explicit_dictionary(2))
    k_vals = np.sort_complex(km.eigenvalues)
    e_vals = np.sort_complex(em.eigenvalues)
    gap = float(np.max(np.abs(k_vals - e_vals))) if k_vals.size == e_vals.size else np.nan
    print(f"degree {degree}: kernel rank {km.eigenvalues.size}, "
          f"explicit rank {em.eigenvalues.size}, spectrum gap {gap:.2e}")

# Kernels without finite dictionaries work the same way.
gm = fit_kernel_edmd(pair, GaussianKernel(1.5))
lead = gm.eigenvalues[np.argsort(-np.abs(gm.eigenvalues))][:4]
print("\ngaussian kernel leading eigenvalues:")
print(np.round(lead, 6))
print(f"true spiral pair: {0.9 * np.exp(1j * angle):.6f} and conjugate")
