"""Krylov projection of the coupled system with SVD re-orthonormalization.

Reduces the degree-2 benchmark system by one-point Arnoldi at a shift in
the passband, tracks the certified output error bound over the reduced
dimension, and shows how the singular value spectrum of the reduced
output matrix drives deflation.
"""

import numpy as np

import sgmor as sg

psys = sg.mna_assemble(sg.lowpass_benchmark())
spec = sg.BasisSpec.uniform(psys.parameter_bounds, sg.build_index_set(21, 2))
gsys = sg.assemble(psys, spec)
print(f"coupled system: dimension {gsys.dimension}, m = {gsys.m}")

grid = sg.FrequencyGrid.logspaced(-2, 10, 20)
samples = sg.sample_transfer(gsys, grid)

s0 = 5.0e5
print(f"\none-point Arnoldi at s0 = {s0:.1e}")
# Krylov bases are nested: each order-r reduction is a leading block of one basis
red = sg.arnoldi_reduce(gsys, s0, 120)
print(f"{'r':>4} {'stable':>7} {'bound_sup':>12} {'bound_l2':>12}")
for r in range(20, 121, 20):
    sub = red.truncate(r).system
    cert = sg.theorem2_certificate(sg.difference_norms(samples, sub, grid))
    stable = sg.pencil_spectrum(sub).stable
    print(f"{r:4d} {str(stable):>7} {cert.bound_sup:12.4e} {cert.bound_l2:12.4e}")

basis = sg.svd_basis(red)
s = basis.singular_values
print(f"\nSVD of the reduced output matrix: rank {basis.rank}")
print("singular values (max, median, min):",
      f"{s[0]:.3e}, {np.median(s):.3e}, {s[-1]:.3e}")
print(f"kappa in [{basis.kappa.min():.3e}, {basis.kappa.max():.3e}], "
      f"sum kappa^2 = {np.sum(basis.kappa**2):.6f}")

# deflate against a transient coefficient trajectory of the reduced system
def u(t):
    return np.sin(2.0e6 * np.pi * t) * np.exp(-t / 2.0e-6)

# the reduced coefficients vbar(t) are the states of the reduced system,
# so integrate it once with C replaced by the identity
state_probe = sg.DescriptorSystem(
    red.system.E, red.system.A, red.system.B, np.eye(red.r)
)
traj = sg.simulate_transient(state_probe, u, 2.0e-5, 2.0e-8)
vbar = traj.outputs
print("\ndeflation of the orthonormalized representation:")
for thr_rel in (1e-4, 1e-8, 1e-12):
    thr = thr_rel * s[0]
    r_prime, cert = sg.deflate(basis, thr, vbar, times=traj.times)
    print(f"  threshold {thr_rel:.0e} * s_1: r' = {r_prime:3d}, "
          f"pointwise bound max = {cert.pointwise.max():.4e}, "
          f"aggregate = {cert.aggregate:.4e}")
