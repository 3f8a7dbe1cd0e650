"""Prune the Galerkin basis and validate the error certificates.

Builds the benchmark at degree 2, drops all but a handful of outputs, and
compares the resulting certificates with the error measured by Monte
Carlo sampling of the random parameters.  The transient coefficients come
from one simulation of the coupled system, so the measured error is the
exact sampling error of the pruned surrogate.
"""

import numpy as np

import sgmor as sg

psys = sg.mna_assemble(sg.lowpass_benchmark())
spec = sg.BasisSpec.uniform(psys.parameter_bounds, sg.build_index_set(21, 2))
gsys = sg.assemble(psys, spec)

grid = sg.FrequencyGrid.logspaced(-2, 10, 20)
samples = sg.sample_transfer(gsys, grid)
report = sg.hardy_norms(samples, grid)
ranking = sg.rank_and_theta(report, "h2")

# a smooth pulse that switches on at t = 0 and dies before the horizon
def u(t):
    return np.sin(2.0e6 * np.pi * t) * np.exp(-t / 2.0e-6)

horizon, step = 2.0e-5, 2.0e-8
traj = sg.simulate_transient(gsys.system, u, horizon, step)
W = traj.outputs
print(f"transient: {len(traj.times)} steps, ||u||_L2 = {traj.input_l2:.6e}")

rng = np.random.default_rng(42)
n_mc = 20_000
pts = spec.sample(n_mc, rng)
phi = sg.eval_basis_matrix(spec, pts)

print(f"\n{'r':>4} {'theta_r':>10} {'bound_sup':>12} {'measured_sup':>13} {'ratio':>7}")
for r in (1, 4, 12, 40):
    sel = sg.select_indices(ranking, "top_k", k=r)
    cert = sg.theorem1_certificate(report, sel, input_l2=traj.input_l2)
    dropped = list(sel.dropped)
    # L2(Omega) error of the pruned surrogate at each time step, by MC
    resid = W[:, dropped] @ phi[:, dropped].T
    measured = np.sqrt(np.mean(resid**2, axis=1)).max()
    print(f"{r:4d} {ranking.theta[r - 1]:10.7f} {cert.bound_sup:12.4e} "
          f"{measured:13.4e} {measured / cert.bound_sup:7.3f}")

# downsizing keeps the kept outputs but re-solves on the smaller coupled
# system, so theorem 2 applies with the dropped norms as a floor
sel = sg.select_indices(ranking, "threshold", delta=0.1)
small = sg.downsize(gsys, sel)
diff = sg.difference_norms(samples, small, grid)
cert2 = sg.theorem2_certificate(diff, input_l2=traj.input_l2,
                                full_report=report, sel=sel)
print(f"\ndownsize at delta=0.1: kept {len(sel.kept)} of {gsys.m} outputs")
print(f"theorem 2 bound_sup = {cert2.bound_sup:.4e} "
      f"(floor {cert2.lower_floor_sup:.4e})")
print(f"theorem 2 bound_l2  = {cert2.bound_l2:.4e} "
      f"(floor {cert2.lower_floor_l2:.4e})")
