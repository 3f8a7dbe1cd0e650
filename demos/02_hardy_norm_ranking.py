"""Per-output Hardy norms of the coupled system and the capture curve.

Every basis function of the polynomial expansion owns one output of the
Galerkin system and therefore its own transfer function.  Ranking the
outputs by Hardy norm shows how much of the random output a small subset
of basis functions captures.
"""

import numpy as np

import sgmor as sg

psys = sg.mna_assemble(sg.lowpass_benchmark())
spec = sg.BasisSpec.uniform(psys.parameter_bounds, sg.build_index_set(21, 2))
gsys = sg.assemble(psys, spec)
print(f"coupled system: dimension {gsys.dimension}, m = {gsys.m} outputs")

grid = sg.FrequencyGrid.default()
samples = sg.sample_transfer(gsys, grid)
report = sg.hardy_norms(samples, grid)

degrees = spec.index_set.total_degrees()
for deg in range(3):
    mask = degrees == deg
    print(f"degree {deg}: {mask.sum():3d} outputs, "
          f"median H2 = {np.median(report.h2[mask]):.3e}, "
          f"median Hinf = {np.median(report.hinf[mask]):.3e}")

for kind in ("h2", "hinf"):
    ranking = sg.rank_and_theta(report, kind)
    print(f"\ncapture ratios theta_r ({kind} ranking):")
    for r in (1, 2, 4, 8, 16, 32, gsys.m):
        print(f"  r = {r:3d}: theta = {ranking.theta[r - 1]:.6f}")
    print(f"minimal r for threshold delta:")
    for delta in (1e-2, 1e-3, 1e-4, 1e-5):
        r = ranking.minimal_r(delta)
        print(f"  delta = {delta:.0e}: r = {r:3d}  ({100.0 * r / gsys.m:.1f}% of m)")
