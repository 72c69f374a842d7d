#!/usr/bin/env python3
"""The full exact-BIC story on the spin-orbit model.

1. The cosh-ratio well is designed so an eigenstate sits *inside* the
   continuum of the lower band (mixed-pole window).
2. The integral-equation solver finds the self-consistent state: the map
   eigenvalue crosses 1 exactly at the embedded energy.
3. The certificate: Fourier components of V B psi vanish at the real poles
   +/-q, so the standing-wave tail carries zero weight -- a square-integrable
   state embedded in extended spectrum.

Writes fq_spectrum.tsv and bic_profile.tsv next to this script.
"""
from pathlib import Path

import numpy as np

import bicforge as bf
from bicforge.tabular import write_spectrum, write_wave_samples

HERE = Path(__file__).resolve().parent
gamma, nu, mu = 0.5, 0.7, 1.0

model = bf.soc_model(gamma=gamma, mu=mu)
pot = bf.SocBic(gamma=gamma, nu=nu)
e0 = bf.e_bic_analytic(gamma, nu, mu)
print(f"designed embedded energy: {e0:.7f} (inside the window |E| < {mu})")

ps = bf.poles(model, e0)
print(f"poles there: real {ps.real_poles}, evanescent "
      f"{[f'{p:+.3f}' for p in ps.upper_poles]}")

grid = bf.Grid.symmetric(30.0, 4096)
reps = bf.find_energy(model, grid, pot, e0 - 0.05, e0 + 0.05, mesh_points=7)
rep = reps[0]
print(f"solver: E = {rep.energy:.9f}  map eigenvalue = "
      f"{rep.operator_eigenvalue:.12f}  fixed-point residual = "
      f"{rep.fixed_point_residual:.1e}")

br = bf.classify(model, rep.state, pot, rep.energy)
print(f"verdict: {br.verdict.value}")
print(f"  Fourier residual at +/-q, relative to peak: {br.residual_rel:.2e}")
print(f"  tail oscillation / peak amplitude:          {br.tail_rel:.2e}")
print(f"  tail decay rate (expect ~nu = {nu}):         {br.tail_decay_rate:.3f}")

# contrast: a 10% stronger well breaks the cancellation
scaled = bf.Scaled(pot, 1.1)
reps2 = bf.find_energy(model, grid, scaled, 0.45, 0.85, mesh_points=25)
worst = min((bf.classify(model, r.state, scaled, r.energy) for r in reps2),
            key=lambda b: b.residual_rel)
print(f"\nscaled well (x1.1): verdict {worst.verdict.value}, residual "
      f"{worst.residual_rel:.2e} ({worst.residual_rel/br.residual_rel:.0f}x)")

# plot data: component spectrum with zeros at +/-q, and the state profile
q = float(np.abs(br.real_poles).max())
qs = np.linspace(-2 * q, 2 * q, 801)
write_spectrum(HERE / "fq_spectrum.tsv", qs,
               bf.fourier_line(rep.state, pot, model.b, -2 * q, 2 * q, 801))
write_wave_samples(HERE / "bic_profile.tsv", grid.x, rep.state.values)
print(f"\nwrote {HERE / 'fq_spectrum.tsv'} (note the zeros at q = +/-{q:.5f})")
print(f"wrote {HERE / 'bic_profile.tsv'}")
