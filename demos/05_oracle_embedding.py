#!/usr/bin/env python3
"""Seeing the embedding directly: brute-force box diagonalization.

No integral equations here -- just the Hamiltonian on a grid with hard
walls. Near the designed energy the spectrum is a ladder of box-discretized
continuum states, and exactly one eigenvector stays put when the walls
move: a bound state living inside the continuum. The delta-coupled
quasi-BIC shows the contrast: every nearby eigenvector leaks.
"""
import numpy as np

import bicforge as bf
from bicforge import oracle

gamma, nu, mu = 0.5, 0.7, 1.0
e0 = bf.e_bic_analytic(gamma, nu, mu)
soc = bf.soc_model(gamma=gamma, mu=mu)

print(f"=== spin-orbit well, target {e0:.6f} ===")
grid = bf.Grid.symmetric(30.0, 2048)
h = oracle.assemble(soc, grid, bf.SocBic(gamma, nu))
print(f"box [-30, 30], {h.dim} x {h.dim} sparse matrix (shift-invert near target), "
      f"hermiticity residual {h.hermiticity_residual():.1e}")
for e, st in sorted(oracle.eigen_near(h, e0, 7), key=lambda t: t[0]):
    loc = oracle.localization(st, 15.0)
    tag = "  <-- the embedded bound state" if loc.tail_mass < 1e-3 else ""
    print(f"  E = {e:+.6f}  tail(|x|>15) = {loc.tail_mass:8.1e}  "
          f"ipr = {loc.ipr:.3f}{tag}")

print("\n=== same spectrum, bigger box: the ladder densifies, the state stays ===")
for half in (15.0, 30.0):
    h = oracle.assemble(soc, bf.Grid.symmetric(half, 1536), bf.SocBic(gamma, nu))
    vals = oracle.spectrum(h)
    n_win = int(np.sum((vals > e0 - 0.1) & (vals < e0 + 0.1)))
    print(f"  half-width {half:4.0f}: {n_win} eigenvalues within +/-0.1 of target")

print("\n=== contrast: the delta-coupled quasi-BIC never localizes ===")
model = bf.two_band_model(mu=0.0, g=1.0, lam=-1.0)
h = oracle.assemble(model, bf.Grid.symmetric(40.0, 2048), bf.Delta(1.0))
for e, st in sorted(oracle.eigen_near(h, 0.875, 5), key=lambda t: t[0]):
    loc = oracle.localization(st, 20.0)
    print(f"  E = {e:+.6f}  tail(|x|>20) = {loc.tail_mass:8.1e}  ipr = {loc.ipr:.3f}")
print("(the localized core hybridizes with box modes; no tail sinks below 1e-3)")
