#!/usr/bin/env python3
"""Green kernels three ways: residues, closed forms, and defining identity.

The generic route evaluates adj(E - H0(p))/f'(p) at the momentum poles and
keeps one term per pole: real poles give standing waves on both sides of the
source, complex poles an evanescent tail on the side where they decay. The
closed-form
constructors for the constant-coupling and spin-orbit models are derived
independently; agreement to ~1e-15 is the cross-check this module lives for.
"""
import numpy as np

import bicforge as bf
from bicforge.green import apply_inverse_operator

seps = (-2.0, -0.7, 0.0, 0.7, 2.0)

print("=== single band ===")
m1 = bf.single_band_model()
k_bound = bf.residue_green(m1, -0.5)
print(f"E=-0.5 (below band): G(0) = {k_bound(0.0)[0,0].real:+.6f} "
      "(analytic -m/kappa = -1)")
k_ext = bf.residue_green(m1, +0.5)
x = 1.234
print(f"E=+0.5 (in band):  G({x}) = {k_ext(x)[0,0].real:+.6f} vs standing form "
      f"{bf.extended_green_1d(0.5, 1.0, x):+.6f}")

print("\n=== two bands, constant coupling: residues vs closed form ===")
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(10):
    mu = rng.uniform(-1, 1)
    g = rng.uniform(0.3, 1.5)
    e = rng.uniform(-0.9, 0.9) * np.hypot(mu, g)
    model = bf.two_band_model(mu=mu, g=g)
    ka, kb = bf.residue_green(model, e), bf.constantA_kernel(model, e)
    worst = max(worst, max(np.abs(ka(d) - kb(d)).max() for d in seps))
print(f"max deviation over 10 random in-gap energies: {worst:.2e}")

print("\n=== spin-orbit model ===")
soc = bf.soc_model(gamma=0.5, mu=1.0)
e_bic = bf.e_bic_analytic(0.5, 0.7, 1.0)
ka, kb = bf.residue_green(soc, e_bic), bf.soc_kernel(soc, e_bic)
dev = max(np.abs(ka(d) - kb(d)).max() for d in seps)
print(f"residues vs closed form at the embedded energy: {dev:.2e}")
sides = np.select([kb.poles.imag > 0, kb.poles.imag < 0], ["dx > 0", "dx < 0"], "both sides")
for pole, side in zip(kb.poles, sides):
    print(f"  term pole {pole:+.4f}  lives on {side}")

print("\n=== defining identity (E - H0) G = 0 away from the source ===")
for label, model, e in (("single band", m1, -0.5),
                        ("two band", bf.two_band_model(mu=0.3, g=0.8), 0.1),
                        ("spin-orbit", soc, e_bic)):
    k = bf.residue_green(model, e)
    r = np.abs(apply_inverse_operator(model, k, 1.3, step=1e-3)).max()
    print(f"  {label:12s} FD residual at dx=1e-3: {r:.2e} "
          f"(kernel scale {np.abs(k(1.3)).max():.2e})")

print("\n=== derivative jump at the source: G'(0+) - G'(0-) = 2m I ===")
for label, model, e in (("single band", m1, 0.5),
                        ("spin-orbit", soc, 0.4)):
    j = bf.derivative_jump(bf.residue_green(model, e))
    print(f"  {label:12s} jump =\n{np.round(j.real, 12)}")
