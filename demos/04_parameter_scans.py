#!/usr/bin/env python3
"""Parameter scans: locating exact-BIC loci inside a potential family.

Rescaling the designed well detunes the Fourier-component cancellation, so
the residual has a sharp minimum at scale 1 -- the exact-BIC locus. Sweeping
the well width nu instead keeps the design intact: every admissible width
hosts its own embedded state.
"""
import numpy as np

import bicforge as bf

gamma, nu, mu = 0.5, 0.7, 1.0
model = bf.soc_model(gamma=gamma, mu=mu)
grid = bf.Grid.symmetric(30.0, 1024)
scan_grid = bf.Grid.symmetric(30.0, 512)

print("=== scale sweep around the designed well ===")
table = bf.scan_parameter(
    lambda v: model,
    lambda v: bf.Scaled(bf.SocBic(gamma, nu), v),
    "scale", 0.85, 1.15, 13,
    grid=grid, e_window=(0.45, 0.9), scan_grid=scan_grid,
    mesh_points=12)
print(table.to_csv())
print("candidate exact-BIC loci (residual minima):",
      [table.rows[i].param for i in table.minima])

print("=== width sweep: the family hosts an embedded state at every nu ===")
table = bf.scan_parameter(
    lambda v: model,
    lambda v: bf.SocBic(gamma, v),
    "nu", 0.45, 0.85, 9,
    grid=bf.Grid.symmetric(30.0, 2048),
    e_window=lambda v: (bf.e_bic_analytic(gamma, v, mu) - 0.05,
                        bf.e_bic_analytic(gamma, v, mu) + 0.05),
    scan_grid=scan_grid, mesh_points=7)
print(table.to_csv())
