"""bicforge: bound states in the continuum for 1D multiband Hamiltonians.

Library layers:
  models/spectral  -- band models, dispersion poles, region classification
  delta            -- closed-form solutions for point couplings
  green            -- residue-calculus Green kernels + closed-form cross-checks
  solver           -- integral-equation fixed-point solver on a grid
  criterion        -- Fourier-component test, tail metrics, verdicts, scans
  oracle           -- brute-force finite-difference diagonalization
"""

from .models import (BandModel, general_b_model, load_model, save_model,
                     sigma_x, sigma_y, sigma_z, single_band_model, soc_model,
                     two_band_model)
from .spectral import (EnergyRegion, PoleLabel, PoleSet, RegionTag,
                       classify_region, dispersion_coeffs, poles, soc_poles)
from .delta import (DeltaSolution, bare_extended_mode, boundary_residual,
                    extended_green_1d, general_b_kappa, general_b_solution,
                    lambda_critical, single_band_bound, two_band_bound_energy,
                    two_band_solution)
from .green import (GreenKernel, KernelTerm, constantA_kernel,
                    derivative_jump, residue_green, soc_kernel)
from .grids import Grid, SpinorField
from .potentials import (Delta, PotentialSpec, Scaled, SocBic, Tabulated,
                         e_bic_analytic, load_tabulated, potential_soc_bic,
                         sample_potential)
from .solver import SolveReport, assemble_map, find_energy, solve_state
from .criterion import (BicReport, ScanRow, ScanTable, Verdict, classify,
                        fourier_line, fourier_residual, peak_fourier_norm,
                        scan_parameter, tail_metrics)
from .oracle import (FdHamiltonian, LocalizationMetrics, assemble, eigen_near,
                     localization, spectrum)

__version__ = "0.1.0"
