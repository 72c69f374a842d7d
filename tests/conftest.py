import numpy as np
import pytest

import bicforge as bf
from bicforge import solver

GAMMA, NU, MU = 0.5, 0.7, 1.0
Q_REAL = 2.0632495726496685        # real pole magnitude at the embedded energy


@pytest.fixture(scope="session")
def e_bic() -> float:
    return bf.e_bic_analytic(GAMMA, NU, MU)


@pytest.fixture(scope="session")
def soc() -> bf.BandModel:
    return bf.soc_model(gamma=GAMMA, mu=MU)


@pytest.fixture(scope="session")
def socbic_pot() -> bf.SocBic:
    return bf.SocBic(gamma=GAMMA, nu=NU)


@pytest.fixture(scope="session")
def grid_30_2048() -> bf.Grid:
    return bf.Grid.symmetric(30.0, 2048)


@pytest.fixture(scope="session")
def grid_30_4096() -> bf.Grid:
    return bf.Grid.symmetric(30.0, 4096)


@pytest.fixture(scope="session")
def mesh_of():
    """(kernels, grid) of the energy mesh find_energy probes for a model,
    main grid, window and mesh size: its kernel batch and the grid it
    derives from that batch."""
    def derive(model, grid, lo, hi, mesh_points):
        return solver._mesh_kernels(model, np.linspace(lo, hi, mesh_points), grid)
    return derive


@pytest.fixture(scope="session")
def bic_state_2048(soc, socbic_pot, grid_30_2048):
    """Solved embedded state at n=2048 (energy refined on the same grid)."""
    reps = bf.find_energy(soc, grid_30_2048, socbic_pot, 0.67, 0.71, mesh_points=5)
    return reps[0]


@pytest.fixture(scope="session")
def bic_state_4096(soc, socbic_pot, grid_30_4096):
    reps = bf.find_energy(soc, grid_30_4096, socbic_pot, 0.67, 0.71, mesh_points=5)
    return reps[0]


@pytest.fixture(scope="session")
def quasi_state_2049():
    """Sampled closed-form quasi-BIC of the single-channel delta (mu=0, g=1,
    lam=-1) on a zero-containing grid."""
    sol = bf.two_band_solution(0.0, 1.0, -1.0, 1.0)
    grid = bf.Grid.symmetric(40.0, 2049)
    return sol, sol.field_on(grid)
