"""Brute-force oracle: sparse finite-difference diagonalization in a hard-wall box.

Independent of every solver in the package: 3-point Laplacian, central
first difference for the linear-in-p term (exactly Hermitian by
construction), Dirichlet walls. H is block-tridiagonal and stored sparse;
eigenpairs near a target come from one shift-invert Lanczos run (ARPACK).
Still size-capped; the point is trust, not scale. Hard walls (not
periodic) avoid momentum quantization accidentally coinciding with the
real poles.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
# eigh is unused here but stays bound: bench/tracer.py wraps oracle.eigh
from scipy.linalg import eigh, eigvalsh  # noqa: F401
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .errors import GridTooLarge, ModelError
from .grids import Grid, SpinorField
from .models import BandModel
from .potentials import PotentialSpec, coupling_terms, sample_potential

MAX_DENSE_DIM = 16384
MAX_K = 20


class SparseMatrix(sp.csr_array):
    """CSR array that reports its storage size, like ndarray.nbytes."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


@dataclass(frozen=True)
class FdHamiltonian:
    grid: Grid
    n_bands: int
    matrix: SparseMatrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def hermiticity_residual(self) -> float:
        return float(abs(self.matrix - self.matrix.conj().T).max())


@dataclass(frozen=True)
class LocalizationMetrics:
    ipr: float
    tail_mass: float


def assemble(model: BandModel, grid: Grid,
             potential: PotentialSpec | Sequence | None) -> FdHamiltonian:
    """Sparse block-tridiagonal Hermitian matrix of H on the grid.

    The potential enters the diagonal blocks as sum_k V_k(x) B_k (see
    potentials.coupling_terms); None leaves the free Hamiltonian.

    Raises GridTooLarge beyond MAX_DENSE_DIM rows, because spectrum() still
    densifies H (dim^2 memory), and ModelError where the kinetic scale
    1/(2m dx^2) is not finite or is 0, or where V(x) B is not finite.
    Real-valued models come back as float64.
    """
    n, nb = grid.n_points, model.n_bands
    dim = n * nb
    if dim > MAX_DENSE_DIM:
        raise GridTooLarge(f"oracle refuses {dim} > {MAX_DENSE_DIM} rows")
    dx = grid.dx
    m = model.mass
    scale = 2.0 * m * dx * dx
    kin = 1.0 / scale if scale else np.inf
    if not np.isfinite(kin) or kin == 0:
        fault = "overflows" if kin else "underflows to 0"
        raise ModelError(f"kinetic scale 1/(2m dx^2) {fault} at mass {m:g}, dx {dx:g}")
    eye = np.eye(nb)
    hop_up = -kin * eye + (-1j / (2.0 * dx)) * model.a1
    hop_dn = -kin * eye + (+1j / (2.0 * dx)) * model.a1

    diag = np.broadcast_to(2.0 * kin * eye + model.a0, (n, nb, nb)).astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for spec, bk in coupling_terms(potential, model.b):
            diag += sample_potential(spec, grid)[:, None, None] * bk
    if not np.isfinite(diag).all():
        raise ModelError("the potential coupling V(x) B overflows on the grid")

    # (3n-2, nb, nb) block stack: diagonal, upper and lower hopping blocks
    blocks = np.concatenate([diag, np.broadcast_to(hop_up, (n - 1, nb, nb)),
                             np.broadcast_to(hop_dn, (n - 1, nb, nb))])
    ii = np.arange(n)
    block_row = np.concatenate([ii, ii[:-1], ii[1:]])
    block_col = np.concatenate([ii, ii[1:], ii[:-1]])
    chan = np.arange(nb)
    rows = np.broadcast_to((nb * block_row)[:, None, None] + chan[:, None], blocks.shape)
    cols = np.broadcast_to((nb * block_col)[:, None, None] + chan, blocks.shape)
    data = blocks if blocks.imag.any() else blocks.real
    mat = SparseMatrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=(dim, dim))
    mat.eliminate_zeros()
    return FdHamiltonian(grid=grid, n_bands=nb, matrix=mat)


def spectrum(h: FdHamiltonian) -> np.ndarray:
    """All eigenvalues, ascending. Dense (dim^2 memory): small matrices only."""
    return eigvalsh(h.matrix.toarray())


def eigen_near(h: FdHamiltonian, e_target: float, k: int
               ) -> list[tuple[float, SpinorField]]:
    """k eigenpairs nearest e_target, eigenvectors normalized to unit norm^2.

    One shift-invert Lanczos run about e_target (sparse LU of H - e_target).
    The start vector is fixed so that repeated calls are bit-identical.
    Raises ModelError where a solve with that LU is not finite.
    """
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in 1..{MAX_K} (oracle stays small and checkable)")
    v0 = np.random.default_rng(0).standard_normal(h.dim)
    vals, vecs = eigsh(h.matrix, k=k, sigma=e_target, v0=v0, OPinv=_shift_invert(h, e_target))
    out = []
    for j in np.argsort(vals, kind="stable"):
        psi = vecs[:, j].reshape(h.grid.n_points, h.n_bands).astype(complex)
        nrm = np.sqrt(np.sum(np.abs(psi) ** 2) * h.grid.dx)
        psi /= nrm
        out.append((float(vals[j]), SpinorField(grid=h.grid, values=psi)))
    out.sort(key=lambda t: abs(t[0] - e_target))
    return out


def _shift_invert(h: FdHamiltonian, e_target: float) -> LinearOperator:
    """(H - e_target)^-1 from the sparse LU eigsh builds itself, with the
    same bits, whose solves raise ModelError where they are not finite.

    Far out, rounding in the LU leaves (H - e_target) near-singular: at
    two-band g = 1e300 and e_target = 1e300 the factors are finite but a
    solve overflows to inf and NaN, and ARPACK fails on it after LAPACK has
    printed to stdout. Which Lanczos vector overflows first is not known
    before the run (at g = 3.16e161 the start vector's solve is finite and
    the third is NaN), so every solve is checked as ARPACK asks for it.
    """
    shifted = h.matrix - e_target * sp.eye(h.dim)
    real = not np.issubdtype(shifted.dtype, np.complexfloating)
    lu = splu(shifted.T if real else shifted.tocsc())  # csr^T is csc; H is symmetric

    def solve(x):
        y = lu.solve(np.asarray(x).astype(shifted.dtype))
        if not np.isfinite(y).all():
            raise ModelError(f"the shift-invert factorisation of H - {e_target:g} overflows")
        return y

    return LinearOperator(shifted.shape, matvec=solve, dtype=shifted.dtype)


def localization(state: SpinorField, x_cut: float) -> LocalizationMetrics:
    """Inverse participation ratio and the norm fraction beyond |x| > x_cut."""
    grid = state.grid
    if not (0 <= x_cut <= grid.x_max):
        raise ValueError("x_cut must lie within the grid")
    dens = state.density
    dx = grid.dx
    total = float(np.sum(dens) * dx)
    ipr = float(np.sum(dens ** 2) * dx / total ** 2)
    outside = np.abs(grid.x) > x_cut
    tail = float(np.sum(dens[outside]) * dx / total)
    return LocalizationMetrics(ipr=ipr, tail_mass=tail)
