"""Self-consistent bound-state solver psi = Int G_E(x-x') U(x') psi(x') dx'.

The coupling U(x) = sum_k V_k(x) B_k comes from potentials.coupling_terms:
one term V(x) B for a single potential spec, one channel projector per
entry for a per-channel list. Discretized on a uniform grid with trapezoid
weights, the right-hand side becomes a dense (nN x nN) map M(E); solutions
are fixed points, found by tracking the eigenvalue of M(E) nearest 1 and
root-finding its crossing of 1 as the energy sweeps the mixed-pole window.
That eigenvalue's real part also jumps across 1 where the selection switches
from one branch to another; find_energy tells the two apart by counting the
eigenvalues with Re > 1 at each mesh point and refines only brackets where
the count changes or is unknown (see find_energy for the limitation).

M has block Toeplitz structure (the kernel depends on x_i - x_j only), so
the solver applies it through FFT convolutions instead of materializing the
matrix; assemble_map builds the explicit dense matrix for inspection and
cross-checks. Both paths share the same kernel samples and weights.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.fft import fft, ifft, next_fast_len
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigs

from .errors import GridTooCoarse, NoNearUnitEigenvalue, NoSolutionInRange
from .green import GreenKernel, residue_green
from .grids import Grid, SpinorField
from .models import BandModel
from .potentials import PotentialSpec, coupling_terms, decay_scale, sample_potential

MAX_PHASE_STEP = 0.3          # dx * p_real above this cannot resolve the sine
ACCEPT_EIG_DISTANCE = 0.5     # |lambda - 1| beyond this is "no solution here"
RESIDUAL_LIMIT = 1e-6


@dataclass(frozen=True)
class SolveReport:
    """One accepted fixed point of the discretized map."""

    energy: float
    operator_eigenvalue: complex
    state: SpinorField
    fixed_point_residual: float


def _source_factors(grid: Grid, terms: list, n_bands: int) -> np.ndarray:
    """Per-site matrix factors F_j = sum_k V_k(x_j) w_j B_k."""
    w = grid.weights
    f = np.zeros((grid.n_points, n_bands, n_bands), dtype=complex)
    for spec, bk in terms:
        f += (sample_potential(spec, grid) * w)[:, None, None] * bk
    return f


def _kernel_checked(model: BandModel, energy: float, grid: Grid) -> GreenKernel:
    kernel = residue_green(model, energy)
    ps = np.abs(kernel.real_momenta)
    if ps.size and grid.dx * ps.max() > MAX_PHASE_STEP:
        raise GridTooCoarse(
            f"dx*p = {grid.dx * ps.max():.3g} rad/step exceeds {MAX_PHASE_STEP}")
    return kernel


def _coverage_warning(grid: Grid, kernel: GreenKernel, terms: list) -> None:
    rates = [decay_scale(spec) for spec, _ in terms]
    rates.append(kernel.decay_rate)
    slowest = min(rates)
    if np.isfinite(slowest) and grid.x_max * slowest < 10.0:
        warnings.warn(
            f"grid half-width {grid.x_max:g} is under 10 decay lengths (rate {slowest:g})",
            stacklevel=3)


def _kernel_samples(kernel: GreenKernel, grid: Grid) -> np.ndarray:
    """Kernel matrices at all separations, index d = i - j + (n-1)."""
    n = grid.n_points
    diffs = grid.dx * np.arange(-(n - 1), n)
    return kernel.evaluate(diffs)


def assemble_map(model: BandModel, energy: float, grid: Grid,
                 potential: PotentialSpec | Sequence) -> np.ndarray:
    """Dense (nN x nN) matrix of the discretized self-consistency map.

    Memory grows as (nN)^2 complex; solve_state and find_energy apply the
    same map matrix-free and scale to much larger grids.
    """
    kernel = _kernel_checked(model, energy, grid)
    terms = coupling_terms(potential, model.b)
    _coverage_warning(grid, kernel, terms)
    n, nb = grid.n_points, model.n_bands
    samples = _kernel_samples(kernel, grid)
    factors = _source_factors(grid, terms, nb)
    idx = np.arange(n)[:, None] - np.arange(n)[None, :] + (n - 1)
    blocks = np.einsum("ijab,jbc->iajc", samples[idx], factors)
    return blocks.reshape(n * nb, n * nb)


class _ConvMap(LinearOperator):
    """Matrix-free application of the map via FFT convolution."""

    def __init__(self, model: BandModel, energy: float, grid: Grid,
                 potential: PotentialSpec | Sequence):
        self.grid = grid
        self.n_bands = model.n_bands
        n = grid.n_points
        kernel = _kernel_checked(model, energy, grid)
        terms = coupling_terms(potential, model.b)
        _coverage_warning(grid, kernel, terms)
        self.kernel = kernel
        self.factors = _source_factors(grid, terms, model.n_bands)
        self.support = np.flatnonzero(np.abs(self.factors).max(axis=(1, 2)) > 0)
        self._fft_len = next_fast_len(2 * n - 1)
        dim = n * model.n_bands
        super().__init__(dtype=complex, shape=(dim, dim))

    @cached_property
    def _kf(self) -> np.ndarray:
        """FFT of the kernel samples, taken at the first convolution: the
        support-matrix path probes the mesh without convolving at all."""
        return fft(_kernel_samples(self.kernel, self.grid), n=self._fft_len, axis=0)

    def _convolve(self, u: np.ndarray) -> np.ndarray:
        """Sum_j K(x_i - x_j) u_j for a per-site source u of shape (n, N)."""
        n = self.grid.n_points
        uf = fft(u, n=self._fft_len, axis=0)
        yf = np.einsum("dab,db->da", self._kf, uf)
        return ifft(yf, axis=0)[n - 1:2 * n - 1]

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        n, nb = self.grid.n_points, self.n_bands
        u = np.einsum("jbc,jc->jb", self.factors, v.reshape(n, nb))
        return self._convolve(u).reshape(n * nb)

    @property
    def is_null(self) -> bool:
        return self.support.size == 0

    def support_matrix(self) -> np.ndarray:
        """Map restricted to the potential support.

        The nonzero spectrum of the full map equals that of
        T[(j,a),(j',b)] = [F_j K(x_j - x_j')]_{ab} over support sites j, j';
        for compact potentials (a handful of delta sites) this is a tiny
        dense eigenproblem instead of an Arnoldi iteration.
        """
        xs = self.grid.x[self.support]
        ks = self.kernel.evaluate((xs[:, None] - xs[None, :]).reshape(-1))
        ks = ks.reshape(len(xs), len(xs), self.n_bands, self.n_bands)
        t = np.einsum("jab,jpbc->japc", self.factors[self.support], ks)
        m = len(xs) * self.n_bands
        return t.reshape(m, m)

    def lift_support_vector(self, u_small: np.ndarray, lam: complex) -> np.ndarray:
        """Full-grid eigenvector from its potential-support restriction."""
        n, nb = self.grid.n_points, self.n_bands
        u = np.zeros((n, nb), dtype=complex)
        u[self.support] = u_small.reshape(len(self.support), nb)
        return (self._convolve(u) / lam).reshape(n * nb)


# Potential support (sites x channels) small enough for a direct dense eig.
DIRECT_SUPPORT_LIMIT = 512


def _eigs_near_one(op: _ConvMap, k: int, want_vectors: bool):
    """Eigenvalue of the map nearest 1 (searched among the k largest)."""
    lam, vec, _ = _near_one(op, k, want_vectors)
    return lam, vec


def _near_one(op: _ConvMap, k: int, want_vectors: bool):
    """Eigenvalue nearest 1, its eigenvector (None unless asked for), and the
    number of eigenvalues with Re(lambda) > 1, or None where it is unknown.

    Re(lambda) > 1 implies |lambda| > 1, so the count is exact whenever the
    computed set holds every eigenvalue of modulus above 1: on the direct
    support-matrix path, which returns the whole nonzero spectrum, and after
    a converged Arnoldi run whose smallest returned |lambda| is below 1. A
    partial set from a non-converged run leaves it unknown.
    """
    dim = op.shape[0]
    if op.is_null:
        return 0.0 + 0.0j, (np.zeros(dim, dtype=complex) if want_vectors else None), 0
    direct = op.support.size * op.n_bands <= DIRECT_SUPPORT_LIMIT
    if direct:
        t = op.support_matrix()
        if want_vectors:
            vals, vecs = np.linalg.eig(t)
        else:
            vals, vecs = np.linalg.eigvals(t), None
        complete = True
    else:
        k = min(k, dim - 2)
        v0 = np.full(dim, 1.0 / np.sqrt(dim))  # deterministic Arnoldi start
        try:
            if want_vectors:
                vals, vecs = eigs(op, k=k, which="LM", v0=v0, tol=1e-11)
            else:
                vals = eigs(op, k=k, which="LM", v0=v0, tol=1e-11,
                            return_eigenvectors=False)
                vecs = None
            complete = bool(np.abs(vals).min() < 1.0)
        except ArpackNoConvergence as exc:
            vals = exc.eigenvalues
            vecs = exc.eigenvectors if want_vectors else None
            if vals is None or len(vals) == 0:
                raise NoNearUnitEigenvalue("Arnoldi iteration found no eigenvalues") from exc
            complete = False
    best = int(np.argmin(np.abs(vals - 1.0)))
    lam = complex(vals[best])
    vec = vecs[:, best] if vecs is not None else None
    if direct and vec is not None:
        vec = np.zeros(dim, dtype=complex) if lam == 0.0 else op.lift_support_vector(vec, lam)
    above = int(np.count_nonzero(vals.real > 1.0)) if complete else None
    return lam, vec, above


def _fix_phase(values: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest component is real positive,
    then scale so the peak channel amplitude is 1."""
    imax = np.unravel_index(int(np.argmax(np.abs(values))), values.shape)
    peak = values[imax]
    return values / peak if abs(peak) else values


def solve_state(model: BandModel, energy: float, grid: Grid,
                potential: PotentialSpec | Sequence, *, k: int = 16) -> SolveReport:
    """Eigenvector of the map for the eigenvalue nearest 1.

    The state is rescaled so its peak channel amplitude is 1 and its global
    phase makes the peak real; fixed_point_residual = |psi - M psi|/|psi|.
    """
    op = _ConvMap(model, energy, grid, potential)
    lam, vec = _eigs_near_one(op, k, want_vectors=True)
    if abs(lam - 1.0) > ACCEPT_EIG_DISTANCE:
        raise NoNearUnitEigenvalue(
            f"nearest map eigenvalue {lam:.6g} is {abs(lam - 1):.3g} away from 1",
            distance=abs(lam - 1.0))
    values = _fix_phase(vec.reshape(grid.n_points, model.n_bands))
    resid = np.linalg.norm(op.matvec(values.reshape(-1)) - values.reshape(-1))
    resid /= np.linalg.norm(values)
    return SolveReport(energy=float(energy), operator_eigenvalue=lam,
                       state=SpinorField(grid=grid, values=values),
                       fixed_point_residual=float(resid))


def _branch_value(model: BandModel, energy: float, grid: Grid,
                  potential, k: int) -> tuple[complex, int | None]:
    """Eigenvalue nearest 1 and the count of eigenvalues with Re > 1 (or None)."""
    op = _ConvMap(model, energy, grid, potential)
    lam, _, above = _near_one(op, k, want_vectors=False)
    return lam, above


def _plural(n: int, noun: str, plural: str) -> str:
    return f"{n} {noun if n == 1 else plural}"


def find_energy(model: BandModel, grid: Grid, potential: PotentialSpec | Sequence,
                e_lo: float, e_hi: float, *, mesh_points: int = 200,
                scan_grid: Grid | None = None, k: int = 12,
                refine_tol: float = 1e-9) -> list[SolveReport]:
    """Scan [e_lo, e_hi], bracket crossings of Re(eigenvalue) = 1, refine.

    The mesh phase may run on a coarser scan_grid; refinement always runs
    on the main grid. Returns every converged solution, ordered by energy;
    solutions within refine_tol of each other are one root, reported once.

    The tracked eigenvalue is the one nearest 1, so its Re - 1 also changes
    sign where the selection jumps from one branch to another without any
    eigenvalue reaching 1. A bracket is therefore skipped, before any
    fine-grid eigensolve, when the number of eigenvalues with Re > 1 is
    known at both mesh ends and equal; a real crossing changes it by one.
    Where either count is unknown the bracket is refined. Limitation: two
    eigenvalues crossing 1 in opposite directions inside one mesh interval
    leave the count unchanged, and that interval is skipped.

    NoSolutionInRange names what became of every bracket.
    """
    if not e_hi > e_lo:
        raise ValueError("need e_hi > e_lo")
    if mesh_points < 2:
        raise ValueError(f"need mesh_points >= 2, got {mesh_points}")
    mesh_grid = scan_grid or grid
    energies = np.linspace(e_lo, e_hi, mesh_points)

    def probe(e: float) -> tuple[float, int | None]:
        try:
            lam, above = _branch_value(model, e, mesh_grid, potential, k)
        except (ArpackError, NoNearUnitEigenvalue):
            return float("nan"), None
        return float(lam.real) - 1.0, above

    h, above = zip(*[probe(e) for e in energies])

    def fine(e: float) -> float:
        return float(_branch_value(model, e, grid, potential, k)[0].real) - 1.0

    reports = []
    brackets = switches = stalls = high_residual = 0
    rejected = []
    for i in range(len(energies) - 1):
        ha, hb = h[i], h[i + 1]
        if np.isnan(ha) or np.isnan(hb) or ha * hb > 0 or (ha == 0 and hb == 0):
            continue
        brackets += 1
        if above[i] is not None and above[i] == above[i + 1]:
            switches += 1
            continue
        ea, eb = float(energies[i]), float(energies[i + 1])
        fa, fb = (ha, hb) if mesh_grid is grid else (fine(ea), fine(eb))
        converged = False
        for _ in range(80):
            if fb == fa:
                break
            e_new = eb - fb * (eb - ea) / (fb - fa)
            lo, hi = min(ea, eb), max(ea, eb)
            if not (lo - abs(hi - lo) <= e_new <= hi + abs(hi - lo)):
                e_new = 0.5 * (ea + eb)  # secant left the bracket; bisect
            if abs(e_new - eb) < refine_tol:
                eb = e_new
                converged = True
                break
            ea, fa = eb, fb
            eb, fb = e_new, fine(e_new)
        if not converged and abs(fb) > RESIDUAL_LIMIT:
            stalls += 1
            continue
        try:
            rep = solve_state(model, eb, grid, potential, k=max(k, 16))
        except NoNearUnitEigenvalue as exc:
            rejected.append(exc.distance)
            continue
        if rep.fixed_point_residual < RESIDUAL_LIMIT:
            reports.append(rep)
        else:
            high_residual += 1
    if not reports:
        parts = [_plural(brackets, "sign change", "sign changes")]
        if switches:
            parts.append(_plural(switches, "branch switch", "branch switches"))
        if stalls:
            parts.append(_plural(stalls, "secant stall", "secant stalls"))
        if rejected:
            dists = ", ".join("?" if d is None else f"{d:.3g}" for d in rejected)
            parts.append(f"{len(rejected)} rejected by solve_state (|lambda - 1| = {dists})")
        if high_residual:
            parts.append(f"{high_residual} with residual >= {RESIDUAL_LIMIT:g}")
        raise NoSolutionInRange(f"no fixed point in ({e_lo:g}, {e_hi:g}): "
                                + ", ".join(parts))
    reports.sort(key=lambda r: r.energy)
    # a mesh point that lands on a root closes both adjacent brackets on it
    merged = reports[:1]
    for rep in reports[1:]:
        if rep.energy - merged[-1].energy >= refine_tol:
            merged.append(rep)
    return merged
