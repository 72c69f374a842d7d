"""Self-consistent bound-state solver psi = Int G_E(x-x') U(x') psi(x') dx'.

The coupling U(x) = sum_k V_k(x) B_k comes from potentials.coupling_terms:
one term V(x) B for a single potential spec, one channel projector per
entry for a per-channel list. Discretized on a uniform grid with trapezoid
weights, the right-hand side becomes a dense (nN x nN) map M(E) = K F, K
the block Toeplitz kernel and F the block diagonal of the per-site factors
F_j = sum_k V_k(x_j) w_j B_k; solutions are fixed points, found by tracking
the eigenvalue of M(E) nearest 1 and root-finding its crossing of 1 as the
energy sweeps the mixed-pole window. That eigenvalue's real part also jumps
across 1 where the selection switches from one branch to another;
find_energy tells the two apart by counting the eigenvalues with Re > 1 at
each mesh point and refines only brackets where the count changes or is
unknown (see find_energy for the limitation).

The potential reaches only its support sites S, and there only the channels
R where the F_j have nonzero rows and C where they have nonzero columns;
with psi_j = F_j[R, C], M factors as A B with B v = psi_j v_j[C] on S and
A = K[:, R] applied to a source on S x R. Because spec(AB) and spec(BA)
agree away from 0, every eigensolve runs on the coupled subspace S x R,
where BA acts as u -> psi_j sum_j' K[C, R](x_j - x_j') u_j' through one FFT
convolution across the support's span (_ConvMap). One full-grid convolution
with K[:, R], the lift, gives back both the eigenvector v = A w / lambda of
an eigenvector w of BA and the full map M v = A (B v) for the residual. A
dense B keeps R = C = every channel and S every site where V is nonzero.

Each Arnoldi eigensolve first asks for the 3 eigenvalues of largest
modulus. That set certifies the answer when its eigenvalue nearest 1 lies
closer than 1 - m, m being its smallest modulus (so m < 1): every eigenvalue
not returned has modulus at most m, so it is farther from 1 and has Re < 1.
Otherwise the solve reruns with MESH_K eigenvalues on the energy mesh and in
the secant steps, or STATE_K for the final state. A small support takes the
direct path instead: the dense form of the same operator (support_matrix).
On the mesh that first pass is one lockstep batch over the mesh energies
(_solve_mesh_arnoldi, below); everywhere else, and for every mesh energy
the batch leaves, it is one ARPACK call.

ARPACK, and the mesh batch, run with every OpenBLAS thread pool in the
process at one thread (_serial_blas), and each pool gets its count back
afterwards. A solve at k=3 and n = 1024-4096 takes about 21 matvecs from
the flat start and 9-16 from a warm one (see below), and the BLAS vector
work between them is too small to split. On 2 vCPUs one eigs(k=3) took as long
either way (3.0-3.9 ms at n=1024, 8.2-12.6 ms at 4096), but threaded it
used twice its wall time in CPU: the pool's worker spins on the second CPU.
Two processes that each ran six bench `arnoldi` rounds at once took 44 s
each, against 5 s for one alone; on one thread they took 3.9 s each. The
scope leaves the caller's own BLAS work, and the direct path's dense eig,
as they are.

The mesh only chooses the brackets that refinement, always on the main
grid, solves. So find_energy probes the mesh on the coarsest grid that
resolves the real poles of its own kernel batch (_resolving_grid). A
probe's cost grows with its grid: the spin-orbit wells of bench/ take 512
points at n = 2048 and 4096, and its delta models 512-587 at n = 2049.

Refinement starts where the mesh already is (_mesh_seed): at the root
inside the bracket of the cubic through up to four mesh values about it,
with a Newton step on that cubic's slope, then secant steps. A step that
leaves the mesh bracket widened by one mesh step, and cut to the energy
window, bisects instead, so no probe and no root lies outside the window;
a guard on the last two points, which may lie 1e-8 apart, would bisect
forever.
The start and the slope are rounded to 20 bits, so that the last bits of
the mesh values (a shared mesh row reads s * lambda_base, a row alone
lambda(s V)) never reach the fine solve. In the README's 41-row scale
scan a bracket takes 3.3 fine eigensolves on average, where starting from
both of its ends took 6.1, and the scan makes 239 ARPACK calls, not 420.

The fine probes of one bracket lie at most a mesh step apart, most far
closer, so each hands its Ritz vectors to the next (eigenvector
continuation). The bracket's first probe starts ARPACK flat; every later
secant probe, and the bracket's solve_state, starts its first pass from
the normalised sum of the previous probe's FIRST_PASS_K Ritz vectors on a
factorization of WARM_NCV vectors, not ARPACK's default 20. A warm pass
that fails to converge or to certify reruns flat, as any first pass does.
The 41-row scan's fine eigs calls took 3,413 matvecs, not 5,019, with a
byte-identical CSV. Mesh probes keep the flat start: a warm chain along
the mesh would save a further 9% of its matvecs but move its values' bits.

At strength s the map of Scaled(base, s) is s times the map of base, so its
spectrum is s times base's. Inside a shared_mesh block (every
criterion.scan_parameter call), find_energy calls share their mesh probes
when they have the same model object, an equal hashable base, an equal
window, mesh size and mesh grid, and s != 0: each mesh energy builds one
operator of base, solves each eigenvalue set it is asked for once, and
every call reads it times s. Calls with the same model and window derive
the same mesh grid. Secant steps and solve_state run on the call's own
operator, so every result keeps its bits.

The mesh is built as one batch (_mesh_branch_values): one
residue_green_many gives the kernels of every mesh energy (_mesh_kernels);
on the direct path one evaluate_many gives their tables, and stacked
eigvals calls their eigenvalues (_solve_direct), each energy with the bits
of its own probe. On the Arnoldi path the first passes run as one lockstep
Arnoldi over the mesh energies (_solve_mesh_arnoldi): on the 512-point mesh
grid ARPACK's fixed cost per call is most of a probe's cost, and the batch
shares every step. An energy the batch does not converge runs ARPACK as
before. A failing mesh raises before it builds an operator, with the error
that probing one energy at a time would meet first (_mesh_kernels).
Secant steps and solve_state build one kernel at a time.

Grid coverage is recorded where a result reads something that decays
(grids.warns_coverage_once). An eigenvalue read (_near_one) records the
potential's decay: the map on the support reads the kernel at support
separations only, so a mesh eigenvalue does not move with the half-width
at equal dx. An operator read again, a shared mesh operator included,
counts again; an operator without support, the zero map, records none.
The kernel's own rate is recorded where a state's tail past the grid
matters: where a state is lifted to the full grid (_solve_state, so
solve_state and every root find_energy returns), by criterion.classify,
which fits the tail, and by assemble_map, whose matrix maps full-grid
states.

Every form of the map reads one table of kernel samples, K at the grid
separations dx*d (_kernel_samples): the dense support_matrix and the FFT
matvec over the support's span, the lift over the full grid, and
assemble_map, the explicit dense (nN x nN) matrix for inspection and
cross-checks.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import numpy.polynomial.polynomial as npoly
from scipy.fft import fft, ifft, next_fast_len
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigs

from .errors import (DegeneratePoles, GridTooCoarse, ModelError, NoNearUnitEigenvalue,
                     NoSolutionInRange)
from .green import GreenKernel, evaluate_many, residue_green, residue_green_many
from .grids import Grid, SpinorField, record_coverage, warns_coverage_once
from .models import BandModel
from .potentials import PotentialSpec, Scaled, coupling_terms, decay_scale, sample_potential

MAX_PHASE_STEP = 0.3          # dx * p_real above this cannot resolve the sine
MESH_MIN_POINTS = 512         # fewest points of the mesh grid find_energy sizes itself
ACCEPT_EIG_DISTANCE = 0.5     # |lambda - 1| beyond this is "no solution here"
RESIDUAL_LIMIT = 1e-6
MESH_K = 12                   # Arnoldi fallback k for mesh probes and secant steps
STATE_K = 16                  # Arnoldi fallback k for the accepted state
REFINE_TOL = 1e-9             # secant step that ends refinement; roots closer are one


@dataclass(frozen=True)
class SolveReport:
    """One accepted fixed point of the discretized map."""

    energy: float
    operator_eigenvalue: complex
    state: SpinorField
    fixed_point_residual: float


@dataclass(frozen=True)
class _Coupling:
    """The energy-independent half of the map on one grid: the slowest decay
    rate of the coupling terms (V_k, B_k), the per-site factors F_j = sum_k
    V_k(x_j) w_j B_k, the support (the sites where F_j is nonzero), the
    channels rows (R) and cols (C) where the F_j have nonzero rows and
    columns, and psi_j = F_j[R, C] on the support. find_energy builds one
    per grid and hands it to every mesh and secant operator on that grid."""

    decay: float
    factors: np.ndarray
    support: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    psi: np.ndarray


def _coupling(model: BandModel, grid: Grid, potential: PotentialSpec | Sequence) -> _Coupling:
    terms = coupling_terms(potential, model.b)
    w = grid.weights
    f = np.zeros((grid.n_points, model.n_bands, model.n_bands), dtype=complex)
    # an overflow shows as a non-finite squared norm, refused below, where the
    # Arnoldi start vector's norm would overflow. A ufunc sum, not
    # np.linalg.norm: its BLAS dot over this many entries wakes OpenBLAS
    # threads that then spin against the solver's own work
    with np.errstate(over="ignore", invalid="ignore"):
        for spec, bk in terms:
            f += (sample_potential(spec, grid) * w)[:, None, None] * bk
        mag = np.abs(f)
        if not np.isfinite(np.sum(mag ** 2)):
            raise ModelError("the potential coupling V(x) B has no finite norm on the grid")
    nonzero = mag > 0
    support = np.flatnonzero(nonzero.any(axis=(1, 2)))
    rows = np.flatnonzero(nonzero.any(axis=(0, 2)))
    cols = np.flatnonzero(nonzero.any(axis=(0, 1)))
    decay = min([decay_scale(spec) for spec, _ in terms], default=float("inf"))
    return _Coupling(decay, f, support, rows, cols, f[np.ix_(support, rows, cols)])


def _check_grid(kernel: GreenKernel, grid: Grid) -> GreenKernel:
    ps = np.abs(kernel.real_momenta)
    if ps.size and grid.dx * ps.max() > MAX_PHASE_STEP:
        raise GridTooCoarse(
            f"dx*p = {grid.dx * ps.max():.3g} rad/step exceeds {MAX_PHASE_STEP}")
    return kernel


def _kernel_samples(kernels: list[GreenKernel], n: int, dx: float, rows=None,
                    cols=None) -> np.ndarray:
    """Each kernel's blocks at the separations of n sites, index
    d = i - j + (n-1) on the second axis."""
    return evaluate_many(kernels, dx * np.arange(-(n - 1), n), rows, cols)


def _convolve(kf: np.ndarray, m: int, sites: np.ndarray | slice, u: np.ndarray) -> np.ndarray:
    """Sum_j K(x_i - x_j) u_j at all i of a range of m sites, shape
    (..., C, m), for sources u of shape (..., channels, len(sites)) at the
    given offsets into that range; kf (..., C, channels, separation) is
    _sample_fft on m sites. Leading axes are a batch of kernels."""
    src = np.zeros(u.shape[:-1] + kf.shape[-1:], dtype=complex)
    src[..., sites] = u
    uf = fft(src, axis=-1, overwrite_x=True)
    yf = np.einsum("...abd,...bd->...ad", kf, uf)
    return ifft(yf, axis=-1, overwrite_x=True)[..., m - 1:2 * m - 1]


def _sample_fft(kernels: list[GreenKernel], n: int, dx: float, rows=None,
                cols=None) -> np.ndarray:
    """The FFT of each kernel's _kernel_samples on n sites, index (kernel,
    C, R, separation), each transform contiguous."""
    samples = _kernel_samples(kernels, n, dx, rows, cols)
    return fft(np.ascontiguousarray(samples.transpose(0, 2, 3, 1)),
               n=next_fast_len(2 * n - 1), axis=-1)


@warns_coverage_once
def assemble_map(model: BandModel, energy: float, grid: Grid,
                 potential: PotentialSpec | Sequence) -> np.ndarray:
    """Dense (nN x nN) matrix of the discretized self-consistency map.

    Memory grows as (nN)^2 complex; solve_state and find_energy apply the
    same map matrix-free and scale to much larger grids.
    """
    kernel = _check_grid(residue_green(model, energy), grid)
    coupling = _coupling(model, grid, potential)
    record_coverage(grid, min(kernel.decay_rate, coupling.decay))
    n, nb = grid.n_points, model.n_bands
    samples = _kernel_samples([kernel], n, grid.dx)[0]
    idx = np.arange(n)[:, None] - np.arange(n)[None, :] + (n - 1)
    blocks = np.einsum("ijab,jbc->iajc", samples[idx], coupling.factors)
    return blocks.reshape(n * nb, n * nb)


class _ConvMap(LinearOperator):
    """The map at kernel's energy on its coupled subspace (support sites x R
    channels), u -> psi_j sum_j' K[C, R](x_j - x_j') u_j', applied by one FFT
    convolution across the span of the support; lift and full_matvec return
    to the full grid. GridTooCoarse where grid cannot resolve the kernel."""

    def __init__(self, kernel: GreenKernel, grid: Grid, coupling: _Coupling):
        self.grid = grid
        self.n_bands = kernel.n_bands
        self.kernel = _check_grid(kernel, grid)
        self.coupling = coupling
        self.support = coupling.support
        self.sets = {}  # eigenvalue sets solved on this operator, see _near_one
        dim = coupling.support.size * coupling.rows.size
        super().__init__(dtype=complex, shape=(dim, dim))

    @property
    def direct(self) -> bool:
        """Whether the eigenvalues come from the dense support_matrix: a
        coupled support (sites x channels) of at most DIRECT_SUPPORT_LIMIT."""
        return 0 < self.support.size * self.n_bands <= DIRECT_SUPPORT_LIMIT

    @cached_property
    def _at(self) -> np.ndarray | slice:
        """The support sites as offsets into their span: a slice where they
        fill it, so the matvec reads and writes them without fancy indexing."""
        if self.support.size == self._span:
            return slice(0, self._span)
        return self.support - self.support[0]

    @cached_property
    def _span(self) -> int:
        return int(self.support[-1] - self.support[0]) + 1

    @cached_property
    def _kf(self) -> np.ndarray:
        """FFT of K[C, R] across the support's span, taken at the first
        matvec: the direct path probes the mesh without convolving at all."""
        c = self.coupling
        return _sample_fft([self.kernel], self._span, self.grid.dx, c.cols, c.rows)[0]

    def _matvec(self, u: np.ndarray) -> np.ndarray:
        return self._apply(self._kf, u.reshape(-1))  # LinearOperator may pass a column

    def _apply(self, kf: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The matvec of u (..., sites x R) on the kernel transforms kf
        (..., C, R, separation): leading axes are a batch of energies."""
        y = _convolve(kf, self._span, self._at, self._source(u))
        w = np.einsum("jrc,...cj->...jr", self.coupling.psi, y[..., self._at])
        return w.reshape(u.shape)

    def _source(self, u: np.ndarray) -> np.ndarray:
        """Vectors on the coupled subspace, (..., sites x R), as _convolve's
        sources (..., R, sites)."""
        return np.swapaxes(u.reshape(u.shape[:-1] + (-1, self.coupling.rows.size)), -1, -2)

    def support_matrix(self, samples: np.ndarray | None = None) -> np.ndarray:
        """Dense form of this operator,
        T[(j,r),(j',s)] = [psi_j K[C, R](x_j - x_j')]_{rs} over support
        sites j, j', its blocks read from the kernel table across the
        support's span (samples, where _solve_direct built it already): for
        compact potentials (a handful of delta sites) a tiny dense
        eigenproblem instead of an Arnoldi iteration."""
        c, s = self.coupling, self.support
        if samples is None:
            samples = _kernel_samples([self.kernel], self._span, self.grid.dx, c.cols, c.rows)[0]
        ks = samples[s[:, None] - s[None, :] + (self._span - 1)]
        return np.einsum("jrc,jpcs->jrps", c.psi, ks).reshape(self.shape)

    def lift(self, w: np.ndarray) -> np.ndarray:
        """K[:, R] applied to a source w on the coupled subspace, on the full
        grid: lift(w) / lambda is the map's eigenvector for an eigenvector w
        of this operator, and lift of the restriction is the full map."""
        y = _convolve(self._lift_kf, self.grid.n_points, self.support, self._source(w))
        return y.T.reshape(-1)

    @cached_property
    def _lift_kf(self) -> np.ndarray:
        return _sample_fft([self.kernel], self.grid.n_points, self.grid.dx,
                           np.arange(self.n_bands), self.coupling.rows)[0]

    def full_matvec(self, v: np.ndarray) -> np.ndarray:
        """The full (nN) map applied to v: the lift of psi_j v_j[C]."""
        c = self.coupling
        vs = v.reshape(self.grid.n_points, self.n_bands)[np.ix_(self.support, c.cols)]
        return self.lift(np.einsum("jrc,jc->jr", c.psi, vs).reshape(-1))


# Potential support (sites x channels) small enough for a direct dense eig.
DIRECT_SUPPORT_LIMIT = 512


# Eigenvalues the first Arnoldi pass asks for: so few converge within
# ARPACK's default 20-vector factorization.
FIRST_PASS_K = 3
# Factorization size of a first pass that starts from the previous fine
# probe's Ritz vectors (see _near_one): such a start already lies near the
# answer, so it converges in about 12 matvecs where a flat one takes 21.
WARM_NCV = 8
ARNOLDI_TOL = 1e-11  # ARPACK's Ritz value tolerance, and the mesh batch's


@functools.cache
def _blas_pools() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS library loaded in
    this process, found once from /proc/self/maps: empty where that cannot
    be read or the BLAS is not OpenBLAS (MKL, Accelerate)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return ()
    pools = []
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(dll, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
                break
    return tuple(pools)


# The pools are process-wide, so solves running at once in several threads
# share one serial block: the first to enter saves each pool's thread count
# and sets it to 1, the last to leave restores it.
_BLAS_LOCK = threading.Lock()
_blas_users = 0
_blas_saved: tuple = ()


@contextlib.contextmanager
def _serial_blas():
    """Run the block with every OpenBLAS pool at one thread (see the module
    docstring); a no-op where _blas_pools finds none."""
    global _blas_users, _blas_saved
    pools = _blas_pools()
    with _BLAS_LOCK:
        if _blas_users == 0:
            _blas_saved = tuple(get() for get, _ in pools)
            for _, put in pools:
                put(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_users -= 1
            if _blas_users == 0:
                for (_, put), n in zip(pools, _blas_saved):
                    put(n)


def _flat_start(op: _ConvMap) -> np.ndarray:
    """The deterministic Arnoldi start: B applied to the full map's flat
    vector, so the Krylov spaces are B times the full map's; flat where B
    kills it."""
    v0 = op.coupling.psi.sum(axis=2).reshape(-1)
    norm = np.linalg.norm(v0)
    return v0 / norm if norm > 0 else np.full(op.shape[0], 1.0 / np.sqrt(op.shape[0]))


def _arnoldi(op: _ConvMap, k: int, want_vectors: bool, v0: np.ndarray | None = None):
    """The k eigenvalues of largest modulus, their eigenvectors if asked for
    (else None), and whether ARPACK converged: a run that did not returns
    the eigenvalues that did. Without v0 the run starts flat on ARPACK's
    default factorization; a warm start v0 takes WARM_NCV vectors. Each set
    is solved once and kept on op, so the rows that share a mesh operator
    share its sets; on a mesh operator _solve_mesh_arnoldi may have stored
    the flat FIRST_PASS_K set already."""
    key = (k, want_vectors, v0 is None)
    if key not in op.sets:
        ncv = None if v0 is None else min(WARM_NCV, op.shape[0])
        if v0 is None:
            v0 = _flat_start(op)
        try:
            with _serial_blas():
                out = eigs(op, k=k, which="LM", v0=v0, ncv=ncv, tol=ARNOLDI_TOL,
                           return_eigenvectors=want_vectors)
            op.sets[key] = (*out, True) if want_vectors else (out, None, True)
        except ArpackNoConvergence as exc:
            op.sets[key] = exc.eigenvalues, exc.eigenvectors if want_vectors else None, False
    return op.sets[key]


def _near_one(op: _ConvMap, k: int, want_vectors: bool, s: float = 1.0,
              chain: list | None = None):
    """Eigenvalue nearest 1 of s times op, its eigenvector on the coupled
    subspace (None unless asked for, or for lambda = 0), and the number of
    eigenvalues with Re(lambda) > 1, or None where it is unknown. The
    spectrum of s op is s times that of op; s = 1 reads op as it is.

    Re(lambda) > 1 implies |lambda| > 1, so the count is exact whenever the
    computed set holds every eigenvalue of modulus above 1: on the direct
    support-matrix path, which returns the whole nonzero spectrum, and after
    a converged Arnoldi run whose smallest returned |lambda| is below 1. A
    partial set from a non-converged run leaves it unknown. The direct path
    adds the full map's structural 0 to its candidates whenever the coupled
    subspace is smaller than support x channels, so a far nonzero spectrum
    still gives Re(lambda) - 1 = -1.

    Arnoldi first asks for FIRST_PASS_K eigenvalues and keeps them only when
    they certify the answer: the one nearest 1 lies closer than 1 - m, where
    m < 1 is their smallest modulus and 1 - m the least distance from 1 of
    any eigenvalue not returned, so the pick and the count are those of any
    larger k. Otherwise, or if that pass fails, it reruns with k from the
    flat start.

    chain carries a warm start from one fine probe of a find_energy bracket
    to the next: empty, the first pass starts flat; holding a vector, it
    starts there on WARM_NCV vectors (_arnoldi). A converged first pass
    leaves the normalised sum of its Ritz vectors in chain for the next
    probe. None, the default, starts flat and keeps nothing.
    """
    def scaled(vals):
        return vals if s == 1.0 or vals is None else s * vals

    dim = op.shape[0]
    if op.support.size == 0:  # a zero map reads no kernel
        return 0.0 + 0.0j, None, 0
    record_coverage(op.grid, op.coupling.decay)
    if op.direct:
        key = ("direct", want_vectors)
        if key not in op.sets:
            t = op.support_matrix()
            op.sets[key] = np.linalg.eig(t) if want_vectors else (np.linalg.eigvals(t), None)
        vals, vecs = op.sets[key]
        if op.support.size * op.n_bands > dim:
            vals = np.append(vals, 0.0)
        vals = scaled(vals)
        complete = True
    else:
        k = min(k, dim - 2)
        complete = False
        if FIRST_PASS_K < k:
            try:
                vals, vecs, converged = _arnoldi(
                    op, FIRST_PASS_K, want_vectors or chain is not None, chain[0] if chain else None)
                if chain is not None and converged:
                    start = vecs.sum(axis=1)
                    chain[:] = [start / np.linalg.norm(start)]
                vals = scaled(vals)
                complete = converged and bool(
                    np.abs(vals - 1.0).min() < 1.0 - np.abs(vals).min())
            except ArpackError:
                pass
        if not complete:
            vals, vecs, converged = _arnoldi(op, k, want_vectors)
            if vals is None or len(vals) == 0:
                raise NoNearUnitEigenvalue("Arnoldi iteration found no eigenvalues")
            vals = scaled(vals)
            complete = converged and bool(np.abs(vals).min() < 1.0)
    best = int(np.argmin(np.abs(vals - 1.0)))
    lam = complex(vals[best])
    vec = vecs[:, best] if vecs is not None and lam != 0.0 else None
    above = int(np.count_nonzero(vals.real > 1.0)) if complete else None
    return lam, vec, above


def _fix_phase(values: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest component is real positive,
    then scale so the peak channel amplitude is 1."""
    imax = np.unravel_index(int(np.argmax(np.abs(values))), values.shape)
    peak = values[imax]
    return values / peak if abs(peak) else values


@warns_coverage_once
def solve_state(model: BandModel, energy: float, grid: Grid,
                potential: PotentialSpec | Sequence) -> SolveReport:
    """Eigenvector of the map for the eigenvalue nearest 1.

    The state is rescaled so its peak channel amplitude is 1 and its global
    phase makes the peak real; fixed_point_residual = |psi - M psi|/|psi|.
    """
    return _solve_state(model, energy, grid, _coupling(model, grid, potential))


def _solve_state(model: BandModel, energy: float, grid: Grid, coupling: _Coupling,
                 chain: list | None = None) -> SolveReport:
    """solve_state on the grid's coupling, its first Arnoldi pass
    warm-started from a bracket's chain (see _near_one). The state's tail
    runs past the grid as its kernel decays, so that rate joins the coverage
    warning."""
    op = _ConvMap(residue_green(model, energy), grid, coupling)
    lam, w, _ = _near_one(op, STATE_K, True, chain=chain)
    if abs(lam - 1.0) > ACCEPT_EIG_DISTANCE:
        raise NoNearUnitEigenvalue(
            f"nearest map eigenvalue {lam:.6g} is {abs(lam - 1):.3g} away from 1",
            distance=abs(lam - 1.0))
    record_coverage(grid, op.kernel.decay_rate)
    values = _fix_phase((op.lift(w) / lam).reshape(grid.n_points, model.n_bands))
    resid = np.linalg.norm(op.full_matvec(values.reshape(-1)) - values.reshape(-1))
    resid /= np.linalg.norm(values)
    return SolveReport(energy=float(energy), operator_eigenvalue=lam,
                       state=SpinorField(grid=grid, values=values),
                       fixed_point_residual=float(resid))


def _branch_value(model: BandModel, energy: float, grid: Grid, coupling: _Coupling,
                  chain: list | None = None) -> tuple[complex, int | None]:
    """Eigenvalue nearest 1 and the count of eigenvalues with Re > 1 (or None);
    chain is a find_energy bracket's warm start (see _near_one)."""
    op = _ConvMap(residue_green(model, energy), grid, coupling)
    lam, _, above = _near_one(op, MESH_K, False, chain=chain)
    return lam, above


# mesh operators of unscaled potentials, shared by the rows of the
# shared_mesh block in flight
_MESH: ContextVar[dict | None] = ContextVar("mesh", default=None)


@contextlib.contextmanager
def shared_mesh():
    """Let the find_energy calls inside the block share their mesh probes
    (see the module docstring); the operators live until the block exits."""
    token = _MESH.set({})
    try:
        yield
    finally:
        _MESH.reset(token)


def _shared_ops(model: BandModel, grid: Grid, potential):
    """(coupling, mesh operators by energy, strength) of the unscaled base,
    shared by the calls of the shared_mesh block in flight, or None where
    the call shares nothing."""
    memo = _MESH.get()
    if memo is None or not isinstance(potential, Scaled) or potential.factor == 0:
        return None
    # the entry holds the model, so its id names no other object meanwhile
    key = (id(model), grid, potential.base)
    try:
        entry = memo.get(key)
    except TypeError:  # an unhashable base: a Tabulated table
        return None
    if entry is None:
        entry = memo[key] = model, _coupling(model, grid, potential.base), {}
    return (*entry[1:], potential.factor)


# Entries of the kernel tables or support matrices that one stacked
# direct-path step holds at most, and of the Krylov bases and kernel
# transforms of one chunk of the batched mesh Arnoldi.
STACK_ENTRIES = 1 << 16
# Arnoldi steps of the batched mesh first pass: ARPACK's default factorization
# size (ncv) at k = FIRST_PASS_K.
MESH_NCV = 20


def _solve_direct(ops: Iterable[_ConvMap]) -> None:
    """Fill the mesh eigenvalue set of each direct-path operator (all on one
    grid and coupling) from stacked kernel tables and eigvals calls."""
    ops = [op for op in ops if op.direct]
    if not ops:
        return
    span, dx, c = ops[0]._span, ops[0].grid.dx, ops[0].coupling
    entries = max(ops[0].shape[0] ** 2, (2 * span - 1) * c.rows.size * c.cols.size)
    step = max(1, STACK_ENTRIES // entries)
    for start in range(0, len(ops), step):
        chunk = ops[start:start + step]
        samples = _kernel_samples([op.kernel for op in chunk], span, dx, c.cols, c.rows)
        mats = np.array([op.support_matrix(table) for op, table in zip(chunk, samples)])
        for op, vals in zip(chunk, np.linalg.eigvals(mats)):
            op.sets[("direct", False)] = vals, None


def _solve_mesh_arnoldi(ops: Iterable[_ConvMap]) -> None:
    """Fill the flat first-pass set of each Arnoldi-path operator (all on one
    grid and coupling) that converges within MESH_NCV Arnoldi steps. Per
    chunk of at most STACK_ENTRIES entries of Krylov basis and kernel
    transform, the steps run from _arnoldi's flat start on every energy in
    lockstep: one stacked FFT convolution per step, classical Gram-Schmidt
    applied twice, one stacked eig of the Hessenberg matrices. An energy
    keeps its FIRST_PASS_K Ritz values of largest modulus where each passes
    ARPACK's test |beta_m e_m^T y| <= tol max(eps^(2/3), |theta|) at
    tol = ARNOLDI_TOL; one that does not, or reads a non-finite number, keeps
    nothing, and _near_one runs ARPACK for it, as it does for an operator
    too small for MESH_NCV steps."""
    ops = [op for op in ops if not op.direct and op.shape[0] > MESH_NCV]
    if not ops:
        return
    op0, dim, m = ops[0], ops[0].shape[0], MESH_NCV
    c, span = op0.coupling, op0._span
    size = next_fast_len(2 * span - 1)
    step = max(1, STACK_ENTRIES // ((m + 1) * dim + size * c.rows.size * c.cols.size))
    floor = np.finfo(float).eps ** (2.0 / 3.0)
    with _serial_blas(), np.errstate(all="ignore"):
        for start in range(0, len(ops), step):
            chunk = ops[start:start + step]
            kf = _sample_fft([op.kernel for op in chunk], span, op0.grid.dx, c.cols, c.rows)
            v = np.zeros((len(chunk), m + 1, dim), dtype=complex)
            h = np.zeros((len(chunk), m + 1, m), dtype=complex)
            v[:, 0] = _flat_start(op0)
            for j in range(m):
                w = op0._apply(kf, v[:, j])  # every energy of the chunk at once
                for _ in range(2):
                    # the projections <v_i, w> = conj(v_i^T conj(w))
                    proj = np.conj(v[:, :j + 1] @ np.conj(w)[:, :, None])
                    w -= (v[:, :j + 1].transpose(0, 2, 1) @ proj)[:, :, 0]
                    h[:, :j + 1, j] += proj[:, :, 0]
                h[:, j + 1, j] = np.linalg.norm(w, axis=1)
                v[:, j + 1] = w / h[:, j + 1, j, None]
            finite = np.isfinite(h).all(axis=(1, 2))
            h[~finite] = 0.0
            theta, y = np.linalg.eig(h[:, :m])
            for op, ok, th, last, beta in zip(chunk, finite, theta, y[:, m - 1], h[:, m, m - 1]):
                top = np.argsort(np.abs(th), kind="stable")[-FIRST_PASS_K:]
                vals, bound = th[top], abs(beta) * np.abs(last[top])
                if ok and np.isfinite(vals).all() and np.all(
                        bound <= ARNOLDI_TOL * np.maximum(floor, np.abs(vals))):
                    op.sets[(FIRST_PASS_K, False, True)] = vals, None, True


def _mesh_kernels(model: BandModel, energies, grid: Grid) -> tuple[list[GreenKernel], Grid]:
    """The mesh energies' kernels, from one residue_green_many, and the mesh
    grid (_resolving_grid). Raises as probing one energy at a time would:
    the GridTooCoarse of the first kernel the mesh grid cannot resolve, else
    the DegeneratePoles of the first energy whose poles coincide."""
    try:
        kernels = residue_green_many(model, energies)
    except DegeneratePoles as exc:
        _mesh_kernels(model, energies[:list(energies).index(exc.energy)], grid)
        raise
    mesh_grid = _resolving_grid(grid, kernels)
    return [_check_grid(kernel, mesh_grid) for kernel in kernels], mesh_grid


def _resolving_grid(grid: Grid, kernels: list[GreenKernel]) -> Grid:
    """grid's half-width on the fewest points, at least MESH_MIN_POINTS, that
    keep dx*|p| under MAX_PHASE_STEP, one point to spare, for every real
    pole of the kernels; grid itself where that takes as many points."""
    p = max((np.abs(k.real_momenta).max(initial=0.0) for k in kernels), default=0.0)
    n = max(MESH_MIN_POINTS, int(np.ceil(2.0 * grid.x_max * p / MAX_PHASE_STEP)) + 2)
    return grid if n >= grid.n_points else Grid.symmetric(grid.x_max, n)


def _mesh_branch_values(energies, kernels: list[GreenKernel], grid: Grid, coupling: _Coupling,
                        ops: dict, s: float) -> list:
    """_branch_value of s times the map at each mesh energy, in mesh order;
    the eigenvalue is NaN where the eigensolve fails. kernels and grid are
    what _mesh_kernels returned for energies, and ops maps energies to their
    mesh operators: a shared_mesh block's, which later calls read again, or
    a fresh dict. Each energy missing from ops gets an operator on its
    kernel; _solve_direct solves those on the direct path together and
    _solve_mesh_arnoldi the first passes of the others, leaving ARPACK only
    the energies the batch does not solve and the MESH_K reruns."""
    new = {e: _ConvMap(k, grid, coupling) for e, k in zip(energies, kernels) if e not in ops}
    ops.update(new)
    _solve_direct(new.values())
    _solve_mesh_arnoldi(new.values())
    values = []
    for e in energies:
        try:
            lam, _, above = _near_one(ops[e], MESH_K, False, s)
        except (ArpackError, NoNearUnitEigenvalue):
            lam, above = complex("nan"), None
        values.append((lam, above))
    return values


def _mesh_seed(energies: np.ndarray, h: list[float], i: int) -> tuple[float, float]:
    """Where refinement of mesh bracket i starts, and the slope of h there:
    the root inside the bracket of the cubic through the finite mesh values
    among the bracket's ends and its two neighbours, nearest the linear
    root, or the linear root where the cubic has none there. The start is
    rounded to 2**-20 of the mesh step and the slope to 20 significant bits
    (NaN where it is 0 or not finite): a shared mesh reads s * lambda_base
    where a row alone reads lambda(s V), and the two differ in their last
    bits, which the fine solve must not see."""
    ea, eb = float(energies[i]), float(energies[i + 1])
    ha, hb = h[i], h[i + 1]
    t, slope = ha / (ha - hb), (hb - ha) / (eb - ea)
    js = [j for j in range(max(i - 1, 0), min(i + 3, len(h))) if np.isfinite(h[j])]
    with np.errstate(all="ignore"):
        coef = npoly.polyfit(np.subtract(js, i), [h[j] for j in js], len(js) - 1)
        if np.isfinite(coef).all():
            roots = [r.real for r in npoly.polyroots(coef) if r.imag == 0 and 0 <= r.real <= 1]
            if roots:
                t = min(roots, key=lambda r: abs(r - t))
                slope = npoly.polyval(t, npoly.polyder(coef)) / (eb - ea)
        t = round(t * 2**20) / 2**20
        m, ex = np.frexp(slope)
        slope = float(np.ldexp(np.round(m * 2**20), ex - 20))
    return (1 - t) * ea + t * eb, slope if np.isfinite(slope) and slope else float("nan")


def _plural(n: int, noun: str, plural: str) -> str:
    return f"{n} {noun if n == 1 else plural}"


@warns_coverage_once
def find_energy(model: BandModel, grid: Grid, potential: PotentialSpec | Sequence,
                e_lo: float, e_hi: float, *, mesh_points: int = 200) -> list[SolveReport]:
    """Scan [e_lo, e_hi], bracket crossings of Re(eigenvalue) = 1, refine.

    The mesh phase runs on the coarsest grid that resolves the mesh
    (_resolving_grid), refinement always on grid. Refinement starts at the
    mesh's own root in the bracket, rounded so that the mesh values' last
    bits do not reach it (_mesh_seed), and ends at a step under REFINE_TOL;
    every fine probe lies inside [e_lo, e_hi], and each after a bracket's
    first starts Arnoldi from the previous one's Ritz vectors (_near_one).
    Returns every converged solution, ordered by energy; solutions within
    REFINE_TOL of each other are one root, reported once.

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
    energies = np.linspace(e_lo, e_hi, mesh_points)
    fine_coupling = _coupling(model, grid, potential)
    kernels, mesh_grid = _mesh_kernels(model, energies, grid)
    coupling, ops, s = (_shared_ops(model, mesh_grid, potential)
                        or (_coupling(model, mesh_grid, potential), {}, 1.0))
    values = _mesh_branch_values(energies, kernels, mesh_grid, coupling, ops, s)
    del kernels, ops  # an unshared call's mesh operators, and any FFT they hold
    h = [float(lam.real) - 1.0 for lam, _ in values]
    above = [count for _, count in values]

    chain = []  # the warm start of the bracket's next fine probe (see _near_one)

    def fine(e: float) -> float:
        return float(_branch_value(model, e, grid, fine_coupling, chain)[0].real) - 1.0

    reports = []
    brackets = switches = stalls = high_residual = 0
    rejected = []
    for i in range(len(energies) - 1):
        ha, hb = h[i], h[i + 1]
        if not (np.isfinite(ha) and np.isfinite(hb)) or ha * hb > 0 or (ha == 0 and hb == 0):
            continue
        brackets += 1
        if above[i] is not None and above[i] == above[i + 1]:
            switches += 1
            continue
        ea, eb = float(energies[i]), float(energies[i + 1])
        # the mesh bracket widened by a step, inside the window
        lo, hi = max(2.0 * ea - eb, e_lo), min(2.0 * eb - ea, e_hi)
        chain.clear()  # the bracket's first fine probe starts flat
        e, slope = _mesh_seed(energies, h, i)
        # a Newton step with the mesh slope, then secant steps; ea, the mesh
        # end farther from the start, is where a first bisection would head
        ea, eb, fb = ea if eb - e < e - ea else eb, e, fine(e)
        converged = False
        for _ in range(80):
            e_new = eb - fb / slope
            if not lo <= e_new <= hi:
                e_new = 0.5 * (ea + eb)  # the step left the widened bracket; bisect
            if abs(e_new - eb) < REFINE_TOL:
                eb = e_new
                converged = True
                break
            ea, fa = eb, fb
            eb, fb = e_new, fine(e_new)
            if fb == fa:
                break
            slope = (fb - fa) / (eb - ea)
        if not converged and abs(fb) > RESIDUAL_LIMIT:
            stalls += 1
            continue
        try:
            rep = _solve_state(model, eb, grid, fine_coupling, chain)
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
        if rep.energy - merged[-1].energy >= REFINE_TOL:
            merged.append(rep)
    return merged
