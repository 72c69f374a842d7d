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

Each Arnoldi eigensolve first asks ARPACK for the 3 eigenvalues of largest
modulus. That set certifies the answer when its eigenvalue nearest 1 lies
closer than 1 - m, m being its smallest modulus (so m < 1): every eigenvalue
not returned has modulus at most m, so it is farther from 1 and has Re < 1.
Otherwise the solve reruns with MESH_K eigenvalues on the energy mesh and in
the secant steps, or STATE_K for the final state. A small support takes the
direct path instead: the dense form of the same operator (support_matrix).

ARPACK runs with every OpenBLAS thread pool in the process at one thread
(_serial_blas), and each pool gets its count back afterwards. A solve at
k=3 and n = 1024-4096 takes about 21 matvecs, and the BLAS vector work
between them is too small to split. On 2 vCPUs one eigs(k=3) took as long
either way (3.0-3.9 ms at n=1024, 8.2-12.6 ms at 4096), but threaded it
used twice its wall time in CPU: the pool's worker spins on the second CPU.
Two processes that each ran six bench `arnoldi` rounds at once took 44 s
each, against 5 s for one alone; on one thread they took 3.9 s each. The
scope leaves the caller's own BLAS work, and the direct path's dense eig,
as they are.

At strength s the map of Scaled(base, s) is s times the map of base, so its
spectrum is s times base's. Inside a shared_mesh block (every
criterion.scan_parameter call), find_energy calls share their mesh probes
when they have the same model object, an equal hashable base, an equal
window, mesh size and mesh grid, and s != 0: each mesh energy builds one
operator of base, solves each eigenvalue set it is asked for once, and
every call reads it times s. Secant steps and solve_state run on the
call's own operator, so every result keeps its bits.

The mesh is built as one batch (_mesh_branch_values): one
residue_green_many gives the kernels of every mesh energy (inside a
shared_mesh block, of every energy its memo lacks), each operator takes
its prebuilt kernel, and on the direct path (_solve_direct) the kernel
tables of the mesh come from one evaluate_many and its support matrices
are solved in stacked eigvals calls, whose sets _near_one reads as its
own. Every mesh energy keeps the bits of its own probe, and the first
energy, in mesh order, whose kernel or grid fails raises after the energies
before it are read, as probing one energy at a time would. Secant steps
and solve_state build one kernel at a time.

Grid coverage is recorded when an operator's eigenvalues are read
(_near_one), so an operator read again, a shared mesh operator included,
counts again; an operator without support, the zero map, reads no kernel
and records none.

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
import warnings
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.fft import fft, ifft, next_fast_len
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigs

from .errors import DegeneratePoles, GridTooCoarse, NoNearUnitEigenvalue, NoSolutionInRange
from .green import GreenKernel, evaluate_many, residue_green, residue_green_many
from .grids import Grid, SpinorField
from .models import BandModel
from .potentials import PotentialSpec, Scaled, coupling_terms, decay_scale, sample_potential

MAX_PHASE_STEP = 0.3          # dx * p_real above this cannot resolve the sine
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
    for spec, bk in terms:
        f += (sample_potential(spec, grid) * w)[:, None, None] * bk
    nonzero = np.abs(f) > 0
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


# (half-width, slowest decay rate) at every read of an operator's eigenvalues
# and every assemble_map inside the outermost public call in flight, which
# warns once for all of them
_COVERAGE: ContextVar[list | None] = ContextVar("coverage", default=None)


def _record_coverage(grid: Grid, kernel: GreenKernel, coupling: _Coupling) -> None:
    seen = _COVERAGE.get()
    if seen is not None:
        seen.append((grid.x_max, min(kernel.decay_rate, coupling.decay)))


def _warns_coverage_once(fn):
    """Warn at most once per call of fn, nested public calls included, when
    a kernel or potential it met decays over more than a tenth of the grid
    half-width; the warning quotes the slowest rate seen."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _COVERAGE.get() is not None:
            return fn(*args, **kwargs)
        seen = []
        token = _COVERAGE.set(seen)
        try:
            return fn(*args, **kwargs)
        finally:
            _COVERAGE.reset(token)
            if seen:
                x_max, slowest = min(seen, key=lambda s: s[0] * s[1])
                if np.isfinite(slowest) and x_max * slowest < 10.0:
                    warnings.warn(f"grid half-width {x_max:g} is under 10 decay "
                                  f"lengths (rate {slowest:g})", stacklevel=2)

    return wrapper


def _kernel_samples(kernels: list[GreenKernel], n: int, dx: float, rows=None,
                    cols=None) -> np.ndarray:
    """Each kernel's blocks at the separations of n sites, index
    d = i - j + (n-1) on the second axis."""
    return evaluate_many(kernels, dx * np.arange(-(n - 1), n), rows, cols)


def _convolve(kf: np.ndarray, m: int, sites: np.ndarray | slice, u: np.ndarray) -> np.ndarray:
    """Sum_j K(x_i - x_j) u_j at all i of a range of m sites, for a source u
    of shape (len(sites), channels) at the given offsets into that range;
    kf is the FFT of _kernel_samples on m sites."""
    src = np.zeros((kf.shape[0], u.shape[1]), dtype=complex)
    src[sites] = u
    uf = fft(src, axis=0, overwrite_x=True)
    yf = np.einsum("dab,db->da", kf, uf)
    return ifft(yf, axis=0, overwrite_x=True)[m - 1:2 * m - 1]


def _sample_fft(kernel: GreenKernel, n: int, dx: float, rows=None, cols=None) -> np.ndarray:
    return fft(_kernel_samples([kernel], n, dx, rows, cols)[0], n=next_fast_len(2 * n - 1),
               axis=0)


@_warns_coverage_once
def assemble_map(model: BandModel, energy: float, grid: Grid,
                 potential: PotentialSpec | Sequence) -> np.ndarray:
    """Dense (nN x nN) matrix of the discretized self-consistency map.

    Memory grows as (nN)^2 complex; solve_state and find_energy apply the
    same map matrix-free and scale to much larger grids.
    """
    kernel = _check_grid(residue_green(model, energy), grid)
    coupling = _coupling(model, grid, potential)
    _record_coverage(grid, kernel, coupling)
    n, nb = grid.n_points, model.n_bands
    samples = _kernel_samples([kernel], n, grid.dx)[0]
    idx = np.arange(n)[:, None] - np.arange(n)[None, :] + (n - 1)
    blocks = np.einsum("ijab,jbc->iajc", samples[idx], coupling.factors)
    return blocks.reshape(n * nb, n * nb)


class _ConvMap(LinearOperator):
    """The map on its coupled subspace (support sites x R channels),
    u -> psi_j sum_j' K[C, R](x_j - x_j') u_j', applied by one FFT
    convolution across the span of the support; lift and full_matvec
    return to the full grid. coupling is the grid's prebuilt _Coupling and
    kernel the prebuilt kernel at energy; either may be None to build it."""

    def __init__(self, model: BandModel, energy: float, grid: Grid,
                 potential: PotentialSpec | Sequence, coupling: _Coupling | None = None,
                 kernel: GreenKernel | None = None):
        self.grid = grid
        self.n_bands = model.n_bands
        if kernel is None:
            kernel = residue_green(model, energy)
        self.kernel = _check_grid(kernel, grid)
        if coupling is None:
            coupling = _coupling(model, grid, potential)
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
        return _sample_fft(self.kernel, self._span, self.grid.dx, c.cols, c.rows)

    def _matvec(self, u: np.ndarray) -> np.ndarray:
        c = self.coupling
        y = _convolve(self._kf, self._span, self._at, u.reshape(-1, c.rows.size))
        return np.einsum("jrc,jc->jr", c.psi, y[self._at]).reshape(-1)

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
        u = w.reshape(-1, self.coupling.rows.size)
        return _convolve(self._lift_kf, self.grid.n_points, self.support, u).reshape(-1)

    @cached_property
    def _lift_kf(self) -> np.ndarray:
        return _sample_fft(self.kernel, self.grid.n_points, self.grid.dx,
                           np.arange(self.n_bands), self.coupling.rows)

    def full_matvec(self, v: np.ndarray) -> np.ndarray:
        """The full (nN) map applied to v: the lift of psi_j v_j[C]."""
        c = self.coupling
        vs = v.reshape(self.grid.n_points, self.n_bands)[np.ix_(self.support, c.cols)]
        return self.lift(np.einsum("jrc,jc->jr", c.psi, vs))


# Potential support (sites x channels) small enough for a direct dense eig.
DIRECT_SUPPORT_LIMIT = 512


# Eigenvalues the first Arnoldi pass asks for: so few converge within
# ARPACK's default 20-vector factorization.
FIRST_PASS_K = 3


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


def _arnoldi(op: _ConvMap, k: int, want_vectors: bool):
    """The k eigenvalues of largest modulus, their eigenvectors if asked for
    (else None), and whether ARPACK converged: a run that did not returns
    the eigenvalues that did. Each set is solved once and kept on op, so
    the rows that share a mesh operator share its sets."""
    key = (k, want_vectors)
    if key not in op.sets:
        # deterministic Arnoldi start: B applied to the full map's flat vector,
        # so the Krylov spaces are B times the full map's; flat where B kills it
        dim = op.shape[0]
        v0 = op.coupling.psi.sum(axis=2).reshape(-1)
        norm = np.linalg.norm(v0)
        v0 = v0 / norm if norm > 0 else np.full(dim, 1.0 / np.sqrt(dim))
        try:
            with _serial_blas():
                out = eigs(op, k=k, which="LM", v0=v0, tol=1e-11,
                           return_eigenvectors=want_vectors)
            op.sets[key] = (*out, True) if want_vectors else (out, None, True)
        except ArpackNoConvergence as exc:
            op.sets[key] = exc.eigenvalues, exc.eigenvectors if want_vectors else None, False
    return op.sets[key]


def _near_one(op: _ConvMap, k: int, want_vectors: bool, s: float = 1.0):
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
    larger k. Otherwise, or if that pass fails, it reruns with k.
    """
    def scaled(vals):
        return vals if s == 1.0 or vals is None else s * vals

    dim = op.shape[0]
    if op.support.size == 0:  # a zero map reads no kernel
        return 0.0 + 0.0j, None, 0
    _record_coverage(op.grid, op.kernel, op.coupling)
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
                vals, vecs, converged = _arnoldi(op, FIRST_PASS_K, want_vectors)
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


@_warns_coverage_once
def solve_state(model: BandModel, energy: float, grid: Grid,
                potential: PotentialSpec | Sequence) -> SolveReport:
    """Eigenvector of the map for the eigenvalue nearest 1.

    The state is rescaled so its peak channel amplitude is 1 and its global
    phase makes the peak real; fixed_point_residual = |psi - M psi|/|psi|.
    """
    op = _ConvMap(model, energy, grid, potential)
    lam, w, _ = _near_one(op, STATE_K, want_vectors=True)
    if abs(lam - 1.0) > ACCEPT_EIG_DISTANCE:
        raise NoNearUnitEigenvalue(
            f"nearest map eigenvalue {lam:.6g} is {abs(lam - 1):.3g} away from 1",
            distance=abs(lam - 1.0))
    values = _fix_phase((op.lift(w) / lam).reshape(grid.n_points, model.n_bands))
    resid = np.linalg.norm(op.full_matvec(values.reshape(-1)) - values.reshape(-1))
    resid /= np.linalg.norm(values)
    return SolveReport(energy=float(energy), operator_eigenvalue=lam,
                       state=SpinorField(grid=grid, values=values),
                       fixed_point_residual=float(resid))


def _branch_value(model: BandModel, energy: float, grid: Grid,
                  potential, coupling: _Coupling) -> tuple[complex, int | None]:
    """Eigenvalue nearest 1 and the count of eigenvalues with Re > 1 (or None)."""
    op = _ConvMap(model, energy, grid, potential, coupling)
    lam, _, above = _near_one(op, MESH_K, want_vectors=False)
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
    """(base potential, its coupling, the memo of its mesh operators by
    energy, strength) of the shared operators of the unscaled base (see
    shared_mesh), or None where the call shares nothing."""
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
    _, coupling, ops = entry
    return potential.base, coupling, ops, potential.factor


# Entries of the kernel tables or support matrices that one stacked
# direct-path step holds at most.
STACK_ENTRIES = 1 << 16


def _solve_direct(ops: list[_ConvMap]) -> None:
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


def _mesh_branch_values(model: BandModel, energies, grid: Grid, potential,
                        coupling: _Coupling, memo: dict | None = None,
                        s: float = 1.0) -> list:
    """_branch_value of s times the map at each mesh energy, in mesh order;
    the eigenvalue is NaN where the eigensolve fails. The operators of the
    energies missing from memo (the shared operators by energy, or None to
    drop each once read, with the FFT it may hold) are built from one
    residue_green_many, and _solve_direct solves them together. The first
    energy whose kernel or grid fails raises after the energies before it
    are read, as reading one energy at a time would."""
    ops = {} if memo is None else memo
    new = [e for e in energies if e not in ops]
    failure = None
    try:
        kernels = residue_green_many(model, new)
    except DegeneratePoles as exc:
        failure, new = exc, new[:new.index(exc.energy)]
        kernels = residue_green_many(model, new)
    for e, kernel in zip(new, kernels):
        try:
            ops[e] = _ConvMap(model, e, grid, potential, coupling, kernel)
        except GridTooCoarse as exc:
            failure = exc
            break
    _solve_direct([ops[e] for e in new if e in ops])
    values = []
    for e in energies:
        op = ops.get(e) if memo is not None else ops.pop(e, None)
        if op is None:
            raise failure
        try:
            lam, _, above = _near_one(op, MESH_K, False, s)
        except (ArpackError, NoNearUnitEigenvalue):
            lam, above = complex("nan"), None
        values.append((lam, above))
    return values


def _plural(n: int, noun: str, plural: str) -> str:
    return f"{n} {noun if n == 1 else plural}"


@_warns_coverage_once
def find_energy(model: BandModel, grid: Grid, potential: PotentialSpec | Sequence,
                e_lo: float, e_hi: float, *, mesh_points: int = 200,
                scan_grid: Grid | None = None) -> list[SolveReport]:
    """Scan [e_lo, e_hi], bracket crossings of Re(eigenvalue) = 1, refine.

    The mesh phase may run on a coarser scan_grid; refinement always runs
    on the main grid. Returns every converged solution, ordered by energy;
    solutions within REFINE_TOL of each other are one root, reported once.

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
    fine_coupling = _coupling(model, grid, potential)
    mesh = (_shared_ops(model, mesh_grid, potential)
            or (potential, _coupling(model, mesh_grid, potential), None, 1.0))
    values = _mesh_branch_values(model, energies, mesh_grid, *mesh)
    h = [float(lam.real) - 1.0 for lam, _ in values]
    above = [count for _, count in values]

    def fine(e: float) -> float:
        return float(_branch_value(model, e, grid, potential, fine_coupling)[0].real) - 1.0

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
        fa, fb = fine(ea), fine(eb)
        converged = False
        for _ in range(80):
            if fb == fa:
                break
            e_new = eb - fb * (eb - ea) / (fb - fa)
            lo, hi = min(ea, eb), max(ea, eb)
            if not (lo - abs(hi - lo) <= e_new <= hi + abs(hi - lo)):
                e_new = 0.5 * (ea + eb)  # secant left the bracket; bisect
            if abs(e_new - eb) < REFINE_TOL:
                eb = e_new
                converged = True
                break
            ea, fa = eb, fb
            eb, fb = e_new, fine(e_new)
        if not converged and abs(fb) > RESIDUAL_LIMIT:
            stalls += 1
            continue
        try:
            rep = solve_state(model, eb, grid, potential)
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
