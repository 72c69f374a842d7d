"""Exact-BIC criterion: Fourier components of the potential source at the
real poles, tail oscillation metrics, verdicts, and parameter scans.

A state in the mixed-pole window keeps a standing-wave tail unless the
Fourier components of its potential source sum_k V_k(x) B_k psi(x) vanish
at every real pole +/-p. The coupling terms (V_k, B_k) come from
potentials.coupling_terms, so a single potential spec (one term V B) and a
per-channel list diag(V_1, ..., V_N) take the same path. classify is the
one way to a verdict: it samples the source once per state and measures its
components two ways:

* raw per-channel components F_q (what gets plotted against q), and
* the tail actually propagated by the kernel: the standing-wave residue
  matrices applied to F_{+/-p}. The projected form is the binding
  constraint; it is exactly zero for decoupled channels, where raw
  components of the closed channel can stay finite without producing any
  tail.

Verdicts: ExactBIC needs small projected residuals (below TOL_BIC of the
peak component over PEAK_SAMPLES frequencies) AND a small fitted tail
oscillation (below TOL_TAIL) inside the mixed window; energies below the
window (all poles complex) are ConventionalBound, above it (all poles real)
Extended; anything else in the window is QuasiBIC, with a conflict flag when
the two signals disagree.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np
import scipy.fft  # by module: a bound `fft` is traced as solver.fft (bench/tracer.py)

from .errors import BicforgeError, GridTooCoarse, WindowTooShort
from .green import GreenKernel, residue_green
from .grids import Grid, SpinorField, record_coverage, warns_coverage_once
from .models import BandModel
from .potentials import PotentialSpec, coupling_terms, sample_potential
from .solver import find_energy, shared_mesh
from .spectral import RegionTag, classify_region

TOL_BIC = 1e-3    # projected residual / peak, at the default grids
TOL_TAIL = 1e-3   # fitted tail oscillation / peak amplitude
PEAK_SAMPLES = 512
MAX_Q_STEP = 0.5  # q*dx beyond this cannot be quadratured


class Verdict(str, Enum):
    EXACT_BIC = "ExactBIC"
    QUASI_BIC = "QuasiBIC"
    CONVENTIONAL = "ConventionalBound"
    EXTENDED = "Extended"


@dataclass(frozen=True)
class BicReport:
    """Criterion evaluation for one state at one energy."""

    energy: float
    verdict: Verdict
    real_poles: np.ndarray                  # signed real poles, sorted
    fourier_residuals: tuple[np.ndarray, ...]  # raw F_p per pole, per channel
    projected_residuals: np.ndarray         # tail-propagated norm per pole
    peak_fourier: float
    residual_rel: float
    tail_osc_amplitude: float
    tail_decay_rate: float
    tail_rel: float
    conflict: bool = False

    def summary(self) -> dict:
        """The report as strict JSON: a NaN (uncertifiable tail) is None."""
        return {
            "energy": self.energy,
            "verdict": self.verdict.value,
            "real_poles": [float(p) for p in self.real_poles],
            "residual_rel": _num(self.residual_rel),
            "projected_residuals": [_num(r) for r in self.projected_residuals],
            "peak_fourier": self.peak_fourier,
            "tail_osc_amplitude": _num(self.tail_osc_amplitude),
            "tail_decay_rate": _num(self.tail_decay_rate),
            "tail_rel": _num(self.tail_rel),
            "conflict": self.conflict,
        }


def _num(x: float) -> float | None:
    return None if x != x else float(x)


def _source_values(state: SpinorField, potential: PotentialSpec | Sequence,
                   b: np.ndarray) -> np.ndarray:
    """sum_k V_k(x) (B_k psi)(x) per grid point."""
    src = np.zeros_like(state.values)
    for spec, bk in coupling_terms(potential, b):
        src += sample_potential(spec, state.grid)[:, None] * (state.values @ bk.T)
    return src


def _check_resolved(grid: Grid, q_abs: float) -> None:
    if q_abs * grid.dx > MAX_Q_STEP:
        raise GridTooCoarse(f"q*dx = {q_abs * grid.dx:.3g} exceeds {MAX_Q_STEP}")


def fourier_residual(state: SpinorField, potential: PotentialSpec | Sequence,
                     b: np.ndarray, q: float | np.ndarray) -> np.ndarray:
    """Per-channel Fourier component F_q of the source, trapezoid-quadratured.

    q is an arbitrary real frequency (no FFT grid constraint), or an array
    of them: the result then has shape q.shape + (N,). The grid must
    resolve every q: |q|*dx <= 0.5. Each q is a direct sum over the grid;
    fourier_line computes equally spaced q faster.
    """
    return _components(_source_values(state, potential, b), state.grid,
                       np.asarray(q, dtype=float))


def _components(src: np.ndarray, grid: Grid, qs: np.ndarray) -> np.ndarray:
    """sum_j w_j src_j exp(-i q x_j) for each q in qs, shape qs.shape + (N,),
    on a grid that resolves every q."""
    _check_resolved(grid, float(np.max(np.abs(qs), initial=0.0)))
    w = grid.weights
    comps = [np.sum(np.exp(-1j * qi * grid.x)[:, None] * src * w[:, None], axis=0)
             for qi in qs.ravel()]
    return np.array(comps).reshape(qs.shape + src.shape[1:])


def _fourier_line(src: np.ndarray, grid: Grid, q_lo: float, q_hi: float,
                  count: int) -> np.ndarray:
    """sum_j w_j src_j exp(-i q x_j) at q = np.linspace(q_lo, q_hi, count).

    Bluestein's chirp-z transform over the span of live rows, from the first
    to the last where src is nonzero (a delta is one row). With x_j = x_c +
    t dx about the span's centre c and q_k = q_lo + k dq, the identity
    k t = (k^2 + t^2 - (k - t)^2) / 2 turns the sum into one convolution
    with the chirp exp(i a (k - t)^2 / 2), a = dq dx, done by three FFTs
    of length >= span + count - 1. Indexing t from the centre keeps the
    chirp's phases, and so their rounding, small.
    """
    live = np.flatnonzero(np.abs(src).max(axis=1) > 0)
    if count == 0 or live.size == 0:
        return np.zeros((count, src.shape[1]), dtype=complex)
    first, last = int(live[0]), int(live[-1])
    span = last - first + 1
    centre = (first + last) // 2
    t = np.arange(first - centre, last - centre + 1)
    half_a = 0.5 * grid.dx * ((q_hi - q_lo) / (count - 1) if count > 1 else 0.0)
    a = (src[first:last + 1] * grid.weights[first:last + 1, None]
         * np.exp(-1j * (q_lo * grid.dx * t + half_a * (t * t)))[:, None])
    d = np.arange(-t[-1], count - t[0])  # every k - t, in convolution order
    chirp = np.exp(1j * half_a * (d * d))
    n_fft = scipy.fft.next_fast_len(span + count - 1)
    conv = scipy.fft.ifft(scipy.fft.fft(a, n_fft, axis=0)
                          * scipy.fft.fft(chirp, n_fft)[:, None], axis=0)
    k = np.arange(count)
    qs = np.linspace(q_lo, q_hi, count)
    return conv[span - 1:span - 1 + count] * np.exp(
        -1j * (qs * grid.x[centre] + half_a * (k * k)))[:, None]


def fourier_line(state: SpinorField, potential: PotentialSpec | Sequence,
                 b: np.ndarray, q_lo: float, q_hi: float,
                 count: int) -> np.ndarray:
    """Per-channel components F_q at q = np.linspace(q_lo, q_hi, count).

    The trapezoid sum of fourier_residual, for a whole line of equally
    spaced q at once: shape (count, N), in O((span + count) log(span +
    count)) for a source whose nonzero rows span `span` grid points. The
    grid must resolve every q: max(|q_lo|, |q_hi|)*dx <= 0.5.
    """
    _check_resolved(state.grid, max(abs(q_lo), abs(q_hi)))
    return _fourier_line(_source_values(state, potential, b), state.grid,
                         q_lo, q_hi, count)


def peak_fourier_norm(state: SpinorField, potential: PotentialSpec | Sequence,
                      b: np.ndarray, q_max: float) -> float:
    """Scale-free normalizer: max |F_q| over PEAK_SAMPLES q in [0, q_max].

    The components come from the chirp-z line over the source's nonzero
    span, so a compact source (a delta, a finite box) costs its support,
    not the grid. q_max is not checked against the grid.
    """
    return _peak(_source_values(state, potential, b), state.grid, q_max)


def _peak(src: np.ndarray, grid: Grid, q_max: float) -> float:
    comps = _fourier_line(src, grid, 0.0, q_max, PEAK_SAMPLES)
    return float(np.linalg.norm(comps, axis=1).max())


def tail_metrics(state: SpinorField, p_real: float, window_start: float
                 ) -> tuple[float, float]:
    """Oscillation amplitude and decay rate of the tail beyond window_start.

    The window must hold at least 3 periods of p_real. The decay rate comes
    from a log fit of the channel-summed magnitude (floor and sub-threshold
    points dropped); each channel is then least-squares decomposed over
    {sin(p x), cos(p x), exp(-rate (x - x0))} so a pure envelope does not
    leak into the reported oscillation amplitude.
    """
    if p_real <= 0:
        raise ValueError("p_real must be positive")
    grid = state.grid
    if (grid.x_max - window_start) * p_real < 3 * 2 * np.pi:
        raise WindowTooShort(
            f"window [{window_start:g}, {grid.x_max:g}] holds fewer than 3 periods")
    mask = grid.x >= window_start
    x = grid.x[mask]
    vals = state.values[mask]
    dens = np.sqrt(np.sum(np.abs(vals) ** 2, axis=1))

    keep = dens >= max(1e-4 * dens.max(), 3.0 * dens.min())
    if keep.sum() < 8:
        keep = dens > 0
    decay_rate = 0.0
    if keep.sum() >= 2:
        slope = np.polyfit(x[keep], np.log(dens[keep]), 1)[0]
        decay_rate = float(-slope)

    cols = [np.sin(p_real * x), np.cos(p_real * x)]
    if decay_rate > 0:
        cols.append(np.exp(-decay_rate * (x - x[0])))
    design = np.column_stack(cols)
    osc = 0.0
    for ch in range(vals.shape[1]):
        coef, *_ = np.linalg.lstsq(design, vals[:, ch], rcond=None)
        osc = max(osc, float(np.hypot(abs(coef[0]), abs(coef[1]))))
    return osc, decay_rate


def _standing_projectors(model: BandModel, kernel: GreenKernel
                         ) -> dict[float, list[np.ndarray]]:
    """Unit-norm standing-wave residue matrices of kernel per real |p|.

    The real poles +p and -p (a missing partner counts as zero) give the
    sine matrix S = -(R_+ - R_-)/2 and the cos*sign matrix
    C = (i/2)(R_+ + R_-). C is dropped when it is roundoff next to S, and
    always without a linear-in-p term: then R(-p) = -R(p) exactly, and what
    remains of C is the mismatch of the computed roots +p and -p, which
    close pole pairs amplify far above roundoff.
    """
    real = np.flatnonzero(kernel.poles.imag == 0)
    real = real[np.argsort(np.abs(kernel.poles[real]), kind="stable")]
    mags = np.abs(kernel.poles[real])
    # a standing wave per |p|: a real pole opens a new one where its |p|
    # lies a tolerance past the one before it
    starts = np.flatnonzero(mags[1:] - mags[:-1] >= 1e-8 * (1.0 + mags[1:])) + 1
    out: dict[float, list[np.ndarray]] = {}
    scale = 0.0
    for group in np.split(real, starts) if real.size else ():
        p = kernel.poles[group].real
        # the residues at +|p| and -|p|; a missing partner sums to zero
        r_plus = kernel.residues[group[p > 0]].sum(axis=0)
        r_minus = kernel.residues[group[p < 0]].sum(axis=0)
        m_sin = -(r_plus - r_minus) / 2.0
        m_cs = 0.5j * (r_plus + r_minus)
        scale = max(scale, np.abs(m_sin).max())
        mats = [m_sin]
        if (model.has_linear_term
                and np.abs(m_cs).max() > 1e-12 * max(scale, np.abs(m_cs).max())):
            mats.append(m_cs)
        key = float(abs(p[0]))
        for mat in mats:
            nrm = np.linalg.norm(mat, 2)
            if nrm > 0:
                out.setdefault(key, []).append(mat / nrm)
    return out


def classify(model: BandModel, state: SpinorField,
             potential: PotentialSpec | Sequence, energy: float) -> BicReport:
    """Verdict for a state under a potential spec or a per-channel list.

    A single spec couples through the model's B matrix; a per-channel list
    diag(V_1, ..., V_N) couples channel by channel. The source and the
    kernel are built once: the signed real poles come from the kernel's
    terms. The verdict reads the state's tail, so the kernel's decay rate
    joins the coverage warning of the call in flight (bic-verify's), if any.
    """
    region = classify_region(model, energy)
    if region.tag is not RegionTag.MIXED:
        verdict = (Verdict.CONVENTIONAL if region.tag is RegionTag.ALL_COMPLEX
                   else Verdict.EXTENDED)
        return BicReport(
            energy=float(energy), verdict=verdict,
            real_poles=np.array([]), fourier_residuals=(),
            projected_residuals=np.array([]), peak_fourier=0.0,
            residual_rel=0.0, tail_osc_amplitude=0.0,
            tail_decay_rate=0.0, tail_rel=0.0)

    grid = state.grid
    kernel = residue_green(model, energy)
    record_coverage(grid, kernel.decay_rate)
    signed_poles = kernel.real_momenta
    pos_poles = np.array(sorted({abs(p) for p in signed_poles}))
    projectors = _standing_projectors(model, kernel)

    src = _source_values(state, potential, model.b)
    peak = _peak(src, grid, 4.0 * pos_poles.max())
    raw = list(_components(src, grid, signed_poles))
    projected = []
    for p, f_p in zip(signed_poles, raw):
        mats = []
        if projectors:
            nearest = min(projectors, key=lambda k: abs(k - abs(p)))
            mats = projectors[nearest]
        proj = max((float(np.linalg.norm(m @ f_p)) for m in mats), default=0.0)
        projected.append(proj)
    projected = np.array(projected)

    residual_rel = float(projected.max() / peak) if peak > 0 else 0.0
    try:
        osc, rate = tail_metrics(state, float(pos_poles.min()), grid.x_max / 2.0)
        tail_rel = osc / state.peak_amplitude() if state.peak_amplitude() > 0 else 0.0
        tail_ok = tail_rel < TOL_TAIL
    except WindowTooShort:
        # oscillation period too long for the grid (energy hugging a band
        # edge); such a state cannot be certified, only rejected
        osc, rate, tail_rel = float("nan"), float("nan"), float("nan")
        tail_ok = False

    residual_ok = residual_rel < TOL_BIC
    if residual_ok and tail_ok:
        verdict, conflict = Verdict.EXACT_BIC, False
    else:
        verdict, conflict = Verdict.QUASI_BIC, residual_ok != tail_ok
    return BicReport(
        energy=float(energy), verdict=verdict, real_poles=signed_poles,
        fourier_residuals=tuple(raw), projected_residuals=projected,
        peak_fourier=peak, residual_rel=residual_rel,
        tail_osc_amplitude=float(osc), tail_decay_rate=float(rate),
        tail_rel=float(tail_rel), conflict=conflict)


# --- parameter scans --------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    param: float
    energy: float | None
    residual_rel: float | None
    tail_rel: float | None
    verdict: str
    error: str | None = None


@dataclass(frozen=True)
class ScanTable:
    param_name: str
    rows: tuple[ScanRow, ...]
    minima: tuple[int, ...] = field(default=())

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["param", "energy", "residual_rel", "tail_rel", "verdict"])
        for row in self.rows:
            verdict = row.verdict if row.error is None else f"Error({row.error})"
            writer.writerow([
                f"{row.param:.12g}",
                "" if row.energy is None else f"{row.energy:.12g}",
                "" if row.residual_rel is None else f"{row.residual_rel:.6e}",
                "" if row.tail_rel is None else f"{row.tail_rel:.6e}",
                verdict,
            ])
        return buf.getvalue()


@warns_coverage_once
def scan_parameter(model_family: Callable[[float], BandModel],
                   potential_family: Callable[[float], PotentialSpec | Sequence],
                   param_name: str, lo: float, hi: float, steps: int, *,
                   grid: Grid, e_window: tuple[float, float] | Callable[[float], tuple[float, float]],
                   mesh_points: int = 48) -> ScanTable:
    """Sweep a parameter, solving and classifying at each value.

    Each point runs find_energy over its window and classifies the solution
    with the smallest projected residual. Rows that fail keep their error
    message; the scan continues. Local minima of residual_rel are flagged
    as candidate exact-BIC loci. Rows run one after another: a thread pool
    over rows measured slower (8-row scan, 2 cores: 9.44 s vs 8.19 s).

    Rows share their mesh eigensolves where solver.shared_mesh allows (see
    the solver module docstring). `scan --param scale` always does: it is
    one eigenvalue track, and its 41-row run took 1.3-1.5 s instead of
    2.8-3.0 s (6 in-process runs each on 2 shared vCPUs), its CSV
    byte-identical. Other rows solve their own mesh. The scan warns about
    grid coverage at most once, for the slowest rate any row records.
    """
    values = np.linspace(lo, hi, steps) if steps > 0 else np.array([])

    def run_one(value: float) -> ScanRow:
        try:
            model = model_family(value)
            potential = potential_family(value)
            window = e_window(value) if callable(e_window) else e_window
            reports = find_energy(model, grid, potential, window[0], window[1],
                                  mesh_points=mesh_points)
            rep, br = min(((r, classify(model, r.state, potential, r.energy))
                           for r in reports), key=lambda t: t[1].residual_rel)
            return ScanRow(param=value, energy=rep.energy,
                           residual_rel=br.residual_rel, tail_rel=br.tail_rel,
                           verdict=br.verdict.value)
        except BicforgeError as exc:
            return ScanRow(param=value, energy=None, residual_rel=None,
                           tail_rel=None, verdict="Error", error=str(exc))

    with shared_mesh():
        rows = tuple(run_one(float(v)) for v in values)

    res = [r.residual_rel if r.residual_rel is not None else np.inf for r in rows]
    minima = tuple(
        i for i in range(len(rows))
        if np.isfinite(res[i])
        and (i == 0 or res[i] <= res[i - 1])
        and (i == len(rows) - 1 or res[i] <= res[i + 1])
        and not (0 < i < len(rows) - 1 and res[i - 1] == res[i] == res[i + 1])
    )
    return ScanTable(param_name=param_name, rows=rows, minima=minima)
