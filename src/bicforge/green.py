"""Energy-domain Green's functions G_E(dx) built by residue calculus.

G_E(dx) = (1/2pi) Int Q(p)^{-1} exp(i p dx) dp with Q(p) = E - H0(p), so
the integral is a sum over the momentum poles, one term per pole with the
residue of Q^{-1} there. At a simple pole that residue is
R_p = v w^H / (w^H Q'(p) v), Q'(p) = -a1 - (p/m) I, with v and w the right
and left null vectors of Q(p). Which side of the source a term lives on
follows from the sign of Im p alone:

* Im p > 0: i R_p exp(i p dx) for dx > 0 (contour closed above);
* Im p < 0: -i R_p exp(i p dx) for dx < 0 (contour closed below);
* real p: +/-(i/2) R_p exp(i p dx) with the sign of dx, the principal value
  (standing-wave prescription).

At dx = 0 each term takes the mean of its two sides. No pairing of poles is
needed, so a pole set without p -> -p symmetry (a linear-in-p term next to
a parallel constant term, or N > 2 bands) takes the same path.

A GreenKernel holds its 2N poles as one array and their residues as
another. residue_green is the batch of one energy of residue_green_many,
which builds the kernels of a whole energy mesh from one pole_arrays and
one stacked SVD of Q(p) over every pole of every energy, whose last
singular vectors are v and w. Each kernel has the bits of its energy alone,
and the first energy in order whose poles coincide raises its own
DegeneratePoles. GreenKernel.evaluate is likewise the batch of one kernel
of evaluate_many, which evaluates every kernel, pole and separation in one
masked pass; evaluate_uniform gives the same values at the separations of
a uniform grid from per-step factors. Both add the terms in pole order,
elementwise, so a kernel's values do not depend on the batch around it.

For a single band this reproduces (m/p0) sin(p0 dx) sign(dx) above the band
and -(m/kappa) exp(-kappa |dx|) below it. The derivative jump
G'(0+) - G'(0-) = +2m I encodes the unit delta source of (E - H0) G = delta.

Two closed-form constructors (constant coupling and spin-orbit) provide
independent cross-check targets for the generic residue route. The
spin-orbit coefficients are derived from the residues themselves; the
defining-identity test pins them down unambiguously (a sometimes-quoted
variant with bare mu*sigma_z pieces, lacking the residue denominators,
fails it -- the kernel-check table reports that comparison).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import DegeneratePoles, GapViolation, ModelError, SingularG
from .models import BandModel
# poles stays bound here: bench/test_bench.py pins green.poles as a tracer binding site
from .spectral import pole_arrays, poles, soc_poles  # noqa: F401

# Poles closer than this trigger DegeneratePoles: the residue weight
# 1/(w^H Q'(p) v) blows up. Callers should offset the energy (e.g. by 1e-6 * gap).
DEGENERATE_POLE_TOL = 1e-7


@dataclass(frozen=True)
class GreenKernel:
    """Residue decomposition of G_E, evaluable at any spatial separation:
    the 2N momentum poles, shape (2N,), and the residue of Q^{-1} at each,
    shape (2N, N, N). A real pole has imag exactly 0; its term is
    (i/2) sign(dx) R e^{ipdx}. A pole with Im p > 0 contributes i R e^{ipdx}
    on dx > 0, one with Im p < 0 contributes -i R e^{ipdx} on dx < 0, and
    both half of that at dx = 0."""

    energy: float
    n_bands: int
    poles: np.ndarray
    residues: np.ndarray

    def evaluate(self, dx, rows=None, cols=None) -> np.ndarray:
        """Kernel matrices for an array of separations, shape (len, N, N);
        channel index arrays rows and cols, given together, evaluate only
        that block."""
        return evaluate_many([self], dx, rows, cols)[0]

    def __call__(self, dx: float) -> np.ndarray:
        return self.evaluate([dx])[0]

    @property
    def decay_rate(self) -> float:
        """Slowest evanescent rate (min Im p over the upper poles)."""
        rates = self.poles.imag
        return float(rates[rates > 0].min(initial=np.inf))

    @property
    def real_momenta(self) -> np.ndarray:
        """The real poles, signed and sorted."""
        return np.sort(self.poles.real[self.poles.imag == 0])


def _stack(kernels, rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """The poles (2N, kernels) and residue blocks (2N, kernels, R, C) of
    kernels with equally many poles, pole index first."""
    if len({k.poles.size for k in kernels}) != 1:
        raise ValueError("kernels need equally many poles")
    poles = np.array([k.poles for k in kernels]).T
    res = np.array([k.residues for k in kernels]).swapaxes(0, 1)
    return poles, res if rows is None else res[..., rows, :][..., cols]


def _weights(sign_dx, poles: np.ndarray) -> np.ndarray:
    """(i/2)(sign(dx) + sign(Im p)), the weight of each pole's term on the
    side sign_dx: zero where the term does not live, and its exponential,
    which an evanescent term overflows there, is not evaluated (inf * 0
    would give NaN)."""
    return 0.5j * (sign_dx + np.sign(poles.imag))


def _exp_live(phase: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """exp(phase) where weight is nonzero, 0 elsewhere."""
    return np.exp(phase, where=weight != 0, out=np.zeros(phase.shape, dtype=complex))


def _pole_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the leading (pole) axis of a * b, broadcast. The products
    fill a C-contiguous array, whose float view numpy reduces one pole
    slice at a time, in pole order: an entry's bits do not depend on the
    batch around it, and no BLAS call runs."""
    return np.multiply(a, b, order="C").view(float).sum(axis=0).view(complex)


def evaluate_many(kernels, dx, rows=None, cols=None) -> np.ndarray:
    """GreenKernel.evaluate of kernels with equally many poles at one array
    of separations, shape (len(kernels), len(dx), ...), in one masked pass
    over every kernel, pole and separation."""
    poles, res = _stack(kernels, rows, cols)
    dx = np.atleast_1d(np.asarray(dx, dtype=float))
    weight = _weights(np.sign(dx), poles[..., None])
    prof = weight * _exp_live(1j * poles[..., None] * dx, weight)
    return _pole_sum(prof[..., None, None], res[:, :, None])


def evaluate_uniform(kernels, n: int, dx: float, rows=None, cols=None) -> np.ndarray:
    """evaluate_many at the separations dx*d of n sites, d = i - j at index
    d + (n-1) on the second axis, shape (len(kernels), 2n - 1, ...).

    On its side s = +/-1 a term's exponential at |d| = aB + b, B =
    ceil(sqrt(n)), is e^{i p dx s B a} e^{i p dx s b}: two tables of about
    sqrt(n) exponentials each, evaluated only on the side where the term
    lives, where both have modulus at most 1. dx = 0 takes the mean of the
    two sides, as every term does.
    """
    poles, res = _stack(kernels, rows, cols)
    block = isqrt(n - 1) + 1
    sides = np.array([1.0, -1.0])[:, None]
    weight = _weights(sides, poles[:, None])                         # (2N, 2, K)
    step = 1j * dx * sides * poles[:, None]
    fine = _exp_live(step[..., None] * np.arange(block), weight[..., None])
    coarse = weight[..., None] * _exp_live(
        step[..., None] * (block * np.arange(-(-n // block))), weight[..., None])
    coarse = coarse[..., None, None] * res[:, None, :, None]        # (2N, 2, K, A, R, C)
    sums = _pole_sum(coarse[:, :, :, :, None], fine[:, :, :, None, :, None, None])
    sums = sums.reshape(sums.shape[:2] + (-1,) + sums.shape[-2:])[:, :, :n]
    center = 0.5 * (sums[0, :, :1] + sums[1, :, :1])
    return np.concatenate([sums[1, :, :0:-1], center, sums[0, :, 1:]], axis=1)


def residue_green(model: BandModel, energy: float) -> GreenKernel:
    """Generic kernel for any model: one term per momentum pole.

    Residue matrices are v w^H / (w^H Q'(p) v) at each pole; a pole
    labeled real keeps its real part only. Coincident poles (band edges)
    raise DegeneratePoles.
    """
    return residue_green_many(model, [energy])[0]


def _check_distinct(roots: np.ndarray, energy: float) -> None:
    if not roots.imag.any():
        roots = roots.real  # the roots as poles() reports them, for the message
    tol = DEGENERATE_POLE_TOL * (1.0 + np.abs(roots).max())
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < tol:
                raise DegeneratePoles(
                    f"poles {roots[i]:.6g} and {roots[j]:.6g} coincide at E={energy:g}; "
                    "offset the energy", energy=energy)


def residue_green_many(model: BandModel, energies) -> list[GreenKernel]:
    """residue_green at a sequence of energies, from one pole_arrays and one
    stacked SVD of Q(p) over every pole of every energy, each kernel's
    arrays a slice of the stacked result. The first energy, in order, whose
    poles coincide raises DegeneratePoles, with the message it raises
    alone."""
    n = model.n_bands
    roots, real = pole_arrays(model, energies)
    # a screen at twice the tolerance of the batch's largest pole, which
    # every root passes against itself; _check_distinct decides with scalar
    # arithmetic, whose rounding the vectorised abs does not share
    tol = 2.0 * DEGENERATE_POLE_TOL * (1.0 + np.abs(roots).max(initial=0.0))
    close = np.abs(roots[:, :, None] - roots[:, None, :]) < tol
    if close.sum() > close.shape[0] * 2 * n:
        for e in np.flatnonzero(close.sum(axis=(1, 2)) > 2 * n):
            _check_distinct(roots[e], energies[e])
    moms = np.where(real, roots.real, roots)
    flat = moms.reshape(-1)
    eye = np.eye(n)
    shift = np.repeat(np.asarray(energies, dtype=float), 2 * n)
    u, _, vh = np.linalg.svd(shift[:, None, None] * eye - model.h0_many(flat))
    v, w = vh[:, -1].conj(), u[:, :, -1].conj()
    dq = -model.a1 - (flat / model.mass)[:, None, None] * eye
    res = v[:, :, None] * w[:, None, :] / np.einsum("ki,kij,kj->k", w, dq, v)[:, None, None]
    return [GreenKernel(energy=e, n_bands=n, poles=p, residues=r)
            for e, p, r in zip(energies, moms, res.reshape(moms.shape + (n, n)))]


def _closed_form(energy: float, kappa: float, m_even: np.ndarray, m_odd: np.ndarray,
                 q: float, m_sin: np.ndarray, m_cs: np.ndarray) -> GreenKernel:
    """Two-band kernel of the poles (i kappa, -i kappa, q, -q): the first two
    sum to (m_even + m_odd sign(dx)) exp(-kappa |dx|), the real pair to
    m_sin sin(q|dx|) + m_cs cos(q dx) sign(dx)."""
    return GreenKernel(
        energy=energy, n_bands=2,
        poles=np.array([1j * kappa, -1j * kappa, q, -q], dtype=complex),
        residues=np.array([-1j * (m_even + m_odd), 1j * (m_even - m_odd),
                           -m_sin - 1j * m_cs, m_sin - 1j * m_cs], dtype=complex))


def _constant_a_params(model: BandModel) -> tuple[float, float]:
    a0 = model.a0
    if model.n_bands != 2 or model.has_linear_term:
        raise ModelError("constant-coupling kernel needs 2 bands and a1 = 0")
    if abs(a0[0, 0] + a0[1, 1]) > 1e-12 or abs(a0[0, 1].imag) > 1e-12:
        raise ModelError("a0 must be mu*sigma_z + g*sigma_x")
    return float(a0[0, 0].real), float(a0[0, 1].real)


def constantA_kernel(model: BandModel, energy: float) -> GreenKernel:
    """Closed-form in-gap kernel of the constant-coupling two-band model.

    With s = sqrt(g^2 + mu^2), v1 = (mu+s, g), v2 = (mu-s, g):

      G(dx) = a [v1 | c0 v1] exp(-|p2| |dx|) + b [v2 | d0 v2] sin(p1 |dx|)

    where c0 = (-mu+s)/g, d0 = (-mu-s)/g, a = -m/(2 s |p2|),
    b = -m/(2 s p1), |p2| = sqrt(2m(s-E)), p1 = sqrt(2m(E+s)). This equals
    the spectral decomposition -(m/|p2|) exp * P(+s) + (m/p1) sin * P(-s)
    with P the a0 eigenprojectors, and must agree with residue_green
    elementwise; that agreement is the module's main cross-check.
    """
    mu, g = _constant_a_params(model)
    if g == 0.0:
        raise SingularG("c0, d0 undefined at g = 0; use residue_green")
    s = float(np.hypot(mu, g))
    if not (-s < energy < s):
        raise GapViolation(f"E={energy:g} outside the gap (-{s:g}, {s:g})")
    m = model.mass
    kappa = np.sqrt(2.0 * m * (s - energy))
    p1 = np.sqrt(2.0 * m * (energy + s))
    if kappa < DEGENERATE_POLE_TOL or p1 < DEGENERATE_POLE_TOL:
        raise DegeneratePoles("energy too close to a band edge")
    c0 = (-mu + s) / g
    d0 = (-mu - s) / g
    if not (np.isfinite(c0) and np.isfinite(d0)):
        raise SingularG(f"c0, d0 overflow at g = {g:g}; use residue_green")
    a = -m / (2.0 * s * kappa)
    b = -m / (2.0 * s * p1)
    v1 = np.array([mu + s, g])
    v2 = np.array([mu - s, g])
    b1_mat = a * np.column_stack([v1, c0 * v1])
    b2_mat = b * np.column_stack([v2, d0 * v2])
    zero = np.zeros((2, 2))
    return _closed_form(energy, kappa, b1_mat, zero, p1, b2_mat, zero)


def _soc_params(model: BandModel) -> tuple[float, float]:
    if model.n_bands != 2:
        raise ModelError("spin-orbit kernel needs 2 bands")
    a0, a1 = model.a0, model.a1
    if abs(a0[0, 0] + a0[1, 1]) > 1e-12 or abs(a0[0, 1]) > 1e-12:
        raise ModelError("a0 must be mu*sigma_z")
    if abs(a1[0, 0]) > 1e-12 or abs(a1[1, 1]) > 1e-12 or abs(a1[1, 0].real) > 1e-12:
        raise ModelError("a1 must be gamma*sigma_y")
    return float(a0[0, 0].real), float(a1[1, 0].imag)


def soc_kernel(model: BandModel, energy: float) -> GreenKernel:
    """Closed-form mixed-region kernel of the spin-orbit model.

    The pole pairs are q (real) and i*kap (evanescent) from the closed-form
    branches. With S = sqrt(2 E m g^2 + m^2 g^4 + mu^2), w(p) = E - p^2/2m:

      exp term   -(m/(2 kap S)) (w(i kap) I + mu sigma_z)
                 - (m/(2S)) i g sigma_y * sign(dx)
      sine term  -(m/(2 q S)) (w(q) I + mu sigma_z)
      cos*sign   +(m/(2S)) i g sigma_y

    Derived by evaluating adj/f' at the four poles and folding +/- partners;
    the kernel stores them unfolded again, one term per pole.
    The gamma-odd pieces coincide with the commonly quoted variant of this
    kernel; the mu sigma_z pieces here carry the 1/(pole * (q^2 + kap^2))
    residue weights that the bare variant omits (compared in kernel-check).
    """
    mu, gamma = _soc_params(model)
    m = model.mass
    p_plus, p_minus = soc_poles(gamma, mu, m, energy)
    if abs(p_plus.imag) > 1e-12 or abs(p_minus.real) > 1e-12 or p_minus.imag <= 0:
        raise GapViolation(
            f"E={energy:g} is not in the mixed-pole window (|E| < {abs(mu):g})")
    q = p_plus.real
    kap = p_minus.imag
    inner = 2.0 * energy * m * gamma**2 + m**2 * gamma**4 + mu**2
    s_root = np.sqrt(inner)
    if s_root < DEGENERATE_POLE_TOL or q < DEGENERATE_POLE_TOL or kap < DEGENERATE_POLE_TOL:
        raise DegeneratePoles("pole pair degenerates at this energy")
    eye = np.eye(2)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    isy = np.array([[0.0, 1.0], [-1.0, 0.0]])  # i*sigma_y, real
    w_q = energy - q * q / (2.0 * m)
    w_e = energy + kap * kap / (2.0 * m)
    m_sin = -(m / (2.0 * q * s_root)) * (w_q * eye + mu * sz)
    m_cs = (m / (2.0 * s_root)) * gamma * isy
    m_even = -(m / (2.0 * kap * s_root)) * (w_e * eye + mu * sz)
    m_odd = -(m / (2.0 * s_root)) * gamma * isy
    return _closed_form(energy, kap, m_even, m_odd, q, m_sin, m_cs)


def apply_inverse_operator(model: BandModel, kernel: GreenKernel, dx_at: float,
                           step: float = 1e-3) -> np.ndarray:
    """(E - H0) applied to the kernel at a separation away from 0.

    Second derivative by 5-point stencil, first derivative (for the
    linear-in-p term) by central differences. For a true Green's function
    the result vanishes to O(step^2) anywhere off the source point.
    """
    if abs(dx_at) < 3 * step:
        raise ValueError("evaluation point must stay away from the source kink")
    offs = np.array([-2, -1, 0, 1, 2]) * step + dx_at
    gs = kernel.evaluate(offs)
    d2 = (-gs[4] + 16 * gs[3] - 30 * gs[2] + 16 * gs[1] - gs[0]) / (12 * step**2)
    d1 = (gs[3] - gs[1]) / (2 * step)
    g0 = gs[2]
    return (kernel.energy * g0 + d2 / (2.0 * model.mass)
            - model.a0 @ g0 + 1j * (model.a1 @ d1))


def derivative_jump(kernel: GreenKernel) -> np.ndarray:
    """G'(0+) - G'(0-), exact from the term structure; equals +2m I.

    Every term, on either side and real or not, contributes -p R_p.
    """
    return _pole_sum(-kernel.poles[:, None, None], kernel.residues)
