"""Energy-domain Green's functions G_E(dx) built by residue calculus.

G_E(dx) = (1/2pi) Int (E - H0(p))^{-1} exp(i p dx) dp. The integrand is
adj(E - H0(p)) exp(i p dx) / f(p) with f the dispersion determinant, so the
integral is a sum over the momentum poles, one term per pole with residue
R_p = adj(E - H0(p)) / f'(p). Which side of the source a term lives on
follows from the sign of Im p alone:

* Im p > 0: i R_p exp(i p dx) for dx > 0 (contour closed above);
* Im p < 0: -i R_p exp(i p dx) for dx < 0 (contour closed below);
* real p: +/-(i/2) R_p exp(i p dx) with the sign of dx, the principal value
  (standing-wave prescription).

At dx = 0 each term takes the mean of its two sides. No pairing of poles is
needed, so a pole set without p -> -p symmetry (a linear-in-p term next to
a parallel constant term, or N > 2 bands) takes the same path.

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

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DegeneratePoles, GapViolation, ModelError, SingularG
from .models import BandModel
from .spectral import PoleLabel, dispersion_coeffs, poles, soc_poles

# Poles closer than this trigger DegeneratePoles: the residue weight 1/f'(p)
# blows up. Callers should offset the energy (e.g. by 1e-6 * gap).
DEGENERATE_POLE_TOL = 1e-7


@dataclass(frozen=True)
class KernelTerm:
    """The residue term of one momentum pole.

    A real pole has imag exactly 0; its profile is (i/2) sign(dx) R e^{ipdx}.
    A pole with Im p > 0 contributes i R e^{ipdx} on dx > 0, one with
    Im p < 0 contributes -i R e^{ipdx} on dx < 0, and both half of that at
    dx = 0.
    """

    pole: complex
    residue: np.ndarray


@dataclass(frozen=True)
class GreenKernel:
    """Residue decomposition of G_E, evaluable at any spatial separation."""

    energy: float
    n_bands: int
    terms: tuple[KernelTerm, ...]

    def evaluate(self, dx) -> np.ndarray:
        """Kernel matrices for an array of separations, shape (len, N, N)."""
        dx = np.atleast_1d(np.asarray(dx, dtype=float))
        out = np.zeros((dx.size, self.n_bands, self.n_bands), dtype=complex)
        sgn = np.sign(dx)
        for t in self.terms:
            # (i/2)(sign(dx) + sign(Im p)) is zero on the side a term does not
            # live on; its exponential is not evaluated there, where an
            # evanescent one overflows and inf * 0 would give NaN
            weight = 0.5j * (sgn + np.sign(t.pole.imag))
            live = weight != 0
            prof = np.zeros(dx.size, dtype=complex)
            prof[live] = weight[live] * np.exp(1j * t.pole * dx[live])
            out += prof[:, None, None] * t.residue
        return out

    def __call__(self, dx: float) -> np.ndarray:
        return self.evaluate([dx])[0]

    @property
    def decay_rate(self) -> float:
        """Slowest evanescent rate (min Im p over the upper poles)."""
        rates = [t.pole.imag for t in self.terms if t.pole.imag > 0]
        return min(rates) if rates else float("inf")

    @property
    def real_momenta(self) -> np.ndarray:
        """The real poles, signed and sorted."""
        return np.array(sorted(t.pole.real for t in self.terms if t.pole.imag == 0))


def _adjugate(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=complex)
    if n == 2:
        return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)
    cof = np.empty((n, n), dtype=complex)
    idx = np.arange(n)
    for i in range(n):
        for j in range(n):
            minor = m[np.ix_(idx != i, idx != j)]
            cof[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return cof.T


def residue_green(model: BandModel, energy: float) -> GreenKernel:
    """Generic kernel for any model: one term per momentum pole.

    Residue matrices are adj(E - H0(p)) / f'(p) at each pole; a pole labeled
    real keeps its real part only. Coincident poles (band edges) raise
    DegeneratePoles.
    """
    ps = poles(model, energy)
    roots = ps.roots
    tol = DEGENERATE_POLE_TOL * (1.0 + np.abs(roots).max())
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < tol:
                raise DegeneratePoles(
                    f"poles {roots[i]:.6g} and {roots[j]:.6g} coincide at E={energy:g}; "
                    "offset the energy")
    dcoeffs = npoly.polyder(dispersion_coeffs(model, energy))
    eye = np.eye(model.n_bands)
    terms = []
    for root, label in zip(roots, ps.labels):
        p = complex(root.real) if label is PoleLabel.REAL else complex(root)
        residue = _adjugate(energy * eye - model.h0(p)) / npoly.polyval(p, dcoeffs)
        terms.append(KernelTerm(pole=p, residue=residue))
    return GreenKernel(energy=energy, n_bands=model.n_bands, terms=tuple(terms))


def _standing_terms(q: float, m_sin: np.ndarray, m_cs: np.ndarray) -> list[KernelTerm]:
    """Real-pole terms +/-q whose sum is m_sin sin(q|dx|) + m_cs cos(q dx) sign(dx)."""
    return [KernelTerm(pole=complex(q), residue=-m_sin - 1j * m_cs),
            KernelTerm(pole=complex(-q), residue=m_sin - 1j * m_cs)]


def _evanescent_terms(kappa: float, m_even: np.ndarray,
                      m_odd: np.ndarray) -> list[KernelTerm]:
    """Poles +/-i kappa whose sum is (m_even + m_odd sign(dx)) exp(-kappa |dx|)."""
    return [KernelTerm(pole=1j * kappa, residue=-1j * (m_even + m_odd)),
            KernelTerm(pole=-1j * kappa, residue=1j * (m_even - m_odd))]


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
    a = -m / (2.0 * s * kappa)
    b = -m / (2.0 * s * p1)
    v1 = np.array([mu + s, g])
    v2 = np.array([mu - s, g])
    b1_mat = a * np.column_stack([v1, c0 * v1])
    b2_mat = b * np.column_stack([v2, d0 * v2])
    zero = np.zeros((2, 2))
    terms = _evanescent_terms(kappa, b1_mat, zero) + _standing_terms(p1, b2_mat, zero)
    return GreenKernel(energy=energy, n_bands=2, terms=tuple(terms))


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
    terms = _evanescent_terms(kap, m_even, m_odd) + _standing_terms(q, m_sin, m_cs)
    return GreenKernel(energy=energy, n_bands=2, terms=tuple(terms))


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
    jump = np.zeros((kernel.n_bands, kernel.n_bands), dtype=complex)
    for t in kernel.terms:
        jump -= t.pole * t.residue
    return jump
