"""Dispersion determinant, momentum poles, and spectral-region classification.

At fixed energy E the determinant det(E - H0(p)) is a degree-2N polynomial
in p. Its roots (the momentum poles) decide everything downstream: real
poles carry extended standing-wave components, complex poles carry
evanescent ones, and the window with both kinds is the only place a
(quasi-)BIC can live.

dispersion_coeffs and poles are batches of one energy of their _many forms,
which serve a whole energy mesh with one h0_many over every (energy,
sample) point, one stacked determinant, one FFT along the sample axis and
one stacked companion eigensolve. Each energy of a batch gets the bits it
gets alone: numpy's batched det, eigvals and fft round as single calls do.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ComplexInnerRoot, DegeneratePolynomial
from .models import BandModel

# A root counts as real when its imaginary part is below this times (1+|Re|).
# Companion-matrix roots at degree <= ~12 are accurate far beyond 1e-9.
REAL_POLE_TOL = 1e-9


class PoleLabel(str, Enum):
    REAL = "Real"
    UPPER = "UpperHalf"
    LOWER = "LowerHalf"


class RegionTag(str, Enum):
    ALL_REAL = "AllReal"
    MIXED = "Mixed"
    ALL_COMPLEX = "AllComplex"


def dispersion_coeffs(model: BandModel, energy: float) -> np.ndarray:
    """Coefficients (ascending order) of det(E*I - H0(p)) as a polynomial in p.

    The determinant is sampled on a circle of 2N+1 points in the complex
    p-plane and inverted with a discrete Fourier transform; this is exact
    for a polynomial of known degree and avoids symbolic expansion. The
    leading coefficient is (-1/(2m))^N, and all coefficients are real
    because the matrix is Hermitian for real p. DegeneratePolynomial when
    the leading coefficient underflows or any coefficient is not finite.
    """
    return dispersion_coeffs_many(model, [energy])[0]


def dispersion_coeffs_many(model: BandModel, energies) -> np.ndarray:
    """dispersion_coeffs at a sequence of energies, shape (len, 2N+1): one
    h0_many over every (energy, sample) point, one stacked determinant and
    one FFT along the sample axis."""
    n = model.n_bands
    deg = 2 * n
    lead = (-1.0 / (2.0 * model.mass)) ** n
    if abs(lead) < np.finfo(float).tiny * 1e4:
        raise DegeneratePolynomial("leading dispersion coefficient underflows")
    es = np.asarray(energies, dtype=float)
    # Sampling radius near the natural momentum scale keeps the DFT inversion
    # well conditioned.
    scale = float(np.abs(model.a0).max() + np.abs(model.a1).max())
    radius = (1.0 + np.sqrt(2.0 * model.mass * (np.abs(es) + scale)))[:, None]
    k = np.arange(deg + 1)
    pts = radius * np.exp(2j * np.pi * k / (deg + 1))
    # an overflow shows as a non-finite coefficient, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        h0 = model.h0_many(pts.reshape(-1)).reshape(es.size, deg + 1, n, n)
        vals = np.linalg.det(es[:, None, None, None] * np.eye(n) - h0)
        coeffs = np.fft.fft(vals, axis=-1) / (deg + 1)
        coeffs = coeffs / radius ** k
    coeffs = coeffs.real  # imaginary parts are pure roundoff
    coeffs[:, -1] = lead  # known exactly
    finite = np.isfinite(coeffs).all(axis=1)
    if not finite.all():
        raise DegeneratePolynomial(f"dispersion coefficients are not finite at energy "
                                   f"{es[~finite][0]:g}")
    return coeffs


@dataclass(frozen=True)
class PoleSet:
    """All 2N momentum roots of the dispersion determinant at one energy."""

    energy: float
    roots: np.ndarray           # complex, sorted by (|Im|, Re, Im)
    labels: tuple[PoleLabel, ...]
    coeffs: np.ndarray          # the dispersion polynomial they are roots of

    @property
    def real_poles(self) -> np.ndarray:
        """Real parts of the Real-labeled roots (tiny imaginary noise dropped)."""
        mask = [lab is PoleLabel.REAL for lab in self.labels]
        return np.sort(self.roots[mask].real)

    @property
    def upper_poles(self) -> np.ndarray:
        mask = [lab is PoleLabel.UPPER for lab in self.labels]
        return self.roots[mask]

    @property
    def lower_poles(self) -> np.ndarray:
        mask = [lab is PoleLabel.LOWER for lab in self.labels]
        return self.roots[mask]


_LABELS = (PoleLabel.LOWER, PoleLabel.UPPER, PoleLabel.REAL)


def poles(model: BandModel, energy: float) -> PoleSet:
    """Find and classify all momentum poles at the given energy.

    Roots are the eigenvalues of the companion matrix of the dispersion
    polynomial (as numpy.polynomial.polyroots builds it), sorted
    deterministically by (|Im|, Re, Im) so reports diff cleanly.
    """
    return poles_many(model, [energy])[0]


def poles_many(model: BandModel, energies) -> list[PoleSet]:
    """poles at a sequence of energies: one dispersion_coeffs_many and one
    stacked companion eigensolve, sorted and labelled per batch."""
    coeffs = dispersion_coeffs_many(model, energies)
    count, deg = coeffs.shape[0], coeffs.shape[1] - 1
    comp = np.zeros((count, deg, deg))
    comp.reshape(count, deg * deg)[:, deg::deg + 1] = 1.0
    comp[:, :, -1] -= coeffs[:, :-1] / coeffs[:, -1:]
    roots = np.linalg.eigvals(comp).astype(complex)
    real = ~roots.imag.any(axis=1)
    order = np.lexsort((roots.imag, roots.real, np.abs(roots.imag)))
    roots = roots[np.arange(count)[:, None], order]
    codes = np.where(np.abs(roots.imag) < REAL_POLE_TOL * (1.0 + np.abs(roots.real)),
                     2, roots.imag > 0).tolist()
    return [PoleSet(energy=e, roots=r.real.copy() if is_real else r,
                    labels=tuple(_LABELS[c] for c in code), coeffs=c_row)
            for e, r, is_real, code, c_row in zip(energies, roots, real, codes, coeffs)]


@dataclass(frozen=True)
class EnergyRegion:
    """Classification of an energy by its pole content.

    gap_lo/gap_hi are the band edges of the Mixed window for constant
    coupling (a1 = 0): the sorted extreme eigenvalues of a0. They are None
    when the model has a linear-in-p term.
    """

    tag: RegionTag
    gap_lo: float | None = None
    gap_hi: float | None = None


def classify_region(model: BandModel, energy: float) -> EnergyRegion:
    ps = poles(model, energy)
    n_real = sum(lab is PoleLabel.REAL for lab in ps.labels)
    if n_real == len(ps.labels):
        tag = RegionTag.ALL_REAL
    elif n_real == 0:
        tag = RegionTag.ALL_COMPLEX
    else:
        tag = RegionTag.MIXED
    gap_lo = gap_hi = None
    if not model.has_linear_term:
        evals = np.linalg.eigvalsh(model.a0)
        gap_lo, gap_hi = float(evals[0]), float(evals[-1])
    return EnergyRegion(tag=tag, gap_lo=gap_lo, gap_hi=gap_hi)


def soc_poles(gamma: float, mu: float, mass: float, energy: float) -> tuple[complex, complex]:
    """Closed-form pole pair of the spin-orbit model a0 = mu*sigma_z, a1 = gamma*sigma_y.

    Returns (p_plus, p_minus) with p_pm = sqrt(2m) * sqrt(E + gamma^2 m
    +/- sqrt(2 E m gamma^2 + m^2 gamma^4 + mu^2)). Each branch is the
    principal square root, so a negative outer radicand comes back as a
    positive imaginary momentum.
    """
    inner = 2.0 * energy * mass * gamma**2 + mass**2 * gamma**4 + mu**2
    if inner < 0:
        raise ComplexInnerRoot(f"inner radicand {inner:g} < 0")
    root = np.sqrt(inner)
    p_plus = np.sqrt(2.0 * mass) * np.emath.sqrt(energy + gamma**2 * mass + root)
    p_minus = np.sqrt(2.0 * mass) * np.emath.sqrt(energy + gamma**2 * mass - root)
    return complex(p_plus), complex(p_minus)
