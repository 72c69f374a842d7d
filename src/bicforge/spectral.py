"""Momentum poles of the free Hamiltonian and spectral-region classification.

At fixed energy the poles are the 2N momenta p where E - H0(p) is singular.
They decide everything downstream: real poles carry extended standing-wave
components, complex poles carry evanescent ones, and the window with both
kinds is the only place a (quasi-)BIC can live.

E - H0(p) = -(1/2m) [p^2 I + 2m a1 p - 2m (E - a0)] is a monic matrix
quadratic, so its poles are the eigenvalues of the companion linearisation
L(E) = [[0, I], [2m (E - a0), -2m a1]], whose eigenvector at p is (v, p v)
with (E - H0(p)) v = 0 (Tisseur and Meerbergen, SIAM Rev. 43, 235 (2001)).

poles is the batch of one energy of poles_many, which serves a whole energy
mesh with one stacked eigensolve of the pencils. Each energy of a batch
gets the bits it gets alone: numpy's batched eigvals rounds as single calls
do.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ComplexInnerRoot, DegeneratePolynomial
from .models import BandModel

# A root counts as real when its imaginary part is below this times (1+|Re|).
# Pencil eigenvalues of small models (2N <= ~12) are accurate far beyond 1e-9.
REAL_POLE_TOL = 1e-9


class PoleLabel(str, Enum):
    REAL = "Real"
    UPPER = "UpperHalf"
    LOWER = "LowerHalf"


class RegionTag(str, Enum):
    ALL_REAL = "AllReal"
    MIXED = "Mixed"
    ALL_COMPLEX = "AllComplex"


@dataclass(frozen=True)
class PoleSet:
    """All 2N momentum poles of E - H0(p) at one energy."""

    energy: float
    roots: np.ndarray           # complex, sorted by (|Im|, Re, Im)
    labels: tuple[PoleLabel, ...]

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

    Poles are the eigenvalues of the pencil L(E), sorted deterministically
    by (|Im|, Re, Im) so reports diff cleanly.
    """
    return poles_many(model, [energy])[0]


def poles_many(model: BandModel, energies) -> list[PoleSet]:
    """poles at a sequence of energies: one stacked eigensolve of the
    pencils L(E), sorted and labelled per batch. DegeneratePolynomial names
    the first energy whose pencil has a non-finite entry."""
    n = model.n_bands
    es = np.asarray(energies, dtype=float)
    two_m = 2.0 * model.mass
    pencil = np.zeros((es.size, 2 * n, 2 * n), dtype=complex)
    pencil[:, :n, n:] = np.eye(n)
    # an overflow shows as a non-finite entry, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        pencil[:, n:, :n] = two_m * (es[:, None, None] * np.eye(n) - model.a0)
        pencil[:, n:, n:] = -two_m * model.a1
    finite = np.isfinite(pencil).all(axis=(1, 2))
    if not finite.all():
        raise DegeneratePolynomial(f"the pencil of E - H0(p) is not finite at energy "
                                   f"{es[~finite][0]:g}")
    # a real pencil keeps real arithmetic, whose complex poles come in exact
    # conjugate pairs
    roots = np.linalg.eigvals(pencil if pencil.imag.any() else pencil.real).astype(complex)
    real = ~roots.imag.any(axis=1)
    order = np.lexsort((roots.imag, roots.real, np.abs(roots.imag)))
    roots = roots[np.arange(es.size)[:, None], order]
    codes = np.where(np.abs(roots.imag) < REAL_POLE_TOL * (1.0 + np.abs(roots.real)),
                     2, roots.imag > 0).tolist()
    return [PoleSet(energy=e, roots=r.real.copy() if is_real else r,
                    labels=tuple(_LABELS[c] for c in code))
            for e, r, is_real, code in zip(energies, roots, real, codes)]


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
