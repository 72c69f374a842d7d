"""Closed-form bound, quasi-BIC, and critical-coupling solvers for delta potentials.

Conventions for the two-band constant-coupling family (a0 = mu*sigma_z +
g*sigma_x, s = sqrt(g^2 + mu^2)):

* spinor_loc = (mu + s, g) and spinor_ext = (mu - s, g) are the +s / -s
  eigenvectors of a0, kept in this (unnormalized) scaling so that the
  amplitude ratio amp_loc/amp_ext equals p_real/kappa for the
  single-channel delta coupling B = diag(lambda, 0).
* amplitudes are reported with amp_ext = 1; the quasi-BIC is not square
  integrable, so only the ratio is physical.
* wave functions: amp_loc*spinor_loc*exp(-kappa|x|)
  + amp_ext*spinor_ext*sin(p_real*x)*sign(x).

For a general Hermitian coupling matrix B the decay rate and amplitude
ratio follow from projecting the derivative-jump condition on the a0
eigenvectors: kappa = -m <v1|B|v1> / |v1|^2 and
a/b = p1 |v2|^2 / (m <v2|B|v1>). Both reduce to the single-channel forms at
B = diag(lambda, 0) and are verified against the jump condition directly
and against the independent grid solver.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ModelError, NoBoundState, ZeroExpression
from .grids import Grid, SpinorField

_RATIO_EPS = 1e-300


@dataclass(frozen=True)
class DeltaSolution:
    """Analytic solution of a delta-coupled band model.

    kappa is the decay rate of the localized component; p_real the momentum
    of the extended (standing sine) component, 0 when absent.
    """

    e_b: float
    p_real: float
    kappa: float
    spinor_loc: np.ndarray
    spinor_ext: np.ndarray
    amp_loc: float
    amp_ext: float
    in_gap: bool = True

    def sample(self, x: np.ndarray) -> np.ndarray:
        """Wave function on arbitrary positions, shape (len(x), N)."""
        x = np.asarray(x, dtype=float)
        loc = self.amp_loc * np.exp(-self.kappa * np.abs(x))[:, None] * self.spinor_loc
        ext = (self.amp_ext * np.sin(self.p_real * x) * np.sign(x))[:, None] * self.spinor_ext
        return loc + ext

    def field_on(self, grid: Grid) -> SpinorField:
        return SpinorField(grid=grid, values=self.sample(grid.x).astype(complex))

    def value_at_zero(self) -> np.ndarray:
        return self.amp_loc * self.spinor_loc.astype(complex)

    def derivative_jump(self) -> np.ndarray:
        """psi'(0+) - psi'(0-), exact from the analytic form."""
        one_sided = -self.kappa * self.amp_loc * self.spinor_loc \
            + self.p_real * self.amp_ext * self.spinor_ext
        return 2.0 * one_sided.astype(complex)


def _check_finite(**values: float) -> None:
    """ModelError naming the first closed-form value that overflowed."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise ModelError(f"closed-form {name} = {value:g} is not finite: "
                             "the parameters overflow")


def boundary_residual(solution: DeltaSolution, b: np.ndarray, mass: float) -> np.ndarray:
    """Left-hand side of the delta boundary condition, per channel.

    residual = -(1/2m) (psi'(0+) - psi'(0-)) + B psi(0); every component
    vanishes for a true eigenstate.
    """
    b = np.asarray(b, dtype=complex)
    return -solution.derivative_jump() / (2.0 * mass) + b @ solution.value_at_zero()


def single_band_bound(lam: float, mass: float) -> DeltaSolution:
    """Bound state of one band with an attractive delta of strength lam < 0."""
    if lam >= 0:
        raise NoBoundState("no bound state for repulsive delta (lambda >= 0)")
    if not mass > 0:
        raise ValueError("mass must be positive")
    e_b = -lam * lam * mass / 2.0
    kappa = mass * abs(lam)
    _check_finite(e_b=e_b, kappa=kappa)
    return DeltaSolution(
        e_b=e_b, p_real=0.0, kappa=kappa,
        spinor_loc=np.array([1.0]), spinor_ext=np.array([0.0]),
        amp_loc=1.0, amp_ext=0.0, in_gap=False,
    )


def extended_green_1d(energy: float, mass: float, x: float):
    """Standing-wave position kernel of one free band at energy > 0.

    (m/p0) * sin(p0 x) * sign(x) with p0 = sqrt(2 m E); zero at x = 0.
    """
    if energy <= 0:
        raise ValueError("extended kernel needs energy > 0")
    p0 = np.sqrt(2.0 * mass * energy)
    x = np.asarray(x, dtype=float)
    out = (mass / p0) * np.sin(p0 * x) * np.sign(x)
    return out if out.ndim else float(out)


def _gap(mu: float, g: float) -> float:
    s = float(np.hypot(mu, g))
    if s == 0.0:
        raise ZeroExpression("(mu, g) = (0, 0) has no gap")
    return s


def _spinors(mu: float, g: float, s: float) -> tuple[np.ndarray, np.ndarray]:
    """(spinor_loc, spinor_ext), the +s and -s eigenvectors of a0; at g = 0
    the -s one is the second channel."""
    spinor_ext = np.array([mu - s, g]) if g != 0.0 else np.array([0.0, 1.0])
    return np.array([mu + s, g]), spinor_ext


class TwoBandEnergy(NamedTuple):
    e_b: float
    in_gap: bool


def two_band_bound_energy(mu: float, g: float, lam: float, mass: float) -> TwoBandEnergy:
    """Quasi-BIC energy of the single-channel delta coupling.

    E_b = -(lam^2 m / 8)(1 + mu/s)^2 + s. The in_gap flag reports whether
    the result actually sits inside (-s, s); below lambda_critical it does
    not, and the value is the formula's continuation rather than the true
    (two-evanescent-component) bound energy.
    """
    s = _gap(mu, g)
    e_b = -(lam * lam * mass / 8.0) * (1.0 + mu / s) ** 2 + s
    _check_finite(e_b=e_b)
    return TwoBandEnergy(e_b=float(e_b), in_gap=bool(abs(e_b) < s))


def lambda_critical(mu: float, g: float, mass: float) -> float:
    """Coupling at which the quasi-BIC energy reaches the lower band edge -s."""
    s = _gap(mu, g)
    with np.errstate(all="ignore"):  # numpy's power is inf where Python's float power raises
        lam_c = -4.0 * np.float64(s) ** 1.5 / (np.sqrt(mass) * (s + mu))
    _check_finite(lambda_critical=lam_c)
    return float(lam_c)


def two_band_solution(mu: float, g: float, lam: float, mass: float) -> DeltaSolution:
    """Full quasi-BIC (or conventional-regime) solution for B = diag(lam, 0).

    Inside the window lambda_critical < lam < 0 the state mixes a localized
    component (rate kappa = m|lam|(1 + mu/s)/2) with an extended sine at
    p_real = sqrt(2m(E_b + s)), amplitude ratio amp_loc/amp_ext =
    p_real/kappa. When E_b falls at or below -s the extended component is
    dropped (amp_ext = 0) and the reported energy is the formula
    continuation.
    """
    if lam >= 0:
        raise NoBoundState("no bound state for repulsive delta (lambda >= 0)")
    s = _gap(mu, g)
    kappa = mass * abs(lam) * (1.0 + mu / s) / 2.0
    _check_finite(kappa=kappa)
    if kappa <= 0:
        raise ZeroExpression("delta channel decoupled from the upper band (kappa = 0)")
    e_b, in_gap = two_band_bound_energy(mu, g, lam, mass)
    spinor_loc, spinor_ext = _spinors(mu, g, s)
    if e_b + s > 0:
        p_real = float(np.sqrt(2.0 * mass * (e_b + s)))
    else:
        p_real = 0.0
    if in_gap:
        amp_ext = 1.0
        amp_loc = p_real / kappa
        if g == 0.0:
            amp_ext = 0.0
            amp_loc = 1.0
    else:
        amp_ext = 0.0
        amp_loc = 1.0
        p_real = 0.0
    return DeltaSolution(
        e_b=e_b, p_real=p_real, kappa=float(kappa),
        spinor_loc=spinor_loc, spinor_ext=spinor_ext,
        amp_loc=float(amp_loc), amp_ext=float(amp_ext), in_gap=in_gap,
    )


def bare_extended_mode(mu: float, g: float, lam: float, mass: float) -> DeltaSolution:
    """The extended sine component alone, at the quasi-BIC energy.

    Useful as a negative control: on its own it cannot satisfy the
    derivative-jump condition of the delta potential.
    """
    return replace(two_band_solution(mu, g, lam, mass), amp_loc=0.0, amp_ext=1.0)


class GeneralBResult(NamedTuple):
    kappa: float
    net_attractive: bool
    e_b: float
    amp_ratio: float      # amp_loc / amp_ext; inf when the extended channel decouples
    in_gap: bool


def general_b_kappa(b: np.ndarray, mu: float, g: float, mass: float) -> GeneralBResult:
    """Decay rate and energy for an arbitrary real-symmetric coupling matrix.

    kappa = m |b1 (s+mu) + 2 b2 g + b3 (s-mu)| / (2s); the sign of the
    unmodulused expression is exposed as net_attractive (it must be
    negative for a normalizable localized component). E_b = s - kappa^2/(2m).
    """
    b = np.asarray(b, dtype=float)
    # Python floats, so that an overflow is an inf refused below, not a warning
    b1, b2, b3 = float(b[0, 0]), float(b[0, 1]), float(b[1, 1])
    s = _gap(mu, g)
    expr = b1 * (s + mu) + 2.0 * b2 * g + b3 * (s - mu)
    if expr == 0.0:
        raise ZeroExpression("coupling combination vanishes: no localized component")
    kappa = mass * abs(expr) / (2.0 * s)
    e_b = s - kappa * kappa / (2.0 * mass)
    _check_finite(e_b=e_b, kappa=kappa)
    # a/b from projecting the jump condition on the -s eigenvector:
    # b * p1 |v2|^2 = m a <v2|B|v1>, with <v2|B|v1> = g(g(b3-b1) + 2 b2 mu).
    cross = g * (g * (b3 - b1) + 2.0 * b2 * mu)
    in_gap = abs(e_b) < s
    p1 = float(np.sqrt(2.0 * mass * (e_b + s))) if e_b + s > 0 else 0.0
    if abs(cross) < _RATIO_EPS:
        ratio = float("inf")
    elif mass * cross == 0.0:
        raise ModelError("closed-form amp_ratio divides by m <v2|B|v1>, which underflows to 0")
    else:
        ratio = p1 * 2.0 * s * (s - mu) / (mass * cross)
    return GeneralBResult(
        kappa=float(kappa), net_attractive=bool(expr < 0),
        e_b=float(e_b), amp_ratio=float(ratio), in_gap=bool(in_gap),
    )


def general_b_solution(b: np.ndarray, mu: float, g: float, mass: float) -> DeltaSolution:
    """DeltaSolution for a general coupling matrix (localized part requires
    net attraction)."""
    res = general_b_kappa(b, mu, g, mass)
    if not res.net_attractive:
        raise NoBoundState("coupling combination is net repulsive")
    s = _gap(mu, g)
    spinor_loc, spinor_ext = _spinors(mu, g, s)
    p1 = float(np.sqrt(2.0 * mass * (res.e_b + s))) if res.e_b + s > 0 else 0.0
    if res.in_gap and np.isfinite(res.amp_ratio) and res.amp_ratio != 0.0:
        amp_ext, amp_loc = 1.0, res.amp_ratio
    else:
        amp_ext, amp_loc = 0.0, 1.0
    return DeltaSolution(
        e_b=res.e_b, p_real=p1 if amp_ext else 0.0, kappa=res.kappa,
        spinor_loc=spinor_loc, spinor_ext=spinor_ext,
        amp_loc=float(amp_loc), amp_ext=float(amp_ext), in_gap=res.in_gap,
    )
