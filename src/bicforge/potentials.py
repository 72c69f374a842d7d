"""Confining potential families and their grid sampling.

Variants:
  Delta(strength)        -- point interaction, represented on a grid as a
                            single site strength/dx at the sample nearest 0
  SocBic(gamma, nu)      -- the reflectionless-style cosh-ratio well that
                            hosts an exact BIC in the spin-orbit model
  Tabulated(x, v)        -- numeric table, linearly interpolated
  Scaled(base, factor)   -- pointwise rescaling of any other variant

coupling_terms() turns either potential input form -- one spec acting
through the model's coupling matrix B, or a per-channel list -- into one
list of terms [(V_k, B_k)], so that the coupling is sum_k V_k(x) B_k.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .errors import InvalidRadicand, ModelError, SingularDenominator
from .grids import Grid


@dataclass(frozen=True)
class Delta:
    strength: float


@dataclass(frozen=True)
class SocBic:
    gamma: float
    nu: float

    def __post_init__(self):
        try:
            g2n2 = self.gamma**2 * self.nu**2
        except OverflowError:
            raise InvalidRadicand(f"gamma^2 nu^2 overflows at gamma = {self.gamma:g}, "
                                  f"nu = {self.nu:g}") from None
        if 1.0 - g2n2 <= 0:
            raise InvalidRadicand(f"gamma^2 nu^2 = {g2n2:g} must be < 1")
        if self.alpha_prime <= self.nu**2:
            raise SingularDenominator(
                f"nu^2 = {self.nu**2:g} must be < alpha' = {self.alpha_prime:g}")

    @property
    def alpha(self) -> float:
        return self.gamma**2 + 2.0 * self.nu**2 + np.sqrt(1.0 - self.gamma**2 * self.nu**2)

    @property
    def alpha_prime(self) -> float:
        return 1.0 + np.sqrt(1.0 - self.gamma**2 * self.nu**2)


@dataclass(frozen=True)
class Tabulated:
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if x.ndim != 1 or x.shape != v.shape:
            raise ValueError("tabulated potential needs matching 1-D x and v")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise ValueError("tabulated potential values must be finite")
        if np.any(np.diff(x) <= 0):
            raise ValueError("tabulated x must be strictly increasing")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class Scaled:
    base: "PotentialSpec"
    factor: float


PotentialSpec = Union[Delta, SocBic, Tabulated, Scaled]


def potential_soc_bic(gamma: float, nu: float, x) -> np.ndarray | float:
    """Evaluate the exact-BIC well V(x) = 2 nu^2 [3 nu^2 - a cosh^2(nu x)]
    / (cosh^2(nu x) [a' cosh^2(nu x) - nu^2]).

    Even in x, decays like exp(-2 nu |x|). Requires gamma^2 nu^2 < 1, so
    that a' = 1 + sqrt(1 - gamma^2 nu^2) is real, and nu^2 < a', so that the
    denominator is strictly positive: its least value, at x = 0, is a' - nu^2.
    Where cosh^2(nu x) overflows, past |nu x| ~ 355, the formula reads
    inf/inf; V is 0 there, the double value of its limit.
    """
    spec = SocBic(gamma, nu)  # validates both conditions
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        c2 = np.cosh(nu * x) ** 2
        out = 2.0 * nu**2 * (3.0 * nu**2 - spec.alpha * c2) / (c2 * (spec.alpha_prime * c2 - nu**2))
    out = np.where(np.isnan(out), 0.0, out)
    return out if out.ndim else float(out)


def e_bic_analytic(gamma: float, nu: float, mu: float) -> float:
    """Embedded-eigenvalue energy of the SocBic well: -nu^2/2 + sqrt(mu^2 - nu^2 gamma^2)."""
    try:
        rad = mu**2 - nu**2 * gamma**2
    except OverflowError:
        raise InvalidRadicand(f"mu^2 - nu^2 gamma^2 overflows at gamma = {gamma:g}, "
                              f"nu = {nu:g}, mu = {mu:g}") from None
    if rad <= 0:
        raise InvalidRadicand(f"mu^2 - nu^2 gamma^2 = {rad:g} must be > 0")
    return float(-nu**2 / 2.0 + np.sqrt(rad))


def sample_potential(spec: PotentialSpec, grid: Grid) -> np.ndarray:
    """Potential values on the grid; deltas become a single-site spike.

    The spike strength/dx sits at the sample nearest 0 so that the
    quadrature integral of V reproduces the point strength exactly; a
    sample that is not finite is a ModelError.
    """
    with np.errstate(over="ignore"):
        if isinstance(spec, Delta):
            v = np.zeros(grid.n_points)
            v[grid.center_index()] = spec.strength / grid.dx
        elif isinstance(spec, SocBic):
            v = potential_soc_bic(spec.gamma, spec.nu, grid.x)
        elif isinstance(spec, Tabulated):
            x = grid.x
            if x[0] < spec.x[0] - 1e-12 or x[-1] > spec.x[-1] + 1e-12:
                warnings.warn("tabulated potential does not cover the grid; zero-extending",
                              stacklevel=2)
            v = np.interp(x, spec.x, spec.v, left=0.0, right=0.0)
        elif isinstance(spec, Scaled):
            v = spec.factor * sample_potential(spec.base, grid)
        else:
            raise TypeError(f"unknown potential spec {type(spec).__name__}")
    if not np.isfinite(v).all():
        raise ModelError(f"potential samples are not finite on the grid (dx = {grid.dx:g})")
    return v


def coupling_terms(potential: PotentialSpec | Sequence[PotentialSpec | None] | None,
                   b: np.ndarray) -> list[tuple[PotentialSpec, np.ndarray]]:
    """The coupling sum_k V_k(x) B_k as a list of (spec_k, B_k) terms.

    A single spec couples through b: [(spec, b)]. A per-channel list
    diag(V_1, ..., V_N) gives (spec_ch, e_ch e_ch^T) for each entry that is
    not None, and must hold one entry per channel (N = len(b)). None means
    no potential: [].
    """
    b = np.asarray(b)
    if potential is None:
        return []
    if not isinstance(potential, (list, tuple)):
        return [(potential, b)]
    n_channels = b.shape[0]
    if len(potential) != n_channels:
        raise ModelError(f"need one potential entry per channel: "
                         f"{len(potential)} entries for {n_channels} channels")
    eye = np.eye(n_channels)
    return [(spec, np.outer(eye[ch], eye[ch]))
            for ch, spec in enumerate(potential) if spec is not None]


def load_tabulated(path) -> Tabulated:
    """Read a two-column (x, V) text table."""
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError(f"{path}: expected two numeric columns")
    return Tabulated(x=data[:, 0], v=data[:, 1])


def decay_scale(spec: PotentialSpec) -> float:
    """Inverse decay length of the potential (inf for a point interaction).

    A table's rate is that of its own envelope: ln(peak |v| / larger |v|
    at the two ends) over the half-span, 0 for a flat table and inf for
    one that falls to 0 at both ends or is 0 throughout.
    """
    if isinstance(spec, Delta):
        return float("inf")
    if isinstance(spec, SocBic):
        return 2.0 * abs(spec.nu)
    if isinstance(spec, Tabulated):
        span = max(abs(spec.x[0]), abs(spec.x[-1]))
        peak = np.abs(spec.v).max()
        end = max(abs(spec.v[0]), abs(spec.v[-1]))
        if span == 0 or end == 0:
            return float("inf")
        return float(np.log(peak / end)) / span
    if isinstance(spec, Scaled):
        return decay_scale(spec.base)
    raise TypeError(f"unknown potential spec {type(spec).__name__}")


def _finite_entry(doc: dict, key: str) -> float:
    value = float(doc[key])
    if not np.isfinite(value):
        raise ValueError(f"{key!r} must be finite, got {value}")
    return value


def spec_from_dict(doc: dict | None, base_dir=".") -> PotentialSpec | None:
    """Decode one per-channel potential entry of a model file.

    A relative tabulated path is read from base_dir, the model file's
    directory; absolute paths are used as they are.
    """
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise ValueError(f"potential entry must be an object or null, got {doc!r}")
    kind = doc.get("variant")
    if kind in (None, "none"):
        return None
    if kind == "delta":
        return Delta(strength=_finite_entry(doc, "strength"))
    if kind == "soc_bic":
        return SocBic(gamma=_finite_entry(doc, "gamma"), nu=_finite_entry(doc, "nu"))
    if kind == "tabulated":
        return load_tabulated(Path(base_dir) / doc["path"])
    if kind == "scaled":
        base = spec_from_dict(doc["base"], base_dir)
        if base is None:
            raise ValueError("scaled potential needs a base variant")
        return Scaled(base=base, factor=_finite_entry(doc, "factor"))
    raise ValueError(f"unknown potential variant {kind!r}")
