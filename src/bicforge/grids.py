"""Uniform symmetric grids and sampled N-component wave functions."""
from __future__ import annotations

import functools
import warnings
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

MIN_POINTS = 64


@dataclass(frozen=True)
class Grid:
    """Uniform grid symmetric about 0: x_i = -(n-1) dx/2 + i dx."""

    dx: float
    n_points: int

    def __post_init__(self):
        if not self.dx > 0:
            raise ValueError("dx must be positive")
        if self.n_points < MIN_POINTS:
            raise ValueError(f"n_points must be >= {MIN_POINTS}")

    @classmethod
    def symmetric(cls, half_width: float, n_points: int) -> "Grid":
        """Grid spanning [-half_width, +half_width] with n_points samples."""
        dx = 2.0 * half_width / (n_points - 1)
        return cls(dx=dx, n_points=n_points)

    @property
    def x_min(self) -> float:
        return -(self.n_points - 1) * self.dx / 2.0

    @property
    def x_max(self) -> float:
        return (self.n_points - 1) * self.dx / 2.0

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights."""
        w = np.full(self.n_points, self.dx)
        w[0] = w[-1] = self.dx / 2.0
        return w

    def center_index(self) -> int:
        """Index of the sample nearest x = 0."""
        return int(np.argmin(np.abs(self.x)))


@dataclass(frozen=True)
class SpinorField:
    """N-component complex wave function sampled on a grid."""

    grid: Grid
    values: np.ndarray  # (n_points, N) complex

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 2 or v.shape[0] != self.grid.n_points:
            raise ValueError("values must have shape (n_points, N)")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n_bands(self) -> int:
        return self.values.shape[1]

    @property
    def density(self) -> np.ndarray:
        """Channel-summed |psi|^2 per grid point."""
        return np.sum(np.abs(self.values) ** 2, axis=1)

    def norm_sq(self) -> float:
        return float(np.sum(self.density) * self.grid.dx)

    def peak_amplitude(self) -> float:
        return float(np.abs(self.values).max())


# (half-width, decay rate) of every record_coverage inside the outermost
# warns_coverage_once call in flight, which warns once for all of them
_COVERAGE: ContextVar[list | None] = ContextVar("coverage", default=None)


def record_coverage(grid: Grid, rate: float) -> None:
    """Note that a result read on grid depends on something that decays at
    rate; a no-op outside a warns_coverage_once call."""
    seen = _COVERAGE.get()
    if seen is not None:
        seen.append((grid.x_max, rate))


def warns_coverage_once(fn):
    """Warn at most once per call of fn, nested calls included, when a rate
    recorded inside it spans more than a tenth of its grid's half-width; the
    warning quotes the slowest rate seen."""

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
