"""Model definitions for 1D N-band Hamiltonians H(p) = p^2/(2m) + a0 + a1*p + V(x)*B.

All matrices are stored explicitly (N x N complex Hermitian); the Pauli
helpers below are construction conveniences for the two-band families.
Units: hbar = 1 throughout.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ModelError

HERMITIAN_RTOL = 1e-12


def sigma_x() -> np.ndarray:
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def sigma_y() -> np.ndarray:
    return np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def sigma_z() -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _check_hermitian(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ModelError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ModelError(f"{name} has non-finite entries")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.conj().T).max() > HERMITIAN_RTOL * scale:
        raise ModelError(f"{name} is not Hermitian within {HERMITIAN_RTOL:g} relative tolerance")
    return m


@dataclass(frozen=True)
class BandModel:
    """Parameters of an N-band continuum Hamiltonian.

    a0 is the constant interband coupling, a1 the coefficient of the
    linear-in-momentum term (zero for constant-coupling models), and b the
    matrix multiplying the scalar potential V(x).
    """

    n_bands: int
    mass: float
    a0: np.ndarray
    a1: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.n_bands < 1:
            raise ModelError("n_bands must be >= 1")
        if not self.mass > 0:
            raise ModelError("mass must be positive")
        if not np.isfinite(self.mass):
            raise ModelError(f"mass must be finite, got {self.mass}")
        with np.errstate(over="ignore"):
            two_m = 2.0 * np.float64(self.mass)
            if not (np.isfinite(two_m) and np.isfinite(1.0 / two_m)):
                raise ModelError(f"mass {self.mass:g} is out of range: 2*mass or "
                                 "1/(2*mass) is not finite")
        for name in ("a0", "a1", "b"):
            m = _check_hermitian(getattr(self, name), name)
            if m.shape != (self.n_bands, self.n_bands):
                raise ModelError(f"{name} must be {self.n_bands}x{self.n_bands}")
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    def h0(self, p: complex) -> np.ndarray:
        """Free Hamiltonian matrix at (possibly complex) momentum p."""
        return self.h0_many([p])[0]

    def h0_many(self, ps) -> np.ndarray:
        """Free Hamiltonian matrices at a sequence of momenta, shape (K, N, N)."""
        moms = np.asarray(ps, dtype=complex)[:, None, None]
        return (moms * moms / (2.0 * self.mass)) * np.eye(self.n_bands) + self.a0 + self.a1 * moms

    @property
    def has_linear_term(self) -> bool:
        return bool(np.abs(self.a1).max() > 0)


def single_band_model(mass: float = 1.0, lam: float = 0.0) -> BandModel:
    """One band with a scalar potential coupling lam."""
    z = np.zeros((1, 1))
    return BandModel(1, mass, z, z, np.array([[lam]], dtype=complex))


def two_band_model(mu: float, g: float, lam: float = 0.0, mass: float = 1.0) -> BandModel:
    """Two bands split by mu*sigma_z + g*sigma_x, potential on channel 1 only.

    The degenerate point (mu, g) = (0, 0) is rejected: the interband gap
    collapses and the closed-form solvers lose their validity window.
    """
    if mu == 0.0 and g == 0.0:
        raise ModelError("(mu, g) = (0, 0) collapses the gap; use single_band_model")
    return general_b_model(mu, g, np.diag([lam, 0.0]), mass=mass)


def general_b_model(mu: float, g: float, b: np.ndarray, mass: float = 1.0) -> BandModel:
    """Two constant-coupling bands with an arbitrary Hermitian potential matrix."""
    if mu == 0.0 and g == 0.0:
        raise ModelError("(mu, g) = (0, 0) collapses the gap")
    a0 = mu * sigma_z() + g * sigma_x()
    return BandModel(2, mass, a0, np.zeros((2, 2)), np.asarray(b, dtype=complex))


def soc_model(gamma: float, mu: float, mass: float = 1.0, b: np.ndarray | None = None) -> BandModel:
    """Spin-orbit coupled two-band model: a0 = mu*sigma_z, a1 = gamma*sigma_y.

    Default potential coupling projects on channel 1: B = (sigma_z + 1)/2.
    """
    if b is None:
        b = (sigma_z() + np.eye(2)) / 2.0
    return BandModel(2, mass, mu * sigma_z(), gamma * sigma_y(), np.asarray(b, dtype=complex))


# --- model description files (consumed by the CLI) -------------------------
#
# JSON document with complex matrices as row-major nested lists of [re, im]
# pairs; see schemas/model.schema.json for the exact layout.

def _matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]


def _pairs_to_matrix(rows, name: str) -> np.ndarray:
    try:
        return np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise ModelError(f"field {name!r}: expected rows of [re, im] pairs") from exc


def model_to_dict(model: BandModel, potentials: list | None = None) -> dict:
    doc = {
        "n_bands": model.n_bands,
        "mass": model.mass,
        "a0": _matrix_to_pairs(model.a0),
        "a1": _matrix_to_pairs(model.a1),
        "b": _matrix_to_pairs(model.b),
    }
    if potentials is not None:
        doc["potentials"] = potentials
    return doc


def model_from_dict(doc: dict) -> tuple[BandModel, list | None]:
    """Build a BandModel from a parsed model document.

    Returns the model and the raw per-channel potential entries (or None);
    potential entries are decoded by bicforge.potentials.
    """
    try:
        n = int(doc["n_bands"])
        mass = float(doc["mass"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelError("model file needs numeric 'n_bands' and 'mass'") from exc
    mats = {}
    for name in ("a0", "a1", "b"):
        if name not in doc:
            raise ModelError(f"model file missing matrix {name!r}")
        mats[name] = _pairs_to_matrix(doc[name], name)
    model = BandModel(n, mass, mats["a0"], mats["a1"], mats["b"])
    potentials = doc.get("potentials")
    if potentials is not None and not isinstance(potentials, list):
        raise ModelError("model file field 'potentials' must be a list")
    return model, potentials


def load_model(path) -> tuple[BandModel, list | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelError(f"model file {path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelError(f"model file {path}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"model file {path}: {exc}") from exc
    return model_from_dict(doc)


def save_model(path, model: BandModel, potentials: list | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model, potentials), fh, indent=2, sort_keys=True)
        fh.write("\n")
