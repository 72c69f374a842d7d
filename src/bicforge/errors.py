"""Exception hierarchy shared by all bicforge modules."""


class BicforgeError(Exception):
    """Base class for all library errors."""


class ModelError(BicforgeError):
    """Invalid model parameters (non-Hermitian matrices, bad mass, ...)."""


class DegeneratePolynomial(BicforgeError):
    """The pencil whose eigenvalues are the momentum poles has a non-finite
    entry."""


class DegeneratePoles(BicforgeError):
    """Two momentum poles coincide; residue weights are singular.

    energy is the energy where they coincide, when the raiser names one.
    """

    def __init__(self, message: str, energy: float | None = None):
        super().__init__(message)
        self.energy = energy


class ComplexInnerRoot(BicforgeError):
    """Inner radicand of the spin-orbit pole formula is negative."""


class NoBoundState(BicforgeError):
    """Requested a bound state where none exists (repulsive coupling)."""


class ZeroExpression(BicforgeError):
    """Coupling-matrix combination vanishes; no localized component."""


class GapViolation(BicforgeError):
    """Energy lies outside the mixed-pole window required by a closed form."""


class SingularG(BicforgeError):
    """Closed-form kernel coefficients undefined (interband coupling g = 0)."""


class InvalidRadicand(BicforgeError):
    """Parameter combination makes a square-root argument negative."""


class SingularDenominator(BicforgeError):
    """Potential denominator can vanish for these parameters."""


class GridTooCoarse(BicforgeError):
    """Grid spacing cannot resolve the requested oscillation."""


class ResourceLimit(BicforgeError):
    """A request beyond a size or work bound, refused before the work."""


class GridTooLarge(ResourceLimit):
    """Oracle diagonalization refused beyond the supported matrix size."""


class NoNearUnitEigenvalue(BicforgeError):
    """No eigenvalue of the discretized map lies near 1.

    distance is |lambda - 1| of the nearest eigenvalue, when one was found.
    """

    def __init__(self, message: str, distance: float | None = None):
        super().__init__(message)
        self.distance = distance


class NoSolutionInRange(BicforgeError):
    """Energy scan found no self-consistent solution in the window."""


class WindowTooShort(BicforgeError):
    """Tail-fit window shorter than the required number of periods."""


class CheckFailure(BicforgeError):
    """A cross-check deviated beyond its tolerance."""
