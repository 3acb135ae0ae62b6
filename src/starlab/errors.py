"""Exception taxonomy shared by all starlab modules."""


class StarlabError(Exception):
    """Base class for all starlab failures."""


# -- profile construction -------------------------------------------------

class NoFirstZero(StarlabError):
    """Density never crossed zero before y_max (delta below the solvable range)."""


class NonPhysicalVacuum(StarlabError):
    """Boundary slope of the sound-speed variable vanished or blew up."""


class ToleranceNotMet(StarlabError):
    """Integrator or root finder could not reach the requested tolerance."""


class OutOfRange(StarlabError):
    """Model parameters outside the admissible range (e.g. epsilon*K)."""


class ZerosDoNotCoincide(StarlabError):
    """Density and temperature zeros of the thermodynamic profile disagree."""


# -- expansion factor ------------------------------------------------------

class InvalidParams(StarlabError):
    """Parameters or inputs violate a precondition (e.g. a0 <= 0, mismatched grids)."""


class WrongClassification(StarlabError):
    """Operation requires a different expansion classification."""


# -- phase plane and PDE solvers -------------------------------------------

class DomainViolation(StarlabError):
    """State left the domain of the equations (1 + phi <= 0 or degenerate Jacobian)."""


class StepFailure(StarlabError):
    """Time stepper failed to produce an acceptable step."""


# -- functionals ------------------------------------------------------------

class MissingDerivative(StarlabError):
    """Field series lacks the clock derivatives a functional needs."""


class WeightViolation(StarlabError):
    """Temporal/interior weight specification violates its constraints."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class KEqualsOne(StarlabError):
    """Hardy inequality excludes k = 1."""


# -- configuration -------------------------------------------------------------

class ConfigInvalid(InvalidParams):
    """Named constraints violated by a configuration, SolverSpec or GridSpec.  Carries all."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)
