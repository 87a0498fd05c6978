"""Exception hierarchy shared by all isotypic modules."""


class IsotypicError(Exception):
    """Base class for all library errors."""


def error_witness(exc: Exception, **where) -> dict:
    """What a failed check raised, and where (group, rep, irreducible)."""
    return {"error": type(exc).__name__, "message": str(exc), **where}


# -- group construction ------------------------------------------------------

class InvalidPermutation(IsotypicError):
    """Image sequence is not a bijection on its point set."""


class ClosureExceedsCap(IsotypicError):
    """Generator closure produced more elements than the configured cap."""


# -- exact arithmetic ---------------------------------------------------------

class ModulusTooLarge(IsotypicError):
    """Residue products mod p would overflow the int64 kernels."""


class PoleAtZero(IsotypicError):
    """Series expansion requested for a rational function with den(0) = 0."""


class ResidualPole(IsotypicError):
    """A factor (1 - t) survives in the denominator after clearing poles."""


# -- character computations ---------------------------------------------------

class SplitFailure(IsotypicError):
    """Simultaneous eigenspace refinement of the class matrices stalled.

    Signals an unsuitable modulus; unreachable when the modulus satisfies
    p = 1 (mod exponent) and p > |G|.
    """


class NotAMultiplicity(IsotypicError):
    """Inner product asserted to be a multiplicity lifts above its bound."""


class NoSplittingElement(IsotypicError):
    """No group element acts non-scalar on an irreducible of degree >= 2.

    Unreachable: such an element always exists, and reaching this error
    fails the test suite.
    """


# -- matrix representations ---------------------------------------------------

class NotAHomomorphism(IsotypicError):
    """Generator matrices are inconsistent along some generator word."""

    def __init__(self, message, word=None):
        super().__init__(message)
        self.word = word


class NotAnIntertwiner(IsotypicError):
    """A multiplicity-space basis matrix fails rho(g) T = T r(g) for a generator g."""


class SystemTooLarge(IsotypicError):
    """A dense array (multiplicity operators, a graded piece) would exceed the cell limit."""


class SingularMatrix(IsotypicError):
    """A matrix that must be invertible mod p has no inverse."""


class InconsistentMultiplicity(IsotypicError):
    """Projector rank and character inner product disagree on a multiplicity."""


class MethodMismatch(IsotypicError):
    """Two independent computations of a Hom_G dimension disagree."""


class NotInjective(IsotypicError):
    """Assembled evaluation map has a nonzero kernel."""


class WrongImage(IsotypicError):
    """Assembled evaluation map does not land on the isotypic component."""


# -- graded covers ------------------------------------------------------------

class NotFaithful(IsotypicError):
    """A cover action has nontrivial kernel; the quotient group would act."""
