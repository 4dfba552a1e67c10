"""Exception types raised by the interpolation pipeline."""


class ProinterpError(Exception):
    """Base class for all package-specific errors."""


class NotSymmetricError(ProinterpError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class NotPositiveDefiniteError(ProinterpError):
    """A symmetric matrix has an eigenvalue at or below the positivity floor."""


class NotLyapunovRegularError(ProinterpError):
    """A matrix has an eigenvalue pair summing to (numerically) zero."""


class NotInBicommutantError(ProinterpError):
    """The target matrix is not in the bicommutant of the base point."""


class NotStarLinearError(ProinterpError):
    """A linear matrix map does not respect the adjoint (its Choi matrix
    is not symmetric)."""


class RankMismatchError(ProinterpError):
    """A Hill representation fails to reproduce the map it was read off."""


class ResidualTooLargeError(ProinterpError):
    """A least-squares solve left a residual above the acceptance gate."""


class PoleHitError(ProinterpError):
    """A rational function was evaluated too close to one of its poles."""


class SingularPencilError(ProinterpError):
    """A linear pencil that should be invertible is numerically singular."""
