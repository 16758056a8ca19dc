"""Exception types shared across the library."""


class CftsError(Exception):
    """Base class for all library errors."""


class PointNotInTimeScale(CftsError):
    """A point was used that does not belong to the time scale."""


class OutsideKappaDomain(CftsError):
    """Delta differentiation was requested at the left-scattered maximum."""


class DenseDerivativeUnavailable(CftsError):
    """A derivative at a dense point cannot be formed from the given signal."""


class QuadratureNonConvergence(CftsError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class DomainError(CftsError):
    """Arguments violate an operation's domain restrictions."""


class NonRegressiveParameter(CftsError):
    """1 + mu(t)*p vanishes somewhere, so the time-scale exponential degenerates."""


class NonRegressiveKernel(NonRegressiveParameter):
    """Some graininess equals (1-alpha)/alpha, killing the fractional kernel."""


class NotRegressive(NonRegressiveParameter):
    """A linear problem is not solvable: K(alpha)=0 or p(alpha) not regressive."""


class NotContractive(CftsError):
    """The fixed-point operator is not a contraction on the given window.

    Carries ``max_window``, the largest interval length for which the
    contraction condition would hold with the given order and Lipschitz bound.
    """

    def __init__(self, q: float, max_window: float):
        self.q = q
        self.max_window = max_window
        super().__init__(
            f"contraction constant q={q:.6g} >= 1; "
            f"largest admissible window length is {max_window:.6g}"
        )


class MaxIterationsExceeded(CftsError):
    """Fixed-point iteration did not converge within the iteration budget."""
