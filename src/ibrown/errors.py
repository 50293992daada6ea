"""Exception hierarchy for the ibrown package."""

import numpy as np


class IBrownError(Exception):
    """Base class for all package-specific errors."""


class MeasureFormatError(IBrownError):
    """Malformed measure description (unknown keys, bad types, bad ranges)."""


class DiracMeasureError(IBrownError):
    """The input law collapses to a single point mass, which is excluded."""


class NegativeMassError(IBrownError):
    """A weight or density value is negative."""


class EmptyMeasureError(IBrownError):
    """Total mass is zero."""


class OnSupportError(IBrownError):
    """Evaluation point sits on the support of the law where the transform diverges."""


class NoConvergenceError(IBrownError):
    """An iterative solve exhausted its budget without meeting tolerance."""


class WrongBasinError(NoConvergenceError):
    """A root solve landed in the excluded region (inside the source domain)."""


class OutsideOmegaError(IBrownError):
    """Point is not inside the planar support region."""


class OutsideLambdaError(IBrownError):
    """Point is not inside the source-plane region."""


class OutsideOnlyError(IBrownError):
    """Operation is defined only outside the closed planar support region."""


class PastLifetimeError(IBrownError):
    """Requested time is at or beyond the blow-up time of the characteristic."""


class DivergentLogError(IBrownError):
    """Logarithmic energy integral diverges (zero regularization on an atom)."""


class DegenerateJacobianError(IBrownError):
    """An analytic derivative assembly hit a degenerate denominator."""


class EigenFailureError(IBrownError):
    """Dense eigensolver failed to converge."""


#: failures of one numerical trial that make damped_newton treat its point as
#: inadmissible; anything else (a TypeError, a KeyError) is a bug and propagates
NUMERIC_FAILURES = (IBrownError, ArithmeticError, np.linalg.LinAlgError)
