"""Exceptions shared across the package."""


class DomainAbort(RuntimeError):
    """The computation left its certified domain; maps to exit code 2 in the CLI."""


class ConvexityError(DomainAbort):
    """A potential failed strict convexity certification."""

    def __init__(self, message: str, r: float | None = None):
        super().__init__(message)
        self.r = r


class RangeExcursionError(DomainAbort):
    """A field left the certified range [0, r_max].

    `step` is stamped by the time loop: the step it refused to take when the
    check before a step fails, and the last step taken (the step count) when
    the check after the final step fails.  It is None for the initial datum
    and for single steps.
    """

    def __init__(self, message: str, location=None, t: float | None = None,
                 step: int | None = None):
        super().__init__(message)
        self.location = location
        self.t = t
        self.step = step


class ConstructionError(DomainAbort):
    """A constructive procedure (quadrature, inversion, table build) failed its tolerance."""
