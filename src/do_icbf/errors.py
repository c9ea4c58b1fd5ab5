"""Exception types shared across the toolkit."""


class ContractViolationError(ValueError):
    """An argument violates a documented precondition (wrong dimension, bad sign, ...)."""


class ConfigurationError(ValueError):
    """A config object is internally inconsistent (bad gains, missing pieces, ...)."""


class BlowupError(ArithmeticError):
    """Integration produced a non-finite value. Carries the time at which it happened."""

    def __init__(self, t: float, message: str = ""):
        self.t = float(t)
        super().__init__(message or f"non-finite state encountered at t={t:.6g}")
