"""Exception types shared across the toolkit."""


class ConfigurationError(ValueError):
    """An argument or config value is unusable: a violated precondition (wrong
    dimension, bad sign, ...) or an inconsistent config (bad gains, missing
    pieces, ...)."""


class BlowupError(ArithmeticError):
    """Integration produced a non-finite value. Carries the time at which it happened."""

    def __init__(self, t: float, message: str = ""):
        self.t = float(t)
        super().__init__(message or f"non-finite state encountered at t={t:.6g}")
