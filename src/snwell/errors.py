"""Exception types shared across the package."""

__all__ = ["ConfigurationError", "NumericalError"]


class ConfigurationError(ValueError):
    """Invalid build or run configuration (bad grid bounds, bad parameter set, ...)."""


class NumericalError(ArithmeticError):
    """A numerical computation failed or violated its accuracy contract.

    ``state_index`` identifies the offending eigenstate when one is known.
    """

    def __init__(self, message, state_index=None):
        super().__init__(message)
        self.state_index = state_index
