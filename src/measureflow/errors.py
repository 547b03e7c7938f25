"""Exception types shared across the package."""


class InputError(ValueError):
    """Caller supplied arguments outside an operation's contract."""


class NumericDomainError(ArithmeticError):
    """A computation produced non-finite values or a weight that underflows to 0; has a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class StabilityError(RuntimeError):
    """The Euler scheme violated its declared velocity bound L."""

    def __init__(self, step, moment, bound):
        super().__init__(
            f"scheme not L-stable: |Phi^{step}|_2 = {moment:.6g} exceeds L = {bound:.6g}"
        )
        self.step = step
        self.moment = moment
        self.bound = bound


class ResourceCapError(RuntimeError):
    """Exact propagation exceeded a configured atom or tuple budget."""

    def __init__(self, message, predicted=None, cap=None):
        super().__init__(message)
        self.predicted = predicted
        self.cap = cap


class InsufficientDataError(ValueError):
    """Not enough usable rows for a fit."""
