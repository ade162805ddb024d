"""Exception types shared across the package."""


class AntipodalError(Exception):
    """Base class for every error raised by this package."""


class InputError(AntipodalError, ValueError):
    """An argument violates a documented precondition."""


class FormatError(InputError):
    """A structure file cannot be parsed."""


class SizeLimitError(InputError):
    """An exhaustive operation was asked to exceed its size bound."""

    def __init__(self, message: str, bound: int):
        super().__init__(message)
        self.bound = bound


class PreconditionError(InputError):
    """A completion precondition failed; carries the failing clause and vertices."""

    def __init__(self, clause: str, message: str, vertices=()):
        super().__init__(f"{clause}: {message}")
        self.clause = clause
        self.vertices = tuple(vertices)


class InternalError(AntipodalError):
    """An internal audit failed: a fault in this package, not in its input."""


class CompletionError(AntipodalError):
    """No completion exists within the searched space."""


class NonMetricCycleError(CompletionError):
    """Metric completion found a cycle whose closing label beats the path around it."""

    def __init__(self, cycle):
        super().__init__(f"non-metric cycle with labels {tuple(cycle.labels)}")
        self.cycle = cycle


class CompletionNotEquivariant(CompletionError):
    """A completion was found but fails the symmetry-preservation audit."""

    def __init__(self, message: str, automorphism=None):
        super().__init__(message)
        self.automorphism = automorphism
