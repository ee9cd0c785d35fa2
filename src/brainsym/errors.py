"""Exception hierarchy shared by every brainsym module."""

from numbers import Integral


class BrainsymError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(BrainsymError, ValueError):
    """A parameter violates an operation's precondition."""


def _require_ints(obj, *names: str) -> None:
    """Raise ParameterError naming the first of obj's fields that does not
    hold an integer; Python and numpy integers pass, and so does a bool.

    Meant for a dataclass's __post_init__: each field is stored back as
    a Python int (frozen or not), so no later arithmetic wraps in a
    narrow numpy type.
    """
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, Integral):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(obj, name, int(value))


class NetpbmError(BrainsymError, ValueError):
    """A PGM/PPM file could not be parsed.

    ``field`` names the offending header/payload element
    ('magic', 'width', 'height', 'maxval', 'payload').
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class GeometryError(BrainsymError, RuntimeError):
    """The image geometry does not support the requested analysis
    (flat image, too few midpoint samples, ...)."""


class SingularSystemError(GeometryError):
    """A linear system is singular within tolerance."""


class PipelineError(BrainsymError, RuntimeError):
    """A detection pipeline stage failed; ``stage`` names it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage
