"""Exception hierarchy shared by every brainsym module."""

from numbers import Integral


class BrainsymError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(BrainsymError, ValueError):
    """A parameter violates an operation's precondition."""


def _require_int(name: str, value) -> int:
    """value as a Python int, so no later arithmetic wraps in a narrow
    numpy type; Python and numpy integers pass, and so does a bool.
    Anything else raises ParameterError naming `name`."""
    if not isinstance(value, Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_ints(obj, *names: str) -> None:
    """_require_int on each of obj's fields `names`, in order, storing
    each back as a Python int (frozen or not). Meant for a dataclass's
    __post_init__."""
    for name in names:
        object.__setattr__(obj, name, _require_int(name, getattr(obj, name)))


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
