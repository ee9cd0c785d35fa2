"""Exception hierarchy shared by every brainsym module."""

from numbers import Integral, Real


class BrainsymError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(BrainsymError, ValueError):
    """A parameter violates an operation's precondition."""


_KINDS = {Integral: "an integer", Real: "a real number"}


def _require_real(name: str, value, low: float | None = None, kind=Real) -> int | float:
    """value as a Python int when it is an integer, else as a Python
    float, so no later arithmetic wraps or overflows in a narrow numpy
    type. A value that is no `kind` (a key of _KINDS), or is not >= the
    floor `low` when one is given (NaN never is), raises ParameterError
    naming `name`."""
    if not isinstance(value, kind):
        raise ParameterError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    value = int(value) if isinstance(value, Integral) else float(value)
    if low is not None and not value >= low:
        raise ParameterError(f"{name} must be >= {low}, got {value}")
    return value


def _require_int(name: str, value, low: int | None = None) -> int:
    """_require_real for an integer: Python and numpy integers pass, and
    so does a bool."""
    return _require_real(name, value, low, Integral)


def _require_fields(obj, rule, *names: str, **lows) -> None:
    """rule (_require_int or _require_real) on each of obj's fields
    `names`, and on each field in lows with its floor, storing each back
    (frozen or not). Meant for a dataclass's __post_init__."""
    for name, low in {**dict.fromkeys(names), **lows}.items():
        object.__setattr__(obj, name, rule(name, getattr(obj, name), low))


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
