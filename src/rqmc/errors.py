"""Exception types shared across the package, and the number contracts."""

import math
import numbers
import operator


class CapacityError(ValueError):
    """A requested size exceeds what the implementation supports."""


class ContractError(ValueError):
    """A caller violated a precondition (distinct from a checked failure)."""


def instance(name: str, value, cls: type) -> None:
    """Refuse a ``value`` that is no ``cls`` with a `ContractError` naming ``name``."""
    if not isinstance(value, cls):
        raise ContractError(f"{name} must be a {cls.__name__}, got {value!r}")


def index(name: str, value) -> int:
    """The int that ``operator.index`` gives ``value`` (numpy integers
    included); a bool, or a value it refuses, such as a float, is a
    `ContractError` naming ``name``."""
    try:
        if isinstance(value, bool):
            raise TypeError  # operator.index takes it as 0 or 1
        return operator.index(value)
    except TypeError:
        raise ContractError(f"{name} must be an integer, got {value!r}") from None


def index_fields(obj, *names: str) -> None:
    """Set each named field of the frozen dataclass ``obj`` to its ``index``."""
    for name in names:
        object.__setattr__(obj, name, index(name, getattr(obj, name)))


def real(name: str, value) -> float:
    """``float(value)`` for a finite real ``value``, numpy's included; a bool, a
    non-real (a str, complex or Decimal) or a value that is not finite, an int
    too large for a float included, is a `ContractError` naming ``name``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # not shown: its digits can exceed str()'s limit
            too_large = f"{name} must be finite, got a number too large for a float"
            raise ContractError(too_large) from None
        if math.isfinite(x):
            return x
    raise ContractError(f"{name} must be finite and real, got {value!r}")


def real_fields(obj, *names: str) -> None:
    """Set each named field of the frozen dataclass ``obj`` to its ``real``."""
    for name in names:
        object.__setattr__(obj, name, real(name, getattr(obj, name)))
