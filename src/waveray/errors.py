"""Exception hierarchy for the library.

Everything raised on purpose derives from :class:`WaverayError`, so callers
(and the CLI) can tell library failures apart from genuine programming
errors.
"""

from dataclasses import fields


class WaverayError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(WaverayError, ValueError):
    """Operand shapes are inconsistent with an operation's contract."""


class BroadcastError(ShapeError):
    """Two shapes cannot be broadcast together."""


class InvalidAxisError(WaverayError, ValueError):
    """An axis argument is out of range for the given tensor."""


class GraphError(WaverayError, RuntimeError):
    """The backward pass cannot run on the recorded graph."""


class NonScalarLossError(GraphError):
    """backward() was called on a tensor with more than one element."""


class DetachedGraphError(GraphError):
    """The loss tensor was not produced on the given tape."""


class ConfigError(WaverayError, ValueError):
    """Invalid model, training or CLI configuration."""


_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _fits(kind: str, v) -> bool:
    """Whether ``v`` fits a config field annotated ``kind``: only a bool fits
    ``bool``, numpy integers fit no ``int``, a ``tuple`` is a tuple or list of ints."""
    if kind == "tuple":
        return isinstance(v, (tuple, list)) and all(_fits("int", x) for x in v)
    return isinstance(v, bool) == (kind == "bool") and isinstance(v, _TYPES.get(kind, object))


def check_field_types(cfg) -> None:
    """Raise ``ConfigError`` naming the first field of the dataclass ``cfg``
    whose value does not fit the type name it is annotated with."""
    for f in fields(cfg):
        if not _fits(f.type, value := getattr(cfg, f.name)):
            raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")


class DataError(WaverayError, ValueError):
    """Dataset, manifest or image decoding problem."""


class CheckpointError(WaverayError, ValueError):
    """Malformed, corrupted or incompatible checkpoint file."""


class DivergenceError(WaverayError, RuntimeError):
    """Training produced a non-finite loss."""
