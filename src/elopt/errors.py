"""Semantic exception hierarchy shared by the whole package, and the integer-argument rule."""

import numpy as np


class EloptError(Exception):
    """Base class for every error raised by elopt."""


class DomainError(EloptError, ValueError):
    """Evaluation point outside the non-negative orthant, or dimension mismatch."""


class ShapeError(EloptError, ValueError):
    """Curve shape flag incompatible with the requested construction."""


class ConstructionError(EloptError, RuntimeError):
    """A builder could not produce a verified feasible function."""


class SolverError(EloptError, RuntimeError):
    """LP solve failed (iteration budget or numerical breakdown)."""


class ConfigError(EloptError, ValueError):
    """Malformed CLI configuration document or flag combination."""


def _integer(value, least: int, need: str) -> int:
    """``value`` as an ``int`` if it is an integer (not a bool) >= ``least``; else ``DomainError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"{need}, got {value!r}")
    return int(value)
