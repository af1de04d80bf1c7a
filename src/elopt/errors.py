"""Semantic exception hierarchy shared by the whole package, and the integer-argument rule."""

import numpy as np

__all__ = ["EloptError", "DomainError", "ShapeError", "ConstructionError", "SolverError", "ConfigError"]


class EloptError(Exception):
    """Base class for every error raised by elopt."""


class DomainError(EloptError, ValueError):
    """Evaluation point outside the non-negative orthant, or dimension mismatch."""


class ShapeError(EloptError, ValueError):
    """A curve's shape does not fit the node or builder it is given to (a concave curve to ``ConvexDiag``)."""


class ConstructionError(EloptError, RuntimeError):
    """A builder could not produce a verified feasible function."""


class SolverError(EloptError, RuntimeError):
    """LP solve failed.

    ``solve_lp`` raises it when scipy's HiGHS extension cannot be loaded,
    when HiGHS rejects the model, when it ends with a status other than
    optimal, or when the optimum it reports violates the model.
    """


class ConfigError(EloptError, ValueError):
    """Malformed CLI configuration document or flag combination."""


def _integer(value, least: int, need: str) -> int:
    """``value`` as an ``int`` if it is an integer (not a bool) >= ``least``; else ``DomainError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"{need}, got {value!r}")
    return int(value)
