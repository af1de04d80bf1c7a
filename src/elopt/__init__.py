"""Entropy-like functions on the non-negative orthant.

Expression trees with exact one-sided partial derivatives, separating
surfaces, feasibility and property verification, normal-ratio cost bounds,
optimal constructions for linear/convex/concave surfaces, and an independent
grid-LP lower bound.  See the README for the CLI.

Each library module's ``__all__`` is its public API; the package re-exports
those lists and nothing else.
"""

from . import analysis, constructions, errors, exprs, lp_oracle, surfaces
from .analysis import *
from .constructions import *
from .errors import *
from .exprs import *
from .lp_oracle import *
from .surfaces import *

__version__ = "0.1.0"

__all__ = [name for module in (analysis, constructions, errors, exprs, lp_oracle, surfaces) for name in module.__all__]
