"""Law-invariant coherent risk measures and elicitability diagnostics.

The package re-exports the public names of its modules, each listed once in
that module's ``__all__``.
"""

from . import distributions, elicit, risk, scoring, spectral
from .distributions import *  # noqa: F401,F403
from .elicit import *  # noqa: F401,F403
from .risk import *  # noqa: F401,F403
from .scoring import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*distributions.__all__, *spectral.__all__, *risk.__all__, *elicit.__all__,
           *scoring.__all__, "__version__"]
