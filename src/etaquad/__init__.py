"""Corrected-trapezoid quadrature over direction-map paths, with exact
remainder identities, closed-form third-derivative bounds, certified
composite integration, and a randomised verification harness."""

from . import bounds, expr, harness, identity, invex, quadrature, simpson
from .expr import *
from .simpson import *
from .invex import *
from .identity import *
from .bounds import *
from .quadrature import *
from .harness import *

__version__ = "0.1.0"

__all__ = ["__version__", *expr.__all__, *simpson.__all__, *invex.__all__, *identity.__all__,
           *bounds.__all__, *quadrature.__all__, *harness.__all__]
