"""Bayes factors for two-group superiority, non-inferiority, and equivalence designs."""

from . import datamodel, engine, quadrature, report
from .datamodel import *
from .engine import *
from .quadrature import *
from .report import *

__version__ = "0.1.0"

__all__ = [*datamodel.__all__, *engine.__all__, *quadrature.__all__, *report.__all__,
           "__version__"]
