"""Charged-particle motion in an n-dimensional constant magnetic field.

The field is an antisymmetric tensor built from any linear gauge.  In a basis
orthonormal against a positive-definite form it splits into planar rotation
blocks plus force-free directions, which decomposes the classical motion into
independent cyclotron orbits and free flight, yields the conserved dual
momenta and orbit centers, and classifies the quantum spectrum into oscillator
ladders plus a continuum.
"""

# Each module's __all__ lists its public names once; the package re-exports them.
from . import canonical, dynamics, operators, spectrum, tensors
from .canonical import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .operators import *  # noqa: F403
from .spectrum import *  # noqa: F403
from .tensors import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*canonical.__all__, *dynamics.__all__, *operators.__all__, *spectrum.__all__,
           *tensors.__all__]
