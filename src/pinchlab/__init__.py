"""pinchlab: a numerical laboratory for the curvature-eigenvalue
reaction flow in dimension three.

The package integrates the ordered-eigenvalue reaction system, encodes
the logarithmic pinching functions and preserved regions attached to
it, and ships a verifier that stress-tests every inequality,
invariance, and curvature-bound claim at desk scale.
"""

__version__ = "0.1.0"

# the package exports each module's __all__, so a name is listed once,
# in the module that defines it
from . import cone_sets, eigen_ode, errors, integrator, pinch_functions, verifier
from .cone_sets import *
from .eigen_ode import *
from .errors import *
from .integrator import *
from .pinch_functions import *
from .verifier import *

__all__ = [
    "__version__",
    *cone_sets.__all__,
    *eigen_ode.__all__,
    *errors.__all__,
    *integrator.__all__,
    *pinch_functions.__all__,
    *verifier.__all__,
]
