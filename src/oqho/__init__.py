"""Physical realizability of linear systems as open quantum harmonic oscillators.

The package decides whether a square real transfer matrix can be realized by a
network of open quantum harmonic oscillators, synthesizes the oscillator
parameters when it can, converts between the position-momentum and
annihilation-creation parameterizations, factors commutation matrices, and
reports pole/zero mirror diagnostics.
"""

from .errors import *
from .forms import *
from .realizability import *
from .skewfactor import *
from .statespace import *
from .structured import *
from .worked_example import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *structured.__all__,
    *statespace.__all__,
    *skewfactor.__all__,
    *forms.__all__,
    *realizability.__all__,
    *worked_example.__all__,
    "__version__",
]
