"""Geometric quantum discord and total quantum correlations.

The package computes, for multipartite quantum states:

* the geometric discord D_k of any measured party, in closed form for
  N-qubit states and numerically (best-found upper bound) for general
  parties;
* the total quantum correlations Q removed by optimal successive
  measurements on every party of an N-qubit state;
* independent brute-force cross-checks of the closed forms by direct
  minimization over measurement axes.

Parties are labelled 1..N throughout.  See the README for the file formats
and the command-line interface.
"""

from . import bloch, discord, formats, measurement, oracle, states, sweep, tensor_ops, total
from .bloch import *
from .discord import *
from .formats import *
from .measurement import *
from .oracle import *
from .states import *
from .sweep import *
from .tensor_ops import *
from .total import *

# each public name is declared once, in its own module's __all__
__all__ = sorted(
    bloch.__all__
    + discord.__all__
    + formats.__all__
    + measurement.__all__
    + oracle.__all__
    + states.__all__
    + sweep.__all__
    + tensor_ops.__all__
    + total.__all__
)

__version__ = "0.1.0"
